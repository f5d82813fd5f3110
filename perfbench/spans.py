"""Spans recorded from outside hughesptr, around its public functions.

``Tracer.install()`` rebinds every function listed in ``LAYERS`` to a wrapper
that records one span per call: layer name, start, end and the index of the
enclosing span.  Module-level functions are rebound in every hughesptr module
that imported them by name (``cli.evaluate_grid``, ``cli.field_ctx``, ...),
methods on their class.  Spans are kept in memory, in flat arrays so that the
half-million oracle calls of a Q=81 sweep stay cheap, and are reduced once at
the end by ``summary()`` into per-layer calls, total time and self time (span
time minus the time covered by its child spans), plus the work counts below.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from array import array

import numpy as np


def _elems(args, result):
    return int(np.size(result))


def _yz_groups(args, result):
    # evaluate_grid makes one Q^3 pass per distinct (Y, Z) exponent pair
    return len({(j, k) for _, j, k in args[0].terms})


def _sections(args, result):
    return sum(len(family["deltas"]) for family in result.values())


def _checked(args, result):
    return sum(check.checked for check in result.values())


def _peak_rss_mb(args, result):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# (layer name, module, attribute path, {metric: (count per call, how calls combine)})
LAYERS = [
    ("gf_tower.field_ctx", "gf_tower", "field_ctx", {}),
    ("gf_tower.tables", "gf_tower", "FieldTables.__init__", {}),
    ("gf_tower.FieldTables.add", "gf_tower", "FieldTables.add",
     {"gf_tower.FieldTables.add.elems": (_elems, sum)}),
    ("gf_tower.FieldTables.mul", "gf_tower", "FieldTables.mul",
     {"gf_tower.FieldTables.mul.elems": (_elems, sum)}),
    ("hughes_core.ptr_piecewise", "hughes_core", "ptr_piecewise", {}),
    ("hughes_core.ptr_table", "hughes_core", "ptr_table", {}),
    ("hughes_core.build_reduced_T", "hughes_core", "build_reduced_T", {}),
    ("hughes_core.build_nonreduced_T", "hughes_core", "build_nonreduced_T", {}),
    ("hughes_core.build_T2", "hughes_core", "build_T2", {}),
    ("trivar_poly.TriPoly.__mul__", "trivar_poly", "TriPoly.__mul__", {}),
    ("trivar_poly.TriPoly.__add__", "trivar_poly", "TriPoly.__add__", {}),
    ("trivar_poly.evaluate_grid", "trivar_poly", "evaluate_grid",
     {"trivar_poly.evaluate_grid.groups": (_yz_groups, sum)}),
    ("ptr_verify.value_table", "ptr_verify", "value_table", {}),
    ("ptr_verify.check_axioms", "ptr_verify", "check_axioms", {}),
    ("ptr_verify.check_pp_classes", "ptr_verify", "check_pp_classes", {}),
    ("ptr_verify.build_plane", "ptr_verify", "build_plane", {}),
    ("ptr_verify.check_plane", "ptr_verify", "check_plane",
     {"ptr_verify.check_plane.rss_mb": (_peak_rss_mb, max)}),
    ("du_analysis.du_sections", "du_analysis", "du_sections",
     {"du_analysis.sections": (_sections, sum)}),
    ("du_analysis.piecewise_section", "du_analysis", "piecewise_section", {}),
    ("modcomb.identity_suite", "modcomb", "identity_suite",
     {"modcomb.identity_suite.checked": (_checked, sum)}),
    ("cli.main", "cli", "main", {}),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def _wrap(self, name, fn, counters):
        layer_id = len(self.names)
        self.names.append(name)
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self.stack
        counts, clock = self.counts, time.perf_counter
        counters = [(key, count, combine) for key, (count, combine) in counters.items()]
        for key, _, _ in counters:
            counts[key] = 0

        def traced(*args, **kwargs):
            i = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            for key, count, combine in counters:
                counts[key] = combine((counts[key], count(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every layer function; hughesptr must already be imported."""
        package = [mod for key, mod in sys.modules.items()
                   if key == "hughesptr" or key.startswith("hughesptr.")]
        for name, module, path, counters in LAYERS:
            mod = importlib.import_module(f"hughesptr.{module}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr], counters))
                continue
            fn = getattr(mod, attr)
            traced = self._wrap(name, fn, counters)
            for other in package:
                if other.__dict__.get(attr) is fn:
                    setattr(other, attr, traced)

    def summary(self) -> dict[str, float]:
        """Per-layer ``calls``, ``total_s`` and ``self_s``, plus the counts."""
        n_layers = len(self.names)
        layer = np.frombuffer(self.layer, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        calls = np.bincount(layer, minlength=n_layers)
        total = np.bincount(layer, weights=duration, minlength=n_layers)
        own = np.bincount(layer, weights=duration - covered, minlength=n_layers)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        out.update(self.counts)
        return out
