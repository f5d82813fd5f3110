"""`import hughesptr` pins OpenBLAS to one thread and leaves os.environ as found.

Each case runs in a fresh interpreter: OpenBLAS reads OPENBLAS_NUM_THREADS
once, when numpy first loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hughesptr

_VAR = "OPENBLAS_NUM_THREADS"

# the thread count OpenBLAS will use, or None when numpy ships no OpenBLAS
_PROBE = """
import ctypes, glob, os

def blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None
"""


def _run(body: str, value: str | None) -> dict:
    """Run PROBE + body in a fresh python with the variable unset or set to value."""
    env = dict(os.environ, PYTHONPATH=str(Path(hughesptr.__file__).parents[1]))
    env.pop(_VAR, None)
    if value is not None:
        env[_VAR] = value
    proc = subprocess.run([sys.executable, "-c", _PROBE + body], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


_AFTER_IMPORT = """
import json, os
import hughesptr
print(json.dumps({"threads": blas_threads(), "var": os.environ.get("%s")}))
""" % _VAR


def test_import_pins_openblas_to_one_thread_and_unsets_the_variable():
    got = _run(_AFTER_IMPORT, None)
    if got["threads"] is None:
        pytest.skip("numpy ships no OpenBLAS")
    assert got == {"threads": 1, "var": None}


def test_import_keeps_a_user_setting():
    got = _run(_AFTER_IMPORT, "2")
    if got["threads"] is None:
        pytest.skip("numpy ships no OpenBLAS")
    assert got == {"threads": 2, "var": "2"}


@pytest.mark.parametrize("value", [None, "2"])
def test_import_after_numpy_leaves_the_environment_unchanged(value):
    body = """
import json, os
import numpy
before = dict(os.environ)
import hughesptr
print(json.dumps(dict(os.environ) == before))
"""
    assert _run(body, value) is True
