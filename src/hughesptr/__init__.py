"""Reduced planar-ternary-ring polynomials for the Hughes planes over
regular nearfields, with exhaustive verification and differential-uniformity
analysis over GF(Q), Q = p^(2e)."""

from .du_analysis import DuProfile, diff_op, du, du_sections, k_sets, uniformity
from .gf_tower import FieldCtx, FieldElement, field_ctx
from .hughes_core import (
    KPair,
    NotUniqueError,
    build_nonreduced_T,
    build_reduced_T,
    build_T2,
    nearfield_mul,
    nonreduced_blocks,
    phi_eval,
    phi_poly,
    ptr_nearfield_form,
    ptr_piecewise,
    ptr_table,
    ptr_values,
    piecewise_match,
    reduced_blocks,
    sigma_eval,
    solve_kkprime,
    t2_blocks,
)
from .ptr_verify import (
    PtrReport,
    build_plane,
    check_axioms,
    check_plane,
    check_pp_classes,
)
from .trivar_poly import TriPoly, evaluate_grid, variables

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "FieldElement",
    "field_ctx",
    "TriPoly",
    "variables",
    "evaluate_grid",
    "KPair",
    "NotUniqueError",
    "nearfield_mul",
    "solve_kkprime",
    "ptr_piecewise",
    "ptr_nearfield_form",
    "ptr_table",
    "ptr_values",
    "phi_eval",
    "phi_poly",
    "sigma_eval",
    "build_nonreduced_T",
    "build_reduced_T",
    "build_T2",
    "nonreduced_blocks",
    "reduced_blocks",
    "t2_blocks",
    "piecewise_match",
    "PtrReport",
    "check_axioms",
    "check_pp_classes",
    "build_plane",
    "check_plane",
    "DuProfile",
    "uniformity",
    "diff_op",
    "du",
    "du_sections",
    "k_sets",
    "__version__",
]
