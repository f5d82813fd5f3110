"""Reduced planar-ternary-ring polynomials for the Hughes planes over
regular nearfields, with exhaustive verification and differential-uniformity
analysis over GF(Q), Q = p^(2e)."""

import os

# numpy's OpenBLAS starts a worker thread that spins on a second core for
# about 0.1 s of CPU; hughesptr never calls BLAS (its @ products are on integer
# arrays), so pin it to one thread while the submodules load numpy.  A value
# the user has set is kept, and os.environ is left as it was found.
_pin_blas = "OPENBLAS_NUM_THREADS" not in os.environ
if _pin_blas:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
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
        ptr_slabs,
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
finally:
    if _pin_blas:
        del os.environ["OPENBLAS_NUM_THREADS"]
del _pin_blas

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
    "ptr_slabs",
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
