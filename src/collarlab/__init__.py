"""Numerical laboratory for the hyperbolic-collar model of degenerating
surfaces: explicit metrics, mode-wise Green solves, curvature tensors, and
their leading-order asymptotics.
"""

import os

# One OpenBLAS thread unless the caller chose otherwise.  Set before the
# first submodule import loads numpy, whose OpenBLAS also runs the
# resolvent's LAPACK (scipy's _flapack, with a pool of its own, only where
# numpy's exports no ILP64 zgbtrf): idle workers spin, no matrix here is
# large enough for a second thread to pay, and a threaded dot splits its
# sum, so at n_tau >= 16384 the bits of TauGrid.integrate would depend on
# the core count.  A caller who imported numpy first already has its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .collar import (CollarError, CollarParams, CutoffSpec, TauGrid,
                     collar_from_t, collar_from_u, cutoff_eval, make_grid)
from .fields import (BandwidthWarning, CollarField, UnderResolvedError,
                     constant_field, integral_product, pairing_l2,
                     volume_integral, wirtinger)
from .differentials import (BeltramiSpec, CollarSystem, MetricMatrix,
                            QuadDiffSpec, beltrami_field, coupled_family,
                            diagonal_family, duality_check, qdiff_field,
                            wp_cometric, wp_metric)
from .operators import box, ck_norm, maass, op_P, op_P_bar, q_operator, xi
from .green import (SolverConfig, SolverError, SupportWarning, apply_box1,
                    solve_T)
from .curvature import CurvatureWorkspace, hermitian_defect, upper_index
from .memos import cache_scope, cache_stats, clear_cache
from .asymptotics import (DegenerateFitError, approximant_errors,
                          build_approximants, equivalence_ratios,
                          fit_power_law, g2_spotcheck, geodesic_length,
                          length_derivative_check, perturbed_prediction,
                          relative_change)
from .targets import target, target_table

__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use (PEP 562), so `python -m collarlab.cli` runs it
    # once, as __main__, and `import collarlab` leaves it unloaded
    if name in ("RunConfig", "emit_report", "main", "run_suite"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BandwidthWarning", "BeltramiSpec", "CollarError", "CollarField",
    "CollarParams", "CollarSystem", "CurvatureWorkspace", "CutoffSpec",
    "DegenerateFitError", "MetricMatrix", "QuadDiffSpec", "RunConfig",
    "SolverConfig", "SolverError", "SupportWarning", "TauGrid",
    "UnderResolvedError", "apply_box1", "approximant_errors",
    "beltrami_field", "box", "build_approximants", "cache_scope",
    "cache_stats", "ck_norm", "clear_cache", "collar_from_t",
    "collar_from_u", "constant_field", "coupled_family", "cutoff_eval",
    "diagonal_family", "duality_check", "emit_report",
    "equivalence_ratios", "fit_power_law", "g2_spotcheck",
    "geodesic_length", "hermitian_defect", "integral_product",
    "length_derivative_check", "maass", "main", "make_grid", "op_P",
    "op_P_bar", "pairing_l2", "perturbed_prediction", "q_operator",
    "qdiff_field", "relative_change", "run_suite", "solve_T", "target",
    "target_table", "upper_index", "volume_integral", "wirtinger",
    "wp_cometric", "wp_metric", "xi",
]
