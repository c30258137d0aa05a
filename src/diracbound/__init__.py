"""Lower bounds for Dirac operator eigenvalues from pointwise Ricci data.

The estimates need three numbers per manifold besides the dimension:
the (constant) scalar curvature, the global minimum of the Ricci
eigenvalues, and the global minimum of the squared Ricci norm. Profiles
carry exactly that. The catalog builds them for products of model
factors, including a warped circle bundle whose curvature comes from a
periodic ODE orbit, and the clifford module verifies the two matrix
identities the estimates rest on.
"""

import json
from importlib import resources

from .bounds import (BoundReport, Method, OptimizerInfo, Shortcuts, best_bound,
                     condition_19, corollary32_bound, friedrich_bound,
                     harmonic_spinor_excluded, improvement_condition,
                     kaehler_bound, minimax_bound_at_t, optimize_minimax,
                     optimize_minimax_block, shortcuts, theorem31_bound,
                     zero_scalar_bound)
from .catalog import (EXAMPLES, Einstein, ManifoldSpec, Product, Sphere,
                      Surface, Warped, named_example, realize, spec_from_dict,
                      spec_to_dict)
from .clifford import (BatchSummary, CliffordRep, TraceResiduals, build_rep,
                       run_identity_batch, verify_lemma15, verify_ricci_trace)
from .errors import (CompositionError, DimensionError, DiracBoundError,
                     InconsistentProfile, NonPositiveF, NoPeriod, NotSymmetric,
                     ParameterRange, RicciFlat, ScalarSignError, ShapeError,
                     UnknownExample)
from .profile import (RicciProfile, make_profile, profile_from_dict,
                      profile_to_dict)
from .warp import (CurvatureTrack, WarpExtremals, WarpTrajectory,
                   curvature_track, energy_drift, extremal_data,
                   integrate_warp, warp_extremals, write_track_csv)

__version__ = "0.1.0"


def load_schema(name):
    """Parsed JSON Schema shipped with the package, e.g. 'profile.v1'."""
    path = resources.files(__name__) / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


__all__ = [
    "BatchSummary", "BoundReport", "CliffordRep", "CompositionError",
    "CurvatureTrack", "DimensionError", "DiracBoundError", "EXAMPLES",
    "Einstein", "InconsistentProfile", "ManifoldSpec", "Method", "NoPeriod",
    "NonPositiveF", "NotSymmetric", "OptimizerInfo", "ParameterRange",
    "Product", "RicciFlat", "RicciProfile", "ScalarSignError", "ShapeError",
    "Shortcuts", "Sphere", "Surface", "TraceResiduals",
    "UnknownExample", "Warped", "WarpExtremals", "WarpTrajectory",
    "best_bound", "build_rep", "condition_19", "corollary32_bound",
    "curvature_track", "energy_drift", "extremal_data", "friedrich_bound",
    "harmonic_spinor_excluded", "improvement_condition", "integrate_warp",
    "kaehler_bound", "load_schema", "make_profile", "minimax_bound_at_t",
    "named_example", "optimize_minimax", "optimize_minimax_block",
    "profile_from_dict",
    "profile_to_dict", "realize", "run_identity_batch", "shortcuts",
    "spec_from_dict", "spec_to_dict", "theorem31_bound",
    "verify_lemma15", "verify_ricci_trace", "warp_extremals",
    "write_track_csv", "zero_scalar_bound",
]
