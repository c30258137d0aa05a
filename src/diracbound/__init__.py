"""Lower bounds for Dirac operator eigenvalues from pointwise Ricci data.

The estimates need three numbers per manifold besides the dimension:
the (constant) scalar curvature, the global minimum of the Ricci
eigenvalues, and the global minimum of the squared Ricci norm. Profiles
carry exactly that. The catalog builds them for products of model
factors, including a warped circle bundle over a periodic ODE orbit,
whose curvature minima energy conservation gives in closed form, and
the clifford module verifies the two matrix
identities the estimates rest on.
"""

import json
from importlib import resources

from .bounds import (BoundReport, Method, OptimizerInfo, best_bound,
                     condition_19, friedrich_block, friedrich_bound,
                     harmonic_spinor_excluded, kaehler_block, kaehler_bound,
                     optimize_minimax, theorem31_block, theorem31_bound,
                     zero_scalar_bound)
from .catalog import (EXAMPLES, Einstein, ManifoldSpec, Product, Sphere,
                      Surface, Warped, named_example, realize,
                      realize_columns, spec_from_dict, spec_to_dict)
from .clifford import (BatchSummary, CliffordRep, TraceResiduals, build_rep,
                       run_identity_batch, verify_lemma15, verify_ricci_trace)
from .errors import (CompositionError, CrossCheckFailed, DimensionError,
                     DiracBoundError, InconsistentProfile, MalformedDocument,
                     NonPositiveF, NotSymmetric, ParameterRange, ShapeError,
                     UnknownExample)
from .profile import (RicciProfile, make_profile, profile_from_dict,
                      profile_to_dict)
from .warp import (CurvatureTrack, WarpExtremals, WarpTrajectory,
                   curvature_track, energy_drift, integrate_warp,
                   warp_extremals)

__version__ = "0.1.0"


def load_schema(name):
    """Parsed JSON Schema shipped with the package, e.g. 'profile.v1'."""
    path = resources.files(__name__) / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


__all__ = [
    "BatchSummary", "BoundReport", "CliffordRep", "CompositionError",
    "CrossCheckFailed", "CurvatureTrack", "DimensionError", "DiracBoundError",
    "EXAMPLES",
    "Einstein", "InconsistentProfile", "MalformedDocument", "ManifoldSpec", "Method",
    "NonPositiveF", "NotSymmetric", "OptimizerInfo", "ParameterRange",
    "Product", "RicciProfile", "ShapeError", "Sphere", "Surface",
    "TraceResiduals",
    "UnknownExample", "Warped", "WarpExtremals", "WarpTrajectory",
    "best_bound", "build_rep", "condition_19", "curvature_track", "energy_drift",
    "friedrich_block", "friedrich_bound", "harmonic_spinor_excluded",
    "integrate_warp", "kaehler_block", "kaehler_bound", "load_schema",
    "make_profile", "named_example", "optimize_minimax",
    "profile_from_dict",
    "profile_to_dict", "realize", "realize_columns", "run_identity_batch",
    "spec_from_dict", "spec_to_dict", "theorem31_block",
    "theorem31_bound",
    "verify_lemma15", "verify_ricci_trace", "warp_extremals",
    "zero_scalar_bound",
]
