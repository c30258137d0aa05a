"""The package's public names: adding or removing one is a deliberate edit here."""

import diracbound as db

PUBLIC = [
    "BatchSummary", "BoundReport", "CliffordRep", "CompositionError", "CrossCheckFailed",
    "CurvatureTrack", "DimensionError", "DiracBoundError", "EXAMPLES", "Einstein",
    "InconsistentProfile", "ManifoldSpec", "Method", "NonPositiveF", "NotSymmetric",
    "OptimizerInfo", "ParameterRange", "Product", "RicciFlat", "RicciProfile", "ShapeError",
    "Sphere", "Surface", "TraceResiduals", "UnknownExample", "WarpExtremals",
    "WarpTrajectory", "Warped", "best_bound", "build_rep", "condition_19", "curvature_track",
    "energy_drift", "friedrich_block", "friedrich_bound", "harmonic_spinor_excluded",
    "integrate_warp", "kaehler_block", "kaehler_bound", "load_schema", "make_profile",
    "named_example", "optimize_minimax", "profile_from_dict", "profile_to_dict", "realize",
    "realize_columns", "run_identity_batch", "spec_from_dict", "spec_to_dict",
    "theorem31_block", "theorem31_bound", "verify_lemma15", "verify_ricci_trace",
    "warp_extremals", "write_track_csv", "zero_scalar_bound",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(db.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(db, name)] == []
