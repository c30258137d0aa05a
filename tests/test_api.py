"""The package's public names: adding or removing one is a deliberate edit here."""

import ast
import builtins
import importlib
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import diracbound as db
from diracbound import DimensionError, ParameterRange

PUBLIC = [
    "BatchSummary", "BoundReport", "CliffordRep", "CompositionError", "CrossCheckFailed",
    "CurvatureTrack", "DimensionError", "DiracBoundError", "EXAMPLES", "Einstein",
    "InconsistentProfile", "MalformedDocument", "ManifoldSpec", "Method", "NonPositiveF",
    "NotSymmetric", "OptimizerInfo", "ParameterRange", "Product", "RicciProfile",
    "ShapeError", "Sphere", "Surface", "TraceResiduals", "UnknownExample", "WarpExtremals",
    "WarpTrajectory", "Warped", "best_bound", "build_rep", "condition_19", "curvature_track",
    "energy_drift", "friedrich_block", "friedrich_bound", "harmonic_spinor_excluded",
    "integrate_warp", "kaehler_block", "kaehler_bound", "load_schema", "make_profile",
    "named_example", "optimize_minimax", "profile_from_dict", "profile_to_dict", "realize",
    "realize_columns", "run_identity_batch", "spec_from_dict", "spec_to_dict",
    "theorem31_block", "theorem31_bound", "verify_lemma15", "verify_ricci_trace",
    "warp_extremals", "zero_scalar_bound",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(db.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(db, name)] == []


_P8 = db.make_profile(8, 8.0, 1.0, 8.0)

# every call that takes an integer argument k: (call, a k it accepts, the
# error and the name of k in its message), as profile.as_integer checks it
_INTEGER_ENTRY_POINTS = {
    "make_profile": (lambda k: db.make_profile(k, 4.0, 0.5, 5.0), 4,
                     DimensionError, "profile dimension"),
    "kaehler_bound": (lambda k: db.kaehler_bound(_P8, k), 4,
                      DimensionError, "complex dimension"),
    "kaehler_block": (lambda k: db.kaehler_block(8, np.array([8.0, -1.0]), k), 4,
                      DimensionError, "complex dimension"),
    "best_bound": (lambda k: db.best_bound(_P8, k), 4, DimensionError, "complex dimension"),
    "realize-einstein": (lambda k: db.realize(db.Einstein(k, 1.0)), 4,
                         DimensionError, "einstein field 'n'"),
    "realize-warped": (lambda k: db.realize(db.Warped(k, 0.3)), 5,
                       DimensionError, "warped field 'n'"),
    "realize_columns-einstein": (
        lambda k: db.realize_columns(db.Einstein(k, 1.0), db.Einstein, "scalar")([1.0, -2.0]),
        4, DimensionError, "einstein field 'n'"),
    "realize_columns-warped": (
        lambda k: db.realize_columns(db.Warped(k, 0.3), db.Warped, "f0")([0.2, 0.7]),
        5, DimensionError, "warped field 'n'"),
    "build_rep": (db.build_rep, 4, DimensionError, "n"),
    "run_identity_batch-n": (lambda k: db.run_identity_batch(k, 3, 1), 4, DimensionError, "n"),
    "run_identity_batch-trials": (lambda k: db.run_identity_batch(4, k, 1), 4,
                                  ParameterRange, "trials"),
    "run_identity_batch-seed": (lambda k: db.run_identity_batch(4, 3, k), 4,
                                ParameterRange, "seed"),
}


@pytest.mark.parametrize("value", [4.7, 4.0, np.float64(4), "4", math.nan, math.inf],
                         ids=["4.7", "4.0", "float64", "str", "nan", "inf"])
@pytest.mark.parametrize("entry", _INTEGER_ENTRY_POINTS)
def test_integer_arguments_follow_one_rule(entry, value):
    call, _, error, name = _INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(error, match=f"^{re.escape(name)} must be an integer, "
                                    f"got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("entry", _INTEGER_ENTRY_POINTS)
def test_numpy_integers_give_the_int_results(entry):
    call, k, _, _ = _INTEGER_ENTRY_POINTS[entry]
    assert pickle.dumps(call(np.int64(k))) == pickle.dumps(call(k))


# (module, function) -> the parameter naming the class that a raise there
# takes from its caller; each caller passes a DiracBoundError subclass
_RAISED_PARAMETERS = {("profile", "as_integer"): "error", ("profile", "raise_first"): "error"}


def _raises(node, function=None):
    """(enclosing function's name, raise statement) for each raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        yield from _raises(child, inner)


def test_the_package_raises_only_its_errors_os_error_and_system_exit():
    allowed, wrong, parameters = (db.DiracBoundError, OSError, SystemExit), [], set()
    for path in sorted(Path(db.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"diracbound.{path.stem}") \
            if path.stem != "__init__" else db
        for function, node in _raises(ast.parse(path.read_text())):
            if node.exc is None:   # a bare raise passes on what a handler caught
                continue
            name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            if _RAISED_PARAMETERS.get((path.stem, function)) == name:
                parameters.add((path.stem, function))
                continue
            head, *attrs = name.split(".")
            cls = vars(module).get(head, getattr(builtins, head, None))
            for attr in attrs:
                cls = getattr(cls, attr, None)
            if not (isinstance(cls, type) and issubclass(cls, allowed)):
                wrong.append(f"{path.name}:{node.lineno}: raise {name}")
    assert wrong == []
    assert parameters == set(_RAISED_PARAMETERS)
