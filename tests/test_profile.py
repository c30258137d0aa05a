"""Validation and bookkeeping of curvature profiles."""

import math

import numpy as np
import pytest

from conftest import random_spectrum_profile, spectrum_profile
from diracbound import (DimensionError, InconsistentProfile, make_profile,
                        profile_from_dict, profile_to_dict)
from diracbound.profile import EXACT_RTOL, ODE_RTOL, pow2


def test_round_product_profile():
    p = make_profile(4, 2.0, 0.0, 2.0, (0.0, 1.0, 0.0, 1.0))
    assert p.eigenvalues == (0.0, 0.0, 1.0, 1.0)  # stored sorted
    assert p.rtol == EXACT_RTOL


def test_dimension_gate():
    with pytest.raises(DimensionError):
        make_profile(1, 1.0, 1.0, 1.0)


def test_long_eigenvalue_lists_sum_exactly():
    # 10^5 equal eigenvalues: a running sum drifts past the 1e-12 class
    eigs = [1e-5] * 100000
    p = make_profile(100000, 1.0, 1e-5, 1e-5, eigs)
    assert p.eigenvalues == tuple(eigs)
    assert sum(eigs) != 1.0


def test_kappa0_cannot_exceed_mean():
    with pytest.raises(InconsistentProfile, match="scalar/n"):
        make_profile(4, 2.0, 0.6, 2.0)


def test_cauchy_schwarz_floor():
    # |Ric|^2 >= R^2/n pointwise, so the minima satisfy it too
    with pytest.raises(InconsistentProfile, match="Cauchy-Schwarz"):
        make_profile(4, 2.0, 0.0, 0.9)


def test_tiny_negative_ric_clamped():
    p = make_profile(3, 0.0, 0.0, -1e-15)
    assert p.ric_norm_sq_min == 0.0


@pytest.mark.parametrize("eigs,pattern", [
    ((0.0, 1.0, 1.0), "length"),
    ((0.0, 0.5, 0.5, 0.5), "sum"),
    ((0.1, 0.4, 0.5, 1.0), "min"),
    ((0.0, 0.0, 0.5, 1.5), "squared"),
])
def test_eigenvalue_consistency(eigs, pattern):
    with pytest.raises(InconsistentProfile, match=pattern):
        make_profile(4, 2.0, 0.0, 2.0, eigs)


@pytest.mark.parametrize("fields,name", [
    ((math.nan, 0.0, 2.0, None), "scalar"),
    ((2.0, -math.inf, 2.0, None), "kappa0"),
    ((2.0, 0.0, math.inf, None), "ric_norm_sq_min"),
    ((2.0, 0.0, 2.0, (0.0, 0.0, 1.0, math.nan)), "eigenvalues"),
    ((2.0, 0.0, 2.0, (-math.inf, 0.0, 1.0, math.inf)), "eigenvalues"),
])
def test_non_finite_fields_are_named(fields, name):
    with pytest.raises(InconsistentProfile, match=f"'{name}' must be finite"):
        make_profile(4, *fields)


def test_ode_tolerance_class():
    # 1e-9 slip: fatal for closed-form data, fine for integrated data
    with pytest.raises(InconsistentProfile):
        make_profile(4, 2.0, 0.0, 2.0 + 1e-9, (0, 0, 1, 1))
    p = make_profile(4, 2.0, 0.0, 2.0 + 1e-9, (0, 0, 1, 1), ode_derived=True)
    assert p.rtol == ODE_RTOL


def test_traceless_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_spectrum_profile(rng, int(rng.integers(2, 9)))
        t0 = p.traceless_norm_sq_min
        assert t0 >= 0.0
        expected = p.ric_norm_sq_min - p.scalar**2 / p.n
        assert t0 == pytest.approx(expected, abs=1e-13)


def test_traceless_clamped_on_einstein_data():
    p = spectrum_profile([3.0, 3.0, 3.0, 3.0])
    assert p.traceless_norm_sq_min == 0.0


def test_dict_round_trip():
    p = make_profile(4, 2.0, 0.0, 2.0, (0, 0, 1, 1))
    q = profile_from_dict(profile_to_dict(p))
    assert q == p
    bare = make_profile(5, 3.2, -8.5, 7.1, ode_derived=True)
    d = profile_to_dict(bare)
    assert "eigenvalues" not in d
    assert profile_from_dict(d, ode_derived=True) == bare


@pytest.mark.parametrize("doc,pattern", [
    ([1, 2], "object"),
    ({"n": 4, "scalar": 2.0, "kappa0": 0.0}, "ric_norm_sq_min"),
    ({"n": 4.0, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0}, "integer"),
    ({"n": 4, "scalar": True, "kappa0": 0.0, "ric_norm_sq_min": 2.0}, "number"),
    ({"n": 4, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0,
      "eigenvalues": "nope"}, "eigenvalues"),
    ({"n": 4, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0,
      "extra": 1}, "extra"),
])
def test_from_dict_diagnostics(doc, pattern):
    with pytest.raises(ValueError, match=pattern):
        profile_from_dict(doc)


def test_pow2_is_pythons_float_power():
    x = np.random.default_rng(3).uniform(-1e3, 1e3, 20000)
    x = np.concatenate((x, [0.0, -0.0, 2.0**511, 1.4e154, 1e200, -1e300, math.inf]))
    assert pow2(x).tolist() == [_square_or_inf(v) for v in x.tolist()]
    assert np.isnan(pow2(math.nan))


def _square_or_inf(x):
    try:
        return x**2
    except OverflowError:
        return math.inf
