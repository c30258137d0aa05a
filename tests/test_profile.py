"""Validation and bookkeeping of curvature profiles."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spectrum_profile, spectrum_profile
from diracbound import (DimensionError, InconsistentProfile, make_profile,
                        profile_from_dict, profile_to_dict)
from diracbound.catalog import Sphere
from diracbound.profile import profile_columns
from sweep_oracle import EXACT_RTOL, outcome, reference_profile


def test_round_product_profile():
    p = make_profile(4, 2.0, 0.0, 2.0, (0.0, 1.0, 0.0, 1.0))
    assert p.eigenvalues == (0.0, 0.0, 1.0, 1.0)  # stored sorted


def test_dimension_gate():
    with pytest.raises(DimensionError):
        make_profile(1, 1.0, 1.0, 1.0)
    # at n = 10^12, theorem 3.1 used to fail its cross-check by cancellation
    make_profile(10**6, 1e6, 1e-75, 2e6)
    for n in (10**6 + 1, 10**12, 10**30):
        with pytest.raises(DimensionError, match="at most 1000000"):
            make_profile(n, 1e6, 1e-75, 5.0)


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
    bare = make_profile(5, 3.2, -8.5, 7.1)
    d = profile_to_dict(bare)
    assert "eigenvalues" not in d
    assert profile_from_dict(d) == bare


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


def test_squares_are_correctly_rounded():
    # the square that the profile rules and the traceless norm use, and
    # the sphere's scalar 2 / radius^2, against exact rational arithmetic
    x = np.random.default_rng(3).uniform(-1e3, 1e3, 20000)
    x = np.concatenate((x, [0.0, -0.0, 2.0**511, 1.4e154, 1e200, -1e300, math.inf]))
    seen = {}
    profile_columns(2, x, x, x, check=lambda rules, columns: seen.update(columns))
    squares = [_square(v) for v in x.tolist()]
    assert seen["square"].tolist() == squares
    assert squares[-5:] == [2.0**1022] + [math.inf] * 4
    with np.errstate(all="ignore"):
        scalar = Sphere._columns(x)[1]
    assert scalar.tolist() == [_two_over(v) for v in squares]


def _nearest(q):
    """The float nearest the rational q >= 0, inf past the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


def _square(v):
    return math.inf if math.isinf(v) else _nearest(Fraction(v) ** 2)


def _two_over(v):
    """2 / v for v >= 0, correctly rounded."""
    if v == 0.0:
        return math.inf
    return 0.0 if math.isinf(v) else _nearest(Fraction(2) / Fraction(v))


# --- make_profile against the Python-float reference ------------------------

_SQRT_MAX = math.sqrt(sys.float_info.max)   # 1.34e154: squares past it overflow
_ULPS = st.integers(-3, 3)


def _shift(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _near(draw, value):
    """Any float, value itself, or a few ulps either side of an edge of the
    slack around it, value +- EXACT_RTOL * max(1, |value|)."""
    choice = draw(st.sampled_from(["value", "edge", "edge", "any"]))
    if choice == "any" or not math.isfinite(value):
        return draw(st.floats())
    if choice == "value":
        return value
    edge = value + draw(st.sampled_from([-1, 1])) * EXACT_RTOL * max(1.0, abs(value))
    return _shift(edge, draw(_ULPS))


_SCALARS = (st.floats() | st.floats(-1e3, 1e3)
            | st.builds(lambda sign, ulps: sign * _shift(_SQRT_MAX, ulps),
                        st.sampled_from([-1.0, 1.0]), _ULPS)
            | st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]),
                        st.floats(1.3e154, 1.4e154)))


@st.composite
def _profile_fields(draw):
    """(n, scalar, kappa0, ric_norm_sq_min, eigenvalues) about every rule's edge:
    the sums of an eigenvalue list, or a scalar with its mean and R^2/n."""
    if draw(st.booleans()):
        eigs = draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=9))
        n = len(eigs) + draw(st.sampled_from([0] * 8 + [-1, 1]))
        fields = (math.fsum(eigs), min(eigs), math.fsum(e * e for e in eigs))
        if draw(st.sampled_from([False] * 4 + [True])):
            eigs[draw(st.integers(0, len(eigs) - 1))] = draw(st.sampled_from(
                [math.nan, math.inf, -math.inf]))
        return (n, *(draw(_near(x)) for x in fields), eigs)
    n = draw(st.sampled_from([*range(2, 10)] * 2 + [0, 1]))
    scalar = draw(_SCALARS)
    kappa0 = draw(_near(scalar / max(n, 1)))
    ric = draw(_near(scalar * scalar / max(n, 1)) | st.sampled_from([-1e-15, -0.0]))
    return n, scalar, kappa0, ric, None


@settings(max_examples=400)
@given(_profile_fields())
def test_make_profile_matches_float_reference(fields):
    assert outcome(make_profile, *fields) == outcome(reference_profile, *fields)
