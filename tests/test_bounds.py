"""Closed-form bounds, their applicability gates, and the optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_spectrum_profile, spectrum_profile
from diracbound import (DimensionError, Method, ParameterRange, RicciFlat,
                        ScalarSignError, ShapeError, best_bound, bounds,
                        condition_19, corollary32_bound, friedrich_bound,
                        harmonic_spinor_excluded, improvement_condition,
                        kaehler_bound, make_profile, minimax_bound_at_t,
                        optimize_minimax, optimize_minimax_block, shortcuts,
                        theorem31_bound, zero_scalar_bound)

# flat torus times unit sphere: the closed-book reference case
T2XS2 = make_profile(4, 2.0, 0.0, 2.0, (0, 0, 1, 1))


def sphere_product(radius):
    """S^2(r) x hyperbolic surface of scalar -2."""
    half = 1.0 / radius**2
    return make_profile(4, 2.0 * half - 2.0, min(half, -1.0),
                        2.0 * half * half + 2.0, (half, half, -1.0, -1.0))


def test_friedrich_values():
    assert friedrich_bound(T2XS2).value == pytest.approx(2.0 / 3.0, rel=1e-15)
    hyperbolic = spectrum_profile([-1.0, -1.0])
    r = friedrich_bound(hyperbolic)
    assert r.value == 0.0 and r.applicable and not r.strict


def test_kaehler_parities():
    assert kaehler_bound(T2XS2, 2).value == pytest.approx(1.0, rel=1e-15)
    cp3like = make_profile(6, 30.0, 5.0, 150.0, (5.0,) * 6)
    # m = 3 odd: (m+1)R/(4m) = 10, above the Friedrich 9
    assert kaehler_bound(cp3like, 3).value == pytest.approx(10.0, rel=1e-15)
    assert friedrich_bound(cp3like).value == pytest.approx(9.0, rel=1e-15)
    assert kaehler_bound(spectrum_profile([-1.0, -1.0]), 1).value == 0.0
    with pytest.raises(DimensionError):
        kaehler_bound(T2XS2, 3)


def test_shortcut_values_reference_case():
    sc = shortcuts(T2XS2)
    assert sc.a == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert sc.b == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert sc.c**2 == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert sc.A == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_condition19_equals_improvement_for_positive_scalar():
    rng = np.random.default_rng(5)
    agree = 0
    while agree < 300:
        p = random_spectrum_profile(rng, int(rng.integers(3, 8)))
        if p.scalar <= 0.0:
            continue
        assert condition_19(p) == improvement_condition(p)
        agree += 1


def test_condition19_nonpositive_scalar_is_spinor_exclusion():
    rng = np.random.default_rng(6)
    seen = 0
    while seen < 300:
        p = random_spectrum_profile(rng, int(rng.integers(3, 8)))
        if p.scalar > 0.0:
            continue
        assert condition_19(p) == harmonic_spinor_excluded(p)
        seen += 1


def test_improvement_condition_needs_positive_scalar():
    with pytest.raises(ScalarSignError):
        improvement_condition(spectrum_profile([-1.0, -1.0, -1.0]))


def test_theorem31_reference_value():
    r = theorem31_bound(T2XS2)
    assert r.strict and r.applicable
    assert r.value == pytest.approx(math.sqrt(0.5), rel=1e-12)
    # the maximizer is positive and reproduces the value
    assert r.optimizer.s0 > 0.0
    assert r.optimizer.f_s0 == pytest.approx(r.value, rel=1e-12)


def test_theorem31_einstein_not_applicable():
    r = theorem31_bound(spectrum_profile([3.0] * 4))
    assert not r.applicable and r.value is None
    assert "condition" in r.reason


def test_theorem31_maximality_of_s0():
    rng = np.random.default_rng(7)
    found = 0
    while found < 100:
        p = random_spectrum_profile(rng, int(rng.integers(3, 8)))
        r = theorem31_bound(p)
        if not r.applicable:
            continue
        sc = shortcuts(p)

        def f(s):
            return 2.0 * (sc.a + sc.A * s) / (1.0 + 2.0 * sc.b * s + sc.c**2 * s**2)

        s0 = r.optimizer.s0
        for ds in (1e-4, -1e-4):
            if s0 + ds >= 0.0:
                assert f(s0 + ds) <= r.value + 1e-12
        found += 1


def test_corollary_equals_theorem31():
    rng = np.random.default_rng(8)
    found = 0
    while found < 500:
        p = random_spectrum_profile(rng, int(rng.integers(3, 8)))
        if p.scalar <= 0.0 or not improvement_condition(p):
            continue
        t = theorem31_bound(p)
        c = corollary32_bound(p)
        assert c.applicable and t.applicable
        assert c.value == pytest.approx(t.value, rel=1e-9)
        found += 1


def test_corollary_gates():
    assert not corollary32_bound(spectrum_profile([-1.0, -1.0])).applicable
    assert not corollary32_bound(spectrum_profile([3.0] * 4)).applicable


def test_zero_scalar_matches_theorem31():
    rng = np.random.default_rng(9)
    for _ in range(500):
        n = int(rng.integers(3, 8))
        eigs = rng.standard_normal(n)
        eigs -= eigs.mean()
        p = make_profile(n, 0.0, float(eigs.min()), float((eigs**2).sum()), eigs)
        z = zero_scalar_bound(p)
        t = theorem31_bound(p)
        assert z.strict and t.applicable
        assert z.value == pytest.approx(t.value, rel=1e-9)


def test_zero_scalar_gates():
    with pytest.raises(RicciFlat):
        zero_scalar_bound(make_profile(4, 0.0, 0.0, 0.0))
    r = zero_scalar_bound(T2XS2)
    assert not r.applicable and "not zero" in r.reason


def test_minimax_parameter_gate():
    for t in (-0.01, 0.51):
        with pytest.raises(ParameterRange):
            minimax_bound_at_t(T2XS2, t)


def test_minimax_at_zero_is_friedrich():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = random_spectrum_profile(rng, int(rng.integers(2, 8)))
        assert minimax_bound_at_t(p, 0.0) == pytest.approx(
            friedrich_bound(p).value, abs=1e-15)


def test_minimax_einstein_peaks_at_zero():
    r = optimize_minimax(spectrum_profile([3.0] * 4))
    assert r.optimizer.t_star == 0.0
    assert r.value == pytest.approx(friedrich_bound(
        spectrum_profile([3.0] * 4)).value, rel=1e-15)


def test_optimize_minimax_dominates_grid():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_spectrum_profile(rng, int(rng.integers(2, 8)))
        r = optimize_minimax(p)
        grid = max(minimax_bound_at_t(p, t) for t in np.linspace(0, 0.5, 64))
        assert r.value >= grid - 1e-12
        assert 0.0 <= r.optimizer.t_star <= 0.5


def test_minimax_never_below_friedrich():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = random_spectrum_profile(rng, int(rng.integers(2, 8)))
        assert optimize_minimax(p).value >= friedrich_bound(p).value - 1e-12


def test_best_bound_reference_case():
    best = best_bound(T2XS2, complex_dim=2)
    assert best.method is Method.KAEHLER
    assert best.value == pytest.approx(1.0, rel=1e-12)
    assert len(best.subreports) == 5
    methods = [r.method for r in best.subreports]
    assert methods == [Method.FRIEDRICH, Method.KAEHLER, Method.ZERO_SCALAR,
                       Method.THEOREM31, Method.MINIMAX_NUMERIC]


def test_best_bound_tie_prefers_closed_form():
    # at r = 0.9 the numeric optimizer matches the closed form to 1e-15;
    # the tie must resolve to the closed form's report
    best = best_bound(sphere_product(0.9))
    assert best.method is Method.THEOREM31


def test_best_bound_without_kaehler_dim():
    best = best_bound(T2XS2)
    assert best.method is Method.THEOREM31
    assert len(best.subreports) == 4


# --- batched mini-max kernel: properties over random spectra ---------------

spectra = st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                   min_size=2, max_size=8).map(spectrum_profile)


def _block(profiles):
    return optimize_minimax_block([p.n for p in profiles],
                                  [p.scalar for p in profiles],
                                  [p.kappa0 for p in profiles],
                                  [p.traceless_norm_sq_min for p in profiles])


@given(st.lists(spectra, min_size=1, max_size=12), st.data())
def test_minimax_block_rows_match_single_profile(profiles, data):
    single = [optimize_minimax(p) for p in profiles]
    order = data.draw(st.permutations(range(len(profiles))))
    expect_v = np.array([single[i].value for i in order])
    expect_t = np.array([single[i].optimizer.t_star for i in order])
    for size in (1, 7, bounds.MINIMAX_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "MINIMAX_BLOCK", size)
            value, t_star = _block([profiles[i] for i in order])
        # bit for bit, sign of zero included
        assert value.tobytes() == expect_v.tobytes()
        assert t_star.tobytes() == expect_t.tobytes()


def test_minimax_block_rejects_ragged_rows():
    with pytest.raises(ShapeError):
        optimize_minimax_block([4], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0])


@given(spectra, st.floats(0.0, 0.5))
def test_minimax_at_t_is_the_kernel(p, t):
    root = bounds._minimax_root(p.n, p.scalar, p.kappa0, p.traceless_norm_sq_min)
    kernel = root(np.array([[0.0, t, 0.5]]))[0, 1]
    assert minimax_bound_at_t(p, t) == kernel


@given(spectra)
def test_minimax_value_sign_and_friedrich_floor(p):
    r = optimize_minimax(p)
    assert math.copysign(1.0, r.value) == 1.0   # never -0
    assert r.value >= friedrich_bound(p).value
    assert 0.0 <= r.optimizer.t_star <= 0.5


@given(spectra)
def test_minimax_closes_on_theorem31(p):
    th = theorem31_bound(p)
    if not th.applicable:
        return
    t_fix = th.optimizer.s0 * th.value
    if t_fix > 0.5 - 1e-6:
        return
    r = optimize_minimax(p)
    assert r.value == pytest.approx(th.value, rel=1e-9)
    assert r.optimizer.t_star == pytest.approx(t_fix, abs=1e-5)
