"""Closed-form bounds, their applicability gates, and the optimizer."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bounds_oracle import corollary32, improvement_condition, minimax_root
from bounds_oracle import row as _row
from conftest import random_spectrum_profile, spectra, spectrum_profile
from diracbound import (CrossCheckFailed, DimensionError, Einstein, Method,
                        Product, Sphere, Surface, Warped,
                        best_bound, bounds, condition_19, friedrich_bound,
                        harmonic_spinor_excluded, kaehler_bound, make_profile,
                        named_example, optimize_minimax, realize, theorem31_block,
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


@pytest.mark.filterwarnings("error")
def test_kaehler_parities():
    assert kaehler_bound(T2XS2, 2).value == pytest.approx(1.0, rel=1e-15)
    cp3like = make_profile(6, 30.0, 5.0, 150.0, (5.0,) * 6)
    # m = 3 odd: (m+1)R/(4m) = 10, above the Friedrich 9
    assert kaehler_bound(cp3like, 3).value == pytest.approx(10.0, rel=1e-15)
    assert friedrich_bound(cp3like).value == pytest.approx(9.0, rel=1e-15)
    assert kaehler_bound(spectrum_profile([-1.0, -1.0]), 1).value == 0.0
    # m below 1 or beyond floats fails the rule alone, without a warning
    for m in (3, 0, 10**400):
        with pytest.raises(DimensionError, match=f"^complex dimension {m} needs "
                                                 f"n = {2 * m}, profile has n = 4$"):
            kaehler_bound(T2XS2, m)


def test_shortcut_values_reference_case():
    a, b, c, A = bounds._shortcut_columns(*_row(T2XS2))
    assert a == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert b == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert c**2 == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert A == pytest.approx(2.0 / 3.0, rel=1e-15)


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


def test_condition19_counts_kappa0_above_the_mean_as_the_mean():
    # the profile's slack admits kappa0 = R/n + 1e-13; theorem 3.1 reads it
    # as R/n, where the condition fails, and condition_19 once did not
    p = make_profile(2, 2.0, 1.0 + 1e-13, 2.0)
    assert p.kappa0 > p.scalar / p.n
    assert not condition_19(p)
    assert theorem31_bound(p).reason.startswith("condition |Ric - R/n|_0^2 > ")


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
        a, b, c, A = bounds._shortcut_columns(*_row(p))

        def f(s):
            return 2.0 * (a + A * s) / (1.0 + 2.0 * b * s + c**2 * s**2)

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
        c = corollary32(p)
        assert c is not None and t.applicable
        assert c == pytest.approx(t.value, rel=1e-9)
        found += 1


def test_corollary_gates():
    assert corollary32(spectrum_profile([-1.0, -1.0])) is None
    assert corollary32(spectrum_profile([3.0] * 4)) is None


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
    r = zero_scalar_bound(make_profile(4, 0.0, 0.0, 0.0))
    assert not r.applicable and "Ricci-flat" in r.reason
    r = zero_scalar_bound(T2XS2)
    assert not r.applicable and "not zero" in r.reason
    # R is zero or not at the profile's own scale sqrt(n) |Ric|_0: a
    # negative-scalar profile of curvature 1e-17 gets no strict bound,
    # and the round-off of a zero sum at curvature 1 still counts as zero
    r = zero_scalar_bound(make_profile(2, -1.0364355780741957e-17, -8.14712369817478e-18,
                                       7.129174266132629e-35))
    assert not r.applicable and "not zero" in r.reason
    assert zero_scalar_bound(spectrum_profile([0.1, 0.2, -0.3])).applicable


def test_minimax_at_zero_is_friedrich():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = random_spectrum_profile(rng, int(rng.integers(2, 8)))
        assert minimax_root(*_row(p), 0.0) == pytest.approx(
            friedrich_bound(p).value, abs=1e-15)


def test_minimax_einstein_peaks_at_zero():
    # the product's seven Ricci eigenvalues are all 15.7; its r(1/2) lies
    # one ulp above Friedrich's value
    for p in (spectrum_profile([3.0] * 4),
              realize(Product((Surface(31.4), Einstein(5, 78.5))))):
        r = optimize_minimax(p)
        assert r.optimizer.t_star == 0.0
        assert r.value == friedrich_bound(p).value


def test_optimize_minimax_dominates_grid():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_spectrum_profile(rng, int(rng.integers(2, 8)))
        r = optimize_minimax(p)
        grid = minimax_root(*_row(p), np.linspace(0, 0.5, 64)).max()
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
    # at r = 0.9 theorem 3.1 applies, and the minimax column is its value,
    # so the two tie exactly; the tie goes to the earlier report, theorem31
    best = best_bound(sphere_product(0.9))
    assert best.method is Method.THEOREM31
    assert best.subreports[-1].value == best.value


@pytest.mark.parametrize("kaehler", [False, True])
@given(p=spectra)
# zero_scalar 1 ulp below theorem31, and friedrich 1 ulp below theorem31
@example(p=realize(named_example("m7-zero-scalar")))
@example(p=realize(Product((Einstein(2, 0.9999999999999273), Surface(2.0)))))
def test_best_bound_is_the_first_exact_maximum(kaehler, p):
    # one rule for best: the largest applicable value, and of exactly equal
    # ones the first in the fixed order; a Kaehler report where n is even
    best = best_bound(p, p.n // 2 if kaehler and p.n % 2 == 0 else None)
    applicable = [r for r in best.subreports if r.applicable]
    top = max(r.value for r in applicable)
    first = next(r for r in applicable if r.value == top)
    assert best.value == top
    assert best == replace(first, subreports=best.subreports)


def test_best_bound_without_kaehler_dim():
    best = best_bound(T2XS2)
    assert best.method is Method.THEOREM31
    assert len(best.subreports) == 4


def test_best_bound_evaluates_theorem31_once(monkeypatch):
    # the theorem31 and minimax_numeric reports share one checked evaluation
    calls = []
    block = bounds.theorem31_block

    def counting(*args):
        calls.append(args)
        return block(*args)

    monkeypatch.setattr(bounds, "theorem31_block", counting)
    for profile in (T2XS2, sphere_product(0.9), spectrum_profile([-1.0, -1.0])):
        calls.clear()
        best_bound(profile)
        assert len(calls) == 1
    calls.clear()
    best_bound(T2XS2, complex_dim=2)
    assert len(calls) == 1


# --- batched mini-max kernel: properties over random spectra ---------------

def optimize_minimax_block(*cols):
    """theorem31_block's mini-max columns (minimax, t_star) of some rows."""
    th = theorem31_block(*(np.asarray(c, dtype=float) for c in cols))
    return th.minimax, th.t_star


def _block(profiles):
    return optimize_minimax_block(*zip(*map(_row, profiles)))


def _single_minimax(p):
    """(value, t_star) of optimize_minimax(p). Where that raises
    CrossCheckFailed, theorem31_bound must raise too, and the block row
    carries theorem 3.1's failed value, which callers check through
    theorem31_block's failed column."""
    try:
        r = optimize_minimax(p)
        return r.value, r.optimizer.t_star
    except CrossCheckFailed:
        with pytest.raises(CrossCheckFailed):
            theorem31_bound(p)
        th = theorem31_block(*_row(p))
        assert th.failed
        return float(th.value), float(th.s0 * th.value)


@given(st.lists(spectra, min_size=1, max_size=12), st.data())
def test_minimax_block_rows_match_single_profile(profiles, data):
    single = [_single_minimax(p) for p in profiles]
    order = data.draw(st.permutations(range(len(profiles))))
    expect_v = np.array([single[i][0] for i in order])
    expect_t = np.array([single[i][1] for i in order])
    value, t_star = _block([profiles[i] for i in order])
    # bit for bit, sign of zero included
    assert value.tobytes() == expect_v.tobytes()
    assert t_star.tobytes() == expect_t.tobytes()


@given(spectra)
def test_minimax_value_sign_and_friedrich_floor(p):
    r = optimize_minimax(p)
    assert math.copysign(1.0, r.value) == 1.0   # never -0
    assert r.value >= friedrich_bound(p).value
    assert 0.0 <= r.optimizer.t_star <= 0.5


def test_minimax_keeps_friedrich_floor_when_kappa0_dwarfs_scalar():
    # kappa0 is about -1.6e200 beside R = 4.2: scaled by a power of two
    # near |kappa0|, p0^2 underflows, and the kernel's root at t = 0 came
    # out as |p0| / 2 = 0.6125 with an optimum of 1.05 under Friedrich
    p = realize(Product((Surface(1.0), Warped(5, 1e-250))))
    friedrich = friedrich_bound(p).value
    assert friedrich == 1.2250000000000001
    assert minimax_root(*_row(p), 0.0) == friedrich
    r = optimize_minimax(p)
    assert r.value >= friedrich
    value, _ = _block([p, T2XS2])
    assert value[0] == r.value
    # |kappa0| = 1e278 beside R = 1e-44: in the kernel's units R is a
    # subnormal, and r(1/2) comes out 12% above Friedrich's value
    p = make_profile(5, 1e-44, -1e278, 2e-89)
    assert best_bound(p).method is Method.FRIEDRICH
    assert optimize_minimax(p).value == friedrich_bound(p).value


@given(spectra)
# scaled near |kappa0|, R was subnormal and r(1/2) read 3.50e-45 > 3.125e-45
@example(make_profile(5, 1e-44, -1e278, 2e-89))
def test_minimax_end_never_beats_friedrich(p):
    """r(1/2) <= 2a, Friedrich's value (theorem31_block derives it)."""
    assert minimax_root(*_row(p), 0.5) <= friedrich_bound(p).value * (1 + 2**-50)


# --- the closed form against the full-grid search it replaced -------------

def _full_grid_reference(n, R, kappa0, t0):
    """The mini-max columns as a grid search: every row's r(t) on all 256
    coarse points, then on all 65 points of each refinement round."""
    n, R, kappa0, t0 = (np.asarray(c, dtype=float)[:, None] for c in (n, R, kappa0, t0))

    grid = np.linspace(0.0, 0.5, 256)
    vals = minimax_root(n, R, kappa0, t0, grid)
    i = np.argmax(vals, axis=1)
    idx = np.arange(len(i))
    t_star, value = grid[i], vals[idx, i]
    step = grid[1]
    while step > 1e-10:
        step /= 32
        ts = np.clip(t_star[:, None] + step * np.arange(-32.0, 33.0), 0.0, 0.5)
        vals = minimax_root(n, R, kappa0, t0, ts)
        j = np.argmax(vals, axis=1)
        better = vals[idx, j] > value
        t_star = np.where(better, ts[idx, j], t_star)
        value = np.where(better, vals[idx, j], value)
    return value, t_star


def _scaled_row(p, e):
    n, R, kappa0, t0 = p if isinstance(p, tuple) else _row(p)
    return n, math.ldexp(R, e), math.ldexp(kappa0, e), math.ldexp(t0, 2 * e)


def _vacuous_edge(n, R, gap, k, sign, e):
    """R < 0, kappa0 = R/n - gap, and t0 off the edge 4 drop |R/4| / nn of the
    vacuous rows (q >= 0 at every t, so every root is 0) by a factor 1 +-
    2^-k, scaled by 2^e: condition 19 holds on one side only."""
    nn = n / (n - 1.0)
    kappa0 = R / n - gap
    drop = nn * (R / n - kappa0)
    t0 = 4.0 * drop * abs(R / 4.0) / nn * (1.0 + sign * 2.0**-k)
    return n, math.ldexp(R, e), math.ldexp(kappa0, e), math.ldexp(t0, 2 * e)


# kappa0 far below R: scaled near |kappa0|, p0^2 underflowed, and the
# grid's root missed the Friedrich value at t = 0
_DWARFED = _row(realize(Product((Surface(1.0), Warped(5, 1e-250)))))
_rows = st.one_of(
    spectra.map(_row),
    st.builds(_scaled_row, spectra, st.sampled_from([-500, 500])),
    st.builds(lambda n, x: _row(spectrum_profile([x] * n)),   # Einstein
              st.integers(2, 8), st.floats(-10.0, 10.0)),
    spectra.map(lambda p: (p.n, -abs(p.scalar), min(p.kappa0, -abs(p.scalar) / p.n),
                           p.traceless_norm_sq_min)),          # R <= 0
    st.builds(lambda p, e: (p.n, p.scalar, p.kappa0 - 10.0**e, p.traceless_norm_sq_min),
              spectra, st.floats(0.0, 300.0)),
    st.just(_DWARFED),
    # kappa0 above R/n, which profiles refuse: it counts as R/n
    st.builds(lambda p, d: (p.n, abs(p.scalar), abs(p.scalar) / p.n + d,
                            p.traceless_norm_sq_min), spectra, st.floats(0.01, 5.0)),
    st.builds(_vacuous_edge, st.integers(2, 11), st.floats(-10.0, -1e-3),
              st.floats(0.0, 10.0), st.integers(10, 52), st.sampled_from([-1, 1]),
              st.sampled_from([0, -500, 500])),
)


@settings(max_examples=400)
@given(st.lists(_rows, min_size=1, max_size=40))
def test_minimax_closed_form_matches_full_grid(rows):
    """The closed form against the grid search it replaced, with a kappa0
    above R/n lowered to R/n, as both now read it: within 1e-11 relative,
    or 1e-13 of the row's scale s (theorem31_block's). The grid cannot
    reach a t* below its finest step, about 6e-11; theorem 3.1's A cancels
    where the bound is about 1e-15 of the curvature, and so does the
    grid's q; and on rows that the degeneracy guard drops (A below 1e-14
    s^2), Friedrich's value stands in for a maximum that is flat within
    rounding. t* = s0 value lies in (0, 1/4] where theorem 3.1 applies."""
    cols = [np.array(c, dtype=float) for c in zip(*rows)]
    n, R, kappa0, t0 = cols
    expect, _ = _full_grid_reference(n, R, np.minimum(kappa0, R / n), t0)
    value, t_star = optimize_minimax_block(*cols)
    th = theorem31_block(*cols)
    assert (np.abs(value - expect) <= 1e-11 * expect + 1e-13 * th.scale).all()
    assert ((0.0 <= t_star) & (t_star <= 0.5)).all()
    assert ((t_star[th.applicable] > 0.0) & (t_star[th.applicable] <= 0.25 + 1e-12)).all()


@given(st.one_of(spectra, st.builds(
    lambda p, e: make_profile(p.n, math.ldexp(p.scalar, e), math.ldexp(p.kappa0, e),
                              math.ldexp(p.ric_norm_sq_min, 2 * e)),
    spectra, st.sampled_from([-500, 500]))))
def test_minimax_equals_its_closed_form(p):
    """Probe 1: the optimum is theorem 3.1 where that applies, else
    Friedrich's value at t* = 0."""
    r, th = optimize_minimax(p), theorem31_bound(p)
    assert 0.0 <= r.optimizer.t_star <= 0.5
    if th.applicable:
        assert r.value == pytest.approx(th.value, rel=1e-11)
    else:
        assert r.value == friedrich_bound(p).value
        assert r.optimizer.t_star == 0.0


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


# --- invariants the paper implies, as properties ---------------------------

@given(spectra)
def test_best_is_at_least_friedrich(p):
    assert best_bound(p).value >= friedrich_bound(p).value


@given(spectra)
def test_theorem31_equals_corollary32_where_both_apply(p):
    th, co = theorem31_bound(p), corollary32(p)
    if th.applicable and co is not None:
        assert th.value == pytest.approx(co, rel=1e-9)


@given(spectra)
def test_zero_scalar_equals_theorem31_at_zero_scalar(p):
    # the spectrum shifted to mean 0, so that R = 0 exactly
    eigs = np.array(p.eigenvalues) - p.scalar / p.n
    q = make_profile(p.n, 0.0, float(eigs.min()), float(np.sum(eigs**2)))
    th = theorem31_bound(q)
    if th.applicable and q.ric_norm_sq_min > 0.0:
        assert zero_scalar_bound(q).value == pytest.approx(th.value, rel=1e-9)


def _specs(top):
    """Einstein (n from 2 to 11), surface and sphere leaves of |scalar| <= top,
    and products of two or three of them."""
    leaf = st.one_of(st.builds(Einstein, st.integers(2, 11), st.floats(-top, top)),
                     st.builds(Surface, st.floats(-top, top)),
                     st.builds(Sphere, st.floats(max(1e-75, math.sqrt(2.0 / top)), 1e75)))
    return leaf | st.lists(leaf, min_size=2, max_size=3).map(lambda f: Product(tuple(f)))


def _near(R, kappa0, t0):
    size = np.maximum(np.maximum(np.abs(R), np.abs(kappa0)), np.sqrt(t0))
    return (2.0**-250 <= size) & (size <= 2.0**250)


# eigenvalue lists that sum to zero up to round-off: the zero-scalar bound's
zero_sums = st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=1,
                     max_size=4).map(lambda x: spectrum_profile(x + [-v for v in x]))


@settings(max_examples=300)
@given(spectra | _specs(1e6).map(realize) | zero_sums,
       st.lists(st.integers(-400, 400), min_size=1, max_size=22))
def test_theorem31_is_homogeneous(p, ks):
    """Theorem 3.1, the mini-max bound and the zero-scalar bound at (s R,
    s kappa0, s^2 t0, s^2 |Ric|^2), s = 2^k: the same applicability, s
    times the value, the same t* (s0 over s), bit for bit while both rows
    lie in [2^-250, 2^250]. Scales at which the data itself underflows
    are left out."""
    base = _row(p)
    ks = [k for k in ks if _scaled_row(_scaled_row(p, k), -k) == base]
    if not ks:
        return
    rows = np.array([_scaled_row(p, k) for k in ks])
    k, exact = np.array(ks), _near(*rows[:, 1:].T) & _near(*base[1:])
    if p.ric_norm_sq_min > 0.0:
        zero = zero_scalar_bound(p)
        for e in k[exact].tolist():
            n, R, kappa0, t0 = _scaled_row(p, e)
            got = zero_scalar_bound(replace(p, scalar=R, kappa0=kappa0, traceless_norm_sq_min=t0,
                                            ric_norm_sq_min=math.ldexp(p.ric_norm_sq_min, 2 * e)))
            assert got.applicable == zero.applicable
            if zero.applicable:
                assert got.value == math.ldexp(zero.value, e)
    value, t_star = optimize_minimax_block(np.full(len(ks), p.n), *rows[:, 1:].T)
    unit_value, unit_t = optimize_minimax_block(*([x] for x in base))
    assert value[exact].tobytes() == np.ldexp(unit_value, k)[exact].tobytes()
    assert t_star[exact].tobytes() == np.broadcast_to(unit_t, k.shape)[exact].tobytes()
    # elsewhere one row takes the far rows' formula, which rounds otherwise
    assert value[~exact] == pytest.approx(np.ldexp(unit_value, k)[~exact], rel=1e-12)
    assert t_star[~exact] == pytest.approx(np.broadcast_to(unit_t, k.shape)[~exact],
                                           rel=1e-12)
    th = theorem31_block(p.n, *rows[:, 1:].T)
    one = theorem31_block(*base)
    assert (th.applicable == one.applicable).all()
    if not one.applicable:
        return
    for got, unit, power in ((th.value, one.value, k), (th.s0, one.s0, -k),
                             (th.f_s0, one.f_s0, k)):
        assert got[exact].tobytes() == np.ldexp(unit, power)[exact].tobytes()
    assert th.value[~exact] == pytest.approx(np.ldexp(one.value, k)[~exact], rel=1e-12)


@settings(max_examples=300)
@given(_specs(1e150))
def test_best_bound_cross_checks_pass_on_valid_specs(spec):
    best_bound(realize(spec))   # CrossCheckFailed would escape


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kappa0", [-1e76, -1e100, -1e160, -1e230, -1e300])
@pytest.mark.parametrize("ric", [1e-6, 1.0, 1e6, 1e300])
def test_theorem31_is_zero_scalar_on_far_rows(n, kappa0, ric):
    # scaled by a power of two near |kappa0|, A^2 underflowed: the closed
    # form read 0 and f(s0) NaN, and `bound` exited 4
    p = make_profile(n, 0.0, kappa0, ric)
    th, zero = theorem31_bound(p), zero_scalar_bound(p)
    assert th.applicable
    assert th.value == pytest.approx(zero.value, rel=1e-9)
    assert th.optimizer.f_s0 == pytest.approx(zero.value, rel=1e-9)
    # the mini-max kernel, scaled near |kappa0|, lost the scaled t0 and read 0
    assert optimize_minimax(p).value == th.value


def test_theorem31_scales_rows_beyond_2_to_250():
    # A is of order R^2 = 1e300, so A^2 overflows unless the row is scaled
    big = make_profile(4, 1e150, 0.0, 5e299)
    th, mm = theorem31_bound(big), optimize_minimax(big)
    assert th.applicable
    assert th.value == pytest.approx(mm.value, rel=1e-9)
    assert th.value == pytest.approx(1e150 * theorem31_bound(
        make_profile(4, 1.0, 0.0, 0.5)).value, rel=1e-12)


def _theorem31_exact(p):
    """theorem 3.1's A^2 / (bA - ac^2 + c sqrt(a^2c^2 + A d)) to 100 digits,
    from the profile's floats."""
    with mpmath.workdps(100):
        n = p.n
        R, kappa0, t0 = map(mpmath.mpf, (p.scalar, p.kappa0, p.traceless_norm_sq_min))
        a = n * R / (8 * (n - 1))
        b = mpmath.mpf(n) / (n - 1) * (R / n - kappa0)
        csq = mpmath.mpf(n) / (n - 1) * t0
        c = mpmath.sqrt(csq)
        A = csq / 4 + 2 * mpmath.mpf(n - 1) / n * a * b
        d = A - 2 * a * b
        return A * A / (b * A - a * csq + c * mpmath.sqrt(a * a * csq + A * d))


@pytest.mark.parametrize("args", [(4, 0.0, -1e308, 50.0), (2, 0.0, -1e308, 20.0),
                                  (2, 1e-300, -1e250, 1e-50)])
def test_theorem31_far_route_matches_exact_value(args):
    # |kappa0| dwarfs the other fields: the near route's A^2 / (bA + ...)
    # is subnormal and read 1.2500000001947012e-307 on the first row,
    # strict and above the exact 1.25e-307; on the last, A - 2ab rounds
    # to 0, s0 is 0 and the far f(s0) read inf / inf
    p = make_profile(*args)
    th = theorem31_bound(p)
    assert th.applicable
    exact = _theorem31_exact(p)
    assert abs(th.value - exact) <= 1e-15 * exact


def test_theorem31_lowers_kappa0_above_the_mean_to_it():
    # kappa0 above R/n, within the profile's absolute slack or from the
    # underflow of R/n, once made the scaled A pass the guard with b < 0:
    # the closed form went negative and f(s0) NaN, and `bound` exited 4
    above = make_profile(4, 1e-20, 1e-13, 1e-30)
    th = theorem31_bound(above)
    assert th.applicable and th.value > 0.0
    assert th == theorem31_bound(make_profile(4, 1e-20, 2.5e-21, 1e-30))
    # the mini-max kernel read the raw kappa0 and found 2.0000000750000005e-13
    # at t = 1/2 on the first, 5e-324 on the second
    for p in (make_profile(2, -1e-20, 1e-13, 5e-41), realize(Surface(-5e-324))):
        assert not theorem31_bound(p).applicable
        assert minimax_root(*_row(p), 0.5) == 0.0
        assert optimize_minimax(p).value == 0.0
        best_bound(p)
