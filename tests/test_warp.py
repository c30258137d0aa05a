"""Warp orbit quadrature, curvature track, and extremal extraction."""

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracbound import (EXAMPLES, NonPositiveF, ParameterRange,
                        Warped, curvature_track, energy_drift, integrate_warp,
                        named_example, realize, warp, warp_extremals)
from diracbound.catalog import leaves
from ode_oracle import dop853_orbit, extremal_data, sampled_min

ROOT = Path(__file__).resolve().parent.parent

# reference values from a 30-digit evaluation of the conserved-energy
# closed form (turning point of the potential) and the curvature
# expressions at the orbit extremes, for n = 5, F(0) = 0.1;
# scripts/frozen_refs.py regenerates them
F_MAX = 1.8284129813817495
KAPPA0 = -8.495317511683092
RIC_MIN = 2.0489333835054957


def test_constant_orbit():
    traj = integrate_warp(1.0)
    assert np.all(traj.F == 1.0)
    assert np.all(traj.Fp == 0.0)
    assert traj.period == pytest.approx(math.pi * math.sqrt(5.0), rel=1e-15)


def test_input_gates():
    with pytest.raises(NonPositiveF):
        integrate_warp(0.0)
    with pytest.raises(ParameterRange):
        integrate_warp(0.5, tol=0.0)
    # above the zero-energy separatrix the orbit runs into F = 0
    with pytest.raises(NonPositiveF):
        integrate_warp(2.0)


def test_rebase_recovers_the_orbit_minimum():
    # starting at the top turning point must land on the same orbit
    traj = integrate_warp(F_MAX)
    assert traj.f0 == pytest.approx(0.1, abs=1e-9)


def test_energy_conservation():
    for f0 in (0.1, 0.3):
        traj = integrate_warp(f0)
        assert energy_drift(traj) < 1e-8 * max(1.0, abs(traj.energy))


def test_periodic_return():
    traj = integrate_warp(0.3)
    assert traj.F[-1] == pytest.approx(traj.f0, abs=1e-6)
    assert traj.Fp[-1] == pytest.approx(0.0, abs=1e-6)


def test_turning_point_against_potential():
    traj = integrate_warp(0.1)
    assert float(np.max(traj.F)) == pytest.approx(F_MAX, abs=1e-8)
    assert float(np.min(traj.F)) == pytest.approx(0.1, abs=1e-12)


def test_scalar_curvature_identity():
    track = curvature_track(integrate_warp(0.1))
    assert np.max(np.abs(track.kappa1 + 4.0 * track.kappa2 - 3.2)) <= 1e-12


def test_initial_kappa1_closed_form():
    # at tau = 0 the derivative term vanishes: kappa1 = (8/5)(1 - f0^(-4/5))
    track = curvature_track(integrate_warp(0.1))
    assert track.kappa1[0] == pytest.approx(1.6 * (1.0 - 10.0**0.8), rel=1e-12)


def test_extremal_oracles():
    ext = extremal_data(curvature_track(integrate_warp(0.1)))
    assert ext.kappa0 == pytest.approx(KAPPA0, abs=1e-9)
    assert ext.ric_norm_sq_min == pytest.approx(RIC_MIN, abs=1e-9)


def _ode_extremals(f0):
    return extremal_data(curvature_track(integrate_warp(f0)))


def test_closed_form_matches_frozen_references():
    ext = warp_extremals(0.1)
    assert ext.kappa0 == KAPPA0
    assert ext.ric_norm_sq_min == RIC_MIN


@settings(max_examples=30)
@given(st.floats(0.05, 1.0))
def test_closed_form_agrees_with_the_ode_path(f0):
    ext = warp_extremals(f0)
    ode = _ode_extremals(f0)
    assert ext.kappa0 == pytest.approx(ode.kappa0, rel=1e-9, abs=1e-12)
    assert ext.ric_norm_sq_min == pytest.approx(ode.ric_norm_sq_min, rel=1e-9)


@pytest.mark.parametrize("f0", [0.05, 0.1, 0.5, 0.9])
def test_kappa1_closed_form_on_the_track(f0):
    # at the default tolerance the energy drift (about 3e-10) alone,
    # scaled by 48/(25 F^2), would exceed 1e-9 near F_min
    traj = integrate_warp(f0, tol=1e-12)
    closed = 16.0 / 25.0 + (48.0 / 25.0) * traj.energy / traj.F**2
    kappa1 = curvature_track(traj).kappa1
    assert np.max(np.abs(kappa1 - closed) / np.maximum(1.0, np.abs(kappa1))) <= 1e-9


def test_closed_form_above_the_equilibrium():
    # f0 > 1 is the upper turning point of the orbit it starts
    ext = warp_extremals(1.5)
    ode = _ode_extremals(1.5)
    assert ext.kappa0 == pytest.approx(ode.kappa0, rel=1e-9)
    assert ext.ric_norm_sq_min == pytest.approx(ode.ric_norm_sq_min, rel=1e-9)
    top = warp_extremals(F_MAX)
    assert top.kappa0 == pytest.approx(KAPPA0, rel=1e-13)
    assert top.ric_norm_sq_min == pytest.approx(RIC_MIN, rel=1e-15)


def test_closed_form_constant_orbit():
    ext = warp_extremals(1.0)
    assert (ext.kappa0, ext.ric_norm_sq_min) == (0.0, 2.56)


def test_orbits_whose_energy_underflows_are_bounded():
    # below f0 ~ 1e-269, V(f0) underflows to 0; every f0 in (0, 1] is bounded
    ext = warp_extremals(5e-324)
    assert math.isfinite(ext.kappa0) and ext.kappa0 < -1e258
    assert ext.ric_norm_sq_min == pytest.approx(2.048, rel=1e-15)
    traj = integrate_warp(1e-300, tol=1e-9)    # the node cap leaves a tail of 8.3e-10
    assert traj.energy == 0.0 and traj.f0 == 1e-300
    assert traj.F.min() == 1e-300


def test_closed_form_input_gates():
    for f0 in (0.0, -0.5, math.nan):
        with pytest.raises(NonPositiveF):
            warp_extremals(f0)
    # E >= 0: at and above the separatrix F = (5/3)^(5/4) the orbit reaches F = 0
    # at 1e260 and 1e308, F^(6/5) leaves the float range, where V counts as +inf
    for f0 in ((5.0 / 3.0) ** 1.25 + 1e-9, 2.0, 1e260, 1e308, math.inf):
        with pytest.raises(NonPositiveF):
            warp_extremals(f0)


def test_energy_gate_below_the_separatrix():
    # 1e-13 below F = (5/3)^(5/4), where V = 0, the orbit is bounded (E =
    # -7.6e-14), but its lower turning point lies within 2e-10 of F = 0
    f0 = (5.0 / 3.0) ** 1.25 - 1e-13
    for entry in (integrate_warp, warp_extremals):
        with pytest.raises(NonPositiveF, match=r"energy -7\.57\d*e-14, not below -1e-12: "
                                               r"it reaches F = 0 or comes within 2e-10"):
            entry(f0)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ParameterRange):
        integrate_warp(0.5, tol)


def test_closed_form_never_integrates(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("warp_extremals must not integrate")

    monkeypatch.setattr(warp, "integrate_warp", forbidden)
    monkeypatch.setattr(warp, "_cosine_series", forbidden)
    ext = warp_extremals(0.4321)
    assert ext.kappa0 == pytest.approx(1.6 * (1.0 - 0.4321**-0.8), rel=1e-15)
    warp_extremals(1.4321)


def test_frozen_refs_script_reproduces_the_constants():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "frozen_refs.py")],
                          capture_output=True, text=True, check=True, timeout=120)
    sections = re.split(r"^# (\S+)\n", proc.stdout, flags=re.MULTILINE)[1:]
    assert sections[::2] == ["tests/test_warp.py", "tests/test_acceptance.py"]
    for path, body in zip(sections[::2], sections[1::2]):
        frozen = (ROOT / path).read_text()
        for line in body.splitlines():
            name, value = line.split(" = ")
            match = re.search(rf"^{name} = (\S+)$", frozen, re.MULTILINE)
            assert match and float(match[1]) == float(value), (path, name)


@settings(max_examples=12)
@given(st.floats(0.05, 0.99))
@example(0.95)          # within 1/16 of F = 1, where V's Taylor series is summed
@example(0.999)
def test_orbit_matches_dop853(f0):
    traj = integrate_warp(f0, tol=1e-12)
    period, F, Fp = dop853_orbit(f0, traj.tau)
    assert traj.period == pytest.approx(period, rel=1e-10)
    assert np.max(np.abs(traj.F - F)) <= 1e-11
    assert np.max(np.abs(traj.Fp - Fp)) <= 1e-10


def test_orbit_edge_cases():
    # F(0) near 0: the branch point of F^(1/5) nears the real axis
    traj = integrate_warp(1e-6, tol=1e-12)
    period, F, _ = dop853_orbit(1e-6, traj.tau)
    assert traj.period == pytest.approx(period, rel=1e-9)
    assert np.max(np.abs(traj.F - F)) <= 1e-9
    # a small orbit around F = 1 has the linearized period pi sqrt(5)
    traj = integrate_warp(0.999999, tol=1e-12)
    assert traj.period == pytest.approx(math.pi * math.sqrt(5.0), rel=1e-9)


def test_dop853_oracle_refuses_small_orbits():
    # its period, twice the first zero of F', is off by 7e-6 at 1 - 5e-12
    for f0 in (1 - 9.99e-4, 1 - 1e-7, 1.0, 1 + 1e-4):
        with pytest.raises(ValueError, match=r"\|1 - f0\| >= 0\.001"):
            dop853_orbit(f0, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("f0", [1 - 1e-7, 1 - 1e-10, 1 - 5e-12, 1 + 1e-8, 1 + 1e-11])
def test_small_orbits_reach_any_tol(f0):
    # round-off does not hold the Fourier tail of a small orbit above tol.
    # Its period is pi sqrt(5) up to a relative 0.03 h^2, and F is the
    # cosine of the linearized oscillator up to about h^2
    traj = integrate_warp(f0, tol=1e-14)
    assert traj.period == pytest.approx(math.pi * math.sqrt(5.0), rel=1e-14)
    f_min, f_max = np.min(traj.F), np.max(traj.F)
    h = 0.5 * (f_max - f_min)
    cosine = 0.5 * (f_min + f_max) - h * np.cos(2.0 * math.pi * traj.tau / traj.period)
    assert np.max(np.abs(traj.F - cosine)) <= 1e-6 * h + 4e-16
    # the upper turning point is the level point of the lower one, to
    # the few ulps that the bisection's float misses leave it off
    top = f0 if f0 > 1.0 else warp._upper_turning_point(f0)
    assert f_max == pytest.approx(top, abs=1e-15)


def test_orbit_is_symmetric_and_closed():
    traj = integrate_warp(0.3)
    mid = len(traj.tau) // 2
    assert traj.F[0] == traj.F[-1] == 0.3
    assert traj.Fp[0] == traj.Fp[-1] == 0.0
    assert np.array_equal(traj.F, traj.F[::-1])
    assert np.array_equal(traj.Fp[1:mid], -traj.Fp[-2:mid:-1])
    assert abs(traj.Fp[mid]) <= 1e-15
    # tau = period / 2 is a sample, and it is the upper turning point
    assert traj.tau[mid] == traj.period / 2.0
    assert traj.F[mid] == pytest.approx(warp._upper_turning_point(0.3), rel=1e-15)


def test_minima_fall_on_samples():
    # kappa1 is least at tau = 0 and |Ric|^2 at tau = period / 2, both
    # samples, so the parabola through the neighbours changes nothing
    track = curvature_track(integrate_warp(0.1))
    ext = extremal_data(track)
    ric = track.kappa1**2 + 4.0 * track.kappa2**2
    assert ext.kappa0 == track.kappa1[0] == KAPPA0
    assert ext.ric_norm_sq_min == ric[len(ric) // 2]
    assert ext.ric_norm_sq_min == pytest.approx(RIC_MIN, rel=1e-14)


def test_sampled_min_parabola():
    # off-sample minimum of a periodic track: the vertex of the parabola
    tau = np.linspace(0.0, 1.0, 101)
    values = np.cos(2.0 * math.pi * (tau - 0.503))
    assert sampled_min(values) == pytest.approx(-1.0, abs=1e-5)
    assert sampled_min(values) < values.min()


def test_orbit_near_the_separatrix():
    # F(0) = 1e-10: without the node map the Fourier tail at 2^14 nodes
    # would be about 1e-4
    traj = integrate_warp(1e-10)
    period, F, _ = dop853_orbit(1e-10, traj.tau)
    assert traj.period == pytest.approx(period, rel=1e-9)
    assert np.max(np.abs(traj.F - F)) <= 1e-9


def test_f0_below_two_to_the_minus_53():
    # f0 - 1 rounds to -1 there, and log1p(-1) used to raise ValueError
    ext = warp_extremals(1e-20)
    assert ext.kappa0 == pytest.approx(1.6 * (1.0 - 1e16), rel=1e-14)
    assert ext.ric_norm_sq_min == pytest.approx(2.048, rel=1e-14)
    traj = integrate_warp(1e-20, tol=1e-9)     # the node cap leaves a tail of 2.4e-10
    assert traj.F[0] == traj.F[-1] == 1e-20


def test_unconverged_quadrature_raises():
    # F(0) = 1e-100 keeps a Fourier tail of 8.3e-10 at 2^14 nodes, above
    # the default tol = 1e-10
    with pytest.raises(ArithmeticError, match="did not converge"):
        integrate_warp(1e-100)


def test_orbit_input_gates_reject_nan_and_inf():
    for f0 in (math.nan, math.inf, -math.inf, 1e260, 1e308):
        with pytest.raises(NonPositiveF):
            integrate_warp(f0)


def _bisect_root(f, a, b):
    """The generic bisection that the turning points were written with: the
    zero of an increasing f on [a, b], bisected down to adjacent floats;
    of the last two endpoints, the one where |f| is least."""
    fa, fb = f(a), f(b)
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = f(m)
        if fm < 0.0:
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


@pytest.mark.parametrize("seed", [5, 6, 8, 100])
def test_turning_points_match_the_generic_bisection(seed):
    """_level_point inlines the potential gap, and _upper_turning_point
    starts it from a certified bracket: the same bits as the generic
    bisection, on both turning points, far below 1, near 1 and above 1."""
    gap = warp._potential_gap
    rng = np.random.default_rng(seed)
    top = warp._upper_turning_point(1e-300)
    lows = np.concatenate((rng.uniform(0.0, 1.0, 800), 10.0 ** rng.uniform(-300, -250, 200),
                           10.0 ** rng.uniform(-250, 0.0, 500),
                           1.0 - 10.0 ** -rng.uniform(1.0, 12.0, 500),
                           [1.0, 2.0**-53, 2.0**-60, 1e-300, 5e-324]))
    for f0 in lows[lows > 0.0].tolist():
        level = gap(max(f0, 2.0**-53))
        assert warp._upper_turning_point(f0) == _bisect_root(
            lambda F: gap(F) - level, 1.0, 2.0), f0
    for f0 in rng.uniform(1.0 + 1e-9, top, 1500).tolist():
        level = gap(f0)
        assert warp._rebase(f0) == _bisect_root(lambda F: level - gap(F), 1e-12, 1.0)


def test_turning_point_bisection_starts_from_a_narrow_bracket(monkeypatch):
    """The Newton jump is taken, not silently replaced by the whole of
    [1, 2]: on the sweep-warp workload's f0 grid and on the catalog's
    warped examples, _level_point is handed a bracket at most 2^-30 wide."""
    brackets = []
    level_point = warp._level_point

    def spy(gap, a, b, misses=None):
        brackets.append((a, b))
        return level_point(gap, a, b, misses)

    monkeypatch.setattr(warp, "_level_point", spy)
    for f0 in np.linspace(0.05, 0.95, 200).tolist():
        warp._upper_turning_point(f0)
    warped = [name for name, (spec, _) in EXAMPLES.items()
              if any(isinstance(leaf, Warped) for leaf in leaves(spec))]
    assert warped
    for name in warped:
        realize(named_example(name))
    assert len(brackets) == 200 + len(warped)
    for a, b in brackets:
        assert 1.0 <= a < b <= 2.0 and b - a <= 2.0**-30
