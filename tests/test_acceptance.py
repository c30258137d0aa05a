"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or -rA;
`pytest -v` shows the same verdict through the test outcome). Expected
numbers are frozen reference values: closed forms evaluated exactly, or
30-digit evaluations of the defining equations done independently of
the library code. Tolerances are part of the contract and must not be
loosened.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

import diracbound as db
from bounds_oracle import corollary32, improvement_condition, minimax_root, row
from conftest import spectrum_profile
from ode_oracle import extremal_data

# frozen reference values (30-digit evaluation of the closed forms)
WARP_KAPPA0 = -8.495317511683092
WARP_RIC_MIN = 2.0489333835054957
ZERO_SCALAR_PINNED = 0.16225485164802839


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def test_criterion_1_torus_sphere_closed_forms():
    with criterion(1, "T2 x S2 closed-form bounds at 1e-9, under 1 ms"):
        p = db.realize(db.named_example("t2xs2"))

        def evaluate():
            return (db.friedrich_bound(p).value, db.kaehler_bound(p, 2).value,
                    db.theorem31_bound(p).value, corollary32(p))

        fr, ka, th, co = evaluate()
        assert fr == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert ka == pytest.approx(1.0, rel=1e-9)
        assert th == pytest.approx(math.sqrt(0.5), rel=1e-9)
        assert co == pytest.approx(th, rel=1e-9)
        start = time.perf_counter()
        for _ in range(10):
            evaluate()
        assert (time.perf_counter() - start) / 10 < 1e-3


def test_criterion_2_sphere_radius_family_and_crossing():
    with criterion(2, "S2(r) x N2 family matches 0.5(sqrt(1+2/r^4)-1), "
                      "kaehler crossing at 1/sqrt(2)"):
        def profile(r):
            h = 1.0 / r**2
            return spectrum_profile([h, h, -1.0, -1.0])

        def th31(r):
            return db.theorem31_bound(profile(r)).value

        def kaehler(r):
            return db.kaehler_bound(profile(r), 2).value

        grid = np.linspace(0.4, 2.0, 200)
        for r in grid:
            closed = 0.5 * (math.sqrt(1.0 + 2.0 / r**4) - 1.0)
            assert th31(r) == pytest.approx(closed, rel=1e-9), r

        gap = [th31(r) - kaehler(r) for r in grid]
        flips = sum(1 for a, b in zip(gap, gap[1:]) if (a < 0) != (b < 0))
        assert flips == 1
        root = brentq(lambda r: th31(r) - kaehler(r), 0.4, 2.0, xtol=1e-9)
        assert abs(root - 1.0 / math.sqrt(2.0)) <= 1e-6

        for r in grid[grid < 1.0]:
            friedrich = (2.0 / 3.0) * (-1.0 + 1.0 / r**2)
            assert db.friedrich_bound(profile(r)).value == pytest.approx(
                friedrich, rel=1e-12, abs=1e-12)
            assert friedrich < th31(r)


def test_criterion_3_warp_orbit_curvature():
    with criterion(3, "warp orbit: kappa0 within 0.01, |Ric|^2 min within "
                      "5%, drift < 1e-8, scalar identity, under 1 s"):
        start = time.perf_counter()
        traj = db.integrate_warp(0.1)
        track = db.curvature_track(traj)
        ext = extremal_data(track)
        elapsed = time.perf_counter() - start
        assert abs(ext.kappa0 - WARP_KAPPA0) <= 0.01
        assert abs(ext.ric_norm_sq_min - WARP_RIC_MIN) <= 0.05 * WARP_RIC_MIN
        assert db.energy_drift(traj) < 1e-8
        assert np.max(np.abs(track.kappa1 + 4.0 * track.kappa2 - 3.2)) <= 1e-12
        assert elapsed < 1.0


def test_criterion_4_minimax_surface_scalar_family():
    with criterion(4, "t = 0.212 slice matches the quadratic-in-sqrt "
                      "reference curve at 1e-3, slope in [0.344, 0.348]"):
        def profile(surface_scalar):
            return db.realize(db.Product((db.Surface(surface_scalar),
                                          db.Warped(5, 0.1))))

        def reference(rs):
            return (-1.74873 + 0.1105 * rs
                    + 0.235194 * math.sqrt(120.053 + 12.8828 * rs + rs * rs))

        for rs in (1.0, 5.0, 10.0, 20.0):
            value = minimax_root(*row(profile(rs)), 0.212)
            assert value == pytest.approx(reference(rs), rel=1e-3), rs

        v100 = db.theorem31_bound(profile(100.0)).value
        v1000 = db.theorem31_bound(profile(1000.0)).value
        slope = (v1000 - v100) / 900.0
        assert 0.344 <= slope <= 0.348


def test_criterion_5_negative_scalar_best_bound():
    with criterion(5, "negative-scalar M7: best bound in [0.052, 0.054], "
                      "harmonic spinors excluded"):
        p = db.realize(db.named_example("m7-negative-scalar"))
        best = db.best_bound(p)
        assert 0.052 <= best.value <= 0.054
        assert db.harmonic_spinor_excluded(p)


def test_criterion_6_zero_scalar_consistency():
    with criterion(6, "zero-scalar bound equals the refined bound at R = 0 "
                      "on 10^4 profiles; pinned value 0.16225 stands"):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(3, 9))
            eigs = rng.standard_normal(n)
            eigs -= eigs.mean()
            p = db.make_profile(n, 0.0, float(eigs.min()),
                                float((eigs**2).sum()), eigs)
            z = db.zero_scalar_bound(p).value
            t = db.theorem31_bound(p).value
            assert z == pytest.approx(t, rel=1e-9)

        # rounded-input slice of the zero-scalar worked example; the
        # formula gives 0.16225..., not the circulating 0.17833 (the
        # divergence is deliberate and ledgered)
        pinned = db.zero_scalar_bound(
            db.make_profile(7, 0.0, -8.5, 7.12)).value
        assert pinned == pytest.approx(ZERO_SCALAR_PINNED, rel=1e-9)
        assert abs(pinned - 0.17833) > 0.01


def _improvement_profile(rng):
    """Random positive-scalar profile with the improvement condition on.

    One eigenvalue is forced negative: that spreads the spectrum, which
    is what the condition rewards, while the rest keep the scalar
    curvature positive.
    """
    n = int(rng.integers(3, 9))
    eigs = rng.uniform(0.5, 2.0, n)
    eigs[0] = -rng.uniform(0.2, 2.0)
    if eigs.sum() <= 0.1:
        return None
    p = spectrum_profile(eigs)
    if not improvement_condition(p):
        return None
    return p


def test_criterion_7_equivalence_and_fixed_point_fuzz():
    with criterion(7, "two closed forms agree to 1e-6 on 10^4 profiles, "
                      "fixed point t* = s0 lambda^2, strict improvement, "
                      "under 10 s"):
        rng = np.random.default_rng(31)
        start = time.perf_counter()
        accepted = 0
        while accepted < 10_000:
            p = _improvement_profile(rng)
            if p is None:
                continue
            accepted += 1
            th = db.theorem31_bound(p)
            co = corollary32(p)
            assert th.applicable and co is not None
            assert co == pytest.approx(th.value, rel=1e-6)

            assert th.value > db.friedrich_bound(p).value  # strictly better

            t_fix = th.optimizer.s0 * th.value
            if t_fix <= 0.5:
                # the quadratic at the matched parameter returns the
                # bound itself: the mini-max closes on theorem31
                assert minimax_root(*row(p), t_fix) == pytest.approx(
                    th.value, rel=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0

        # the numeric optimizer lands on the same fixed point
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 100:
            p = _improvement_profile(rng)
            if p is None:
                continue
            checked += 1
            th = db.theorem31_bound(p)
            t_fix = th.optimizer.s0 * th.value
            opt = db.optimize_minimax(p)
            if t_fix <= 0.5 - 1e-6:
                assert opt.optimizer.t_star == pytest.approx(t_fix, abs=1e-5)
                assert opt.value == pytest.approx(th.value, rel=1e-6)
            else:
                assert opt.value <= th.value + 1e-12


def test_criterion_8_clifford_identity_batches():
    with criterion(8, "identity residuals <= 1e-12 on 1000 instances for "
                      "n = 2..8, unit counterexamples >= 0.1, under 5 s"):
        start = time.perf_counter()
        for n in range(2, 9):
            s = db.run_identity_batch(n, 1000, seed=1234 + n)
            assert s.trace_residual_full <= 1e-12, n
            assert s.trace_residual_traceless <= 1e-12, n
            assert s.lemma_residual <= 1e-12, n
        elapsed = time.perf_counter() - start

        rep = db.build_rep(4)
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = 2**-0.5, -(2**-0.5)  # unit Frobenius norm
        probe = db.verify_ricci_trace(rep, A, enforce_symmetry=False)
        assert probe.residual_full >= 0.1

        T = np.zeros((4, 4, 4))
        T[0, 2, 1] = T[0, 1, 2] = 1.0  # unit entry, outer slots asymmetric
        Y = np.zeros(4)
        Y[2] = 1.0
        assert db.verify_lemma15(rep, T, Y) >= 0.1

        assert elapsed < 5.0
