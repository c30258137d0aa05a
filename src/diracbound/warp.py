"""Periodic warp factors F'' = F^(1-4/n) - F and their product curvature.

The warp function F > 0 with F'(0) = 0 solves a conservative oscillator
with potential V(F) = F^2/2 - (n/(2n-4)) F^(2-4/n); the equilibrium
F = 1 gives the round product, every 0 < F(0) < 1 gives a closed orbit
between F(0) and the conjugate turning point. For n = 5 the two Ricci
eigenvalues of the resulting 5-manifold are tracked along one period:

    kappa1 = (24/25)(F'/F)^2 + (8/5)(1 - F^(-4/5))   multiplicity 1
    kappa2 = (16/5 - kappa1) / 4                     multiplicity 4

The scalar curvature kappa1 + 4 kappa2 = 16/5 is constant.

The curvature minima need no integration. For n = 5 the potential is
V(F) = F^2/2 - (5/6) F^(6/5), and the energy of the orbit through
F(0) = f0 is E = V(f0), which is negative on every bounded orbit, with
F'^2 = 2 (E - V(F)). Substituting F'^2 into kappa1, the F^(-4/5) terms
cancel exactly:

    kappa1 = 16/25 + (48/25) E / F^2.

As E < 0, kappa1 increases strictly with F, so over the orbit, which
sweeps F between its turning points F_min and F_max, the smallest Ricci
eigenvalue is

    kappa0 = kappa1(F_min) = (8/5)(1 - F_min^(-4/5)).

|Ric|^2 = kappa1^2 + (16/5 - kappa1)^2 / 4 = 256/125 + (5/4)(kappa1 - 16/25)^2
is least where |E| / F^2 is least, at the upper turning point:

    min |Ric|^2 = 256/125 + (576/125) (E / F_max^2)^2.

For f0 <= 1, F_min = f0 and F_max is the root of V(F) = E on
(1, (5/3)^(5/4)], where V increases from V(1) = -1/3 to 0; that root,
taken as V(F) - V(1) = E - V(1) to keep small orbits well conditioned,
is the only numerical step of warp_extremals. integrate_warp and the
sampled track serve the `ode` command and check the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .errors import DimensionError, NonPositiveF, NoPeriod, ParameterRange
from .optimize import bisect_root, golden_min

WARP_SCALAR = 16.0 / 5.0
SAMPLES = 4097                 # covers one period; >= 2048 everywhere
ENERGY_DRIFT_RTOL = 1e-8
PERIOD_HORIZON = 100.0
RETURN_ATOL = 1e-6
REFINE_TAU_TOL = 1e-8


@dataclass(frozen=True)
class WarpTrajectory:
    """One full period of the warp oscillator, sampled uniformly."""

    n: int
    f0: float
    tau: np.ndarray
    F: np.ndarray
    Fp: np.ndarray
    period: float
    energy: float


@dataclass(frozen=True)
class CurvatureTrack:
    """Ricci eigenvalues along a five-dimensional warp trajectory."""

    tau: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray


@dataclass(frozen=True)
class WarpExtremals:
    kappa0: float
    ric_norm_sq_min: float


def _potential(F, n):
    return F**2 / 2.0 - n / (2.0 * n - 4.0) * F ** (2.0 - 4.0 / n)


def _potential_gap(F, n):
    """V(F) - V(1), without the cancellation of subtracting the two.

    F = 1 is a double zero of V - V(1), so the turning points of a small
    orbit are ill-conditioned when taken from V itself; written through
    F - 1, log1p and expm1, the gap keeps its relative accuracy.
    """
    u = F - 1.0
    return u * (F + 1.0) / 2.0 \
        - n / (2.0 * n - 4.0) * math.expm1((2.0 - 4.0 / n) * math.log1p(u))


def _energy(F, Fp, n):
    return Fp**2 / 2.0 + _potential(F, n)


def _rebase(f0, n):
    """Start above the equilibrium: shift to the orbit's minimum."""
    energy = _potential(f0, n)
    if energy >= -1e-12:
        raise NonPositiveF(
            f"orbit through F(0) = {f0} has energy {energy} >= 0 and reaches F = 0")
    gap = _potential_gap(f0, n)
    return bisect_root(lambda F: gap - _potential_gap(F, n), 1e-12, 1.0)


def check_tol(tol):
    """Reject a tolerance that is not finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterRange(f"tolerance must be finite and positive, got {tol}")


def integrate_warp(n, f0, tol=1e-10):
    """Integrate one full period of F'' = F^(1-4/n) - F, F'(0) = 0.

    Uses an adaptive explicit Runge-Kutta pair (eighth order) at
    relative tolerance tol. The half period is located first through a
    terminal root of F' on the dense output, then the full period is
    re-integrated and sampled at SAMPLES uniform points. Starting
    values above the equilibrium are re-based at the orbit minimum;
    exactly F(0) = 1 degenerates to the constant solution, whose period
    is reported as the linearized value pi sqrt(n).
    """
    n = int(n)
    if n < 5:
        raise DimensionError(f"warp exponent needs n >= 5, got n = {n}")
    f0 = float(f0)
    if f0 <= 0.0:
        raise NonPositiveF(f"F(0) must be positive, got {f0}")
    check_tol(tol)
    if f0 > 1.0 + 1e-12:
        f0 = _rebase(f0, n)

    if abs(f0 - 1.0) <= 1e-12:
        period = math.pi * math.sqrt(n)
        tau = np.linspace(0.0, period, SAMPLES)
        return WarpTrajectory(n, 1.0, tau, np.ones(SAMPLES), np.zeros(SAMPLES),
                              period, _potential(1.0, n))

    def rhs(t, y):
        F, Fp = y
        return (Fp, F ** (1.0 - 4.0 / n) - F)

    def fp_crossing(t, y):
        return y[1]

    fp_crossing.terminal = True
    fp_crossing.direction = -1.0

    def f_vanishing(t, y):
        return y[0]

    f_vanishing.terminal = True
    f_vanishing.direction = -1.0

    atol = tol * 1e-3
    first = solve_ivp(rhs, (0.0, PERIOD_HORIZON), (f0, 0.0), method="DOP853",
                      rtol=tol, atol=atol, events=(fp_crossing, f_vanishing),
                      dense_output=True)
    if first.t_events[1].size:
        raise NonPositiveF("trajectory crossed F = 0")
    if not first.t_events[0].size:
        raise NoPeriod(f"no F' sign change within tau <= {PERIOD_HORIZON}")
    period = 2.0 * float(first.t_events[0][0])

    tau = np.linspace(0.0, period, SAMPLES)
    full = solve_ivp(rhs, (0.0, period), (f0, 0.0), method="DOP853",
                     rtol=tol, atol=atol, t_eval=tau, events=(f_vanishing,))
    if full.status != 0:
        raise NonPositiveF("trajectory crossed F = 0")
    F, Fp = full.y

    energy = _energy(f0, 0.0, n)
    drift = np.max(np.abs(_energy(F, Fp, n) - energy))
    if drift > ENERGY_DRIFT_RTOL * max(1.0, abs(energy)):
        raise ArithmeticError(
            f"energy drift {drift} exceeds {ENERGY_DRIFT_RTOL} of |E|")
    if abs(F[-1] - f0) > RETURN_ATOL or abs(Fp[-1]) > RETURN_ATOL:
        raise NoPeriod(
            f"state after one period ({F[-1]}, {Fp[-1]}) does not return to "
            f"({f0}, 0) within {RETURN_ATOL}")
    return WarpTrajectory(n, f0, tau, F, Fp, period, energy)


def energy_drift(traj):
    """Largest deviation of the conserved energy over the stored samples."""
    return float(np.max(np.abs(_energy(traj.F, traj.Fp, traj.n) - traj.energy)))


def curvature_track(traj):
    """Ricci eigenvalues along the orbit; defined for n = 5 only."""
    if traj.n != 5:
        raise DimensionError(
            f"curvature formulas are specific to n = 5, got n = {traj.n}")
    kappa1 = (24.0 / 25.0) * (traj.Fp / traj.F) ** 2 \
        + (8.0 / 5.0) * (1.0 - traj.F ** (-4.0 / 5.0))
    kappa2 = (WARP_SCALAR - kappa1) / 4.0
    return CurvatureTrack(traj.tau, kappa1, kappa2)


def _refined_min(tau, values):
    """Spline the sampled track and polish the minimum by golden section."""
    spline = CubicSpline(tau, values)
    i = int(np.argmin(values))
    lo = tau[max(i - 1, 0)]
    hi = tau[min(i + 1, len(tau) - 1)]
    _, refined = golden_min(spline, lo, hi, REFINE_TAU_TOL)
    return float(min(refined, values[i]))


def extremal_data(track):
    """Global minima over the period: kappa0 and min |Ric|^2."""
    ric = track.kappa1**2 + 4.0 * track.kappa2**2
    return WarpExtremals(_refined_min(track.tau, track.kappa1),
                         _refined_min(track.tau, ric))


@lru_cache(maxsize=64)
def warp_extremals(n, f0, tol=1e-10):
    """Cached curvature minima of the n = 5 factor, in closed form.

    See the module docstring: kappa0 is kappa1 at the lower turning
    point and min |Ric|^2 is taken at the upper one, found by one
    bracketed root. Starting values above the equilibrium are re-based
    as in integrate_warp, so f0 is then the upper turning point. tol is
    validated but changes no value.
    """
    if n != 5:
        raise DimensionError(
            f"curvature formulas are specific to n = 5, got n = {n}")
    f0 = float(f0)
    if not f0 > 0.0:
        raise NonPositiveF(f"F(0) must be positive, got {f0}")
    check_tol(tol)
    energy = _potential(f0, 5)
    if not energy < 0.0:
        raise NonPositiveF(
            f"orbit through F(0) = {f0} has energy {energy} >= 0 and reaches F = 0")
    if f0 > 1.0 + 1e-12:
        f_min, f_max = _rebase(f0, 5), f0
    else:
        # V(2) > 0 > E, so rounding in V((5/3)^(5/4)) = 0 cannot lose the root
        gap = _potential_gap(f0, 5)
        f_min = f0
        f_max = bisect_root(lambda F: _potential_gap(F, 5) - gap, 1.0, 2.0)
    kappa0 = (8.0 / 5.0) * (1.0 - f_min ** (-4.0 / 5.0))
    ric = 256.0 / 125.0 + (576.0 / 125.0) * (energy / f_max**2) ** 2
    return WarpExtremals(kappa0, ric)


def write_track_csv(path, traj, track):
    """Dump one period as CSV with 17 significant digits per cell."""
    with open(path, "w", newline="\n") as fh:
        fh.write("tau,F,Fp,kappa1,kappa2\n")
        for row in zip(traj.tau, traj.F, traj.Fp, track.kappa1, track.kappa2):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
