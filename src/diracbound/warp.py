"""Periodic warp factors F'' = F^(1/5) - F and their product curvature.

The paper's warped example, a circle bundle over the round four-sphere,
has n = 5, and so does everything here. The warp function F > 0 with
F'(0) = 0 solves a conservative oscillator with potential
V(F) = F^2/2 - (5/6) F^(6/5); the equilibrium F = 1 gives the round
product, every 0 < F(0) < 1 gives a closed orbit between F(0) and the
conjugate turning point. The two Ricci eigenvalues of the resulting
5-manifold are tracked along one period:

    kappa1 = (24/25)(F'/F)^2 + (8/5)(1 - F^(-4/5))   multiplicity 1
    kappa2 = (16/5 - kappa1) / 4                     multiplicity 4

The scalar curvature kappa1 + 4 kappa2 = 16/5 is constant.

The curvature minima need no integration. The energy of the orbit
through F(0) = f0 is E = V(f0), which is negative on every bounded
orbit, with F'^2 = 2 (E - V(F)). Substituting F'^2 into kappa1, the
F^(-4/5) terms cancel exactly:

    kappa1 = 16/25 + (48/25) E / F^2.

As E < 0, kappa1 increases strictly with F, so over the orbit, which
sweeps F between its turning points F_min and F_max, the smallest Ricci
eigenvalue is

    kappa0 = kappa1(F_min) = (8/5)(1 - F_min^(-4/5)).

|Ric|^2 = kappa1^2 + (16/5 - kappa1)^2 / 4 = 256/125 + (5/4)(kappa1 - 16/25)^2
is least where |E| / F^2 is least, at the upper turning point:

    min |Ric|^2 = 256/125 + (576/125) (E / F_max^2)^2.

For f0 <= 1, F_min = f0 and F_max is the root of V(F) = E on
(1, (5/3)^(5/4)], where V increases from V(1) = -1/3 to 0. That root,
taken as V(F) - V(1) = E - V(1) to keep small orbits well conditioned,
is the only numerical step of warp_extremals: [1, 2] is bisected down
to adjacent floats, from the bracket that a Newton estimate of the root
shows the bisection must reach, once the misses at its ends certify it.
The result has the bits of the whole bisection (_upper_turning_point
gives the rounding bound and the argument).

integrate_warp samples one period of the orbit for the `ode` command
without an ODE solver. Between the turning points, F = c - h cos(theta)
with c -+ h = F_min, F_max, and energy conservation gives

    dtau/dtheta = h |sin theta| / sqrt(2 (E - V(F))) = 1 / sqrt(2 V[F_min, F, F_max]),

where V[., ., .] is the second divided difference of V: E - V(F) =
(F - F_min)(F_max - F) V[F_min, F, F_max] and (F - F_min)(F_max - F) =
h^2 sin^2 theta. The right side is smooth and 2 pi-periodic, so the
midpoint trapezoid rule converges geometrically (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56, 2014). Its discrete Fourier transform gives the cosine series of
dtau/dtheta; the period is 2 pi times its mean and tau(theta) is the
series integrated term by term. The uniform tau samples are found by
inverting tau(theta), and F' = h sin(theta) dtheta/dtau. As F_min goes
to 0 the integrand's branch point at F = 0 nears the real axis, so the
nodes are then clustered at F_min by a periodic change of variable
theta = phi - beta sin(phi) (_node_map). Near the equilibrium the two
terms of each divided difference are near V'(1) = 0 while their
difference is of the orbit's size, so there V[., .] is summed from the
Taylor series of V at 1, on the turning points' offsets from 1
(_taylor_slope, _near_half_width); the Fourier tail then converges as
fast for a tiny orbit as for a wide one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # loaded with the module, not inside the first ode command

from .errors import CrossCheckFailed, NonPositiveF, ParameterRange

WARP_SCALAR = 16.0 / 5.0
V_RATIO = 5.0 / 6.0             # V(F) = F^2/2 - V_RATIO F^V_POWER
V_POWER = 2.0 - 4.0 / 5.0
SAMPLES = 4097                 # covers one period; >= 2048 everywhere
ENERGY_DRIFT_RTOL = 1e-8
QUADRATURE_NODES = (64, 2**14)  # first and largest trapezoid size
FINE_GRID_CAP = 2**20           # largest grid that tau is inverted on
NEAR_EQUILIBRIUM = 1.0 / 16.0   # 1 - F_min up to which V's Taylor series is summed
TAYLOR_TERMS = 15               # terms k = 2 .. 16 of that series


@dataclass(frozen=True)
class WarpTrajectory:
    """One full period of the warp oscillator, sampled uniformly."""

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


def _potential(F):
    return F * F / 2.0 - V_RATIO * F ** V_POWER


def _potential_gap(F):
    """V(F) - V(1), without the cancellation of subtracting the two.

    F = 1 is a double zero of V - V(1), so the turning points of a small
    orbit are ill-conditioned when taken from V itself; written through
    F - 1, log1p and expm1, the gap keeps its relative accuracy.
    """
    u = F - 1.0
    return u * (F + 1.0) / 2.0 - V_RATIO * math.expm1(V_POWER * math.log1p(u))


def _energy(F, Fp):
    return Fp * Fp / 2.0 + _potential(F)


def _bounded_energy(f0):
    """V(f0), the energy of the orbit through F(0) = f0, if it is bounded.
    V < 0 on (0, 1], also where V(f0) underflows to 0 (f0 < 1e-269). Above
    1, E < -1e-12 keeps the lower turning point, which _rebase bisects for
    on [1e-12, 1], above 1e-10, as V(F) > -(5/6) F^(6/5). Where f0^(6/5)
    leaves the float range (f0 above about 7.6e256), f0^2 / 2 has already:
    V counts as +inf, as its exact value dwarfs every float."""
    if not f0 > 0.0:
        raise NonPositiveF(f"F(0) must be positive, got {f0}")
    try:
        energy = _potential(f0)
    except OverflowError:
        energy = math.inf
    if f0 > 1.0 and not energy < -1e-12:
        raise NonPositiveF(
            f"orbit through F(0) = {f0} has energy {energy}, not below -1e-12: "
            f"it reaches F = 0 or comes within 2e-10 of it")
    return energy


def _level_point(gap, a, b, misses=None):
    """The F in [a, b] where _potential_gap(F) = gap, for [a, b] on one
    side of F = 1, where the gap is monotone: bisected down to adjacent
    floats, and of the last two endpoints the one where the miss is least.

    The loop inlines _potential_gap, in its expression order, with its
    two constants taken once. Below F = 1 the miss is signed as gap -
    _potential_gap(F), so that it rises with F on either side. misses,
    if given, are the signed misses at a and b, as the loop computes them.
    """
    sign = 1.0 if a >= 1.0 else -1.0
    if misses is None:
        misses = (sign * (_potential_gap(F) - gap) for F in (a, b))
    fa, fb = misses
    ratio, power = V_RATIO, V_POWER
    expm1, log1p = math.expm1, math.log1p
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        u = m - 1.0
        fm = sign * (u * (m + 1.0) / 2.0 - ratio * expm1(power * log1p(u)) - gap)
        if fm < 0.0:
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def _rebase(f0):
    """Start above the equilibrium: shift to the orbit's minimum."""
    return _level_point(_potential_gap(f0), 1e-12, 1.0)


def check_tol(tol):
    """Reject a tolerance that is not finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterRange(f"tolerance must be finite and positive, got {tol}")


def _upper_turning_point(f_min):
    """F_max of the bounded orbit whose lower turning point is f_min < 1:
    the bisection of [1, 2] that _level_point runs, with the steps whose
    side is certain skipped.

    Newton's method on the miss H(F) = V(F) - V(1) - gap starts at
    1 + sqrt(5 gap / 2), where (2/5) (F - 1)^2, which lies below the
    convex V - V(1) (V''(1) = 4/5 and V''' > 0), reaches gap, so its
    iterates fall monotonically to the root r. Bisecting [1, 2] holds
    the dyadic bracket [1 + j 2^-k, 1 + (j+1) 2^-k] after k steps; the
    jump goes to the smallest one that holds r with a margin of
    4 eps(r) / H'(r) plus 4 ulps on either side, certifies it by the
    float misses at its ends, and runs _level_point's loop from there,
    handing it those misses. Where gap <= 0 (f_min = 1), Newton leaves
    (1, 2) or the certificate fails, [1, 2] is bisected whole.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 3). The miss is evaluated as t1 - t2 - gap, with
    t1 = u (F + 1) / 2, t2 = ratio expm1(power log1p(u)) and u = F - 1,
    in _level_point's order. Take unit roundoff 2^-53, u exact, log1p
    and expm1 within one ulp, ratio = V_RATIO = 5/6 within one unit and
    power = V_POWER = 6/5 within 5/3. Then t1 is off by at most 2 units
    relative and t2 by 12.7: 4.7 in power log1p(u), grown by at most
    y e^y / expm1(y) <= 1.85 (y <= 2 log 2) through expm1, plus 4. The
    two subtractions add a unit of t1 + t2 and one of t1 + t2 + gap.
    So one evaluation at F in [1, 2] misses the exact H(F) by at most
    eps(F) = 2^-53 (4 t1 + 16 t2 + gap), where 16 rather than 14.7
    covers the second-order terms. The certificate asks for a miss
    below -2 eps at the left end a, above +2 eps at the right end b,
    and b >= 1 + 5 2^-49.

    Why the bits cannot change. Until the bracket is 2^-52 wide every
    midpoint is an exact dyadic, and each midpoint that the bisection
    meets before [a, b] lies at or left of a, or at or right of b.
    H + eps increases on [1, 2] (H' = F - F^(1/5) >= 0, and t1 and t2
    increase), so at such an m <= a the float miss is at most H(m) +
    eps(m) <= H(a) + eps(a) <= miss(a) + 2 eps(a) < 0. H - eps increases
    where F^(4/5) >= (1 + 2^-49) / (1 - 2^-51), which F >= 1 + 5 2^-49
    ensures, so at an m >= b the float miss is at least H(b) - eps(b) >=
    miss(b) - 2 eps(b) > 0. The bisection therefore takes the side the
    jump assumed at every skipped midpoint, reaches [a, b] with the same
    end misses, and the remaining steps are the same loop.
    """
    # V(2) > 0 > E, so rounding in V at the zero of V cannot lose the
    # root. Below 2^-53, f_min - 1 rounds to -1, where log1p fails;
    # V(f_min) is then below the last bit of V(1) anyway.
    gap = _potential_gap(f_min if f_min > 2.0**-53 else 2.0**-53)
    bracket = _certified_bracket(gap) if gap > 0.0 else None
    return _level_point(gap, *(bracket or (1.0, 2.0)))


def _certified_bracket(gap):
    """(a, b, (miss(a), miss(b))) of the jump in _upper_turning_point, or
    None where Newton leaves (1, 2) or the certificate fails."""
    ratio, power = V_RATIO, V_POWER
    expm1, log1p = math.expm1, math.log1p
    r = min(1.0 + math.sqrt(5.0 * gap / 2.0), 2.0)
    for _ in range(64):
        u = r - 1.0
        e = expm1(power * log1p(u))
        t1, t2 = u * (r + 1.0) / 2.0, ratio * e
        slope = r - (1.0 + e) / r       # H' = F - F^(1/5); 0 at r = 1
        if not slope > 0.0:
            return None
        step = (t1 - t2 - gap) / slope
        r -= step
        if not 1.0 < r < 2.0:
            return None
        # H'' < 1, so the next step would be below step^2 / (2 H') < 2^-50;
        # or this one is down to the rounding, 4 eps / H'
        if step * step < 2.0**-49 * slope \
                or abs(step) * slope < 2.0**-51 * (4.0 * t1 + 16.0 * t2 + gap):
            break
    else:
        return None
    eps = 2.0**-53 * (4.0 * t1 + 16.0 * t2 + gap)
    # [lo, hi] is r widened by 4 eps / H' and 4 ulps, in ulps above 1;
    # the bracket is the level-k dyadic one that holds it
    x, margin = (r - 1.0) * 2.0**52, 2.0**54 * eps / slope + 4.0
    lo, hi = int(max(x - margin, 0.0)), int(min(x + margin, 2.0**52 - 1.0))
    shift = (lo ^ hi).bit_length()          # 52 - k
    j = lo >> shift
    a, b = 1.0 + math.ldexp(j, shift - 52), 1.0 + math.ldexp(j + 1, shift - 52)
    u = a - 1.0
    t1, t2 = u * (a + 1.0) / 2.0, ratio * expm1(power * log1p(u))
    fa = t1 - t2 - gap
    if not fa < -2.0**-52 * (4.0 * t1 + 16.0 * t2 + gap):
        return None
    u = b - 1.0
    t1, t2 = u * (b + 1.0) / 2.0, ratio * expm1(power * log1p(u))
    fb = t1 - t2 - gap
    if not (fb > 2.0**-52 * (4.0 * t1 + 16.0 * t2 + gap) and u >= 5.0 * 2.0**-49):
        return None
    return a, b, (fa, fb)


def _power_slope(x, d, p):
    """((x + d)^p - x^p) / d for x > 0, d >= 0; p x^(p-1) where d = 0.

    For d <= x the difference goes through log1p/expm1, which keeps its
    relative accuracy however small d is; for d > x nothing cancels.
    """
    ratio = np.minimum(d, x) / x
    near = x**p * np.expm1(p * np.log1p(ratio))
    diff = np.where(d <= x, near, (x + d) ** p - x**p)
    return np.where(d > 0.0, diff / np.where(d > 0.0, d, 1.0), p * x ** (p - 1.0))


def _orbit_point(theta, f_min, h):
    """F = F_min + h (1 - cos(theta)), h = (F_max - F_min) / 2, and
    dtau/dtheta = 1 / sqrt(2 V[F_min, F, F_max]).

    V[F_min, F, F_max] = -V[F_min, F] / (F_max - F) = V[F, F_max] / (F - F_min)
    as V(F_min) = V(F_max). Each half of the orbit takes the form whose
    first divided difference is far from its zero at the other turning
    point, so nothing cancels as F_min goes to 0. Near the equilibrium
    (_near_equilibrium) the divided difference is of the orbit's size,
    while its two terms are near 1; there it comes from the Taylor series
    at 1, on the ends' offsets from 1 formed from F_min - 1, lo and hi,
    which keep their relative accuracy where F itself is rounded at 1.
    """
    lo = 2.0 * h * np.sin(0.5 * theta) ** 2     # F - F_min
    hi = 2.0 * h * np.cos(0.5 * theta) ** 2     # F_max - F
    F = f_min + lo
    lower = lo <= hi
    span = np.where(lower, lo, hi)
    if _near_equilibrium(f_min):
        start = (f_min - 1.0) + np.where(lower, 0.0, lo)
        slope = _taylor_slope(start, start + span)
    else:
        base = np.where(lower, f_min, F)
        slope = base + 0.5 * span - V_RATIO * _power_slope(base, span, V_POWER)
    return F, np.sqrt(0.5 * np.where(lower, hi, lo) / np.where(lower, -slope, slope))


def _near_equilibrium(f_min):
    """Whether the orbit with lower turning point f_min < 1 stays within
    NEAR_EQUILIBRIUM of F = 1, as its upper one lies closer to 1."""
    return 1.0 - f_min <= NEAR_EQUILIBRIUM


def _near_half_width(f_min):
    """h = (F_max - F_min) / 2 of an orbit near the equilibrium.

    F_max - 1 is the b > 0 where V[f_min, 1 + b] = 0. Rounded to a float
    near 1 it would be off by up to 2^-53, which, relative to a small
    orbit, puts V(F_min) and V(F_max) far enough apart to kink the
    integrand where _orbit_point switches forms. Written as
    c_2 (a + b) + R(a, b) = 0 with a = f_min - 1 (exact), b is the fixed
    point of b = -a - R(a, b) / c_2, which contracts by about |a| / 3 or
    less per step, and keeps the relative accuracy of a.
    """
    a = f_min - 1.0
    b = -a
    for _ in range(64):
        step = float(_taylor_slope(a, b)) * (5.0 / 2.0)   # 1 / c_2
        b -= step
        if abs(step) <= 2.0**-53 * b:
            break
    return 0.5 * (b - a)


def _taylor_coefficients():
    """c_2, ..., c_16 of _taylor_slope, each p - j taken as (2 - j) - 4/5."""
    coef, c = [2.0 / 5.0], -0.5 * (1.0 - 4.0 / 5.0)
    for k in range(3, TAYLOR_TERMS + 2):
        c *= ((3.0 - k) - 4.0 / 5.0) / k
        coef.append(c)
    return tuple(coef)


_TAYLOR_COEF = _taylor_coefficients()


def _taylor_slope(a, b):
    """V[1 + a, 1 + b] for |a|, |b| <= NEAR_EQUILIBRIUM, to a few ulps.

    V(1 + w) = V(1) + sum_k c_k w^k over k >= 2, with c_2 = 2/5 and
    c_k = -(p - 1)(p - 2) ... (p - k + 1) / k! for k >= 3 (p = 6/5, and
    5 p / 6 = 1), so V[1 + a, 1 + b] = sum_k c_k h_(k-1), where h_m =
    (b^(m+1) - a^(m+1)) / (b - a) = b h_(m-1) + a^m is formed without
    dividing. The c_k are built once, at import. The terms shrink by 16
    or more, and TAYLOR_TERMS of them leave a truncation below an ulp.
    """
    power, h = np.ones_like(a), np.ones_like(a)
    slope = np.zeros_like(h)
    for c in _TAYLOR_COEF:
        power *= a
        h = b * h + power
        slope += c * h
    return slope


def _node_map(f_min, h):
    """beta of theta = phi - beta sin(phi), which clusters nodes at F_min.

    F^(1/5) puts a branch point of dtau/dtheta at F = 0, which lies
    i delta off the real theta axis with cosh(delta) = c / h. As F_min
    goes to 0 so does delta, and with it the trapezoid rule's rate. The
    map flattens theta(phi) near phi = 0 (dtheta/dphi = 1 - beta there),
    which moves the branch point about delta^(1/3) away in phi once
    1 - beta is of order delta^(2/3). The integrand in phi stays smooth
    and periodic, because the map is.
    """
    delta = math.acosh(1.0 + f_min / h)
    return max(0.0, 1.0 - delta ** (2.0 / 3.0))


def _cosine_series(f_min, h, beta, tol):
    """Cosine coefficients of dtau/dphi and the Fourier tail they reach.

    The midpoint trapezoid rule on N nodes; N doubles until the upper
    half of the coefficients lies below tol relative to the mean.
    """
    N, cap = QUADRATURE_NODES
    while True:
        phi = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
        theta = phi - beta * np.sin(phi)
        stretch = (1.0 - beta) + 2.0 * beta * np.sin(0.5 * phi) ** 2
        _, rate = _orbit_point(theta, f_min, h)
        half = np.fft.rfft(rate * stretch)[:N // 2]
        # undo the half-node shift; the integrand is even, the series real
        coef = (half * np.exp(-1j * math.pi / N * np.arange(N // 2))).real * (2.0 / N)
        coef[0] *= 0.5
        tail = float(np.max(np.abs(coef[N // 4:])) / coef[0])
        if tail <= tol or N >= cap:
            return coef, tail
        N *= 2


def _invert_tau(coef, targets, tol):
    """phi in [0, pi] at which tau(phi) takes each of the targets.

    tau(phi) = coef[0] phi + sum_k coef[k] sin(k phi) / k and its
    derivative come from irfft onto a fine uniform grid, chosen so that
    the cubic Hermite interpolant of tau misses by at most tol coef[0]:
    its error is at most step^4 max|tau^(4)| / 384, and max|tau^(4)| is
    at most sum_k k^3 |coef[k]|. Newton on that cubic, started from the
    linear interpolant in the grid cell that brackets each target
    (tau increases), finds phi.
    """
    k = np.arange(1, coef.size)
    tau4 = max(float(np.sum(k**3.0 * np.abs(coef[1:]))), 1e-300)
    step = (384.0 * tol * coef[0] / tau4) ** 0.25
    M = 2 * coef.size
    while M < FINE_GRID_CAP and 2.0 * math.pi / M > step:
        M *= 2
    spec = np.zeros(M // 2 + 1, dtype=complex)
    spec[1:coef.size] = -0.5j * M * coef[1:] / k
    dstep = 2.0 * math.pi / M
    phi = np.arange(M // 2 + 1) * dstep
    tau = coef[0] * phi + np.fft.irfft(spec, M)[:M // 2 + 1]
    spec[0], spec[1:coef.size] = M * coef[0], 0.5 * M * coef[1:]
    slope = np.fft.irfft(spec, M)[:M // 2 + 1] * dstep   # per grid cell

    i = np.clip(np.searchsorted(tau, targets, side="right") - 1, 0, M // 2 - 1)
    t0, t1, s0, s1 = tau[i], tau[i + 1], slope[i], slope[i + 1]
    rise = t1 - t0
    t = (targets - t0) / rise
    for _ in range(8):
        t2, t3 = t * t, t * t * t
        miss = (t0 - targets) + (3.0 * t2 - 2.0 * t3) * rise \
            + (t3 - 2.0 * t2 + t) * s0 + (t3 - t2) * s1
        slope_t = (6.0 * t - 6.0 * t2) * rise \
            + (3.0 * t2 - 4.0 * t + 1.0) * s0 + (3.0 * t2 - 2.0 * t) * s1
        delta = miss / slope_t
        t -= delta
        if np.max(np.abs(delta)) <= 1e-12:
            break
    return phi[i] + t * dstep


def integrate_warp(f0, tol=1e-10):
    """One full period of F'' = F^(1/5) - F, F'(0) = 0, sampled uniformly.

    Needs no ODE solver (see the module docstring): the trapezoid rule
    on dtau/dtheta doubles its node count from 64 until the Fourier
    tail is below tol, up to 2^14 nodes, and tau(theta) is inverted at
    SAMPLES uniform tau on a fine grid whose interpolation error is
    below tol. The second half period mirrors the first. Starting
    values above the equilibrium are re-based at the orbit minimum;
    exactly F(0) = 1 degenerates to the constant solution, whose period
    is reported as the linearized value pi sqrt(5). Raises
    ArithmeticError when 2^14 nodes leave a Fourier tail above tol, and
    CrossCheckFailed when the samples drift off the energy level.
    """
    f0 = float(f0)
    check_tol(tol)
    _bounded_energy(f0)
    if f0 > 1.0 + 1e-12:
        f0 = _rebase(f0)

    if abs(f0 - 1.0) <= 1e-12:
        period = math.pi * math.sqrt(5.0)
        tau = np.linspace(0.0, period, SAMPLES)
        return WarpTrajectory(1.0, tau, np.ones(SAMPLES), np.zeros(SAMPLES),
                              period, _potential(1.0))

    f_min = f0
    if _near_equilibrium(f_min):
        h = _near_half_width(f_min)
    else:
        h = 0.5 * (_upper_turning_point(f_min) - f_min)
    beta = _node_map(f_min, h)
    coef, tail = _cosine_series(f_min, h, beta, tol)
    if not tail <= tol:
        raise ArithmeticError(
            f"warp quadrature did not converge: Fourier tail {tail:.2e} at "
            f"{QUADRATURE_NODES[1]} nodes for F(0) = {f0} is above tol = {tol:g}")
    period = 2.0 * math.pi * float(coef[0])
    tau = np.linspace(0.0, period, SAMPLES)
    mid = SAMPLES // 2
    phi = _invert_tau(coef, tau[:mid + 1], tol)
    phi[0], phi[mid] = 0.0, math.pi
    theta = phi - beta * np.sin(phi)
    F, rate = _orbit_point(theta, f_min, h)
    Fp = h * np.sin(theta) / rate
    F = np.concatenate((F, F[-2::-1]))
    Fp = np.concatenate((Fp, 0.0 - Fp[-2::-1]))

    traj = WarpTrajectory(f0, tau, F, Fp, period, _energy(f0, 0.0))
    drift = energy_drift(traj)
    if not drift <= ENERGY_DRIFT_RTOL * max(1.0, abs(traj.energy)):
        raise CrossCheckFailed(
            f"energy drift {drift} exceeds {ENERGY_DRIFT_RTOL} of |E|")
    return traj


def energy_drift(traj):
    """Largest deviation of the conserved energy over the stored samples."""
    return float(np.max(np.abs(_energy(traj.F, traj.Fp) - traj.energy)))


def curvature_track(traj):
    """Ricci eigenvalues along the orbit."""
    kappa1 = (24.0 / 25.0) * (traj.Fp / traj.F) ** 2 \
        + (8.0 / 5.0) * (1.0 - traj.F ** (-4.0 / 5.0))
    kappa2 = (WARP_SCALAR - kappa1) / 4.0
    return CurvatureTrack(traj.tau, kappa1, kappa2)


def warp_extremals(f0):
    """Curvature minima of the warped factor, in closed form.

    See the module docstring: kappa0 is kappa1 at the lower turning
    point and min |Ric|^2 is taken at the upper one, found by one
    bracketed root. Starting values above the equilibrium are re-based
    as in integrate_warp, so f0 is then the upper turning point. Both
    values are exact to round-off, so no tolerance enters.
    """
    f0 = float(f0)
    energy = _bounded_energy(f0)
    if f0 > 1.0 + 1e-12:
        f_min, f_max = _rebase(f0), f0
    else:
        f_min, f_max = f0, _upper_turning_point(f0)
    kappa0 = (8.0 / 5.0) * (1.0 - f_min ** (-4.0 / 5.0))
    ratio = energy / (f_max * f_max)
    ric = 256.0 / 125.0 + (576.0 / 125.0) * (ratio * ratio)
    return WarpExtremals(kappa0, ric)

