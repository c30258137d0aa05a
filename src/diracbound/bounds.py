"""Lower bounds for the squared Dirac eigenvalue from a Ricci profile.

Every operation takes a RicciProfile and reports a lower bound for
lambda^2. Applicability is data-dependent, so the bound operations do
not raise on curvature that fails a condition: they return a report
with applicable=False and the reason. Exceptions are reserved for
caller errors (bad dimensions, parameters out of range, Ricci-flat
input to the zero-scalar bound).

Shortcut quantities used by the refined bounds, with R the scalar
curvature, kappa0 the minimal Ricci eigenvalue and t0 the minimum of
the traceless norm |Ric - R/n|^2:

    a = n R / (8 (n - 1))
    b = (n / (n - 1)) (R / n - kappa0)      >= 0
    c = sqrt(n t0 / (n - 1))                >= 0
    A = c^2 / 4 + 2 ((n - 1) / n) a b

A collapses to (n / (4 (n - 1))) (|Ric|_0^2 - R kappa0), so A > 0 is
exactly the condition excluding harmonic spinors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionError, ParameterRange, RicciFlat, ScalarSignError,
                     ShapeError)

# |R| below this counts as vanishing scalar curvature
SCALAR_ZERO_ATOL = 1e-12
# Einstein-limit guard: below this the refined denominator is pure noise
DEGENERATE_A_ATOL = 1e-14

MINIMAX_GRID = 256
# points per refinement round; odd, so the centre is the current best t
MINIMAX_REFINE = 65
MINIMAX_T_TOL = 1e-10
# rows per mini-max kernel call: bounds the (rows, grid) work arrays
MINIMAX_BLOCK = 64


class Method(str, enum.Enum):
    FRIEDRICH = "friedrich"
    KAEHLER = "kaehler"
    ZERO_SCALAR = "zero_scalar"
    THEOREM31 = "theorem31"
    COROLLARY32 = "corollary32"
    MINIMAX_NUMERIC = "minimax_numeric"
    BEST = "best"


@dataclass(frozen=True)
class Shortcuts:
    a: float
    b: float
    c: float
    A: float


@dataclass(frozen=True)
class OptimizerInfo:
    """Diagnostics attached to reports that involve an optimization."""

    t_star: float | None = None
    s0: float | None = None
    f_s0: float | None = None


@dataclass(frozen=True)
class BoundReport:
    """One lower bound for lambda^2, or the reason it does not apply."""

    method: Method
    value: float | None
    strict: bool
    applicable: bool
    reason: str | None = None
    optimizer: OptimizerInfo | None = None
    subreports: tuple["BoundReport", ...] | None = None


def _inapplicable(method, reason):
    return BoundReport(method, None, False, False, reason)


# --- applicability predicates ----------------------------------------------

def harmonic_spinor_excluded(profile):
    """True when |Ric|_0^2 > R kappa0, which rules out harmonic spinors."""
    return profile.ric_norm_sq_min > profile.scalar * profile.kappa0


def improvement_condition(profile):
    """For R > 0: |Ric|_0^2 > R (R - kappa0) / (n - 1).

    When it holds the refined bound strictly beats n R / (4 (n - 1)).
    """
    if profile.scalar <= 0.0:
        raise ScalarSignError(
            "improvement condition is defined for positive scalar curvature "
            f"only, got R = {profile.scalar}")
    n, R = profile.n, profile.scalar
    return profile.ric_norm_sq_min > R * (R - profile.kappa0) / (n - 1)


def condition_19(profile):
    """Applicability of the refined bound for any sign of R:

    |Ric - R/n|_0^2 > (R/n - kappa0) * max(R/(n-1), -R).

    For R > 0 this is the improvement condition rewritten in traceless
    form; for R <= 0 it reduces to |Ric|_0^2 > R kappa0.
    """
    n, R = profile.n, profile.scalar
    rhs = (R / n - profile.kappa0) * max(R / (n - 1), -R)
    return profile.traceless_norm_sq_min > rhs


def shortcuts(profile):
    """Evaluate the a, b, c, A shortcut quantities for a profile."""
    n, R = profile.n, profile.scalar
    t0 = profile.traceless_norm_sq_min
    a = n * R / (8.0 * (n - 1))
    b = n / (n - 1.0) * (R / n - profile.kappa0)
    csq = n / (n - 1.0) * t0
    c = math.sqrt(csq)
    A = csq / 4.0 + 2.0 * (n - 1.0) / n * a * b
    return Shortcuts(a, b, c, A)


# --- classical bounds ------------------------------------------------------

def friedrich_bound(profile):
    """lambda^2 >= n R / (4 (n - 1)); vacuous 0 when R <= 0."""
    n, R = profile.n, profile.scalar
    value = n * R / (4.0 * (n - 1)) if R > 0.0 else 0.0
    return BoundReport(Method.FRIEDRICH, value, False, True)


def kaehler_bound(profile, complex_dim):
    """Kaehler comparison bound for n = 2m.

    lambda^2 >= (m + 1) R / (4 m) for m odd, m R / (4 (m - 1)) for m
    even; vacuous 0 when R <= 0.
    """
    m = int(complex_dim)
    if m < 1 or profile.n != 2 * m:
        raise DimensionError(
            f"complex dimension {m} needs n = {2 * m}, profile has n = {profile.n}")
    R = profile.scalar
    if R <= 0.0:
        return BoundReport(Method.KAEHLER, 0.0, False, True)
    if m % 2 == 1:
        value = (m + 1) * R / (4.0 * m)
    else:
        value = m * R / (4.0 * (m - 1))
    return BoundReport(Method.KAEHLER, value, False, True)


# --- refined bounds --------------------------------------------------------

def _s0_denominator(sc):
    disc = sc.a**2 * sc.c**2 + sc.A * (sc.A - 2.0 * sc.a * sc.b)
    root = math.sqrt(max(disc, 0.0))
    return sc.a * sc.c**2 + sc.c * root, root


def theorem31_bound(profile):
    """Refined strict bound lambda^2 > A^2 / (bA - ac^2 + c sqrt(a^2c^2 + A(A - 2ab))).

    Equals the maximum over s >= 0 of f(s) = 2(a + As) / (1 + 2bs + c^2 s^2),
    attained at s0 = (A - 2ab) / (ac^2 + c sqrt(a^2c^2 + A(A - 2ab))); both
    routes are evaluated and must agree to 1e-9 relative.
    """
    if not condition_19(profile):
        return _inapplicable(
            Method.THEOREM31,
            "condition |Ric - R/n|_0^2 > (R/n - kappa0) max(R/(n-1), -R) fails")
    sc = shortcuts(profile)
    if sc.A < DEGENERATE_A_ATOL:
        return _inapplicable(
            Method.THEOREM31, f"near-degenerate data: A = {sc.A} < {DEGENERATE_A_ATOL}")
    denom_s0, root = _s0_denominator(sc)
    value = sc.A**2 / (sc.b * sc.A - sc.a * sc.c**2 + sc.c * root)
    s0 = (sc.A - 2.0 * sc.a * sc.b) / denom_s0
    f_s0 = 2.0 * (sc.a + sc.A * s0) / (1.0 + 2.0 * sc.b * s0 + sc.c**2 * s0**2)
    if not math.isclose(value, f_s0, rel_tol=1e-9):
        raise ArithmeticError(
            f"internal cross-check failed: closed form {value} vs f(s0) {f_s0}")
    return BoundReport(Method.THEOREM31, value, True, True,
                       optimizer=OptimizerInfo(s0=s0, f_s0=f_s0))


def corollary32_bound(profile):
    """Equivalent form of the refined bound for R > 0:

    lambda^2 > n R / (4 (n - 1)) + (A - 2ab)^2 / (alpha + sqrt(alpha^2 + beta))

    with alpha = ac^2 + (A - 2ab) b and beta = (c^2 - b^2)(A - 2ab)^2.
    Applicable when the improvement condition holds.
    """
    if profile.scalar <= 0.0:
        return _inapplicable(Method.COROLLARY32,
                             f"scalar curvature must be positive, got R = {profile.scalar}")
    if not improvement_condition(profile):
        return _inapplicable(
            Method.COROLLARY32,
            "improvement condition |Ric|_0^2 > R (R - kappa0) / (n - 1) fails")
    sc = shortcuts(profile)
    d = sc.A - 2.0 * sc.a * sc.b
    alpha = sc.a * sc.c**2 + d * sc.b
    beta = (sc.c**2 - sc.b**2) * d**2
    n, R = profile.n, profile.scalar
    value = n * R / (4.0 * (n - 1)) + d**2 / (alpha + math.sqrt(max(alpha**2 + beta, 0.0)))
    return BoundReport(Method.COROLLARY32, value, True, True)


def zero_scalar_bound(profile):
    """Strict bound for R = 0 on non-Ricci-flat data:

    lambda^2 > (1/4) |Ric|_0^2 / (|Ric|_0 sqrt((n-1)/n) + |kappa0|)
    """
    if abs(profile.scalar) > SCALAR_ZERO_ATOL:
        return _inapplicable(Method.ZERO_SCALAR,
                             f"scalar curvature is not zero: R = {profile.scalar}")
    m = profile.ric_norm_sq_min
    if m <= 0.0:
        raise RicciFlat("zero-scalar bound is undefined for Ricci-flat data "
                        "(ric_norm_sq_min = 0)")
    n = profile.n
    value = 0.25 * m / (math.sqrt(m * (n - 1.0) / n) + abs(profile.kappa0))
    return BoundReport(Method.ZERO_SCALAR, value, True, True)


# --- mini-max principle ----------------------------------------------------

def _minimax_root(n, R, kappa0, t0):
    """t -> larger root of the mini-max quadratic, clamped at +0.

    Arguments broadcast: per-row columns of shape (rows, 1) against t
    of shape (rows, k) or (1, k). Every operation is elementwise and
    correctly rounded, so a row's values do not depend on the others.
    Each row is scaled by a power of two near its curvature size, so p^2
    cannot underflow; the scaling is exact, so it changes no value that
    did not underflow.
    """
    size = np.maximum(np.maximum(np.abs(R), np.abs(kappa0)), np.sqrt(t0))
    scale = np.ldexp(1.0, np.frexp(size)[1])
    R, kappa0, t0 = R / scale, kappa0 / scale, t0 / scale / scale
    nn = n / (n - 1.0)
    drop = nn * (R / n - kappa0)
    p0 = -n * R / (4.0 * (n - 1))
    quarter_R = R / 4.0

    def root(t):
        u = 2.0 * t * drop
        p = p0 + u
        q = nn * (t * t - t / 2.0) * t0 - u * quarter_R
        disc = p * p - 4.0 * q
        # |p| + s never cancels: (-p + s) / 2 for p <= 0, -2q / (p + s) else
        ps = np.abs(p) + np.sqrt(np.maximum(disc, 0.0))
        x = np.divide(-2.0 * q, ps, out=ps / 2.0, where=p > 0.0)
        return np.where((disc >= 0.0) & (x > 0.0), x, 0.0) * scale

    return root


def minimax_bound_at_t(profile, t):
    """Larger root of the quadratic lower-bound inequality at parameter t.

    For 0 <= t <= 1/2 every squared eigenvalue x = lambda^2 satisfies
    x^2 + p x + q >= 0 with

        p = -n R / (4 (n - 1)) + 2 t (n / (n - 1)) (R/n - kappa0)
        q = -2 t (n / (n - 1)) (R/n - kappa0) (R/4)
            + (n / (n - 1)) (t^2 - t/2) |Ric - R/n|_0^2

    so x must clear the larger root. Returns 0 when the quadratic has no
    real root or the root is negative (the bound is vacuous there).
    """
    t = float(t)
    if not 0.0 <= t <= 0.5:
        raise ParameterRange(f"t must lie in [0, 1/2], got {t}")
    root = _minimax_root(profile.n, profile.scalar, profile.kappa0,
                         profile.traceless_norm_sq_min)
    return float(root(np.full((1, 1), t))[0, 0])


_GRID = np.linspace(0.0, 0.5, MINIMAX_GRID)
_OFFSETS = np.arange(-(MINIMAX_REFINE // 2), MINIMAX_REFINE // 2 + 1, dtype=float)


def _maximize(root):
    """Grid search, then nested grids around the best t; see optimize_minimax_block."""
    vals = root(_GRID)
    i = np.argmax(vals, axis=1)
    idx = np.arange(len(i))
    t_star, value = _GRID[i], vals[idx, i]
    step = _GRID[1]
    while step > MINIMAX_T_TOL:
        step /= MINIMAX_REFINE // 2
        ts = np.clip(t_star[:, None] + step * _OFFSETS, 0.0, 0.5)
        vals = root(ts)
        j = np.argmax(vals, axis=1)
        # ties keep the earlier best; keeps t_star = 0 on flat profiles
        better = vals[idx, j] > value
        t_star = np.where(better, ts[idx, j], t_star)
        value = np.where(better, vals[idx, j], value)
    return value, t_star


def optimize_minimax_block(n, scalar, kappa0, traceless_norm_sq_min):
    """Maximize the mini-max bound over t in [0, 1/2] for a block of rows.

    Takes equal-length arrays of n, R, kappa0 and min |Ric - R/n|^2 and
    returns the arrays (value, t_star). Each row is searched on a grid of
    MINIMAX_GRID points; then, for a fixed number of rounds, on a grid of
    MINIMAX_REFINE points spanning one step either side of the best t so
    far, until the step is at most MINIMAX_T_TOL. The first grid contains
    t = 0, so no value falls below the Friedrich bound. Rows go through
    the kernel MINIMAX_BLOCK at a time, and a row's result does not
    depend on the block it lands in.
    """
    cols = [np.asarray(a, dtype=float).reshape(-1)
            for a in (n, scalar, kappa0, traceless_norm_sq_min)]
    rows = len(cols[0])
    if any(len(c) != rows for c in cols):
        raise ShapeError(f"row arrays differ in length: {[len(c) for c in cols]}")
    value, t_star = np.empty(rows), np.empty(rows)
    for lo in range(0, rows, MINIMAX_BLOCK):
        block = slice(lo, lo + MINIMAX_BLOCK)
        root = _minimax_root(*(c[block, None] for c in cols))
        value[block], t_star[block] = _maximize(root)
    return value, t_star


def optimize_minimax(profile):
    """Maximize minimax_bound_at_t over t in [0, 1/2].

    optimize_minimax_block on a block of one: a coarse grid of
    MINIMAX_GRID points, then a fixed number of nested grids of
    MINIMAX_REFINE points around the best t until the step is at most
    MINIMAX_T_TOL. Ties keep the earlier point, so t_star = 0 on flat
    (Einstein) profiles. The grid contains t = 0, so the result never
    falls below the Friedrich value.
    """
    value, t_star = optimize_minimax_block(
        profile.n, profile.scalar, profile.kappa0, profile.traceless_norm_sq_min)
    return BoundReport(Method.MINIMAX_NUMERIC, float(value[0]), False, True,
                       optimizer=OptimizerInfo(t_star=float(t_star[0])))


# --- aggregation -----------------------------------------------------------

def best_bound(profile, complex_dim=None):
    """Evaluate every applicable bound and return the winner.

    The returned report keeps the winning method tag and carries the
    full evaluation as subreports. Ties within 1e-9 relative go to the
    earlier entry of the fixed evaluation order (closed forms before
    the numeric optimizer).
    """
    reports = [friedrich_bound(profile)]
    if complex_dim is not None:
        reports.append(kaehler_bound(profile, complex_dim))
    if abs(profile.scalar) <= SCALAR_ZERO_ATOL:
        try:
            reports.append(zero_scalar_bound(profile))
        except RicciFlat as err:
            reports.append(_inapplicable(Method.ZERO_SCALAR, str(err)))
    else:
        reports.append(_inapplicable(
            Method.ZERO_SCALAR, f"scalar curvature is not zero: R = {profile.scalar}"))
    reports.append(theorem31_bound(profile))
    reports.append(optimize_minimax(profile))

    best = max(r.value for r in reports if r.applicable)
    margin = 1e-9 * max(1.0, abs(best))
    winner = next(r for r in reports if r.applicable and r.value >= best - margin)
    return replace(winner, subreports=tuple(reports))
