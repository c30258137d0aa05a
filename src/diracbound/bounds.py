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

The closed forms are written once, as elementwise expressions over a
block of rows (friedrich_block, kaehler_block, theorem31_block); the
report functions take a profile as a block of one.

The mini-max bound is the best over t in [0, 1/2] of the larger root r(t)
of G(x, t) = x^2 + p(t) x + q(t). G is convex in t (its t^2 coefficient
is n t0 / (n - 1) >= 0), and above the vertex -p(t)/2, r(t) >= x exactly
where G(x, t) <= 0; -p is linear in t, so above F = max(-p0/2, -(p0 +
drop)/2, 0) every superlevel set of r is an interval. That holds for the
kernel's computed row constants too: optimize_minimax_block uses it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CrossCheckFailed, DimensionError, ParameterRange,
                     RicciFlat, ScalarSignError, ShapeError)

# |R| below this counts as vanishing scalar curvature
SCALAR_ZERO_ATOL = 1e-12
# Einstein-limit guard: below this the refined denominator is pure noise
DEGENERATE_A_ATOL = 1e-14

MINIMAX_GRID = 256
# points per refinement round; odd, so the centre is the current best t
MINIMAX_REFINE = 65
MINIMAX_T_TOL = 1e-10
# rows per full-grid kernel call: bounds the (rows, grid) work arrays
MINIMAX_BLOCK = 64
# fewer rows take the full grid: the windows' fixed cost exceeds their gain
MINIMAX_WINDOW_MIN = 96
_SEARCH_ROWS = 1024   # rows per certified search: bounds its work arrays


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


def _first_max(a, b):
    """max(a, b) as Python takes it, elementwise: b only where b > a."""
    return np.where(b > a, b, a)


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
    return bool(_condition_19(profile.n, profile.scalar, profile.kappa0,
                              profile.traceless_norm_sq_min))


def _condition_19(n, R, kappa0, t0):
    rhs = (R / n - kappa0) * _first_max(R / (n - 1), -R)
    return t0 > rhs


def shortcuts(profile):
    """Evaluate the a, b, c, A shortcut quantities for a profile."""
    return Shortcuts(*map(float, _shortcut_columns(
        profile.n, profile.scalar, profile.kappa0, profile.traceless_norm_sq_min)))


def _shortcut_columns(n, R, kappa0, t0):
    a = n * R / (8.0 * (n - 1))
    b = n / (n - 1.0) * (R / n - kappa0)
    csq = n / (n - 1.0) * t0
    c = np.sqrt(csq)
    A = csq / 4.0 + 2.0 * (n - 1.0) / n * a * b
    return a, b, c, A


# --- classical bounds ------------------------------------------------------

def friedrich_block(n, scalar):
    """Friedrich values n R / (4 (n - 1)) of a block of rows; 0 where R <= 0."""
    R = np.asarray(scalar, dtype=float)
    return np.where(R > 0.0, n * R / (4.0 * (n - 1)), 0.0)


def friedrich_bound(profile):
    """lambda^2 >= n R / (4 (n - 1)); vacuous 0 when R <= 0."""
    value = float(friedrich_block(profile.n, profile.scalar))
    return BoundReport(Method.FRIEDRICH, value, False, True)


def kaehler_block(n, scalar, complex_dim):
    """Kaehler values of a block of rows of dimension n; see kaehler_bound."""
    m = int(complex_dim)
    if m < 1 or n != 2 * m:
        raise DimensionError(
            f"complex dimension {m} needs n = {2 * m}, profile has n = {n}")
    R = np.asarray(scalar, dtype=float)
    if m % 2 == 1:
        value = (m + 1) * R / (4.0 * m)
    else:
        value = m * R / (4.0 * (m - 1))
    return np.where(R <= 0.0, 0.0, value)


def kaehler_bound(profile, complex_dim):
    """Kaehler comparison bound for n = 2m.

    lambda^2 >= (m + 1) R / (4 m) for m odd, m R / (4 (m - 1)) for m
    even; vacuous 0 when R <= 0.
    """
    value = float(kaehler_block(profile.n, profile.scalar, complex_dim))
    return BoundReport(Method.KAEHLER, value, False, True)


# --- refined bounds --------------------------------------------------------

@dataclass(frozen=True)
class Theorem31Columns:
    """theorem31 over a block: condition 19, and A in units of the row's
    power-of-two scale, per row; value, s0 and f(s0) where both hold
    (applicable), NaN elsewhere; failed marks the applicable rows whose
    closed form is not finite or misses f(s0) by more than 1e-9
    relative."""

    condition: np.ndarray
    A: np.ndarray
    scale: np.ndarray
    applicable: np.ndarray
    failed: np.ndarray
    value: np.ndarray
    s0: np.ndarray
    f_s0: np.ndarray


def _closed_forms_agree(value, f_s0):
    """math.isclose(value, f_s0, rel_tol=1e-9) elementwise, where both are
    finite; False elsewhere."""
    diff = np.abs(f_s0 - value)
    close = (diff <= np.abs(1e-9 * f_s0)) | (diff <= np.abs(1e-9 * value))
    return np.isfinite(value) & np.isfinite(f_s0) & close


def theorem31_block(n, scalar, kappa0, traceless_norm_sq_min):
    """theorem31_bound on a block of rows of dimension n: Theorem31Columns.

    Every row is computed in units of a power of two near max(|R|,
    sqrt(t0), sqrt(|R kappa0|), 2^-1000 |kappa0|), about sqrt(A), and A
    is tested in those units. Squares are products, so the scaling is
    exact outside underflow and overflow. Rows whose size max(|R|,
    |kappa0|, sqrt(t0)) lies outside [2^-250, 2^250] also divide A^2 out,
    so no term leaves the float range. A kappa0 above R/n, which a
    profile accepts within its slack or gets from underflow, counts as
    R/n: a lower kappa0 only weakens the hypothesis.
    """
    R, kappa0, t0 = (np.asarray(x, dtype=float)
                     for x in (scalar, kappa0, traceless_norm_sq_min))
    with np.errstate(all="ignore"):
        size = np.maximum(np.maximum(np.abs(R), np.abs(kappa0)), np.sqrt(t0))
        far = ~((2.0**-250 <= size) & (size <= 2.0**250))
        size = np.maximum(np.maximum(np.abs(R), np.sqrt(t0)), np.maximum(
            np.sqrt(np.abs(R)) * np.sqrt(np.abs(kappa0)), np.abs(kappa0) * 2.0**-1000))
        scale = np.ldexp(1.0, np.frexp(size)[1] - 1)
        R, kappa0, t0 = R / scale, kappa0 / scale, t0 / scale / scale
        kappa0 = np.where(kappa0 > R / n, R / n, kappa0)
        condition = _condition_19(n, R, kappa0, t0)
        a, b, c, A = _shortcut_columns(n, R, kappa0, t0)
        applicable = condition & ~(A < DEGENERATE_A_ATOL)
        c2, d = c * c, A - 2.0 * a * b
        root = np.sqrt(_first_max(a * a * c2 + A * d, 0.0))
        value = A * A / (b * A - a * c2 + c * root) * scale
        s0 = d / (a * c2 + c * root)
        f_s0 = 2.0 * (a + A * s0) / (1.0 + 2.0 * b * s0 + c2 * (s0 * s0)) * scale
        if np.any(far):   # A divided out of value and s0, s0 out of f(s0)
            ratio = a * c / A
            root = np.sqrt(_first_max(ratio * ratio + d / A, 0.0))
            value = np.where(far, A * scale / (b - a * c2 / A + c * root), value)
            s0 = np.where(far, d / A / (a * c2 / A + c * root), s0)
            f_s0 = np.where(far, 2.0 * (a / s0 + A) * scale
                            / (1.0 / s0 + 2.0 * b + c2 * s0), f_s0)
        s0 = s0 / scale
        failed = applicable & ~_closed_forms_agree(value, f_s0)
    value, s0, f_s0 = (np.where(applicable, x, np.nan) for x in (value, s0, f_s0))
    return Theorem31Columns(condition, A, scale, applicable, failed, value, s0, f_s0)


def theorem31_bound(profile):
    """Refined strict bound lambda^2 > A^2 / (bA - ac^2 + c sqrt(a^2c^2 + A(A - 2ab))).

    Equals the maximum over s >= 0 of f(s) = 2(a + As) / (1 + 2bs + c^2 s^2),
    attained at s0 = (A - 2ab) / (ac^2 + c sqrt(a^2c^2 + A(A - 2ab))); both
    routes are evaluated and must agree to 1e-9 relative, or
    CrossCheckFailed is raised.
    """
    th = theorem31_block(profile.n, profile.scalar, profile.kappa0,
                         profile.traceless_norm_sq_min)
    if th.failed:
        raise CrossCheckFailed(
            f"internal cross-check failed: closed form {float(th.value)} "
            f"vs f(s0) {float(th.f_s0)}")
    if not th.condition:
        return _inapplicable(
            Method.THEOREM31,
            "condition |Ric - R/n|_0^2 > (R/n - kappa0) max(R/(n-1), -R) fails")
    if not th.applicable:
        return _inapplicable(
            Method.THEOREM31,
            f"near-degenerate data: A / s^2 = {float(th.A)} < {DEGENERATE_A_ATOL} "
            f"at the row's scale s = {float(th.scale)}")
    value, s0, f_s0 = map(float, (th.value, th.s0, th.f_s0))
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
    alpha = sc.a * (sc.c * sc.c) + d * sc.b
    beta = (sc.c * sc.c - sc.b * sc.b) * (d * d)
    n, R = profile.n, profile.scalar
    root = math.sqrt(max(alpha * alpha + beta, 0.0))
    value = n * R / (4.0 * (n - 1)) + d * d / (alpha + root)
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

def _constants(n, R, kappa0, t0):
    """Per-row constants (scale, nn, drop, p0, R/4, t0) of the kernel, in
    units of a power of two near the row's size, so p^2 cannot underflow.
    The exponent stops at 1023, where 2^1024 would overflow to inf."""
    size = np.maximum(np.maximum(np.abs(R), np.abs(kappa0)), np.sqrt(t0))
    scale = np.ldexp(1.0, np.minimum(np.frexp(size)[1], 1023))
    R, kappa0, t0 = R / scale, kappa0 / scale, t0 / scale / scale
    nn = n / (n - 1.0)
    return scale, nn, nn * (R / n - kappa0), -n * R / (4.0 * (n - 1)), R / 4.0, t0


def _root(k, t):
    """Larger root of the mini-max quadratic at t, clamped at +0; t of shape
    (rows, w) or (w,). Elementwise, so rows do not depend on each other."""
    scale, nn, drop, p0, quarter_R, t0 = k
    u = 2.0 * t * drop
    p = p0 + u
    q = nn * (t * t - t / 2.0) * t0 - u * quarter_R
    disc = p * p - 4.0 * q
    # |p| + s never cancels: (-p + s) / 2 for p <= 0, -2q / (p + s) else
    ps = np.abs(p) + np.sqrt(np.maximum(disc, 0.0))
    x = np.divide(-2.0 * q, ps, out=ps / 2.0, where=p > 0.0)
    return np.where((disc >= 0.0) & (x > 0.0), x, 0.0) * scale


def minimax_bound_at_t(profile, t):
    """Larger root of the quadratic lower-bound inequality at parameter t.

    For 0 <= t <= 1/2 every squared eigenvalue x = lambda^2 satisfies
    x^2 + p x + q >= 0 with

        p = -n R / (4 (n - 1)) + 2 t (n / (n - 1)) (R/n - kappa0)
        q = -2 t (n / (n - 1)) (R/n - kappa0) (R/4)
            + (n / (n - 1)) (t^2 - t/2) |Ric - R/n|_0^2

    so x must clear the larger root. Returns 0 when the quadratic has no
    real root or the root is negative (the bound is vacuous there). At
    t = 0, q = 0 and the root is the Friedrich value -p0 (0 for R <= 0),
    returned in that closed form.
    """
    t = float(t)
    if not 0.0 <= t <= 0.5:
        raise ParameterRange(f"t must lie in [0, 1/2], got {t}")
    if t == 0.0:
        return float(friedrich_block(profile.n, profile.scalar))
    k = _constants(profile.n, profile.scalar, profile.kappa0, profile.traceless_norm_sq_min)
    return float(_root(k, np.full((1, 1), t))[0, 0])


_GRID = np.linspace(0.0, 0.5, MINIMAX_GRID)
_OFFSETS = np.arange(-(MINIMAX_REFINE // 2), MINIMAX_REFINE // 2 + 1, dtype=float)
_MID = MINIMAX_REFINE // 2     # the column of the best t in a refinement grid
# the coarse grid (None), then refinement steps while the last was above MINIMAX_T_TOL
_ROUNDS = [None] + [_GRID[1] / _MID**i for i in range(1, 64)
                    if _GRID[1] / _MID**(i - 1) > MINIMAX_T_TOL]
_WINDOW = np.arange(5)
_EPS, _ETA, _TINY = 2.0**-53, 2.0**-20, 2.0**-300


def _round(k, at_zero, t_star, value, step, lo=None):
    """One round on the coarse grid (step None; at t = 0 it takes at_zero,
    Friedrich's value, which the kernel loses where the scaled p0^2
    underflows) or the refinement grid of step about t_star, whole or per
    row the window from column lo: (t_star, value, ts, vals, t_star's column)."""
    first = 0 if lo is None else lo
    cols = slice(None) if lo is None else lo[:, None] + _WINDOW
    ts = _GRID[cols] if step is None else np.minimum(np.maximum(
        t_star[:, None] + step * _OFFSETS[cols], 0.0), 0.5)
    vals = _root(k, ts)
    if step is None:
        vals[:, 0] = np.where(first == 0, at_zero, vals[:, 0])
    r, j = np.arange(len(vals)), vals.argmax(axis=1)
    best = vals[r, j]
    t_best = ts[r, j] if ts.ndim == 2 else ts[j]
    better = True if step is None else best > value   # ties keep the earlier
    return (np.where(better, t_best, t_star), np.where(better, best, value),
            ts, vals, np.where(better, j, _MID - first))


def _vertex(vals, at, half):
    """Vertex of the parabola through column at of vals and its neighbours, in
    units of their spacing / (2 half), rounded; 0 if undefined or beyond _MID."""
    r, last = np.arange(len(at)), vals.shape[1] - 1
    vl, v0, vr = (vals[r, np.minimum(np.maximum(at + d, 0), last)] for d in (-1, 0, 1))
    off = half * (vl - vr) / (vl - 2.0 * v0 + vr)
    return np.rint(np.where(np.abs(off) <= _MID, off, 0.0)).astype(int)


def _full_grid(k, at_zero, t_star, value, rounds):
    """(value, t_star) after whole-grid rounds, MINIMAX_BLOCK rows at a time."""
    out_v, out_t = np.empty(len(at_zero)), np.empty(len(at_zero))
    for lo in range(0, len(at_zero), MINIMAX_BLOCK):
        b = slice(lo, lo + MINIMAX_BLOCK)
        kb, t, v = tuple(c[b] for c in k), t_star[b], value[b]
        for step in rounds:
            t, v = _round(kb, at_zero[b], t, v, step)[:2]
        out_v[b], out_t[b] = v, t
    return out_v, out_t


@np.errstate(all="ignore")
def _search(cols):
    """optimize_minimax_block on one chunk of rows: (+0, +0) on the rows
    that the sign certificate proves vacuous, _windows on the rest."""
    k = _constants(*(c[:, None] for c in cols))
    at_zero = friedrich_block(cols[0], cols[1])
    _, nn, drop, p0, quarter_R, t0 = (c[:, 0] for c in k)
    lift = 2.0 * drop * np.abs(quarter_R)
    vacuous = ((p0 >= 0.0) & (drop >= 0.0) & (quarter_R <= 0.0) & (lift >= _TINY)
               & (lift * (1.0 - _ETA) >= nn * t0 / 2.0))
    value, t_star = np.zeros(len(at_zero)), np.zeros(len(at_zero))
    rest = np.flatnonzero(~vacuous)
    value[rest], t_star[rest] = _windows(tuple(c[rest] for c in k), at_zero[rest])
    return value, t_star


def _windows(k, at_zero):
    """The certified window search on rows of kernel constants k."""
    rows = len(at_zero)
    t_star, value = np.zeros(rows), np.zeros(rows)
    if rows < MINIMAX_WINDOW_MIN:
        return _full_grid(k, at_zero, t_star, value, _ROUNDS)
    scale, nn, drop, p0, quarter_R, t0 = (c[:, 0] for c in k)
    P, Q = np.abs(p0) + np.abs(drop), nn * t0 / 8.0 + np.abs(drop * quarter_R)
    terms = np.abs(np.stack((p0, drop, quarter_R, t0)))
    normal = np.all((terms == 0.0) | (terms >= _TINY), axis=0)
    # per row: scale, p_min, e_p, e_q and e_d (NaN where a term can underflow)
    bound = np.stack((scale, np.minimum(p0, p0 + drop), _EPS * (P + np.abs(drop)),
                      3.0 * _EPS * Q, np.where(normal, _EPS * (6 * P * P + 16 * Q), np.nan)))
    vals = _root(k, _GRID[::15])   # 18 points, both ends
    vals[:, 0] = at_zero
    cols = np.clip(15 * vals.argmax(axis=1)[:, None] + np.arange(-15, 16, 3),
                   0, MINIMAX_GRID - 1)
    vals = np.where(cols == 0, at_zero[:, None], _root(k, _GRID[cols]))
    j = vals.argmax(axis=1)
    lo = cols[np.arange(rows), j] + _vertex(vals, j, 1.5) - 2
    out_v, out_t, act = np.empty(rows), np.empty(rows), np.arange(rows)   # act: still windowed
    for n_round, step in enumerate(_ROUNDS):
        last = MINIMAX_GRID - 1 if step is None else MINIMAX_REFINE - 1
        if step is not None:
            lo = _MID - 2 + np.where((t_star == 0.0) | (t_star == 0.5), 0, shift)
        lo = np.minimum(np.maximum(lo, 0), last - 4)
        t, v, ts, vals, at = _round(k, at_zero, t_star, value, step, lo)
        scale, p_min, e_p, e_q, e_d = bound
        L = v / scale * (1.0 - _ETA)
        S, Lp = 2.0 * L + p_min, L + np.maximum(p_min, 0.0)
        delta = 2.0 * (e_q / (L * Lp) + (e_p + e_d / (2.0 * S)) / (2.0 * Lp) + 3.0 * _EPS)
        witness = v * (1.0 - 2.0 * delta)   # M - 2E
        ok = ((S > 0.0) & (L >= _TINY) & (v >= 2.0**-1000) & (e_d < _ETA * S * S)
              & (delta < _ETA / 4.0) & (at >= 0) & (at <= 4)
              & ((ts[:, 0] == 0.0) | (lo == 0) | (vals[:, 0] < witness))
              & ((ts[:, 4] == 0.5) | (lo == last - 4) | (vals[:, 4] < witness)))
        shift = _vertex(vals, at, _MID / 2.0)
        if not ok.all():
            bad = ~ok
            kb = tuple(c[bad] for c in k)
            if step is None:   # the whole coarse grid; later rounds try windows
                v[bad], t[bad] = _full_grid(kb, at_zero[bad], t[bad], v[bad], [None])
                shift[bad] = 0
            else:              # the whole grid from this round on
                out_v[act[bad]], out_t[act[bad]] = _full_grid(
                    kb, at_zero[bad], t_star[bad], value[bad], _ROUNDS[n_round:])
                act, at_zero, t, v, shift = (x[ok] for x in (act, at_zero, t, v, shift))
                k, bound = tuple(c[ok] for c in k), bound[:, ok]
        t_star, value = t, v
    out_v[act], out_t[act] = value, t_star
    return out_v, out_t


def optimize_minimax_block(n, scalar, kappa0, traceless_norm_sq_min):
    """Maximize the mini-max bound over t in [0, 1/2] for a block of rows.

    Takes equal-length arrays of n, R, kappa0 and min |Ric - R/n|^2 and
    returns the arrays (value, t_star) of a grid search: MINIMAX_GRID
    points, then rounds of MINIMAX_REFINE points spanning one step either
    side of the best t so far, until the step is at most MINIMAX_T_TOL.
    Ties keep the earlier point. At t = 0 the Friedrich value itself is
    taken, so no value falls below it.

    Rows that a sign certificate proves vacuous take no point at all:
    they get (value, t_star) = (+0, +0), which is what every grid point
    gives them. In the row's scaled constants the certificate asks for
    p0 >= 0, drop >= 0, R/4 <= 0, L = 2 drop |R/4| >= 2^-300 and
    L (1 - 2^-20) >= nn t0 / 2. Its proof uses IEEE +, - and x alone:
    the computed p = p0 + 2 t drop is then >= 0, so the computed root is
    > 0 exactly where the computed q < 0. For t in [0, 1/2], fl(t t) <=
    t/2, so the t0 term of q is <= 0 and its size is at most nn t0 t/2
    (1 + eps)^2; the drop term is at least t L (1 - eps)^2, far above
    the underflow threshold at every t > 0 of the grids, which are
    multiples of 2^-86. The margin 2^-20 covers those factors and the
    certificate's own roundings, so the computed q >= 0 at every t.

    A round evaluates only 5 points when it proves the whole grid picks
    the same one. With M the best value so far and r the exact root (see
    above), |computed - r| <= E = delta M, one bound per row wherever
    either is about M, from first-order bounds of each operation (eps =
    2^-53, safety factor 2), p >= p_min = min(p0, p0 + drop), s >= 2M +
    p_min and |q| >= M (p + s)/2. If M - 2E > F and each end of the window
    is computed below M - 2E (strictly, as argmax keeps the first of equal
    values), is the grid's end or a clipped copy of t = 0 or 1/2, no
    skipped j is computed >= M: r(j) and r(best) would be >= M - E, so r
    at the end between them, which would be computed >= M - 2E.

    Windows are centred on the vertex of the parabola through the best
    point and its neighbours: of an 18-point subgrid, then of every third
    point near its best, in the coarse round; of the last round later, or
    on t* at 0 or 1/2. A row left unproved takes that round's whole grid,
    MINIMAX_BLOCK rows at a time, and after a refinement round every later
    one (its values are flat within rounding). So do rows with M <= F or
    a scaled term that can underflow, and blocks of fewer than
    MINIMAX_WINDOW_MIN rows.
    """
    cols = [np.asarray(a, dtype=float).reshape(-1)
            for a in (n, scalar, kappa0, traceless_norm_sq_min)]
    rows = len(cols[0])
    if any(len(c) != rows for c in cols):
        raise ShapeError(f"row arrays differ in length: {[len(c) for c in cols]}")
    value, t_star = np.empty(rows), np.empty(rows)
    for lo in range(0, rows, _SEARCH_ROWS):
        chunk = slice(lo, lo + _SEARCH_ROWS)
        value[chunk], t_star[chunk] = _search([c[chunk] for c in cols])
    return value, t_star


def optimize_minimax(profile):
    """Maximize minimax_bound_at_t over t in [0, 1/2]: optimize_minimax_block
    on a block of one, which takes the whole grid. t_star = 0 on flat
    (Einstein) profiles, and the value never falls below Friedrich's.
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
    try:
        reports.append(zero_scalar_bound(profile))
    except RicciFlat as err:
        reports.append(_inapplicable(Method.ZERO_SCALAR, str(err)))
    reports.append(theorem31_bound(profile))
    reports.append(optimize_minimax(profile))

    best = max(r.value for r in reports if r.applicable)
    margin = 1e-9 * abs(best)
    winner = next(r for r in reports if r.applicable and r.value >= best - margin)
    return replace(winner, subreports=tuple(reports))
