"""Lower bounds for the squared Dirac eigenvalue from a Ricci profile.

Every operation takes a RicciProfile and reports a lower bound for
lambda^2. Applicability is data-dependent, so the bound operations do
not raise on data that fails a hypothesis, Ricci-flat data included:
they return a report with applicable=False and the reason. Exceptions
are reserved for caller errors (a complex dimension that is not an
integer or does not fit n) and for a failed internal cross-check.

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
of G(x, t) = x^2 + p(t) x + q(t). Optimizing over t is what theorem 3.1
does in closed form: the best r is theorem 3.1's value where that applies,
and Friedrich's value elsewhere (theorem31_block's docstring derives
this), so theorem31_block fills the mini-max columns too, without a search.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CrossCheckFailed, DimensionError
from .profile import as_float, as_integer, broken, raise_first

# |R| at most this times sqrt(n |Ric|_0^2) counts as vanishing scalar curvature
SCALAR_ZERO_ATOL = 1e-12
# Einstein-limit guard: below this the refined denominator is pure noise
DEGENERATE_A_ATOL = 1e-14


class Method(str, enum.Enum):
    FRIEDRICH = "friedrich"
    KAEHLER = "kaehler"
    ZERO_SCALAR = "zero_scalar"
    THEOREM31 = "theorem31"
    MINIMAX_NUMERIC = "minimax_numeric"


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


def best_block(columns):
    """Per row, the largest applicable value of a block's bound columns and
    the index of its column, the first of exactly equal ones, NaN and -0.0
    as Python's max takes them; (0, -1) where none applies. columns holds
    (values, applicable mask or True) pairs in the fixed order."""
    best, index = 0.0, -1
    for i, (values, applicable) in enumerate(columns):
        take = applicable & ((index < 0) | (values > best))
        best, index = np.where(take, values, best), np.where(take, i, index)
    return best, index


# --- applicability predicates ----------------------------------------------

def harmonic_spinor_excluded(profile):
    """True when |Ric|_0^2 > R kappa0, which rules out harmonic spinors."""
    return profile.ric_norm_sq_min > profile.scalar * profile.kappa0


def condition_19(profile):
    """Applicability of the refined bound for any sign of R:

    |Ric - R/n|_0^2 > (R/n - kappa0) * max(R/(n-1), -R).

    For R > 0 this is the improvement condition rewritten in traceless
    form; for R <= 0 it reduces to |Ric|_0^2 > R kappa0. It is
    theorem31_block's condition column, where a kappa0 above R/n (a
    profile's slack admits one) counts as R/n.
    """
    return bool(theorem31_block(profile.n, profile.scalar, profile.kappa0,
                                profile.traceless_norm_sq_min).condition)


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


@np.errstate(all="ignore")   # an m beyond floats gives NaN, where the rule breaks
def _kaehler_columns(n, scalar, complex_dim):
    """(values, failures) of kaehler_block: Friedrich's values at m rounded
    up to even, and its one-row rule table m >= 1, n = 2m (profile.broken)."""
    m = as_integer(complex_dim, "complex dimension", DimensionError)
    failures = broken(((lambda c: c["m"] < 1 or c["n"] != c["2m"], DimensionError,
                        "complex dimension {m} needs n = {2m}, profile has n = {n}"),),
                      {"m": m, "2m": 2 * m, "n": n})
    return friedrich_block(as_float(m) + m % 2, scalar), failures


def kaehler_block(n, scalar, complex_dim):
    """Kaehler values of a block of rows of dimension n; see kaehler_bound.
    DimensionError unless m = complex_dim is an integer >= 1 and n = 2m."""
    values, failures = _kaehler_columns(n, scalar, complex_dim)
    raise_first(failures)
    return values


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
    relative. minimax and t_star are the mini-max bound's columns (see
    theorem31_block): value and s0 value where applicable, Friedrich's
    value and 0 elsewhere."""

    condition: np.ndarray
    A: np.ndarray
    scale: np.ndarray
    applicable: np.ndarray
    failed: np.ndarray
    value: np.ndarray
    s0: np.ndarray
    f_s0: np.ndarray
    minimax: np.ndarray
    t_star: np.ndarray


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
    |kappa0|, sqrt(t0)) lies outside [2^-250, 2^250] also divide A out of
    value and s0, and s0 out of f(s0) where s0 is not 0. Where |kappa0|
    dwarfs the other fields the scale follows it, and A^2 / (bA + ...),
    about A / b, is subnormal before it is scaled back: kappa0 = -1e308 at
    R = 0, t0 = 50, n = 4 (pinned in scripts/cli_golden.py) read 1.6e-10
    relative above the exact value without the division. Where A - 2ab
    rounds to 0, s0 is 0 and f(s0) keeps the undivided form, 2a there. A
    kappa0 above R/n, which a profile accepts within its slack or gets
    from underflow, counts as R/n: a lower kappa0 only weakens the
    hypothesis.

    minimax and t_star maximize the mini-max bound r(t), the larger root
    of G(x, t) = x^2 - 2 a x + 2 b t x - 2 A t + c^2 t^2, over t in [0,
    1/2]: theorem 3.1's value at t* = s0 value where it applies, else
    Friedrich's value at t* = 0.

    Why. G(x, t) = x (x (1 + 2 b s + c^2 s^2) - 2 (a + A s)) with s = t / x,
    so x > 0 is a root of G(., t) exactly where x = f(t / x), f being
    theorem 3.1's function (its denominator is positive: b >= 0, as a
    kappa0 above R/n counts as R/n). So every positive r(t) is a value of
    f, and every f(s) > 0 with t = s f(s) in [0, 1/2] is at most r(t).

    f' has the sign of d - 2 a c^2 s - A c^2 s^2, d = A - 2ab. Theorem
    3.1 applies where A > 0 and d > 0 (condition 19); f then rises to
    M = f(s0) and falls, so r <= M and r(t*) >= M at t* = s0 M. f' = 0
    gives M = A / (b + c^2 s0), so t* = (A - b M) / c^2 > 0, and as M >=
    f(0) = 2a and M > 0, t* <= min(d, A) / c^2 <= 1/4 (d = c^2/4 - 2ab/n,
    A = c^2/4 + 2ab (n-1)/n): the maximum is M, at t* in (0, 1/4].

    Elsewhere f has no turn s > 0 with f(s) > 0: with c > 0 and d <= 0,
    a > 0 (R < 0 forces d > 0, R = 0 gives d = c^2/4) and f falls while
    positive; with A <= 0 and a <= 0, f <= 0; with c = 0, f is monotone.
    A turn of r at t in (0, 1/2) with r(t) > 0 would be one of f at
    t / r(t), so r peaks at t = 0, Friedrich's value 2a (0 for R <= 0),
    or at t = 1/2, which never does better: G(x, 1/2) = x^2 + (b - 2a) x
    - b R / 4. For R > 0, G(2a, 1/2) = b R / (4 (n - 1)) >= 0 and 2a lies
    right of the vertex a - b/2, so r(1/2) <= 2a; for R <= 0 the roots sum
    to 2a - b <= 0 with product -b R / 4 >= 0, so r(1/2) = 0. Rows that
    the degeneracy guard drops (A below 1e-14 s^2, s the row's scale)
    take Friedrich's value too, within about 1e-13 s of the peak.
    """
    R, kappa0, t0 = (np.asarray(x, dtype=float)
                     for x in (scalar, kappa0, traceless_norm_sq_min))
    friedrich = friedrich_block(n, R)
    with np.errstate(all="ignore"):
        size = np.maximum(np.maximum(np.abs(R), np.abs(kappa0)), np.sqrt(t0))
        far = ~((2.0**-250 <= size) & (size <= 2.0**250))
        size = np.maximum(np.maximum(np.abs(R), np.sqrt(t0)), np.maximum(
            np.sqrt(np.abs(R)) * np.sqrt(np.abs(kappa0)), np.abs(kappa0) * 2.0**-1000))
        scale = np.ldexp(1.0, np.frexp(size)[1] - 1)
        R, kappa0, t0 = R / scale, kappa0 / scale, t0 / scale / scale
        kappa0 = np.where(kappa0 > R / n, R / n, kappa0)
        condition = t0 > (R / n - kappa0) * np.where(-R > R / (n - 1), -R, R / (n - 1))
        a, b, c, A = _shortcut_columns(n, R, kappa0, t0)
        applicable = condition & ~(A < DEGENERATE_A_ATOL)
        c2, d = c * c, A - 2.0 * a * b
        disc = a * a * c2 + A * d
        root = np.sqrt(np.where(0.0 > disc, 0.0, disc))
        value = A * A / (b * A - a * c2 + c * root) * scale
        s0 = d / (a * c2 + c * root)
        f_s0 = 2.0 * (a + A * s0) / (1.0 + 2.0 * b * s0 + c2 * (s0 * s0)) * scale
        if np.any(far):   # A divided out of value and s0, s0 out of f(s0)
            ratio = a * c / A
            disc = ratio * ratio + d / A
            root = np.sqrt(np.where(0.0 > disc, 0.0, disc))
            value = np.where(far, A * scale / (b - a * c2 / A + c * root), value)
            s0 = np.where(far, d / A / (a * c2 / A + c * root), s0)
            f_s0 = np.where(far & (s0 != 0.0), 2.0 * (a / s0 + A) * scale
                            / (1.0 / s0 + 2.0 * b + c2 * s0), f_s0)
        s0 = s0 / scale
        failed = applicable & ~_closed_forms_agree(value, f_s0)
    value, s0, f_s0 = (np.where(applicable, x, np.nan) for x in (value, s0, f_s0))
    return Theorem31Columns(condition, A, scale, applicable, failed, value, s0, f_s0,
                            np.where(applicable, value, friedrich),
                            np.where(applicable, s0 * value, 0.0))


def cross_check(th):
    """theorem31_block's cross-check as a rule table (see profile.broken)
    over its columns th: the rows whose closed form misses f(s0)."""
    return broken(((lambda c: c["failed"], CrossCheckFailed,
                    "internal cross-check failed: closed form {value} vs f(s0) {f_s0}"),),
                  vars(th))


def _theorem31_reports(profile):
    """(theorem31, minimax_numeric) reports of one profile from one
    theorem31_block evaluation; CrossCheckFailed if its cross-check fails."""
    th = theorem31_block(profile.n, profile.scalar, profile.kappa0, profile.traceless_norm_sq_min)
    raise_first(cross_check(th))
    minimax = BoundReport(Method.MINIMAX_NUMERIC, float(th.minimax), False, True,
                          optimizer=OptimizerInfo(t_star=float(th.t_star)))
    if not th.condition:
        reason = "condition |Ric - R/n|_0^2 > (R/n - kappa0) max(R/(n-1), -R) fails"
    elif not th.applicable:
        reason = (f"near-degenerate data: A / s^2 = {float(th.A)} < {DEGENERATE_A_ATOL} "
                  f"at the row's scale s = {float(th.scale)}")
    else:
        value, s0, f_s0 = map(float, (th.value, th.s0, th.f_s0))
        return BoundReport(Method.THEOREM31, value, True, True,
                           optimizer=OptimizerInfo(s0=s0, f_s0=f_s0)), minimax
    return _inapplicable(Method.THEOREM31, reason), minimax


def theorem31_bound(profile):
    """Refined strict bound lambda^2 > A^2 / (bA - ac^2 + c sqrt(a^2c^2 + A(A - 2ab))).

    Equals the maximum over s >= 0 of f(s) = 2(a + As) / (1 + 2bs + c^2 s^2),
    attained at s0 = (A - 2ab) / (ac^2 + c sqrt(a^2c^2 + A(A - 2ab))); both
    routes are evaluated and must agree to 1e-9 relative, or
    CrossCheckFailed is raised.
    """
    return _theorem31_reports(profile)[0]


def zero_scalar_bound(profile):
    """Strict bound for R = 0; inapplicable on Ricci-flat data:

    lambda^2 > (1/4) |Ric|_0^2 / (|Ric|_0 sqrt((n-1)/n) + |kappa0|)

    R counts as zero where |R| <= SCALAR_ZERO_ATOL sqrt(n) |Ric|_0: the
    test is relative to the curvature's own scale, which bounds |R|
    (R^2 <= n |Ric|^2), so it holds or fails alike in every unit of
    length, and round-off of a vanishing scalar passes it while round-off
    of the whole profile does not.
    """
    n, m = profile.n, profile.ric_norm_sq_min
    if abs(profile.scalar) > SCALAR_ZERO_ATOL * math.sqrt(n) * math.sqrt(m):
        return _inapplicable(Method.ZERO_SCALAR,
                             f"scalar curvature is not zero: R = {profile.scalar}")
    if m <= 0.0:
        return _inapplicable(Method.ZERO_SCALAR, "zero-scalar bound is undefined "
                             "for Ricci-flat data (ric_norm_sq_min = 0)")
    value = 0.25 * m / (math.sqrt(m * (n - 1.0) / n) + abs(profile.kappa0))
    return BoundReport(Method.ZERO_SCALAR, value, True, True)


# --- mini-max principle ----------------------------------------------------

def optimize_minimax(profile):
    """The mini-max bound, r(t) maximized over t in [0, 1/2]: theorem31_block's
    minimax and t_star columns of one profile. On flat (Einstein)
    profiles, where theorem 3.1 does not apply, that is Friedrich's value
    at t_star = 0; the value never falls below Friedrich's. The checked
    evaluation is theorem31_bound's, so a failed theorem31 cross-check
    raises CrossCheckFailed here too.
    """
    return _theorem31_reports(profile)[1]


# --- aggregation -----------------------------------------------------------

@np.errstate(all="ignore")   # rows that break a rule hold unchecked values
def bound_columns(profile, methods, complex_dim):
    """(columns, failures) of a block's profile: name -> (values, applicable
    mask or True) of the named methods among friedrich, kaehler (if
    complex_dim is not None), theorem31 and minimax_numeric; failures
    records the Kaehler rule, then theorem 3.1's cross-check. n enters as
    a float: an n beyond floats gives NaN rows, which break a profile rule."""
    R, dim = profile.scalar, as_float(profile.n)
    columns, failures = {}, []
    if "friedrich" in methods:
        columns["friedrich"] = friedrich_block(dim, R), True
    if "kaehler" in methods and complex_dim is not None:
        values, failures = _kaehler_columns(profile.n, R, complex_dim)
        columns["kaehler"] = values, True
    if "theorem31" in methods or "minimax_numeric" in methods:
        th = theorem31_block(dim, R, profile.kappa0, profile.traceless_norm_sq_min)
        failures = failures + cross_check(th)
    if "theorem31" in methods:
        columns["theorem31"] = th.value, th.applicable
    if "minimax_numeric" in methods:
        columns["minimax_numeric"] = th.minimax, True
    return columns, failures


def best_bound(profile, complex_dim=None):
    """Evaluate every applicable bound and return the winner, as best_block
    picks it from the reports in their fixed order: friedrich, kaehler,
    zero_scalar, theorem31, minimax_numeric. The winner keeps its method
    tag and carries the full evaluation as subreports."""
    reports = [friedrich_bound(profile)]
    if complex_dim is not None:
        reports.append(kaehler_bound(profile, complex_dim))
    reports += [zero_scalar_bound(profile), *_theorem31_reports(profile)]
    _, index = best_block((r.value if r.applicable else 0.0, r.applicable) for r in reports)
    return replace(reports[index], subreports=tuple(reports))
