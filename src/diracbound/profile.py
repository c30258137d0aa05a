"""Reduced curvature data consumed by every eigenvalue bound.

A profile stores global summaries of a compact manifold whose scalar
curvature is constant: the dimension n, the scalar curvature R, the
minimum kappa0 over the manifold of the smallest Ricci eigenvalue, and
the minimum of |Ric|^2. The two minima may be attained at different
points; no joint attainment is assumed, so any data satisfying the
pointwise inequalities is accepted. An optional eigenvalue list covers
the parallel-Ricci case where the spectrum is constant.

Each validity rule is one row of an ordered table (PROFILE_RULES here,
the leaf ranges in catalog). profile_columns computes a profile over a
block of rows that share n and runs the table through `flag`, which
marks the rows that break a rule, or `enforce`, which on a block of one
raises the first rule broken. make_profile is the block of one; the
eigenvalue list of a profile document is then checked in scalar code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import DimensionError, InconsistentProfile

# relative slack of every consistency relation: the data is exact to round-off
EXACT_RTOL = 1e-12
# the largest n of a profile and of an Einstein factor, which lists its n
# eigenvalues, 8 bytes each; at far larger n theorem 3.1's terms cancel
MAX_EINSTEIN_DIM = 10**6


@dataclass(frozen=True)
class RicciProfile:
    """Validated curvature summary; build through make_profile.

    traceless_norm_sq_min is min |Ric - (R/n) Id|^2, derived from the
    other fields. profile_columns builds one for a block of rows, with
    arrays in the number fields.
    """

    n: int
    scalar: float
    kappa0: float
    ric_norm_sq_min: float
    traceless_norm_sq_min: float
    eigenvalues: tuple[float, ...] | None = None


# A rule table is an ordered tuple of rows (fails, error, message):
# fails(columns) marks the rows of a block that break the rule, and such
# a row raises error(message), formatted with the row's values.

def flag(rules, columns):
    """Column form of a rule table: the mask of rows that break any rule."""
    flagged = False
    for fails, _, _ in rules:
        flagged = flagged | fails(columns)
    return flagged


def enforce(rules, columns):
    """Scalar form of a rule table, on a block of one: raise the first rule
    that the row breaks; otherwise flag nothing."""
    for fails, error, message in rules:
        if np.asarray(fails(columns)).any():
            raise error(message.format_map({
                key: value.item() if isinstance(value, np.ndarray) else value
                for key, value in columns.items()}))
    return False


def _slack(*values):
    """EXACT_RTOL * max(1, |value|, ...), elementwise."""
    return EXACT_RTOL * reduce(np.maximum, map(np.abs, values), 1.0)


def _finite(name):
    return (lambda c: ~np.isfinite(c[name]), InconsistentProfile,
            f"profile field '{name}' must be finite, got {{{name}}}")


# in the order a block of one checks them, as make_profile always has
PROFILE_RULES = (
    (lambda c: c["n"] < 2, DimensionError, "profile dimension must be >= 2, got n={n}"),
    (lambda c: c["n"] > MAX_EINSTEIN_DIM, DimensionError,
     f"profile dimension must be at most {MAX_EINSTEIN_DIM}, got n={{n}}"),
    _finite("scalar"), _finite("kappa0"), _finite("ric_norm_sq_min"),
    (lambda c: c["kappa0"] > c["mean"] + _slack(c["kappa0"], c["mean"]),
     InconsistentProfile, "kappa0 = {kappa0} exceeds scalar/n = {mean}: the "
     "smallest Ricci eigenvalue cannot lie above the mean"),
    (lambda c: ~np.isfinite(c["square"]), InconsistentProfile,
     "profile field 'scalar' = {scalar} is too large: its square overflows"),
    (lambda c: c["ric_norm_sq_min"] < c["cs"] - _slack(c["ric_norm_sq_min"], c["cs"]),
     InconsistentProfile, "ric_norm_sq_min = {ric_norm_sq_min} is below "
     "scalar^2/n = {cs} (Cauchy-Schwarz)"),
)


@np.errstate(all="ignore")
def profile_columns(n, scalar, kappa0, ric_norm_sq_min, check=flag):
    """(profile, flagged) of a block of rows that share n: a RicciProfile
    whose number fields are arrays, and check(PROFILE_RULES, ...), which
    is the mask of rows that break a rule under `flag` and raises the
    first broken rule under `enforce`."""
    scalar, kappa0, ric = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (scalar, kappa0, ric_norm_sq_min)))
    square = scalar * scalar
    flagged = check(PROFILE_RULES, {
        "n": n, "scalar": scalar, "kappa0": kappa0, "ric_norm_sq_min": ric,
        "mean": scalar / n, "square": square, "cs": square / n})
    # tiny negatives can only come from the Cauchy-Schwarz slack, and
    # round-off negatives of the traceless part (Einstein data) are
    # clamped to 0; the rules bound how negative they can be
    ric = np.where(ric < 0.0, 0.0, ric)
    gap = ric - square / n
    traceless = np.where(0.0 > gap, 0.0, gap)
    return RicciProfile(n, scalar, kappa0, ric, traceless), flagged


def row_of_one(profile):
    """A profile over a block of one row, with Python numbers in its fields."""
    return RicciProfile(int(profile.n), profile.scalar.item(), profile.kappa0.item(),
                        profile.ric_norm_sq_min.item(),
                        profile.traceless_norm_sq_min.item(), profile.eigenvalues)


def make_profile(n, scalar, kappa0, ric_norm_sq_min, eigenvalues=None):
    """Validate curvature data and return a RicciProfile.

    Rejection is total: a NaN or infinite value, or any relation
    violated by more than EXACT_RTOL relative, raises InconsistentProfile
    naming the field or the relation (PROFILE_RULES, then the checks of
    the eigenvalue list against the other fields).
    """
    profile = row_of_one(profile_columns(
        int(n), *([float(v)] for v in (scalar, kappa0, ric_norm_sq_min)),
        enforce)[0])
    if eigenvalues is None:
        return profile
    n, scalar, kappa0 = profile.n, profile.scalar, profile.kappa0
    eigs = tuple(sorted(float(e) for e in eigenvalues))
    if not all(map(math.isfinite, eigs)):
        raise InconsistentProfile(
            f"profile field 'eigenvalues' must be finite, got {list(eigs)}")
    if len(eigs) != n:
        raise InconsistentProfile(
            f"eigenvalues has length {len(eigs)}, expected n = {n}")
    total = math.fsum(eigs)
    if abs(total - scalar) > _slack(total, scalar):
        raise InconsistentProfile(
            f"sum(eigenvalues) = {total} does not match scalar = {scalar}")
    if abs(eigs[0] - kappa0) > _slack(eigs[0], kappa0):
        raise InconsistentProfile(
            f"min(eigenvalues) = {eigs[0]} does not match kappa0 = {kappa0}")
    try:
        sq = math.fsum(e * e for e in eigs)
    except OverflowError:   # the exact sum is beyond the float range
        sq = math.inf
    if not (sq < math.inf
            and abs(sq - profile.ric_norm_sq_min) <= _slack(sq, profile.ric_norm_sq_min)):
        raise InconsistentProfile(
            f"sum of squared eigenvalues = {sq} does not match "
            f"ric_norm_sq_min = {profile.ric_norm_sq_min}")
    return replace(profile, eigenvalues=eigs)


# --- JSON field mapping ----------------------------------------------------

_FIELDS = ("n", "scalar", "kappa0", "ric_norm_sq_min")


def profile_to_dict(profile):
    d = {key: getattr(profile, key) for key in _FIELDS}
    if profile.eigenvalues is not None:
        d["eigenvalues"] = list(profile.eigenvalues)
    return d


def profile_from_dict(data):
    """Build a profile from parsed JSON; errors name the offending field."""
    if not isinstance(data, dict):
        raise ValueError("profile document must be a JSON object")
    for key in _FIELDS:
        if key not in data:
            raise ValueError(f"profile field '{key}' is missing")
    if not isinstance(data["n"], int) or isinstance(data["n"], bool):
        raise ValueError("profile field 'n' must be an integer")
    for key in _FIELDS[1:]:
        if not isinstance(data[key], (int, float)) or isinstance(data[key], bool):
            raise ValueError(f"profile field '{key}' must be a number")
    eigs = data.get("eigenvalues")
    if eigs is not None:
        if (not isinstance(eigs, list)
                or any(isinstance(e, bool) or not isinstance(e, (int, float))
                       for e in eigs)):
            raise ValueError("profile field 'eigenvalues' must be a list of numbers")
    unknown = set(data) - set(_FIELDS) - {"eigenvalues"}
    if unknown:
        raise ValueError(f"unknown profile field '{sorted(unknown)[0]}'")
    return make_profile(data["n"], data["scalar"], data["kappa0"],
                        data["ric_norm_sq_min"], eigs)
