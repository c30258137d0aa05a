"""Reduced curvature data consumed by every eigenvalue bound.

A profile stores global summaries of a compact manifold whose scalar
curvature is constant: the dimension n, the scalar curvature R, the
minimum kappa0 over the manifold of the smallest Ricci eigenvalue, and
the minimum of |Ric|^2. The two minima may be attained at different
points; no joint attainment is assumed, so any data satisfying the
pointwise inequalities is accepted. An optional eigenvalue list covers
the parallel-Ricci case where the spectrum is constant. Every integer
argument of the package (a dimension, a count, a seed) goes through as_integer.

Each validity rule is one row of an ordered table (PROFILE_RULES here;
the spec kinds' rules in catalog; the Kaehler rule and theorem 3.1's
cross-check in bounds). `broken` records the rules that a block of rows
breaks, and raise_first raises the first that the first failing row
breaks. make_profile is profile_columns on a block of one; the
eigenvalue list is then checked in scalar code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import index, or_

import numpy as np

from .errors import DimensionError, InconsistentProfile, MalformedDocument

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

def broken(rules, columns):
    """The rules of a table that some row of a block breaks, in table
    order, each as a failure (mask, error, message, columns)."""
    failures = []
    for fails, error, message in rules:
        mask = fails(columns)
        if np.count_nonzero(mask):   # a mask, a numpy bool or a bool
            failures.append((mask, error, message, columns))
    return failures


def _at(column, row):
    """Entry `row` of a column; a block of one or a constant fills every row."""
    if isinstance(column, (np.ndarray, np.generic)):
        return (column if column.size == 1 else column[row]).item()
    return column


def failing_rows(failures):
    """The rows of a block that break some failure: a mask or a bool."""
    return reduce(or_, (mask for mask, *_ in failures), False)


def raise_first(failures, note=lambda row: ""):
    """Take the first row that breaks some failure (row 0 of a block of
    one) and raise the first failure it breaks, as error(message)
    formatted with that row's values and followed by note(row)."""
    row = int(np.argmax(failing_rows(failures)))
    for mask, error, message, columns in failures:
        if _at(mask, row):
            raise error(message.format_map(
                {key: _at(value, row) for key, value in columns.items()}) + note(row))


def _slack(*values):
    """EXACT_RTOL * max(1, |value|, ...), elementwise."""
    return EXACT_RTOL * reduce(np.maximum, map(np.abs, values), 1.0)


def as_float(value):
    """float(value), with an int beyond the float range as +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_integer(value, name, error):
    """operator.index(value): ints, bools and numpy integers pass as ints."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


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
def profile_columns(n, scalar, kappa0, ric_norm_sq_min):
    """(profile, failures) of a block of rows that share n: a RicciProfile
    whose number fields are arrays, and the PROFILE_RULES that its rows
    break (see broken)."""
    scalar, kappa0, ric = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (scalar, kappa0, ric_norm_sq_min)))
    square = scalar * scalar
    dim = as_float(n)   # an n beyond floats breaks a rule, and divides as inf
    failures = broken(PROFILE_RULES, {
        "n": n, "scalar": scalar, "kappa0": kappa0, "ric_norm_sq_min": ric,
        "mean": scalar / dim, "square": square, "cs": square / dim})
    # tiny negatives can only come from the Cauchy-Schwarz slack, and
    # round-off negatives of the traceless part (Einstein data) are
    # clamped to 0; the rules bound how negative they can be
    ric = np.where(ric < 0.0, 0.0, ric)
    gap = ric - square / dim
    traceless = np.where(0.0 > gap, 0.0, gap)
    return RicciProfile(n, scalar, kappa0, ric, traceless), failures


def row_of_one(profile):
    """A profile over a block of one row, with Python numbers in its fields."""
    return RicciProfile(profile.n, profile.scalar.item(), profile.kappa0.item(),
                        profile.ric_norm_sq_min.item(),
                        profile.traceless_norm_sq_min.item(), profile.eigenvalues)


def make_profile(n, scalar, kappa0, ric_norm_sq_min, eigenvalues=None):
    """Validate curvature data and return a RicciProfile.

    Rejection is total: a non-integer n raises DimensionError (as_integer);
    a NaN or infinite value (an int beyond floats is one) or a relation off
    by over EXACT_RTOL relative raises InconsistentProfile naming the field
    or the relation (PROFILE_RULES, then the eigenvalue list's checks).
    """
    profile, failures = profile_columns(
        as_integer(n, "profile dimension", DimensionError),
        *([as_float(v)] for v in (scalar, kappa0, ric_norm_sq_min)))
    raise_first(failures)
    profile = row_of_one(profile)
    if eigenvalues is None:
        return profile
    n, scalar, kappa0 = profile.n, profile.scalar, profile.kappa0
    eigs = tuple(sorted(map(as_float, eigenvalues)))
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
        raise MalformedDocument("profile document must be a JSON object")
    for key in _FIELDS:
        if key not in data:
            raise MalformedDocument(f"profile field '{key}' is missing")
    if not isinstance(data["n"], int) or isinstance(data["n"], bool):
        raise MalformedDocument("profile field 'n' must be an integer")
    for key in _FIELDS[1:]:
        if not isinstance(data[key], (int, float)) or isinstance(data[key], bool):
            raise MalformedDocument(f"profile field '{key}' must be a number")
    eigs = data.get("eigenvalues")
    if eigs is not None:
        if (not isinstance(eigs, list)
                or any(isinstance(e, bool) or not isinstance(e, (int, float))
                       for e in eigs)):
            raise MalformedDocument("profile field 'eigenvalues' must be a list of numbers")
    unknown = set(data) - set(_FIELDS) - {"eigenvalues"}
    if unknown:
        raise MalformedDocument(f"unknown profile field '{sorted(unknown)[0]}'")
    return make_profile(data["n"], data["scalar"], data["kappa0"],
                        data["ric_norm_sq_min"], eigs)
