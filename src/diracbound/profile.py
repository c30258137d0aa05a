"""Reduced curvature data consumed by every eigenvalue bound.

A profile stores global summaries of a compact manifold whose scalar
curvature is constant: the dimension n, the scalar curvature R, the
minimum kappa0 over the manifold of the smallest Ricci eigenvalue, and
the minimum of |Ric|^2. The two minima may be attained at different
points; no joint attainment is assumed, so any data satisfying the
pointwise inequalities is accepted. An optional eigenvalue list covers
the parallel-Ricci case where the spectrum is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, InconsistentProfile

# Consistency tolerance classes (relative): closed-form inputs must be
# exact to float round-off; integrated inputs get the looser class.
EXACT_RTOL = 1e-12
ODE_RTOL = 1e-6


@dataclass(frozen=True)
class RicciProfile:
    """Validated curvature summary; build through make_profile.

    traceless_norm_sq_min is min |Ric - (R/n) Id|^2, derived from the
    other fields by make_profile.
    """

    n: int
    scalar: float
    kappa0: float
    ric_norm_sq_min: float
    traceless_norm_sq_min: float
    eigenvalues: tuple[float, ...] | None = None
    rtol: float = EXACT_RTOL


def _slack(rtol, *values):
    return rtol * max(1.0, *(abs(v) for v in values))


def make_profile(n, scalar, kappa0, ric_norm_sq_min, eigenvalues=None, *,
                 ode_derived=False):
    """Validate curvature data and return a RicciProfile.

    Rejection is total: any relation violated by more than the tolerance
    class raises InconsistentProfile naming the relation. Pass
    ode_derived=True for data coming out of a numerical integration,
    which relaxes the consistency tolerance from 1e-12 to 1e-6.
    """
    n = int(n)
    if n < 2:
        raise DimensionError(f"profile dimension must be >= 2, got n={n}")
    scalar = float(scalar)
    kappa0 = float(kappa0)
    ric_norm_sq_min = float(ric_norm_sq_min)
    rtol = ODE_RTOL if ode_derived else EXACT_RTOL

    mean = scalar / n
    if kappa0 > mean + _slack(rtol, kappa0, mean):
        raise InconsistentProfile(
            f"kappa0 = {kappa0} exceeds scalar/n = {mean}: the smallest "
            "Ricci eigenvalue cannot lie above the mean")
    cs = scalar * scalar / n
    if ric_norm_sq_min < cs - _slack(rtol, ric_norm_sq_min, cs):
        raise InconsistentProfile(
            f"ric_norm_sq_min = {ric_norm_sq_min} is below scalar^2/n = {cs} "
            "(Cauchy-Schwarz)")
    if ric_norm_sq_min < 0.0:
        # tiny negatives can only come from the slack above
        ric_norm_sq_min = 0.0

    eigs = None
    if eigenvalues is not None:
        eigs = tuple(sorted(float(e) for e in eigenvalues))
        if len(eigs) != n:
            raise InconsistentProfile(
                f"eigenvalues has length {len(eigs)}, expected n = {n}")
        total = sum(eigs)
        if abs(total - scalar) > _slack(rtol, total, scalar):
            raise InconsistentProfile(
                f"sum(eigenvalues) = {total} does not match scalar = {scalar}")
        if abs(eigs[0] - kappa0) > _slack(rtol, eigs[0], kappa0):
            raise InconsistentProfile(
                f"min(eigenvalues) = {eigs[0]} does not match kappa0 = {kappa0}")
        sq = sum(e * e for e in eigs)
        if abs(sq - ric_norm_sq_min) > _slack(rtol, sq, ric_norm_sq_min):
            raise InconsistentProfile(
                f"sum of squared eigenvalues = {sq} does not match "
                f"ric_norm_sq_min = {ric_norm_sq_min}")

    # round-off negatives (Einstein data) are clamped to 0; the checks
    # above already bound how negative the difference can be
    traceless = max(ric_norm_sq_min - scalar**2 / n, 0.0)
    return RicciProfile(n, scalar, kappa0, ric_norm_sq_min, traceless, eigs, rtol)


# --- JSON field mapping ----------------------------------------------------

_FIELDS = ("n", "scalar", "kappa0", "ric_norm_sq_min")


def profile_to_dict(profile):
    d = {
        "n": profile.n,
        "scalar": profile.scalar,
        "kappa0": profile.kappa0,
        "ric_norm_sq_min": profile.ric_norm_sq_min,
    }
    if profile.eigenvalues is not None:
        d["eigenvalues"] = list(profile.eigenvalues)
    return d


def profile_from_dict(data, *, ode_derived=False):
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
                        data["ric_norm_sq_min"], eigs, ode_derived=ode_derived)
