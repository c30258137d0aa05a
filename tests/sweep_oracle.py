"""Row-by-row `sweep`: an independent oracle for the column path.

Each row rebinds the swept field in the spec tree, realizes the whole
tree and evaluates the closed forms in Python floats, as the sweep did
before it computed columns; only the mini-max column calls the library
(optimize_minimax, a block of one). Where that per-row run raises, the
oracle reports the exception and the row's parameter value.

The rows are realized by reference_realize, not by the library's
realize: the library runs its rule tables on a block of one, the same
code as its column path, so it could not check that path. The reference
writes every validity rule and leaf range as its own float statement,
in the library's order, and only the warped factor's closed-form minima
come from the library (warp_extremals).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from diracbound import (Einstein, Product, RicciProfile, Sphere, Surface, Warped,
                        optimize_minimax, warp_extremals)
from diracbound.catalog import leaves
from diracbound.cli import SWEEP_COLUMNS, SWEEP_PARAMS
from diracbound.errors import (CompositionError, CrossCheckFailed, DimensionError,
                               InconsistentProfile, ParameterRange)
from diracbound.warp import WARP_SCALAR

DEGENERATE_A_ATOL = 1e-14
EXACT_RTOL = 1e-12
MAX_EINSTEIN_DIM = 10**6


# --- Python-float reference of make_profile and realize ----------------------

def _slack(*values):
    return EXACT_RTOL * max(1.0, *(abs(v) for v in values))


def reference_profile(n, scalar, kappa0, ric_norm_sq_min, eigenvalues=None):
    """make_profile, one Python float at a time."""
    n = int(n)
    if n < 2:
        raise DimensionError(f"profile dimension must be >= 2, got n={n}")
    if n > MAX_EINSTEIN_DIM:
        raise DimensionError(
            f"profile dimension must be at most {MAX_EINSTEIN_DIM}, got n={n}")
    scalar, kappa0, ric = float(scalar), float(kappa0), float(ric_norm_sq_min)
    for name, value in (("scalar", scalar), ("kappa0", kappa0),
                        ("ric_norm_sq_min", ric)):
        if not math.isfinite(value):
            raise InconsistentProfile(f"profile field '{name}' must be finite, got {value}")
    mean = scalar / n
    if kappa0 > mean + _slack(kappa0, mean):
        raise InconsistentProfile(
            f"kappa0 = {kappa0} exceeds scalar/n = {mean}: the smallest "
            "Ricci eigenvalue cannot lie above the mean")
    square = scalar * scalar
    if math.isinf(square):
        raise InconsistentProfile(
            f"profile field 'scalar' = {scalar} is too large: its square "
            "overflows")
    cs = square / n
    if ric < cs - _slack(ric, cs):
        raise InconsistentProfile(
            f"ric_norm_sq_min = {ric} is below scalar^2/n = {cs} (Cauchy-Schwarz)")
    if ric < 0.0:
        ric = 0.0
    eigs = None
    if eigenvalues is not None:
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
        except OverflowError:
            sq = math.inf
        if not (sq < math.inf and abs(sq - ric) <= _slack(sq, ric)):
            raise InconsistentProfile(
                f"sum of squared eigenvalues = {sq} does not match "
                f"ric_norm_sq_min = {ric}")
    traceless = max(ric - square / n, 0.0)
    return RicciProfile(n, scalar, kappa0, ric, traceless, eigs)


def _reference_einstein(n, scalar):
    mean = scalar / n
    return replace(reference_profile(n, scalar, mean, scalar * mean),
                   eigenvalues=(mean,) * n)


def reference_realize(spec):
    """realize, one leaf and one Python float at a time."""
    if isinstance(spec, Einstein):
        if spec.n > MAX_EINSTEIN_DIM:
            raise ParameterRange(f"einstein field 'n' must be at most "
                                 f"{MAX_EINSTEIN_DIM}, got {spec.n}")
        return _reference_einstein(spec.n, spec.scalar)
    if isinstance(spec, Surface):
        return _reference_einstein(2, spec.scalar)
    if isinstance(spec, Sphere):
        if not 1e-75 <= spec.radius <= 1e75:
            raise ParameterRange(
                f"sphere radius must lie in [1e-75, 1e75], got {spec.radius}")
        return _reference_einstein(2, 2.0 / (spec.radius * spec.radius))
    if isinstance(spec, Warped):
        if spec.n != 5:
            raise DimensionError(
                f"warped curvature data exists for n = 5 only, got n = {spec.n}")
        if not 0.0 < spec.f0 <= 1.0:
            raise ParameterRange(f"warped f0 must lie in (0, 1], got {spec.f0}")
        ext = warp_extremals(spec.f0)
        return reference_profile(5, WARP_SCALAR, ext.kappa0, ext.ric_norm_sq_min)
    if len(spec.factors) < 2:
        raise CompositionError("a product needs at least two factors")
    if sum(isinstance(leaf, Warped) for leaf in leaves(spec)) > 1:
        raise CompositionError(
            "at most one warped factor is allowed: the curvature minima "
            "only add exactly when a single factor varies")
    parts = [reference_realize(f) for f in spec.factors]
    kappa0 = parts[0].kappa0
    for p in parts[1:]:
        kappa0 = p.kappa0 if p.kappa0 < kappa0 else kappa0
    profile = reference_profile(sum(p.n for p in parts), sum(p.scalar for p in parts),
                                kappa0, sum(p.ric_norm_sq_min for p in parts))
    if any(p.eigenvalues is None for p in parts):
        return profile
    return replace(profile, eigenvalues=tuple(sorted(
        e for p in parts for e in p.eigenvalues)))


# --- the row-by-row sweep -----------------------------------------------------


def with_param(spec, cls, name, value):
    """The spec with field `name` of every `cls` leaf set to value."""
    if isinstance(spec, Product):
        return Product(tuple(with_param(f, cls, name, value) for f in spec.factors))
    return replace(spec, **{name: value}) if isinstance(spec, cls) else spec


def friedrich(p):
    n, R = p.n, p.scalar
    return n * R / (4.0 * (n - 1)) if R > 0.0 else 0.0


def kaehler(p, complex_dim):
    m = int(complex_dim)
    if m < 1 or p.n != 2 * m:
        raise DimensionError(
            f"complex dimension {m} needs n = {2 * m}, profile has n = {p.n}")
    R = p.scalar
    if R <= 0.0:
        return 0.0
    return (m + 1) * R / (4.0 * m) if m % 2 == 1 else m * R / (4.0 * (m - 1))


def theorem31(p):
    """theorem 3.1's value, or None where it does not apply.

    Every row is computed scaled by a power of two near max(|R|,
    sqrt(t0), sqrt(|R kappa0|), 2^-1000 |kappa0|), with kappa0 lowered to
    R/n where it lies above, and A is tested in those units. A row whose
    size max(|R|, |kappa0|, sqrt(t0)) lies outside [2^-250, 2^250] is
    far: A is divided out of its value and s0, and s0 out of its f(s0).
    """
    n, R, kappa0, t0 = p.n, p.scalar, p.kappa0, p.traceless_norm_sq_min
    size = max(abs(R), abs(kappa0), math.sqrt(t0))
    far = not 2.0**-250 <= size <= 2.0**250
    size = max(abs(R), math.sqrt(t0), math.sqrt(abs(R)) * math.sqrt(abs(kappa0)),
               abs(kappa0) * 2.0**-1000)
    scale = math.ldexp(1.0, math.frexp(size)[1] - 1)
    R, kappa0, t0 = R / scale, kappa0 / scale, t0 / scale / scale
    kappa0 = min(kappa0, R / n)
    if not t0 > (R / n - kappa0) * max(R / (n - 1), -R):
        return None
    a = n * R / (8.0 * (n - 1))
    b = n / (n - 1.0) * (R / n - kappa0)
    csq = n / (n - 1.0) * t0
    c = math.sqrt(csq)
    A = csq / 4.0 + 2.0 * (n - 1.0) / n * a * b
    if A < DEGENERATE_A_ATOL:
        return None
    if far:
        ratio = a * c / A
        root = math.sqrt(max(ratio * ratio + (A - 2.0 * a * b) / A, 0.0))
        value = A * scale / (b - a * (c * c) / A + c * root)
        s0 = (A - 2.0 * a * b) / A / (a * (c * c) / A + c * root)
        f_s0 = 2.0 * (a / s0 + A) * scale / (1.0 / s0 + 2.0 * b + c * c * s0)
    else:
        root = math.sqrt(max(a * a * (c * c) + A * (A - 2.0 * a * b), 0.0))
        value = A * A / (b * A - a * (c * c) + c * root) * scale
        s0 = (A - 2.0 * a * b) / (a * (c * c) + c * root)
        f_s0 = 2.0 * (a + A * s0) / (1.0 + 2.0 * b * s0 + c * c * (s0 * s0)) * scale
    if not (math.isfinite(value) and math.isclose(value, f_s0, rel_tol=1e-9)):
        raise CrossCheckFailed(f"closed form {value} vs f(s0) {f_s0}")
    return value


def _fmt17(x):
    return format(float(x), ".17g")


def oracle_sweep(spec, param, start, stop, steps, selected=SWEEP_COLUMNS,
                 kaehler_dim=None):
    """(csv text, None, None), or (None, exception, parameter value) of
    the first row that raises."""
    cls, name = SWEEP_PARAMS[param]
    lines = ["param," + ",".join(SWEEP_COLUMNS) + ",best"]
    for value in np.linspace(start, stop, steps).tolist():
        try:
            profile = reference_realize(with_param(spec, cls, name, value))
            cells = {}
            if "friedrich" in selected:
                cells["friedrich"] = friedrich(profile)
            if "kaehler" in selected and kaehler_dim is not None:
                cells["kaehler"] = kaehler(profile, kaehler_dim)
            if "theorem31" in selected:
                th = theorem31(profile)
                if th is not None:
                    cells["theorem31"] = th
            if "minimax_numeric" in selected:
                cells["minimax_numeric"] = optimize_minimax(profile).value
        except Exception as exc:  # noqa: BLE001 (the oracle reports it)
            return None, exc, value
        row = [_fmt17(value)]
        row += [_fmt17(cells[c]) if c in cells else "" for c in SWEEP_COLUMNS]
        row.append(_fmt17(max(cells.values())) if cells else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", None, None


def outcome(build, *args):
    """('profile', (type, value) of every number, eigenvalues listed or not)
    of build(*args), floats by their hex form so that -0.0 and 0.0 differ,
    or (exception class, message) of what it raises."""
    try:
        p = build(*args)
    except Exception as exc:  # noqa: BLE001 (compared with the library's)
        return type(exc), str(exc)
    numbers = (p.n, p.scalar, p.kappa0, p.ric_norm_sq_min,
               p.traceless_norm_sq_min, *(p.eigenvalues or ()))
    return ("profile", [(type(x), x.hex() if type(x) is float else x) for x in numbers],
            p.eigenvalues is None)
