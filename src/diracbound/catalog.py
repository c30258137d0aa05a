"""Constructors for the worked example manifolds and their profiles.

Specs are small declarative trees: Einstein factors, constant-curvature
surfaces, round spheres, the n = 5 warped circle bundle, and products.
realize() turns a spec into a validated RicciProfile. Scalar curvature
and the two curvature minima add across product factors; this is exact
because at most one factor (the warped one) is allowed to vary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (CompositionError, DimensionError, ParameterRange,
                     UnknownExample)
from .profile import ODE_RTOL, make_profile
from .warp import WARP_SCALAR, check_tol, warp_extremals


@dataclass(frozen=True)
class Einstein:
    """Einstein factor: every Ricci eigenvalue equals scalar / n."""

    n: int
    scalar: float


@dataclass(frozen=True)
class Surface:
    """Constant-curvature surface; eigenvalues (scalar/2, scalar/2)."""

    scalar: float


@dataclass(frozen=True)
class Sphere:
    """Round two-sphere of the given radius; scalar = 2 / radius^2."""

    radius: float


@dataclass(frozen=True)
class Warped:
    """Periodic warped circle bundle over a 4-dim Einstein base; n = 5."""

    n: int
    f0: float


@dataclass(frozen=True)
class Product:
    factors: tuple["ManifoldSpec", ...]


ManifoldSpec = Union[Einstein, Surface, Sphere, Warped, Product]


def _count_warped(spec):
    if isinstance(spec, Warped):
        return 1
    if isinstance(spec, Product):
        return sum(_count_warped(f) for f in spec.factors)
    return 0


def realize(spec, warp_tol=1e-10):
    """Produce the RicciProfile of a spec; raises on invalid parameters.

    The warped factor's minima are exact (warp.warp_extremals); warp_tol
    is validated but changes no value. The profile still carries the
    loose ODE tolerance class, as integrated data did.
    """
    check_tol(warp_tol)
    if isinstance(spec, Einstein):
        mean = spec.scalar / spec.n
        return make_profile(spec.n, spec.scalar, mean, spec.scalar * mean,
                            (mean,) * spec.n)
    if isinstance(spec, Surface):
        half = spec.scalar / 2.0
        return make_profile(2, spec.scalar, half, 2.0 * half * half, (half, half))
    if isinstance(spec, Sphere):
        if spec.radius <= 0.0:
            raise ParameterRange(f"sphere radius must be positive, got {spec.radius}")
        return realize(Surface(2.0 / spec.radius**2))
    if isinstance(spec, Warped):
        if spec.n != 5:
            raise DimensionError(
                f"warped curvature data exists for n = 5 only, got n = {spec.n}")
        if not 0.0 < spec.f0 <= 1.0:
            raise ParameterRange(f"warped f0 must lie in (0, 1], got {spec.f0}")
        ext = warp_extremals(5, spec.f0, warp_tol)
        return make_profile(5, WARP_SCALAR, ext.kappa0, ext.ric_norm_sq_min,
                            ode_derived=True)
    if isinstance(spec, Product):
        if len(spec.factors) < 2:
            raise CompositionError("a product needs at least two factors")
        if _count_warped(spec) > 1:
            raise CompositionError(
                "at most one warped factor is allowed: the curvature minima "
                "only add exactly when a single factor varies")
        parts = [realize(f, warp_tol) for f in spec.factors]
        n = sum(p.n for p in parts)
        scalar = sum(p.scalar for p in parts)
        kappa0 = min(p.kappa0 for p in parts)
        ric = sum(p.ric_norm_sq_min for p in parts)
        eigs = None
        if all(p.eigenvalues is not None for p in parts):
            eigs = [e for p in parts for e in p.eigenvalues]
        ode = any(p.rtol == ODE_RTOL for p in parts)
        return make_profile(n, scalar, kappa0, ric, eigs, ode_derived=ode)
    raise TypeError(f"not a manifold spec: {spec!r}")


# --- registry of worked examples -------------------------------------------

EXAMPLES = {
    "t2xs2": (
        Product((Einstein(2, 0.0), Sphere(1.0))),
        "flat torus times unit sphere, n = 4"),
    "s2r-x-hyperbolic": (
        Product((Sphere(1.0), Surface(-2.0))),
        "sphere of radius r times hyperbolic surface, n = 4 (sweep radius)"),
    "m7-sigma": (
        Product((Surface(10.0), Warped(5, 0.1))),
        "surface of scalar 10 times warped circle bundle, n = 7"),
    "m7-zero-scalar": (
        Product((Surface(-16.0 / 5.0), Warped(5, 0.1))),
        "surface tuned so the total scalar curvature vanishes, n = 7"),
    "m7-negative-scalar": (
        Product((Surface(-4.0), Warped(5, 0.1))),
        "surface of scalar -4 times warped circle bundle, n = 7"),
    "warp5": (
        Warped(5, 0.1),
        "warped circle bundle alone, n = 5, f0 = 0.1"),
}


def named_example(name):
    """Look up a registered spec by name."""
    try:
        return EXAMPLES[name][0]
    except KeyError:
        raise UnknownExample(
            f"unknown example '{name}'; known: {', '.join(sorted(EXAMPLES))}") from None


# --- JSON field mapping ----------------------------------------------------

def spec_to_dict(spec):
    if isinstance(spec, Einstein):
        return {"einstein": {"n": spec.n, "scalar": spec.scalar}}
    if isinstance(spec, Surface):
        return {"surface": {"scalar": spec.scalar}}
    if isinstance(spec, Sphere):
        return {"sphere": {"radius": spec.radius}}
    if isinstance(spec, Warped):
        return {"warped": {"n": spec.n, "f0": spec.f0}}
    if isinstance(spec, Product):
        return {"product": [spec_to_dict(f) for f in spec.factors]}
    raise TypeError(f"not a manifold spec: {spec!r}")


def _number(obj, owner, key):
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{owner} field '{key}' must be a number")
    return float(value)


_SPEC_FIELDS = {
    "einstein": ("n", "scalar"),
    "surface": ("scalar",),
    "sphere": ("radius",),
    "warped": ("n", "f0"),
}


def spec_from_dict(data):
    """Parse a spec document; errors name the offending field."""
    if not isinstance(data, dict) or len(data) != 1:
        raise ValueError("spec document must be an object with exactly one "
                         "of: product, einstein, surface, sphere, warped")
    (kind, body), = data.items()
    if kind == "product":
        if not isinstance(body, list):
            raise ValueError("spec field 'product' must be a list of specs")
        if len(body) < 2:
            raise ValueError("spec field 'product' needs at least two factors")
        return Product(tuple(spec_from_dict(item) for item in body))
    if kind not in _SPEC_FIELDS:
        raise ValueError(f"unknown spec kind '{kind}'")
    if not isinstance(body, dict):
        raise ValueError(f"spec field '{kind}' must be an object")
    unknown = set(body) - set(_SPEC_FIELDS[kind])
    if unknown:
        raise ValueError(f"unknown {kind} field '{sorted(unknown)[0]}'")
    if kind == "einstein":
        n = body.get("n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError("einstein field 'n' must be an integer")
        return Einstein(n, _number(body, "einstein", "scalar"))
    if kind == "surface":
        return Surface(_number(body, "surface", "scalar"))
    if kind == "sphere":
        return Sphere(_number(body, "sphere", "radius"))
    n = body.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("warped field 'n' must be an integer")
    return Warped(n, _number(body, "warped", "f0"))
