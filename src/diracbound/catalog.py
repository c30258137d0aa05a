"""Constructors for the worked example manifolds and their profiles.

Specs are small declarative trees: Einstein factors, constant-curvature
surfaces, round spheres, the n = 5 warped circle bundle (its minima in
closed form), and products. realize() turns a spec into a validated
RicciProfile in the exact tolerance class. Scalar curvature and the two
curvature minima add across product factors; this is exact because at
most one factor (the warped one) is allowed to vary.

Einstein factors and their products also list their Ricci eigenvalues,
exact by construction, so make_profile does not check them.

realize_columns is realize over a one-parameter family, as `sweep`
runs it: factors without the varied leaf are realized once, and the
varied leaf and the products above it are computed as arrays over a
block of parameter values, with the same rounding as realize.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from typing import Union

import numpy as np

from .errors import (CompositionError, DimensionError, DiracBoundError,
                     ParameterRange, UnknownExample)
from .profile import make_profile, make_profile_columns, pow2
from .warp import WARP_SCALAR, warp_extremals

# an Einstein factor lists its n eigenvalues, 8 bytes each
MAX_EINSTEIN_DIM = 10**6


def _einstein_profile(n, scalar):
    """Profile of a factor whose n Ricci eigenvalues all equal scalar / n."""
    mean = scalar / n
    return replace(make_profile(n, scalar, mean, scalar * mean),
                   eigenvalues=(mean,) * n)


def _einstein_columns(n, scalar):
    """_einstein_profile over a column of scalars, without eigenvalues."""
    mean = scalar / n
    return make_profile_columns(n, scalar, mean, scalar * mean)


@dataclass(frozen=True)
class Einstein:
    """Einstein factor: every Ricci eigenvalue equals scalar / n."""

    n: int
    scalar: float

    def _profile(self):
        if self.n > MAX_EINSTEIN_DIM:
            raise ParameterRange(f"einstein field 'n' must be at most "
                                 f"{MAX_EINSTEIN_DIM}, got {self.n}")
        return _einstein_profile(self.n, self.scalar)


@dataclass(frozen=True)
class Surface:
    """Constant-curvature surface; eigenvalues (scalar/2, scalar/2)."""

    scalar: float

    def _profile(self):
        return _einstein_profile(2, self.scalar)

    def _columns(self, name, values):
        return _einstein_columns(2, values)


@dataclass(frozen=True)
class Sphere:
    """Round two-sphere of the given radius; scalar = 2 / radius^2."""

    radius: float

    def _profile(self):
        # the range keeps the scalar 2 / radius^2 and its square normal floats
        if not 1e-75 <= self.radius <= 1e75:
            raise ParameterRange(
                f"sphere radius must lie in [1e-75, 1e75], got {self.radius}")
        return _einstein_profile(2, 2.0 / self.radius**2)

    def _columns(self, name, values):
        inside = (1e-75 <= values) & (values <= 1e75)
        return _einstein_columns(2, 2.0 / pow2(np.where(inside, values, np.nan)))


@dataclass(frozen=True)
class Warped:
    """Periodic warped circle bundle over a 4-dim Einstein base; n = 5."""

    n: int
    f0: float

    def _extremals(self):
        if self.n != 5:
            raise DimensionError(
                f"warped curvature data exists for n = 5 only, got n = {self.n}")
        if not 0.0 < self.f0 <= 1.0:
            raise ParameterRange(f"warped f0 must lie in (0, 1], got {self.f0}")
        return warp_extremals(5, self.f0)

    def _profile(self):
        ext = self._extremals()
        return make_profile(5, WARP_SCALAR, ext.kappa0, ext.ric_norm_sq_min)

    def _columns(self, name, values):
        # one cached closed form per value; NaN where it raises
        extremals = np.full((len(values), 2), np.nan)
        for i, value in enumerate(values.tolist()):
            try:
                ext = replace(self, **{name: value})._extremals()
            except DiracBoundError:
                continue
            extremals[i] = ext.kappa0, ext.ric_norm_sq_min
        return make_profile_columns(5, WARP_SCALAR, extremals[:, 0],
                                    extremals[:, 1])


@dataclass(frozen=True)
class Product:
    factors: tuple["ManifoldSpec", ...]

    def _check(self):
        if len(self.factors) < 2:
            raise CompositionError("a product needs at least two factors")
        if sum(isinstance(leaf, Warped) for leaf in leaves(self)) > 1:
            raise CompositionError(
                "at most one warped factor is allowed: the curvature minima "
                "only add exactly when a single factor varies")

    def _profile(self):
        self._check()
        parts = [realize(f) for f in self.factors]
        profile = make_profile(*_product_fields(parts))
        if any(p.eigenvalues is None for p in parts):
            return profile
        return replace(profile, eigenvalues=tuple(sorted(
            e for p in parts for e in p.eigenvalues)))


def _product_fields(parts):
    """n, scalar, kappa0 and |Ric|^2 of a product of profiles or profile
    columns: sums from int 0 and the first least kappa0, in factor order."""
    kappa0 = parts[0].kappa0
    for p in parts[1:]:
        kappa0 = np.where(p.kappa0 < kappa0, p.kappa0, kappa0)
    return (sum(p.n for p in parts), sum(p.scalar for p in parts), kappa0,
            sum(p.ric_norm_sq_min for p in parts))


ManifoldSpec = Union[Einstein, Surface, Sphere, Warped, Product]

# JSON key (the lower-case class name) -> dataclass: the one place that
# defines a spec kind. Its fields are its JSON fields (int or float); its
# _profile method gives its curvature.
SPEC_KINDS = {cls.__name__.lower(): cls
              for cls in (Product, Einstein, Surface, Sphere, Warped)}
_KIND_OF = {cls: kind for kind, cls in SPEC_KINDS.items()}


def _kind(spec):
    try:
        return _KIND_OF[type(spec)]
    except KeyError:
        raise TypeError(f"not a manifold spec: {spec!r}") from None


def leaves(spec):
    """The non-product factors of a spec tree, depth first."""
    if not isinstance(spec, Product):
        return [spec]
    return [leaf for factor in spec.factors for leaf in leaves(factor)]


def realize(spec):
    """Produce the RicciProfile of a spec, in the EXACT_RTOL class;
    raises on invalid parameters."""
    _kind(spec)
    return spec._profile()


def _column_plan(spec, cls, name):
    """values -> (profile, flagged) of one spec node. Nodes without the
    varied leaf are realized here, once; a product flags a row where it
    or any factor does."""
    if isinstance(spec, cls):
        return lambda values: spec._columns(name, values)
    if not any(isinstance(leaf, cls) for leaf in leaves(spec)):
        profile = realize(spec)
        return lambda values: (profile, False)
    plans = [_column_plan(f, cls, name) for f in spec.factors]

    def product(values):
        parts, flags = zip(*(plan(values) for plan in plans))
        profile, flagged = make_profile_columns(*_product_fields(parts))
        for flag in flags:
            flagged = flagged | flag
        return profile, flagged
    return product


def realize_columns(spec, cls, name):
    """realize over a family: values -> (profile, flagged).

    The family sets field `name` of the one `cls` leaf of spec, and
    realize must accept one of its members. The profile's number fields
    are arrays; flagged marks the rows where realize raises, and every
    other row equals realize's profile bit for bit.
    """
    plan = _column_plan(spec, cls, name)

    def block(values):
        with np.errstate(all="ignore"):
            return plan(np.asarray(values, dtype=float))
    return block


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
    kind = _kind(spec)
    if kind == "product":
        return {kind: [spec_to_dict(f) for f in spec.factors]}
    return {kind: {f.name: getattr(spec, f.name) for f in fields(spec)}}


# dataclass field type -> (accepted JSON types, what errors ask for, conversion)
_NUMBERS = {"int": (int, "an integer", int), "float": ((int, float), "a number", float)}


def _field_value(body, kind, field):
    types, wanted, convert = _NUMBERS[field.type]
    value = body.get(field.name)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{kind} field '{field.name}' must be {wanted}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, an int beyond floats
        raise ValueError(f"{kind} field '{field.name}' must be finite")
    return convert(value)


def spec_from_dict(data):
    """Parse a spec document; errors name the offending field."""
    if not isinstance(data, dict) or len(data) != 1:
        raise ValueError("spec document must be an object with exactly one "
                         f"of: {', '.join(SPEC_KINDS)}")
    (kind, body), = data.items()
    if kind == "product":
        if not isinstance(body, list):
            raise ValueError("spec field 'product' must be a list of specs")
        if len(body) < 2:
            raise ValueError("spec field 'product' needs at least two factors")
        return Product(tuple(spec_from_dict(item) for item in body))
    if kind not in SPEC_KINDS:
        raise ValueError(f"unknown spec kind '{kind}'")
    if not isinstance(body, dict):
        raise ValueError(f"spec field '{kind}' must be an object")
    cls = SPEC_KINDS[kind]
    unknown = set(body) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {kind} field '{sorted(unknown)[0]}'")
    return cls(**{f.name: _field_value(body, kind, f) for f in fields(cls)})
