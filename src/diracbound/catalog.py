"""Constructors for the worked example manifolds and their profiles.

Specs are small declarative trees: Einstein factors, constant-curvature
surfaces, round spheres, the n = 5 warped circle bundle (its minima in
closed form), and products. Scalar curvature and the two curvature
minima add across product factors; this is exact because at most one
factor (the warped one) is allowed to vary.

A leaf kind defines its curvature only as columns over a block of
values of its fields (`_columns`); a product merges its factors'
columns. Every kind states its ranges as a rule table (`_rules`, as in
profile), and one walk computes the columns and the rules broken.
realize walks a block of one and raises the first; realize_columns
walks a block of values of one field, as `sweep` does.

Einstein factors and their products also list their Ricci eigenvalues,
exact by construction; realize builds the list once every rule holds,
so make_profile does not check it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import Union

import numpy as np

from .errors import (CompositionError, DimensionError, MalformedDocument,
                     ParameterRange, UnknownExample)
from .profile import (MAX_EINSTEIN_DIM, as_float, as_integer, broken, failing_rows,
                      profile_columns, raise_first, row_of_one)
from .warp import WARP_SCALAR, warp_extremals

# products nested deeper are refused: every spec walk recurses per level
MAX_SPEC_DEPTH = 32


def _einstein(n, scalar):
    """Columns of a factor whose n Ricci eigenvalues all equal scalar / n:
    n, scalar, kappa0, |Ric|^2 and the spectrum, (eigenvalue, count)."""
    mean = scalar / as_float(n)   # an n beyond floats breaks a rule
    return n, scalar, mean, scalar * mean, ((mean, n),)


@dataclass(frozen=True)
class Einstein:
    """Einstein factor: every Ricci eigenvalue equals scalar / n."""

    n: int
    scalar: float

    _rules = ((lambda f: f["n"] > MAX_EINSTEIN_DIM, ParameterRange,
               f"einstein field 'n' must be at most {MAX_EINSTEIN_DIM}, got {{n}}"),)
    _columns = staticmethod(_einstein)


@dataclass(frozen=True)
class Surface:
    """Constant-curvature surface; eigenvalues (scalar/2, scalar/2)."""

    scalar: float

    _rules = ()

    @staticmethod
    def _columns(scalar):
        return _einstein(2, scalar)


@dataclass(frozen=True)
class Sphere:
    """Round two-sphere of the given radius; scalar = 2 / radius^2."""

    radius: float

    # the range keeps the scalar 2 / radius^2 and its square normal floats
    _rules = ((lambda f: ~((1e-75 <= f["radius"]) & (f["radius"] <= 1e75)),
               ParameterRange, "sphere radius must lie in [1e-75, 1e75], got {radius}"),)

    @staticmethod
    def _columns(radius):
        return _einstein(2, 2.0 / (radius * radius))


@dataclass(frozen=True)
class Warped:
    """Periodic warped circle bundle over a 4-dim Einstein base; n = 5."""

    n: int
    f0: float

    _rules = (
        (lambda f: f["n"] != 5, DimensionError,
         "warped curvature data exists for n = 5 only, got n = {n}"),
        (lambda f: ~((0.0 < f["f0"]) & (f["f0"] <= 1.0)), ParameterRange,
         "warped f0 must lie in (0, 1], got {f0}"),
    )

    @staticmethod
    def _columns(n, f0):
        # one closed form per value; NaN in the rows a rule rejects
        extremals = np.full((len(f0), 2), np.nan)
        for i, value in enumerate(f0.tolist()):
            if not math.isnan(value):
                ext = warp_extremals(value)
                extremals[i] = ext.kappa0, ext.ric_norm_sq_min
        return 5, WARP_SCALAR, extremals[:, 0], extremals[:, 1], None


@dataclass(frozen=True)
class Product:
    factors: tuple["ManifoldSpec", ...]

    # over the product's factor count and its warped leaves
    _rules = (
        (lambda p: p["factors"] < 2, CompositionError,
         "a product needs at least two factors"),
        (lambda p: p["warped"] > 1, CompositionError,
         "at most one warped factor is allowed: the curvature minima "
         "only add exactly when a single factor varies"),
    )


ManifoldSpec = Union[Einstein, Surface, Sphere, Warped, Product]

# JSON key (the lower-case class name) -> dataclass: the one place that
# defines a spec kind. Its fields are its JSON fields (int or float); its
# _rules and _columns give its curvature.
SPEC_KINDS = {cls.__name__.lower(): cls
              for cls in (Product, Einstein, Surface, Sphere, Warped)}
_KIND_OF = {cls: kind for kind, cls in SPEC_KINDS.items()}


def _kind(spec):
    try:
        return _KIND_OF[type(spec)]
    except KeyError:
        raise MalformedDocument(f"not a manifold spec: {spec!r}") from None


def leaves(spec):
    """The non-product factors of a spec tree, depth first."""
    if not isinstance(spec, Product):
        return [spec]
    return [leaf for factor in spec.factors for leaf in leaves(factor)]


@np.errstate(all="ignore")
def _block(spec, vary=None):
    """(profile, failures, spectrum) of a spec tree over a block of rows.

    vary = (cls, name, values) sets float field `name` of the `cls` leaf
    to a column of values; every other float field is a block of one.
    failures (profile.broken's) come in the order a row meets them: a
    leaf's rules, whose rows reach its _columns as NaN, then the profile
    rules; a product's own rules, its factors' in order, then the profile
    rules on their merge. spectrum lists (eigenvalue, count) pairs if
    every leaf lists its eigenvalues, else it is None.
    """
    if _kind(spec) == "product":
        failures = broken(spec._rules, {
            "factors": len(spec.factors),
            "warped": sum(isinstance(leaf, Warped) for leaf in leaves(spec))})
        blocks = [_block(factor, vary) for factor in spec.factors]
        failures += [failure for _, more, _ in blocks for failure in more]
        parts, spectra = [b[0] for b in blocks], [b[2] for b in blocks]
        # sums from int 0, and the first least kappa0; the rows where a
        # factor's kappa0 is not finite have broken its rules already
        kappa0 = math.inf
        for p in parts:
            kappa0 = np.where(p.kappa0 < kappa0, p.kappa0, kappa0)
        profile, more = profile_columns(
            sum(p.n for p in parts), sum(p.scalar for p in parts), kappa0,
            sum(p.ric_norm_sq_min for p in parts))
        spectrum = None if None in spectra else sum(spectra, ())
        return profile, failures + more, spectrum
    values = {f.name: as_integer(getattr(spec, f.name), f"{_kind(spec)} field '{f.name}'",
                                 DimensionError) if f.type == "int"
              else np.array([as_float(getattr(spec, f.name))]) for f in fields(spec)}
    if vary is not None and isinstance(spec, vary[0]):
        values[vary[1]] = vary[2]
    failures = broken(spec._rules, values)
    bad = failing_rows(failures)
    *columns, spectrum = spec._columns(**{
        key: np.where(bad, np.nan, value) if isinstance(value, np.ndarray)
        else value for key, value in values.items()})
    profile, more = profile_columns(*columns)
    return profile, failures + more, spectrum


def _eigenvalues(spectrum):
    """The sorted eigenvalue list of a block of one's (eigenvalue, count)."""
    return tuple(sorted(e for value, count in spectrum
                        for e in repeat(value.item(), count)))


def realize(spec):
    """The RicciProfile of a spec, with Python numbers in its fields;
    raises the first rule that its parameters break."""
    profile, failures, spectrum = _block(spec)
    raise_first(failures)
    profile = row_of_one(profile)
    if spectrum is None:
        return profile
    return replace(profile, eigenvalues=_eigenvalues(spectrum))


def realize_columns(spec, cls, name):
    """realize over a family: values -> (profile, failures).

    The family sets float field `name` of the one `cls` leaf of spec;
    CompositionError unless cls is a leaf kind with that float field and
    spec holds exactly one cls leaf, as no other binding sets one field.
    The profile's number fields are arrays; profile.raise_first(failures)
    raises what realize raises on the member of the first row that breaks
    one, and every row that breaks none of the failures equals realize's
    profile bit for bit.
    """
    kind = _KIND_OF.get(cls, "product")
    if kind == "product" or name not in [f.name for f in fields(cls) if f.type == "float"]:
        raise CompositionError(f"{cls!r} is no leaf kind with a float field {name!r}")
    sites = sum(isinstance(leaf, cls) for leaf in leaves(spec))
    if sites != 1:
        raise CompositionError(f"{kind} field '{name}' must bind to exactly one "
                               f"{kind} factor of the spec; found {sites}")
    return lambda values: _block(spec, (cls, name, np.asarray(values, dtype=float)))[:2]


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
        raise MalformedDocument(f"{kind} field '{field.name}' must be {wanted}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, an int beyond floats
        raise MalformedDocument(f"{kind} field '{field.name}' must be finite")
    return convert(value)


def spec_from_dict(data):
    """Parse a spec document; errors name the offending field. Products
    nest at most MAX_SPEC_DEPTH deep."""
    return _parse_spec(data, MAX_SPEC_DEPTH)


def _parse_spec(data, levels):
    """spec_from_dict, with `levels` more products allowed inside data."""
    if not isinstance(data, dict) or len(data) != 1:
        raise MalformedDocument("spec document must be an object with exactly one "
                                f"of: {', '.join(SPEC_KINDS)}")
    (kind, body), = data.items()
    if kind == "product":
        if not isinstance(body, list):
            raise MalformedDocument("spec field 'product' must be a list of specs")
        if len(body) < 2:
            raise MalformedDocument("spec field 'product' needs at least two factors")
        if levels == 0:
            raise MalformedDocument(f"spec products nest more than {MAX_SPEC_DEPTH} deep")
        return Product(tuple(_parse_spec(item, levels - 1) for item in body))
    if kind not in SPEC_KINDS:
        raise MalformedDocument(f"unknown spec kind '{kind}'")
    if not isinstance(body, dict):
        raise MalformedDocument(f"spec field '{kind}' must be an object")
    cls = SPEC_KINDS[kind]
    unknown = set(body) - {f.name for f in fields(cls)}
    if unknown:
        raise MalformedDocument(f"unknown {kind} field '{sorted(unknown)[0]}'")
    return cls(**{f.name: _field_value(body, kind, f) for f in fields(cls)})
