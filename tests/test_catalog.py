"""Spec trees, product composition, and the named example registry."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbound import (EXAMPLES, CompositionError, DimensionError, Einstein,
                        ParameterRange, Product, Sphere, Surface,
                        UnknownExample, Warped, named_example, realize,
                        spec_from_dict, spec_to_dict)
from diracbound import catalog
from sweep_oracle import outcome, reference_realize


def test_einstein_factor():
    p = realize(Einstein(4, 12.0))
    assert p.eigenvalues == (3.0, 3.0, 3.0, 3.0)
    assert p.ric_norm_sq_min == 36.0


def test_sphere_is_surface():
    assert realize(Sphere(1.0)) == realize(Surface(2.0))
    p = realize(Sphere(0.5))
    assert p.scalar == pytest.approx(8.0)
    with pytest.raises(ParameterRange):
        realize(Sphere(0.0))
    # inf is flat, 1e-200 squares to 0, 1e200 overflows, and below 1e-75
    # |Ric|^2 = 2 / radius^4 is not finite
    for radius in (math.inf, math.nan, -1.0, 1e-200, 1e200, 1e-100):
        with pytest.raises(ParameterRange, match="sphere radius"):
            realize(Sphere(radius))
    for radius in (1e-75, 1e75):
        p = realize(Sphere(radius))
        assert p.scalar == 2.0 / (radius * radius) and 0.0 < p.ric_norm_sq_min < math.inf


def test_product_composition():
    p = realize(named_example("t2xs2"))
    assert (p.n, p.scalar, p.kappa0, p.ric_norm_sq_min) == (4, 2.0, 0.0, 2.0)
    assert p.eigenvalues == (0.0, 0.0, 1.0, 1.0)


def test_product_arity_gate():
    with pytest.raises(CompositionError):
        realize(Product((Sphere(1.0),)))


def test_single_warped_factor_only():
    with pytest.raises(CompositionError):
        realize(Product((Warped(5, 0.1), Warped(5, 0.2))))
    nested = Product((Surface(1.0), Product((Warped(5, 0.1), Warped(5, 0.2)))))
    with pytest.raises(CompositionError):
        realize(nested)


def test_warped_profile():
    p = realize(Warped(5, 0.1))
    assert p.scalar == pytest.approx(3.2, rel=1e-15)
    assert p.kappa0 == pytest.approx(-8.4953175, abs=1e-6)
    assert p.ric_norm_sq_min == pytest.approx(2.0489334, abs=1e-6)
    assert p.eigenvalues is None


def test_large_einstein_factor(monkeypatch):
    # a naive sum of 10^5 copies of 1e-5 misses 1.0 by 1.9e-12
    p = realize(Einstein(100000, 1.0))
    assert (p.n, p.scalar, p.kappa0) == (100000, 1.0, 1e-5)

    def forbidden(*args):
        raise AssertionError("the eigenvalue tuple must not be built")

    monkeypatch.setattr(catalog, "_eigenvalues", forbidden)
    for n in (catalog.MAX_EINSTEIN_DIM + 1, 10**12):
        with pytest.raises(ParameterRange, match="einstein field 'n'"):
            realize(Einstein(n, 1.0))


def test_warped_gates():
    with pytest.raises(DimensionError):
        realize(Warped(6, 0.1))
    for f0 in (0.0, -1.0, 1.5):
        with pytest.raises(ParameterRange):
            realize(Warped(5, f0))


def test_product_with_warped_is_exact_class():
    p = realize(named_example("m7-sigma"))
    assert p.n == 7
    assert p.eigenvalues is None  # one factor has no pinned spectrum


def test_zero_scalar_example_cancels_exactly():
    assert realize(named_example("m7-zero-scalar")).scalar == 0.0


def test_every_example_realizes():
    for name in EXAMPLES:
        p = realize(named_example(name))
        assert p.n >= 2


def test_unknown_example():
    with pytest.raises(UnknownExample, match="t2xs2"):
        named_example("nope")


def test_spec_dict_round_trip():
    for name, (spec, _) in EXAMPLES.items():
        assert spec_from_dict(spec_to_dict(spec)) == spec


@pytest.mark.parametrize("doc,pattern", [
    ("nope", "exactly one"),
    ({"einstein": {"n": 4, "scalar": 1.0}, "surface": {"scalar": 1.0}},
     "exactly one"),
    ({"flat": {}}, "unknown spec kind"),
    ({"product": {"factors": []}}, "list"),
    ({"product": [{"sphere": {"radius": 1.0}}]}, "two factors"),
    ({"einstein": {"n": 4.5, "scalar": 1.0}}, "integer"),
    ({"sphere": {"radius": "big"}}, "number"),
    ({"sphere": {"radius": 1.0, "color": "red"}}, "color"),
    ({"warped": {"n": 5}}, "f0"),
    (json.loads('{"einstein": {"n": 4, "scalar": Infinity}}'),
     "einstein field 'scalar' must be finite"),
    (json.loads('{"sphere": {"radius": NaN}}'), "sphere field 'radius' must be finite"),
    (json.loads('{"warped": {"n": 5, "f0": -Infinity}}'),
     "warped field 'f0' must be finite"),
    ({"surface": {"scalar": 10**400}}, "surface field 'scalar' must be finite"),
])
def test_spec_from_dict_diagnostics(doc, pattern):
    with pytest.raises(ValueError, match=pattern):
        spec_from_dict(doc)


def _nested(depth):
    """Products nested depth deep, each of a surface and the one inside."""
    spec = {"surface": {"scalar": 1.0}}
    for _ in range(depth):
        spec = {"product": [spec, {"surface": {"scalar": 1.0}}]}
    return spec


def test_spec_products_nest_at_most_32_deep():
    spec = spec_from_dict(_nested(catalog.MAX_SPEC_DEPTH))
    assert realize(spec).n == 2 * (catalog.MAX_SPEC_DEPTH + 1)
    # far past the interpreter's recursion limit, the cap still answers
    for depth in (catalog.MAX_SPEC_DEPTH + 1, 5000):
        with pytest.raises(ValueError, match="nest more than 32 deep"):
            spec_from_dict(_nested(depth))


def test_registry_catalog_is_schema_valid(schema_validator):
    for name, (spec, _) in EXAMPLES.items():
        schema_validator("manifold_spec.v1", spec_to_dict(spec))


# every spec tree inside manifold_spec.v1: leaves of the four kinds with
# their schema bounds, products of two or more factors, nested
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WARPED = st.builds(Warped, st.just(5), st.floats(min_value=0.0, max_value=1.0,
                                                  exclude_min=True))
_LEAVES = st.one_of(
    st.builds(Einstein, st.integers(min_value=2, max_value=64), _FINITE),
    st.builds(Surface, _FINITE),
    st.builds(Sphere, st.floats(min_value=0.0, exclude_min=True,
                                allow_infinity=False)),
    _WARPED,
)
_SPECS = st.recursive(
    _LEAVES,
    lambda factors: st.lists(factors, min_size=2, max_size=4).map(
        lambda items: Product(tuple(items))),
    max_leaves=12)


def _moderate(leaf):
    """A leaf whose curvature, summed over 12 leaves, stays far from overflow."""
    if isinstance(leaf, Sphere):
        return 1e-50 <= leaf.radius <= 1e50
    return abs(leaf.scalar) <= 1e100


@given(_SPECS, _WARPED)
def test_spec_tree_round_trips_and_validates(schema_validator, spec, warped):
    doc = spec_to_dict(spec)
    schema_validator("manifold_spec.v1", doc)
    assert spec_from_dict(doc) == spec
    assert spec_from_dict(json.loads(json.dumps(doc))) == spec
    # the warped minima are closed forms, exact in any product
    others = [leaf for leaf in catalog.leaves(spec)
              if not isinstance(leaf, Warped) and _moderate(leaf)]
    # every f0 in (0, 1] realizes, also where V(f0) underflows to 0
    tree = Product((*others, warped)) if others else warped
    assert realize(tree).n == 5 + sum(getattr(leaf, "n", 2) for leaf in others)


# leaves that break a range, and products of one factor; an Einstein
# factor of n <= 0 is left out, where the reference divides by zero
_BAD_LEAVES = st.one_of(
    st.builds(Einstein, st.sampled_from([1, 10**6 + 1, 10**12]), _FINITE),
    st.builds(Sphere, st.sampled_from([1e-76, math.nextafter(1e-75, 0.0), 1e-75, 1e75,
                                       math.nextafter(1e75, math.inf), 0.0, -1.0,
                                       math.inf, math.nan])),
    st.builds(Warped, st.sampled_from([4, 5, 6]),
              st.sampled_from([0.0, -0.5, 5e-324, 1.0, math.nextafter(1.0, 2.0),
                               math.nan])),
)
_ANY_SPECS = st.recursive(
    _LEAVES | _BAD_LEAVES,
    lambda factors: st.lists(factors, min_size=1, max_size=4).map(
        lambda items: Product(tuple(items))),
    max_leaves=12)


@settings(max_examples=300)
@given(_SPECS | _ANY_SPECS)
def test_realize_matches_float_reference(spec):
    # the same profile, bit for bit, or the same exception and message
    assert outcome(realize, spec) == outcome(reference_realize, spec)


def test_product_whose_scalars_cancel_realizes():
    # the eigenvalues sum to 3.6e-12, the scalars to exactly 0
    p = realize(Product((Einstein(7, 1e5), Surface(-1e5))))
    assert (p.n, p.scalar, p.kappa0) == (9, 0.0, -5e4)
    assert p.eigenvalues == (-5e4,) * 2 + (1e5 / 7,) * 7


_FREE_LEAVES = st.one_of(
    st.builds(Einstein, st.integers(2, 8), st.floats(-1e6, 1e6)),
    st.builds(Surface, st.floats(-1e6, 1e6)),
    st.builds(Sphere, st.floats(1e-3, 1e3)))


@given(st.lists(_FREE_LEAVES, min_size=1, max_size=3), st.integers(2, 8),
       st.floats(-1e-6, 1e-6))
def test_products_with_nearly_cancelling_scalars_realize(free, n, residue):
    # the last factor cancels the scalar of the others up to residue
    rest = sum(realize(leaf).scalar for leaf in free)
    last = Surface(residue - rest) if n == 2 else Einstein(n, residue - rest)
    spec = Product((*free, last))
    parts = [realize(factor) for factor in spec.factors]
    p = realize(spec)
    assert p.scalar == sum(part.scalar for part in parts)
    assert p.eigenvalues == tuple(sorted(e for part in parts for e in part.eigenvalues))
