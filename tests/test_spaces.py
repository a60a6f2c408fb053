"""Finite spaces, sobriety, maps, pushouts and products."""

import itertools

import pytest

from finitetop.corpus import all_posets, all_spaces
from finitetop.errors import CarrierMismatchError, TopologyError
from finitetop.poset import FinitePoset, poset_isomorphism
from finitetop.spaces import (
    FiniteSpace,
    SpaceMap,
    irreducible_closed_sets,
    is_sober,
    iter_continuous_maps,
    product_spaces,
    pushout_spaces,
    space_from_preorder,
    spaces_homeomorphic,
)
from finitetop.spatial import omega, pt

from conftest import (
    chain_poset,
    discrete_space,
    empty_space,
    indiscrete_space,
    point_space,
    sierpinski,
)


def test_space_requires_empty_open():
    with pytest.raises(TopologyError):
        FiniteSpace(("a",), (1,))


def test_space_requires_full_open():
    with pytest.raises(TopologyError):
        FiniteSpace(("a", "b"), (0, 1, 2))


def test_space_requires_closure_under_intersection():
    with pytest.raises(TopologyError):
        FiniteSpace(("a", "b", "c"), (0, 3, 6, 7))


def test_space_requires_sorted_unique_points():
    with pytest.raises(TopologyError):
        FiniteSpace(("b", "a"), (0, 3))
    with pytest.raises(TopologyError):
        FiniteSpace(("a", "a"), (0, 3))


def test_from_sets_builds_sierpinski():
    s = FiniteSpace.from_sets(["x", "y"], [[], ["y"], ["x", "y"]])
    assert s == sierpinski()
    assert s.is_t0
    assert not s.is_discrete


def test_irreducible_closed_sets_discrete():
    d2 = discrete_space(["a", "b"])
    assert sorted(irreducible_closed_sets(d2)) == [1, 2]


def test_irreducible_closed_sets_sierpinski():
    s = sierpinski()
    assert sorted(irreducible_closed_sets(s)) == [1, 3]


def test_irreducible_closed_sets_indiscrete():
    i2 = indiscrete_space(["a", "b"])
    assert list(irreducible_closed_sets(i2)) == [3]


def test_is_sober_examples():
    assert is_sober(point_space())
    assert is_sober(sierpinski())
    assert is_sober(discrete_space(["a", "b", "c"]))
    assert not is_sober(indiscrete_space(["a", "b"]))


def test_soberify_fixes_sierpinski():
    """The sobrification pt(omega(X)) of a sober space is the space itself."""
    s = sierpinski()
    assert spaces_homeomorphic(pt(omega(s)), s) is not None


def test_soberify_collapses_indiscrete():
    assert pt(omega(indiscrete_space(["a", "b"]))).n == 1


def test_soberify_fixes_discrete():
    d = discrete_space(["a", "b", "c"])
    assert spaces_homeomorphic(pt(omega(d)), d) is not None


def test_finite_t0_iff_sober_exhaustive():
    for space in all_spaces(4):
        assert space.is_t0 == is_sober(space)


def test_alexandrov_round_trip():
    for p in all_posets(4):
        space = space_from_preorder(p.labels, p.up)
        assert space.is_t0
        assert poset_isomorphism(FinitePoset(space.points, space.spec_up), p) is not None


def test_space_from_preorder_collapses_nothing_on_posets():
    c3 = chain_poset(3)
    space = space_from_preorder(c3.labels, c3.up)
    upsets = FiniteSpace(c3.labels, [c3.full ^ m for m in c3.downsets().masks])
    assert spaces_homeomorphic(space, upsets) is not None


def test_continuous_map_counts():
    s = sierpinski()
    d2 = discrete_space(["a", "b"])
    i2 = indiscrete_space(["a", "b"])
    assert len(list(iter_continuous_maps(s, s))) == 3
    assert len(list(iter_continuous_maps(d2, d2))) == 4
    assert len(list(iter_continuous_maps(i2, i2))) == 4
    assert len(list(iter_continuous_maps(s, d2))) == 2
    assert len(list(iter_continuous_maps(d2, s))) == 4


def test_continuity_is_validated():
    s = sierpinski()
    d2 = discrete_space(["x", "y"])
    with pytest.raises(TopologyError):
        SpaceMap(s, d2, (0, 1))


def test_map_composition_and_masks():
    s = sierpinski()
    maps = list(iter_continuous_maps(s, s))
    for f, g in itertools.product(maps, repeat=2):
        h = f.then(g)
        assert h.mapping == tuple(g.mapping[v] for v in f.mapping)
    f = maps[0]
    assert f.image_mask(0) == 0
    assert f.preimage_mask(s.full) == s.full


def test_product_of_sierpinski_squares():
    s = sierpinski()
    prod, px, py = product_spaces(s, s)
    assert prod.n == 4
    assert len(prod.opens) == 6
    for i in range(prod.n):
        assert s.points[px.mapping[i]] in prod.points[i]
        assert s.points[py.mapping[i]] in prod.points[i]


def test_product_with_point_is_identity_shaped():
    s = sierpinski()
    prod, px, _ = product_spaces(s, point_space())
    assert spaces_homeomorphic(prod, s) is not None


def test_product_universal_property_small():
    s = sierpinski()
    d2 = discrete_space(["a", "b"])
    prod, px, py = product_spaces(s, d2)
    for z in (s, d2):
        for u in iter_continuous_maps(z, s):
            for v in iter_continuous_maps(z, d2):
                mediators = [
                    w
                    for w in iter_continuous_maps(z, prod)
                    if w.then(px) == u and w.then(py) == v
                ]
                assert len(mediators) == 1


def test_pushout_identity_span():
    s = sierpinski()
    ident = SpaceMap(s, s, (0, 1))
    out, inj_b, inj_c = pushout_spaces(ident, ident)
    assert spaces_homeomorphic(out, s) is not None
    assert inj_b.mapping == inj_c.mapping


def test_pushout_wedge_of_two_sierpinski():
    s = sierpinski()
    pt = point_space()
    to_closed = SpaceMap(pt, s, (0,))
    out, inj_b, inj_c = pushout_spaces(to_closed, to_closed)
    assert out.n == 3
    assert inj_b.mapping[0] == inj_c.mapping[0]
    assert inj_b.mapping[1] != inj_c.mapping[1]


def test_pushout_universal_property_small():
    s = sierpinski()
    pt = point_space()
    f = SpaceMap(pt, s, (0,))
    out, inj_b, inj_c = pushout_spaces(f, f)
    for u in iter_continuous_maps(s, s):
        for v in iter_continuous_maps(s, s):
            if f.then(u) != f.then(v):
                continue
            mediators = [
                w
                for w in iter_continuous_maps(out, s)
                if inj_b.then(w) == u and inj_c.then(w) == v
            ]
            assert len(mediators) == 1


def test_homeomorphic_is_an_iso_relation():
    s = sierpinski()
    relabeled = FiniteSpace(("u", "v"), (0, 2, 3))
    iso = spaces_homeomorphic(s, relabeled)
    assert iso is not None
    assert spaces_homeomorphic(s, discrete_space(["a", "b"])) is None
    assert spaces_homeomorphic(empty_space(), empty_space()) is not None


def test_space_counts_frozen():
    assert len(all_spaces(2)) == 5
    assert len(all_spaces(3)) == 14


def test_space_map_mismatches_raise():
    s, p = sierpinski(), point_space()
    with pytest.raises(CarrierMismatchError):
        SpaceMap(s, p, [0])
    with pytest.raises(CarrierMismatchError):
        SpaceMap(s, p, [0, 0]).then(SpaceMap(s, s, [0, 1]))
