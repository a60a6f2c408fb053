"""Finite spaces, sobriety, and the glue lemma for decompositions."""

import itertools

import pytest

from finitetop import (
    CarrierMismatchError,
    FiniteSpace,
    HypothesisError,
    SpaceMap,
    TopologyError,
    alexandrov,
    irreducible_closed_sets,
    is_sober,
    iter_continuous_maps,
    poset_isomorphism,
    product_spaces,
    pushout_spaces,
    sober_glue_check,
    soberify,
    space_from_preorder,
    spaces_homeomorphic,
    specialization_poset,
)
from finitetop.bits import iter_bits
from finitetop.corpus import all_posets, all_spaces

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
    s = sierpinski()
    q, m = soberify(s)
    assert spaces_homeomorphic(q, s) is not None
    assert m.mapping == (0, 1)


def test_soberify_collapses_indiscrete():
    q, m = soberify(indiscrete_space(["a", "b"]))
    assert q.n == 1
    assert m.mapping == (0, 0)


def test_soberify_fixes_discrete():
    d = discrete_space(["a", "b", "c"])
    q, _ = soberify(d)
    assert spaces_homeomorphic(q, d) is not None


def test_finite_t0_iff_sober_exhaustive():
    for space in all_spaces(4):
        q, m = soberify(space)
        assert is_sober(q)
        assert space.is_t0 == (spaces_homeomorphic(q, space) is not None)
        assert space.is_t0 == is_sober(space)
        for u in q.opens:
            assert space.is_open(m.preimage_mask(u))


def test_glue_check_discrete_split():
    d2 = discrete_space(["a", "b"])
    report = sober_glue_check(d2, 0, d2.full)
    assert report.hypotheses_hold
    assert report.x_sober
    assert report.consistent


def test_glue_check_whole_space_as_closed_part():
    s = sierpinski()
    report = sober_glue_check(s, s.full, 0)
    assert report.hypotheses_hold
    assert report.x_sober


def test_glue_check_rejects_non_closed_part():
    s = sierpinski()
    with pytest.raises(HypothesisError):
        sober_glue_check(s, 2, 1)


def test_glue_check_rejects_open_point_in_b():
    s = sierpinski()
    with pytest.raises(HypothesisError):
        sober_glue_check(s, 1, 2)


def test_glue_check_rejects_overlap():
    d2 = discrete_space(["a", "b"])
    with pytest.raises(HypothesisError):
        sober_glue_check(d2, 3, 1)


def _valid_decompositions(space):
    for a_mask in range(1 << space.n):
        b_mask = space.full ^ a_mask
        if not space.is_open(space.full ^ a_mask):
            continue
        if any(space.closure(1 << i) != 1 << i for i in iter_bits(b_mask)):
            continue
        yield a_mask, b_mask


def test_glue_lemma_has_no_small_counterexample():
    cases = 0
    for space in all_spaces(4):
        for a_mask, b_mask in _valid_decompositions(space):
            report = sober_glue_check(space, a_mask, b_mask)
            assert report.consistent
            cases += 1
    assert cases > 50


def test_alexandrov_round_trip():
    for p in all_posets(4):
        space = alexandrov(p)
        assert space.is_t0
        assert poset_isomorphism(specialization_poset(space), p) is not None


def test_specialization_requires_t0():
    with pytest.raises(TopologyError):
        specialization_poset(indiscrete_space(["a", "b"]))


def test_space_from_preorder_collapses_nothing_on_posets():
    c3 = chain_poset(3)
    space = space_from_preorder(c3.labels, c3.up)
    assert spaces_homeomorphic(space, alexandrov(c3)) is not None


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
