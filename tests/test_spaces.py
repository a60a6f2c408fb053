"""Finite spaces, sobriety, maps, pushouts and products."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.bits import iter_bits, popcount
from finitetop.corpus import LABELS, all_posets, all_preorders_labelled, all_spaces
from finitetop.errors import CarrierMismatchError, NotMonotoneError, TopologyError
from finitetop.order import isomorphisms
from finitetop.poset import PreMap, iter_monotone_maps
from finitetop.serialize import parse_structure
from finitetop.spaces import (
    FiniteSpace,
    irreducible_closed_sets,
    is_sober,
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
        FiniteSpace.from_opens(("a",), (1,))


def test_space_requires_full_open():
    with pytest.raises(TopologyError):
        FiniteSpace.from_opens(("a", "b"), (0, 1, 2))


def test_space_requires_closure_under_intersection():
    with pytest.raises(TopologyError):
        FiniteSpace.from_opens(("a", "b", "c"), (0, 3, 6, 7))


def test_space_requires_sorted_unique_points():
    with pytest.raises(TopologyError):
        FiniteSpace.from_opens(("b", "a"), (0, 3))
    with pytest.raises(TopologyError):
        FiniteSpace.from_opens(("a", "a"), (0, 3))


def _pairwise_topology(family):
    """The topology axioms one pair at a time: the oracle of `from_opens`."""
    return all(a | b in family and a & b in family for a in family for b in family)


def test_from_opens_accepts_exactly_the_topologies_on_up_to_four_points():
    """Every family holding the empty set and the carrier, on 0 to 4 points.

    `from_opens` accepts by counting the up-sets of its rows; the pairwise
    scan decides the same on all 16,454 families, and an accepted space
    keeps the family as its opens.
    """
    families = 0
    for n in range(5):
        points = LABELS[:n]
        full = (1 << n) - 1
        middle = range(1, full)
        for keep in range(1 << len(middle)):
            family = {0, full} | {m for k, m in enumerate(middle) if keep >> k & 1}
            try:
                space = FiniteSpace.from_opens(points, family)
            except TopologyError:
                assert not _pairwise_topology(family)
            else:
                assert _pairwise_topology(family)
                assert set(space.opens) == family
            families += 1
    assert families == 16454


def test_from_opens_refuses_an_open_outside_the_carrier():
    """{0, 2} on one point has as many members as the point's up-sets, but 2 is no subset."""
    with pytest.raises(TopologyError, match="^carrier is not open$"):
        FiniteSpace.from_opens(("a",), (0, 2))


def _is_t0(space):
    """Distinct points have distinct smallest opens."""
    return len(set(space.up)) == space.n


def test_from_sets_builds_sierpinski():
    s = parse_structure({"kind": "space", "points": ["y", "x"], "opens": [[], ["y"], ["x", "y"]]})
    assert s == sierpinski()
    assert _is_t0(s)
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
        assert _is_t0(space) == is_sober(space)


def test_alexandrov_round_trip():
    for p in all_posets(4):
        space = space_from_preorder(p.points, p.up)
        assert _is_t0(space)
        assert next(isomorphisms(space.up, p.up), None) is not None


def test_space_from_preorder_collapses_nothing_on_posets():
    c3 = chain_poset(3)
    space = space_from_preorder(c3.points, c3.up)
    upsets = FiniteSpace.from_opens(c3.points, [c3.full ^ m for m in c3.downsets()])
    assert spaces_homeomorphic(space, upsets) is not None


def test_continuous_map_counts():
    s = sierpinski()
    d2 = discrete_space(["a", "b"])
    i2 = indiscrete_space(["a", "b"])
    assert len(list(iter_monotone_maps(s, s))) == 3
    assert len(list(iter_monotone_maps(d2, d2))) == 4
    assert len(list(iter_monotone_maps(i2, i2))) == 4
    assert len(list(iter_monotone_maps(s, d2))) == 2
    assert len(list(iter_monotone_maps(d2, s))) == 4


def test_continuity_is_validated():
    s = sierpinski()
    d2 = discrete_space(["x", "y"])
    with pytest.raises(NotMonotoneError):
        PreMap(s, d2, (0, 1))


def test_map_composition_and_masks():
    s = sierpinski()
    maps = list(iter_monotone_maps(s, s))
    for f, g in itertools.product(maps, repeat=2):
        h = f.then(g)
        assert h.mapping == tuple(g.mapping[v] for v in f.mapping)
    f = maps[0]
    assert f.preimage_mask(0) == 0
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
        for u in iter_monotone_maps(z, s):
            for v in iter_monotone_maps(z, d2):
                mediators = [
                    w
                    for w in iter_monotone_maps(z, prod)
                    if w.then(px) == u and w.then(py) == v
                ]
                assert len(mediators) == 1


def test_pushout_identity_span():
    s = sierpinski()
    ident = PreMap(s, s, (0, 1))
    out, inj_b, inj_c = pushout_spaces(ident, ident)
    assert spaces_homeomorphic(out, s) is not None
    assert inj_b.mapping == inj_c.mapping


def test_rows_built_spaces_take_carriers_over_twenty_points():
    """Building rows is O(n^2), so neither construction caps its carrier."""
    n = 24
    chain = [(1 << n) - (1 << i) for i in range(n)]
    space = space_from_preorder([f"p{i:02d}" for i in range(n)], chain)
    assert space.up == tuple(chain)
    ident = PreMap(space, space, range(n))
    out, _, _ = pushout_spaces(ident, ident)
    assert spaces_homeomorphic(out, space) is not None


def test_pushout_wedge_of_two_sierpinski():
    s = sierpinski()
    pt = point_space()
    to_closed = PreMap(pt, s, (0,))
    out, inj_b, inj_c = pushout_spaces(to_closed, to_closed)
    assert out.n == 3
    assert inj_b.mapping[0] == inj_c.mapping[0]
    assert inj_b.mapping[1] != inj_c.mapping[1]


def test_pushout_universal_property_small():
    """Every span of spaces of at most two points, against every cocone into one."""
    spaces = all_spaces(2)
    cocones = 0
    for a, b, c in itertools.product(spaces, repeat=3):
        for f in iter_monotone_maps(a, b):
            for g in iter_monotone_maps(a, c):
                out, inj_b, inj_c = pushout_spaces(f, g)
                for z in spaces:
                    ws = list(iter_monotone_maps(out, z))
                    for u in iter_monotone_maps(b, z):
                        for v in iter_monotone_maps(c, z):
                            if f.then(u) != g.then(v):
                                continue
                            cocones += 1
                            mediators = [
                                w for w in ws if inj_b.then(w) == u and inj_c.then(w) == v
                            ]
                            assert len(mediators) == 1
    assert cocones > 1000


def test_pushout_refuses_legs_without_a_shared_source():
    s = sierpinski()
    with pytest.raises(CarrierMismatchError):
        pushout_spaces(PreMap(point_space(), s, (0,)), PreMap(s, s, (0, 1)))


def test_homeomorphic_is_an_iso_relation():
    s = sierpinski()
    relabeled = FiniteSpace.from_opens(("u", "v"), (0, 2, 3))
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
        PreMap(s, p, [0])
    with pytest.raises(CarrierMismatchError):
        PreMap(s, p, [0, 0]).then(PreMap(s, s, [0, 1]))


# Literal oracles: the open-family constructions the row-built spaces replaced.


def _canonical(masks):
    return tuple(sorted(set(masks), key=lambda m: (popcount(m), m)))


def _swept_opens(up):
    """Every subset that contains the up row of each of its points, over all 2^n subsets."""
    out = []
    for m in range(1 << len(up)):
        closed = m
        for i in iter_bits(m):
            closed |= up[i]
        if closed == m:
            out.append(m)
    return _canonical(out)


def test_opens_match_the_subset_sweep():
    for n in range(5):
        for rows in all_preorders_labelled(n):
            space = space_from_preorder(LABELS[:n], rows)
            assert space.up == rows
            assert space.opens == _swept_opens(rows)
            assert space.closed_sets == _canonical(space.full ^ u for u in space.opens)


def _box_union_opens(x, y):
    """The unions of open boxes U x V, closing the boxes under binary union."""
    ny = y.n
    boxes = set()
    for u in x.opens:
        for v in y.opens:
            m = 0
            for i in iter_bits(u):
                m |= v << (i * ny)
            boxes.add(m)
    opens = set(boxes)
    frontier = list(boxes)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(opens):
                if a | b not in opens:
                    opens.add(a | b)
                    fresh.append(a | b)
        frontier = fresh
    return _canonical(opens)


def test_product_opens_match_the_union_closure_of_boxes():
    pool = all_spaces(3, t0_only=True)
    for x in pool:
        for y in pool:
            prod, _, _ = product_spaces(x, y)
            assert prod.opens == _box_union_opens(x, y)
            assert prod.opens == _swept_opens(prod.up)


def _final_opens(f, g, space, inj_b, inj_c):
    """The subsets of the pushout whose preimages in B and C are both open."""
    b_opens = set(f.target.opens)
    c_opens = set(g.target.opens)
    out = []
    for m in range(1 << space.n):
        if inj_b.preimage_mask(m) in b_opens and inj_c.preimage_mask(m) in c_opens:
            out.append(m)
    return _canonical(out)


def _check_pushout_against_the_sweep(f, g):
    space, inj_b, inj_c = pushout_spaces(f, g)
    assert space.opens == _final_opens(f, g, space, inj_b, inj_c)


def test_pushout_opens_match_the_preimage_sweep():
    spaces = all_spaces(2)
    cases = 0
    for a, b, c in itertools.product(spaces, repeat=3):
        for f in iter_monotone_maps(a, b):
            for g in iter_monotone_maps(a, c):
                _check_pushout_against_the_sweep(f, g)
                cases += 1
    assert cases > 100


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pushout_opens_match_the_preimage_sweep_at_three_points(data):
    spaces = all_spaces(3)
    a, b, c = (data.draw(st.sampled_from(spaces)) for _ in range(3))
    maps_b = list(iter_monotone_maps(a, b))
    maps_c = list(iter_monotone_maps(a, c))
    if maps_b and maps_c:
        _check_pushout_against_the_sweep(
            data.draw(st.sampled_from(maps_b)), data.draw(st.sampled_from(maps_c))
        )


def test_monotone_on_rows_is_continuity():
    """PreMap accepts a point function exactly when every open pulls back open."""
    spaces = all_spaces(3)
    for x in spaces:
        x_opens = set(x.opens)
        for y in spaces:
            for mapping in itertools.product(range(y.n), repeat=x.n):
                continuous = all(
                    sum(1 << i for i, v in enumerate(mapping) if u >> v & 1) in x_opens
                    for u in y.opens
                )
                try:
                    PreMap(x, y, mapping)
                    accepted = True
                except NotMonotoneError:
                    accepted = False
                assert accepted == continuous
