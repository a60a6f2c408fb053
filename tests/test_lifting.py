"""Lifting problems in preorders: squares, pushout products, factorizations."""

import dataclasses
import gc
import hashlib
import itertools
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitetop import lifting, order
from finitetop.corpus import all_preorders_labelled, all_spaces
from finitetop.errors import (
    CarrierMismatchError,
    DuplicateLabelError,
    FinitetopError,
    NonCommutingError,
    NotIsoError,
    NotMonotoneError,
    SizeError,
    TopologyError,
    VerificationError,
)
from finitetop.lifting import (
    COMPLETE,
    PARTIAL,
    ArrowIso,
    LiftingSquare,
    PreMap,
    Preorder,
    adjunction_failures,
    arrow,
    arrow_iso,
    arrows_between,
    associates,
    associativity_failures,
    associator,
    bounded_factorize,
    braiding,
    cell_attach,
    coproduct_pre,
    enumerate_lifts,
    identity_arrow,
    iter_monotone_arrows,
    lifting_adjunction_check,
    lifts_against,
    product_arrow,
    pullback_power,
    pushout_product,
    replay_trace,
    rlp,
)
from finitetop.order import fill, glue, isomorphisms
from finitetop.poset import pushout
from finitetop.serialize import canonical_json, parse_structure, structure_data
from finitetop.spaces import FiniteSpace, space_from_preorder
from finitetop.suites import SuiteOptions, _preorder_pool, run_group, soa_regression_cases

from conftest import (
    adjunction_failures_oracle,
    associativity_failures_oracle,
    clear_lifting_caches,
    corner_members,
    garbage_after,
    glue_dropping_the_last_pair,
    literal_reassociate,
    literal_swap,
    pins_ignoring_the_top,
    sierpinski,
)

EMPTY = Preorder((), ())
PT = Preorder(("p",), (1,))
D2 = Preorder(("a", "b"), (1, 2))
C2 = Preorder(("a", "b"), (3, 2))
I2 = Preorder(("a", "b"), (3, 3))

CELL = PreMap(EMPTY, PT, ())


def _fold():
    total, _ = coproduct_pre([PT, PT], ["l", "r"])
    return PreMap(total, PT, (0, 0))


FOLD = _fold()
EDGE = PreMap(D2, C2, (0, 1))


def _two_point_preorders():
    return [EMPTY, PT, D2, C2, Preorder(("a", "b"), (1, 3)), I2]


def _commuting_squares(left, right):
    """Every commuting square of left against right, by brute filtering."""
    out = []
    for top in iter_monotone_arrows(left.source, right.source):
        for bot in iter_monotone_arrows(left.target, right.target):
            if top.then(right).mapping == left.then(bot).mapping:
                out.append(LiftingSquare(left, right, top, bot))
    return out


def test_preorder_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabelError):
        Preorder(("a", "a"), (1, 2))


def test_preorder_rejects_missing_reflexivity():
    with pytest.raises(TopologyError):
        Preorder(("a",), (0,))


def test_preorder_rejects_missing_transitivity():
    with pytest.raises(TopologyError):
        Preorder(("a", "b", "c"), (3, 6, 4))


def test_preorder_rejects_short_rows():
    with pytest.raises(CarrierMismatchError):
        Preorder(("a", "b"), (1,))


def test_premap_rejects_non_monotone():
    with pytest.raises(NotMonotoneError):
        PreMap(C2, C2, (1, 0))


def test_preorder_space_round_trip():
    s = sierpinski()
    pre = Preorder(s.points, s.up)
    assert pre.leq_idx(0, 1) and not pre.leq_idx(1, 0)
    assert space_from_preorder(pre.points, pre.up) == s


def test_arrow_coerces_space_maps():
    s = sierpinski()
    m = arrow(PreMap(s, s, (0, 1)))
    assert type(m.source) is Preorder and type(m.target) is Preorder
    assert m.mapping == (0, 1)
    assert m.source == Preorder(s.points, s.up)
    assert arrow(EDGE) is EDGE


def test_space_maps_lift_like_their_plain_twins():
    """Verdicts read only structural keys, so no arrow is coerced before them."""
    spaces = all_spaces(2)
    space_maps = [m for a in spaces for b in spaces for m in iter_monotone_arrows(a, b)]
    assert isinstance(space_maps[0].source, FiniteSpace)
    for left, right in itertools.product(space_maps, repeat=2):
        plain = lifts_against(arrow(left), arrow(right))
        verdict = lifts_against(left, right)
        assert verdict.holds == plain.holds
        assert canonical_json(structure_data(verdict)) == canonical_json(structure_data(plain))
        assert rlp(right, [left]).holds == plain.holds
    for f, g, i in itertools.product(space_maps[::3], repeat=3):
        assert lifting_adjunction_check(f, g, i) == lifting_adjunction_check(
            arrow(f), arrow(g), arrow(i)
        )


def test_square_corners_must_match():
    with pytest.raises(CarrierMismatchError):
        LiftingSquare(CELL, EDGE, identity_arrow(EMPTY), identity_arrow(C2))


def test_square_must_commute():
    swap = PreMap(D2, D2, (1, 0))
    with pytest.raises(NonCommutingError):
        LiftingSquare(
            identity_arrow(D2), identity_arrow(D2), swap, identity_arrow(D2)
        )


def test_identity_square_has_one_lift():
    ident = identity_arrow(C2)
    square = LiftingSquare(ident, ident, ident, ident)
    lifts = enumerate_lifts(square)
    assert len(lifts) == 1
    assert lifts[0].mapping == (0, 1)


def test_cell_against_itself_has_no_lift():
    square = LiftingSquare(CELL, CELL, identity_arrow(EMPTY), identity_arrow(PT))
    assert enumerate_lifts(square) == ()


def test_cell_over_collapsed_pair_has_two_lifts():
    to_pt = PreMap(D2, PT, (0, 0))
    square = LiftingSquare(CELL, to_pt, PreMap(EMPTY, D2, ()), identity_arrow(PT))
    lifts = enumerate_lifts(square)
    assert len(lifts) == 2
    assert {h.mapping for h in lifts} == {(0,), (1,)}


def _diagonals_oracle(square):
    """Every diagonal of the square, by filtering all monotone maps B -> X."""
    i, f = square.left, square.right
    return [
        h
        for h in _monotone_maps(i.target.up, f.source.up)
        if tuple(h[b] for b in i.mapping) == square.top.mapping
        and tuple(f.mapping[x] for x in h) == square.bottom.mapping
    ]


def test_census_agrees_with_square_enumeration():
    """The memoized census and `enumerate_lifts` versus literal search over every square."""
    pool = arrows_between([EMPTY, PT, D2, C2])
    checked = 0
    for left in pool:
        for right in pool:
            verdict = lifts_against(left, right)
            diagonals = [_diagonals_oracle(sq) for sq in _commuting_squares(left, right)]
            assert verdict.holds == all(diagonals)
            if not verdict:
                assert _diagonals_oracle(verdict.witness) == []
            checked += 1
    assert checked == len(pool) ** 2


def test_verdict_is_truthy_on_success():
    good = lifts_against(CELL, identity_arrow(PT))
    assert good and good.witness is None
    bad = lifts_against(CELL, CELL)
    assert not bad and isinstance(bad.witness, LiftingSquare)


def test_empty_generator_set_is_vacuous():
    assert rlp(EDGE, ())


def test_rlp_against_the_cell_is_surjectivity():
    for f in arrows_between([EMPTY, PT, D2, C2]):
        surjective = set(f.mapping) == set(range(f.target.n))
        assert rlp(f, [CELL]).holds == surjective


def test_rlp_unchanged_by_pushed_generators():
    """A cobase change of a generator imposes no new lifting condition."""
    points, rows, _, inj = pushout(PT, C2, (), ())
    pushed = PreMap(C2, Preorder(points, rows), inj)
    assert pushed.source.n == 2 and pushed.target.n == 3
    for f in arrows_between([EMPTY, PT, D2, C2]):
        assert rlp(f, [CELL]).holds == rlp(f, [CELL, pushed]).holds


def test_generators_lift_against_their_rlp_class():
    gens = [CELL, FOLD, EDGE]
    for f in arrows_between([PT, D2, C2]):
        if rlp(f, gens):
            for s in gens:
                assert lifts_against(s, f)


def test_product_orders_pointwise():
    rows = order.product_rows(C2.up, D2.up)
    assert len(rows) == 4
    for (i, j), (i2, j2) in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
        pointwise = C2.leq_idx(i, i2) and D2.leq_idx(j, j2)
        assert bool(rows[i * 2 + j] >> (i2 * 2 + j2) & 1) == pointwise


def test_product_arrow_acts_componentwise():
    m = product_arrow(EDGE, FOLD)
    assert m.source.up == order.product_rows(D2.up, FOLD.source.up)
    assert m.target.up == order.product_rows(C2.up, PT.up)
    for x, a in itertools.product(range(D2.n), range(FOLD.source.n)):
        assert m.mapping[x * FOLD.source.n + a] == EDGE.mapping[x] * PT.n + FOLD.mapping[a]


def test_coproduct_prefixes_labels():
    total, (inl, inr) = coproduct_pre([C2, PT], ["u", "w"])
    assert total.points == ("u:a", "u:b", "w:p")
    assert total.leq_idx(inl.mapping[0], inl.mapping[1])
    assert not total.leq_idx(inl.mapping[0], inr.mapping[0])
    total, (inw, inu) = coproduct_pre([C2, PT], ["w", "u"])
    assert total.points == ("u:p", "w:a", "w:b")
    assert inw.mapping == (1, 2) and inu.mapping == (0,)
    assert total.leq_idx(1, 2)


def _power_rows(base, exponent):
    """Rows of base^exponent: the source of id_base pullback-power (empty -> exponent)."""
    rows, _, _ = lifting._power(identity_arrow(base).key, PreMap(EMPTY, exponent, ()).key)
    return rows


def test_power_points_are_monotone_maps():
    mappings = order.maps(D2.up, C2.up)
    assert set(mappings) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    rows = _power_rows(C2, D2)
    assert len(rows) == len(mappings)
    for (s, m), (t, m2) in itertools.product(enumerate(mappings), repeat=2):
        pointwise = all(C2.leq_idx(u, v) for u, v in zip(m, m2))
        assert bool(rows[s] >> t & 1) == pointwise


def test_power_of_chain_by_chain_is_a_chain():
    rows = _power_rows(C2, C2)
    assert len(rows) == 3
    chain3 = Preorder(("0", "1", "2"), (7, 6, 4))
    assert next(isomorphisms(rows, chain3.up), None) is not None


def test_exponential_law_is_a_bijection():
    for z, a, x in itertools.product([PT, D2, C2], repeat=3):
        prod = order.product_rows(z.up, a.up)
        index_of = {m: k for k, m in enumerate(order.maps(a.up, x.up))}
        outs = order.maps(prod, x.up)
        ins = order.maps(z.up, _power_rows(x, a))
        assert len(outs) == len(ins)
        transposes = {
            tuple(index_of[m[i * a.n : (i + 1) * a.n]] for i in range(z.n)) for m in outs
        }
        assert transposes == set(ins)


BIG = Preorder([f"p{i:02d}" for i in range(70)], [1 << i for i in range(70)])
BIG_FOLD = PreMap(BIG, PT, (0,) * 70)
BIG_PICK = PreMap(PT, BIG, (0,))


def test_size_caps_reject_large_objects():
    """Every refusal, each on a pair where only that product or power is too big.

    X x A of the corner is the test below.
    """
    products = [
        (pushout_product, BIG_FOLD, BIG_PICK),  # X x B
        (pushout_product, BIG_PICK, BIG_FOLD),  # Y x A
        (pushout_product, BIG_PICK, BIG_PICK),  # Y x B
        (product_arrow, BIG_FOLD, BIG_FOLD),  # the source product
        (product_arrow, BIG_PICK, BIG_PICK),  # the target product
    ]
    for build, f, g in products:
        with pytest.raises(SizeError, match="^product exceeds 4096 points$"):
            build(f, g)
    to_d2 = PreMap(EMPTY, D2, ())
    powers = [(BIG_FOLD, to_d2), (BIG_FOLD, PreMap(D2, PT, (0, 0))), (BIG_PICK, to_d2)]
    for f, g in powers:  # X^B, X^A, Y^B
        with pytest.raises(SizeError, match="^map object exceeds 4096 points$"):
            pullback_power(f, g)


def test_pushout_product_of_two_large_folds_is_refused():
    """X x B and Y x A have 70 points each; only X x A, never built, is too big."""
    with pytest.raises(SizeError, match="product exceeds 4096 points"):
        pushout_product(BIG_FOLD, BIG_FOLD)


def test_pushout_product_of_cells_is_a_cell():
    pp = pushout_product(CELL, CELL)
    assert pp.source.n == 0 and pp.target.n == 1
    assert arrow_iso(pp, CELL) is not None


def test_cell_is_a_unit_for_pushout_product():
    for f in [EDGE, FOLD, identity_arrow(C2)]:
        assert arrow_iso(pushout_product(f, CELL), f) is not None
        assert arrow_iso(pushout_product(CELL, f), f) is not None


def test_pushout_product_factors_are_recorded():
    pp = pushout_product(EDGE, FOLD)
    assert pp.target.n == EDGE.target.n * FOLD.target.n


def test_braiding_swaps_the_factors():
    for f, g in [(EDGE, FOLD), (CELL, EDGE), (identity_arrow(C2), FOLD)]:
        iso = braiding(f, g)
        assert isinstance(iso, ArrowIso)
        p1 = pushout_product(f, g)
        p2 = pushout_product(g, f)
        assert iso.top.then(p2).mapping == p1.then(iso.bottom).mapping


def test_associator_reassociates():
    for f, g, h in [(CELL, EDGE, FOLD), (EDGE, EDGE, CELL)]:
        iso = associator(f, g, h)
        lhs = pushout_product(pushout_product(f, g), h)
        rhs = pushout_product(f, pushout_product(g, h))
        assert iso.top.then(rhs).mapping == lhs.then(iso.bottom).mapping
        assert associates(f, g, h)


def test_pullback_power_by_the_cell_recovers_the_map():
    for f in [EDGE, identity_arrow(D2), FOLD]:
        pw = pullback_power(f, CELL)
        assert arrow_iso(pw, f) is not None


def test_pullback_power_shape():
    pw = pullback_power(EDGE, FOLD)
    assert pw.source.n == len(order.maps(FOLD.target.up, EDGE.source.up))


def test_lifting_adjunction_on_small_triples():
    pool = [CELL, FOLD, EDGE, identity_arrow(C2)]
    for f, g, i in itertools.product(pool, repeat=3):
        assert lifting_adjunction_check(f, g, i)


ROWS_UPTO_3 = [rows for n in range(4) for rows in all_preorders_labelled(n)]


@st.composite
def arrow_twins(draw):
    """A random arrow of up to 3 points and a relabelled twin with its key."""
    src = draw(st.sampled_from(ROWS_UPTO_3))
    dst = draw(st.sampled_from([rows for rows in ROWS_UPTO_3 if rows or not src]))
    mapping = draw(st.sampled_from(list(fill(src, dst))))

    def labelled(alphabet):
        source = Preorder(draw(st.permutations(alphabet))[: len(src)], src)
        target = Preorder(draw(st.permutations(alphabet.upper()))[: len(dst)], dst)
        return PreMap(source, target, mapping)

    f, twin = labelled("abc"), labelled("xyz")
    assert f.key == twin.key and (f.source.points != twin.source.points or not src)
    return f, twin


def _monotone_maps(src_up, dst_up):
    """Every monotone map between two row tuples, by brute force over all maps."""
    n = len(src_up)
    return [
        m
        for m in itertools.product(range(len(dst_up)), repeat=n)
        if all(dst_up[m[i]] >> m[j] & 1 for i in range(n) for j in range(n) if src_up[i] >> j & 1)
    ]


def _check_corner_literally(f, g, key):
    """Glue the corner by graph search and compare classes, order and comparison.

    The classes are `_glued`'s, as member lists.
    """
    classes = corner_members(lifting._set_key(f.key), lifting._set_key(g.key))
    nb, na = g.target.n, g.source.n
    points = [(0, x * nb + b) for x in range(f.source.n) for b in range(nb)]
    points += [(1, y * na + a) for y in range(f.target.n) for a in range(na)]
    edges = {p: set() for p in points}
    for x in range(f.source.n):
        for a in range(na):
            p, q = (0, x * nb + g.mapping[a]), (1, f.mapping[x] * na + a)
            edges[p].add(q)
            edges[q].add(p)
    found_classes, seen = [], set()
    for p in points:
        if p not in seen:
            found, todo = {p}, [p]
            while todo:
                for q in edges[todo.pop()] - found:
                    found.add(q)
                    todo.append(q)
            seen |= found
            found_classes.append(tuple(sorted(found)))
    assert list(classes) == found_classes
    class_of = {p: k for k, members in enumerate(classes) for p in members}

    relation = set()
    for (s1, p1), (s2, p2) in itertools.product(points, repeat=2):
        outer, inner = (f.source, g.target) if s1 == 0 else (f.target, g.source)
        (u1, v1), (u2, v2) = divmod(p1, inner.n), divmod(p2, inner.n)
        if s1 == s2 and outer.leq_idx(u1, u2) and inner.leq_idx(v1, v2):
            relation.add((class_of[(s1, p1)], class_of[(s2, p2)]))
    while more := {(a, d) for a, b in relation for c, d in relation if b == c} - relation:
        relation |= more
    rows, target, mapping = key
    n = len(classes)
    assert len(rows) == len(mapping) == n and all(row >> n == 0 for row in rows)
    assert len(target) == f.target.n * nb and all(row >> len(target) == 0 for row in target)
    assert relation == {(k, k2) for k in range(n) for k2 in range(n) if rows[k] >> k2 & 1}
    for (y, b), (y2, b2) in itertools.product(itertools.product(range(f.target.n), range(nb)), repeat=2):
        pointwise = f.target.leq_idx(y, y2) and g.target.leq_idx(b, b2)
        assert bool(target[y * nb + b] >> (y2 * nb + b2) & 1) == pointwise

    for (side, idx), k in class_of.items():
        if side == 0:
            x, b = divmod(idx, nb)
            assert mapping[k] == f.mapping[x] * nb + b
        else:
            y, a = divmod(idx, na)
            assert mapping[k] == y * nb + g.mapping[a]


def _check_power_literally(f, g, key):
    """Enumerate maps by brute force and compare the pullback and the comparison.

    The apex numbers the agreeing pairs (i, j) of the i-th map of X^A and
    the j-th of Y^B, maps in fill order, i-major and then j ascending.
    """
    agreeing = [
        (alpha, delta)
        for alpha in _monotone_maps(g.source.up, f.source.up)
        for delta in _monotone_maps(g.target.up, f.target.up)
        if all(f.mapping[alpha[a]] == delta[g.mapping[a]] for a in range(g.source.n))
    ]
    source, target, mapping = key
    xa = order.maps(g.source.up, f.source.up)
    yb = order.maps(g.target.up, f.target.up)
    points = [
        (alpha, delta)
        for alpha in xa
        for delta in yb
        if all(f.mapping[alpha[a]] == delta[g.mapping[a]] for a in range(g.source.n))
    ]
    assert sorted(points) == sorted(agreeing)
    assert len(target) == len(points) and all(row >> len(points) == 0 for row in target)
    for k, (alpha, delta) in enumerate(points):
        for k2, (alpha2, delta2) in enumerate(points):
            pointwise = all(f.source.leq_idx(u, v) for u, v in zip(alpha, alpha2)) and all(
                f.target.leq_idx(u, v) for u, v in zip(delta, delta2)
            )
            assert bool(target[k] >> k2 & 1) == pointwise

    xb = order.maps(g.target.up, f.source.up)
    assert len(source) == len(mapping) == len(xb)
    assert all(row >> len(xb) == 0 for row in source)
    for (k, beta), (k2, beta2) in itertools.product(enumerate(xb), repeat=2):
        pointwise = all(f.source.leq_idx(u, v) for u, v in zip(beta, beta2))
        assert bool(source[k] >> k2 & 1) == pointwise
    expected = {
        beta: (tuple(beta[v] for v in g.mapping), tuple(f.mapping[v] for v in beta))
        for beta in _monotone_maps(g.target.up, f.source.up)
    }
    assert {m: points[mapping[k]] for k, m in enumerate(xb)} == expected


@settings(max_examples=150, deadline=None)
@given(arrow_twins(), arrow_twins())
def test_memoized_corner_and_power_match_fresh_builds(fs, gs):
    """The memoized kernels against a cold rebuild and the literal oracles."""
    (f, f_twin), (g, g_twin) = fs, gs
    sets = lifting._set_key(f.key), lifting._set_key(g.key)
    glued = lifting._glued(*sets)
    corner = lifting._corner(f.key, g.key)
    power = lifting._power(f.key, g.key)
    lifting._glued.cache_clear()
    lifting._corner.cache_clear()
    lifting._power.cache_clear()
    assert pushout_product(f_twin, g_twin).key == corner
    assert pullback_power(f_twin, g_twin).key == power
    assert lifting._glued(*sets) == glued
    assert lifting._corner(f_twin.key, g_twin.key) == corner
    assert lifting._power(f_twin.key, g_twin.key) == power
    _check_corner_literally(f, g, corner)
    _check_power_literally(f, g, power)


CUBE = arrows_between(_preorder_pool(2))


def _pointwise_rows_oracle(base_up, mappings):
    """The pointwise order on maps, one pair of maps at a time."""
    return tuple(
        sum(
            1 << t
            for t, m2 in enumerate(mappings)
            if all(base_up[a] >> b & 1 for a, b in zip(m, m2))
        )
        for m in mappings
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ROWS_UPTO_3), st.sampled_from(ROWS_UPTO_3))
@example((), ())
@example((1,), ())
@example((), (1,))
@example((1, 2), ())
def test_pointwise_rows_match_the_pairwise_loop(src, dst):
    """Bit-sliced rows against the pairwise loop, including one empty map
    (an empty source), no maps (a non-empty source into an empty target),
    and zero-width maps over a non-empty base."""
    mappings = order.maps(src, dst)
    assert order.pointwise_rows(dst, mappings) == _pointwise_rows_oracle(dst, mappings)


def test_every_power_of_the_two_point_cube_matches_the_literal_build():
    """All 44 x 44 pullback-powers, which include empty exponents (one empty
    map) and empty bases under a non-empty exponent (no maps)."""
    assert len(CUBE) == 44
    assert {CELL.key, identity_arrow(EMPTY).key} <= {m.key for m in CUBE}
    for f, g in itertools.product(CUBE, repeat=2):
        _check_power_literally(f, g, lifting._power(f.key, g.key))


def _census_misses(run):
    """What run() returns, and the census runs it makes from cold caches."""
    clear_lifting_caches()
    out = run()
    return out, lifting._census.cache_info().misses


def test_the_adjunction_table_is_the_per_triple_loop_on_the_cube():
    """No failures, and the census runs on exactly the class pairs the
    per-triple loop asks about."""
    table = _census_misses(lambda: adjunction_failures(CUBE, CUBE, CUBE))
    oracle = _census_misses(lambda: adjunction_failures_oracle(CUBE, CUBE, CUBE))
    assert table == oracle
    assert table[0] == []


def test_the_associativity_table_is_the_per_triple_loop_on_the_cube():
    """No failures, and one verdict per triple of the cube's 11 set keys."""
    lifting._associates.cache_clear()
    assert associativity_failures(CUBE, CUBE, CUBE) == []
    assert lifting._associates.cache_info().misses == 11**3
    lifting._associates.cache_clear()
    assert associativity_failures_oracle(CUBE, CUBE, CUBE) == []


def test_the_tables_find_each_mutant_failure_in_the_loop_order(monkeypatch):
    """Under pins that ignore the top, and under a corner missing its last
    gluing, the tables fail on the oracles' triples in the oracles' order."""
    try:
        with monkeypatch.context() as m:
            m.setattr(lifting, "_diagonal_pins", pins_ignoring_the_top)
            table, _ = _census_misses(lambda: adjunction_failures(CUBE, CUBE, CUBE))
            oracle, _ = _census_misses(lambda: adjunction_failures_oracle(CUBE, CUBE, CUBE))
            assert len(table) == 5368
            assert table == oracle
        with monkeypatch.context() as m:
            m.setattr(lifting, "glue", glue_dropping_the_last_pair)
            clear_lifting_caches()
            table = associativity_failures(CUBE, CUBE, CUBE)
            clear_lifting_caches()
            assert len(table) == 49032
            assert table == associativity_failures_oracle(CUBE, CUBE, CUBE)
    finally:
        clear_lifting_caches()


@settings(max_examples=60, deadline=None)
@given(arrow_twins(), arrow_twins(), arrow_twins())
def test_the_per_triple_checks_are_the_tables_on_singletons(fs, gs, hs):
    """Singletons against the oracles, and twins mixed into short lists."""
    f, g, h = fs[0], gs[0], hs[0]
    assert lifting_adjunction_check(f, g, h) == (adjunction_failures_oracle([f], [g], [h]) == [])
    assert associates(f, g, h) == (associativity_failures_oracle([f], [g], [h]) == [])
    lists = (fs[::-1], [g, hs[1]], [h, gs[1], fs[0]])
    assert adjunction_failures(*lists) == adjunction_failures_oracle(*lists)
    assert associativity_failures(*lists) == associativity_failures_oracle(*lists)


@settings(max_examples=80, deadline=None)
@given(arrow_twins(), arrow_twins(), arrow_twins())
def test_adjunction_check_matches_fresh_lifting_verdicts(fs, gs, is_):
    verdict = lifting_adjunction_check(fs[0], gs[0], is_[0])
    lifting._glued.cache_clear()
    lifting._corner.cache_clear()
    lifting._power.cache_clear()
    f, g, i = fs[1], gs[1], is_[1]
    left = lifts_against(pushout_product(f, i), g).holds
    right = lifts_against(f, pullback_power(g, i)).holds
    assert verdict == (left == right)
    assert verdict


def _check_arrow_iso(iso, m1, m2):
    """iso is an order isomorphism on both ends that carries m1 onto m2."""
    assert order.is_isomorphism(m1.source.up, m2.source.up, iso.top.mapping)
    assert order.is_isomorphism(m1.target.up, m2.target.up, iso.bottom.mapping)
    assert iso.top.then(m2).mapping == m1.then(iso.bottom).mapping


@settings(max_examples=80, deadline=None)
@given(arrow_twins(), arrow_twins(), arrow_twins())
def test_braiding_and_associator_are_arrow_isomorphisms(fs, gs, hs):
    f, g, h = fs[0], gs[1], hs[0]
    _check_arrow_iso(braiding(f, g), pushout_product(f, g), pushout_product(g, f))
    lhs = pushout_product(pushout_product(f, g), h)
    rhs = pushout_product(f, pushout_product(g, h))
    _check_arrow_iso(associator(f, g, h), lhs, rhs)


@settings(max_examples=80, deadline=None)
@given(arrow_twins(), arrow_twins(), arrow_twins())
def test_associates_holds_exactly_when_the_associator_is_certified(fs, gs, hs):
    f, g, h = fs[0], gs[1], hs[0]
    try:
        associator(f, g, h)
        certified = True
    except FinitetopError:
        certified = False
    assert associates(f, g, h) == certified


def _associates_oracle(f, g, h):
    """The associativity verdict read off the arrows' own stage-one corners.

    The literal oracle of `lifting._associates`: the same partition
    comparison, on the corners of the arrows' structural keys, with no memo.
    """
    f = arrow(f)
    g = arrow(g)
    h = arrow(h)
    _, _, map1 = lifting._corner(f.key, g.key)
    _, _, map2 = lifting._corner(g.key, h.key)
    classes1 = corner_members(lifting._set_key(f.key), lifting._set_key(g.key))
    classes2 = corner_members(lifting._set_key(g.key), lifting._set_key(h.key))
    nx, ny = f.source.n, f.target.n
    na, nb = g.source.n, g.target.n
    na2, nb2 = h.source.n, h.target.n
    sz0 = nx * nb * nb2
    sz1 = ny * na * nb2
    base2 = sz0 + sz1
    total = base2 + ny * nb * na2

    def flat(tag, i, j, k):
        if tag == 0:
            return (i * nb + j) * nb2 + k
        if tag == 1:
            return sz0 + (i * na + j) * nb2 + k
        return base2 + (i * nb + j) * na2 + k

    lhs_rel = []
    for p1, members in enumerate(classes1):
        first = members[0]
        for b2 in range(nb2):
            base = None
            for side, idx in members:
                if side == 0:
                    x, b = divmod(idx, nb)
                    pt = flat(0, x, b, b2)
                else:
                    y, a = divmod(idx, na)
                    pt = flat(1, y, a, b2)
                if base is None:
                    base = pt
                else:
                    lhs_rel.append((base, pt))
        y, b = divmod(map1[p1], nb)
        side, idx = first
        for a2 in range(na2):
            if side == 0:
                x0, b0 = divmod(idx, nb)
                pt = flat(0, x0, b0, h.mapping[a2])
            else:
                y0, a0 = divmod(idx, na)
                pt = flat(1, y0, a0, h.mapping[a2])
            lhs_rel.append((pt, flat(2, y, b, a2)))
    rhs_rel = []
    for p2, members in enumerate(classes2):
        first = members[0]
        for y in range(ny):
            base = None
            for side, idx in members:
                if side == 0:
                    a, b2 = divmod(idx, nb2)
                    pt = flat(1, y, a, b2)
                else:
                    b, a2 = divmod(idx, na2)
                    pt = flat(2, y, b, a2)
                if base is None:
                    base = pt
                else:
                    rhs_rel.append((base, pt))
        b, b2 = divmod(map2[p2], nb2)
        side, idx = first
        for x in range(nx):
            if side == 0:
                a0, b20 = divmod(idx, nb2)
                pt = flat(1, f.mapping[x], a0, b20)
            else:
                b0, a20 = divmod(idx, na2)
                pt = flat(2, f.mapping[x], b0, a20)
            rhs_rel.append((flat(0, x, b, b2), pt))
    classes = glue(total, lhs_rel)
    if classes != glue(total, rhs_rel):
        return False
    values = {}
    for p in range(total):
        if p < sz0:
            i, rest = divmod(p, nb * nb2)
            j, k = divmod(rest, nb2)
            val = (f.mapping[i], j, k)
        elif p < base2:
            i, rest = divmod(p - sz0, na * nb2)
            j, k = divmod(rest, nb2)
            val = (i, g.mapping[j], k)
        else:
            i, rest = divmod(p - base2, nb * na2)
            j, k = divmod(rest, na2)
            val = (i, j, h.mapping[k])
        if values.setdefault(classes[p], val) != val:
            return False
    return True


def _order_twin(m, discrete_target):
    """m's sizes and mapping on a discrete source, and a discrete target if asked."""
    source = Preorder(m.source.points, tuple(1 << i for i in range(m.source.n)))
    target = m.target
    if discrete_target:
        target = Preorder(target.points, tuple(1 << i for i in range(target.n)))
    return PreMap(source, target, m.mapping)


@settings(max_examples=80, deadline=None)
@given(arrow_twins(), arrow_twins(), arrow_twins(), st.lists(st.booleans(), min_size=3, max_size=3))
def test_associates_matches_the_literal_oracle_on_arrow_and_order_twins(fs, gs, hs, discrete):
    verdict = associates(fs[0], gs[0], hs[0])
    lifting._associates.cache_clear()
    lifting._glued.cache_clear()
    lifting._corner.cache_clear()
    twins = (fs[1], gs[1], hs[1])
    assert _associates_oracle(*twins) == verdict
    assert associates(*twins) == verdict
    order_twins = [_order_twin(m, d) for m, d in zip(twins, discrete)]
    hits = lifting._associates.cache_info().hits
    assert associates(*order_twins) == verdict
    assert lifting._associates.cache_info().hits == hits + 1
    assert _associates_oracle(*order_twins) == verdict


SET_KEYS = tuple(dict.fromkeys(lifting._set_key(m.key) for m in CUBE))


def test_the_class_maps_are_the_member_list_loops_on_the_cube():
    """`_reassociate` on all 11^3 set-key triples and `braiding` on all
    44^2 pairs give exactly the class maps of the member-list loops."""
    assert len(SET_KEYS) == 11
    for triple in itertools.product(SET_KEYS, repeat=3):
        assert lifting._reassociate(*triple) == literal_reassociate(*triple)
    for f, g in itertools.product(CUBE, repeat=2):
        assert braiding(f, g).top.mapping == literal_swap(f, g)


def _outcome(run):
    """What run() returns, or the type and message of the FinitetopError it raises."""
    try:
        return run()
    except FinitetopError as exc:
        return type(exc), str(exc)


TO_D2 = PreMap(EMPTY, D2, ())
ID_PT = identity_arrow(PT)


@settings(max_examples=60, deadline=None)
@given(arrow_twins(), arrow_twins(), arrow_twins())
@example((TO_D2, TO_D2), (ID_PT, ID_PT), (ID_PT, ID_PT))
@example((ID_PT, ID_PT), (ID_PT, ID_PT), (TO_D2, TO_D2))
def test_the_class_maps_match_the_member_list_loops_under_the_glue_mutant(fs, gs, hs):
    """Unmutated and with the last gluing pair of every corner dropped,
    both sides give the same class map or raise the same message.  The
    two examples fail re-association under the mutant, one by each message
    it reaches on the cube."""
    f, g, h = fs[0], gs[1], hs[0]
    sets = [lifting._set_key(m.key) for m in (f, g, h)]

    def agree():
        assert _outcome(lambda: lifting._reassociate(*sets)) == _outcome(
            lambda: literal_reassociate(*sets)
        )
        assert _outcome(lambda: braiding(f, g).top.mapping) == _outcome(lambda: literal_swap(f, g))

    agree()
    clear_lifting_caches()
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lifting, "glue", glue_dropping_the_last_pair)
            agree()
    finally:
        clear_lifting_caches()


def _split_a_class(glued):
    """The last point of the first class of two or more moved to a class of its own."""
    (n, t, mapping), cls = glued
    k = next(k for k in range(n) if cls.count(k) > 1)
    p = len(cls) - 1 - cls[::-1].index(k)
    return (n + 1, t, mapping + (mapping[k],)), cls[:p] + (n,) + cls[p + 1 :]


def _merge_the_last_two_classes(glued):
    (n, t, mapping), cls = glued
    return (n - 1, t, mapping[:-1]), tuple(min(k, n - 2) for k in cls)


def _shift_the_comparison(glued):
    (n, t, mapping), cls = glued
    return (n, t, tuple((v + 1) % t for v in mapping)), cls


def _raise_the_last_target_row(key):
    rows, target, mapping = key
    return rows, target[:-1] + ((1 << len(target)) - 1,), mapping


def _patched(name, args, change):
    """`lifting.<name>` with `change` applied to its result on `args` alone."""
    real = getattr(lifting, name)
    return lambda *a: change(real(*a)) if a == args else real(*a)


# A triple whose four corners (f, g), (f x^ g, h), (g, h) and (f, g x^ h)
# have distinct set keys, so an altered corner is altered alone.
_F, _G, _H = EDGE, FOLD, TO_D2
_SETS = tuple(lifting._set_key(m.key) for m in (_F, _G, _H))
_GH_SET, _ = lifting._glued(_SETS[1], _SETS[2])
SWAP_REFUSALS = [
    ("_glued", _SETS[1::-1], _split_a_class, "the swap does not respect the glued classes"),
    (
        "_glued",
        _SETS[1::-1],
        _merge_the_last_two_classes,
        "the swap is not an order isomorphism on the corner",
    ),
    (
        "_corner",
        (_G.key, _F.key),
        _raise_the_last_target_row,
        "the swap is not an order isomorphism on the target",
    ),
    (
        "_glued",
        _SETS[1::-1],
        _shift_the_comparison,
        "the swap does not commute with the comparisons",
    ),
]
REASSOCIATION_REFUSALS = [
    ("_glued", (_SETS[0], _GH_SET), change, message)
    for change, message in [
        (_split_a_class, "re-association does not respect the glued classes"),
        (_merge_the_last_two_classes, "re-association is not a bijection of the glued classes"),
        (_shift_the_comparison, "re-association does not commute with the comparisons"),
    ]
]


@pytest.mark.parametrize(
    "name, args, change, message, run",
    [(*case, lambda: braiding(_F, _G)) for case in SWAP_REFUSALS]
    + [(*case, lambda: literal_swap(_F, _G)) for case in SWAP_REFUSALS]
    + [(*case, lambda: lifting._reassociate(*_SETS)) for case in REASSOCIATION_REFUSALS]
    + [(*case, lambda: literal_reassociate(*_SETS)) for case in REASSOCIATION_REFUSALS],
)
def test_every_class_map_refusal_is_reached(monkeypatch, name, args, change, message, run):
    """One corner altered: split a class, merge two, shift its comparison or
    raise a target row.  The braiding, the re-association and their
    member-list oracles each refuse with the message of that check."""
    clear_lifting_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(lifting, name, _patched(name, args, change))
            with pytest.raises(NotIsoError, match=f"^{message}$"):
                run()
    finally:
        clear_lifting_caches()


def test_a_class_that_disagrees_descends_to_nothing(monkeypatch):
    """`_descend` returns None; the corner's comparison then refuses as before."""
    assert lifting._descend((0, 1, 0), "aba") == ("a", "b")
    assert lifting._descend((0, 1, 0), "abc") is None
    clear_lifting_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(lifting, "glue", lambda total, pairs: [0] * total)
            with pytest.raises(
                VerificationError, match="^pushout-product comparison is not well defined$"
            ):
                lifting._glued(*_SETS[:2])
    finally:
        clear_lifting_caches()


def test_associates_runs_once_per_triple_of_sizes_and_mappings():
    """The suites' exhaustive two-point corpus: 44 arrows, but 11 set keys."""
    small = arrows_between(_preorder_pool(2))
    keys = {(m.source.n, m.target.n, m.mapping) for m in small}
    assert (len(small), len({m.key for m in small}), len(keys)) == (44, 44, 11)
    lifting._associates.cache_clear()
    assert all(associates(f, g, h) for f, g, h in itertools.product(small, repeat=3))
    assert lifting._associates.cache_info().misses == len(keys) ** 3


def _solved_squares_oracle(left_key, right_key):
    a_up, b_up, i_map = left_key
    x_up, _, f_map = right_key
    return {
        (tuple(h[i_map[a]] for a in range(len(a_up))), tuple(f_map[h[b]] for b in range(len(b_up))))
        for h in fill(b_up, x_up)
    }


@settings(max_examples=200, deadline=None)
@given(arrow_twins(), arrow_twins())
@example((CELL, CELL), (EDGE, EDGE))
@example((identity_arrow(PT), identity_arrow(PT)), (FOLD, FOLD))
@example((EDGE, EDGE), (identity_arrow(C2), identity_arrow(C2)))
@example((EDGE, EDGE), (identity_arrow(EMPTY), identity_arrow(EMPTY)))
@example((CELL, CELL), (identity_arrow(EMPTY), identity_arrow(EMPTY)))
def test_solved_squares_match_the_generator_projection(ls, rs):
    """The walk lists every square once; the unsolved ones are those off the projection."""
    left, right = ls[0].key, rs[0].key
    in_order = _squares_in_walk_order(left, right)
    assert list(lifting._squares(left, right)) == in_order
    unsolved = set(_unsolved_oracle(left, right))
    assert list(lifting._unsolved(left, right)) == [sq for sq in in_order if sq in unsolved]


def _squares_in_walk_order(left_key, right_key):
    """Every commuting square, by streamed side in fill order, then the other side."""
    a_up, b_up, i_map = left_key
    x_up, y_up, f_map = right_key
    tops, bottoms = list(fill(a_up, x_up)), list(fill(b_up, y_up))
    squares = [
        (top, bot)
        for top in tops
        for bot in bottoms
        if all(f_map[top[a]] == bot[i_map[a]] for a in range(len(a_up)))
    ]
    if not lifting._streams_tops(left_key, right_key):
        squares.sort(key=lambda sq: (bottoms.index(sq[1]), tops.index(sq[0])))
    return squares


def _squares_oracle(left_key, right_key):
    """Every commuting square (top, bottom), by filtering all pairs of monotone maps."""
    a_up, b_up, i_map = left_key
    x_up, y_up, f_map = right_key
    return [
        (top, bot)
        for top, bot in itertools.product(_monotone_maps(a_up, x_up), _monotone_maps(b_up, y_up))
        if all(f_map[top[a]] == bot[i_map[a]] for a in range(len(a_up)))
    ]


def _unsolved_oracle(left_key, right_key):
    """The commuting squares with no diagonal, by listing every square and diagonal."""
    _, b_up, i_map = left_key
    x_up, _, f_map = right_key
    solved = {
        (tuple(h[b] for b in i_map), tuple(f_map[x] for x in h)) for h in _monotone_maps(b_up, x_up)
    }
    return [sq for sq in _squares_oracle(left_key, right_key) if sq not in solved]


@settings(max_examples=200, deadline=None)
@given(arrow_twins(), arrow_twins())
@example((CELL, CELL), (EDGE, EDGE))
@example((EDGE, EDGE), (FOLD, FOLD))
@example((EDGE, EDGE), (identity_arrow(EMPTY), identity_arrow(EMPTY)))
def test_lifting_verdicts_match_brute_force_squares_and_diagonals(ls, rs):
    """`_lifts` and the witness of `lifts_against` against literal enumeration."""
    (left, left_twin), (right, right_twin) = ls, rs
    unsolved = _unsolved_oracle(left.key, right.key)
    assert lifting._lifts(left.key, right.key) == (not unsolved)
    verdict = lifts_against(left_twin, right_twin)
    assert verdict.holds == (not unsolved)
    if unsolved:
        witness = verdict.witness
        assert (witness.top.mapping, witness.bottom.mapping) in unsolved
        assert witness.left == left_twin and witness.right == right_twin
    else:
        assert verdict.witness is None


@settings(max_examples=150, deadline=None)
@given(arrow_twins(), arrow_twins())
@example((CELL, CELL), (FOLD, FOLD))
@example((EDGE, EDGE), (identity_arrow(C2), identity_arrow(C2)))
def test_enumerate_lifts_matches_the_diagonal_filter(ls, rs):
    """Every square of two random arrows: its fillers, in `fill` order, are the filtered maps."""
    left, right = ls[1], rs[1]
    for top, bot in _squares_oracle(left.key, right.key):
        square = LiftingSquare(
            left, right, PreMap(left.source, right.source, top), PreMap(left.target, right.target, bot)
        )
        lifts = enumerate_lifts(square)
        assert all(h.source == left.target and h.target == right.source for h in lifts)
        expected = _diagonals_oracle(square)
        in_fill_order = [h for h in fill(left.target.up, right.source.up) if h in expected]
        assert [h.mapping for h in lifts] == in_fill_order


def _square_count(left_key, right_key):
    """The number of commuting squares, counting the wide side per pin.

    Streams the side with the smaller map bound and counts the other by
    running `fill` out, memoized per pin pattern: the literal census oracle.
    """
    a_up, b_up, i_map = left_key
    x_up, y_up, f_map = right_key
    fibre = [sum(1 << x for x, y in enumerate(f_map) if y == v) for v in range(len(y_up))]
    total = 0
    memo = {}
    if max(len(x_up), 1) ** len(a_up) <= max(len(y_up), 1) ** len(b_up):
        for top in fill(a_up, x_up):
            allowed = [(1 << len(y_up)) - 1] * len(b_up)
            for a, t in enumerate(top):
                allowed[i_map[a]] &= 1 << f_map[t]
            allowed = tuple(allowed)
            if allowed not in memo:
                memo[allowed] = sum(1 for _ in fill(b_up, y_up, allowed))
            total += memo[allowed]
    else:
        for bot in fill(b_up, y_up):
            allowed = tuple(fibre[bot[i_map[a]]] for a in range(len(a_up)))
            if allowed not in memo:
                memo[allowed] = sum(1 for _ in fill(a_up, x_up, allowed))
            total += memo[allowed]
    return total


def _census_oracle(left_key, right_key):
    """Every square solved: the square count equals the solved-square count."""
    total = _square_count(left_key, right_key)
    solved = len(_solved_squares_oracle(left_key, right_key))
    assert total >= solved
    return total == solved


def _renumbered(key, sigma, tau):
    """The key with source point i moved to sigma[i] and target point v to tau[v]."""
    src_up, dst_up, mapping = key

    def moved(up, perm):
        rows = [0] * len(up)
        for i, row in enumerate(up):
            rows[perm[i]] = sum(1 << perm[j] for j in range(len(up)) if row >> j & 1)
        return tuple(rows)

    new_map = [0] * len(mapping)
    for i, v in enumerate(mapping):
        new_map[sigma[i]] = tau[v]
    return moved(src_up, sigma), moved(dst_up, tau), tuple(new_map)


@st.composite
def renumbered_twins(draw):
    """The key of a random arrow of up to 3 points, and the key renumbered."""
    f, _ = draw(arrow_twins())
    src, dst, _ = f.key
    sigma = draw(st.permutations(range(len(src))))
    tau = draw(st.permutations(range(len(dst))))
    return f.key, _renumbered(f.key, sigma, tau)


# A seeded corner of two 3-point arrows (11 points over 9) and a 3-point
# arrow it does not lift against; the census streams bottoms on this pair.
SEEDED_CORNER = lifting._corner(
    ((3, 2, 6), (3, 2, 7), (0, 1, 0)), ((1, 6, 6), (5, 7, 5), (0, 0, 0))
)
SEEDED_RIGHT = ((5, 2, 4), (1, 2, 7), (2, 1, 2))


@settings(max_examples=200, deadline=None)
@given(renumbered_twins(), renumbered_twins())
@example((CELL.key, CELL.key), (EDGE.key, EDGE.key))
@example((identity_arrow(EMPTY).key,) * 2, (FOLD.key, _renumbered(FOLD.key, (1, 0), (0,))))
@example(
    (SEEDED_CORNER, _renumbered(SEEDED_CORNER, tuple(range(10, -1, -1)), (2, 0, 1, 5, 3, 4, 8, 6, 7))),
    (SEEDED_RIGHT, _renumbered(SEEDED_RIGHT, (1, 2, 0), (2, 1, 0))),
)
def test_census_matches_the_oracle_on_keys_and_renumbered_twins(ls, rs):
    """The census, alone and through the class memo, against the counting oracle."""
    (left, left_twin), (right, right_twin) = ls, rs
    expected = _census_oracle(left, right)
    assert _census_oracle(left_twin, right_twin) == expected
    assert lifting._census.__wrapped__(left, right) == expected
    assert lifting._census.__wrapped__(left_twin, right_twin) == expected
    assert lifting._lifts(left, right) == expected
    assert lifting._lifts(left_twin, right_twin) == expected


def test_the_seeded_corner_fails_to_lift_by_streaming_bottoms():
    assert not lifting._streams_tops(SEEDED_CORNER, SEEDED_RIGHT)
    assert not _census_oracle(SEEDED_CORNER, SEEDED_RIGHT)


def test_renumbered_twins_cost_one_census_run():
    left = pushout_product(EDGE, FOLD).key
    right = EDGE.key
    left_twin = _renumbered(left, (1, 0), (1, 0))
    right_twin = _renumbered(right, (1, 0), (0, 1))
    assert left_twin != left and right_twin != right
    lifting._census.cache_clear()
    assert lifting._lifts(left, right) == lifting._lifts(left_twin, right_twin)
    info = lifting._census.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _key_sum(k1, k2):
    """The coproduct of two arrow keys: the second's points after the first's."""
    (a1, b1, m1), (a2, b2, m2) = k1, k2
    na, nb = len(a1), len(b1)
    return (
        a1 + tuple(r << na for r in a2),
        b1 + tuple(r << nb for r in b2),
        m1 + tuple(nb + v for v in m2),
    )


def _walk_lifts(left_key, right_key):
    """The census by the square walk alone, with neither lemma."""
    return next(lifting._unsolved(left_key, right_key), None) is None


def test_the_reduced_census_is_the_walk_on_every_small_pair():
    """Every arrow between preorders of up to 3 points, empty ones included,
    against every arrow of up to 2 points; each lemma decides some pairs."""
    lefts = [f.key for f in arrows_between(_preorder_pool(3))]
    rights = [g.key for g in CUBE]
    assert len(lefts) * len(rights) == 64944
    assert any(order.split(*k) for k in lefts)
    assert any(order.is_isomorphism(*k) for k in lefts)
    by_bijection = 0
    for left in lefts:
        l_iso, l_bijective, _ = lifting._facts(left)
        for right in rights:
            r_iso, _, r_indiscrete = lifting._facts(right)
            by_bijection += l_bijective and r_indiscrete and not (l_iso or r_iso)
            assert lifting._census.__wrapped__(left, right) == _walk_lifts(left, right), (
                left,
                right,
            )
    assert by_bijection > 0


def test_the_facts_of_a_key_are_their_literal_definitions():
    """`_facts` on every arrow between preorders of up to 3 points: an order
    isomorphism, a bijection on points, a source whose points are all
    related both ways; and `_parts`, the `split` parts."""
    for f in arrows_between(_preorder_pool(3)):
        src_up, dst_up, mapping = f.key
        indiscrete = all(row >> j & 1 for row in src_up for j in range(len(src_up)))
        assert lifting._facts(f.key) == (
            order.is_isomorphism(*f.key),
            sorted(mapping) == list(range(len(dst_up))),
            indiscrete,
        )
        assert lifting._parts(f.key) == tuple(order.split(*f.key))


def test_an_injection_does_not_lift_against_a_map_out_of_an_indiscrete_preorder():
    """The cell is injective and its source, being empty, is indiscrete, but
    the cell does not lift against itself: only a bijection lifts by the
    third lemma."""
    assert lifting._facts(CELL.key)[1:3] == (False, True)
    assert not _walk_lifts(CELL.key, CELL.key)
    assert not lifting._census.__wrapped__(CELL.key, CELL.key)


def test_a_bijection_against_a_map_out_of_an_indiscrete_preorder_walks_no_square(monkeypatch):
    """The edge, bijective but no isomorphism, against the indiscrete pair
    collapsed to a point: the census decides it by the third lemma alone."""

    def no_walk(*keys):
        raise AssertionError("the census walked squares")

    monkeypatch.setattr(lifting, "_squares", no_walk)
    monkeypatch.setattr(lifting, "_unsolved", no_walk)
    assert lifting._census.__wrapped__(EDGE.key, ((3, 3), (1,), (0, 0)))


@st.composite
def bijections(draw, max_n=5):
    """A random bijective arrow of up to max_n points.

    The target is the closure of a drawn relation, and the identity maps
    the closure of drawn pairs of it into it; the source is then renumbered
    by a drawn permutation.
    """
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]

    def closure(within):
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        rows = [1 << i for i in range(n)]
        for (i, j), k in zip(pairs, keep):
            if k and within[i] >> j & 1:
                rows[i] |= 1 << j
        return tuple(order.transitive_closure(rows))

    dst_up = closure([(1 << n) - 1] * n)
    sigma = draw(st.permutations(range(n)))
    return _renumbered((closure(dst_up), dst_up, tuple(range(n))), sigma, range(n))


@st.composite
def maps_out_of_indiscrete(draw, max_n=3):
    """A random map from an indiscrete preorder of up to max_n points into
    a preorder of up to 3 points."""
    dst_up = draw(st.sampled_from(ROWS_UPTO_3))
    m = draw(st.integers(0, max_n if dst_up else 0))
    src_up = ((1 << m) - 1,) * m
    return src_up, dst_up, draw(st.sampled_from(order.maps(src_up, dst_up)))


@settings(max_examples=150, deadline=None)
@given(bijections(), maps_out_of_indiscrete())
@example(EDGE.key, ((3, 3), (1,), (0, 0)))
def test_a_bijection_lifts_against_a_map_out_of_an_indiscrete_preorder(left, right):
    """The third lemma against the walk and the counting oracle."""
    src_up, dst_up, mapping = left
    assert sorted(mapping) == list(range(len(dst_up)))
    assert all(
        dst_up[mapping[i]] >> mapping[j] & 1
        for i, row in enumerate(src_up)
        for j in range(len(src_up))
        if row >> j & 1
    )
    assert lifting._census.__wrapped__(left, right)
    assert _walk_lifts(left, right)
    assert _census_oracle(left, right)


@settings(max_examples=150, deadline=None)
@given(arrow_twins(), arrow_twins(), arrow_twins())
@example((CELL, CELL), (identity_arrow(PT),) * 2, (CELL, CELL))
@example((EDGE, EDGE), (FOLD, FOLD), (FOLD, FOLD))
def test_the_census_of_a_coproduct_matches_the_oracle(ls, ks, rs):
    """The sum of two drawn arrows against a third: the census, which
    splits it, and the walk against the counting oracle."""
    left = _key_sum(ls[0].key, ks[1].key)
    right = rs[1].key
    expected = _census_oracle(left, right)
    assert lifting._census.__wrapped__(left, right) == expected
    assert _walk_lifts(left, right) == expected


def test_a_part_with_no_square_makes_the_census_vacuous():
    """The cell beside a point, against the empty point: the point's part
    has no square, so the sum lifts although the cell's part does not."""
    left, right = ((1,), (1, 2), (1,)), CELL.key
    cell, point = order.split(*left)
    assert (cell, point) == (CELL.key, identity_arrow(PT).key)
    assert next(lifting._squares(point, right), None) is None
    assert not lifting._lifts(cell, right)
    assert lifting._census.__wrapped__(left, right)
    assert _census_oracle(left, right) and _walk_lifts(left, right)


def test_a_disconnected_left_arrow_that_fails_gets_a_witness_on_its_own_keys():
    """Sums of two small arrows against the cube: where the split census
    refuses, `lifts_against` walks the whole sum for an unsolved square."""
    small = [CELL, EDGE, FOLD, identity_arrow(PT), identity_arrow(D2)]
    failed = 0
    for f, g in itertools.product(small, repeat=2):
        left = lifting._arrow_from_key(_key_sum(f.key, g.key))
        assert order.split(*left.key)
        for right in CUBE:
            verdict = lifts_against(left, right)
            assert verdict.holds == _walk_lifts(left.key, right.key)
            if not verdict:
                witness = verdict.witness
                assert witness.left == left and witness.right == right
                square = (witness.top.mapping, witness.bottom.mapping)
                assert square in _unsolved_oracle(left.key, right.key)
                failed += 1
    assert failed > 0


def test_a_census_the_walk_contradicts_is_refused(monkeypatch):
    """A census that refuses a pair the walk finds no unsolved square for."""
    monkeypatch.setattr(lifting, "_lifts", lambda left_key, right_key: False)
    with pytest.raises(VerificationError, match="^a failed census produced no witness square$"):
        lifts_against(identity_arrow(PT), identity_arrow(PT))


def _arrow_isos_oracle(key1, key2):
    """Every arrow isomorphism by the two-level loop: target isos, then source isos."""
    src1, dst1, map1 = key1
    src2, dst2, map2 = key2
    bottoms = tuple(isomorphisms(dst1, dst2))
    for top in isomorphisms(src1, src2):
        for bottom in bottoms:
            if all(bottom[v] == map2[top[i]] for i, v in enumerate(map1)):
                yield top, bottom


@settings(max_examples=200, deadline=None)
@given(renumbered_twins(), renumbered_twins())
def test_arrow_isos_match_the_two_level_search(fs, gs):
    for key1, key2 in [fs, gs, (fs[0], gs[1])]:
        found = list(lifting._arrow_isos(key1, key2))
        assert len(set(found)) == len(found)
        assert set(found) == set(_arrow_isos_oracle(key1, key2))
    assert next(lifting._arrow_isos(*fs), None) is not None


def test_arrow_iso_relabels_an_eight_point_discrete_identity():
    """The identity of an 8-point antichain has 8! automorphisms; the first is returned."""
    labels = [f"p{i}" for i in range(8)]
    discrete = Preorder(labels, [1 << i for i in range(8)])
    twin = Preorder(labels[::-1], [1 << i for i in range(8)])
    iso = arrow_iso(identity_arrow(discrete), identity_arrow(twin))
    assert iso is not None and iso.top.mapping == iso.bottom.mapping


def _refuse_to_clear():
    raise AssertionError("the arrow-class table filled up")


def test_the_lifting_caches_evict_nothing_at_the_default_bounds(monkeypatch):
    """The lifting group from cold caches: every miss is still in its cache.

    A miss adds one entry and only an eviction removes one, so the run
    evicts nothing exactly when the misses equal the size.  `_glued` holds
    the set-level corners of `_corner`, `braiding` and `_associates`.  The
    table of arrow-class representatives starts empty and never fills.
    The run leaves no cyclic garbage, so reference counting frees all it drops.
    """
    caches = (
        order.maps,
        lifting._glued,
        lifting._corner,
        lifting._power,
        lifting._map_object,
        lifting._arrow_class,
        lifting._facts,
        lifting._parts,
        lifting._census,
        lifting._associates,
    )
    for cache in caches:
        cache.cache_clear()
    lifting._CLASSES.clear()
    monkeypatch.setattr(lifting._CLASSES, "clear", _refuse_to_clear)
    reports = []
    assert garbage_after(lambda: reports.extend(run_group("lifting", SuiteOptions()))) == 0
    assert reports and all(r.ok for r in reports)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == info.currsize < info.maxsize, cache.__name__
    assert lifting._associates.cache_info().misses <= 11**3 + SuiteOptions().samples
    assert 0 < lifting._CLASSES.size < lifting._CLASSES.bound


def test_the_lifting_caches_hold_little_after_the_lifting_group():
    """The lifting memos and `order.maps` hold under 10 MiB after the lifting group.

    A first run warms every cache outside the lifting layer, whatever ran
    before; then the lifting caches and `order.maps` are emptied and a
    second run is traced.  What stays held counts only the blocks
    allocated in `lifting.py` and `order.py`: keys and class arrays, no
    member lists and no apex pairs.  It read 11.17 MiB with them and
    7.56 MiB without.
    """
    assert all(r.ok for r in run_group("lifting", SuiteOptions()))
    clear_lifting_caches()
    order.maps.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert all(r.ok for r in run_group("lifting", SuiteOptions()))
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = [tracemalloc.Filter(True, module.__file__) for module in (lifting, order)]
    held = sum(stat.size for stat in snapshot.filter_traces(mine).statistics("filename"))
    assert held < 10 * 2**20, held


def test_factorize_map_with_rlp_needs_no_stages():
    tr = bounded_factorize(identity_arrow(D2), [CELL, FOLD], 3)
    assert tr.verdict == COMPLETE
    assert tr.stages == ()
    assert tr.left.mapping == (0, 1)
    assert tr.right == tr.original


def test_factorize_attaches_missing_cells():
    f = PreMap(EMPTY, D2, ())
    tr = bounded_factorize(f, [CELL], 2)
    assert tr.verdict == COMPLETE
    assert len(tr.stages) == 1
    assert len(tr.stages[0].problems) == 2
    assert tr.left.target.n == 2
    assert rlp(tr.right, [CELL])
    assert tr.left.then(tr.right).mapping == f.mapping
    assert replay_trace(tr, [CELL]) is True


def test_factorize_dedups_problems_by_generator_symmetry():
    """The two fold squares over the collapse map form one orbit."""
    f = PreMap(D2, PT, (0, 0))
    tr = bounded_factorize(f, [FOLD], 3)
    assert tr.verdict == COMPLETE
    assert len(tr.stages) == 1
    assert len(tr.stages[0].problems) == 1
    assert tr.left.target.n == 1
    assert replay_trace(tr, [FOLD]) is True


def test_factorize_partial_when_out_of_steps():
    f = PreMap(EMPTY, D2, ())
    tr = bounded_factorize(f, [CELL], 0)
    assert tr.verdict == PARTIAL
    assert tr.stages == ()
    assert not rlp(tr.right, [CELL])
    assert replay_trace(tr, [CELL]) is True


def test_replay_rejects_a_flipped_verdict():
    f = PreMap(EMPTY, D2, ())
    done = bounded_factorize(f, [CELL], 2)
    with pytest.raises(VerificationError):
        replay_trace(dataclasses.replace(done, verdict=PARTIAL), [CELL])
    stuck = bounded_factorize(f, [CELL], 0)
    with pytest.raises(VerificationError):
        replay_trace(dataclasses.replace(stuck, verdict=COMPLETE), [CELL])


def test_replay_rejects_wrong_generators():
    tr = bounded_factorize(PreMap(EMPTY, D2, ()), [CELL], 2)
    with pytest.raises(VerificationError):
        replay_trace(tr, [FOLD])


def test_a_stage_of_eleven_cells_replays_after_a_json_round_trip():
    """Block "10" sorts before block "2", and the parser sorts every label."""
    target = Preorder([f"q{i:02d}" for i in range(11)], [1 << i for i in range(11)])
    trace = bounded_factorize(PreMap(EMPTY, target, ()), [CELL], 1)
    assert len(trace.stages[0].problems) == 11
    parsed = parse_structure(json.loads(json.dumps(structure_data(trace), default=list)))
    assert replay_trace(parsed, [CELL]) is True


def test_cell_attach_refuses_a_problem_that_does_not_commute():
    """The glued cell point would need two values under the extended right factor."""
    right = PreMap(PT, C2, (0,))
    with pytest.raises(VerificationError, match="^the extended right factor is not well defined$"):
        cell_attach(right, [identity_arrow(PT)], [(0, (0,), (1,))])


def test_factorized_right_lifts_after_each_gain():
    """Factorizing against the edge generator fills in the order."""
    f = PreMap(D2, C2, (0, 1))
    tr = bounded_factorize(f, [EDGE], 4)
    assert tr.verdict == COMPLETE
    assert rlp(tr.right, [EDGE])
    assert tr.left.then(tr.right).mapping == tr.original.mapping
    assert replay_trace(tr, [EDGE]) is True


# sha256 of each regression trace's canonical structure JSON; a change to
# any stage's points, rows, injections or problems changes its digest.
TRACE_DIGESTS = {
    "attach-two-cells": "2fe2f2946c71b53d705c6062fb8e3c6f072b76d3a6b85be0662b9f6eef25e25f",
    "attach-cells-no-steps": "d8a9c6dc7af15282c676666529e5b7572609f7360bc71cd4f6d69add00430a3c",
    "fold-pair": "b076ad505ffbad54709ad803f0c2355e8b2e954e499df412e05d26caa25a8d76",
    "fold-pair-no-steps": "3253d12a544e7c7b3d8c757ffdf7a21104ec2af7088f8d159691644dd352ef4a",
    "fill-edge": "18487d897a49e612704e869b38f372c558e52940293a8afe5541b72a6f7d8737",
    "fill-edge-no-steps": "cb1ad87b7a69e6bc1eb114bffa30eafbe1e463125f0149f930aa3cd6ccfe3b7a",
    "climb-chain": "399877da2a28aa6fa2faaa64ca211213c32d8dd5eed0884d7174af0fac71e1ec",
    "climb-chain-short": "33f6310d22632557dad68fe4652cbeffe2674e6dddd4cb0097c1f0f29e3561c1",
    "mixed-generators": "6003d59f54de3f2c0360c5f624e822dfded0ba0e46dbeee7c9dda6c852c7fa84",
    "grow-wedge": "a8eda6bd85070ca89ccbaf16ac0693e32a935c5b3ccfa97bdae87205d46fdc08",
    "indiscrete-edge": "cac6d65440b76d7ca39d0d9affdf7d24fd0b9dcee047a3173ec926972b40b673",
    "identity-stays": "47496a07b6ae9d32289971661e0e6e4e95e445b4962486df78f96bcea78bd332",
    "empty-identity": "2126c1c57dc2aa854d021ac046bc1005ee324e028fca009e76bffa7a840e886b",
    "single-cell": "f6dccf5dadb9f5223282239d05f2200d1be1e42ce01de80238dfa4090bd40606",
    "merge-then-order": "c441fdeb5501a58a4b7db99e32eab4c88f54a36d2b11917efb3193c8ff4f55af",
    "grow-under-top": "0e0e7e76809d623926daeb05f5a80dbb0ca297a037d1a824b0b2547b1956f9a7",
    "grow-under-top-no-steps": "35980c946c0cd3502966a16aca24cd797d7bd74f98dd9d6c872c85d20ce9b2a0",
    "two-sided-chain": "55709e882b011686a6bbb412a44e622ab6d353604f3afea7787a56c6afaeceb4",
    "collapse-chain": "5724d10e53ca56c69bb128b5c88a1a618b390f7fa9e6b2c0fd4a526fa73a392d",
    "build-chain-from-nothing": "1008fba6aae248cbd0e95fe77b265287b62547dcccbc58e56ed6e571122ed02c",
}


def test_every_regression_trace_has_its_recorded_bytes():
    cases = soa_regression_cases()
    assert [name for name, _, _, _ in cases] == list(TRACE_DIGESTS)
    for name, f, generators, steps in cases:
        data = canonical_json(structure_data(bounded_factorize(f, generators, steps)))
        assert hashlib.sha256(data.encode()).hexdigest() == TRACE_DIGESTS[name], name
