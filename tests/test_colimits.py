"""Frame coproducts, products, distribution, and localic pushouts."""

import collections
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitetop import colimits
from finitetop.bits import iter_bits
from finitetop.colimits import (
    TensorFrame,
    TupleFrame,
    _tensor_action,
    agreeing_pairs,
    copair,
    coproduct,
    distribute_iso,
    product_frames,
    pushout_apex,
    pushout_loc,
    pushout_mediator,
    pushout_square,
)
from finitetop.corpus import all_frames, all_posets, all_spaces, frame_corpus, frames_upto
from finitetop.errors import NotIsoError, VerificationError
from finitetop.frames import (
    FiniteFrame,
    FrameHom,
    chain_frame,
    downset_frame,
    frame_from_poset,
    frame_isomorphism,
    iter_frame_homs,
    right_adjoint,
    two,
)
from finitetop.poset import FinitePoset
from finitetop.spaces import FiniteSpace
from finitetop.spatial import omega
from finitetop.suites import SuiteOptions, run_group, run_suite

from conftest import (
    TableLattice,
    TensorCarrier,
    assert_saturated_oracle,
    diamond_m3,
    frame_tables,
    full_masks,
    garbage_after,
    grid_poset,
    hom_verdict,
    literal_check_hom,
    literal_legs,
    literal_right_adjoint,
    literal_tables,
    prenuclei,
    table_irreducibles,
)


def _small_pairs():
    pool = [f for f in frame_corpus() if f.n <= 4]
    return list(itertools.product(pool, repeat=2))


def test_unit_law_on_corpus():
    for frame in frame_corpus():
        t = coproduct(two(), frame)
        assert frame_isomorphism(t, frame) is not None
        t = coproduct(frame, two())
        assert frame_isomorphism(t, frame) is not None


def test_sierpinski_square_has_six_elements():
    c3 = chain_frame(3)
    t = coproduct(c3, c3)
    assert t.n == 6
    assert frame_isomorphism(t, frame_from_poset(grid_poset())) is None


def test_tensor_with_bottom_is_bottom():
    for left, right in _small_pairs():
        t = coproduct(left, right)
        for x in range(left.n):
            assert t.tensor(x, right.bottom) == t.bottom
        for y in range(right.n):
            assert t.tensor(left.bottom, y) == t.bottom
        assert t.tensor(left.top, right.top) == t.top


def test_tensor_distributes_over_joins_in_each_slot():
    for left, right in _small_pairs():
        t = coproduct(left, right)
        for y in range(right.n):
            for mask in range(1 << left.n):
                joined = t.bottom
                for x in iter_bits(mask):
                    joined = t.join(joined, t.tensor(x, y))
                assert joined == t.tensor(left.join_mask(mask), y)
        for x in range(left.n):
            for mask in range(1 << right.n):
                joined = t.bottom
                for y in iter_bits(mask):
                    joined = t.join(joined, t.tensor(x, y))
                assert joined == t.tensor(x, right.join_mask(mask))


def test_every_element_is_a_join_of_tensors():
    for left, right in _small_pairs():
        t = coproduct(left, right)
        masks = full_masks(t)
        for k in range(t.n):
            acc = t.bottom
            for p in iter_bits(masks[k]):
                acc = t.join(acc, t.tensor(*divmod(p, right.n)))
            assert acc == k


def test_injections_are_certified_homs():
    c3 = chain_frame(3)
    t = coproduct(c3, c3)
    FrameHom(c3, t, t.iota1.mapping)
    FrameHom(c3, t, t.iota2.mapping)
    assert t.iota1.mapping[c3.top] == t.top
    assert t.iota1.mapping[c3.bottom] == t.bottom


def _injection_masks(left, right):
    """The full and reduced masks of every x (x) top and top (x) y, written out.

    The left injection's image of x holds every pair (k, j) with k <= x and
    the right one's of y every pair (i, k) with k <= y; both add the least
    element, the pairs with a bottom coordinate.  The reduced masks hold
    the irreducible pairs (a, b) with irr_left[a] <= x, or irr_right[b] <= y.
    """
    nl, nm = left.n, right.n
    nbar = 0
    for i in range(nl):
        for j in range(nm):
            if i == left.bottom or j == right.bottom:
                nbar |= 1 << (i * nm + j)
    irr_l, irr_r = left.irreducibles, right.irreducibles
    w = len(irr_r)
    iota1 = []
    for x in range(nl):
        full = nbar
        reduced = 0
        for i in range(nl):
            if left.leq_idx(i, x):
                for j in range(nm):
                    full |= 1 << (i * nm + j)
        for a, p in enumerate(irr_l):
            if left.leq_idx(p, x):
                for b in range(w):
                    reduced |= 1 << (a * w + b)
        iota1.append((full, reduced))
    iota2 = []
    for y in range(nm):
        full = nbar
        reduced = 0
        for i in range(nl):
            for j in range(nm):
                if right.leq_idx(j, y):
                    full |= 1 << (i * nm + j)
        for a in range(len(irr_l)):
            for b, q in enumerate(irr_r):
                if right.leq_idx(q, y):
                    reduced |= 1 << (a * w + b)
        iota2.append((full, reduced))
    return iota1, iota2


def test_injections_match_the_written_out_masks():
    """iota1_map and iota2_map land on the elements the old mask formulas named."""
    pool = [f for f in frame_corpus() if f.n <= 4] + [chain_frame(1)]
    for left, right in itertools.product(pool, repeat=2):
        t = coproduct(left, right)
        iota1, iota2 = _injection_masks(left, right)
        masks = full_masks(t)
        assert [(masks[k], t.family[k]) for k in t.iota1_map] == iota1
        assert [(masks[k], t.family[k]) for k in t.iota2_map] == iota2


def test_a_dropped_coproduct_leaves_no_cyclic_garbage():
    """The tensor holds its injections as mappings, so nothing points back at it."""
    c3 = chain_frame(3)
    b4 = product_frames([two(), two()])

    def build_and_use():
        t = coproduct(c3, b4)
        copair(t.iota1, t.iota2, tensor=t)

    assert garbage_after(lambda: coproduct(c3, b4)) == 0
    assert garbage_after(build_and_use) == 0


def _product_poset(left, right):
    """The product order of two posets, pairs laid out row-major."""
    labels = [f"({a},{b})" for a in left.points for b in right.points]
    rows = []
    for i in range(left.n):
        for j in range(right.n):
            row = 0
            for k in iter_bits(left.up[i]):
                row |= right.up[j] << (k * right.n)
            rows.append(row)
    return FinitePoset(labels, rows)


def _product_downsets(left, right):
    return _product_poset(left.order, right.order).downsets()


def test_sigma0_is_identity_on_finite_downsets():
    c3 = chain_frame(3)
    for mask in _product_downsets(c3, c3):
        sigma0, _, _ = prenuclei(c3, c3, mask)
        assert sigma0 == mask


def test_prenuclei_passes_are_inflationary_downset_maps():
    c3 = chain_frame(3)
    carrier = TensorCarrier(c3, c3)
    for mask in _product_downsets(c3, c3):
        for out in prenuclei(c3, c3, mask):
            assert out & mask == mask
            assert carrier.is_downset(out)


def test_saturate_is_a_closure_operator():
    c3 = chain_frame(3)
    downs = _product_downsets(c3, c3)
    carrier = TensorCarrier(c3, c3)
    sat = {m: carrier.saturate(m) for m in downs}
    for m in downs:
        assert sat[m] & m == m
        assert sat[sat[m]] == sat[m]
    for a in downs:
        for b in downs:
            if a & ~b == 0:
                assert sat[a] & ~sat[b] == 0


def test_saturated_masks_are_fixed_by_all_passes():
    c3 = chain_frame(3)
    t = coproduct(c3, c3)
    carrier = TensorCarrier(c3, c3)
    for m in full_masks(t):
        assert prenuclei(c3, c3, m) == (m, m, m)
        assert carrier.saturate(m) == m


def test_elements_are_exactly_the_saturated_downsets():
    for left, right in [
        (two(), two()),
        (two(), chain_frame(3)),
        (chain_frame(3), chain_frame(3)),
        (two(), frame_from_poset(grid_poset())),
    ]:
        carrier = TensorCarrier(left, right)
        fixed = {
            m
            for m in _product_downsets(left, right)
            if carrier.saturate(m) == m
        }
        t = coproduct(left, right)
        assert set(full_masks(t)) == fixed


def test_single_generator_saturation_collapses_to_bottom():
    c3 = chain_frame(3)
    t = coproduct(c3, c3)
    carrier = TensorCarrier(c3, c3)
    mask = carrier.down[carrier.pos(1, c3.bottom)]
    assert carrier.saturate(mask) == full_masks(t)[t.bottom]


def test_copair_codiagonal_is_meet():
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    t = coproduct(c3, c3)
    h = copair(ident, ident, tensor=t)
    for x in range(3):
        for y in range(3):
            assert h.mapping[t.tensor(x, y)] == c3.meet(x, y)
    assert h.mapping[t.tensor(1, 2)] == 1
    assert h.mapping[t.bottom] == c3.bottom


def test_copair_recovers_the_injection_cocone():
    c3 = chain_frame(3)
    t = coproduct(c3, c3)
    h = copair(t.iota1, t.iota2, tensor=t)
    assert h.mapping == tuple(range(t.n))


def test_copair_is_the_unique_mediator():
    a = two()
    c3 = chain_frame(3)
    t = coproduct(a, a)
    for f in iter_frame_homs(a, c3):
        for g in iter_frame_homs(a, c3):
            h = copair(f, g, tensor=t)
            matches = [
                k.mapping
                for k in iter_frame_homs(t, c3)
                if t.iota1.then(k) == f and t.iota2.then(k) == g
            ]
            assert matches == [h.mapping]


def _full_mask_copair(f, g, tensor):
    """The join of f(i) meet g(j) over every pair (i, j) of each element's full mask."""
    codomain = f.target
    mapping = []
    for m in full_masks(tensor):
        acc = codomain.bottom
        for p in iter_bits(m):
            i, j = divmod(p, tensor.right.n)
            acc = codomain.join(acc, codomain.meet(f.mapping[i], g.mapping[j]))
        mapping.append(acc)
    return tuple(mapping)


def test_copair_matches_the_full_mask_join_on_corpus_cocones():
    """Joining over the irreducible pairs gives the join over every member pair."""
    pool = [f for f in frame_corpus() if f.n <= 4]
    cocones = 0
    for left, right in itertools.product(pool, repeat=2):
        t = coproduct(left, right)
        for codomain in pool:
            for f in iter_frame_homs(left, codomain):
                for g in iter_frame_homs(right, codomain):
                    assert copair(f, g, tensor=t).mapping == _full_mask_copair(f, g, t)
                    cocones += 1
    assert cocones > 100


def test_copair_needs_a_common_codomain():
    c3 = chain_frame(3)
    f = FrameHom(c3, c3, (0, 1, 2))
    g = FrameHom(c3, two(), (0, 0, 1))
    with pytest.raises(ValueError):
        copair(f, g)


def test_map_tensor_of_identity():
    """(id tensor id) is the identity on the coproduct."""
    c3 = chain_frame(3)
    t = coproduct(c3, c3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    assert _tensor_action(t, t, ident) == list(range(t.n))


def test_map_tensor_against_copair_oracle():
    """(id tensor hom) sends each element where the copair of the legs does."""
    c3 = chain_frame(3)
    for target_right in (two(), c3):
        for hom in iter_frame_homs(c3, target_right):
            source = coproduct(c3, c3)
            target = coproduct(c3, target_right)
            oracle = copair(target.iota1, hom.then(target.iota2), tensor=source)
            assert _tensor_action(source, target, hom) == list(oracle.mapping)


def test_empty_product_is_the_one_point_frame():
    p = product_frames([])
    assert p.n == 1


def test_product_of_two_and_two_is_powerset():
    p = product_frames([two(), two()])
    b4 = frame_from_poset(grid_poset())
    assert frame_isomorphism(p, b4) is not None
    for k in range(2):
        FrameHom(p, two(), p.projection(k).mapping)


def test_product_pair_is_the_unique_mediator():
    c3 = chain_frame(3)
    p = product_frames([two(), two()])
    for f in iter_frame_homs(c3, two()):
        for g in iter_frame_homs(c3, two()):
            h = p.pair([f, g])
            assert h.then(p.projection(0)) == f
            assert h.then(p.projection(1)) == g
            matches = [
                k.mapping
                for k in iter_frame_homs(c3, p)
                if k.then(p.projection(0)) == f and k.then(p.projection(1)) == g
            ]
            assert matches == [h.mapping]


def _pieces(left, m1, m2):
    """The tensors L (x) (M1 x M2), L (x) M1 and L (x) M2 `distribute_iso` takes."""
    return coproduct(left, product_frames([m1, m2])), coproduct(left, m1), coproduct(left, m2)


def test_a_non_monotone_distribution_map_is_refused(monkeypatch):
    """A killing mutant for ProductDistributeLocale.

    Swapping the images of bottom and top in every tensor action keeps the
    distribution map a bijection but not an order isomorphism.
    """
    action = colimits._tensor_action

    def swapped(source, target, hom):
        mapping = action(source, target, hom)
        b, t = source.bottom, source.top
        mapping[b], mapping[t] = mapping[t], mapping[b]
        return mapping

    monkeypatch.setattr(colimits, "_tensor_action", swapped)
    with pytest.raises(NotIsoError, match="not an order isomorphism"):
        distribute_iso(*_pieces(chain_frame(3), two(), chain_frame(3)))
    report = run_suite("ProductDistributeLocale", SuiteOptions(max_frame_size=2))
    assert not report.ok
    assert report.failures


@pytest.mark.parametrize("mutant", ["merge", "swap"])
def test_a_distribution_map_that_is_no_bijection_or_no_hom_is_refused(monkeypatch, mutant):
    """Both refusals of the hom test's certificate, with the same message.

    "merge" sends top where a middle element goes, so the map is no
    bijection; "swap" exchanges the images of two comparable middle
    elements, a bijection keeping bottom and top that is not monotone.
    """
    action = colimits._tensor_action

    def changed(source, target, hom):
        mapping = action(source, target, hom)
        middle = [x for x in range(source.n) if x not in (source.bottom, source.top)]
        x = middle[0]
        y = next(y for y in middle if y != x and source.leq_idx(x, y))
        if mutant == "merge":
            mapping[source.top] = mapping[x]
        else:
            mapping[x], mapping[y] = mapping[y], mapping[x]
        return mapping

    monkeypatch.setattr(colimits, "_tensor_action", changed)
    with pytest.raises(NotIsoError, match="^the distribution map is not an order isomorphism$"):
        distribute_iso(*_pieces(chain_frame(3), two(), chain_frame(3)))


def test_distribute_iso_small_triple():
    ds = distribute_iso(*_pieces(chain_frame(3), two(), chain_frame(3)))
    src = ds.forward.source
    tgt = ds.forward.target
    assert src.n == tgt.n
    for k in range(src.n):
        assert ds.inverse.mapping[ds.forward.mapping[k]] == k
    for k in range(tgt.n):
        assert ds.forward.mapping[ds.inverse.mapping[k]] == k
    FrameHom(src, tgt, ds.forward.mapping)
    FrameHom(tgt, src, ds.inverse.mapping)


def test_distribute_iso_reads_its_triple_off_its_pieces():
    """Pieces built twice give the same maps, the source is the given
    L (x) (M1 x M2), and pieces of no single triple are refused."""
    c3, t = chain_frame(3), two()
    pieces = _pieces(c3, t, c3)
    ds = distribute_iso(*pieces)
    fresh = distribute_iso(*_pieces(c3, t, c3))
    assert ds.forward.mapping == fresh.forward.mapping
    assert ds.inverse.mapping == fresh.inverse.mapping
    assert ds.forward.source is pieces[0]
    assert ds.forward.target.factors == pieces[1:]
    source, t1, t2 = pieces
    for wrong in (
        (source, t2, t1),
        (source, t1, coproduct(t, c3)),
        (coproduct(c3, c3), t1, t2),
        (_pieces(c3, c3, t)[0], t1, t2),
    ):
        with pytest.raises(ValueError, match="^the given pieces do not match the triple$"):
            distribute_iso(*wrong)


def test_distribute_iso_refuses_a_pushout_apex_for_the_product():
    """A pushout apex is a `TupleFrame` on its two frames, as their product
    is.  The diagonal apex of id: c3 -> c3 is not on every pair, so a tensor
    with it is no L (x) (M1 x M2) and is refused as pieces of no triple."""
    c3, t = chain_frame(3), two()
    ident = FrameHom(c3, c3, (0, 1, 2))
    apex = pushout_loc(ident, ident).apex
    assert isinstance(apex, TupleFrame)
    assert apex.factors == (c3, c3)
    assert apex.tuples == ((0, 0), (1, 1), (2, 2))
    with pytest.raises(ValueError, match="^the given pieces do not match the triple$"):
        distribute_iso(coproduct(t, apex), coproduct(t, c3), coproduct(t, c3))


def test_pushout_loc_is_its_apex_half_then_its_square():
    """On every span of frames of at most 3 elements, the apex half on
    (B, C, pairs) gives the fields `pushout_loc` returns, and the square
    half accepts the span's own right adjoints and refuses legs swapped
    wherever that changes the composite."""
    pool = frames_upto(3)
    refused = spans = 0
    for a in pool:
        for b in pool:
            for c in pool:
                for f in iter_frame_homs(b, a):
                    for g in iter_frame_homs(c, a):
                        result = pushout_loc(f, g)
                        apex, proj_b, proj_c, leg_b, leg_c = pushout_apex(
                            b, c, agreeing_pairs(f, g)
                        )
                        assert apex.tuples == result.apex.tuples
                        assert apex.order == result.apex.order
                        assert apex.labels == result.apex.labels
                        assert (proj_b.mapping, proj_c.mapping) == (
                            result.proj_b.mapping,
                            result.proj_c.mapping,
                        )
                        assert (leg_b.right, leg_c.right) == (
                            result.leg_b.right,
                            result.leg_c.right,
                        )
                        f_right = right_adjoint(f).right
                        g_right = right_adjoint(g).right
                        pushout_square((leg_b.right, leg_c.right), f_right, g_right)
                        if b == c and [leg_c.right[y] for y in f_right] != [
                            leg_b.right[y] for y in g_right
                        ]:
                            with pytest.raises(
                                VerificationError, match="^the pushout square does not commute$"
                            ):
                                pushout_square((leg_c.right, leg_b.right), f_right, g_right)
                            refused += 1
                        spans += 1
    assert (spans, refused) == (34, 8)


def test_pushout_of_identity_span():
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    result = pushout_loc(ident, ident)
    assert frame_isomorphism(result.apex, c3) is not None


def test_pushout_over_trivial_frame_is_the_product():
    one = all_frames(1)[0]
    c3 = chain_frame(3)
    b4 = frame_from_poset(grid_poset())
    f = FrameHom(c3, one, (0, 0, 0))
    g = FrameHom(b4, one, (0, 0, 0, 0))
    result = pushout_loc(f, g)
    assert frame_isomorphism(result.apex, product_frames([c3, b4])) is not None


def test_pushout_preserves_localic_injections():
    small = [f for f in frame_corpus() if f.n <= 3]
    cases = 0
    for a in small:
        for b in small:
            for f_left in iter_frame_homs(b, a):
                if len(set(f_left.mapping)) != f_left.target.n:
                    continue
                for c in small:
                    for g_left in iter_frame_homs(c, a):
                        result = pushout_loc(f_left, g_left)
                        assert len(set(result.proj_c.mapping)) == result.proj_c.target.n
                        cases += 1
    assert cases > 20


def _componentwise_apex(result):
    """The apex order and tables of the agreement pairs, one pair at a time.

    The componentwise order as rows, the frame `frame_from_poset` builds on
    it, and the componentwise meet and join of every two pairs, looked up.
    """
    b_frame = result.span_left.source
    c_frame = result.span_right.source
    pairs = result.apex.tuples
    rows = []
    for b, c in pairs:
        row = 0
        for t, (b2, c2) in enumerate(pairs):
            if b_frame.leq_idx(b, b2) and c_frame.leq_idx(c, c2):
                row |= 1 << t
        rows.append(row)
    labels = [f"({b_frame.labels[b]},{c_frame.labels[c]})" for b, c in pairs]
    frame = frame_from_poset(FinitePoset(labels, rows, validate=False))
    index = {p: k for k, p in enumerate(pairs)}
    meet = tuple(
        tuple(index[(b_frame.meet(b, b2), c_frame.meet(c, c2))] for b2, c2 in pairs)
        for b, c in pairs
    )
    join = tuple(
        tuple(index[(b_frame.join(b, b2), c_frame.join(c, c2))] for b2, c2 in pairs)
        for b, c in pairs
    )
    return frame, meet, join


def test_pushout_apex_matches_the_componentwise_build():
    """Every span of frames_upto(4): the set-family apex is the componentwise one."""
    pool = frames_upto(4)
    spans = 0
    for a in pool:
        for b in pool:
            for c in pool:
                for f in iter_frame_homs(b, a):
                    for g in iter_frame_homs(c, a):
                        result = pushout_loc(f, g)
                        frame, meet, join = _componentwise_apex(result)
                        apex = result.apex
                        assert apex.order == frame.order
                        assert frame_tables(apex) == frame_tables(frame) == (join, meet)
                        assert (apex.bottom, apex.top) == (frame.bottom, frame.top)
                        spans += 1
    assert spans > 100


def test_pushout_legs_match_the_pair_loops_on_every_span_of_the_default_bounds():
    """Every span LocPushout sweeps at frame size 3: both legs, by the stated
    formula one pair at a time, are the certified legs and the pair-loop
    right adjoints of the projections."""
    pool = frames_upto(3)
    spans = 0
    for a in pool:
        for b in pool:
            for c in pool:
                for f in iter_frame_homs(b, a):
                    for g in iter_frame_homs(c, a):
                        result = pushout_loc(f, g)
                        legs = (result.leg_b.right, result.leg_c.right)
                        assert legs == literal_legs(result)
                        assert legs == (
                            literal_right_adjoint(result.proj_b),
                            literal_right_adjoint(result.proj_c),
                        )
                        spans += 1
    assert spans == 34


def test_the_leg_formula_refuses_an_adjoint_that_skipped_its_law(monkeypatch):
    """The leg cross-check is live: projection adjoints that are off by one
    value, handed over without their law check, are refused."""

    def unchecked_off_by_one(hom):
        right = list(literal_right_adjoint(hom))
        right[-1] = (right[-1] + 1) % hom.source.n
        return SimpleNamespace(right=tuple(right))

    monkeypatch.setattr(colimits, "right_adjoint", unchecked_off_by_one)
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    with pytest.raises(VerificationError, match="^the stated leg formula disagrees with the adjoint$"):
        pushout_loc(ident, ident)


def test_the_hom_test_matches_the_pair_sweep_into_a_924_element_coproduct():
    """The injections of chain7 (x) chain7 and maps one value away from them.

    Each value of each injection is moved, one at a time, to every tensor
    in its row (iota1) or column (iota2) and to eight seeded random
    elements.
    """
    c7 = chain_frame(7)
    t = coproduct(c7, c7)
    assert t.n == 924
    rng = random.Random(924)
    maps = []
    for inj, near in ((t.iota1_map, t.tensor), (t.iota2_map, lambda q, p: t.tensor(p, q))):
        maps.append(inj)
        for x in range(7):
            for value in [near(x, y) for y in range(7)] + rng.sample(range(t.n), 8):
                mapping = list(inj)
                mapping[x] = value
                maps.append(tuple(mapping))
    verdicts = collections.Counter()
    for mapping in maps:
        expected = hom_verdict(literal_check_hom, c7, t, mapping)
        assert hom_verdict(FrameHom, c7, t, mapping) == expected
        verdicts[expected is None] += 1
    assert verdicts == {True: 41, False: 171}


def test_pushout_mediator_triangles_and_uniqueness():
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    result = pushout_loc(ident, ident)
    u = FrameHom(c3, c3, (0, 1, 2))
    h = pushout_mediator(result, u, u)
    assert h.then(result.proj_b) == u
    assert h.then(result.proj_c) == u
    others = [
        k.mapping
        for k in iter_frame_homs(c3, result.apex)
        if k.then(result.proj_b) == u and k.then(result.proj_c) == u
    ]
    assert others == [h.mapping]


def test_pushout_mediator_rejects_non_cocones():
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    collapse = FrameHom(c3, c3, (0, 0, 2))
    result = pushout_loc(ident, ident)
    with pytest.raises(ValueError):
        pushout_mediator(result, ident, collapse)


def test_tensor_orders_revalidate_as_frames():
    pool = [f for f in frame_corpus() if f.n <= 4]
    for left, right in itertools.product(pool, repeat=2):
        t = coproduct(left, right)
        rebuilt = frame_from_poset(t.order)
        assert frame_tables(rebuilt) == frame_tables(t) == literal_tables(t.order)
        assert rebuilt.bottom == t.bottom
        assert rebuilt.top == t.top


def _literal_product_tables(factors):
    """The product's tuples and tables, one tuple and index lookup per pair."""
    tuples = list(itertools.product(*(range(f.n) for f in factors)))
    index = {t: k for k, t in enumerate(tuples)}

    def table(op):
        return tuple(
            tuple(
                index[tuple(getattr(f, op)(a[k], b[k]) for k, f in enumerate(factors))]
                for b in tuples
            )
            for a in tuples
        )

    return tuple(tuples), table("join"), table("meet")


# corpus frames, a longer chain, and a tensor and a product as factors
PRODUCT_FACTORS = all_frames(5) + (
    chain_frame(6),
    coproduct(two(), chain_frame(3)),
    product_frames([two(), chain_frame(3)]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(PRODUCT_FACTORS), max_size=3))
@example([])
def test_product_tables_match_the_literal_tuple_build(factors):
    p = product_frames(factors)
    tuples, join, meet = _literal_product_tables(factors)
    assert p.tuples == tuples
    assert frame_tables(p) == (join, meet)


def _large_frame(kind):
    """A product, a tensor or an Omega of 625 to 1,024 elements."""
    if kind == "product":
        return product_frames([chain_frame(25), chain_frame(25)])
    if kind == "tensor":
        return coproduct(chain_frame(6), chain_frame(8))
    # the discrete 10-point space: 1,024 opens
    return omega(FiniteSpace([f"x{i}" for i in range(10)], [1 << i for i in range(10)]))


def _pushout_apexes(pool):
    for a in pool:
        for b in pool:
            for c in pool:
                for f in iter_frame_homs(b, a):
                    for g in iter_frame_homs(c, a):
                        yield pushout_loc(f, g).apex


FAMILY_CORPORA = {
    "omega": lambda: (omega(s) for s in all_spaces(3)),
    "downsets": lambda: (downset_frame(p) for p in all_posets(4)),
    "coproduct": lambda: itertools.starmap(coproduct, itertools.product(frames_upto(4), repeat=2)),
    "product": lambda: (
        product_frames(pair) for pair in itertools.product(frames_upto(4), repeat=2)
    ),
    "pushout": lambda: _pushout_apexes(frames_upto(3)),
    "large": lambda: map(_large_frame, ("product", "tensor", "omega")),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_CORPORA))
def test_family_irreducibles_match_the_table_definition(kind):
    """The kernel reads the irreducibles off the family; the tables agree on every corpus frame."""
    count = 0
    for frame in FAMILY_CORPORA[kind]():
        assert "irreducibles" in frame.__dict__
        assert frame.irreducibles == table_irreducibles(frame)
        count += 1
    assert count >= 3


@pytest.mark.parametrize(
    "left, right",
    [
        (lambda: chain_frame(7), lambda: chain_frame(7)),
        (lambda: chain_frame(4), lambda: product_frames([chain_frame(4)] * 3)),
    ],
    ids=["chain7-chain7", "chain4-chain4cubed"],
)
def test_coproduct_masks_are_saturated_above_the_check_limit(left, right):
    """Every full mask is saturated, at 924 and 8,000 elements.

    Above 512 elements, the old limit of the run-time saturation check.
    """
    t = coproduct(left(), right())
    assert t.n > 512
    carrier = TensorCarrier(t.left, t.right)
    assert all(carrier.saturate(m) == m for m in full_masks(t))


def _labels(masks):
    return tuple(f"m{m}" for m in masks)


def test_the_family_kernel_builds_a_powerset():
    masks = (0b00, 0b01, 0b10, 0b11)
    frame = FiniteFrame(_labels(masks), masks)
    assert frame.family == masks
    assert frame.index == {m: k for k, m in enumerate(masks)}
    assert frame.order.up == (0b1111, 0b1010, 0b1100, 0b1000)
    assert frame.join(1, 2) == 3 and frame.meet(1, 2) == 0
    assert (frame.bottom, frame.top) == (0, 3)
    assert frame.irreducibles == (1, 2)


@pytest.mark.parametrize(
    "masks, message",
    [
        ((0b00, 0b01, 0b10), "the family misses the union of 'm1' and 'm2'"),
        ((0b01, 0b10, 0b11), "the family misses the intersection of 'm1' and 'm2'"),
        ((), "the family has no least or no greatest member"),
    ],
    ids=["union", "intersection", "empty"],
)
def test_the_family_kernel_refuses_a_family_that_is_not_a_lattice_of_sets(masks, message):
    with pytest.raises(VerificationError, match=f"^{message}$"):
        FiniteFrame(_labels(masks), masks)


def test_the_lazy_family_kernel_refuses_a_family_with_no_least_member():
    """Closure is checked at build, before the bounds, on a large family too.

    601 singletons have no least member, but their first missing union is
    named first.
    """
    masks = tuple(1 << k for k in range(601))
    with pytest.raises(VerificationError, match="^the family misses the union of 'm1' and 'm2'$"):
        FiniteFrame(_labels(masks), masks)


def test_a_missing_union_above_the_limit_is_refused_at_build():
    """601 members, the empty set, 599 singletons and their union: the first missing union is named."""
    singletons = tuple(1 << k for k in range(599))
    masks = (0,) + singletons + ((1 << len(singletons)) - 1,)
    with pytest.raises(VerificationError, match="^the family misses the union of 'm1' and 'm2'$"):
        FiniteFrame(_labels(masks), masks)


def test_a_product_with_a_non_distributive_factor_is_refused_above_the_limit():
    """M3 x chain(121), of 605 elements, is refused at build as a small product is."""
    m3 = TableLattice(diamond_m3())
    assert m3.n * 121 == 605
    with pytest.raises(VerificationError, match="misses the union"):
        product_frames([m3, chain_frame(121)])


def test_a_product_with_a_non_distributive_factor_is_refused():
    """Birkhoff masks of M3 miss a union, so the kernel refuses the product."""
    m3 = TableLattice(diamond_m3())
    with pytest.raises(VerificationError, match="misses the union"):
        product_frames([two(), m3])


def test_every_coproduct_of_the_frame_groups_passes_the_saturation_oracle(monkeypatch):
    """The frames, colimits and spatial groups at the default bounds and at frame size 4.

    Every report is ok, no group leaves cyclic garbage, and every tensor
    the run builds matches literal saturation on its carriers' product.
    Each tensor is checked as it is built and only counted, so no tensor
    is held past its run and a cycle through one still shows as garbage.
    ProductDistributeLocale builds each L (x) M once per run, so the counts
    are those of the distinct tensors the suites build (175 and 487 when
    it built both two-factor tensors for every triple).
    """
    counts = []
    init = TensorFrame.__init__

    def check(frame, *args, **kwargs):
        init(frame, *args, **kwargs)
        assert_saturated_oracle(frame)
        counts[-1] += 1

    monkeypatch.setattr(TensorFrame, "__init__", check)
    for opt in (SuiteOptions(), SuiteOptions(max_frame_size=4)):
        counts.append(0)
        for group in ("frames", "colimits", "spatial"):
            reports = []
            assert garbage_after(lambda: reports.extend(run_group(group, opt))) == 0
            assert reports and all(r.ok for r in reports)
    assert counts == [130, 262]
