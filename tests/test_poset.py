"""Posets, downsets, and monotone maps."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.bits import iter_bits, popcount
from finitetop.corpus import all_posets
from finitetop.errors import CarrierMismatchError, CycleError, SizeError, VerificationError
from finitetop.frames import downset_frame
from finitetop.order import fill, isomorphisms, representatives
from finitetop.poset import FinitePoset, PreMap, validate_poset
from finitetop.serialize import parse_structure

from conftest import antichain_poset, certificate, chain_poset, grid_poset


def test_validate_poset_chain():
    p = validate_poset(["a", "b"], [("a", "b")])
    assert p.points == ("a", "b")
    assert p.leq_idx(0, 1)
    assert not p.leq_idx(1, 0)
    assert p.leq_idx(0, 0)


def test_validate_poset_singleton():
    p = validate_poset(["x"], [])
    assert p.n == 1
    assert p.leq_idx(0, 0)


def test_validate_poset_rejects_cycle():
    with pytest.raises(CycleError):
        validate_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_validate_poset_takes_transitive_closure():
    p = validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq_idx(p.index("a"), p.index("c"))


def test_validate_poset_rejects_unknown_labels():
    with pytest.raises(Exception):
        validate_poset(["a"], [("a", "z")])


def test_downset_counts():
    assert len(chain_poset(2).downsets()) == 3
    assert len(antichain_poset(2).downsets()) == 4
    assert len(grid_poset().downsets()) == 6


def _downsets_brute(p):
    """Every subset closed downward, by direct filtering."""
    out = []
    for mask in range(1 << p.n):
        if all(p.down[i] & ~mask == 0 for i in iter_bits(mask)):
            out.append(mask)
    return sorted(out, key=lambda m: (popcount(m), m))


def test_downsets_match_brute_force():
    for p in all_posets(4):
        assert list(p.downsets()) == _downsets_brute(p)


def test_downsets_canonical_order():
    masks = grid_poset().downsets()
    assert list(masks) == sorted(masks, key=lambda m: (popcount(m), m))
    assert masks[0] == 0
    assert masks[-1] == grid_poset().full


def test_downsets_form_a_frame():
    for p in all_posets(5):
        frame = downset_frame(p)
        assert frame.n == len(p.downsets())
        for i in range(frame.n):
            assert frame.leq_idx(frame.bottom, i)
            assert frame.leq_idx(i, frame.top)


def _count_by_size(posets):
    out = {}
    for p in posets:
        out[p.n] = out.get(p.n, 0) + 1
    return out


def test_poset_counts_frozen():
    by_size = _count_by_size(all_posets(7))
    assert by_size == {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def _labelled_poset_certs(n):
    """Certificates of every reflexive antisymmetric transitive relation.

    Pure filtering over all off-diagonal pair choices, independent of the
    grow-by-maximal generator.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    certs = set()
    for bits in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for t, (i, j) in enumerate(pairs):
            if bits >> t & 1:
                rows[i] |= 1 << j
        if any(
            rows[i] >> j & 1 and rows[j] >> i & 1
            for i in range(n)
            for j in range(i + 1, n)
        ):
            continue
        if any(
            rows[j] & ~rows[i]
            for i in range(n)
            for j in iter_bits(rows[i])
        ):
            continue
        certs.add(certificate(tuple(rows)))
    return certs


def test_poset_generator_matches_brute_force():
    for n in range(5):
        generated = {certificate(p.up) for p in all_posets(4) if p.n == n}
        assert generated == _labelled_poset_certs(n)


def test_posets_pairwise_non_isomorphic():
    four = [p for p in all_posets(4) if p.n == 4]
    for a, b in itertools.combinations(four, 2):
        assert next(isomorphisms(a.up, b.up), None) is None


def test_poset_isomorphism_detects_relabelling():
    a = chain_poset(3, ["a", "b", "c"])
    b = chain_poset(3, ["x", "y", "z"])
    iso = next(isomorphisms(a.up, b.up), None)
    assert iso is not None
    assert [b.points[iso[i]] for i in range(3)] == ["x", "y", "z"]


def test_poset_isomorphism_rejects_different_shapes():
    assert next(isomorphisms(chain_poset(3).up, antichain_poset(3).up), None) is None
    assert next(isomorphisms(chain_poset(2).up, chain_poset(3).up), None) is None


def test_linear_extension_is_consistent():
    for p in all_posets(4):
        ext = p.linear_extension
        pos = {i: t for t, i in enumerate(ext)}
        for i in range(p.n):
            for j in iter_bits(p.up[i] & ~(1 << i)):
                assert pos[i] < pos[j]


def test_linear_extension_rejects_a_cyclic_relation():
    with pytest.raises(VerificationError):
        FinitePoset(["a", "b"], [0b11, 0b11]).linear_extension


def test_monotone_map_mismatches_raise():
    c2, c3 = chain_poset(2), chain_poset(3)
    with pytest.raises(CarrierMismatchError):
        PreMap(c2, c3, [0])
    with pytest.raises(CarrierMismatchError):
        PreMap(c2, c3, [0, 1]).then(PreMap(c2, c2, [0, 1]))


def test_monotone_map_count_between_chains():
    c2 = chain_poset(2)
    c3 = chain_poset(3)
    assert len(list(fill(c2.up, c2.up))) == 3
    assert len(list(fill(c2.up, c3.up))) == 6
    assert len(list(fill(c3.up, c2.up))) == 4


def test_monotone_maps_match_brute_force():
    for p in all_posets(3):
        for q in all_posets(3):
            fast = set(fill(p.up, q.up))
            slow = set()
            for mapping in itertools.product(range(q.n), repeat=p.n):
                if all(
                    q.leq_idx(mapping[i], mapping[j])
                    for i in range(p.n)
                    for j in iter_bits(p.up[i])
                ):
                    slow.add(mapping)
            assert fast == slow


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_monotone_composition_associates(k, data):
    p = chain_poset(k)
    maps = list(fill(p.up, p.up))
    f, g, h = (PreMap(p, p, data.draw(st.sampled_from(maps))) for _ in range(3))
    assert f.then(g).mapping == tuple(g.mapping[v] for v in f.mapping)
    assert f.then(g).then(h).mapping == f.then(g.then(h)).mapping


def test_certificate_invariant_under_relabelling():
    p = grid_poset()
    q = validate_poset(
        ["w", "x", "y", "z"],
        [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")],
    )
    assert representatives([p.up, q.up, chain_poset(4).up]) == [p.up, chain_poset(4).up]


def test_from_pairs_is_validate_poset():
    p = parse_structure({"kind": "poset", "points": ["b", "a"], "leq": [["a", "b"]]})
    q = validate_poset(["a", "b"], [("a", "b")])
    assert p.up == q.up and p.points == q.points


def _downsets_by_linear_extension(p):
    """Walk the linear extension; add a point only once its strict predecessors are in."""
    out = []
    ext = p.linear_extension

    def rec(t, mask):
        if t == len(ext):
            out.append(mask)
            return
        i = ext[t]
        rec(t + 1, mask)
        if p.down[i] & ~mask == 1 << i:
            rec(t + 1, mask | 1 << i)

    rec(0, 0)
    return sorted(out, key=lambda m: (popcount(m), m))


def test_downsets_match_the_linear_extension_recursion():
    for p in all_posets(5):
        masks = p.downsets()
        assert list(masks) == _downsets_by_linear_extension(p)
        assert p.downsets(cap=len(masks)) == masks
        with pytest.raises(SizeError, match=f"more than {len(masks) - 1} downsets on {p.n} elements"):
            p.downsets(cap=len(masks) - 1)
