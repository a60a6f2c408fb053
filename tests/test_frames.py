"""Frames, homomorphisms, adjoints, and nuclei."""

import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.bits import iter_bits
from finitetop.colimits import coproduct, product_frames
from finitetop.corpus import all_frames, all_lattices, all_posets, all_spaces, frame_corpus, frames_upto
from finitetop.errors import (
    CarrierMismatchError,
    NotDistributiveError,
    NotHomError,
    NotLatticeError,
    NotPrenucleusError,
    VerificationError,
)
from finitetop.frames import (
    FiniteFrame,
    FrameHom,
    GaloisConnection,
    Prenucleus,
    _is_closed,
    _point_generators,
    chain_frame,
    distributivity_witness,
    downset_frame,
    frame_from_poset,
    frame_isomorphism,
    iter_frame_homs,
    nucleus_from_prenucleus,
    prenucleus_violation,
    right_adjoint,
    two,
)
from finitetop.order import inclusion_rows, sort_labels, transitive_closure, transpose
from finitetop.poset import FinitePoset, mask_label, validate_poset
from finitetop.spaces import space_from_preorder
from finitetop.spatial import omega

from conftest import (
    TableLattice,
    antichain_poset,
    chain_poset,
    diamond_m3,
    downset_frames,
    frame_tables,
    greatest_of,
    grid_poset,
    hom_verdict,
    least_of,
    literal_adjunction_law,
    literal_check_hom,
    literal_right_adjoint,
    literal_tables,
    pentagon_n5,
    table_irreducibles,
)


def test_chain_frame_tables():
    c3 = chain_frame(3)
    assert c3.bottom == 0
    assert c3.top == 2
    assert c3.meet(1, 2) == 1
    assert c3.join(1, 2) == 2
    assert c3.meet(0, 1) == 0
    assert c3.join_mask(0) == c3.bottom
    assert c3.meet_mask(0) == c3.top


def test_diamond_is_not_distributive():
    with pytest.raises(NotDistributiveError):
        frame_from_poset(diamond_m3())


def test_pentagon_is_not_distributive():
    with pytest.raises(NotDistributiveError):
        frame_from_poset(pentagon_n5())


def test_non_lattices_are_rejected():
    with pytest.raises(NotLatticeError):
        frame_from_poset(antichain_poset(2))
    with pytest.raises(NotLatticeError):
        frame_from_poset(validate_poset([], []))


def test_powerset_of_two_is_a_frame():
    b4 = frame_from_poset(grid_poset())
    assert b4.n == 4
    atoms = {b4.order.index("a"), b4.order.index("b")}
    assert set(b4.irreducibles) == atoms


def test_frame_counts_frozen():
    sizes = {}
    for f in all_frames(5):
        sizes[f.n] = sizes.get(f.n, 0) + 1
    assert sizes == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}
    assert len(frame_corpus()) == 8
    lattices = all_lattices(5)
    sizes = {}
    for p, _ in lattices:
        sizes[p.n] = sizes.get(p.n, 0) + 1
    assert sizes == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5}
    # the frames are the ones the lattice pass built, on the lattices' orders
    kept = [f for _, f in lattices if f is not None]
    assert len(kept) == len(all_frames(5))
    assert all(a is b for a, b in zip(kept, all_frames(5)))
    assert all(f is None or f.order.up == p.up for p, f in lattices)


def test_infinitary_distributivity_on_corpus():
    """All-subset joins distribute over meets, licensing the binary check."""
    for frame in frame_corpus():
        for a in range(frame.n):
            for mask in range(1 << frame.n):
                lhs = frame.meet(a, frame.join_mask(mask))
                rhs = frame.bottom
                for s in iter_bits(mask):
                    rhs = frame.join(rhs, frame.meet(a, s))
                assert lhs == rhs


def test_identity_hom_and_initiality():
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    assert ident.mapping == (0, 1, 2)
    t = two()
    initial = list(iter_frame_homs(t, c3))
    assert len(initial) == 1
    assert initial[0].mapping == (0, 2)


def test_chain_to_two_has_both_collapses():
    c3 = chain_frame(3)
    t = two()
    homs = sorted(h.mapping for h in iter_frame_homs(c3, t))
    assert homs == [(0, 0, 1), (0, 1, 1)]
    for mapping in homs:
        FrameHom(c3, t, mapping)


def test_hom_counts_from_powerset():
    b4 = frame_from_poset(grid_poset())
    t = two()
    assert len(list(iter_frame_homs(b4, t))) == 2
    assert len(list(iter_frame_homs(t, b4))) == 1


def test_bad_homs_are_rejected():
    c3 = chain_frame(3)
    with pytest.raises(NotHomError):
        FrameHom(c3, c3, (0, 2, 1))
    with pytest.raises(NotHomError):
        FrameHom(c3, c3, (1, 1, 2))


def test_composing_homs_needs_a_matching_middle_frame():
    f2, f3 = chain_frame(2), chain_frame(3)
    c2 = FrameHom(f2, f2, range(f2.n))
    c3 = FrameHom(f3, f3, range(f3.n))
    with pytest.raises(CarrierMismatchError):
        c2.then(c3)


def test_right_adjoint_of_identity():
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    gc = right_adjoint(ident)
    assert gc.right == (0, 1, 2)


def test_right_adjoint_of_unit_inclusion():
    c3 = chain_frame(3)
    f = FrameHom(two(), c3, (0, 2))
    gc = right_adjoint(f)
    assert gc.right == (0, 0, 1)


def test_galois_laws_hold_on_small_corpus():
    for src in all_frames(4):
        for tgt in all_frames(4):
            for hom in iter_frame_homs(src, tgt):
                laws = right_adjoint(hom).check_laws()
                assert all(laws.values()), laws


def test_galois_rejects_wrong_right_adjoint():
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    with pytest.raises(VerificationError):
        GaloisConnection(ident, (0, 0, 2))


@pytest.mark.parametrize(
    "right, message",
    [
        ((0, 1, 2, 2), "right map length does not match the target"),
        ((0, 1), "right map length does not match the target"),
        ((0, -1, 2), "-1 is not an element of the source"),
        ((0, 3, 2), "3 is not an element of the source"),
    ],
)
def test_galois_refuses_a_right_map_that_is_not_a_map_of_the_carriers(right, message):
    c3 = chain_frame(3)
    ident = FrameHom(c3, c3, (0, 1, 2))
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        GaloisConnection(ident, right)


def _galois_verdict(left, right):
    """None when GaloisConnection accepts the right map, else its message."""
    try:
        GaloisConnection(left, right)
    except VerificationError as exc:
        return str(exc)
    return None


def test_right_adjoints_and_the_law_match_the_pair_loops_on_every_small_map():
    """Every hom between frames of at most 4 elements, and every right map of it.

    The row adjoint is the pair-loop adjoint, and the row law accepts a
    right map exactly when the pair loop does: only the adjoint itself.
    """
    pool = all_frames(4)
    homs = 0
    tried = 0
    for source in pool:
        for target in pool:
            for hom in iter_frame_homs(source, target):
                homs += 1
                adjoint = right_adjoint(hom).right
                assert adjoint == literal_right_adjoint(hom)
                for right in itertools.product(range(source.n), repeat=target.n):
                    expected = None if literal_adjunction_law(hom, right) else "adjunction law fails"
                    assert _galois_verdict(hom, right) == expected
                    assert (expected is None) == (right == adjoint)
                    tried += 1
    assert (homs, tried) == (60, 7797)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_right_adjoints_match_the_pair_loop_on_built_frames(data):
    """Tensors, products and downset frames, with perturbed right maps."""
    source = data.draw(built_frames())
    target = data.draw(built_frames())
    homs = list(iter_frame_homs(source, target))
    if not homs:
        return
    hom = data.draw(st.sampled_from(homs))
    adjoint = right_adjoint(hom).right
    assert adjoint == literal_right_adjoint(hom)
    right = list(adjoint)
    for _ in range(data.draw(st.integers(0, 2))):
        right[data.draw(st.integers(0, target.n - 1))] = data.draw(st.integers(0, source.n - 1))
    expected = None if literal_adjunction_law(hom, right) else "adjunction law fails"
    assert _galois_verdict(hom, right) == expected


def test_prenucleus_identity_and_constant_top():
    c3 = chain_frame(3)
    assert prenucleus_violation(c3, (0, 1, 2)) is None
    assert prenucleus_violation(c3, (2, 2, 2)) is None
    Prenucleus(c3, (0, 1, 2))
    Prenucleus(c3, (2, 2, 2))


def test_prenucleus_rejects_deflation():
    c3 = chain_frame(3)
    with pytest.raises(NotPrenucleusError):
        Prenucleus(c3, (0, 0, 2))


def test_prenucleus_rejects_meet_law_failure():
    b4 = frame_from_poset(grid_poset())
    idx = b4.order.index
    mapping = [0] * 4
    mapping[idx("0")] = idx("0")
    mapping[idx("a")] = idx("1")
    mapping[idx("b")] = idx("b")
    mapping[idx("1")] = idx("1")
    assert prenucleus_violation(b4, mapping) is not None
    with pytest.raises(NotPrenucleusError):
        Prenucleus(b4, mapping)


def test_nucleus_from_bump_prenucleus():
    c3 = chain_frame(3)
    pre = Prenucleus(c3, (1, 1, 2))
    k = nucleus_from_prenucleus(pre)
    assert k.mapping == (1, 1, 2)
    assert k.fixed_mask == 0b110


def test_nucleus_of_identity_is_identity():
    for frame in frame_corpus():
        ident = tuple(range(frame.n))
        k = nucleus_from_prenucleus(Prenucleus(frame, ident))
        assert k.mapping == ident


def _iterate_to_closure(frame, mapping):
    cur = tuple(mapping)
    while True:
        nxt = tuple(cur[v] for v in cur)
        if nxt == cur:
            return cur
        cur = nxt


def _random_prenucleus(rng, frame):
    pick = []
    for x in range(frame.n):
        ups = list(iter_bits(frame.order.up[x]))
        pick.append(ups[rng.randrange(len(ups))])
    mapping = []
    for x in range(frame.n):
        mask = 0
        for y in range(frame.n):
            if frame.leq_idx(y, x):
                mask |= 1 << pick[y]
        mapping.append(frame.join_mask(mask))
    if prenucleus_violation(frame, mapping) is not None:
        return None
    return Prenucleus(frame, mapping)


def test_generated_nucleus_equals_pointwise_iteration():
    rng = random.Random(11)
    pool = [f for f in frame_corpus() if f.n >= 2]
    done = 0
    while done < 300:
        frame = pool[rng.randrange(len(pool))]
        pre = _random_prenucleus(rng, frame)
        if pre is None:
            continue
        k = nucleus_from_prenucleus(pre)
        assert k.mapping == _iterate_to_closure(frame, pre.mapping)
        done += 1


def test_frame_isomorphism_relabelling():
    c3 = chain_frame(3)
    q = frame_from_poset(chain_poset(3, ["p", "q", "r"]))
    iso = frame_isomorphism(c3, q)
    assert iso == (0, 1, 2)


def test_frame_isomorphism_distinguishes_shapes():
    c4 = chain_frame(4)
    b4 = frame_from_poset(grid_poset())
    assert frame_isomorphism(c4, b4) is None
    assert frame_isomorphism(b4, frame_from_poset(grid_poset())) is not None


def test_downset_frame_of_antichain_is_powerset():
    b4 = frame_from_poset(grid_poset())
    free = downset_frame(antichain_poset(2))
    assert frame_isomorphism(free, b4) is not None


def _same_frame(frame, oracle):
    assert frame.order == oracle.order
    assert frame_tables(frame) == frame_tables(oracle) == literal_tables(frame.order)
    assert (frame.bottom, frame.top) == (oracle.bottom, oracle.top)


def test_set_family_frames_match_their_inclusion_orders():
    """downset_frame and omega equal frame_from_poset on the inclusion order of the same sets.

    The downsets are labelled by their members and sorted by label, the
    opens kept in the space's order.
    """
    for p in all_posets(4):
        masks = p.downsets()
        labels = [mask_label(p, m) for m in masks]
        order = FinitePoset(*sort_labels(labels, inclusion_rows(masks)), validate=False)
        _same_frame(downset_frame(p), frame_from_poset(order))
    for space in all_spaces(3):
        labels = ["{" + ",".join(space.label_set(m)) + "}" for m in space.opens]
        order = FinitePoset(labels, inclusion_rows(space.opens), validate=False)
        _same_frame(omega(space), frame_from_poset(order))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(8)), st.data())
def test_meet_join_lattice_laws(which, data):
    frame = frame_corpus()[which]
    n = frame.n
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    z = data.draw(st.integers(0, n - 1))
    assert frame.meet(x, y) == frame.meet(y, x)
    assert frame.join(x, y) == frame.join(y, x)
    assert frame.meet(x, frame.meet(y, z)) == frame.meet(frame.meet(x, y), z)
    assert frame.join(x, frame.join(y, z)) == frame.join(frame.join(x, y), z)
    assert frame.join(x, frame.meet(x, y)) == x
    assert frame.meet(x, frame.join(x, y)) == x


# --- the table builder and the distributivity test against literal oracles --


def _built_tables(poset):
    """An accepted frame's tables, or "not distributive" for a lattice refused as one."""
    try:
        frame = frame_from_poset(poset)
    except NotDistributiveError:
        return "not distributive"
    return frame_tables(frame)


def _expected_tables(poset):
    """What `_built_tables` gives by the literal oracles.

    The literal tables when no triple fails on them, "not distributive"
    when one does, or the NotLatticeError message.
    """
    tables = _tables_or_error(literal_tables, poset)
    if isinstance(tables, str) or _first_triple(*tables) is None:
        return tables
    return "not distributive"


def _tables_or_error(build, poset):
    try:
        return build(poset)
    except NotLatticeError as exc:
        return str(exc)


def _first_triple(join, meet):
    """The lexicographically first (a, b, c) with a&(b|c) != (a&b)|(a&c), or None."""
    n = len(join)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def _assert_accepted_frame_is_literal(frame, poset, join, meet):
    """The frame's tables, bounds and irreducibles are the literal ones of the poset."""
    everything = (1 << poset.n) - 1
    assert frame_tables(frame) == (join, meet)
    assert frame.bottom == least_of(poset, everything)
    assert frame.top == greatest_of(poset, everything)
    assert frame.irreducibles == table_irreducibles(frame)


def _assert_verdict_matches_triple_sweep(poset, join, meet):
    """frame_from_poset accepts iff no triple fails, else names the first one.

    An accepted frame, which the family kernel built, has the literal
    tables, bounds and irreducibles.
    """
    witness = _first_triple(join, meet)
    if witness is None:
        _assert_accepted_frame_is_literal(frame_from_poset(poset), poset, join, meet)
        return True
    a, b, c = (poset.points[k] for k in witness)
    message = f"distributivity fails on ({a!r}, {b!r}, {c!r})"
    with pytest.raises(NotDistributiveError, match=f"^{re.escape(message)}$"):
        frame_from_poset(poset)
    return False


def test_table_builder_matches_literal_oracle_on_small_posets():
    outcomes = [_expected_tables(p) for p in all_posets(5)]
    for p, expected in zip(all_posets(5), outcomes):
        assert _tables_or_error(_built_tables, p) == expected
    frames = sum(not isinstance(o, str) for o in outcomes)
    assert 0 < frames < len(outcomes) and "not distributive" in outcomes


def test_accepted_frames_match_the_literal_tables_on_every_poset_of_six_points():
    accepted = 0
    for p in all_posets(6):
        expected = _tables_or_error(literal_tables, p)
        if not isinstance(expected, str):
            accepted += _assert_verdict_matches_triple_sweep(p, *expected)
    assert accepted > 0


@st.composite
def labelled_posets(draw, min_n=6, max_n=10):
    """Random posets, half of them between an extra bottom and top, randomly labelled."""
    n = draw(st.integers(min_n, max_n))
    below = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(below), max_size=len(below)))
    pairs = [pair for pair, k in zip(below, keep) if k]
    if draw(st.booleans()):
        pairs += [(0, j) for j in range(1, n)] + [(i, n - 1) for i in range(n - 1)]
    names = draw(st.permutations([f"p{k}" for k in range(n)]))
    return validate_poset(names, [(names[i], names[j]) for i, j in pairs])


@settings(max_examples=150, deadline=None)
@given(labelled_posets())
def test_table_builder_and_verdict_match_oracles_on_random_posets(poset):
    expected = _tables_or_error(literal_tables, poset)
    assert _tables_or_error(_built_tables, poset) == _expected_tables(poset)
    if isinstance(expected, str):
        with pytest.raises(NotLatticeError, match=f"^{re.escape(expected)}$"):
            frame_from_poset(poset)
    else:
        _assert_verdict_matches_triple_sweep(poset, *expected)


def _lattices_upto_7():
    """Every lattice of 1 to 7 elements up to isomorphism.

    A lattice of two or more elements is a poset of at most five elements
    between a new bottom and a new top, kept when the literal oracle finds
    every bound.
    """
    out = [chain_poset(1)]
    for p in all_posets(5):
        n = p.n + 2
        top = 1 << (n - 1)
        rows = [(1 << n) - 1] + [row << 1 | top for row in p.up] + [top]
        q = FinitePoset([f"e{k}" for k in range(n)], rows)
        if not isinstance(_tables_or_error(literal_tables, q), str):
            out.append(q)
    return out


def test_frame_validation_accepts_exactly_distributive_lattices():
    lattices = {}
    distributive = {}
    for p in _lattices_upto_7():
        lattices[p.n] = lattices.get(p.n, 0) + 1
        if _assert_verdict_matches_triple_sweep(p, *literal_tables(p)):
            distributive[p.n] = distributive.get(p.n, 0) + 1
    # OEIS A006966 and A006982: lattices and distributive lattices by size.
    assert lattices == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}
    assert distributive == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}


@st.composite
def perturbed_tables(draw):
    """Join and meet tables of at most 8 elements, with list or tuple rows.

    Half are a downset frame's tables with up to three entries changed, so
    that some rows pass and some fail; the rest are random.
    """
    if draw(st.booleans()):
        frame = draw(downset_frames())
        n = frame.n
        join, meet = ([list(row) for row in table] for table in literal_tables(frame.order))
        for _ in range(draw(st.integers(0, 3))):
            table = draw(st.sampled_from((join, meet)))
            row = draw(st.integers(0, n - 1))
            table[row][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    else:
        n = draw(st.integers(1, 8))
        cells = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        join = draw(st.lists(cells, min_size=n, max_size=n))
        meet = draw(st.lists(cells, min_size=n, max_size=n))
    if draw(st.booleans()):
        join = tuple(map(tuple, join))
        meet = tuple(map(tuple, meet))
    return join, meet


@settings(max_examples=300, deadline=None)
@given(perturbed_tables())
def test_distributivity_witness_matches_scalar_loop_on_random_tables(tables):
    """The witness is the first failing triple of the literal loop."""
    join, meet = tables
    assert distributivity_witness(join, meet) == _first_triple(join, meet)


def _self_checked_tensors():
    """Tensors of 64 and 125 elements, which `coproduct` once swept for distributivity.

    Both are Omega of the discrete 3-point space tensored with Omega of
    another 3-point space: a chain (4 opens) and a space with 5 opens.
    """
    discrete = omega(space_from_preorder("abc", (1, 2, 4)))
    return [
        coproduct(discrete, omega(space_from_preorder("abc", rows)))
        for rows in ((1, 3, 7), (1, 2, 7))
    ]


@pytest.mark.parametrize("which", range(10))
def test_distributivity_witness_finds_a_single_perturbed_entry(which):
    frame = (list(frame_corpus()) + _self_checked_tensors())[which]
    n = frame.n
    tables = literal_tables(frame.order)
    assert _first_triple(*tables) is None
    assert distributivity_witness(*tables) is None
    rng = random.Random(which)
    for _ in range(40):
        join, meet = ([list(row) for row in table] for table in tables)
        table = rng.choice((join, meet))
        table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        assert distributivity_witness(join, meet) == _first_triple(join, meet)


FAMILY_BUILDERS = {
    "coproduct": coproduct,
    "product": lambda left, right: product_frames([left, right]),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_family_frames_hold_no_failing_triple(kind):
    """The self-check sweep these constructions no longer run, kept as an oracle."""
    frames = frames_upto(4)
    for left in frames:
        for right in frames:
            frame = FAMILY_BUILDERS[kind](left, right)
            assert _first_triple(*frame_tables(frame)) is None


@pytest.mark.parametrize("lattice", [diamond_m3, pentagon_n5])
def test_non_distributive_lattice_above_256_elements_names_the_first_triple(lattice):
    """M3 or N5, whose top is "1", under a chain of 256 elements."""
    small = lattice()
    chain = [f"z{k:03d}" for k in range(256)]
    pairs = [
        (small.points[i], small.points[j])
        for i in range(small.n)
        for j in iter_bits(small.up[i])
        if i != j
    ]
    pairs += [("1", chain[0])] + list(zip(chain, chain[1:]))
    poset = validate_poset(list(small.points) + chain, pairs)
    assert poset.n == 261
    join, meet = literal_tables(poset)
    witness = _first_triple(join, meet)
    assert witness is not None
    assert distributivity_witness(join, meet) == witness
    a, b, c = (poset.points[k] for k in witness)
    message = f"distributivity fails on ({a!r}, {b!r}, {c!r})"
    with pytest.raises(NotDistributiveError, match=f"^{re.escape(message)}$"):
        frame_from_poset(poset)


# --- the hom enumerator against the enumerate-interpolate-filter oracle ------


def _oracle_homs(source, target):
    """Every frame hom source -> target, as mappings, by the literal route.

    A hom is determined by its monotone values on the join-irreducibles, so
    those are enumerated, in linear-extension order with values ascending;
    each candidate is extended by joins of the literal table and kept when
    it preserves top and passes the literal pair sweep.  This is the
    enumerator that Birkhoff duality replaced; its output order is the
    lexicographic order of the values on the irreducibles.
    """
    irr = set(source.irreducibles)
    if source.n == 1:
        return [(target.bottom,)] if target.n == 1 else []
    ext = [i for i in source.order.linear_extension if i in irr]
    below = source.irreducibles_below
    join, _ = literal_tables(target.order)
    values = {}
    out = []

    def rec(t):
        if t == len(ext):
            mapping = []
            for x in range(source.n):
                acc = target.bottom
                for j in iter_bits(below[x]):
                    acc = join[acc][values[j]]
                mapping.append(acc)
            if mapping[source.top] != target.top:
                return
            try:
                literal_check_hom(source, target, mapping)
            except NotHomError:
                return
            out.append(tuple(mapping))
            return
        i = ext[t]
        cand = (1 << target.n) - 1
        for k in ext[:t]:
            if source.leq_idx(k, i):
                cand &= target.order.up[values[k]]
        for v in iter_bits(cand):
            values[i] = v
            rec(t + 1)

    rec(0)
    return out


def _assert_homs_match_oracle(source, target):
    homs = list(iter_frame_homs(source, target))
    assert all(h.source is source and h.target is target for h in homs)
    mappings = [h.mapping for h in homs]
    assert mappings == _oracle_homs(source, target)
    return mappings


# sha256 of the hom lists over all ordered pairs of the frames of at most six
# elements, in `all_frames(6)` order, each list in enumeration order, as the
# enumerate-interpolate-filter enumerator produced them.
CORPUS6_HOMS_DIGEST = "e14596f4e611e804a3411637eab23d042f627f38956d98987a75aa0f455405c3"


def test_hom_lists_on_the_corpus_up_to_six_elements_are_pinned():
    pool = all_frames(6)
    lists = [_assert_homs_match_oracle(a, b) for a in pool for b in pool]
    assert len(lists) == 169
    assert sum(map(len, lists)) == 2655
    digest = hashlib.sha256(repr(lists).encode()).hexdigest()
    assert digest == CORPUS6_HOMS_DIGEST


# factors of at most three elements keep tensors and products at nine
# elements, where the oracle's candidate sweep stays cheap
SMALL_FRAMES = st.sampled_from(all_frames(3))


@st.composite
def built_frames(draw):
    """A corpus frame, a random downset frame, a tensor or a product of two."""
    kind = draw(st.sampled_from(("corpus", "downsets", "tensor", "product")))
    if kind == "corpus":
        return draw(st.sampled_from(all_frames(6)))
    if kind == "downsets":
        return draw(downset_frames())
    left = draw(SMALL_FRAMES)
    right = draw(SMALL_FRAMES)
    if kind == "tensor":
        return coproduct(left, right)
    return product_frames([left, right])


@settings(max_examples=150, deadline=None)
@given(built_frames(), built_frames())
def test_hom_lists_match_the_oracle_in_order(source, target):
    _assert_homs_match_oracle(source, target)


def test_one_element_frames_as_source_and_target():
    one = downset_frame(validate_poset([], []))
    assert one.n == 1
    for other in [one, two(), chain_frame(3), coproduct(two(), chain_frame(3))]:
        assert _assert_homs_match_oracle(one, other) == ([(0,)] if other.n == 1 else [])
        assert _assert_homs_match_oracle(other, one) == [(0,) * other.n]


# --- the Birkhoff hom test against the literal pair sweep --------------------


def _disagreements_on_small_maps():
    """Maps between frames of at most 4 elements where FrameHom and the sweep disagree.

    Returns the disagreements and the number of maps tried.
    """
    pool = all_frames(4)
    out = []
    tried = 0
    for source in pool:
        for target in pool:
            for mapping in itertools.product(range(target.n), repeat=source.n):
                expected = hom_verdict(literal_check_hom, source, target, mapping)
                if hom_verdict(FrameHom, source, target, mapping) != expected:
                    out.append((source, target, mapping))
                tried += 1
    return out, tried


def test_the_hom_test_matches_the_pair_sweep_on_every_map_of_small_frames():
    """Every map between frames of at most 4 elements: the same verdict and message."""
    disagreements, tried = _disagreements_on_small_maps()
    assert disagreements == []
    assert tried == 1444


def test_a_hom_test_that_skips_the_last_target_irreducible_fails_the_oracle(monkeypatch):
    """The mutant never tests the preimage of each target's last irreducible.

    Each frame's prime filters and irreducible rows are read, and pinned,
    before its last irreducible is dropped, so the source side of the test
    is intact and no cache outlives the mutant.
    """
    for frame in all_frames(4):
        if frame.irreducibles:
            for name in ("prime_filters", "irreducibles_below"):
                monkeypatch.setitem(frame.__dict__, name, getattr(frame, name))
            monkeypatch.setattr(frame, "irreducibles", frame.irreducibles[:-1])
    disagreements, _ = _disagreements_on_small_maps()
    assert len(disagreements) == 16
    assert all(hom_verdict(FrameHom, *case) is None for case in disagreements)


@st.composite
def maps_between_built_frames(draw):
    """Two built frames and a map: a hom with up to two values changed, or random values."""
    source = draw(built_frames())
    target = draw(built_frames())
    values = st.integers(0, target.n - 1)
    homs = [h.mapping for h in iter_frame_homs(source, target)]
    if homs and draw(st.booleans()):
        mapping = list(draw(st.sampled_from(homs)))
        for _ in range(draw(st.integers(0, 2))):
            mapping[draw(st.integers(0, source.n - 1))] = draw(values)
    else:
        mapping = draw(st.lists(values, min_size=source.n, max_size=source.n))
    return source, target, tuple(mapping)


@settings(max_examples=300, deadline=None)
@given(maps_between_built_frames())
def test_the_hom_test_matches_the_pair_sweep_on_random_and_perturbed_maps(case):
    expected = hom_verdict(literal_check_hom, *case)
    assert hom_verdict(FrameHom, *case) == expected


@pytest.mark.parametrize("value", [99, 3, -1])
def test_a_mapping_value_outside_the_target_is_refused(value):
    with pytest.raises(NotHomError, match=f"^{value} is not an element of the target$"):
        FrameHom(chain_frame(3), two(), (0, value, 1))


def test_homs_out_of_a_non_distributive_table_are_refused():
    m3 = TableLattice(diamond_m3())
    with pytest.raises(VerificationError, match="not distributive"):
        list(iter_frame_homs(m3, two()))


def _literal_closure_miss(labels, masks):
    """The row-order scan the closure screen replaced, kept as its oracle.

    Every union, row by row, then every intersection; the first that is
    not a member is named, and None means the family is closed.
    """
    members = set(masks)
    for what, op in (("union", int.__or__), ("intersection", int.__and__)):
        for a in range(len(masks)):
            for b in range(len(masks)):
                if op(masks[a], masks[b]) not in members:
                    return f"the family misses the {what} of {labels[a]!r} and {labels[b]!r}"
    return None


def _screen(masks, drop=None):
    """The kernel's closure screen; `drop` names a generator list a mutant leaves out."""
    index = {m: k for k, m in enumerate(masks)}
    downs, ups = _point_generators(masks, transpose(masks))
    if drop == "downs":
        downs = []
    if drop == "ups":
        ups = []
    return _is_closed(masks, index, downs, ups)


def _screen_agrees(masks, drop=None):
    """The screen passes exactly when every union and intersection is a member."""
    labels = [f"m{m}" for m in masks]
    return _screen(masks, drop) == (_literal_closure_miss(labels, masks) is None)


@st.composite
def ring_families(draw):
    """Families of subsets of up to 6 points, in a random order.

    A ring of sets is the up-sets of a random preorder, each point with at
    most two drawn successors, or an interval [lo, hi] of them; it is
    kept, or loses one member, or gains one subset.
    """
    k = draw(st.integers(1, 6))
    successors = st.lists(st.integers(0, k - 1), max_size=2)
    up = transitive_closure(
        [sum({1 << j for j in draw(successors)}) | 1 << i for i in range(k)]
    )
    ring = [s for s in range(1 << k) if all(up[i] & ~s == 0 for i in iter_bits(s))]
    family = ring
    if draw(st.booleans()):
        lo = draw(st.sampled_from(ring))
        hi = draw(st.sampled_from([s for s in reversed(ring) if lo & ~s == 0]))
        family = [s for s in ring if lo & ~s == 0 and s & ~hi == 0]
    change = draw(st.sampled_from(["ring", "drop", "add"]))
    if change == "drop":
        del family[draw(st.integers(0, len(family) - 1))]
    elif change == "add":
        outside = [s for s in range(1 << k) if s not in family]
        if outside:
            family.append(draw(st.sampled_from(outside)))
    return tuple(draw(st.permutations(family)))


@settings(max_examples=400, deadline=None)
@given(ring_families())
def test_the_closure_screen_matches_the_row_order_scan(masks):
    """The screen passes exactly on closed families, and a refusal names the scan's first pair."""
    labels = [f"m{m}" for m in masks]
    miss = _literal_closure_miss(labels, masks)
    assert _screen(masks) == (miss is None)
    if miss is not None:
        with pytest.raises(VerificationError) as refused:
            FiniteFrame(labels, masks)
        assert str(refused.value) == miss
    elif masks:
        frame = FiniteFrame(labels, masks)
        assert frame.irreducibles == table_irreducibles(frame)
        members = {m: k for k, m in enumerate(masks)}
        assert frame_tables(frame) == (
            tuple(tuple(members[a | b] for b in masks) for a in masks),
            tuple(tuple(members[a & b] for b in masks) for a in masks),
        )


def _families_of_three_points():
    """Every family of subsets of three points, members ascending: 256 families."""
    return [tuple(s for s in range(8) if f >> s & 1) for f in range(256)]


def test_the_closure_screen_is_exact_on_every_family_of_three_points():
    assert all(_screen_agrees(masks) for masks in _families_of_three_points())


@pytest.mark.parametrize("drop", ["downs", "ups"])
def test_a_screen_without_either_generator_fails_the_oracle(drop):
    """The mutants: without d(p) a missing union passes, without u(p) a missing intersection."""
    assert not all(_screen_agrees(masks, drop) for masks in _families_of_three_points())
    missing = (0b00, 0b01, 0b10) if drop == "downs" else (0b01, 0b10, 0b11)
    assert not _screen_agrees(missing, drop)
