"""The order-row kernels against literal oracles."""

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitetop.bits import iter_bits, popcount
from finitetop import order
from finitetop.corpus import all_posets, all_preorders_labelled, all_spaces
from finitetop.order import (
    fibres,
    fill,
    gather,
    glue,
    inclusion_rows,
    is_isomorphism,
    isomorphisms,
    sort_labels,
    transpose,
)
from finitetop.pstop import all_ps_spaces, ps_spaces_up_to_iso
from finitetop.suites import SuiteOptions, run_suite

from conftest import certificate, garbage_after

SMALL = [rows for n in range(4) for rows in all_preorders_labelled(n)]
FOUR = list(all_preorders_labelled(4))


def _monotone(src, dst, mapping):
    return all(
        dst[mapping[i]] >> mapping[j] & 1 for i in range(len(src)) for j in iter_bits(src[i])
    )


def _oracle_fill(src, dst, allowed):
    """Every monotone, allowed assignment, in the documented visit order."""
    order = sorted(range(len(src)), key=lambda i: (-popcount(src[i]), i))
    found = [
        m
        for m in itertools.product(range(len(dst)), repeat=len(src))
        if _monotone(src, dst, m) and all(allowed[i] >> m[i] & 1 for i in range(len(src)))
    ]
    return sorted(found, key=lambda m: tuple(m[i] for i in order))


def _relabel(rows, perm):
    out = [0] * len(rows)
    for i, r in enumerate(rows):
        m = 0
        for j in iter_bits(r):
            m |= 1 << perm[j]
        out[perm[i]] = m
    return tuple(out)


def _antisymmetric(rows):
    return all(
        not (rows[j] >> i & 1) for i in range(len(rows)) for j in iter_bits(rows[i]) if j != i
    )


def _fill_cases():
    rng = random.Random(7)
    cases = [(src, dst) for src in SMALL for dst in SMALL if len(dst) <= 2]
    cases += [(rng.choice(FOUR), rng.choice(SMALL + FOUR)) for _ in range(60)]
    cases += [(rng.choice(SMALL), rng.choice(FOUR)) for _ in range(60)]
    out = []
    for src, dst in cases:
        full = (1 << len(dst)) - 1
        masks = tuple(rng.randint(0, full) | rng.randint(0, full) for _ in src)
        out.append((src, dst, masks))
    return out


def test_fill_matches_product_filter_in_visit_order():
    cases = _fill_cases()
    assert any(not _antisymmetric(src) for src, _, _ in cases)
    assert any(not _antisymmetric(dst) for _, dst, _ in cases)
    for src, dst, masks in cases:
        full = (1 << len(dst)) - 1
        assert list(fill(src, dst)) == _oracle_fill(src, dst, (full,) * len(src))
        assert list(fill(src, dst, masks)) == _oracle_fill(src, dst, masks)


@st.composite
def preorders(draw, max_n=5):
    """A random preorder: reflexive rows closed under transitivity."""
    n = draw(st.integers(0, max_n))
    rows = [draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n)]
    return tuple(order.transitive_closure(rows))


@st.composite
def fill_cases(draw):
    """A source and a target preorder, and one `allowed` mask per source point."""
    src = draw(preorders())
    dst = draw(preorders())
    full = (1 << len(dst)) - 1
    masks = tuple(draw(st.integers(0, full)) for _ in src)
    return src, dst, masks


@settings(max_examples=300, deadline=None)
@given(fill_cases())
@example(((), (), ()))
@example(((1,), (), (0,)))
@example(((0b11, 0b11), (0b1, 0b11, 0b111), (0b111, 0b101)))
@example(((31,) * 5, (31, 30, 28, 24, 16), (31,) * 5))
def test_fill_matches_the_oracle_on_random_preorders(case):
    """Up to five points each way, with every value allowed and with the drawn masks."""
    src, dst, masks = case
    full = ((1 << len(dst)) - 1,) * len(src)
    for allowed in (full, masks):
        expected = _oracle_fill(src, dst, allowed)
        assert list(fill(src, dst, allowed)) == expected
        if allowed is full:
            assert list(fill(src, dst)) == expected


def _clear_plan_caches():
    order._plan.cache_clear()
    order._dual_rows.cache_clear()


def _fill_outputs(cases, *, cold):
    out = []
    for src, dst, masks in cases:
        if cold:
            _clear_plan_caches()
        out.append((list(fill(src, dst)), list(fill(src, dst, masks))))
    return out


def test_fill_is_the_same_from_cached_plans():
    cases = _fill_cases()
    _clear_plan_caches()
    first = _fill_outputs(cases, cold=False)
    misses = order._plan.cache_info().misses
    cached = _fill_outputs(cases, cold=False)
    assert order._plan.cache_info().misses == misses
    assert order._plan.cache_info().hits > 0 and order._dual_rows.cache_info().hits > 0
    cold = _fill_outputs(cases, cold=True)
    assert cached == first == cold
    as_lists = [(list(s), list(d), list(m)) for s, d, m in cases]
    assert _fill_outputs(as_lists, cold=False) == cached


def test_the_plan_caches_evict_nothing_at_the_default_bounds():
    """The suites that build plans when `check all` runs at the default bounds.

    Run in registry order, the other suites build no new plan;
    PushProdArrowCategory, the slowest of them, is left out for time.
    """
    _clear_plan_caches()
    for name in (
        "FrameCoproduct",
        "LocPushout",
        "OmegaPtAdjunction",
        "PushoutsInPsTop",
        "TauIotaAdjunction",
        "PushProdAndPullPowerLemma",
    ):
        assert run_suite(name, SuiteOptions()).ok, name
    for cache in (order._plan, order._dual_rows):
        info = cache.cache_info()
        assert info.hits > 0
        assert info.misses == info.currsize < info.maxsize


def test_transpose_is_the_dual_relation():
    for rows in SMALL + FOUR[::7]:
        down = transpose(rows)
        n = len(rows)
        for i in range(n):
            for j in range(n):
                assert (down[j] >> i & 1) == (rows[i] >> j & 1)
        assert transpose(down) == tuple(rows)
    # a family of four subsets of three points: one column per point
    assert transpose((0b110, 0, 0b011, 0)) == (0b0100, 0b0101, 0b0001)


def _oracle_inclusion_rows(masks):
    """Bit k of row a is set when member a is a subset of member k, pair by pair."""
    rows = []
    for a in masks:
        row = 0
        for k, b in enumerate(masks):
            if a & ~b == 0:
                row |= 1 << k
        rows.append(row)
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=24))
@example([])
@example([0])
@example([5, 0, 5, 7])
def test_inclusion_rows_match_the_pairwise_loop(masks):
    assert inclusion_rows(masks) == _oracle_inclusion_rows(masks)


def _oracle_transpose(rows):
    """Bit i of column j is set when bit j of row i is, bit by bit."""
    width = max(rows, default=0).bit_length()
    columns = [0] * width
    for i, row in enumerate(rows):
        for j in range(width):
            if row >> j & 1:
                columns[j] |= 1 << i
    return tuple(columns)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 130) - 1), max_size=20))
@example([1 << 64, (1 << 129) | 1, 0])
@example([(1 << 100) - 1] * 3)
def test_transpose_and_inclusion_rows_match_double_loops_on_wide_rows(rows):
    assert transpose(rows) == _oracle_transpose(rows)
    assert inclusion_rows(rows) == _oracle_inclusion_rows(rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gather_is_the_union_of_the_columns_a_row_names(data):
    columns = data.draw(st.lists(st.integers(0, (1 << 70) - 1), max_size=12))
    row = data.draw(st.integers(0, (1 << len(columns)) - 1))
    union = 0
    for p, column in enumerate(columns):
        if row >> p & 1:
            union |= column
    assert gather(row, columns) == union


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fibres_are_the_points_over_each_value(data):
    n = data.draw(st.integers(1, 9))
    mapping = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    over = fibres(mapping, n)
    assert over == [sum(1 << x for x, w in enumerate(mapping) if w == v) for v in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sort_labels_renumbers_the_rows_to_the_sorted_labels(data):
    n = data.draw(st.integers(0, 8))
    labels = data.draw(st.permutations([f"p{k}" for k in range(n)]))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    points, out = sort_labels(labels, rows)
    assert points == sorted(labels)
    at = {x: t for t, x in enumerate(points)}
    for i, row in enumerate(rows):
        for j in range(n):
            assert (out[at[labels[i]]] >> at[labels[j]] & 1) == (row >> j & 1)


def _oracle_glue(total, pairs):
    classes = [{i} for i in range(total)]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ca = next(c for c in classes if a in c)
            cb = next(c for c in classes if b in c)
            if ca is not cb:
                ca |= cb
                classes.remove(cb)
                changed = True
    ids = {}
    out = []
    for i in range(total):
        owner = min(next(c for c in classes if i in c))
        out.append(ids.setdefault(owner, len(ids)))
    return out


def test_glue_matches_fixed_point_partition():
    rng = random.Random(11)
    for _ in range(300):
        total = rng.randint(0, 12)
        pairs = [
            (rng.randrange(total), rng.randrange(total))
            for _ in range(rng.randint(0, 2 * total) if total else 0)
        ]
        assert glue(total, pairs) == _oracle_glue(total, pairs)


def _reflexive_relations(n):
    """Every reflexive relation on n points, transitive or not."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for choice in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for t, (i, j) in enumerate(pairs):
            if choice >> t & 1:
                rows[i] |= 1 << j
        out.append(tuple(rows))
    return out


def _assert_isomorphisms_match_brute_force(a, b):
    """`isomorphisms` yields each bijection carrying a's rows onto b's, once."""
    found = list(isomorphisms(a, b))
    perms = itertools.permutations(range(len(a))) if len(a) == len(b) else ()
    assert len(found) == len(set(found))
    assert set(found) == {p for p in perms if _relabel(a, p) == tuple(b)}
    assert all(is_isomorphism(a, b, p) for p in found)


def _restrict_oracle(up, keep):
    """The induced order on the listed points, numbered in list order."""
    return tuple(sum(1 << t for t, j in enumerate(keep) if up[i] >> j & 1) for i in keep)


def test_restrict_is_the_induced_order_renumbered_ascending():
    for up in SMALL + FOUR:
        for mask in range(1 << len(up)):
            assert order.restrict(up, mask) == _restrict_oracle(up, list(iter_bits(mask)))


def test_upsets_are_every_up_set_sorted_and_a_cap_stops_one_past_it():
    """Uncapped, or capped at no fewer than there are, every up-set by
    (size, mask); capped below the count, cap + 1 distinct up-sets."""
    for up in SMALL + FOUR:
        literal = [
            m for m in range(1 << len(up)) if all(up[i] & ~m == 0 for i in iter_bits(m))
        ]
        literal.sort(key=lambda m: (popcount(m), m))
        assert order.upsets(up) == order.upsets(up, len(literal)) == tuple(literal)
        for cap in range(len(literal)):
            over = order.upsets(up, cap)
            assert len(over) == len(set(over)) == cap + 1
            assert set(over) <= set(literal)


def _components_oracle(up):
    """The connected components, grown from each least unplaced point."""
    n = len(up)
    near = [up[i] | sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
    comps = []
    for i in range(n):
        if any(c >> i & 1 for c in comps):
            continue
        comp, grown = 0, 1 << i
        while grown != comp:
            comp = grown
            for j in iter_bits(comp):
                grown |= near[j]
        comps.append(comp)
    return comps


def test_split_cuts_a_map_at_its_targets_components():
    """Every map between preorders of up to 3 points; a connected or empty
    target gives no parts."""
    cut = 0
    for src, dst in itertools.product(SMALL, repeat=2):
        comps = _components_oracle(dst)
        for mapping in order.maps(src, dst):
            parts = order.split(src, dst, mapping)
            if len(comps) < 2:
                assert parts == ()
                continue
            expected = []
            for comp in comps:
                keep_b = list(iter_bits(comp))
                keep_a = [a for a, b in enumerate(mapping) if comp >> b & 1]
                expected.append(
                    (
                        _restrict_oracle(src, keep_a),
                        _restrict_oracle(dst, keep_b),
                        tuple(keep_b.index(mapping[a]) for a in keep_a),
                    )
                )
            assert parts == expected
            cut += 1
    assert cut > 0


@st.composite
def sparse_preorders(draw, max_n=9):
    """A random preorder from at most two drawn edges per point, so that
    several components are common."""
    n = draw(st.integers(0, max_n))
    rows = [
        sum(1 << j for j in draw(st.sets(st.integers(0, n - 1), max_size=2))) | 1 << i
        for i in range(n)
    ]
    return tuple(order.transitive_closure(rows))


@settings(max_examples=300, deadline=None)
@given(sparse_preorders())
@example((1, 2, 4, 8))
@example((9, 2, 12, 8))
def test_split_cuts_random_preorders_at_their_components(up):
    """The identity of a random preorder of up to 9 points: one part per
    component, in order of its least point, each its induced order."""
    comps = _components_oracle(up)
    parts = order.split(up, up, tuple(range(len(up))))
    if len(comps) < 2:
        assert parts == ()
        return
    assert [dst for _, dst, _ in parts] == [
        _restrict_oracle(up, list(iter_bits(comp))) for comp in comps
    ]
    assert all(src == dst and m == tuple(range(len(dst))) for src, dst, m in parts)


def test_isomorphism_matches_brute_force_on_posets():
    """Every poset of up to 4 points against every relabelling of each one."""
    posets = [p.up for p in all_posets(4)]
    for a in posets:
        for b in posets:
            if len(a) == len(b):
                for perm in itertools.permutations(range(len(b))):
                    _assert_isomorphisms_match_brute_force(a, _relabel(b, perm))


def test_isomorphism_matches_brute_force_on_preorders():
    """Reflexive relations of up to 3 points pairwise, and sampled 4-point preorders.

    The relations need not be transitive, as pseudotopology limit rows are not.
    """
    rng = random.Random(5)
    relations = [r for n in range(4) for r in _reflexive_relations(n)]
    assert any(not _antisymmetric(r) for r in relations)
    assert set(SMALL) < set(relations)
    for a in relations:
        for b in relations:
            _assert_isomorphisms_match_brute_force(a, b)
    for a in rng.sample(FOUR, 40):
        _assert_isomorphisms_match_brute_force(a, _relabel(a, rng.sample(range(4), 4)))
        for b in rng.sample(FOUR, 12):
            _assert_isomorphisms_match_brute_force(a, b)


def test_is_isomorphism_rejects_non_bijections_and_unmatched_rows():
    chain = (0b11, 0b10)
    assert is_isomorphism(chain, chain, (0, 1))
    assert not is_isomorphism(chain, chain, (1, 0))
    assert not is_isomorphism(chain, chain, (0, 0))
    assert not is_isomorphism(chain, (0b01, 0b10), (0, 1))
    assert not is_isomorphism(chain, (0b111, 0b110, 0b100), (0, 1))


def test_corpus_representatives_are_one_per_isomorphism_class():
    """Pairwise non-isomorphic, and every labelled relation has one of them.

    `tests/test_poset.py` checks the same of `all_posets`.
    """
    corpora = [
        ([s.up for s in all_spaces(4)], [r for n in range(5) for r in all_preorders_labelled(n)]),
        (
            [s.up for s in all_spaces(4, t0_only=True)],
            [r for n in range(5) for r in all_preorders_labelled(n) if _antisymmetric(r)],
        ),
        (
            [xi.lim for n in range(4) for xi in ps_spaces_up_to_iso(n)],
            [xi.lim for n in range(4) for xi in all_ps_spaces(n)],
        ),
    ]
    for reps, labelled in corpora:
        certs = [certificate(r) for r in reps]
        assert len(set(certs)) == len(certs)
        assert set(certs) == {certificate(r) for r in labelled}


def test_certificate_is_the_least_relabelling():
    for rows in SMALL + FOUR[::9]:
        perms = itertools.permutations(range(len(rows)))
        assert certificate(rows) == min(_relabel(rows, p) for p in perms)


def test_certificate_is_invariant_under_relabelling():
    rng = random.Random(3)
    for rows in SMALL + rng.sample(FOUR, 60):
        perm = rng.sample(range(len(rows)), len(rows))
        assert certificate(_relabel(rows, perm)) == certificate(rows)



def test_the_order_kernels_leave_no_cyclic_garbage():
    src, dst = FOUR[3], FOUR[-1]
    assert len(list(fill(src, dst))) > 1
    assert garbage_after(lambda: list(fill(src, dst))) == 0
    assert garbage_after(lambda: next(fill(src, dst))) == 0
    assert next(isomorphisms(FOUR[3], FOUR[6])) == (1, 2, 0, 3)
    assert garbage_after(lambda: next(isomorphisms(FOUR[3], FOUR[6]))) == 0
    assert garbage_after(lambda: list(isomorphisms(FOUR[3], FOUR[6]))) == 0
