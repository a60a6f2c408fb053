"""Pseudotopological spaces, convergence, and the lemma checks."""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitetop import pstop
from finitetop.bits import iter_bits
from finitetop.corpus import all_spaces
from finitetop.errors import CarrierMismatchError, EmptySubspaceError
from finitetop.poset import mask_label
from finitetop.pstop import (
    PsSpace,
    adherence_filter,
    all_ps_spaces,
    all_pseudotopologies,
    check_continuity,
    compact_at,
    discrete_ps,
    final_structure,
    is_compact_ps,
    iter_continuous_ps_maps,
    join_ps,
    lemma_lattice_bounds,
    lemma_pushout_agreement,
    lemma_tau_iota,
    meet_ps,
    ps_from_space,
    ps_spaces_up_to_iso,
    pushout_ps,
    subspace_ps,
    top_modification,
)
from finitetop.suites import SuiteOptions, run_group

from conftest import (
    discrete_space, indiscrete_space, least_member_only, lim_filter, literal_continuity,
)


def continuous_on_ultrafilters(mapping, xi, zeta):
    """The principal-ultrafilter continuity condition only: y in lim x gives f(y) in lim f(x)."""
    return all(
        zeta.lim[mapping[x]] >> mapping[y] & 1 for x in range(xi.n) for y in iter_bits(xi.lim[x])
    )


def finer_ps(xi, zeta):
    """Whether xi is finer than zeta (identity is continuous xi -> zeta)."""
    return all(a & ~b == 0 for a, b in zip(xi.lim, zeta.lim))


def _kink():
    """Three points where 2 also converges to 1."""
    return PsSpace.from_lim(
        ["1", "2", "3"], {"1": ["1"], "2": ["1", "2"], "3": ["3"]}
    )


def test_ps_space_requires_reflexivity():
    with pytest.raises(ValueError):
        PsSpace(("a", "b"), (2, 2))


def test_lim_of_principal_filters():
    xi = _kink()
    at_12 = 1 << xi.index("1") | 1 << xi.index("2")
    assert xi.label_set(xi.lim[xi.index("2")]) == ("1", "2")
    assert xi.label_set(lim_filter(xi, at_12)) == ("1",)


def test_improper_filter_converges_everywhere():
    xi = _kink()
    assert lim_filter(xi, 0) == xi.full


def test_identity_and_constants_are_continuous():
    xi = _kink()
    ident = tuple(range(xi.n))
    assert check_continuity(ident, xi, xi)
    for c in range(xi.n):
        assert check_continuity((c,) * xi.n, xi, xi)


def test_discrete_maps_anywhere_continuously():
    d3 = discrete_ps(["1", "2", "3"])
    for zeta in ps_spaces_up_to_iso(3):
        for mapping in itertools.product(range(3), repeat=3):
            assert check_continuity(mapping, d3, zeta)


def test_continuity_failure_carries_a_witness():
    i2 = PsSpace(("1", "2"), (3, 3))
    d2 = discrete_ps(["1", "2"])
    report = check_continuity((0, 1), i2, d2)
    assert not report
    base = report.witness
    assert base is not None
    lhs = sum(1 << x for x in range(2) if lim_filter(i2, base) >> x & 1)
    rhs = lim_filter(d2, pstop._image((0, 1), base))
    assert lhs & ~rhs


def _assert_continuity_is_literal(mapping, xi, zeta):
    """`check_continuity`'s verdict and witness are the all-filters oracle's,
    and its verdict is the ultrafilter condition's."""
    report = check_continuity(mapping, xi, zeta)
    literal = literal_continuity(mapping, xi, zeta)
    assert (bool(report), report.witness) == literal
    assert continuous_on_ultrafilters(mapping, xi, zeta) == literal[0]


def test_ultrafilter_continuity_licenses_all_filters():
    for n_src, n_tgt in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for xi in ps_spaces_up_to_iso(n_src):
            for zeta in ps_spaces_up_to_iso(n_tgt):
                for mapping in itertools.product(range(n_tgt), repeat=n_src):
                    _assert_continuity_is_literal(mapping, xi, zeta)


def test_ultrafilter_licensing_spot_checks_at_four_points():
    rng = random.Random(3)
    spaces = list(all_pseudotopologies("1234"))
    for _ in range(500):
        xi = spaces[rng.randrange(len(spaces))]
        zeta = spaces[rng.randrange(len(spaces))]
        mapping = tuple(rng.randrange(4) for _ in range(4))
        _assert_continuity_is_literal(mapping, xi, zeta)


@st.composite
def point_maps(draw):
    """A random pseudotopology pair on 4 or 5 points each, and a point map between them."""

    def space(n):
        lim = [draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n)]
        return PsSpace(pstop.PS_LABELS[:n], lim)

    xi = space(draw(st.integers(4, 5)))
    zeta = space(draw(st.integers(4, 5)))
    mapping = tuple(draw(st.integers(0, zeta.n - 1)) for _ in range(xi.n))
    return mapping, xi, zeta


@settings(max_examples=300, deadline=None)
@given(point_maps())
@example(((0, 1, 2, 3, 4), PsSpace("12345", (3, 3, 4, 8, 16)), discrete_ps("12345")))
@example(((0, 0, 0, 0), PsSpace("1234", (15, 15, 15, 15)), discrete_ps("12345")))
def test_ultrafilter_continuity_matches_all_filters_above_three_points(case):
    _assert_continuity_is_literal(*case)


@st.composite
def wide_point_maps(draw):
    """A random map between pseudotopologies of 6 to 8 points each.  For
    about half of them the target's limits are first widened by the images
    of the source's, which makes the map continuous, and then one target
    limit may lose one point again, which makes a near miss."""

    def lims(n):
        return [draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n)]

    n, m = draw(st.integers(6, 8)), draw(st.integers(6, 8))
    src, dst = lims(n), lims(m)
    mapping = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    if draw(st.booleans()):
        for x, v in enumerate(mapping):
            dst[v] |= pstop._image(mapping, src[x])
        if draw(st.booleans()):
            v, y = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            dst[v] &= ~(1 << y) | 1 << v
    labels = [f"p{k}" for k in range(8)]
    return mapping, PsSpace(labels[:n], src), PsSpace(labels[:m], dst)


@settings(max_examples=200, deadline=None)
@given(wide_point_maps())
def test_continuity_matches_the_filter_sweep_at_six_to_eight_points(case):
    _assert_continuity_is_literal(*case)


def _ring(n):
    """An n-point pseudotopology shaped like the benchmark's ring: point i
    converges to i + 1 when 3 does not divide i, and to i + 5 when 4 does."""
    lim = []
    for i in range(n):
        targets = {i, (i + 1) % n} if i % 3 else {i}
        if i % 4 == 0:
            targets.add((i + 5) % n)
        lim.append(sum(1 << t for t in targets))
    return PsSpace([f"p{k:02d}" for k in range(n)], lim)


def test_the_modification_of_a_fourteen_point_ring_sweeps_no_filter(monkeypatch):
    """The unit check of `top_modification` decides on the ultrafilter limits:
    one image per point, not two per filter of the 2^14."""
    xi = _ring(14)
    expected = top_modification(xi)
    image = pstop._image
    calls = []

    def counted(mapping, mask):
        calls.append(mask)
        return image(mapping, mask)

    monkeypatch.setattr(pstop, "_image", counted)
    space = top_modification(xi)
    assert calls == list(xi.lim)
    assert (space.points, space.up) == (expected.points, expected.up)
    assert check_continuity(tuple(range(xi.n)), xi, ps_from_space(space))


def test_lattice_ops_bound_both_arguments():
    for xi in all_pseudotopologies("12"):
        for zeta in all_pseudotopologies("12"):
            m = meet_ps(xi, zeta)
            j = join_ps(xi, zeta)
            assert finer_ps(xi, m) and finer_ps(zeta, m)
            assert finer_ps(j, xi) and finer_ps(j, zeta)
            for eta in all_pseudotopologies("12"):
                if finer_ps(xi, eta) and finer_ps(zeta, eta):
                    assert finer_ps(m, eta)
                if finer_ps(eta, xi) and finer_ps(eta, zeta):
                    assert finer_ps(eta, j)


def _indiscrete_meets(p, qs, n):
    return [(1 << n * n) - 1] * len(qs)


def _discrete_joins(p, qs, n):
    return [sum(1 << i * (n + 1) for i in range(n))] * len(qs)


def test_lattice_bounds_catch_an_indiscrete_meet_and_a_discrete_join(monkeypatch):
    """Both are bounds of every pair but not the extremal ones, so the lemma fails.

    The sweep reads the kernels of meet_ps and join_ps, so the mutants patch
    the kernels, and meet_ps and join_ps follow them.
    """
    monkeypatch.setattr(pstop, "_meet_rels", _indiscrete_meets)
    monkeypatch.setattr(pstop, "_join_rels", _discrete_joins)
    for xi in all_pseudotopologies("12"):
        for zeta in all_pseudotopologies("12"):
            assert meet_ps(xi, zeta) == PsSpace(xi.points, [xi.full] * xi.n)
            assert join_ps(xi, zeta) == discrete_ps(xi.points)
    instances, failures = lemma_lattice_bounds(2)
    assert (instances, len(failures)) == (17, 12)


def _literal_extremal(everything, xi, zeta, met, joined):
    """The extremality clauses of `lemma_lattice_bounds`, one `finer_ps` at a time."""
    return all(
        finer_ps(met, eta)
        for eta in everything
        if finer_ps(xi, eta) and finer_ps(zeta, eta)
    ) and all(
        finer_ps(eta, joined)
        for eta in everything
        if finer_ps(eta, xi) and finer_ps(eta, zeta)
    )


def _literal_bounds(everything, xi, zeta, met, joined):
    """Whether met and joined are the extremal bounds of xi and zeta, literally."""
    return (
        finer_ps(xi, met)
        and finer_ps(zeta, met)
        and finer_ps(joined, xi)
        and finer_ps(joined, zeta)
        and _literal_extremal(everything, xi, zeta, met, joined)
    )


def _packed_bits(everything):
    return pstop._refinement_bits([pstop._packed(s) for s in everything])


@pytest.mark.parametrize("n", [1, 2])
def test_lattice_bitset_clauses_match_the_literal_clauses(n):
    """Every pair, against every candidate meet and join on the carrier."""
    everything = list(all_pseudotopologies(pstop.PS_LABELS[:n]))
    bits = _packed_bits(everything)
    verdicts = set()
    for xi, zeta, met, joined in itertools.product(everything, repeat=4):
        literal = _literal_bounds(everything, xi, zeta, met, joined)
        p, q, m, j = map(pstop._packed, (xi, zeta, met, joined))
        assert (pstop._unbounded(bits, p, [q], [m], [j]) == []) == literal
        verdicts.add(literal)
    assert verdicts == ({True} if n == 1 else {True, False})


def _literal_refinement_bits(everything):
    """The etas above and below each space, one `finer_ps` pair at a time."""
    out = {}
    for space in everything:
        above = below = 0
        for k, eta in enumerate(everything):
            if finer_ps(space, eta):
                above |= 1 << k
            if finer_ps(eta, space):
                below |= 1 << k
        out[pstop._packed(space)] = (above, below)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_refinement_bits_match_the_pairwise_loop(n):
    everything = list(all_pseudotopologies(pstop.PS_LABELS[:n]))
    assert _packed_bits(everything) == _literal_refinement_bits(everything)


def lattice_oracle(max_points):
    """The per-pair `lemma_lattice_bounds`: a PsSpace meet and join for every
    pair, checked with `finer_ps` against the literal refinement bits."""
    instances = 0
    failures = []
    for n in range(1, max_points + 1):
        everything = pstop.all_ps_spaces(n)
        bits = _literal_refinement_bits(everything)
        for xi in everything:
            for zeta in everything:
                instances += 1
                met = pstop.meet_ps(xi, zeta)
                joined = pstop.join_ps(xi, zeta)
                above_xi, below_xi = bits[pstop._packed(xi)]
                above_zeta, below_zeta = bits[pstop._packed(zeta)]
                ok = (
                    finer_ps(xi, met)
                    and finer_ps(zeta, met)
                    and finer_ps(joined, xi)
                    and finer_ps(joined, zeta)
                    and above_xi & above_zeta & ~bits[pstop._packed(met)][0] == 0
                    and below_xi & below_zeta & ~bits[pstop._packed(joined)][1] == 0
                )
                if not ok:
                    failures.append(f"{xi!r} and {zeta!r}")
    return instances, failures


@pytest.mark.parametrize("max_points", [1, 2, 3])
@pytest.mark.parametrize("mutant", [False, True])
def test_the_lattice_sweep_matches_its_oracle(monkeypatch, mutant, max_points):
    if mutant:
        monkeypatch.setattr(pstop, "_meet_rels", _indiscrete_meets)
        monkeypatch.setattr(pstop, "_join_rels", _discrete_joins)
    assert lemma_lattice_bounds(max_points) == lattice_oracle(max_points)


@functools.lru_cache(maxsize=1)
def _four_point_corpus():
    everything = pstop.all_ps_spaces(4)
    return everything, _packed_bits(everything)


@st.composite
def four_point_rows(draw):
    """A 4-point space, a row of others, and per pair a meet and a join that
    are either the kernels' or any pseudotopology on the carrier."""
    everything, _ = _four_point_corpus()
    space = st.sampled_from(everything)
    xi = draw(space)
    zetas = draw(st.lists(space, min_size=1, max_size=4))
    kernels = draw(st.booleans())
    if kernels:
        mets = [meet_ps(xi, zeta) for zeta in zetas]
        joins = [join_ps(xi, zeta) for zeta in zetas]
    else:
        mets = [draw(space) for _ in zetas]
        joins = [draw(space) for _ in zetas]
    return xi, zetas, mets, joins


@settings(max_examples=60, deadline=None)
@given(four_point_rows())
def test_lattice_rows_match_the_literal_bounds_at_four_points(row):
    xi, zetas, mets, joins = row
    everything, bits = _four_point_corpus()
    literal = [
        k
        for k, (zeta, met, joined) in enumerate(zip(zetas, mets, joins))
        if not _literal_bounds(everything, xi, zeta, met, joined)
    ]
    packed = [[pstop._packed(s) for s in row] for row in (zetas, mets, joins)]
    assert pstop._unbounded(bits, pstop._packed(xi), *packed) == literal


def test_lattice_ops_need_a_shared_carrier():
    with pytest.raises(CarrierMismatchError):
        meet_ps(discrete_ps(["1", "2"]), discrete_ps(["1", "3"]))
    with pytest.raises(CarrierMismatchError):
        join_ps(discrete_ps(["1", "2"]), discrete_ps(["1", "3"]))


def test_top_modification_of_discrete_and_indiscrete():
    assert top_modification(discrete_ps(["1", "2"])) == discrete_space(["1", "2"])
    assert top_modification(PsSpace(("1", "2"), (3, 3))) == indiscrete_space(["1", "2"])


def test_top_modification_of_the_kink():
    xi = PsSpace.from_lim(["1", "2"], {"1": ["1"], "2": ["1", "2"]})
    space = top_modification(xi)
    assert space.opens == (0, 1 << space.index("2"), 3)


def test_top_modification_is_monotone():
    for xi in all_pseudotopologies("12"):
        for zeta in all_pseudotopologies("12"):
            if finer_ps(xi, zeta):
                assert set(top_modification(zeta).opens) <= set(
                    top_modification(xi).opens
                )


def test_topological_round_trip_is_identity():
    for space in all_spaces(3):
        xi = ps_from_space(space)
        assert xi == ps_from_space(top_modification(xi))
        assert top_modification(xi) == space


def test_non_topological_pseudotopology_exists():
    found = [
        xi for xi in ps_spaces_up_to_iso(3) if xi != ps_from_space(top_modification(xi))
    ]
    assert found


def test_subspace_restriction():
    xi = _kink()
    assert subspace_ps(xi, xi.full) == xi
    single = subspace_ps(xi, 1 << xi.index("2"))
    assert single.points == ("2",)
    assert single.lim == (1,)
    with pytest.raises(EmptySubspaceError):
        subspace_ps(xi, 0)


def test_subspace_is_the_initial_structure_of_inclusion():
    """The subspace is the coarsest structure making the inclusion continuous."""
    for xi in ps_spaces_up_to_iso(3):
        for mask in range(1, xi.full + 1):
            inclusion = tuple(iter_bits(mask))
            sub = subspace_ps(xi, mask)
            ident = tuple(range(sub.n))
            assert check_continuity(inclusion, sub, xi)
            for zeta in all_pseudotopologies(sub.points):
                if check_continuity(inclusion, zeta, xi):
                    assert check_continuity(ident, zeta, sub)


def test_final_structure_folds_two_points():
    pt2 = discrete_ps(["p", "q"])
    out = final_structure([(pt2, (0, 0))], ["z"])
    assert out.points == ("z",)
    assert out.lim == (1,)


def test_adherence_filter_of_principal_point():
    xi = _kink()
    base = 1 << xi.index("2")
    assert adherence_filter(xi, base) == xi.lim[xi.index("2")]
    assert adherence_filter(xi, 0) == 0


def test_every_finite_ps_space_is_compact():
    for n in range(1, 4):
        for xi in ps_spaces_up_to_iso(n):
            assert is_compact_ps(xi)
            assert compact_at(xi, xi.full, xi.full)


def test_compact_at_fails_outside_adherent_sets():
    d2 = discrete_ps(["1", "2"])
    assert not compact_at(d2, 1, 2)
    assert compact_at(d2, 1, 1)


def _compact_pairs(xi):
    """All (A, B) with A compact at B, each base's adherence read once."""
    adh = [adherence_filter(xi, base) for base in range(xi.full + 1)]
    pairs = []
    for a_mask in range(1, xi.full + 1):
        bases = [b for b in range(1, xi.full + 1) if b & a_mask]
        for b_mask in range(1, xi.full + 1):
            if all(adh[b] & b_mask for b in bases):
                pairs.append((a_mask, b_mask))
    return pairs


def test_the_singleton_criterion_matches_the_compact_pairs_up_to_four_points():
    """A is compact at B exactly when lim z meets B for every z in A."""
    spaces = [xi for n in range(1, 5) for xi in ps_spaces_up_to_iso(n)]
    assert len(spaces) == 238
    for xi in spaces:
        singletons = [
            (a, b)
            for a in range(1, xi.full + 1)
            for b in range(1, xi.full + 1)
            if all(xi.lim[z] & b for z in iter_bits(a))
        ]
        assert singletons == _compact_pairs(xi)
        assert pstop._compact_bits(xi) == sum(1 << (a << xi.n) + b for a, b in singletons)


def _subspaces(xi):
    """Per nonempty subset A: A, its `subspace_ps`, its members, and `pos`.

    The members ascend, and `pos[i]` is the index of member i among them,
    its point number in the subspace.
    """
    out = []
    for mask in range(1, xi.full + 1):
        members = list(iter_bits(mask))
        pos = [0] * xi.n
        for t, i in enumerate(members):
            pos[i] = t
        out.append((mask, pstop.subspace_ps(xi, mask), members, pos))
    return out


def _ps_corpus(max_points):
    return [s for n in range(1, max_points + 1) for s in pstop.ps_spaces_up_to_iso(n)]


def restriction_oracle(max_points):
    """The per-instance `lemma_subspace_restriction`: each restricted map is
    checked with the ultrafilter criterion, and a miss is re-examined with
    the all-filters oracle `literal_continuity`."""
    instances = 0
    failures = []
    spaces = _ps_corpus(max_points)
    subspaces = {id(xi): _subspaces(xi) for xi in spaces}
    for xi in spaces:
        for zeta in spaces:
            for mapping in pstop.iter_continuous_ps_maps(xi, zeta):
                for a_mask, sub_xi, members, _ in subspaces[id(xi)]:
                    values = [mapping[i] for i in members]
                    fa = pstop._image(mapping, a_mask)
                    for b_mask, sub_zeta, _, pos in subspaces[id(zeta)]:
                        if fa & ~b_mask:
                            continue
                        instances += 1
                        sub = tuple(map(pos.__getitem__, values))
                        if not continuous_on_ultrafilters(sub, sub_xi, sub_zeta):
                            if not literal_continuity(sub, sub_xi, sub_zeta)[0]:
                                failures.append(
                                    f"{pstop._arrow(xi, zeta, mapping)} restricted to "
                                    f"{mask_label(xi, a_mask)} -> {mask_label(zeta, b_mask)}"
                                )
    return instances, failures


def compact_image_oracle(max_points):
    """The per-instance `lemma_compact_image`: an image pair holds when it is
    among the target's `_compact_pairs`, and a miss is re-checked with the
    literal compact_at."""
    instances = 0
    failures = []
    spaces = _ps_corpus(max_points)
    compact = {id(xi): _compact_pairs(xi) for xi in spaces}
    for xi in spaces:
        for zeta in spaces:
            target_pairs = set(compact[id(zeta)])
            for mapping in pstop.iter_continuous_ps_maps(xi, zeta):
                for a_mask, b_mask in compact[id(xi)]:
                    instances += 1
                    fa = pstop._image(mapping, a_mask)
                    fb = pstop._image(mapping, b_mask)
                    if (fa, fb) not in target_pairs and not pstop.compact_at(zeta, fa, fb):
                        failures.append(
                            f"{pstop._arrow(xi, zeta, mapping)} on {mask_label(xi, a_mask)} "
                            f"compact at {mask_label(xi, b_mask)}"
                        )
    return instances, failures


MAP_SWEEPS = [
    pytest.param(pstop.lemma_subspace_restriction, restriction_oracle, id="restriction"),
    pytest.param(pstop.lemma_compact_image, compact_image_oracle, id="compact-image"),
]


def every_map(xi, zeta):
    return itertools.product(range(zeta.n), repeat=xi.n)


@pytest.mark.parametrize("max_points", [1, 2, 3])
@pytest.mark.parametrize("mutant", [None, "every_map", "least_member_only"])
@pytest.mark.parametrize("lemma, oracle", MAP_SWEEPS)
def test_the_map_sweeps_match_their_oracles(monkeypatch, lemma, oracle, mutant, max_points):
    """Same instance count and the same failures in the same order."""
    if mutant == "every_map":
        monkeypatch.setattr(pstop, "iter_continuous_ps_maps", every_map)
    elif mutant == "least_member_only":
        monkeypatch.setattr(pstop, "subspace_ps", least_member_only(pstop.subspace_ps))
    assert lemma(max_points) == oracle(max_points)


@st.composite
def four_point_maps(draw):
    """Two 4-point pseudotopologies, point maps of the carrier continuous
    from the first to the second or not, and whether subspaces are mutated."""

    def space():
        return PsSpace(pstop.PS_LABELS[:4], [draw(st.integers(0, 15)) | 1 << i for i in range(4)])

    xi, zeta = space(), space()
    continuous = st.sampled_from(list(iter_continuous_ps_maps(xi, zeta)))
    any_map = st.tuples(*[st.integers(0, 3)] * 4)
    maps = draw(st.lists(st.one_of(continuous, any_map), min_size=1, max_size=5))
    return xi, zeta, maps, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(four_point_maps())
def test_the_map_sweeps_match_their_oracles_at_four_points(case):
    """The corpus is the drawn pair, and every pair of it gets the drawn maps."""
    xi, zeta, maps, mutate = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pstop, "ps_spaces_up_to_iso", lambda n: [xi, zeta] if n == 4 else [])
        mp.setattr(pstop, "iter_continuous_ps_maps", lambda source, target: iter(maps))
        if mutate:
            mp.setattr(pstop, "subspace_ps", least_member_only(pstop.subspace_ps))
        for lemma, oracle in (p.values for p in MAP_SWEEPS):
            assert lemma(4) == oracle(4)


def test_pushout_ps_glues_like_spaces():
    a = discrete_ps(["a"])
    b = PsSpace.from_lim(["1", "2"], {"1": ["1"], "2": ["1", "2"]})
    space, b_inj, c_inj = pushout_ps((a, (0,), b), (a, (0,), b))
    assert space.n == 3
    assert b_inj[0] == c_inj[0]
    assert b_inj[1] != c_inj[1]
    assert check_continuity(b_inj, b, space)
    assert check_continuity(c_inj, b, space)


def test_pushout_ps_refuses_legs_without_a_shared_source():
    a = discrete_ps(["a"])
    b = discrete_ps(["1", "2"])
    with pytest.raises(CarrierMismatchError):
        pushout_ps((a, (0,), b), (b, (0, 1), b))


def test_continuous_map_enumeration_matches_filtering():
    """Every labelled pseudotopology of 1 to 3 points, relabelled twins included."""
    spaces = [xi for n in range(1, 4) for xi in all_ps_spaces(n)]
    assert len(spaces) == 69
    for xi in spaces:
        for zeta in spaces:
            fast = set(iter_continuous_ps_maps(xi, zeta))
            slow = {
                m
                for m in itertools.product(range(zeta.n), repeat=xi.n)
                if check_continuity(m, xi, zeta)
            }
            assert fast == slow


def test_lemma_suite_all_hold_at_desk_scale():
    for report in run_group("pstop-lemmas", SuiteOptions(max_points=2)):
        assert report.ok, report


def test_tau_iota_and_lattice_lemmas_at_three_points():
    assert not lemma_tau_iota(3)[1]
    assert lemma_lattice_bounds(3) == (4113, [])
    assert not lemma_pushout_agreement(2)[1]


def test_top_modification_matches_the_subset_sweep():
    """The opens of tau(xi) are the sets containing every point whose limit meets them."""
    for n in range(1, 4):
        for xi in ps_spaces_up_to_iso(n):
            swept = [
                m
                for m in range(xi.full + 1)
                if all(not (xi.lim[x] & m) or (m >> x & 1) for x in range(xi.n))
            ]
            assert top_modification(xi).opens == tuple(
                sorted(swept, key=lambda m: (bin(m).count("1"), m))
            )
