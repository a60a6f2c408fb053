"""Pseudotopological spaces, convergence, and the lemma checks."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitetop import pstop
from finitetop.bits import iter_bits
from finitetop.corpus import all_spaces
from finitetop.errors import CarrierMismatchError, EmptySubspaceError
from finitetop.pstop import (
    PsSpace,
    adherence_filter,
    all_ps_spaces,
    all_pseudotopologies,
    check_continuity,
    compact_at,
    continuous_on_ultrafilters,
    discrete_ps,
    final_structure,
    finer_ps,
    is_compact_ps,
    iter_continuous_ps_maps,
    join_ps,
    lemma_lattice_bounds,
    lemma_pushout_agreement,
    lemma_tau_iota,
    lim_filter,
    meet_ps,
    ps_from_space,
    ps_spaces_up_to_iso,
    pushout_ps,
    subspace_ps,
    top_modification,
)
from finitetop.suites import SuiteOptions, run_group

from conftest import discrete_space, indiscrete_space


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


def test_ultrafilter_continuity_licenses_all_filters():
    for n_src, n_tgt in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for xi in ps_spaces_up_to_iso(n_src):
            for zeta in ps_spaces_up_to_iso(n_tgt):
                for mapping in itertools.product(range(n_tgt), repeat=n_src):
                    fast = continuous_on_ultrafilters(mapping, xi, zeta)
                    slow = bool(check_continuity(mapping, xi, zeta))
                    assert fast == slow


def test_ultrafilter_licensing_spot_checks_at_four_points():
    rng = random.Random(3)
    spaces = list(all_pseudotopologies("1234"))
    for _ in range(500):
        xi = spaces[rng.randrange(len(spaces))]
        zeta = spaces[rng.randrange(len(spaces))]
        mapping = tuple(rng.randrange(4) for _ in range(4))
        fast = continuous_on_ultrafilters(mapping, xi, zeta)
        slow = bool(check_continuity(mapping, xi, zeta))
        assert fast == slow


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
    mapping, xi, zeta = case
    assert continuous_on_ultrafilters(mapping, xi, zeta) == bool(
        check_continuity(mapping, xi, zeta)
    )


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


def test_lattice_bounds_catch_an_indiscrete_meet_and_a_discrete_join(monkeypatch):
    """Both are bounds of every pair but not the extremal ones, so the lemma fails."""
    monkeypatch.setattr(pstop, "meet_ps", lambda xi, zeta: PsSpace(xi.points, [xi.full] * xi.n))
    monkeypatch.setattr(pstop, "join_ps", lambda xi, zeta: discrete_ps(xi.points))
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


@pytest.mark.parametrize("n", [1, 2])
def test_lattice_bitset_clauses_match_the_literal_clauses(n):
    """Every pair, against every candidate meet and join on the carrier."""
    everything = list(all_pseudotopologies(pstop.PS_LABELS[:n]))
    bits = pstop._refinement_bits(everything)
    verdicts = set()
    for xi, zeta, met, joined in itertools.product(everything, repeat=4):
        literal = _literal_extremal(everything, xi, zeta, met, joined)
        assert pstop._extremal(bits, xi, zeta, met, joined) == literal
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
        out[space.lim] = (above, below)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_refinement_bits_match_the_pairwise_loop(n):
    everything = list(all_pseudotopologies(pstop.PS_LABELS[:n]))
    assert pstop._refinement_bits(everything) == _literal_refinement_bits(everything)


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
    assert not lemma_lattice_bounds(2)[1]
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
