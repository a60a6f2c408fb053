"""The opens/points adjunction between finite spaces and frames."""

import itertools

import pytest
from hypothesis import given, settings

from finitetop import (
    FrameHom,
    HypothesisError,
    NotHomError,
    adjunction_check,
    chain_frame,
    check_frame_hom,
    frame_corpus,
    frame_from_poset,
    frame_isomorphism,
    is_sober,
    is_spatial,
    iter_continuous_maps,
    iter_frame_homs,
    locale_points,
    omega,
    omega_map,
    product_spaces,
    pt,
    pt_map,
    space_to_loc_transpose,
    spaces_homeomorphic,
    two,
)
from finitetop.corpus import all_frames, all_spaces

from conftest import (
    diamond_m3,
    discrete_space,
    downset_frames,
    grid_poset,
    indiscrete_space,
    pentagon_n5,
    point_space,
    sierpinski,
)


def test_omega_of_point_is_two():
    assert frame_isomorphism(omega(point_space()), two()) is not None


def test_omega_of_sierpinski_is_chain3():
    assert frame_isomorphism(omega(sierpinski()), chain_frame(3)) is not None


def test_omega_of_discrete_two_is_powerset():
    b4 = frame_from_poset(grid_poset())
    assert frame_isomorphism(omega(discrete_space(["a", "b"])), b4) is not None


def test_pt_of_two_is_a_point():
    assert pt(two()).n == 1


def test_pt_of_chain3_is_sierpinski():
    space = pt(chain_frame(3))
    assert spaces_homeomorphic(space, sierpinski()) is not None


def test_pt_of_powerset_is_discrete_two():
    b4 = frame_from_poset(grid_poset())
    space = pt(b4)
    assert spaces_homeomorphic(space, discrete_space(["a", "b"])) is not None


def test_chain3_has_two_points():
    assert len(locale_points(chain_frame(3))) == 2


def _oracle_points(frame):
    """(generator, mapping) of every principal filter that is a hom into 2.

    The sweep over every element, each up-set tried as a hom and kept when
    it validates.
    """
    target = two()
    out = []
    for x in range(frame.n):
        mapping = [1 if frame.leq_idx(x, a) else 0 for a in range(frame.n)]
        try:
            out.append((x, FrameHom(frame, target, mapping).mapping))
        except NotHomError:
            continue
    return out


def _points(frame):
    return [(p.generator, p.hom.mapping) for p in locale_points(frame)]


def test_points_match_the_all_elements_sweep_on_the_corpus():
    for frame in all_frames(6):
        assert _points(frame) == _oracle_points(frame)
        assert [g for g, _ in _points(frame)] == list(frame.irreducibles)


def test_points_match_the_sweep_on_non_distributive_tables():
    for poset in (diamond_m3(), pentagon_n5()):
        table = frame_from_poset(poset, check_distributive=False)
        assert _points(table) == _oracle_points(table)
        assert len(_points(table)) < len(table.irreducibles)


@settings(max_examples=100, deadline=None)
@given(downset_frames(max_n=5))
def test_points_match_the_sweep_on_random_downset_frames(frame):
    assert _points(frame) == _oracle_points(frame)


def test_every_corpus_frame_is_spatial():
    for frame in frame_corpus():
        report = is_spatial(frame)
        assert report.spatial
        inv = report.inverse
        fwd = report.comparison
        assert inv is not None
        for a in range(frame.n):
            assert inv.mapping[fwd.mapping[a]] == a


def test_omega_then_pt_recovers_sober_spaces():
    for space in all_spaces(3):
        back = pt(omega(space))
        if is_sober(space):
            assert spaces_homeomorphic(back, space) is not None
        else:
            assert spaces_homeomorphic(back, space) is None


def test_pt_then_omega_recovers_corpus_frames():
    for frame in frame_corpus():
        assert frame_isomorphism(omega(pt(frame)), frame) is not None


def test_omega_map_is_contravariant():
    s = sierpinski()
    maps = list(iter_continuous_maps(s, s))
    om = omega(s)
    for f, g in itertools.product(maps, repeat=2):
        composite = omega_map(f.then(g), omega_source=om, omega_target=om)
        stepwise = omega_map(g, omega_source=om, omega_target=om).then(
            omega_map(f, omega_source=om, omega_target=om)
        )
        assert composite == stepwise


def test_pt_map_is_contravariant():
    c3 = chain_frame(3)
    homs = list(iter_frame_homs(c3, c3))
    space = pt(c3)
    for f, g in itertools.product(homs, repeat=2):
        composite = pt_map(f.then(g), source_space=space, target_space=space)
        stepwise = pt_map(g, source_space=space, target_space=space).then(
            pt_map(f, source_space=space, target_space=space)
        )
        assert composite == stepwise


def test_adjunction_on_point_and_two():
    report = adjunction_check(point_space(), two())
    assert report.holds
    assert report.count == 1


def test_adjunction_on_sierpinski_and_chain3():
    report = adjunction_check(sierpinski(), chain_frame(3))
    assert report.holds
    assert report.count == len(report.loc_homs)
    assert report.count == 3


def test_adjunction_requires_sober_space():
    with pytest.raises(HypothesisError):
        adjunction_check(indiscrete_space(["a", "b"]), two())


def test_adjunction_across_small_corpus():
    spaces = [s for s in all_spaces(3) if is_sober(s)]
    frames = [f for f in frame_corpus() if f.n <= 4]
    for space in spaces:
        for frame in frames:
            report = adjunction_check(space, frame)
            assert report.holds


def test_transpose_matches_adjunction_report():
    s = sierpinski()
    c3 = chain_frame(3)
    report = adjunction_check(s, c3)
    om = omega(s)
    for g, t in zip(report.space_maps, report.transposes):
        direct = space_to_loc_transpose(g, c3, omega_source=om)
        assert direct == t


def test_transpose_is_natural_in_the_frame():
    s = sierpinski()
    c3 = chain_frame(3)
    om = omega(s)
    space_c3 = pt(c3)
    for g in iter_continuous_maps(s, space_c3):
        t_g = space_to_loc_transpose(g, c3, omega_source=om)
        for k in iter_frame_homs(c3, c3):
            lhs = space_to_loc_transpose(
                g.then(pt_map(k, source_space=space_c3, target_space=space_c3)),
                c3,
                omega_source=om,
            )
            rhs = k.then(t_g)
            assert lhs == rhs


def test_transpose_is_natural_in_the_space():
    s = sierpinski()
    c3 = chain_frame(3)
    om_s = omega(s)
    space_c3 = pt(c3)
    for g in iter_continuous_maps(s, space_c3):
        t_g = space_to_loc_transpose(g, c3, omega_source=om_s)
        for h in iter_continuous_maps(s, s):
            lhs = space_to_loc_transpose(h.then(g), c3, omega_source=om_s)
            rhs = t_g.then(omega_map(h, omega_source=om_s, omega_target=om_s))
            assert lhs == rhs


def test_omega_of_product_is_tensor_sized():
    s = sierpinski()
    prod, _, _ = product_spaces(s, s)
    assert omega(prod).n == 6
