"""The opens/points adjunction between finite spaces and frames."""

import pytest
from hypothesis import given, settings

from finitetop.corpus import all_frames, all_spaces, frame_corpus
from finitetop.errors import HypothesisError, NotHomError
from finitetop.frames import (
    FrameHom,
    chain_frame,
    frame_from_poset,
    frame_isomorphism,
    two,
)
from finitetop.poset import iter_monotone_maps
from finitetop.spaces import is_sober, product_spaces, spaces_homeomorphic
from finitetop.spatial import adjunction_check, is_spatial, locale_points, omega, pt

from conftest import (
    discrete_space,
    downset_frames,
    grid_poset,
    indiscrete_space,
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
    points = pt(c3)
    for g, t in zip(report.space_maps, report.transposes):
        # a sends x to top when the generator of the point g(x) lies below a
        for a in range(c3.n):
            mask = 0
            for x in range(s.n):
                if c3.leq_idx(c3.order.index(points.points[g.mapping[x]]), a):
                    mask |= 1 << x
            assert t.mapping[a] == s.opens.index(mask)


def test_transpose_is_natural_in_the_space():
    """The transpose of h then g is the transpose of g followed by omega(h)."""
    s = sierpinski()
    c3 = chain_frame(3)
    report = adjunction_check(s, c3)
    transpose = dict(zip(report.space_maps, report.transposes))
    om = omega(s)
    for h in iter_monotone_maps(s, s):
        omega_h = FrameHom(om, om, [s.opens.index(h.preimage_mask(u)) for u in s.opens])
        for g, t_g in transpose.items():
            assert transpose[h.then(g)] == t_g.then(omega_h)


def test_omega_of_product_is_tensor_sized():
    s = sierpinski()
    prod, _, _ = product_spaces(s, s)
    assert omega(prod).n == 6
