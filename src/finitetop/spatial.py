"""The open-sets / points correspondence for finite spaces and frames.

`omega` builds the frame of a space's opens, which are its up-sets, as
the family of sets `FiniteFrame(labels, opens)`.

Points of a frame are its homs into the two-element frame.  On a finite
lattice the preimage of top under such a hom is a principal prime filter,
so the candidates are indexed by their least member, a join-irreducible,
and validated one by one; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisError, VerificationError
from .frames import FiniteFrame, FrameHom, iter_frame_homs, two
from .poset import iter_monotone_maps, mask_label
from .spaces import FiniteSpace, is_sober


@dataclass(frozen=True)
class LocalePoint:
    """A point of a frame: a hom into 2 tagged with its filter's generator."""

    frame: FiniteFrame
    hom: FrameHom
    generator: int


def omega(space):
    """The topology of a space as a frame ordered by inclusion.

    `FiniteFrame` builds it on the opens, which are closed under union and
    intersection.
    """
    opens = space.opens
    return FiniteFrame([mask_label(space, m) for m in opens], opens)


def locale_points(frame):
    """All frame homs into 2, one per principal prime filter.

    A hom's preimage of top is a filter containing top; on a finite lattice
    that filter is principal, so each candidate is the up-set of a single
    generator and hom validation is exactly primality of the filter.  A
    prime filter's generator is join-irreducible: bottom generates the whole
    lattice, and x = a | b with a, b < x puts a | b in the filter but
    neither a nor b.  So only irreducibles are tried, in ascending order,
    and the points and their order are those of a sweep over every element.
    This is Birkhoff duality for the target 2, whose only irreducible is its
    top: on a distributive frame every candidate is a hom.  Each is still
    validated by FrameHom, so a refusal raises rather than dropping a point.
    """
    target = two()
    out = []
    for x in frame.irreducibles:
        mapping = [1 if frame.leq_idx(x, a) else 0 for a in range(frame.n)]
        out.append(LocalePoint(frame, FrameHom(frame, target, mapping), x))
    return tuple(out)


def _sigma_masks(frame, points, position):
    """Per frame element, the mask of points whose hom sends it to top.

    `position` gives a point's bit from its generator's label.
    """
    out = []
    for a in range(frame.n):
        m = 0
        for p in points:
            if p.hom.mapping[a]:
                m |= 1 << position(frame.labels[p.generator])
        out.append(m)
    return out


def pt(frame):
    """The space of points of a frame under the Sigma-opens topology.

    A point generated by x lies in the open Sigma_a exactly when x <= a.
    The result is always sober; that is re-verified here rather than
    assumed.
    """
    points = locale_points(frame)
    labels = sorted(frame.labels[p.generator] for p in points)
    index = {x: i for i, x in enumerate(labels)}
    opens = set(_sigma_masks(frame, points, index.__getitem__))
    space = FiniteSpace.from_opens(labels, opens)
    if not is_sober(space):
        raise VerificationError("a point space failed to be sober")
    return space


@dataclass(frozen=True)
class SpatialityReport:
    """Verdict of the comparison a |-> Sigma_a, with the witness homs."""

    spatial: bool
    comparison: FrameHom
    inverse: FrameHom | None


def is_spatial(frame):
    """Whether the comparison into the opens of the point space is an iso.

    The comparison is surjective by construction, so spatiality comes down
    to injectivity; the inverse hom is returned as the witness when it
    exists.
    """
    points = locale_points(frame)
    space = pt(frame)
    opens_frame = omega(space)
    position = {m: k for k, m in enumerate(space.opens)}
    sigma = _sigma_masks(frame, points, space.index)
    mapping = [position[m] for m in sigma]
    comparison = FrameHom(frame, opens_frame, mapping)
    if opens_frame.n == frame.n and len(set(mapping)) == frame.n:
        inverse_map = [0] * frame.n
        for a, s in enumerate(mapping):
            inverse_map[s] = a
        return SpatialityReport(True, comparison, FrameHom(opens_frame, frame, inverse_map))
    return SpatialityReport(False, comparison, None)


@dataclass(frozen=True)
class AdjunctionReport:
    """Both hom-sets of the adjunction and the transpose correspondence."""

    holds: bool
    count: int
    loc_homs: tuple
    space_maps: tuple
    transposes: tuple


def adjunction_check(space, frame):
    """Verify the hom-set bijection between Loc maps and continuous maps.

    Enumerates frame homs frame -> omega(space) and continuous maps
    space -> pt(frame), transposes every continuous map, and reports
    whether transposition is a bijection between the two sets.
    """
    if not is_sober(space):
        raise HypothesisError("the space side of the adjunction must be sober")
    opens_frame = omega(space)
    point_space = pt(frame)
    loc_homs = tuple(iter_frame_homs(frame, opens_frame))
    space_maps = tuple(iter_monotone_maps(space, point_space))
    points = locale_points(frame)
    sigma = _sigma_masks(frame, points, point_space.index)
    position = {m: k for k, m in enumerate(space.opens)}
    transposes = tuple(
        FrameHom(frame, opens_frame, [position[g.preimage_mask(s)] for s in sigma])
        for g in space_maps
    )
    holds = len(set(transposes)) == len(space_maps) and set(transposes) == set(loc_homs)
    return AdjunctionReport(holds, len(space_maps), loc_homs, space_maps, transposes)
