"""Finite pseudotopological spaces: convergence, continuity, and modification.

A pseudotopology on a finite carrier is determined by the limit sets of the
principal ultrafilters, one per point, subject only to reflexivity.  Every
filter is principal, so a filter is its base mask; base 0 is the improper
filter, and the loops over a base give it every limit, the empty image and
no adherence.  Each `lemma_*` check returns (instances, failures), a failure
being a string that names its spaces, map and subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct

from .bits import iter_bits
from .errors import (
    CarrierMismatchError,
    EmptySubspaceError,
    SizeError,
    VerificationError,
)
from .order import fill, inclusion_rows, representatives, transitive_closure, transpose
from .poset import Preorder, iter_monotone_maps, mask_label, pushout
from .spaces import FiniteSpace, pushout_spaces

CERTIFY_POINT_CAP = 4
# carrier labels of the enumerated pseudotopology corpora
PS_LABELS = "123456"


class PsSpace:
    """Points with one limit set per principal ultrafilter."""

    def __init__(self, points, lim, *, validate=True):
        self.points = tuple(points)
        self.lim = tuple(lim)
        self._index = {x: i for i, x in enumerate(self.points)}
        if validate:
            if sorted(self.points) != list(self.points):
                raise ValueError("points must be sorted")
            if len(set(self.points)) != len(self.points):
                raise ValueError("duplicate points")
            if len(self.lim) != self.n:
                raise ValueError("one limit set per point is needed")
            for i, m in enumerate(self.lim):
                if m >> self.n:
                    raise ValueError("limit set mentions unknown points")
                if not m >> i & 1:
                    raise ValueError(
                        f"point {self.points[i]!r} must converge to itself"
                    )

    @classmethod
    def from_lim(cls, points, assignment):
        points = tuple(sorted(points))
        index = {x: i for i, x in enumerate(points)}
        lim = [0] * len(points)
        for x, targets in assignment.items():
            m = 0
            for y in targets:
                m |= 1 << index[y]
            lim[index[x]] = m
        return cls(points, lim)

    @property
    def n(self):
        return len(self.points)

    @property
    def full(self):
        return (1 << self.n) - 1

    def index(self, x):
        return self._index[x]

    def label_set(self, mask):
        return tuple(self.points[i] for i in iter_bits(mask))

    def __eq__(self, other):
        return (
            isinstance(other, PsSpace)
            and self.points == other.points
            and self.lim == other.lim
        )

    def __hash__(self):
        return hash((self.points, self.lim))

    def __repr__(self):
        parts = ", ".join(f"{x}->{mask_label(self, m)}" for x, m in zip(self.points, self.lim))
        return f"PsSpace({parts})"


def _arrow(xi, zeta, mapping):
    """A point map with its two spaces, as source -[x>f(x),...]-> target."""
    pairs = ",".join(f"{x}>{zeta.points[v]}" for x, v in zip(xi.points, mapping))
    return f"{xi!r} -[{pairs}]-> {zeta!r}"


def discrete_ps(points):
    points = tuple(sorted(points))
    return PsSpace(points, [1 << i for i in range(len(points))])


def lim_filter(xi, base):
    """Limit set of the filter at `base`: meet of the ultrafilter limits above it.

    The ultrafilters containing the principal filter at A are exactly the
    principal ultrafilters at points of A, so the limit is the intersection
    of their limit sets; at base 0, the improper filter, it is every point.
    """
    out = xi.full
    while base:
        low = base & -base
        out &= xi.lim[low.bit_length() - 1]
        base ^= low
    return out


def _image(mapping, mask):
    """Image of a subset, and so the base of the pushed-forward filter."""
    img = 0
    while mask:
        low = mask & -mask
        img |= 1 << mapping[low.bit_length() - 1]
        mask ^= low
    return img


@dataclass(frozen=True)
class ContinuityReport:
    continuous: bool
    witness: int | None

    def __bool__(self):
        return self.continuous


def check_continuity(mapping, xi, zeta):
    """Continuity of a point map, quantified over every filter literally.

    Checks that the image of each limit set lands in the limit of the
    pushed filter; the first failing base mask is returned as witness.
    """
    mapping = tuple(mapping)
    if len(mapping) != xi.n:
        raise CarrierMismatchError("the map must be total on the source carrier")
    for base in range(xi.full + 1):
        lhs = _image(mapping, lim_filter(xi, base))
        rhs = lim_filter(zeta, _image(mapping, base))
        if lhs & ~rhs:
            return ContinuityReport(False, base)
    return ContinuityReport(True, None)


def continuous_on_ultrafilters(mapping, xi, zeta):
    """The principal-ultrafilter continuity condition only.

    Equivalent to full continuity on finite carriers; the equivalence is
    re-proven exhaustively by a suite rather than taken on faith, and this
    is the licensed fast path.
    """
    for x, lim in enumerate(xi.lim):
        target = zeta.lim[mapping[x]]
        while lim:
            low = lim & -lim
            if not target >> mapping[low.bit_length() - 1] & 1:
                return False
            lim ^= low
    return True


def iter_continuous_ps_maps(xi, zeta):
    """All continuous point maps between two finite PsSpaces.

    By `continuous_on_ultrafilters`, y in lim x must give f(y) in lim f(x):
    the maps preserve the limit relations, so `order.fill` lists them on the
    limit rows, which are reflexive.
    """
    return fill(xi.lim, zeta.lim)


def meet_ps(xi, zeta):
    """Infimum in the pseudotopology lattice: pointwise union of limit sets."""
    if xi.points != zeta.points:
        raise CarrierMismatchError("lattice operations need a shared carrier")
    return PsSpace(xi.points, [a | b for a, b in zip(xi.lim, zeta.lim)])


def join_ps(xi, zeta):
    """Pointwise intersection of limit sets, with reflexivity re-imposed."""
    if xi.points != zeta.points:
        raise CarrierMismatchError("lattice operations need a shared carrier")
    return PsSpace(
        xi.points,
        [(a & b) | (1 << i) for i, (a, b) in enumerate(zip(xi.lim, zeta.lim))],
    )


def finer_ps(xi, zeta):
    """Whether xi is finer than zeta (identity is continuous xi -> zeta)."""
    if xi.points != zeta.points:
        raise CarrierMismatchError("comparison needs a shared carrier")
    return all(a & ~b == 0 for a, b in zip(xi.lim, zeta.lim))


def all_pseudotopologies(points):
    """Every pseudotopology on a carrier: all reflexive limit assignments."""
    points = tuple(sorted(points))
    n = len(points)
    full = (1 << n) - 1
    choices = [
        sorted({m | (1 << i) for m in range(full + 1)}) for i in range(n)
    ]
    for lim in _iterproduct(*choices):
        yield PsSpace(points, lim, validate=False)


def final_structure(pieces, points):
    """Finest pseudotopology on `points` making every given map continuous.

    `pieces` is a list of (source PsSpace, mapping into the new carrier).
    On carriers up to 4 points the defining universal property is
    re-verified against every candidate pseudotopology.
    """
    points = tuple(sorted(points))
    n = len(points)
    lim = [1 << i for i in range(n)]
    for source, mapping in pieces:
        if len(mapping) != source.n:
            raise CarrierMismatchError("a piece map must be total on its source")
        for x in range(source.n):
            lim[mapping[x]] |= _image(mapping, source.lim[x])
    out = PsSpace(points, lim)
    if n <= CERTIFY_POINT_CAP:
        _certify_final(pieces, out)
    return out


def _certify_final(pieces, out):
    for source, mapping in pieces:
        if not check_continuity(mapping, source, out):
            raise VerificationError("a defining map fails continuity into the final structure")
    ident = tuple(range(out.n))
    for candidate in all_pseudotopologies(out.points):
        if all(
            check_continuity(mapping, source, candidate)
            for source, mapping in pieces
        ):
            if not check_continuity(ident, out, candidate):
                raise VerificationError("the final structure is not finest")


def top_modification(xi):
    """The reflection into topological spaces.

    A set is open when every point whose ultrafilter limit meets it already
    lies inside, so y <= x in the specialization order whenever y is a limit
    of x's ultrafilter, and the opens are the up-sets of the transitive
    closure.  The identity carrier map into the result is the unit of the
    adjunction and is re-verified to be continuous.
    """
    rows = [1 << i for i in range(xi.n)]
    for x, lim in enumerate(xi.lim):
        for y in iter_bits(lim):
            rows[y] |= 1 << x
    space = FiniteSpace(xi.points, transitive_closure(rows))
    ident = tuple(range(xi.n))
    if not check_continuity(ident, xi, ps_from_space(space)):
        raise VerificationError("the modification unit failed continuity")
    return space


def ps_from_space(space):
    """A topological space as a PsSpace: x converges to its closure points."""
    return PsSpace(
        space.points,
        [space.closure(1 << i) for i in range(space.n)],
    )


def subspace_ps(xi, mask):
    """Restriction: limits along the inclusion intersected with the subset."""
    if mask == 0:
        raise EmptySubspaceError("a subspace needs at least one point")
    members = list(iter_bits(mask))
    points = tuple(xi.points[i] for i in members)
    lim = []
    for i in members:
        m = 0
        for t, j in enumerate(members):
            if xi.lim[i] >> j & 1:
                m |= 1 << t
        lim.append(m)
    return PsSpace(points, lim)


def adherence_filter(xi, base):
    """Adherence of the filter at `base`: union of limits of the ultrafilters meshing it."""
    out = 0
    for x in iter_bits(base):
        out |= xi.lim[x]
    return out


def compact_at(xi, a_mask, b_mask):
    """Whether A is compact at B: every filter meshing A adheres inside B.

    Quantifies over all filters; the improper one, base 0, meshes nothing.
    """
    for base in range(xi.full + 1):
        if base & a_mask and adherence_filter(xi, base) & b_mask == 0:
            return False
    return True


def is_compact_ps(xi):
    return compact_at(xi, xi.full, xi.full)


def pushout_ps(f_piece, g_piece):
    """Pushout in PsTop: final structure on the glued carrier.

    Arguments are (source, mapping, target) triples sharing the source;
    returns (space, mapping from the first target, mapping from the second).
    The carrier is `poset.pushout`'s on the underlying sets, passed as
    discrete orders since no order reaches the labels, so carrier and
    labels match pushout_spaces.
    """
    (a_space, f_map, b_space) = f_piece
    (a_space2, g_map, c_space) = g_piece
    if a_space2 != a_space:
        raise CarrierMismatchError("the span legs must share a source")
    b_set, c_set = (
        Preorder(s.points, [1 << i for i in range(s.n)], validate=False)
        for s in (b_space, c_space)
    )
    points, _, b_inj, c_inj = pushout(b_set, c_set, f_map, g_map)
    space = final_structure([(b_space, b_inj), (c_space, c_inj)], points)
    return space, b_inj, c_inj


def all_ps_spaces(n):
    """Every pseudotopology on the n-point carrier labelled from PS_LABELS."""
    if n > 4:
        raise SizeError("exhaustive pseudotopology corpus stops at 4 points")
    return list(all_pseudotopologies(PS_LABELS[:n]))


def ps_spaces_up_to_iso(n):
    """One representative per isomorphism class of pseudotopologies.

    Each is the first labelled space of its class in `all_ps_spaces` order,
    so the output is deterministic and the suites that quantify per space
    can skip isomorphic repeats.
    """
    points = PS_LABELS[:n]
    lims = representatives(xi.lim for xi in all_ps_spaces(n))
    return [PsSpace(points, lim, validate=False) for lim in lims]


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
        out.append((mask, subspace_ps(xi, mask), members, pos))
    return out


def lemma_subspace_restriction(max_points=3):
    """Restrictions of continuous maps stay continuous on compatible subsets.

    Quantifies over the deduplicated corpus: for each continuous map xi ->
    zeta, each A and each B holding f(A), f restricted to A -> B must be
    continuous between the subspaces.  Each space's subspaces, member lists
    and position tables are built once, so an instance's restricted map is
    f's values on A renumbered into B.  Every instance is checked with the
    licensed ultrafilter criterion, and any miss is re-examined with the
    literal all-filters checker before it counts as a failure.
    """
    instances = 0
    failures = []
    spaces = [s for n in range(1, max_points + 1) for s in ps_spaces_up_to_iso(n)]
    subspaces = {id(xi): _subspaces(xi) for xi in spaces}
    for xi in spaces:
        subs_x = subspaces[id(xi)]
        for zeta in spaces:
            subs_z = subspaces[id(zeta)]
            for mapping in iter_continuous_ps_maps(xi, zeta):
                for a_mask, sub_xi, members, _ in subs_x:
                    values = [mapping[i] for i in members]
                    fa = _image(mapping, a_mask)
                    for b_mask, sub_zeta, _, pos in subs_z:
                        if fa & ~b_mask:
                            continue
                        instances += 1
                        sub = tuple(map(pos.__getitem__, values))
                        if not continuous_on_ultrafilters(sub, sub_xi, sub_zeta):
                            if not check_continuity(sub, sub_xi, sub_zeta):
                                failures.append(
                                    f"{_arrow(xi, zeta, mapping)} restricted to "
                                    f"{mask_label(xi, a_mask)} -> {mask_label(zeta, b_mask)}"
                                )
    return instances, failures


def lemma_subspace_modification(max_points=3):
    """tau of a subspace is finer than the subspace of tau."""
    instances = 0
    failures = []
    for n in range(1, max_points + 1):
        for xi in ps_spaces_up_to_iso(n):
            tau_whole = top_modification(xi)
            for a_mask in range(1, xi.full + 1):
                instances += 1
                fine = top_modification(subspace_ps(xi, a_mask))
                coarse = tau_whole.restrict(a_mask)
                if any(not fine.is_open(u) for u in coarse.opens):
                    failures.append(f"{xi!r} on {mask_label(xi, a_mask)}")
    return instances, failures


def lemma_compact_image(max_points=3):
    """Continuous images of compact-at pairs stay compact-at.

    Each space's compact-at pairs are listed once by `_compact_pairs`: a
    source's pairs are the instances, and an image pair holds when it is
    among the target's pairs, the same predicate.  A miss is re-checked with
    the literal compact_at before it is recorded.
    """
    instances = 0
    failures = []
    spaces = [s for n in range(1, max_points + 1) for s in ps_spaces_up_to_iso(n)]
    compact = {id(xi): _compact_pairs(xi) for xi in spaces}
    compact_sets = {key: set(pairs) for key, pairs in compact.items()}
    for xi in spaces:
        pairs = compact[id(xi)]
        images = [0] * (xi.full + 1)
        for zeta in spaces:
            target_pairs = compact_sets[id(zeta)]
            for mapping in iter_continuous_ps_maps(xi, zeta):
                for m in range(1, xi.full + 1):
                    low = m & -m
                    images[m] = images[m ^ low] | 1 << mapping[low.bit_length() - 1]
                for a_mask, b_mask in pairs:
                    instances += 1
                    fa = images[a_mask]
                    fb = images[b_mask]
                    if (fa, fb) in target_pairs:
                        continue
                    if not compact_at(zeta, fa, fb):
                        failures.append(
                            f"{_arrow(xi, zeta, mapping)} on {mask_label(xi, a_mask)} "
                            f"compact at {mask_label(xi, b_mask)}"
                        )
    return instances, failures


def lemma_compact_balanced(max_points=3):
    """Continuous bijections from compact PsSpaces to Hausdorff topological ones invert."""
    instances = 0
    failures = []
    for n in range(1, max_points + 1):
        hausdorff = discrete_ps(PS_LABELS[:n])
        for xi in ps_spaces_up_to_iso(n):
            if not is_compact_ps(xi):
                continue
            for mapping in iter_continuous_ps_maps(xi, hausdorff):
                if len(set(mapping)) != n:
                    continue
                instances += 1
                inverse = [0] * n
                for i, v in enumerate(mapping):
                    inverse[v] = i
                if not check_continuity(tuple(inverse), hausdorff, xi):
                    failures.append(_arrow(xi, hausdorff, mapping))
    return instances, failures


def lemma_pushout_agreement(max_points=2):
    """Top pushouts of compact spaces with Hausdorff apex agree with PsTop ones.

    Spans of topological spaces are pushed out in Top (via open-set gluing)
    and in PsTop (final structure); whenever the Top apex is Hausdorff,
    i.e. discrete, the two structures must coincide.
    """
    from .corpus import spaces_upto

    instances = 0
    failures = []
    spaces = [s for s in spaces_upto(max_points) if s.n >= 1]
    for a_space in spaces:
        for b_space in spaces:
            maps_ab = list(iter_monotone_maps(a_space, b_space))
            if not maps_ab:
                continue
            for c_space in spaces:
                for f in maps_ab:
                    for g in iter_monotone_maps(a_space, c_space):
                        apex, ib, ic = pushout_spaces(f, g)
                        if not apex.is_discrete:
                            continue
                        instances += 1
                        ps_a, ps_b, ps_c = map(ps_from_space, (a_space, b_space, c_space))
                        ps_apex, _, _ = pushout_ps(
                            (ps_a, f.mapping, ps_b), (ps_a, g.mapping, ps_c)
                        )
                        if ps_apex != ps_from_space(apex):
                            failures.append(
                                f"{_arrow(ps_a, ps_b, f.mapping)} and "
                                f"{_arrow(ps_a, ps_c, g.mapping)}"
                            )
    return instances, failures


def lemma_tau_iota(max_points=3):
    """Continuity into an embedded space matches continuity out of tau.

    For every pseudotopology xi and topological space S the continuous maps
    xi -> iota(S) and tau(xi) -> S must have the same underlying point
    functions; that hom-bijection is the adjunction tau -| iota.
    """
    from .corpus import spaces_upto

    instances = 0
    failures = []
    targets = [s for s in spaces_upto(max_points) if s.n >= 1]
    for n in range(1, max_points + 1):
        for xi in ps_spaces_up_to_iso(n):
            tau = top_modification(xi)
            for target in targets:
                instances += 1
                via_ps = set(iter_continuous_ps_maps(xi, ps_from_space(target)))
                via_top = set(fill(tau.up, target.up))
                if via_ps != via_top:
                    failures.append(f"{xi!r} into {ps_from_space(target)!r}")
    return instances, failures


def _refinement_bits(everything):
    """Per limit tuple, the bitsets over `everything` of the etas above and below it.

    Bit k of `above` is set when the space is finer than everything[k], and
    bit k of `below` when everything[k] is finer than the space.  A space on
    n points packs into n * n bits, limit set i at bits i * n on, and xi is
    finer than eta exactly when xi's packed relation is a subset of eta's;
    so `above` is `inclusion_rows` of the packed relations and `below` its
    `transpose`.
    """
    packed = []
    for space in everything:
        m = 0
        for i, lim in enumerate(space.lim):
            m |= lim << (i * space.n)
        packed.append(m)
    above = inclusion_rows(packed)
    below = transpose(above)
    return {space.lim: pair for space, pair in zip(everything, zip(above, below))}


def _extremal(bits, xi, zeta, met, joined):
    """Every common coarsening of xi and zeta is coarser than met, and every
    common refinement is finer than joined, as two bitset tests."""
    above_xi, below_xi = bits[xi.lim]
    above_zeta, below_zeta = bits[zeta.lim]
    return (
        above_xi & above_zeta & ~bits[met.lim][0] == 0
        and below_xi & below_zeta & ~bits[joined.lim][1] == 0
    )


def lemma_lattice_bounds(max_points=3):
    """meet_ps and join_ps are the extremal bounds for the refinement order.

    The meet is a common coarsening of xi and zeta finer than every other,
    and the join a common refinement coarser than every other; the two
    extremality clauses read `_refinement_bits` of the carrier's corpus.
    """
    instances = 0
    failures = []
    for n in range(1, max_points + 1):
        everything = all_ps_spaces(n)
        bits = _refinement_bits(everything)
        for xi in everything:
            for zeta in everything:
                instances += 1
                met = meet_ps(xi, zeta)
                joined = join_ps(xi, zeta)
                ok = (
                    finer_ps(xi, met)
                    and finer_ps(zeta, met)
                    and finer_ps(joined, xi)
                    and finer_ps(joined, zeta)
                    and _extremal(bits, xi, zeta, met, joined)
                )
                if not ok:
                    failures.append(f"{xi!r} and {zeta!r}")
    return instances, failures


def lemma_all_compact(max_points=3):
    """Every finite pseudotopological space is compact; no construction is under test."""
    instances = 0
    failures = []
    for n in range(1, max_points + 1):
        for xi in ps_spaces_up_to_iso(n):
            instances += 1
            if not is_compact_ps(xi):
                failures.append(repr(xi))
    return instances, failures
