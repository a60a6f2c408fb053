"""Finite pseudotopological spaces: convergence, continuity, and modification.

A pseudotopology on a finite carrier is determined by the limit sets of the
principal ultrafilters, one per point, subject only to reflexivity.  Every
filter is principal, so a filter is its base mask; base 0 is the improper
filter, and the loops over a base give it every limit, the empty image and
no adherence.  Continuity is decided on the ultrafilter limits alone, and
a refused map's first failing base is the singleton at its lowest failing
point.
Each `lemma_*` check returns (instances, failures), a failure being a
string that names its spaces, map and subsets.

The swept lemmas hold the instances of one continuous map f: xi -> zeta as
the bits of one int, instance (A, B) at bit A * 2^|zeta| + B (2^|xi| in
`lemma_compact_image`, whose B lies in xi): A-major and B-minor, the order
of a loop over A and then B.  Each set bit of a map's instances ANDed with
its bad bits is re-checked before it counts: by `check_continuity`, whose
refusal always names the first failing filter base, or by `compact_at`,
which quantifies over every filter itself.
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
from .order import (
    fibres, fill, gather, inclusion_rows, representatives, restrict, transitive_closure,
    transpose,
)
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
    """Continuity of a point map, with the first failing filter base as witness.

    The map is continuous when the image of each filter's limit set lies in
    the limit of the pushed filter.  A finite pseudotopology is fixed by its
    ultrafilter limits, so that holds exactly when f(lim x) lies in lim f(x)
    for every point x (Choquet, 1948): a y in the limit of every point of a
    base B has f(y) in the limit of every point of f(B).  The same argument
    names the witness: every base below 1 << x holds only points before x,
    so when those all pass, the first failing base is the singleton at the
    lowest failing point x.
    """
    mapping = tuple(mapping)
    if len(mapping) != xi.n:
        raise CarrierMismatchError("the map must be total on the source carrier")
    for x, (lim, v) in enumerate(zip(xi.lim, mapping)):
        if _image(mapping, lim) & ~zeta.lim[v]:
            return ContinuityReport(False, 1 << x)
    return ContinuityReport(True, None)


def iter_continuous_ps_maps(xi, zeta):
    """All continuous point maps between two finite PsSpaces.

    On finite carriers continuity is the ultrafilter condition, y in lim x
    gives f(y) in lim f(x): the maps preserve the limit relations, so
    `order.fill` lists them on the limit rows, which are reflexive.
    """
    return fill(xi.lim, zeta.lim)


def _packed(space):
    """The limit relation as one int, limit set i at bits i * n on; xi is
    finer than eta exactly when its packed relation is a subset of eta's."""
    return sum(lim << (i * space.n) for i, lim in enumerate(space.lim))


def _meet_rels(p, qs, n):
    """Meets of a packed relation on n points with each of `qs`: unions."""
    return [p | q for q in qs]


def _join_rels(p, qs, n):
    """Joins of a packed relation on n points with each of `qs`: intersections
    with the diagonal re-imposed."""
    diagonal = sum(1 << i * (n + 1) for i in range(n))
    return [p & q | diagonal for q in qs]


def _lattice_op(kernel, xi, zeta):
    if xi.points != zeta.points:
        raise CarrierMismatchError("lattice operations need a shared carrier")
    (rel,) = kernel(_packed(xi), [_packed(zeta)], xi.n)
    return PsSpace(xi.points, [rel >> (i * xi.n) & xi.full for i in range(xi.n)])


def meet_ps(xi, zeta):
    """Infimum in the pseudotopology lattice: pointwise union of limit sets."""
    return _lattice_op(_meet_rels, xi, zeta)


def join_ps(xi, zeta):
    """Pointwise intersection of limit sets, with reflexivity re-imposed."""
    return _lattice_op(_join_rels, xi, zeta)


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
    adjunction and is re-verified to be continuous by the ultrafilter test
    of `check_continuity`, n images.
    """
    space = FiniteSpace(xi.points, transitive_closure(list(transpose(xi.lim))))
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
    return PsSpace(xi.label_set(mask), restrict(xi.lim, mask))


def adherence_filter(xi, base):
    """Adherence of the filter at `base`: union of limits of the ultrafilters meshing it."""
    return gather(base, xi.lim)


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


def _subspace_clauses(xi):
    """Per point pair (x, y), the mask of the As where y is in x's limit in
    `subspace_ps(xi, A)`, as (x, y, mask) when it is not 0; and, at x * n + y,
    the mask of the As holding x and y where y is not in that limit."""
    n = xi.n
    holds = [0] * (n * n)
    breaks = [0] * (n * n)
    for a_mask in range(1, xi.full + 1):
        members = list(iter_bits(a_mask))
        for x, lim in zip(members, subspace_ps(xi, a_mask).lim):
            for t, y in enumerate(members):
                (holds if lim >> t & 1 else breaks)[x * n + y] |= 1 << a_mask
    return [(k // n, k % n, h) for k, h in enumerate(holds) if h], breaks


def lemma_subspace_restriction(max_points=3):
    """Restrictions of continuous maps stay continuous on compatible subsets.

    For each continuous f: xi -> zeta of the deduplicated corpus, each A and
    each B holding f(A), f restricted to A -> B must be continuous between
    the subspaces.  By the ultrafilter criterion that fails exactly when some
    y in x's subspace limit on A has f(y) outside f(x)'s on B: clause (x, y)
    ORs, into every A that holds it, the Bs where (f(x), f(y)) breaks.  The
    valid bits depend only on f's values and are kept per map; each bad one
    is re-examined with `check_continuity` and counts only when it refuses.
    """
    spaces = [s for n in range(1, max_points + 1) for s in ps_spaces_up_to_iso(n)]
    clauses = {id(s): _subspace_clauses(s) for s in spaces}
    sizes = range(1, max_points + 1)
    supersets = {m: [sum(1 << b for b in range(1 << m) if b & s == s) for s in range(1 << m)]
                 for m in sizes}
    seen = {m: {} for m in sizes}
    instances = 0
    failures = []
    for xi in spaces:
        holds = clauses[id(xi)][0]
        spread = {m: [(x, y, sum(1 << (a << m) for a in iter_bits(h))) for x, y, h in holds]
                  for m in sizes}
        for zeta in spaces:
            m = zeta.n
            breaks = clauses[id(zeta)][1]
            for mapping in iter_continuous_ps_maps(xi, zeta):
                valid = seen[m].get(mapping)
                if valid is None:
                    valid = seen[m][mapping] = sum(
                        supersets[m][_image(mapping, a)] << (a << m) for a in range(1, xi.full + 1)
                    )
                instances += valid.bit_count()
                bad = 0
                for x, y, a_bits in spread[m]:
                    bad |= a_bits * breaks[mapping[x] * m + mapping[y]]
                for a, b in (divmod(k, 1 << m) for k in iter_bits(bad & valid)):
                    sub = tuple((b & (1 << mapping[i]) - 1).bit_count() for i in iter_bits(a))
                    if not check_continuity(sub, subspace_ps(xi, a), subspace_ps(zeta, b)):
                        failures.append(
                            f"{_arrow(xi, zeta, mapping)} restricted to "
                            f"{mask_label(xi, a)} -> {mask_label(zeta, b)}"
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


def _compact_bits(xi):
    """Bit A * 2^n + B for each A compact at B.  Adherence grows with the
    filter base, so the singletons decide: A is compact at B exactly when
    lim z meets B for every z in A."""
    width = 1 << xi.n
    misses = [sum(1 << b for b in range(width) if not b & lim) for lim in xi.lim]
    everything = (1 << width) - 1
    return sum((everything ^ gather(a, misses)) << (a << xi.n) for a in range(1, width))


def lemma_compact_image(max_points=3):
    """Continuous images of compact-at pairs stay compact-at.

    A source's compact-at pairs are the instances, one fixed mask per space.
    (f(A), f(B)) is compact in zeta exactly when B meets S_a = {b : f(b) in
    lim f(a)} for every a in A; S_a is the preimage of lim f(a), from a table
    kept per map.  Each bad instance is re-checked with the literal
    compact_at before it is recorded.
    """
    spaces = [s for n in range(1, max_points + 1) for s in ps_spaces_up_to_iso(n)]
    seen = {m: {} for m in range(1, max_points + 1)}
    instances = 0
    failures = []
    for xi in spaces:
        n = xi.n
        width = 1 << n
        pairs = _compact_bits(xi)
        missing = [sum(1 << b for b in range(width) if not b & s) for s in range(width)]
        holding = [sum(1 << (a << n) for a in range(width) if a >> z & 1) for z in range(n)]
        for zeta in spaces:
            for mapping in iter_continuous_ps_maps(xi, zeta):
                instances += pairs.bit_count()
                preimage = seen[zeta.n].get(mapping)
                if preimage is None:
                    fibre = fibres(mapping, zeta.n)
                    preimage = [gather(t, fibre) for t in range(zeta.full + 1)]
                    seen[zeta.n][mapping] = preimage
                bad = 0
                for a, v in enumerate(mapping):
                    bad |= holding[a] * missing[preimage[zeta.lim[v]]]
                for a_mask, b_mask in (divmod(k, width) for k in iter_bits(bad & pairs)):
                    if not compact_at(zeta, _image(mapping, a_mask), _image(mapping, b_mask)):
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


def _refinement_bits(packed):
    """Per packed relation, the bitsets over `packed` of the etas above and below it.

    Bit k of `above` is set when the relation lies inside packed[k], and bit
    k of `below` when packed[k] lies inside it: `above` is `inclusion_rows`
    of the relations and `below` its `transpose`.
    """
    above = inclusion_rows(packed)
    return dict(zip(packed, zip(above, transpose(above))))


def _unbounded(bits, p, qs, mets, joins):
    """The k at which mets[k] and joins[k] are not the extremal bounds of p
    and qs[k], all packed relations keyed in `bits`.

    p and q are finer than the meet when their union lies inside it, and
    every common coarsening is coarser when the etas above q miss those above
    p but not above the meet, a bitset made once per meet; dually for joins.
    """
    above_p, below_p = bits[p]
    escapes_meet = {r: above_p & ~bits[r][0] for r in set(mets)}
    escapes_join = {r: below_p & ~bits[r][1] for r in set(joins)}
    return [
        k for k, (q, met, joined) in enumerate(zip(qs, mets, joins))
        if (p | q) & ~met or joined & ~(p & q)
        or bits[q][0] & escapes_meet[met] or bits[q][1] & escapes_join[joined]
    ]


def lemma_lattice_bounds(max_points=3):
    """meet_ps and join_ps are the extremal bounds for the refinement order.

    The meet is a common coarsening of xi and zeta finer than every other,
    and the join a common refinement coarser than every other.  The loop runs
    on packed relations, with the kernels of meet_ps and join_ps.
    """
    instances = 0
    failures = []
    for n in range(1, max_points + 1):
        everything = all_ps_spaces(n)
        packed = [_packed(space) for space in everything]
        bits = _refinement_bits(packed)
        for xi, p in zip(everything, packed):
            found = _unbounded(bits, p, packed, _meet_rels(p, packed, n), _join_rels(p, packed, n))
            failures += [f"{xi!r} and {everything[k]!r}" for k in found]
        instances += len(everything) ** 2
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
