"""Finite frames, frame homomorphisms, adjoints and nuclei.

A finite frame is a finite distributive lattice, and by Birkhoff's
representation a family of sets closed under union and intersection.
There is one constructor, `FiniteFrame(labels, family)`: it checks closure
and orders the family by inclusion.  The family is the only copy of the
lattice: a join is a union and a meet an intersection, looked up in the
family's index, so they distribute by construction and nothing is swept.
`spatial.omega` builds on opens, `downset_frame` on downsets, and
`colimits.coproduct`, `product_frames` and `pushout_loc` on families their
factors' families give.

`frame_from_poset` takes a frame given only as an order (a parsed frame,
the corpus, `chain_frame`) to the same builder, by Birkhoff's
representation: an element is the set of join-irreducibles below it.  The
order is accepted when those sets are closed and ordered by inclusion as
given.  Only a refused order runs the row scan that names a missing bound
and the triple sweep `distributivity_witness` that names a failing
triple, so non-lattices and non-distributive lattices are rejected with
witnesses.

Frame homs are certified by Birkhoff duality (`_check_hom`): a map of
finite distributive lattices preserving bottom and top is a hom exactly
when the preimage of each principal prime filter of the target is one of
the source's `prime_filters`.  Only a refused map runs the pair scan that
names the first join or meet it breaks.  Adjoints are rows too:
`right_adjoint` joins the columns of the up rows of a hom's values, and
`GaloisConnection` checks the adjunction law once per source element, as
the fibres of the right map gathered over its up row.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import itemgetter

from .bits import iter_bits, popcount
from .errors import (
    CarrierMismatchError,
    NotDistributiveError,
    NotHomError,
    NotLatticeError,
    NotPrenucleusError,
    VerificationError,
)
from .order import fibres, fill, gather, inclusion_rows, is_isomorphism, isomorphisms, transpose
from .poset import FinitePoset, mask_label, validate_poset


class FiniteFrame:
    """The frame of a family of sets closed under union and intersection.

    Element k is `family[k]`, ordered by inclusion; `index` maps a member
    back to its position.  The family is the frame's only lattice data:
    `join(i, j)` and `meet(i, j)` are the positions of the union and the
    intersection of two members, and `join_mask`/`meet_mask` fold the
    members of a mask in one pass and look the result up once.  Closure is
    checked at build, at every size: `_is_closed` tries each member
    against the generators d(p) and u(p) of `_point_generators`.  When
    that fails, `_first_miss` scans the unions and then the intersections
    in row order and the first missing one is raised as
    VerificationError.  The order is inclusion (`order.inclusion_rows`, on
    the same holder columns).  Bottom and top are the AND and the OR of
    the family.  The join-irreducibles are the distinct d(p), the least
    member holding each point p outside the bottom (Birkhoff), in
    ascending position.  Unions and intersections of sets distribute over
    each other, so no distributivity sweep runs.
    """

    def __init__(self, labels, family):
        family = tuple(family)
        index = {m: k for k, m in enumerate(family)}
        holders = transpose(family)
        downs, ups = _point_generators(family, holders)
        if not _is_closed(family, index, downs, ups):
            raise _first_miss(labels, family, index)
        self.top = index.get(reduce(int.__or__, family, 0))
        self.bottom = index.get(reduce(int.__and__, family, ~0))
        if self.bottom is None or self.top is None:
            raise VerificationError("the family has no least or no greatest member")
        self.family = family
        self.index = index
        # join-irreducibles, ascending
        self.irreducibles = tuple(sorted(map(index.__getitem__, downs)))
        self.order = FinitePoset(labels, inclusion_rows(family, holders), validate=False)

    @property
    def n(self):
        return self.order.n

    @property
    def labels(self):
        return self.order.points

    def leq_idx(self, i, j):
        return self.order.leq_idx(i, j)

    def join(self, i, j):
        return self.index[self.family[i] | self.family[j]]

    def meet(self, i, j):
        return self.index[self.family[i] & self.family[j]]

    def join_mask(self, mask):
        return self.index[gather(mask, self.family) | self.family[self.bottom]]

    def meet_mask(self, mask):
        family = self.family
        acc = family[self.top]
        for i in iter_bits(mask):
            acc &= family[i]
        return self.index[acc]

    @cached_property
    def irreducibles_below(self):
        """Per element, the mask of join-irreducibles below it."""
        rows = [0] * self.n
        up = self.order.up
        for j in self.irreducibles:
            bit = 1 << j
            for x in iter_bits(up[j]):
                rows[x] |= bit
        return tuple(rows)

    @cached_property
    def prime_filters(self):
        """The up rows of the join-irreducibles: the principal prime filters (Birkhoff)."""
        up = self.order.up
        return frozenset(up[p] for p in self.irreducibles)

    @cached_property
    def irreducible_up(self):
        """Up rows of the poset J of join-irreducibles, on positions in `irreducibles`."""
        irr = self.irreducibles
        up = self.order.up
        return tuple(
            sum(1 << s for s, q in enumerate(irr) if up[p] >> q & 1) for p in irr
        )

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteFrame) and self.order == other.order)

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"FiniteFrame({self.n} elements)"


def frame_from_poset(poset):
    """Build a FiniteFrame, or raise NotLatticeError / NotDistributiveError.

    A front end to `FiniteFrame` (Birkhoff): a finite poset is a
    distributive lattice exactly when x -> J(x), the join-irreducibles
    below x, is an order embedding onto a family closed under union and
    intersection.  J is the elements whose strict down row is a down row.
    The order is accepted when the frame of the masks `down[x] & J` is
    built and its inclusion rows are the given up rows.

    A refusal runs the row scan: the upper bounds of i and j form the
    up-set `up[i] & up[j]`, which has a least element u exactly when it
    equals `up[u]`, so every join is one dict lookup, and every meet one on
    down rows.  The first pair in row order without a bound is named, join
    before meet.  A refused lattice is not distributive, and
    `distributivity_witness` names its first failing triple, so M3 and N5
    are rejected with witnesses.
    """
    n = poset.n
    if n == 0:
        raise NotLatticeError("a frame needs at least one element")
    up = poset.up
    down = poset.down
    rows = set(down)
    j_mask = sum(1 << x for x in range(n) if down[x] & ~(1 << x) in rows)
    try:
        frame = FiniteFrame(poset.points, [d & j_mask for d in down])
    except VerificationError:
        pass
    else:
        if frame.order.up == up:
            return frame
    least = {}
    greatest = {}
    for u in range(n):
        least.setdefault(up[u], u)
        greatest.setdefault(down[u], u)
    join = []
    meet = []
    for i in range(n):
        jrow = tuple(map(least.get, map(up[i].__and__, up)))
        mrow = tuple(map(greatest.get, map(down[i].__and__, down)))
        if None in jrow or None in mrow:
            _raise_missing_bound(poset, i, jrow, mrow)
        join.append(jrow)
        meet.append(mrow)
    witness = distributivity_witness(join, meet)
    if witness is None:
        raise VerificationError(
            "the family kernel and the triple sweep disagree on distributivity"
        )
    a, b, c = (poset.points[k] for k in witness)
    raise NotDistributiveError(f"distributivity fails on ({a!r}, {b!r}, {c!r})")


def _raise_missing_bound(poset, i, jrow, mrow):
    """Name the first j >= i whose join, then meet, with i is missing.

    Row i is reached only after every earlier row was complete, so by
    symmetry no j < i is missing.
    """
    for j in range(i, poset.n):
        if jrow[j] is None:
            raise NotLatticeError(
                f"no least upper bound for {poset.points[i]!r}, {poset.points[j]!r}"
            )
        if mrow[j] is None:
            raise NotLatticeError(
                f"no greatest lower bound for {poset.points[i]!r}, {poset.points[j]!r}"
            )


def distributivity_witness(join, meet):
    """The first triple (a, b, c) with a&(b|c) != (a&b)|(a&c), or None.

    Triples are visited in lexicographic order over the join and meet
    tables.  `frame_from_poset` runs this sweep only on a lattice the
    family kernel refused, to name the witness.
    For each (a, b) the whole c row is compared at once, (a&(b|c))_c
    against ((a&b)|(a&c))_c, through `itemgetter`; the row is scanned for c
    only when the two differ.
    """
    n = len(join)
    pick_join = [itemgetter(*row) for row in join]
    for a in range(n):
        ma = meet[a]
        pick_meet = itemgetter(*ma)
        for b in range(n):
            jab = join[ma[b]]
            if pick_join[b](ma) != pick_meet(jab):
                jb = join[b]
                for c in range(n):
                    if ma[jb[c]] != jab[ma[c]]:
                        return (a, b, c)
    return None


def _point_generators(masks, holders):
    """The generators d(p) and u(p) of each point p that some member lacks.

    `holders` is `order.transpose(masks)`, the members holding each point.
    d(p) is the AND of the members that hold p and u(p) the OR of the
    members that avoid p; point q is in d(p) when every holder of p holds
    q, and in u(p) when some member avoids p and holds q.  So both depend
    on p only through its holder column, and are computed once per
    distinct column.  Points held by every member are left out: they have
    no u(p), and their d(p) is the AND of the whole family.  Returns the
    lists of d(p) and of u(p).
    """
    everyone = (1 << len(masks)) - 1
    points = {}
    for q, h in enumerate(holders):
        if h:
            points[h] = points.get(h, 0) | 1 << q
    downs = []
    ups = []
    for hp in points:
        if hp == everyone:
            continue
        d = 0
        u = 0
        for hq, qs in points.items():
            if not hp & ~hq:
                d |= qs
            if hq & ~hp:
                u |= qs
        downs.append(d)
        ups.append(u)
    return downs, ups


def _is_closed(masks, index, downs, ups):
    """Whether every `a | d` and every `a & u`, a a member, is a member.

    With `_point_generators`' d(p) and u(p) this decides closure under
    union and intersection in O(n * points) gathers.  Sound: a member b is
    the union of d(p) over its points and the intersection of u(p) over the
    points outside it, so a | b and a & b are reached one generator at a
    time (the points every member holds change neither).  Complete: in a
    closed family d(p) and u(p) are members.
    """
    has = index.__contains__
    return all(all(map(has, map(d.__or__, masks))) for d in downs) and all(
        all(map(has, map(u.__and__, masks))) for u in ups
    )


def _first_miss(labels, masks, index):
    """VerificationError naming the first missing union, then intersection, in row order."""
    for op, what in (("__or__", "union"), ("__and__", "intersection")):
        for a, m in enumerate(masks):
            row = tuple(map(index.get, map(getattr(m, op), masks)))
            if None in row:
                b = row.index(None)
                return VerificationError(
                    f"the family misses the {what} of {labels[a]!r} and {labels[b]!r}"
                )
    return VerificationError("the closure screen and the row scan disagree")


def downset_frame(poset):
    """All downsets of a poset as a frame ordered by inclusion; the free frame on the poset.

    Elements are the downsets sorted by label, as a parsed frame's are.
    """
    pairs = sorted((mask_label(poset, m), m) for m in poset.downsets())
    labels, masks = zip(*pairs)
    return FiniteFrame(labels, masks)


class FrameHom:
    """A map preserving bottom, top, binary joins and binary meets.

    In the finite case this forces preservation of all joins and meets, so
    these are exactly the frame homomorphisms.  Every hom is certified by
    `_check_hom` when it is built.
    """

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        _check_hom(source, target, self.mapping)

    def __call__(self, i):
        return self.mapping[i]

    def then(self, other):
        if self.target != other.source:
            raise CarrierMismatchError("composition needs matching middle object")
        return FrameHom(self.source, other.target, composed(self, other))

    def __eq__(self, other):
        return (
            isinstance(other, FrameHom)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __repr__(self):
        pairs = ", ".join(
            f"{x}->{self.target.labels[v]}"
            for x, v in zip(self.source.labels, self.mapping)
        )
        return f"FrameHom({pairs})"


def composed(first, second):
    """The mapping of `first` then `second`, unvalidated.

    The composite of two homs is a hom; `then` validates the one it builds.
    """
    return tuple(map(second.mapping.__getitem__, first.mapping))


def _check_hom(source, target, mapping):
    """Raise NotHomError unless `mapping` is a frame hom source -> target.

    After the length, range, bottom and top checks, Birkhoff duality
    (Davey and Priestley, 2002, ch. 5): a map h of finite distributive
    lattices keeping bottom and top is a hom exactly when, for each
    join-irreducible q of the target, the preimage {x : q <= h(x)} is the
    up row of a join-irreducible of the source, one of its `prime_filters`.
    The preimages are gathered once per distinct value of h, so the cost
    follows h's image, not the target's rows.  Only a refused map runs the
    pair scan, which names the first pair i <= j whose join, then meet, breaks.
    """
    n = source.n
    if len(mapping) != n:
        raise NotHomError("mapping length does not match the source")
    if min(mapping) < 0 or max(mapping) >= target.n:
        v = next(v for v in mapping if not 0 <= v < target.n)
        raise NotHomError(f"{v!r} is not an element of the target")
    if mapping[source.bottom] != target.bottom:
        raise NotHomError("bottom is not preserved")
    if mapping[source.top] != target.top:
        raise NotHomError("top is not preserved")
    over = {}
    for x, v in enumerate(mapping):
        over[v] = over.get(v, 0) | 1 << x
    below = target.irreducibles_below
    preimages = [0] * target.n
    for v, xs in over.items():
        qs = below[v]
        while qs:
            low = qs & -qs
            preimages[low.bit_length() - 1] |= xs
            qs ^= low
    if source.prime_filters.issuperset(map(preimages.__getitem__, target.irreducibles)):
        return
    for i in range(n):
        fi = mapping[i]
        for j in range(i, n):
            fj = mapping[j]
            if mapping[source.join(i, j)] != target.join(fi, fj):
                raise NotHomError(
                    f"join of {source.labels[i]!r}, {source.labels[j]!r} not preserved"
                )
            if mapping[source.meet(i, j)] != target.meet(fi, fj):
                raise NotHomError(
                    f"meet of {source.labels[i]!r}, {source.labels[j]!r} not preserved"
                )
    raise VerificationError("the Birkhoff test refused a map the pair scan accepts")


def iter_frame_homs(source, target):
    """All frame homs source -> target, each validated, in a fixed order.

    Birkhoff duality: the frame homs h: L -> M of finite distributive
    lattices correspond one to one with the monotone maps phi: J(M) -> J(L)
    of their posets of join-irreducibles.  phi(q) is the least p in J(L)
    with q <= h(p), and back, h(x) = join{q in J(M) : phi(q) <= x}.  (Davey
    and Priestley, *Introduction to Lattices and Order*, 2nd ed., 2002,
    ch. 5.)  So `order.fill` lists the maps phi on the J up rows, and each
    one is a hom: nothing is interpolated and no candidate is rejected.

    h is built on masks of J(M).  The set {q : phi(q) <= x} grows by the
    fibre of phi over one source irreducible from a smaller element y to x,
    and becomes h(x) by one lookup from `target.irreducibles_below` to an
    index.  The homs are sorted by `tuple(h[p] for p in ext)`, ext the
    source irreducibles in `linear_extension` order: lexicographic in the
    values on the irreducibles.  Every hom is still built by FrameHom, so
    `_check_hom` validates each one.  Every frame `FiniteFrame` builds is
    distributive; a lattice that is not, which only the tests' stand-in
    for M3 and N5 can be, has downsets of J that name no element, and
    raises VerificationError.
    """
    irr = source.irreducibles
    at = {p: t for t, p in enumerate(irr)}
    ext = [p for p in source.order.linear_extension if p in at]
    tbits = [1 << q for q in target.irreducibles]
    below = source.irreducibles_below
    index = {m: x for x, m in enumerate(target.irreducibles_below)}
    mappings = []
    try:
        source_index = {m: x for x, m in enumerate(below)}
        # (x, y, t): the irreducibles below x are those below y, and irr[t]
        steps = []
        for x in sorted(range(source.n), key=lambda x: popcount(below[x])):
            if below[x]:
                p = next(p for p in reversed(ext) if below[x] >> p & 1)
                steps.append((x, source_index[below[x] ^ 1 << p], at[p]))
        for phi in fill(target.irreducible_up, source.irreducible_up):
            over = [0] * len(irr)
            for bit, t in zip(tbits, phi):
                over[t] |= bit
            masks = [0] * source.n
            for x, y, t in steps:
                masks[x] = masks[y] | over[t]
            mappings.append(tuple(map(index.__getitem__, masks)))
    except KeyError:
        raise VerificationError(
            "a downset of join-irreducibles names no element; the frame is not distributive"
        ) from None
    if ext:
        mappings.sort(key=itemgetter(*ext))
    for mapping in mappings:
        yield FrameHom(source, target, mapping)


class GaloisConnection:
    """A frame hom together with its validated right adjoint.

    The law f(x) <= y iff x <= g(y) is checked per x on rows: the fibres of
    g gathered over the up row of x must be the up row of f(x).
    """

    def __init__(self, left, right):
        self.left = left
        self.right = tuple(right)
        src = left.source
        tgt = left.target
        if len(self.right) != tgt.n:
            raise VerificationError("right map length does not match the target")
        if min(self.right) < 0 or max(self.right) >= src.n:
            x = next(x for x in self.right if not 0 <= x < src.n)
            raise VerificationError(f"{x!r} is not an element of the source")
        over = fibres(self.right, src.n)
        up = tgt.order.up
        for x, row in enumerate(src.order.up):
            if gather(row, over) != up[left.mapping[x]]:
                raise VerificationError("adjunction law fails")

    @property
    def source(self):
        return self.left.source

    @property
    def target(self):
        return self.left.target

    def check_laws(self):
        """Triangle identities, meet preservation and the duality pair.

        Returns a dict of named boolean outcomes; everything should be True
        for any validated connection, and suites assert exactly that.
        """
        f = self.left.mapping
        g = self.right
        src = self.source
        tgt = self.target
        fgf = all(f[g[f[x]]] == f[x] for x in range(src.n))
        gfg = all(g[f[g[y]]] == g[y] for y in range(tgt.n))
        g_top = g[tgt.top] == src.top
        g_meets = all(
            g[tgt.meet(y, z)] == src.meet(g[y], g[z])
            for y in range(tgt.n)
            for z in range(tgt.n)
        )
        f_inj = len(set(f)) == src.n
        g_surj = len(set(g)) == src.n
        f_surj = len(set(f)) == tgt.n
        g_inj = len(set(g)) == tgt.n
        return {
            "fgf": fgf,
            "gfg": gfg,
            "right_preserves_top": g_top,
            "right_preserves_meets": g_meets,
            "left_injective_iff_right_surjective": f_inj == g_surj,
            "left_surjective_iff_right_injective": f_surj == g_inj,
        }


def right_adjoint(hom):
    """The right adjoint g(y) = join{x : f(x) <= y}, as a GaloisConnection.

    {x : f(x) <= y} is column y of the up rows of the f(x); f(bottom) is
    the bottom, whose up row gives one column per y.
    """
    up = hom.target.order.up
    below = transpose([up[v] for v in hom.mapping])
    return GaloisConnection(hom, map(hom.source.join_mask, below))


class Prenucleus:
    """An inflationary monotone self-map with k(x) & y <= k(x & y)."""

    def __init__(self, frame, mapping):
        self.frame = frame
        self.mapping = tuple(mapping)
        err = prenucleus_violation(frame, self.mapping)
        if err is not None:
            raise NotPrenucleusError(err)

    def __call__(self, i):
        return self.mapping[i]


def prenucleus_violation(frame, mapping):
    """A message describing the first failed prenucleus law, or None."""
    n = frame.n
    if len(mapping) != n:
        return "mapping length does not match the carrier"
    for x in range(n):
        if not frame.leq_idx(x, mapping[x]):
            return f"not inflationary at {frame.labels[x]!r}"
    for x in range(n):
        for y in range(n):
            if frame.leq_idx(x, y) and not frame.leq_idx(mapping[x], mapping[y]):
                return f"not monotone on {frame.labels[x]!r} <= {frame.labels[y]!r}"
    for x in range(n):
        for y in range(n):
            lhs = frame.meet(mapping[x], y)
            rhs = mapping[frame.meet(x, y)]
            if not frame.leq_idx(lhs, rhs):
                return (
                    f"k(x) & y <= k(x & y) fails at x={frame.labels[x]!r}, "
                    f"y={frame.labels[y]!r}"
                )
    return None


class Nucleus:
    """A meet-preserving inflationary idempotent self-map."""

    def __init__(self, frame, mapping):
        self.frame = frame
        self.mapping = tuple(mapping)
        n = frame.n
        for x in range(n):
            if not frame.leq_idx(x, self.mapping[x]):
                raise NotPrenucleusError(f"not inflationary at {frame.labels[x]!r}")
            if self.mapping[self.mapping[x]] != self.mapping[x]:
                raise NotPrenucleusError(f"not idempotent at {frame.labels[x]!r}")
        for x in range(n):
            for y in range(n):
                if self.mapping[frame.meet(x, y)] != frame.meet(self.mapping[x], self.mapping[y]):
                    raise NotPrenucleusError(
                        f"meets not preserved at {frame.labels[x]!r}, {frame.labels[y]!r}"
                    )

    def __call__(self, i):
        return self.mapping[i]

    @cached_property
    def fixed_mask(self):
        m = 0
        for x in range(self.frame.n):
            if self.mapping[x] == x:
                m |= 1 << x
        return m


def nucleus_from_prenucleus(pre):
    """The generated nucleus k(x) = meet of the fixed points above x.

    The fixed sets of the prenucleus and of its nucleus agree; that equality
    is re-verified here because it is the whole point of the construction.
    """
    frame = pre.frame
    fixed = 0
    for x in range(frame.n):
        if pre.mapping[x] == x:
            fixed |= 1 << x
    mapping = []
    for x in range(frame.n):
        above = fixed & frame.order.up[x]
        mapping.append(frame.meet_mask(above))
    nucleus = Nucleus(frame, mapping)
    if nucleus.fixed_mask != fixed:
        raise VerificationError("generated nucleus changed the fixed set")
    return nucleus


def frame_isomorphism(a, b):
    """An isomorphism a -> b as an index tuple, or None.

    Finite distributive lattices are isomorphic exactly when their posets
    of join-irreducibles are, and a poset isomorphism of irreducibles
    extends by joins.  The extension is re-verified with
    `order.is_isomorphism`, so the result does not rest on that theorem
    alone.
    """
    if a.n != b.n:
        return None
    phi = next(isomorphisms(a.irreducible_up, b.irreducible_up), None)
    if phi is None:
        return None
    irr_b = b.irreducibles
    mapping = []
    for x in range(a.n):
        m = 0
        for t, j in enumerate(a.irreducibles):
            if a.order.down[x] >> j & 1:
                m |= 1 << irr_b[phi[t]]
        mapping.append(b.join_mask(m))
    return tuple(mapping) if is_isomorphism(a.order.up, b.order.up, mapping) else None


def chain_frame(k):
    """The k-element chain 0 < 1 < ... as a frame; k >= 1."""
    labels = [f"c{i:02d}" for i in range(k)]
    pairs = [(labels[i], labels[i + 1]) for i in range(k - 1)]
    return frame_from_poset(validate_poset(labels, pairs))


def two():
    """The initial frame 0 < 1."""
    return chain_frame(2)
