"""Shared fixtures: small named posets, spaces, and frames."""

import gc
import json
from itertools import permutations

import pytest
from hypothesis import strategies as st

from finitetop import lifting, order, serialize
from finitetop.bits import iter_bits, popcount
from finitetop.colimits import (
    coproduct,
    distribute_iso,
    product_frames,
    pushout_loc,
    pushout_mediator,
)
from finitetop.corpus import frames_upto
from finitetop.errors import (
    FinitetopError,
    NotHomError,
    NotIsoError,
    NotLatticeError,
    SizeError,
    VerificationError,
)
from finitetop.frames import (
    FiniteFrame,
    FrameHom,
    chain_frame,
    GaloisConnection,
    Nucleus,
    composed,
    downset_frame,
    frame_from_poset,
    iter_frame_homs,
)
from finitetop.order import product_rows
from finitetop.poset import validate_poset
from finitetop.pstop import PsSpace
from finitetop.spaces import FiniteSpace


def garbage_after(run):
    """The unreachable objects the cyclic collector finds after run()."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def table_irreducibles(frame):
    """The join-irreducibles by their definition through the literal join table.

    The oracle of the irreducibles `frames.FiniteFrame` reads off a family:
    j is irreducible when the join of the elements strictly below it,
    folded over `literal_tables` of its order, is not j.
    """
    join, _ = literal_tables(frame.order)
    down = frame.order.down
    out = []
    for j in range(frame.n):
        acc = frame.bottom
        for i in iter_bits(down[j] & ~(1 << j)):
            acc = join[acc][i]
        if acc != j:
            out.append(j)
    return tuple(out)


def least_of(poset, mask):
    for u in iter_bits(mask):
        if mask & ~poset.up[u] == 0:
            return u
    return None


def greatest_of(poset, mask):
    for u in iter_bits(mask):
        if mask & ~poset.down[u] == 0:
            return u
    return None


def literal_tables(poset):
    """Join and meet tables with each bound found as the least/greatest of its bound set."""
    n = poset.n
    if n == 0:
        raise NotLatticeError("a frame needs at least one element")
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            least = least_of(poset, poset.up[i] & poset.up[j])
            if least is None:
                raise NotLatticeError(
                    f"no least upper bound for {poset.points[i]!r}, {poset.points[j]!r}"
                )
            join[i][j] = join[j][i] = least
            greatest = greatest_of(poset, poset.down[i] & poset.down[j])
            if greatest is None:
                raise NotLatticeError(
                    f"no greatest lower bound for {poset.points[i]!r}, {poset.points[j]!r}"
                )
            meet[i][j] = meet[j][i] = greatest
    return tuple(map(tuple, join)), tuple(map(tuple, meet))


def frame_tables(frame):
    """A frame's `join` and `meet` written out as tables, for whole-table comparisons."""
    span = range(frame.n)
    return (
        tuple(tuple(frame.join(i, j) for j in span) for i in span),
        tuple(tuple(frame.meet(i, j) for j in span) for i in span),
    )


class TableLattice(FiniteFrame):
    """A lattice given by its order, distributive or not.

    `FiniteFrame(labels, family)` refuses a lattice that is not a family of
    sets closed under union and intersection, such as M3 or N5.  This
    stand-in skips that constructor, so tests can hand such a lattice to
    the package and watch it be refused.  Its `family` is the
    join-irreducibles below each element, as `frame_from_poset` would try.
    """

    def __init__(self, poset):
        everything = (1 << poset.n) - 1
        self.order = poset
        self.bottom = least_of(poset, everything)
        self.top = greatest_of(poset, everything)
        self.irreducibles = table_irreducibles(self)
        j_mask = sum(1 << j for j in self.irreducibles)
        self.family = tuple(d & j_mask for d in poset.down)
        self.index = {m: k for k, m in enumerate(self.family)}


def literal_join(frame, i, j):
    """The least upper bound of i and j, found in their common up row."""
    return least_of(frame.order, frame.order.up[i] & frame.order.up[j])


def literal_meet(frame, i, j):
    """The greatest lower bound of i and j, found in their common down row."""
    return greatest_of(frame.order, frame.order.down[i] & frame.order.down[j])


def literal_check_hom(source, target, mapping):
    """The pair sweep `frames._check_hom` replaced, kept as its oracle.

    Length, bottom and top, then every pair i <= j in row order, join
    before meet, each bound found as the least or greatest of its bound set
    in both orders; raises NotHomError with the message `_check_hom` gives.
    Bounds are found only for the pairs swept, so a large target costs one
    search per source pair.
    """
    n = source.n
    if len(mapping) != n:
        raise NotHomError("mapping length does not match the source")
    if mapping[source.bottom] != target.bottom:
        raise NotHomError("bottom is not preserved")
    if mapping[source.top] != target.top:
        raise NotHomError("top is not preserved")
    for i in range(n):
        fi = mapping[i]
        for j in range(i, n):
            fj = mapping[j]
            if mapping[literal_join(source, i, j)] != literal_join(target, fi, fj):
                raise NotHomError(
                    f"join of {source.labels[i]!r}, {source.labels[j]!r} not preserved"
                )
            if mapping[literal_meet(source, i, j)] != literal_meet(target, fi, fj):
                raise NotHomError(
                    f"meet of {source.labels[i]!r}, {source.labels[j]!r} not preserved"
                )


def hom_verdict(check, source, target, mapping):
    """None when `check` accepts the mapping, else its NotHomError message."""
    try:
        check(source, target, mapping)
    except NotHomError as exc:
        return str(exc)
    return None


def literal_right_adjoint(hom):
    """g(y), the join of {x : f(x) <= y}, one pair (x, y) at a time.

    The loop `frames.right_adjoint` replaced, kept as its oracle; the join
    is folded over the literal bounds of the source.
    """
    src = hom.source
    tgt = hom.target
    g = []
    for y in range(tgt.n):
        acc = src.bottom
        for x in range(src.n):
            if tgt.leq_idx(hom.mapping[x], y):
                acc = literal_join(src, acc, x)
        g.append(acc)
    return tuple(g)


def literal_adjunction_law(left, right):
    """Whether f(x) <= y exactly when x <= g(y), for every pair (x, y).

    The pair loop `frames.GaloisConnection` replaced, kept as its oracle;
    `right` must list one source element per target element.
    """
    src = left.source
    tgt = left.target
    return all(
        tgt.leq_idx(left.mapping[x], y) == src.leq_idx(x, right[y])
        for x in range(src.n)
        for y in range(tgt.n)
    )


def literal_legs(result):
    """The two legs of a localic pushout by the stated formula, one pair at a time.

    Leg b sends x to the join in the apex of the agreeing pairs (b, c) with
    b <= x, and leg c sends y to that of the pairs with c <= y.  The loop
    `colimits.pushout_loc` cross-checked with before it gathered fibres,
    kept as its oracle; the join is folded over the literal bounds of the
    apex.
    """
    apex = result.apex
    legs = []
    for side, factor in ((0, result.span_left.source), (1, result.span_right.source)):
        leg = []
        for x in range(factor.n):
            acc = apex.bottom
            for k, pair in enumerate(result.apex.tuples):
                if factor.leq_idx(pair[side], x):
                    acc = literal_join(apex, acc, k)
            leg.append(acc)
        legs.append(tuple(leg))
    return tuple(legs)


def literal_loc_pushout(max_frame_size, mediator=pushout_mediator):
    """LocPushout's case count and failure list, one span at a time.

    The loop the suite ran before it checked cocones once per distinct
    pushout, kept as its oracle: every span f: B -> A, g: C -> A is pushed
    out and checks its own cocones, with `mediator` in place of
    `pushout_mediator`.  Hom sets are enumerated once per pair of corpus
    frames, and the homs into an apex once per span and cocone frame.
    """
    pool = frames_upto(max_frame_size)
    hom_sets = {}

    def homs(s, t):
        key = (id(s), id(t))
        if key not in hom_sets:
            hom_sets[key] = tuple(iter_frame_homs(s, t))
        return hom_sets[key]

    def name(frame):
        return "{" + ",".join(frame.labels) + "}"

    failures = []
    cases = 0
    for a in pool:
        for b in pool:
            for c in pool:
                tag = f"{name(b)} <- {name(a)} -> {name(c)}"
                for f in homs(b, a):
                    for g in homs(c, a):
                        cases += 1
                        try:
                            result = pushout_loc(f, g)
                        except FinitetopError as exc:
                            failures.append(f"{tag}: {exc}")
                            continue
                        if len(set(f.mapping)) == a.n and len(set(result.proj_c.mapping)) != c.n:
                            failures.append(f"{tag}: pushed leg lost injectivity")
                        if len(set(g.mapping)) == a.n and len(set(result.proj_b.mapping)) != b.n:
                            failures.append(f"{tag}: pushed leg lost injectivity")
                        for q in pool:
                            into_apex = None
                            for u in homs(q, b):
                                for v in homs(q, c):
                                    if composed(u, f) != composed(v, g):
                                        continue
                                    try:
                                        m = mediator(result, u, v)
                                    except (ValueError, VerificationError) as exc:
                                        failures.append(f"{tag}: {exc}")
                                        continue
                                    if into_apex is None:
                                        into_apex = {}
                                        for h in iter_frame_homs(q, result.apex):
                                            legs = (
                                                composed(h, result.proj_b),
                                                composed(h, result.proj_c),
                                            )
                                            into_apex.setdefault(legs, []).append(h)
                                    found = into_apex.get((u.mapping, v.mapping), [])
                                    if found != [m]:
                                        failures.append(
                                            f"{tag}: {len(found)} mediators from {name(q)}"
                                        )
    return cases, failures


def top_sent_to_bottom(build):
    """A mutant of a hom builder, `copair` or `pushout_mediator`: the hom it
    returns, rebuilt with the source's top sent to the target's bottom, so
    that `FrameHom` refuses it into any target of two or more elements."""

    def mutant(*args, **kwargs):
        h = build(*args, **kwargs)
        mapping = list(h.mapping)
        mapping[h.source.top] = h.target.bottom
        return FrameHom(h.source, h.target, mapping)

    return mutant


def cocone_legs_swapped(mediator):
    """A `pushout_mediator` mutant: wherever the span's two frames agree, the
    mediator reads its first coordinate from the second cocone leg and its
    second from the first."""

    def mutant(result, u, v):
        if result.span_left.source == result.span_right.source:
            u, v = v, u
        return mediator(result, u, v)

    return mutant


def tensor_action_dropping_the_last_pair(source, target, hom):
    """A mutant of `colimits._tensor_action`: the last irreducible pair of
    the source adds nothing to an image, and a union that is no element of
    the target is sent to element 0."""
    gs = source.grid
    rt = target.grid.rt
    per_bit = [rt[p][hom.mapping[q]] for p in gs.irr_left for q in gs.irr_right]
    if per_bit:
        per_bit[-1] = 0
    return [target.index.get(order.gather(r, per_bit), 0) for r in source.family]


def projection_adjoint_off_by_one(right_adjoint):
    """A `colimits.right_adjoint` mutant: for a projection out of a pushout
    apex (labelled by pairs) onto a smaller factor, the value at the last
    factor element moves to the next apex element, so the law check of the
    adjoint refuses it.  Every other hom gets its true adjoint."""

    def mutant(hom):
        adjoint = right_adjoint(hom)
        if not hom.source.labels[0].startswith("(") or hom.source.n <= hom.target.n:
            return adjoint
        right = list(adjoint.right)
        right[-1] = (right[-1] + 1) % hom.source.n
        return GaloisConnection(hom, right)

    return mutant


def literal_product_distribute(max_frame_size):
    """ProductDistributeLocale's case count and failure list, one call per triple.

    The loop the suite ran before it built each tensor and product once:
    every triple (L, M1, M2) builds all four of its pieces itself, M1 x M2
    first, and hands the three tensors to the public `distribute_iso`.
    """

    def name(frame):
        return "{" + ",".join(frame.labels) + "}"

    pool = frames_upto(max_frame_size)
    failures = []
    cases = 0
    for left in pool:
        for m1 in pool:
            for m2 in pool:
                cases += 1
                try:
                    prod = product_frames([m1, m2])
                    distribute_iso(coproduct(left, prod), coproduct(left, m1), coproduct(left, m2))
                except NotIsoError as exc:
                    failures.append(f"{name(left)} over {name(m1)} x {name(m2)}: {exc}")
    return cases, failures


def submasks(mask):
    """Yield every subset of `mask`, descending, ending with 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def joins_of_subsets(frame, mask):
    """The set {join of X : X a subset of mask}, as a mask; includes bottom."""
    acc = 1 << frame.bottom
    for a in iter_bits(mask):
        extra = 0
        for s in iter_bits(acc):
            extra |= 1 << frame.join(s, a)
        acc |= extra
    return acc


LITERAL_SIDE_CAP = 12
LITERAL_SUBSET_CAP = 16


class TensorCarrier:
    """Bit-level workspace for downsets of the product of two frame carriers.

    The literal oracle of `colimits.coproduct`: the coproduct of frames is
    the frame of saturated downsets of the product of their carriers.  A
    downset is an int with the pair (i, j) at bit i * |M| + j; saturation
    closes a downset under per-row and per-column joins.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.nl = left.n
        self.nm = right.n
        self.size = self.nl * self.nm
        self.row_mask = (1 << self.nm) - 1
        self.full = (1 << self.size) - 1
        self.down = product_rows(left.order.down, right.order.down)
        self.up = product_rows(left.order.up, right.order.up)
        nbar = self.row_mask << (left.bottom * self.nm)
        for i in range(self.nl):
            nbar |= 1 << (i * self.nm + right.bottom)
        self.nbar = nbar
        # row and column masks repeat heavily across saturations
        self.closures = {}

    def pos(self, i, j):
        return i * self.nm + j

    def closure(self, frame, mask):
        """The joins of the subsets of mask in frame, memoised on the carrier."""
        key = (frame is self.left, mask)
        out = self.closures.get(key)
        if out is None:
            out = self.closures[key] = joins_of_subsets(frame, mask)
        return out

    def is_downset(self, mask):
        acc = 0
        for p in iter_bits(mask):
            acc |= self.down[p]
        return acc | mask == mask

    def row_pass(self, mask):
        """Close every row under joins taken in the right frame.

        Rows with no members still gain (i, bottom) from the empty join, so
        repeated passes accumulate the least element without special casing.
        """
        out = 0
        for i in range(self.nl):
            row = (mask >> (i * self.nm)) & self.row_mask
            out |= self.closure(self.right, row) << (i * self.nm)
        return out

    def col_pass(self, mask):
        """Close every column under joins taken in the left frame."""
        nm = self.nm
        out = 0
        for j in range(nm):
            col = 0
            for i in range(self.nl):
                if mask >> (i * nm + j) & 1:
                    col |= 1 << i
            closed = self.closure(self.left, col)
            for i in iter_bits(closed):
                out |= 1 << (i * nm + j)
        return out

    def saturate(self, mask):
        """Least saturated downset containing the given downset.

        Iterates the column pass after the row pass until nothing changes;
        both passes are inflationary and monotone, so the limit is the least
        common fixed point above the input.
        """
        cur = mask
        while True:
            nxt = self.col_pass(self.row_pass(cur))
            if nxt == cur:
                break
            cur = nxt
        return cur

    def tensor_mask(self, x, y):
        """The downset of (x, y) together with the least element."""
        out = 0
        rd = self.right.order.down[y]
        for k in iter_bits(self.left.order.down[x]):
            out |= rd << (k * self.nm)
        return out | self.nbar


def prenuclei(left, right, mask):
    """Literal evaluation of the three closure passes on one downset.

    Returns (sigma0, pi1, pihat2) where sigma0 adds joins of nonempty
    updirected subsets, pi1 adds (join X, y) for every X contained in a
    column, and pihat2 adds (x, join Y) for every Y contained in a row.
    All three quantifiers are swept directly, so sizes are capped hard.
    This is the literal oracle that the tests hold `TensorCarrier.row_pass`,
    `TensorCarrier.col_pass` and `TensorCarrier.saturate` against.
    """
    if left.n > LITERAL_SIDE_CAP or right.n > LITERAL_SIDE_CAP:
        raise SizeError("literal prenucleus evaluation is capped at 12x12 carriers")
    carrier = TensorCarrier(left, right)
    if not carrier.is_downset(mask):
        raise ValueError("prenuclei need a downward closed input")
    if popcount(mask) > LITERAL_SUBSET_CAP:
        raise SizeError("literal prenucleus evaluation is capped at 16 member pairs")

    sigma0 = mask
    up = carrier.up
    for sub in submasks(mask):
        if sub == 0:
            continue
        directed = True
        members = list(iter_bits(sub))
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if up[members[a]] & up[members[b]] & sub == 0:
                    directed = False
                    break
            if not directed:
                break
        if directed:
            xs = 0
            ys = 0
            for p in members:
                i, j = divmod(p, carrier.nm)
                xs |= 1 << i
                ys |= 1 << j
            sigma0 |= 1 << carrier.pos(left.join_mask(xs), right.join_mask(ys))

    pi1 = mask
    for j in range(carrier.nm):
        col = 0
        for i in range(carrier.nl):
            if mask >> carrier.pos(i, j) & 1:
                col |= 1 << i
        for sub in submasks(col):
            pi1 |= 1 << carrier.pos(left.join_mask(sub), j)

    pihat2 = mask
    for i in range(carrier.nl):
        row = (mask >> (i * carrier.nm)) & carrier.row_mask
        for sub in submasks(row):
            pihat2 |= 1 << carrier.pos(i, right.join_mask(sub))

    return sigma0, pi1, pihat2


def full_masks(t):
    """Per element of the coproduct t, its downset of the carriers' product.

    Pair (x, y) is at bit x * |M| + y, and it is in element k when the
    single-pair tensor of (x, y) is below it: `grid.rt[x][y]` inside
    `family[k]`.
    """
    nm = t.right.n
    rt = t.grid.rt
    masks = []
    for r in t.family:
        full = 0
        p = 0
        for x in range(t.left.n):
            row = rt[x]
            for y in range(nm):
                if row[y] & ~r == 0:
                    full |= 1 << p
                p += 1
        masks.append(full)
    return tuple(masks)


def assert_saturated_oracle(t):
    """The coproduct t against literal saturation on the carriers' product.

    Every full mask is a saturated downset, no two elements share one, each
    single-pair tensor's is the downset of the pair with the least element,
    and the bounds are the least element and the whole product.
    """
    carrier = TensorCarrier(t.left, t.right)
    masks = full_masks(t)
    assert all(carrier.saturate(m) == m for m in masks)
    assert len(set(masks)) == t.n
    assert all(
        masks[t.tensor(x, y)] == carrier.tensor_mask(x, y)
        for x in range(t.left.n)
        for y in range(t.right.n)
    )
    assert (masks[t.bottom], masks[t.top]) == (carrier.nbar, carrier.full)


def _as_list(o):
    """A streamed relation, which the stdlib does not know, read as its list of pairs.

    Anything else is refused by the stdlib's own `default`, so a set still
    raises its TypeError.
    """
    if isinstance(o, serialize._Relation):
        return list(o)
    return json.JSONEncoder().default(o)


def stdlib_canonical_json(data):
    """The canonical text through the stdlib's encoder: the oracle of `serialize.canonical_json`."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False, default=_as_list) + "\n"


def certificate(rows):
    """Canonical form of a relation: the least row tuple over all n! relabellings.

    The literal oracle of isomorphism: two relations are isomorphic exactly
    when their certificates are equal.
    """
    n = len(rows)
    best = None
    for perm in permutations(range(n)):
        relabelled = [0] * n
        for i, r in enumerate(rows):
            m = 0
            for j in iter_bits(r):
                m |= 1 << perm[j]
            relabelled[perm[i]] = m
        key = tuple(relabelled)
        if best is None or key < best:
            best = key
    return best


def adjunction_failures_oracle(fs, gs, is_):
    """The failing triples of the lifting adjunction, asked one triple at a time.

    The per-triple loop that `lifting.adjunction_failures` replaced: the
    corner of (f, i) lifting against g, against f lifting against the power
    of (g, i), each verdict through `_lifts`.
    """
    return [
        (f, g, i)
        for f, fm in enumerate(fs)
        for g, gm in enumerate(gs)
        for i, im in enumerate(is_)
        if lifting._lifts(lifting._corner(fm.key, im.key), gm.key)
        != lifting._lifts(fm.key, lifting._power(gm.key, im.key))
    ]


def associativity_failures_oracle(fs, gs, hs):
    """The failing triples of associativity, asked one triple at a time on set keys."""
    set_key = lifting._set_key
    return [
        (f, g, h)
        for f, fm in enumerate(fs)
        for g, gm in enumerate(gs)
        for h, hm in enumerate(hs)
        if not lifting._associates(set_key(fm.key), set_key(gm.key), set_key(hm.key))
    ]


def corner_members(f_set, g_set):
    """The member lists of a corner's classes, rebuilt from `_glued`'s class array.

    Class k lists its points in order, (0, x * nb + b) for a point of
    X x B and (1, y * na + a) for a point of Y x A.
    """
    side = f_set[0] * g_set[1]
    _, cls = lifting._glued(f_set, g_set)
    members = [[] for _ in range(max(cls, default=-1) + 1)]
    for p, k in enumerate(cls):
        members[k].append((0, p) if p < side else (1, p - side))
    return tuple(map(tuple, members))


def literal_swap(f, g):
    """The braiding's class map by the member-list loop it replaced.

    The literal oracle of `lifting.braiding`: each class of f x^ g sends
    its members through the coordinate swap and must land in one class of
    g x^ f; then the same order, target and commutation checks, with the
    same messages.  Returns the class map.
    """
    rows1, yb_up, map1 = lifting._corner(f.key, g.key)
    rows2, by_up, map2 = lifting._corner(g.key, f.key)
    f_set, g_set = lifting._set_key(f.key), lifting._set_key(g.key)
    nx, ny, _ = f_set
    na, nb, _ = g_set
    cls2 = {m: k for k, members in enumerate(corner_members(g_set, f_set)) for m in members}
    top = []
    for members in corner_members(f_set, g_set):
        targets = set()
        for side, idx in members:
            if side == 0:
                x, b = divmod(idx, nb)
                targets.add(cls2[(1, b * nx + x)])
            else:
                y, a = divmod(idx, na)
                targets.add(cls2[(0, a * ny + y)])
        if len(targets) != 1:
            raise NotIsoError("the swap does not respect the glued classes")
        top.append(targets.pop())
    if not order.is_isomorphism(rows1, rows2, top):
        raise NotIsoError("the swap is not an order isomorphism on the corner")
    bottom = [b * ny + y for y in range(ny) for b in range(nb)]
    if not order.is_isomorphism(yb_up, by_up, bottom):
        raise NotIsoError("the swap is not an order isomorphism on the target")
    if any(bottom[v] != map2[t] for v, t in zip(map1, top)):
        raise NotIsoError("the swap does not commute with the comparisons")
    return tuple(top)


def _expand_lhs(classes, inner, na, nb, na2, nb2):
    """Flat coordinates per corner class of (f x^ g) x^ h, from member lists."""
    out = []
    for members in classes:
        flats = []
        for side, idx in members:
            if side == 0:
                p1, b2 = divmod(idx, nb2)
                for iside, iidx in inner[p1]:
                    if iside == 0:
                        x, b = divmod(iidx, nb)
                        flats.append((0, x, b, b2))
                    else:
                        y, a = divmod(iidx, na)
                        flats.append((1, y, a, b2))
            else:
                yb, a2 = divmod(idx, na2)
                y, b = divmod(yb, nb)
                flats.append((2, y, b, a2))
        out.append(flats)
    return out


def _expand_rhs(classes, inner, nb, na2, nb2):
    """Flat coordinates per corner class of f x^ (g x^ h), from member lists."""
    out = []
    for members in classes:
        flats = []
        for side, idx in members:
            if side == 0:
                x, bb2 = divmod(idx, nb * nb2)
                b, b2 = divmod(bb2, nb2)
                flats.append((0, x, b, b2))
            else:
                y, p2 = divmod(idx, len(inner))
                for iside, iidx in inner[p2]:
                    if iside == 0:
                        a, b2 = divmod(iidx, nb2)
                        flats.append((1, y, a, b2))
                    else:
                        b, a2 = divmod(iidx, na2)
                        flats.append((2, y, b, a2))
        out.append(flats)
    return out


def literal_reassociate(f_set, g_set, h_set):
    """The re-association class map by the member-list expansion it replaced.

    The literal oracle of `lifting._reassociate`: every class of either
    bracketing is expanded to its flat block coordinates through the
    inner corner's members, each left class must land in one right
    class, and the map must be a bijection commuting with the
    comparisons, with the same messages.  Returns the class map.
    """
    fg_set, _ = lifting._glued(f_set, g_set)
    (_, _, lhs_map), _ = lifting._glued(fg_set, h_set)
    gh_set, _ = lifting._glued(g_set, h_set)
    (_, _, rhs_map), _ = lifting._glued(f_set, gh_set)
    fg_classes, gh_classes = corner_members(f_set, g_set), corner_members(g_set, h_set)
    lhs_classes, rhs_classes = corner_members(fg_set, h_set), corner_members(f_set, gh_set)
    na, nb, _ = g_set
    na2, nb2, _ = h_set
    rhs_of = {
        fl: k
        for k, flats in enumerate(_expand_rhs(rhs_classes, gh_classes, nb, na2, nb2))
        for fl in flats
    }
    top = []
    for flats in _expand_lhs(lhs_classes, fg_classes, na, nb, na2, nb2):
        targets = {rhs_of[fl] for fl in flats}
        if len(targets) != 1:
            raise NotIsoError("re-association does not respect the glued classes")
        top.append(targets.pop())
    if sorted(top) != list(range(len(rhs_classes))):
        raise NotIsoError("re-association is not a bijection of the glued classes")
    if any(v != rhs_map[t] for v, t in zip(lhs_map, top)):
        raise NotIsoError("re-association does not commute with the comparisons")
    return tuple(top)


def clear_lifting_caches():
    """Empty every memo of the lifting layer, so no verdict outlives a mutant."""
    for cache in (
        lifting._census,
        lifting._facts,
        lifting._parts,
        lifting._arrow_class,
        lifting._glued,
        lifting._corner,
        lifting._power,
        lifting._map_object,
        lifting._associates,
        lifting._arrow_autos,
    ):
        cache.cache_clear()
    lifting._CLASSES.clear()


def pins_ignoring_the_top(fibre, i_map, top, bot):
    """A mutant of `lifting._diagonal_pins`: the fibres of the bottom alone."""
    return [fibre[v] for v in bot]


def glue_dropping_the_last_pair(total, pairs):
    """A mutant of the corner's `glue`: the last gluing pair is never made."""
    return order.glue(total, pairs[:-1])


def discrete_quotient_rows(cls, up):
    """A mutant of the corner's `quotient_rows`: the classes, with no order between them."""
    return tuple(1 << k for k in range(max(cls, default=-1) + 1))


def nucleus_from_fixed_points_strictly_above(pre):
    """A mutant of `frames.nucleus_from_prenucleus`: x is sent to the meet of
    the fixed points strictly above it, so a fixed x no longer stays put.
    It skips the fixed-set re-check, so what fails is caught by `Nucleus` or
    by the suite."""
    frame = pre.frame
    fixed = sum(1 << x for x in range(frame.n) if pre.mapping[x] == x)
    mapping = [frame.meet_mask(fixed & frame.order.up[x] & ~(1 << x)) for x in range(frame.n)]
    return Nucleus(frame, mapping)


def chain_poset(k, labels=None):
    if labels is None:
        labels = [f"c{i}" for i in range(k)]
    pairs = [(labels[i], labels[i + 1]) for i in range(k - 1)]
    return validate_poset(labels, pairs)


def antichain_poset(k):
    return validate_poset([f"a{i}" for i in range(k)], [])


def grid_poset():
    """The 2x2 grid bottom < a, b < top."""
    return validate_poset(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    )


def diamond_m3():
    """Bottom, three incomparable middles, top; a lattice, not distributive."""
    pairs = []
    for m in ("a", "b", "c"):
        pairs.append(("0", m))
        pairs.append((m, "1"))
    return validate_poset(["0", "a", "b", "c", "1"], pairs)


def pentagon_n5():
    """Bottom < a < c < top and bottom < b < top; a lattice, not distributive."""
    return validate_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    )


@st.composite
def downset_frames(draw, max_n=3):
    """The frame of downsets of a random poset of 0 to max_n points."""
    n = draw(st.integers(0, max_n))
    below = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(below), max_size=len(below)))
    names = [f"p{k}" for k in range(n)]
    pairs = [(names[i], names[j]) for (i, j), k in zip(below, keep) if k]
    return downset_frame(validate_poset(names, pairs))


def point_space():
    return FiniteSpace.from_opens(("p",), (0, 1))


def empty_space():
    return FiniteSpace.from_opens((), (0,))


def discrete_space(labels):
    points = tuple(labels)
    n = len(points)
    return FiniteSpace.from_opens(points, tuple(range(1 << n)))


def indiscrete_space(labels):
    points = tuple(labels)
    return FiniteSpace.from_opens(points, (0, (1 << len(points)) - 1))


def lim_filter(space, base):
    """Limit set of the principal filter at `base`, as a mask: the points
    that every member's ultrafilter converges to, every point at base 0."""
    return sum(
        1 << y for y in range(space.n) if all(space.lim[a] >> y & 1 for a in iter_bits(base))
    )


def literal_continuity(mapping, xi, zeta):
    """Continuity quantified over every filter, as (verdict, witness).

    The literal oracle of `pstop.check_continuity`: each base mask in
    increasing order is a principal filter, and the map is continuous when
    the image of each filter's limit lies in the limit of the filter at the
    image of its base; the first base that breaks it is the witness.
    """
    for base in range(1 << xi.n):
        pushed = sum({1 << mapping[a] for a in iter_bits(base)})
        image = sum({1 << mapping[y] for y in iter_bits(lim_filter(xi, base))})
        if image & ~lim_filter(zeta, pushed):
            return False, base
    return True, None


def least_member_only(subspace):
    """A `subspace_ps` mutant that keeps only its least member's limit set and
    makes every other member discrete."""

    def mutant(xi, mask):
        sub = subspace(xi, mask)
        return PsSpace(sub.points, [sub.lim[0]] + [1 << t for t in range(1, sub.n)])

    return mutant


def sierpinski():
    """Points x, y with {y} open; the specialization order is x < y."""
    return FiniteSpace.from_opens(("x", "y"), (0, 2, 3))


@pytest.fixture
def chain3_frame():
    return chain_frame(3)


@pytest.fixture
def b4_frame():
    return frame_from_poset(grid_poset())

