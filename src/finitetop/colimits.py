"""Coproducts of finite frames, frame products, and pushouts of locales.

The coproduct of frames L and M is the frame of saturated downsets of the
product order on the two carriers.  A downset is a Python int with the pair
(i, j) at bit i * |M| + j; saturation closes a downset under per-row and
per-column joins.  A saturated downset is determined by the join-irreducible
pairs it contains, so the element set is enumerated as the downsets of the
irreducible-pair subposet and each element's full downset mask is
reconstructed from there; the saturation machinery stays as the per-call
cross-check on small carriers and as the slow oracle in the test suite.

Coproducts and products are both built by one kernel, `_family_lattice`,
on a family of sets closed under union and intersection.  A coproduct
element is its downset of irreducible pairs; by Birkhoff's representation a
product element is the disjoint union of the join-irreducibles below its
components.  The kernel orders the family by inclusion and reads joins and
meets as unions and intersections through the family's index, so the
tables are distributive by construction and no triple sweep runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as _iterproduct

from .bits import iter_bits, popcount, submasks
from .errors import (
    NotDistributiveError,
    NotDownsetError,
    NotFrameError,
    NotIsoError,
    NotLatticeError,
    SizeError,
    VerificationError,
)
from .frames import (
    FiniteFrame,
    FrameHom,
    GaloisConnection,
    _check_hom,
    frame_from_poset,
    right_adjoint,
)
from .order import inclusion_rows, product_rows, transpose
from .poset import FinitePoset

TENSOR_ELEMENT_CAP = 20000
PRODUCT_ELEMENT_CAP = 20000
LITERAL_SIDE_CAP = 12
LITERAL_SUBSET_CAP = 16
EAGER_TABLE_LIMIT = 600
SATURATION_CHECK_LIMIT = 512
# Entries per frame of the join-closure memo, oldest out first.  The frames,
# colimits and spatial groups fill at most 9 per frame at the default bounds
# and 16 at frame size 4, so neither run evicts.
JOIN_CLOSURE_MEMO_SIZE = 256


def _join_closure(frame, mask):
    # memo lives on the frame: row/column masks repeat heavily across saturations
    cache = frame.__dict__.setdefault("_join_closure_memo", {})
    out = cache.get(mask)
    if out is None:
        out = frame.joins_of_subsets(mask)
        if len(cache) >= JOIN_CLOSURE_MEMO_SIZE:
            del cache[next(iter(cache))]
        cache[mask] = out
    return out


class TensorCarrier:
    """Bit-level workspace for downsets of the product of two frame carriers."""

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

    def pos(self, i, j):
        return i * self.nm + j

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
            out |= _join_closure(self.right, row) << (i * self.nm)
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
            closed = _join_closure(self.left, col)
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

    def iota1_mask(self, x):
        out = 0
        for k in iter_bits(self.left.order.down[x]):
            out |= self.row_mask << (k * self.nm)
        return out | self.nbar

    def iota2_mask(self, y):
        out = 0
        rd = self.right.order.down[y]
        for i in range(self.nl):
            out |= rd << (i * self.nm)
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
        raise NotDownsetError("prenuclei need a downward closed input")
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


class _IrrGrid:
    """The join-irreducible pairs of a coproduct, with reduced-mask tables.

    Bit a * width + b stands for the pair (irr_left[a], irr_right[b]).
    `rt[x][y]` is the reduced mask of the single-pair tensor of (x, y): the
    irreducible pairs componentwise below it.  `down` restricts the product
    order to the irreducible pairs themselves.
    """

    def __init__(self, left, right):
        self.irr_left = left.irreducibles
        self.irr_right = right.irreducibles
        self.width = len(self.irr_right)
        self.size = len(self.irr_left) * self.width
        lpos = {x: a for a, x in enumerate(self.irr_left)}
        rpos = {y: b for b, y in enumerate(self.irr_right)}
        lbits = []
        for x in range(left.n):
            m = 0
            for j in iter_bits(left.irreducibles_below[x]):
                m |= 1 << lpos[j]
            lbits.append(m)
        rbits = []
        for y in range(right.n):
            m = 0
            for j in iter_bits(right.irreducibles_below[y]):
                m |= 1 << rpos[j]
            rbits.append(m)
        self.lbits = tuple(lbits)
        self.rbits = tuple(rbits)
        w = self.width
        rt = []
        for x in range(left.n):
            row = []
            for y in range(right.n):
                m = 0
                rb = rbits[y]
                for a in iter_bits(lbits[x]):
                    m |= rb << (a * w)
                row.append(m)
            rt.append(tuple(row))
        self.rt = tuple(rt)
        self.down = tuple(
            rt[p][q] for p in self.irr_left for q in self.irr_right
        )

    def iota1_reduced(self, x):
        out = 0
        row = (1 << self.width) - 1
        for a in iter_bits(self.lbits[x]):
            out |= row << (a * self.width)
        return out

    def iota2_reduced(self, y):
        out = 0
        rb = self.rbits[y]
        for a in range(self.size // self.width if self.width else 0):
            out |= rb << (a * self.width)
        return out


class _LazyRow:
    __slots__ = ("elems", "index", "op", "base")

    def __init__(self, elems, index, op, base):
        self.elems = elems
        self.index = index
        self.op = op
        self.base = base

    def __getitem__(self, j):
        return self.index[self.op(self.base, self.elems[j])]


class _LazyTable:
    """Row-indexable join/meet table computed per lookup.

    Stands in for the eager tuple tables above EAGER_TABLE_LIMIT, where a
    quadratic table would dominate both memory and construction time.
    """

    __slots__ = ("elems", "index", "op")

    def __init__(self, elems, index, op):
        self.elems = elems
        self.index = index
        self.op = op

    def __getitem__(self, i):
        return _LazyRow(self.elems, self.index, self.op, self.elems[i])


def _family_lattice(labels, masks):
    """The lattice of a family of sets closed under union and intersection.

    Returns the family's index, mask to position, and the (order, join,
    meet, bottom, top) of a FiniteFrame on it.  The order is inclusion
    (`order.inclusion_rows`); join and meet are the positions of a | b and
    a & b, gathered a row at a time with `map` up to EAGER_TABLE_LIMIT
    members, where a missing union or intersection raises
    VerificationError, and `_LazyTable`s above it.  Bottom and top are the
    AND and the OR of the family.  Unions and intersections of sets
    distribute over each other, so the tables need no distributivity sweep.
    """
    index = {m: k for k, m in enumerate(masks)}
    if len(masks) <= EAGER_TABLE_LIMIT:
        join = tuple(tuple(map(index.get, map(a.__or__, masks))) for a in masks)
        meet = tuple(tuple(map(index.get, map(a.__and__, masks))) for a in masks)
        for table, what in ((join, "union"), (meet, "intersection")):
            for a, row in enumerate(table):
                if None in row:
                    b = labels[row.index(None)]
                    raise VerificationError(
                        f"the family misses the {what} of {labels[a]!r} and {b!r}"
                    )
    else:
        join = _LazyTable(masks, index, int.__or__)
        meet = _LazyTable(masks, index, int.__and__)
    top = index.get(reduce(int.__or__, masks, 0))
    bottom = index.get(reduce(int.__and__, masks, ~0))
    if bottom is None or top is None:
        raise VerificationError("the family has no least or no greatest member")
    order = FinitePoset(labels, inclusion_rows(masks), validate=False)
    return index, (order, join, meet, bottom, top)


class TensorFrame(FiniteFrame):
    """The coproduct frame of two finite frames.

    Elements are saturated-downset masks in canonical order; `masks[k]` is
    the downset behind element k and `reduced[k]` its restriction to the
    irreducible pairs.  The injections `iota1`/`iota2` are FrameHoms on
    mappings `coproduct` validated, and `tensor(x, y)` locates the image of
    a single pair.
    """

    def __init__(
        self,
        order,
        join,
        meet,
        bottom,
        top,
        *,
        left,
        right,
        carrier,
        masks,
        grid,
        reduced,
        iota1_map,
        iota2_map,
    ):
        super().__init__(order, join, meet, bottom, top)
        self.left = left
        self.right = right
        self.carrier = carrier
        self.masks = masks
        self.grid = grid
        self.reduced = reduced
        self.red_index = {m: k for k, m in enumerate(reduced)}
        self.iota1_map = tuple(iota1_map)
        self.iota2_map = tuple(iota2_map)

    # The injections are built on access: a FrameHom into the tensor held by
    # the tensor would make every tensor a reference cycle.  `coproduct`
    # checks both mappings once.
    @property
    def iota1(self):
        return FrameHom(self.left, self, self.iota1_map, validate=False)

    @property
    def iota2(self):
        return FrameHom(self.right, self, self.iota2_map, validate=False)

    def tensor(self, x, y):
        return self.red_index[self.grid.rt[x][y]]


def coproduct(left, right):
    """The coproduct of two finite frames as a TensorFrame.

    Every saturated downset is the join of the single-pair tensors of the
    irreducible pairs it contains, and restriction to irreducible pairs is
    inverse to that join; the elements are therefore enumerated as downsets
    of the irreducible-pair subposet, and `_family_lattice` builds the
    frame on those reduced masks.  Each single-pair tensor is verified to
    appear with the stated full mask, and on small carriers every
    reconstructed element is re-checked against literal saturation.
    """
    carrier = TensorCarrier(left, right)
    grid = _IrrGrid(left, right)
    base = FinitePoset(
        tuple(f"p{k}" for k in range(grid.size)), transpose(grid.down), validate=False
    )
    try:
        family = base.downsets(cap=TENSOR_ELEMENT_CAP)
    except SizeError:
        raise SizeError(
            f"coproduct exceeds the cap of {TENSOR_ELEMENT_CAP} elements"
        ) from None
    reduced = family.masks
    n = len(reduced)
    width = max(4, len(str(n - 1)))
    labels = tuple(f"t{k:0{width}d}" for k in range(n))
    red_index, (order, join, meet, bottom, top) = _family_lattice(labels, reduced)
    nm = right.n
    rt = grid.rt
    masks = []
    for r in reduced:
        full = 0
        p = 0
        for x in range(left.n):
            row = rt[x]
            for y in range(nm):
                if row[y] & ~r == 0:
                    full |= 1 << p
                p += 1
        masks.append(full)
    masks = tuple(masks)
    for x in range(left.n):
        for y in range(nm):
            k = red_index.get(rt[x][y])
            if k is None or masks[k] != carrier.tensor_mask(x, y):
                raise VerificationError(
                    "a single-pair tensor is missing from the element set"
                )
    if n <= SATURATION_CHECK_LIMIT:
        for m in masks:
            if carrier.saturate(m) != m:
                raise VerificationError(
                    "a reconstructed element failed to be saturated"
                )
    if masks[bottom] != carrier.nbar or masks[top] != carrier.full:
        raise VerificationError("the coproduct bounds are not the stated ones")
    iota1_map = []
    for x in range(left.n):
        k = red_index[grid.iota1_reduced(x)]
        if masks[k] != carrier.iota1_mask(x):
            raise VerificationError("the left injection misses its stated mask")
        iota1_map.append(k)
    iota2_map = []
    for y in range(right.n):
        k = red_index[grid.iota2_reduced(y)]
        if masks[k] != carrier.iota2_mask(y):
            raise VerificationError("the right injection misses its stated mask")
        iota2_map.append(k)
    frame = TensorFrame(
        order,
        join,
        meet,
        bottom,
        top,
        left=left,
        right=right,
        carrier=carrier,
        masks=masks,
        grid=grid,
        reduced=reduced,
        iota1_map=iota1_map,
        iota2_map=iota2_map,
    )
    _check_hom(left, frame, frame.iota1_map)
    _check_hom(right, frame, frame.iota2_map)
    return frame


def _tensor_action(source, target, hom):
    """Index list of (id tensor hom) between coproducts sharing a left frame.

    The image of an element is the union of the reduced tensors of
    (p, hom(q)) over its irreducible pairs; that union is itself a downset
    of the target's irreducible pairs, so no saturation is needed.  Joins
    are preserved by construction, and meets follow because intersecting
    two reduced tensors yields the reduced tensor of the pairwise meet.
    """
    gs = source.grid
    gt = target.grid
    wt = gt.width
    per_bit = []
    for p in gs.irr_left:
        for q in gs.irr_right:
            fq = hom.mapping[q]
            m = 0
            rb = gt.rbits[fq]
            for a in iter_bits(gt.lbits[p]):
                m |= rb << (a * wt)
            per_bit.append(m)
    tindex = target.red_index
    mapping = []
    for r in source.reduced:
        img = 0
        for p in iter_bits(r):
            img |= per_bit[p]
        mapping.append(tindex[img])
    return mapping


def copair(f, g, *, tensor=None):
    """The mediating hom out of a coproduct for a cocone (f, g).

    Evaluates the join of f(a) meet g(b) over the member pairs of each
    element and certifies both triangle laws.
    """
    if f.target != g.target:
        raise ValueError("copairing needs a common codomain")
    codomain = f.target
    if tensor is None:
        tensor = coproduct(f.source, g.source)
    elif tensor.left != f.source or tensor.right != g.source:
        raise ValueError("the given tensor does not match the cocone")
    nm = tensor.carrier.nm
    mapping = []
    for m in tensor.masks:
        acc = codomain.bottom
        for p in iter_bits(m):
            i, j = divmod(p, nm)
            acc = codomain.join[acc][codomain.meet[f.mapping[i]][g.mapping[j]]]
        mapping.append(acc)
    out = FrameHom(tensor, codomain, mapping)
    for x in range(f.source.n):
        if out.mapping[tensor.iota1_map[x]] != f.mapping[x]:
            raise VerificationError("copair does not restrict to f on the left leg")
    for y in range(g.source.n):
        if out.mapping[tensor.iota2_map[y]] != g.mapping[y]:
            raise VerificationError("copair does not restrict to g on the right leg")
    return out


def _cover_lists(frame):
    """Per element, the indices covering it.

    The covers of u are its strict up-set less everything strictly above a
    member of it.  Members are taken lowest index first, and a member
    already found above one taken before is skipped, so on an order whose
    indices extend it linearly only the covers are taken.
    """
    up = frame.order.up
    out = []
    for u, row in enumerate(up):
        strict = row ^ (1 << u)
        rest = strict
        above = 0
        while rest:
            low = rest & -rest
            above |= up[low.bit_length() - 1] ^ low
            rest &= ~(above | low)
        out.append(list(iter_bits(strict & ~above)))
    return out


class ProductFrame(FiniteFrame):
    """A finite product of frames with the pointwise order."""

    def __init__(self, order, join, meet, bottom, top, *, factors, tuples):
        super().__init__(order, join, meet, bottom, top)
        self.factors = factors
        self.tuples = tuples
        self.tuple_index = {t: k for k, t in enumerate(tuples)}

    def projection(self, k):
        return FrameHom(self, self.factors[k], [t[k] for t in self.tuples])

    def pair(self, homs):
        """The mediating hom into the product for a cone of homs."""
        if len(homs) != len(self.factors):
            raise ValueError("one hom per factor is needed")
        source = homs[0].source
        for h, factor in zip(homs, self.factors):
            if h.source != source or h.target != factor:
                raise ValueError("cone homs must share a source and match the factors")
        mapping = [
            self.tuple_index[tuple(h.mapping[q] for h in homs)]
            for q in range(source.n)
        ]
        return FrameHom(source, self, mapping)


def product_frames(factors):
    """The product of a family of frames; the empty product is the one-point frame.

    Elements are the tuples of factor elements in `itertools.product`
    order.  By Birkhoff's representation each tuple is the set of
    join-irreducibles below its components: factor k contributes its
    `irreducibles_below` mask, shifted past the elements of the factors
    before it.  `_family_lattice` builds the frame on those masks.  Inclusion
    of such sets is the componentwise order in any finite lattice, and
    intersection is the componentwise meet; union is the componentwise join
    exactly when every factor is distributive, so the kernel's closure check
    refuses, with VerificationError, a factor that is not, at every size up
    to EAGER_TABLE_LIMIT.
    """
    factors = tuple(factors)
    count = 1
    for f in factors:
        count *= f.n
        if count > PRODUCT_ELEMENT_CAP:
            raise SizeError(f"product exceeds the cap of {PRODUCT_ELEMENT_CAP} elements")
    tuples = tuple(_iterproduct(*(range(f.n) for f in factors)))
    labels = tuple(
        "(" + ",".join(f.labels[t[k]] for k, f in enumerate(factors)) + ")"
        for t in tuples
    )
    masks = [0]
    shift = 0
    for f in factors:
        below = [m << shift for m in f.irreducibles_below]
        masks = [a | b for a in masks for b in below]
        shift += f.n
    _, lattice = _family_lattice(labels, masks)
    return ProductFrame(*lattice, factors=factors, tuples=tuples)


@dataclass(frozen=True)
class DistributeIso:
    """Both directions of the distribution isomorphism, validated."""

    forward: FrameHom
    inverse: FrameHom


def distribute_iso(left, m1, m2):
    """L tensor (M1 x M2) against (L tensor M1) x (L tensor M2).

    The forward map pairs the two projection actions (id tensor p_k); it is
    certified to be a bijection that preserves and reflects the order, by a
    sweep of the covering pairs on both sides, and an order isomorphism of
    finite lattices is automatically a frame isomorphism.  NotIsoError
    otherwise.
    """
    prod = product_frames([m1, m2])
    source = coproduct(left, prod)
    t1 = coproduct(left, m1)
    t2 = coproduct(left, m2)
    target = product_frames([t1, t2])
    c1 = _tensor_action(source, t1, prod.projection(0))
    c2 = _tensor_action(source, t2, prod.projection(1))
    tindex = target.tuple_index
    fwd = [tindex[(u, v)] for u, v in zip(c1, c2)]
    if source.n != target.n or len(set(fwd)) != target.n:
        raise NotIsoError("the distribution map is not a bijection")
    inv = [0] * target.n
    for k, v in enumerate(fwd):
        inv[v] = k
    for k, covers in enumerate(_cover_lists(source)):
        for t in covers:
            if not (t1.leq_idx(c1[k], c1[t]) and t2.leq_idx(c2[k], c2[t])):
                raise NotIsoError("the distribution map does not preserve the order")
    cov1 = _cover_lists(t1)
    cov2 = _cover_lists(t2)
    sup = source.order.up
    for (u, v), k in tindex.items():
        src = inv[k]
        for u2 in cov1[u]:
            if not sup[src] >> inv[tindex[(u2, v)]] & 1:
                raise NotIsoError("the distribution map does not reflect the order")
        for v2 in cov2[v]:
            if not sup[src] >> inv[tindex[(u, v2)]] & 1:
                raise NotIsoError("the distribution map does not reflect the order")
    forward = FrameHom(source, target, fwd, validate=False)
    inverse = FrameHom(target, source, inv, validate=False)
    return DistributeIso(forward, inverse)


@dataclass(frozen=True)
class PushoutLocaleResult:
    """Pushout of a span of localic maps, computed in the frame category.

    The apex frame is the pairs (b, c) agreeing under the span's left
    adjoints; `proj_b`/`proj_c` are the coordinate frame homs and the legs
    package them with their right adjoints, which are the localic maps
    B -> P and C -> P.
    """

    apex: FiniteFrame
    pairs: tuple
    proj_b: FrameHom
    proj_c: FrameHom
    leg_b: GaloisConnection
    leg_c: GaloisConnection
    span_left: FrameHom
    span_right: FrameHom


def pushout_loc(f_left, g_left):
    """Pushout in the localic direction of the span given by two frame homs.

    f_left : B -> A and g_left : C -> A present localic maps A -> B and
    A -> C.  The apex is the pullback of the two homs, verified to be a
    frame under the componentwise operations; the legs come from the join
    formula over agreeing pairs and are cross-checked against the generic
    right adjoint of each projection.
    """
    if f_left.target != g_left.target:
        raise ValueError("the span needs a common codomain frame")
    b_frame = f_left.source
    c_frame = g_left.source
    pairs = tuple(
        (b, c)
        for b in range(b_frame.n)
        for c in range(c_frame.n)
        if f_left.mapping[b] == g_left.mapping[c]
    )
    labels = tuple(
        f"({b_frame.labels[b]},{c_frame.labels[c]})" for b, c in pairs
    )
    rows = []
    for b, c in pairs:
        row = 0
        for t, (b2, c2) in enumerate(pairs):
            if b_frame.leq_idx(b, b2) and c_frame.leq_idx(c, c2):
                row |= 1 << t
        rows.append(row)
    try:
        apex = frame_from_poset(FinitePoset(labels, rows, validate=False))
    except (NotLatticeError, NotDistributiveError) as exc:
        raise NotFrameError(f"the agreement pairs do not form a frame: {exc}") from exc
    index = {p: k for k, p in enumerate(pairs)}
    for k, (b, c) in enumerate(pairs):
        for t, (b2, c2) in enumerate(pairs):
            componentwise = (b_frame.meet[b][b2], c_frame.meet[c][c2])
            if index.get(componentwise) != apex.meet[k][t]:
                raise NotFrameError("meets are not componentwise on the apex")
            componentwise = (b_frame.join[b][b2], c_frame.join[c][c2])
            if index.get(componentwise) != apex.join[k][t]:
                raise NotFrameError("joins are not componentwise on the apex")
    proj_b = FrameHom(apex, b_frame, [b for b, _ in pairs])
    proj_c = FrameHom(apex, c_frame, [c for _, c in pairs])
    leg_b = right_adjoint(proj_b)
    leg_c = right_adjoint(proj_c)
    for x in range(b_frame.n):
        mask = 0
        for k, (b, _) in enumerate(pairs):
            if b_frame.leq_idx(b, x):
                mask |= 1 << k
        if apex.join_mask(mask) != leg_b.right[x]:
            raise VerificationError("the stated leg formula disagrees with the adjoint")
    for y in range(c_frame.n):
        mask = 0
        for k, (_, c) in enumerate(pairs):
            if c_frame.leq_idx(c, y):
                mask |= 1 << k
        if apex.join_mask(mask) != leg_c.right[y]:
            raise VerificationError("the stated leg formula disagrees with the adjoint")
    f_radj = right_adjoint(f_left).right
    g_radj = right_adjoint(g_left).right
    for a in range(f_left.target.n):
        if leg_b.right[f_radj[a]] != leg_c.right[g_radj[a]]:
            raise VerificationError("the pushout square does not commute")
    return PushoutLocaleResult(
        apex, pairs, proj_b, proj_c, leg_b, leg_c, f_left, g_left
    )


def pushout_mediator(result, u_left, v_left):
    """The mediating hom out of a pushout cocone, with triangle checks.

    u_left : Q -> B and v_left : Q -> C present localic maps B -> Q and
    C -> Q agreeing on the span; the mediator pairs them into the apex.
    """
    if u_left.source != v_left.source:
        raise ValueError("cocone homs must share a source frame")
    if u_left.target != result.span_left.source:
        raise ValueError("the first cocone hom must land in the left span frame")
    if v_left.target != result.span_right.source:
        raise ValueError("the second cocone hom must land in the right span frame")
    # The checks above fix every source and target, so composites compare
    # as mappings and need no validated `then`.
    if _composed(u_left, result.span_left) != _composed(v_left, result.span_right):
        raise ValueError("the cocone does not commute with the span")
    index = {p: k for k, p in enumerate(result.pairs)}
    mapping = [
        index[(u_left.mapping[q], v_left.mapping[q])]
        for q in range(u_left.source.n)
    ]
    out = FrameHom(u_left.source, result.apex, mapping)
    if (
        _composed(out, result.proj_b) != u_left.mapping
        or _composed(out, result.proj_c) != v_left.mapping
    ):
        raise VerificationError("the mediator breaks a pushout triangle")
    return out


def _composed(first, second):
    """The mapping of `first` then `second`, unvalidated."""
    return tuple(map(second.mapping.__getitem__, first.mapping))
