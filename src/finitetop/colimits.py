"""Coproducts of finite frames, frame products, and pushouts of locales.

The coproduct of frames L and M is the frame of saturated downsets of the
product order on the two carriers.  A downset is a Python int with the pair
(i, j) at bit i * |M| + j; saturation closes a downset under per-row and
per-column joins.  A saturated downset is determined by the join-irreducible
pairs it contains, so the element set is enumerated as the downsets of the
irreducible-pair subposet and each element's full downset mask is
reconstructed from there; the saturation machinery stays as the per-call
cross-check on small carriers and as the slow oracle in the test suite.

Coproducts, products and localic pushouts are all frames of a family of
sets closed under union and intersection, built by
`FiniteFrame(labels, family)`.  A coproduct element is its downset of
irreducible pairs; a product element, and a pushout's agreeing pair, is
the disjoint union of its components' sets in their frames' `family`.
The builder checks that the family is closed, orders it by inclusion and
reads joins and meets as unions and intersections through the family's
`index`, a row when it is first read, so the tables are distributive by
construction and no triple sweep runs.  A coproduct's injections,
`tensor` and the tensor action of a hom are lookups of single-pair
tensors in its `index`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iterproduct

from .bits import iter_bits, popcount, submasks
from .errors import NotDownsetError, NotIsoError, SizeError, VerificationError
from .frames import (
    FiniteFrame,
    FrameHom,
    GaloisConnection,
    _check_hom,
    composed,
    right_adjoint,
)
from .order import is_isomorphism, product_rows, upsets

TENSOR_ELEMENT_CAP = 20000
PRODUCT_ELEMENT_CAP = 20000
LITERAL_SIDE_CAP = 12
LITERAL_SUBSET_CAP = 16
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
        w = len(self.irr_right)
        lbits = _positions_below(left)
        rbits = _positions_below(right)
        rt = []
        for lb in lbits:
            row = []
            for rb in rbits:
                m = 0
                for a in iter_bits(lb):
                    m |= rb << (a * w)
                row.append(m)
            rt.append(tuple(row))
        self.rt = tuple(rt)
        self.down = tuple(
            rt[p][q] for p in self.irr_left for q in self.irr_right
        )


def _positions_below(frame):
    """Per element, the join-irreducibles below it, as bits of their positions in `irreducibles`."""
    at = {j: a for a, j in enumerate(frame.irreducibles)}
    return [sum(1 << at[j] for j in iter_bits(m)) for m in frame.irreducibles_below]


class TensorFrame(FiniteFrame):
    """The coproduct frame of two finite frames.

    Elements are saturated-downset masks in canonical order; `masks[k]` is
    the downset behind element k and `family[k]`, the set the frame is
    built on, its restriction to the irreducible pairs.  `tensor(x, y)`
    locates the image of a single pair, and the injections `iota1`/`iota2`
    send x to x (x) top and y to top (x) y; `coproduct` validates both
    mappings.
    """

    def __init__(self, labels, family, *, left, right, carrier, masks, grid):
        super().__init__(labels, family)
        self.left = left
        self.right = right
        self.carrier = carrier
        self.masks = masks
        self.grid = grid

    # The injection mappings are computed when first read, which `coproduct`
    # does only after finding every single-pair tensor.  The injections are
    # built on access: a FrameHom into the tensor held by the tensor would
    # make every tensor a reference cycle.  `coproduct` checks both mappings
    # once.
    @cached_property
    def iota1_map(self):
        return tuple(self.tensor(x, self.right.top) for x in range(self.left.n))

    @cached_property
    def iota2_map(self):
        return tuple(self.tensor(self.left.top, y) for y in range(self.right.n))

    @property
    def iota1(self):
        return FrameHom(self.left, self, self.iota1_map, validate=False)

    @property
    def iota2(self):
        return FrameHom(self.right, self, self.iota2_map, validate=False)

    def tensor(self, x, y):
        return self.index[self.grid.rt[x][y]]


def coproduct(left, right):
    """The coproduct of two finite frames as a TensorFrame.

    Every saturated downset is the join of the single-pair tensors of the
    irreducible pairs it contains, and restriction to irreducible pairs is
    inverse to that join; the elements are therefore enumerated as downsets
    of the irreducible-pair subposet, and `FiniteFrame` builds the frame
    on those reduced masks.  Each single-pair tensor is verified to appear
    with the stated full mask, the injections' x (x) top and top (x) y
    among them, and on small carriers every reconstructed element is
    re-checked against literal saturation.
    """
    carrier = TensorCarrier(left, right)
    grid = _IrrGrid(left, right)
    reduced = upsets(grid.down, TENSOR_ELEMENT_CAP)
    n = len(reduced)
    if n > TENSOR_ELEMENT_CAP:
        raise SizeError(f"coproduct exceeds the cap of {TENSOR_ELEMENT_CAP} elements")
    width = max(4, len(str(n - 1)))
    labels = tuple(f"t{k:0{width}d}" for k in range(n))
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
    frame = TensorFrame(
        labels, reduced, left=left, right=right, carrier=carrier, masks=masks, grid=grid
    )
    for x in range(left.n):
        for y in range(nm):
            k = frame.index.get(rt[x][y])
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
    if masks[frame.bottom] != carrier.nbar or masks[frame.top] != carrier.full:
        raise VerificationError("the coproduct bounds are not the stated ones")
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
    rt = target.grid.rt
    per_bit = [rt[p][hom.mapping[q]] for p in gs.irr_left for q in gs.irr_right]
    tindex = target.index
    mapping = []
    for r in source.family:
        img = 0
        for p in iter_bits(r):
            img |= per_bit[p]
        mapping.append(tindex[img])
    return mapping


def copair(f, g, *, tensor=None):
    """The mediating hom out of a coproduct for a cocone (f, g).

    Each element is the join of the tensors p (x) q of its irreducible
    pairs, so its image is the join of f(p) meet g(q) over them.  Both
    triangle laws are certified.
    """
    if f.target != g.target:
        raise ValueError("copairing needs a common codomain")
    codomain = f.target
    if tensor is None:
        tensor = coproduct(f.source, g.source)
    elif tensor.left != f.source or tensor.right != g.source:
        raise ValueError("the given tensor does not match the cocone")
    grid = tensor.grid
    per_bit = [
        codomain.meet[f.mapping[p]][g.mapping[q]]
        for p in grid.irr_left
        for q in grid.irr_right
    ]
    mapping = []
    for r in tensor.family:
        acc = codomain.bottom
        for p in iter_bits(r):
            acc = codomain.join[acc][per_bit[p]]
        mapping.append(acc)
    out = FrameHom(tensor, codomain, mapping)
    for x in range(f.source.n):
        if out.mapping[tensor.iota1_map[x]] != f.mapping[x]:
            raise VerificationError("copair does not restrict to f on the left leg")
    for y in range(g.source.n):
        if out.mapping[tensor.iota2_map[y]] != g.mapping[y]:
            raise VerificationError("copair does not restrict to g on the right leg")
    return out


class ProductFrame(FiniteFrame):
    """A finite product of frames with the pointwise order."""

    def __init__(self, labels, family, *, factors, tuples):
        super().__init__(labels, family)
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
    order.  Each factor is a family of sets, so a tuple is the disjoint
    union of its components' sets: factor k contributes its `family` mask,
    shifted past the points of the factors before it, the width of their
    top members.  `FiniteFrame` builds the frame on those masks.  Inclusion,
    union and intersection of disjoint unions are componentwise, so the
    order and tables are the componentwise ones.  The builder still checks
    closure, at every size: a lattice that is not a family of sets closed
    under union and intersection is refused with VerificationError.
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
        family = [m << shift for m in f.family]
        masks = [a | b for a in masks for b in family]
        shift += f.family[f.top].bit_length()
    return ProductFrame(labels, masks, factors=factors, tuples=tuples)


@dataclass(frozen=True)
class DistributeIso:
    """Both directions of the distribution isomorphism, validated."""

    forward: FrameHom
    inverse: FrameHom


def distribute_iso(left, m1, m2):
    """L tensor (M1 x M2) against (L tensor M1) x (L tensor M2).

    The forward map pairs the two projection actions (id tensor p_k); it is
    certified to be an order isomorphism by `order.is_isomorphism`, and an
    order isomorphism of finite lattices is automatically a frame
    isomorphism.  NotIsoError otherwise.
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
    if not is_isomorphism(source.order.up, target.order.up, fwd):
        raise NotIsoError("the distribution map is not an order isomorphism")
    inv = [0] * target.n
    for k, v in enumerate(fwd):
        inv[v] = k
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
    A -> C.  The apex is the pullback of the two homs: the agreeing pairs
    (b, c), which the homs make closed under componentwise joins and meets.
    As in `product_frames`, a pair is the sets of b and of c side by side,
    so `FiniteFrame` builds the apex with the componentwise order and
    operations.  The legs come from the join formula over agreeing pairs
    and are cross-checked against the generic right adjoint of each
    projection.
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
    family_b = b_frame.family
    family_c = c_frame.family
    shift = family_b[b_frame.top].bit_length()
    apex = FiniteFrame(labels, [family_b[b] | family_c[c] << shift for b, c in pairs])
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
    # as mappings.
    if composed(u_left, result.span_left) != composed(v_left, result.span_right):
        raise ValueError("the cocone does not commute with the span")
    index = {p: k for k, p in enumerate(result.pairs)}
    mapping = [
        index[(u_left.mapping[q], v_left.mapping[q])]
        for q in range(u_left.source.n)
    ]
    out = FrameHom(u_left.source, result.apex, mapping)
    if (
        composed(out, result.proj_b) != u_left.mapping
        or composed(out, result.proj_c) != v_left.mapping
    ):
        raise VerificationError("the mediator breaks a pushout triangle")
    return out

