"""Coproducts of finite frames, frame products, and pushouts of locales.

The coproduct L (x) M of finite frames is the frame of saturated downsets
of the product order on the two carriers (Johnstone, *Stone Spaces*,
II.2), and by Birkhoff duality the frame of downsets of J(L) x J(M), the
pairs of join-irreducibles.  That second encoding is the only one built:
an element is a Python int with the pair (irr_left[a], irr_right[b]) at
bit a * |J(M)| + b, and the single-pair tensor x (x) y is the downset of
the irreducible pairs componentwise below (x, y).

Coproducts, products and localic pushouts are all frames of a family of
sets closed under union and intersection, built by
`FiniteFrame(labels, family)`.  A coproduct element is its downset of
irreducible pairs.  A product and a pushout apex are one `TupleFrame`, on
every tuple and on a span's agreeing pairs: a tuple is the disjoint union
of its components' sets in their frames' `family`.
The constructor checks that the family is closed and orders it by inclusion;
a join is a union and a meet an intersection, looked up in the family's
`index`, so they distribute by construction and no triple sweep runs.  A
coproduct's injections, `tensor` and the tensor action of a hom are
lookups of single-pair tensors in its `index`, and `copair_mapping` folds
its cocone's values as sets of the codomain's family.

What `coproduct` checks at run time is listed in its docstring.  That the
same elements are the saturated downsets of the carriers' product is a
theorem, not a property of the input, so it is not re-proved per call: the
tests keep the literal saturated-downset workspace as the oracle and
compare every coproduct the frame suites build against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iterproduct
from operator import getitem, itemgetter, or_

from .bits import iter_bits
from .errors import NotHomError, NotIsoError, SizeError, VerificationError
from .frames import (
    FiniteFrame,
    FrameHom,
    GaloisConnection,
    composed,
    right_adjoint,
)
from .order import fibres, gather, upsets

TENSOR_ELEMENT_CAP = 20000
PRODUCT_ELEMENT_CAP = 20000


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

    `family[k]`, the set the frame is built on, is the downset of
    irreducible pairs behind element k.  `tensor(x, y)` locates the image
    of a single pair, and the injections `iota1`/`iota2` send x to
    x (x) top and y to top (x) y, certified as frame homs when built: on
    every read, so a caller that needs only the mappings `coproduct` has
    certified reads `iota1_map`/`iota2_map`.
    """

    def __init__(self, labels, family, *, left, right, grid):
        super().__init__(labels, family)
        self.left = left
        self.right = right
        self.grid = grid

    # The injection mappings are computed when first read, which `coproduct`
    # does only after finding every single-pair tensor.  The injections are
    # built on access: a FrameHom into the tensor held by the tensor would
    # make every tensor a reference cycle.
    @cached_property
    def iota1_map(self):
        return tuple(self.tensor(x, self.right.top) for x in range(self.left.n))

    @cached_property
    def iota2_map(self):
        return tuple(self.tensor(self.left.top, y) for y in range(self.right.n))

    @property
    def iota1(self):
        return FrameHom(self.left, self, self.iota1_map)

    @property
    def iota2(self):
        return FrameHom(self.right, self, self.iota2_map)

    def tensor(self, x, y):
        return self.index[self.grid.rt[x][y]]


def coproduct(left, right):
    """The coproduct of two finite frames as a TensorFrame.

    The elements are the downsets of the irreducible-pair poset, and
    `FiniteFrame` builds the frame on them.  Checked at run time, all on
    those masks: the kernel's closure check; every single-pair tensor
    `grid.rt[x][y]` is a member, the injections' x (x) top and top (x) y
    among them; the bounds are the empty and the full pair mask; and both
    injections are certified frame homs.  The membership and bounds checks
    are construction asserts: each `rt[x][y]` is a downset of `grid.down`,
    and `upsets` lists those from the empty mask to the full one.

    Saturation is not checked here.  A reduced downset r stands for the
    full mask {(x, y) : rt[x][y] is inside r}, which is saturated because
    each factor's `irreducibles_below` preserves binary joins, as it does
    in every frame `FiniteFrame` builds.  The tests hold every coproduct of
    the frame suites, and ones of 924 and 8,000 elements, against literal
    saturation.
    """
    grid = _IrrGrid(left, right)
    reduced = upsets(grid.down, TENSOR_ELEMENT_CAP)
    n = len(reduced)
    if n > TENSOR_ELEMENT_CAP:
        raise SizeError(f"coproduct exceeds the cap of {TENSOR_ELEMENT_CAP} elements")
    width = max(4, len(str(n - 1)))
    labels = tuple(f"t{k:0{width}d}" for k in range(n))
    frame = TensorFrame(labels, reduced, left=left, right=right, grid=grid)
    index = frame.index
    if not all(r in index for row in grid.rt for r in row):
        raise VerificationError("a single-pair tensor is missing from the element set")
    if reduced[frame.bottom] != 0 or reduced[frame.top] != (1 << len(grid.down)) - 1:
        raise VerificationError("the coproduct bounds are not the stated ones")
    # building both injections certifies them
    frame.iota1, frame.iota2
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
    return [target.index[gather(r, per_bit)] for r in source.family]


def copair_mapping(f, g, tensor):
    """The mapping of the copair of a cocone (f, g) out of `tensor`, not certified.

    Each element is the join of the tensors p (x) q of its irreducible
    pairs, so its image is the join of f(p) meet g(q) over them: the
    union of the intersections of their sets in the codomain's family,
    looked up once.  ValueError unless f and g share a codomain and
    `tensor` is the coproduct of their sources.
    """
    if f.target != g.target:
        raise ValueError("copairing needs a common codomain")
    if tensor.left != f.source or tensor.right != g.source:
        raise ValueError("the given tensor does not match the cocone")
    codomain = f.target
    grid = tensor.grid
    family = codomain.family
    per_bit = [
        family[f.mapping[p]] & family[g.mapping[q]]
        for p in grid.irr_left
        for q in grid.irr_right
    ]
    bottom = family[codomain.bottom]
    return tuple(codomain.index[gather(r, per_bit) | bottom] for r in tensor.family)


def copair(f, g, *, tensor=None):
    """The mediating hom out of a coproduct for a cocone (f, g).

    The hom on `copair_mapping`, certified, with both triangle laws
    checked.  `tensor` defaults to the coproduct of the sources.
    """
    # Two codomains are refused by `copair_mapping` before any coproduct is built.
    if tensor is None and f.target == g.target:
        tensor = coproduct(f.source, g.source)
    out = FrameHom(tensor, f.target, copair_mapping(f, g, tensor))
    for x in range(f.source.n):
        if out.mapping[tensor.iota1_map[x]] != f.mapping[x]:
            raise VerificationError("copair does not restrict to f on the left leg")
    for y in range(g.source.n):
        if out.mapping[tensor.iota2_map[y]] != g.mapping[y]:
            raise VerificationError("copair does not restrict to g on the right leg")
    return out


class TupleFrame(FiniteFrame):
    """The frame of a family of tuples of factor elements, ordered componentwise.

    Element k is `tuples[k]`, one element per frame of `factors`, labelled
    "(x,y,...)"; `tuple_index` maps a tuple back to k.  A tuple is the
    disjoint union of its components' sets: factor k's `family` mask,
    shifted past the width of the earlier factors' top members.
    `FiniteFrame` builds the frame on those masks, so the order, joins and
    meets are componentwise, and still checks closure: tuples not closed
    under componentwise joins and meets are refused with VerificationError.
    """

    def __init__(self, factors, tuples):
        factors = tuple(factors)
        tuples = tuple(tuples)
        names = [f.labels for f in factors]
        labels = ["(" + ",".join(map(getitem, names, t)) + ")" for t in tuples]
        masks = [0] * len(tuples)
        shift = 0
        for k, f in enumerate(factors):
            shifted = [m << shift for m in f.family]
            masks = list(map(or_, masks, map(shifted.__getitem__, map(itemgetter(k), tuples))))
            shift += f.family[f.top].bit_length()
        super().__init__(labels, masks)
        self.factors = factors
        self.tuples = tuples
        self.tuple_index = dict(zip(tuples, range(len(tuples))))

    def projection(self, k):
        return FrameHom(self, self.factors[k], map(itemgetter(k), self.tuples))

    def pair(self, homs):
        """The mediating hom for a cone of homs whose tuples of values are members."""
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

    The `TupleFrame` of every tuple of factor elements, in
    `itertools.product` order, refused with SizeError above
    `PRODUCT_ELEMENT_CAP` tuples.
    """
    factors = tuple(factors)
    count = 1
    for f in factors:
        count *= f.n
        if count > PRODUCT_ELEMENT_CAP:
            raise SizeError(f"product exceeds the cap of {PRODUCT_ELEMENT_CAP} elements")
    return TupleFrame(factors, _iterproduct(*(range(f.n) for f in factors)))


@dataclass(frozen=True)
class DistributeIso:
    """Both directions of the distribution isomorphism, validated."""

    forward: FrameHom
    inverse: FrameHom


def distribute_iso(source, t1, t2):
    """L tensor (M1 x M2) against (L tensor M1) x (L tensor M2).

    The pieces are `source` = L tensor (M1 x M2), `t1` = L tensor M1 and
    `t2` = L tensor M2; L, M1, M2 and the product M1 x M2 are read off
    them, and pieces that do not come from one triple are refused with
    ValueError: among them a `TupleFrame` on M1 and M2 that is not on
    every tuple, such as a pushout apex.  The target
    (L tensor M1) x (L tensor M2) is built here.  The forward map pairs the
    two projection actions (id tensor p_k).  It is certified to be a
    bijection and a frame hom; a bijective lattice hom is an isomorphism,
    and its inverse is certified too.  NotIsoError otherwise.
    """
    left, prod = source.left, source.right
    if (
        (t1.left, t2.left) != (left, left)
        or not isinstance(prod, TupleFrame)
        or prod.factors != (t1.right, t2.right)
        or prod.n != t1.right.n * t2.right.n
    ):
        raise ValueError("the given pieces do not match the triple")
    target = product_frames([t1, t2])
    c1 = _tensor_action(source, t1, prod.projection(0))
    c2 = _tensor_action(source, t2, prod.projection(1))
    tindex = target.tuple_index
    fwd = [tindex[(u, v)] for u, v in zip(c1, c2)]
    try:
        if source.n != target.n or len(set(fwd)) != target.n:
            raise NotHomError("the distribution map is not a bijection")
        forward = FrameHom(source, target, fwd)
    except NotHomError:
        raise NotIsoError("the distribution map is not an order isomorphism") from None
    inv = [0] * target.n
    for k, v in enumerate(fwd):
        inv[v] = k
    return DistributeIso(forward, FrameHom(target, source, inv))


@dataclass(frozen=True)
class PushoutLocaleResult:
    """Pushout of a span of localic maps, computed in the frame category.

    The apex is the `TupleFrame` of the pairs (b, c) agreeing under the
    span's left adjoints, its `tuples`; `proj_b`/`proj_c` are its
    projections and the legs package them with their right adjoints, which
    are the localic maps B -> P and C -> P.
    """

    apex: TupleFrame
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
    It is two halves composed: `pushout_apex` builds the apex, projections
    and legs from (B, C, pairs) alone, and `pushout_square` checks the
    legs against the right adjoints of the span.
    """
    if f_left.target != g_left.target:
        raise ValueError("the span needs a common codomain frame")
    apex, proj_b, proj_c, leg_b, leg_c = pushout_apex(
        f_left.source, g_left.source, agreeing_pairs(f_left, g_left)
    )
    pushout_square(
        (leg_b.right, leg_c.right), right_adjoint(f_left).right, right_adjoint(g_left).right
    )
    return PushoutLocaleResult(apex, proj_b, proj_c, leg_b, leg_c, f_left, g_left)


def agreeing_pairs(f_left, g_left):
    """The pairs (b, c) with f(b) = g(c), b-major: the apex elements of the span."""
    g_map = g_left.mapping
    return tuple(
        (b, c) for b, x in enumerate(f_left.mapping) for c, y in enumerate(g_map) if x == y
    )


def pushout_apex(b_frame, c_frame, pairs):
    """The half of `pushout_loc` that reads no span hom, only (B, C, pairs).

    The apex is the `TupleFrame` of `pairs` on (B, C), with the
    componentwise order and operations, and its projections.  The legs
    come from the join formula over agreeing pairs and are cross-checked
    against `right_adjoint` of each projection: the formula gathers the
    projection's fibres over the down row of x.  Returns the first five
    fields of a `PushoutLocaleResult`, in order.
    """
    apex = TupleFrame((b_frame, c_frame), pairs)
    proj_b = apex.projection(0)
    proj_c = apex.projection(1)
    leg_b = right_adjoint(proj_b)
    leg_c = right_adjoint(proj_c)
    for proj, leg, factor in ((proj_b, leg_b, b_frame), (proj_c, leg_c, c_frame)):
        over = fibres(proj.mapping, factor.n)
        for x, row in enumerate(factor.order.down):
            if apex.join_mask(gather(row, over)) != leg.right[x]:
                raise VerificationError("the stated leg formula disagrees with the adjoint")
    return apex, proj_b, proj_c, leg_b, leg_c


def pushout_square(legs, f_right, g_right):
    """The half of `pushout_loc` that reads the span: the square commutes.

    `legs` are the right maps of the two legs, `f_right` and `g_right`
    those of `right_adjoint` of the span homs; VerificationError unless
    leg_b after f_right equals leg_c after g_right.
    """
    leg_b, leg_c = legs
    if [leg_b[y] for y in f_right] != [leg_c[y] for y in g_right]:
        raise VerificationError("the pushout square does not commute")


def mediator_mapping(result, u_left, v_left):
    """The mapping of the mediator out of a pushout cocone, not certified.

    u_left : Q -> B and v_left : Q -> C present localic maps B -> Q and
    C -> Q agreeing on the span; the mediator sends x to the apex element
    (u(x), v(x)).  ValueError unless (u, v) is a cocone of the span.
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
    return tuple(map(result.apex.tuple_index.__getitem__, zip(u_left.mapping, v_left.mapping)))


def pushout_mediator(result, u_left, v_left):
    """The mediating hom out of a pushout cocone, with triangle checks.

    The hom on `mediator_mapping`, certified, with both pushout triangles
    checked.
    """
    out = FrameHom(u_left.source, result.apex, mediator_mapping(result, u_left, v_left))
    if (
        composed(out, result.proj_b) != u_left.mapping
        or composed(out, result.proj_c) != v_left.mapping
    ):
        raise VerificationError("the mediator breaks a pushout triangle")
    return out
