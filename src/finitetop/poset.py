"""Finite preorders, posets, monotone maps and downset enumeration.

`Preorder` is the one order type: labelled points with transitively
closed up rows, where `up[i]` holds the mask of all j with i <= j and
`down[i]` the dual.  Posets are the antisymmetric preorders, a finite
space (in `spaces`) is the preorder of its specialization order, and the
lifting layer works on plain preorders; the subclasses add only their
serialization kind and their own operations.  `PreMap` is the one map
class: a map is valid when it is monotone on the up rows, which for finite
spaces is exactly continuity, and `iter_monotone_maps` lists every map
between two orders.  `pushout` is the one labelled pushout: finite
spaces, pseudotopologies (on their carriers) and cell attachment all glue
their spans with it; `coproduct_pre` is the labelled sum cell attachment
glues along.  Element labels are opaque strings; constructors that
parse labelled input sort them once, and everything downstream works with
positional indices, so enumeration is reproducible.  Subsets of the
carrier are plain ints over the same bit positions.  `downsets` lists a
poset's downsets as masks; `frames.downset_frame` builds the frame of
them, sorted by `mask_label`, as the family of sets
`frames.FiniteFrame(labels, downsets)`.
"""

from __future__ import annotations

from functools import cached_property

from .bits import iter_bits, popcount
from .errors import (
    CarrierMismatchError,
    CycleError,
    DuplicateLabelError,
    NotMonotoneError,
    SizeError,
    TopologyError,
    VerificationError,
)
from .order import (
    glue_span,
    maps,
    restrict,
    sort_labels,
    transitive_closure,
    transpose,
    upsets,
)

DOWNSET_CAP = 1 << 20


class Preorder:
    """Finite preorder: labelled points plus reflexive transitive up rows."""

    def __init__(self, points, up, *, validate=True):
        self.points = tuple(points)
        self.up = tuple(up)
        self.n = len(self.points)
        if validate:
            if len(set(self.points)) != self.n:
                raise DuplicateLabelError("preorder labels repeat")
            if len(self.up) != self.n:
                raise CarrierMismatchError("one up row per point")
            for i, row in enumerate(self.up):
                if not row >> i & 1:
                    raise TopologyError("preorder rows must be reflexive")
                for j in iter_bits(row):
                    if self.up[j] & ~row:
                        raise TopologyError("preorder rows must be transitive")

    @property
    def full(self):
        return (1 << self.n) - 1

    @cached_property
    def down(self):
        return transpose(self.up)

    def leq_idx(self, i, j):
        return bool(self.up[i] >> j & 1)

    @cached_property
    def _index(self):
        return {x: i for i, x in enumerate(self.points)}

    def index(self, label):
        return self._index[label]

    def label_set(self, mask):
        return tuple(self.points[i] for i in iter_bits(mask))

    def restrict(self, mask):
        """The induced order on the points of `mask`, of the same kind."""
        return type(self)(self.label_set(mask), restrict(self.up, mask), validate=False)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Preorder)
            and self.points == other.points
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.points, self.up))

    def __repr__(self):
        return f"{type(self).__name__}({self.n} points)"


class FinitePoset(Preorder):
    """A finite partial order: a preorder whose rows are antisymmetric.

    `validate_poset` is the checking constructor from labels and pairs.
    """

    @cached_property
    def linear_extension(self):
        """A fixed linear extension: ascending strict-down-set size, then index."""
        order = sorted(range(self.n), key=lambda i: (popcount(self.down[i]), i))
        seen = 0
        for i in order:
            if self.down[i] & ~seen != 1 << i:
                raise VerificationError("linear extension is not order-preserving")
            seen |= 1 << i
        return tuple(order)

    def downsets(self, cap=DOWNSET_CAP):
        """All downsets as masks, the up-sets of the dual rows, ordered by (size, mask).

        SizeError beyond `cap`.
        """
        masks = upsets(self.down, cap)
        if len(masks) > cap:
            raise SizeError(f"more than {cap} downsets on {self.n} elements")
        return masks


def validate_poset(elements, relation):
    """Check labels and close the relation; CycleError if not antisymmetric.

    `relation` is an iterable of (x, y) label pairs meaning x <= y; the
    reflexive-transitive closure is implied and computed here.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        dup = sorted(x for x in set(elements) if elements.count(x) > 1)
        raise DuplicateLabelError(f"duplicate labels: {dup}")
    labels = sorted(elements)
    index = {x: i for i, x in enumerate(labels)}
    rows = [1 << i for i in range(len(labels))]
    for x, y in relation:
        if x not in index or y not in index:
            missing = x if x not in index else y
            raise ValueError(f"relation mentions unknown label {missing!r}")
        rows[index[x]] |= 1 << index[y]
    transitive_closure(rows)
    for i in range(len(labels)):
        for j in iter_bits(rows[i]):
            if j != i and rows[j] >> i & 1:
                raise CycleError(
                    f"cycle through {labels[i]!r} and {labels[j]!r}"
                )
    return FinitePoset(labels, rows, validate=False)


def mask_label(carrier, mask):
    """The points of `mask` as "{a,b}", in position order; `carrier` has a `label_set`."""
    return "{" + ",".join(carrier.label_set(mask)) + "}"


class PreMap:
    """A monotone map between finite preorders.

    For finite spaces monotonicity of the specialization rows is exactly
    continuity, so this is also the map class of spaces.  The kind a map
    serializes as follows its source: poset, space or plain preorder.
    """

    def __init__(self, source, target, mapping, *, validate=True):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.n:
            raise CarrierMismatchError("one image per source point")
        if validate:
            tup = target.up
            for i in range(source.n):
                row = source.up[i]
                ti = self.mapping[i]
                for j in iter_bits(row):
                    if not tup[ti] >> self.mapping[j] & 1:
                        raise NotMonotoneError(
                            f"{source.points[i]} <= {source.points[j]} is not preserved"
                        )

    def __call__(self, i):
        return self.mapping[i]

    def then(self, other):
        """Composite self followed by other."""
        if self.target != other.source:
            raise CarrierMismatchError("composition needs matching middle object")
        return PreMap(
            self.source,
            other.target,
            [other.mapping[v] for v in self.mapping],
            validate=False,
        )

    def preimage_mask(self, mask):
        m = 0
        for i, v in enumerate(self.mapping):
            if mask >> v & 1:
                m |= 1 << i
        return m

    @cached_property
    def key(self):
        """Label-free structural key; equal keys share all lifting behaviour."""
        return (self.source.up, self.target.up, self.mapping)

    def __eq__(self, other):
        return (
            isinstance(other, PreMap)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __repr__(self):
        pairs = ", ".join(
            f"{x}->{self.target.points[v]}"
            for x, v in zip(self.source.points, self.mapping)
        )
        return f"PreMap({pairs})"


def iter_monotone_maps(source, target):
    """Every monotone map source -> target, in the fill order of `order.maps`.

    For spaces these are the continuous maps.
    """
    for mapping in maps(source.up, target.up):
        yield PreMap(source, target, mapping, validate=False)


def pushout(b, c, f_map, g_map):
    """Pushout of B <- A -> C in preorders, given by the two images of A.

    The apex is `order.glue_span`'s.  Each class is labelled by its least
    tag "b:x"/"c:y", and the labels are sorted, as a parsed structure's
    are.  Returns the labels, the apex rows and the two injections as
    index tuples.
    """
    rows, cls = glue_span(b.up, c.up, f_map, g_map)
    labels = [None] * len(rows)
    tags = [f"b:{x}" for x in b.points] + [f"c:{y}" for y in c.points]
    for tag, k in zip(tags, cls):
        if labels[k] is None or tag < labels[k]:
            labels[k] = tag
    points, rows = sort_labels(labels, rows)
    index = {x: t for t, x in enumerate(points)}
    inj = tuple(index[labels[k]] for k in cls)
    return points, rows, inj[: b.n], inj[b.n :]


def coproduct_pre(parts, prefixes):
    """Disjoint union with prefixed labels; returns the sum and injections.

    The labels are sorted, as a parsed structure's are, and the injections
    follow the sort.
    """
    if len(parts) != len(prefixes):
        raise CarrierMismatchError("one prefix per summand")
    points = []
    rows = []
    offset = 0
    for part, prefix in zip(parts, prefixes):
        points.extend(f"{prefix}:{x}" for x in part.points)
        rows.extend(r << offset for r in part.up)
        offset += part.n
    total = Preorder(*sort_labels(points, rows), validate=False)
    return total, tuple(
        PreMap(part, total, [total.index(f"{prefix}:{x}") for x in part.points], validate=False)
        for part, prefix in zip(parts, prefixes)
    )
