"""Finite posets, monotone maps and downset enumeration.

Element labels are opaque strings.  Constructors that parse labelled input
sort the labels once, and everything downstream works with positional
indices against the stored order, so enumeration is reproducible.  The
order relation is stored as transitively closed bit rows: `up[i]` holds the
mask of all j with i <= j, `down[i]` the dual.  Subsets of the carrier are
plain ints over the same bit positions.
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
    VerificationError,
)
from .order import isomorphism, transpose

DOWNSET_CAP = 1 << 20


def transitive_closure(rows):
    """In-place Warshall closure of successor bit rows."""
    n = len(rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


class FinitePoset:
    """Immutable finite partial order on sorted string labels."""

    def __init__(self, labels, up):
        self.labels = tuple(labels)
        self.up = tuple(up)
        self._index = {x: i for i, x in enumerate(self.labels)}

    @classmethod
    def from_pairs(cls, elements, pairs):
        """Build from labels and a label-pair relation; see validate_poset."""
        return validate_poset(elements, pairs)

    @property
    def n(self):
        return len(self.labels)

    @cached_property
    def full(self):
        return (1 << self.n) - 1

    def index(self, label):
        return self._index[label]

    def leq_idx(self, i, j):
        return bool(self.up[i] >> j & 1)

    def leq(self, x, y):
        return self.leq_idx(self._index[x], self._index[y])

    @cached_property
    def down(self):
        return transpose(self.up)

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

    def is_downset(self, mask):
        acc = 0
        for i in iter_bits(mask):
            acc |= self.down[i]
        return acc | mask == mask

    def down_closure(self, mask):
        acc = mask
        for i in iter_bits(mask):
            acc |= self.down[i]
        return acc

    def up_closure(self, mask):
        acc = mask
        for i in iter_bits(mask):
            acc |= self.up[i]
        return acc

    def downsets(self, cap=DOWNSET_CAP):
        """Enumerate all downsets, canonically ordered; SizeError beyond cap.

        Walks the fixed linear extension and decides membership per element;
        an element may be included only when its strict predecessors already
        are, which prunes every dead branch immediately.
        """
        out = []
        ext = self.linear_extension
        down = self.down
        n = self.n

        def rec(t, mask):
            if t == len(ext):
                out.append(mask)
                if len(out) > cap:
                    raise SizeError(
                        f"more than {cap} downsets on {n} elements"
                    )
                return
            i = ext[t]
            rec(t + 1, mask)
            if down[i] & ~mask == 1 << i:
                rec(t + 1, mask | 1 << i)

        rec(0, 0)
        out.sort(key=lambda m: (popcount(m), m))
        return DownsetFamily(self, tuple(out))

    def label_set(self, mask):
        return tuple(self.labels[i] for i in iter_bits(mask))

    def mask_from_labels(self, labels):
        m = 0
        for x in labels:
            m |= 1 << self._index[x]
        return m

    def restrict(self, mask):
        """Induced subposet on the elements of `mask`."""
        keep = list(iter_bits(mask))
        labels = [self.labels[i] for i in keep]
        pos = {i: t for t, i in enumerate(keep)}
        rows = []
        for i in keep:
            r = 0
            for j in iter_bits(self.up[i] & mask):
                r |= 1 << pos[j]
            rows.append(r)
        return FinitePoset(labels, rows)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return f"FinitePoset({len(self.labels)} elements)"


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
    return FinitePoset(labels, rows)


class DownsetFamily:
    """All downsets of a poset, as canonically ordered bitmasks."""

    def __init__(self, base, masks):
        self.base = base
        self.masks = masks
        self._pos = {m: k for k, m in enumerate(masks)}

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def __contains__(self, mask):
        return mask in self._pos

    def position(self, mask):
        return self._pos[mask]

    @cached_property
    def poset(self):
        """The family ordered by inclusion, labelled by member sets."""
        labels = [downset_label(self.base, m) for m in self.masks]
        rows = []
        for a in self.masks:
            r = 0
            for k, b in enumerate(self.masks):
                if a & ~b == 0:
                    r |= 1 << k
            rows.append(r)
        order = sorted(range(len(labels)), key=lambda k: labels[k])
        relabel = {k: t for t, k in enumerate(order)}
        out_rows = [0] * len(labels)
        for k, r in enumerate(rows):
            nr = 0
            for j in iter_bits(r):
                nr |= 1 << relabel[j]
            out_rows[relabel[k]] = nr
        return FinitePoset([labels[k] for k in order], out_rows)


def downset_label(poset, mask):
    return "{" + ",".join(poset.labels[i] for i in iter_bits(mask)) + "}"


class MonotoneMap:
    """A validated monotone map between finite posets."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.n:
            raise CarrierMismatchError("one image per source point")
        for i in range(source.n):
            fi = self.mapping[i]
            for j in iter_bits(source.up[i]):
                if not target.leq_idx(fi, self.mapping[j]):
                    raise NotMonotoneError(
                        f"{source.labels[i]!r} <= {source.labels[j]!r} "
                        "but the images are not comparable that way"
                    )

    @classmethod
    def from_labels(cls, source, target, assignment):
        mapping = [target.index(assignment[x]) for x in source.labels]
        return cls(source, target, mapping)

    def __call__(self, i):
        return self.mapping[i]

    def apply_label(self, x):
        return self.target.labels[self.mapping[self.source.index(x)]]

    def then(self, other):
        """Composite self followed by other."""
        if self.target is not other.source and self.target != other.source:
            raise CarrierMismatchError("composition needs matching middle object")
        return MonotoneMap(
            self.source, other.target, [other.mapping[v] for v in self.mapping]
        )

    def image_mask(self, mask):
        m = 0
        for i in iter_bits(mask):
            m |= 1 << self.mapping[i]
        return m

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __repr__(self):
        pairs = ", ".join(
            f"{x}->{self.target.labels[v]}" for x, v in zip(self.source.labels, self.mapping)
        )
        return f"MonotoneMap({pairs})"


def poset_isomorphism(p, q):
    """An order isomorphism p -> q as an index tuple, or None."""
    return isomorphism(p.up, q.up)
