"""Finite topological spaces: open-set families on bitmask carriers.

A finite space is Alexandrov, so it is equivalent data to a preorder on the
points (the specialization order, under which the opens are exactly the
up-sets).  Both views are kept: `opens` for the frame-facing side, the
`spec_up` rows for map enumeration.
"""

from __future__ import annotations

from functools import cached_property

from .bits import iter_bits, popcount
from .errors import (
    CarrierMismatchError,
    SizeError,
    TopologyError,
)
from .order import fill, glue, isomorphism, transpose

# the largest carrier whose opens are found by sweeping all 2^n subsets
SWEEP_POINT_CAP = 20
PRODUCT_OPEN_CAP = 4096


class FiniteSpace:
    """Points with a validated open-set family.

    `opens` are bitmasks against the sorted point order, canonically sorted
    by (size, mask).  Construction checks the empty set, the whole carrier
    and closure under binary union and intersection, which in the finite
    case is the full topology axiom set.
    """

    def __init__(self, points, opens, *, validate=True):
        self.points = tuple(points)
        self.opens = tuple(sorted(set(opens), key=lambda m: (popcount(m), m)))
        self._index = {x: i for i, x in enumerate(self.points)}
        if validate:
            self._validate()

    def _validate(self):
        if sorted(self.points) != list(self.points):
            raise TopologyError("points must be sorted")
        if len(set(self.points)) != len(self.points):
            raise TopologyError("duplicate points")
        os = set(self.opens)
        if 0 not in os:
            raise TopologyError("empty set is not open")
        if self.full not in os:
            raise TopologyError("carrier is not open")
        for u in self.opens:
            for v in self.opens:
                if u | v not in os:
                    raise TopologyError(
                        f"union of opens {self.label_set(u)} and {self.label_set(v)} is not open"
                    )
                if u & v not in os:
                    raise TopologyError(
                        f"intersection of opens {self.label_set(u)} and {self.label_set(v)} is not open"
                    )

    @classmethod
    def from_sets(cls, points, open_sets):
        points = tuple(sorted(points))
        index = {x: i for i, x in enumerate(points)}
        masks = []
        for s in open_sets:
            m = 0
            for x in s:
                if x not in index:
                    raise ValueError(f"open set mentions unknown point {x!r}")
                m |= 1 << index[x]
            masks.append(m)
        return cls(points, masks)

    @property
    def n(self):
        return len(self.points)

    @cached_property
    def full(self):
        return (1 << self.n) - 1

    def index(self, x):
        return self._index[x]

    def label_set(self, mask):
        return tuple(self.points[i] for i in iter_bits(mask))

    def mask_from_labels(self, labels):
        m = 0
        for x in labels:
            m |= 1 << self._index[x]
        return m

    def is_open(self, mask):
        return mask in self._open_set

    @cached_property
    def _open_set(self):
        return set(self.opens)

    @cached_property
    def closed_sets(self):
        return tuple(
            sorted((self.full ^ u for u in self.opens), key=lambda m: (popcount(m), m))
        )

    @cached_property
    def min_open(self):
        """Per point, the smallest open containing it."""
        out = []
        for i in range(self.n):
            acc = self.full
            for u in self.opens:
                if u >> i & 1:
                    acc &= u
            out.append(acc)
        return tuple(out)

    @cached_property
    def spec_up(self):
        """Specialization preorder rows: x <= y iff y lies in every open around x."""
        return self.min_open

    @cached_property
    def spec_down(self):
        return transpose(self.spec_up)

    def closure(self, mask):
        return sum(
            1 << i for i in range(self.n) if self.min_open[i] & mask
        ) if mask else 0

    @cached_property
    def is_t0(self):
        return len(set(self.min_open)) == self.n

    @cached_property
    def is_discrete(self):
        return all(self.min_open[i] == 1 << i for i in range(self.n))

    def subspace(self, mask):
        """Induced topology on the points of `mask` (relabelled subset)."""
        keep = list(iter_bits(mask))
        pos = {i: t for t, i in enumerate(keep)}
        points = [self.points[i] for i in keep]
        opens = set()
        for u in self.opens:
            m = 0
            for i in iter_bits(u & mask):
                m |= 1 << pos[i]
            opens.add(m)
        return FiniteSpace(points, opens, validate=False)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSpace)
            and self.points == other.points
            and self.opens == other.opens
        )

    def __hash__(self):
        return hash((self.points, self.opens))

    def __repr__(self):
        return f"FiniteSpace({self.n} points, {len(self.opens)} opens)"


def space_from_preorder(labels, up_rows):
    """Alexandrov space of a (not necessarily antisymmetric) preorder."""
    n = len(labels)
    order = sorted(range(n), key=lambda i: labels[i])
    relabel = {i: t for t, i in enumerate(order)}
    rows = [0] * n
    for i, r in enumerate(up_rows):
        m = 0
        for j in iter_bits(r):
            m |= 1 << relabel[j]
        rows[relabel[i]] = m
    labels = [labels[i] for i in order]
    opens = []
    full = (1 << n) - 1
    if n > SWEEP_POINT_CAP:
        raise SizeError("preorder too large to materialize its topology")
    for m in range(full + 1):
        up = m
        for i in iter_bits(m):
            up |= rows[i]
        if up == m:
            opens.append(m)
    return FiniteSpace(labels, opens, validate=False)


class SpaceMap:
    """A validated continuous map between finite spaces."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.n:
            raise CarrierMismatchError("one image per source point")
        for u in target.opens:
            pre = 0
            for i in range(source.n):
                if u >> self.mapping[i] & 1:
                    pre |= 1 << i
            if not source.is_open(pre):
                raise TopologyError(
                    f"preimage of open {target.label_set(u)} is not open"
                )

    @classmethod
    def from_labels(cls, source, target, assignment):
        return cls(
            source, target, [target.index(assignment[x]) for x in source.points]
        )

    def __call__(self, i):
        return self.mapping[i]

    def apply_label(self, x):
        return self.target.points[self.mapping[self.source.index(x)]]

    def then(self, other):
        if self.target != other.source:
            raise CarrierMismatchError("composition needs matching middle object")
        return SpaceMap(
            self.source, other.target, [other.mapping[v] for v in self.mapping]
        )

    def image_mask(self, mask):
        m = 0
        for i in iter_bits(mask):
            m |= 1 << self.mapping[i]
        return m

    def preimage_mask(self, mask):
        m = 0
        for i in range(self.source.n):
            if mask >> self.mapping[i] & 1:
                m |= 1 << i
        return m

    def __eq__(self, other):
        return (
            isinstance(other, SpaceMap)
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
        return f"SpaceMap({pairs})"


def iter_continuous_maps(source, target):
    """All continuous maps, via monotonicity for the specialization preorders.

    Finite spaces are Alexandrov, so continuity is exactly preservation of
    specialization; the fill runs on the preorder rows.
    """
    for mapping in fill(source.spec_up, target.spec_up):
        yield SpaceMap(source, target, mapping)


def irreducible_closed_sets(space):
    """Nonempty closed sets admitting no two-proper-closed-subsets cover.

    Exhaustive decomposition search over the closed family, as the closed
    subsets of a closed F are exactly the closed sets of X inside F.
    """
    closed = space.closed_sets
    out = []
    for f in closed:
        if f == 0:
            continue
        parts = [c for c in closed if c & ~f == 0 and c != f]
        reducible = any(
            c1 | c2 == f for i, c1 in enumerate(parts) for c2 in parts[: i + 1]
        )
        if not reducible:
            out.append(f)
    return tuple(out)


def is_sober(space):
    """Every irreducible closed set is the closure of exactly one point."""
    for f in irreducible_closed_sets(space):
        generic = [
            i for i in range(space.n) if space.closure(1 << i) == f
        ]
        if len(generic) != 1:
            return False
    return True


def spaces_homeomorphic(x, y):
    """A homeomorphism as an index tuple, or None.

    Finite spaces are determined by their specialization preorders, so this
    is a preorder isomorphism search.
    """
    return isomorphism(x.spec_up, y.spec_up)


def pushout_carrier(b_points, c_points, f_map, g_map):
    """The glued carrier of a span of point maps into B and C.

    Each class of the disjoint union glued along the span is labelled by
    its least tag "b:x"/"c:y".  Returns the sorted labels and the two
    injections as index tuples.
    """
    nb = len(b_points)
    cls = glue(nb + len(c_points), [(fa, nb + ga) for fa, ga in zip(f_map, g_map)])
    tags = [f"b:{x}" for x in b_points] + [f"c:{y}" for y in c_points]
    label = {}
    for tag, k in zip(tags, cls):
        if k not in label or tag < label[k]:
            label[k] = tag
    points = sorted(label.values())
    index = {x: t for t, x in enumerate(points)}
    inj = tuple(index[label[k]] for k in cls)
    return points, inj[:nb], inj[nb:]


def pushout_spaces(f, g):
    """Pushout of the span f : A -> B, g : A -> C in finite spaces.

    The carrier glues the disjoint union of B and C along the images of A,
    with class labels "b:x"/"c:y" taken least over each class.  Opens are
    the subsets whose preimages under both injections are open (the final
    topology).  Returns (space, inj_b, inj_c).
    """
    if g.source != f.source:
        raise ValueError("the span legs must share a source")
    b_space = f.target
    c_space = g.target
    points, b_map, c_map = pushout_carrier(
        b_space.points, c_space.points, f.mapping, g.mapping
    )
    if len(points) > SWEEP_POINT_CAP:
        raise SizeError(f"pushout carrier exceeds {SWEEP_POINT_CAP} points")
    n = len(points)
    opens = []
    for m in range(1 << n):
        pre_b = 0
        for i, p in enumerate(b_map):
            if m >> p & 1:
                pre_b |= 1 << i
        if not b_space.is_open(pre_b):
            continue
        pre_c = 0
        for j, p in enumerate(c_map):
            if m >> p & 1:
                pre_c |= 1 << j
        if c_space.is_open(pre_c):
            opens.append(m)
    space = FiniteSpace(points, opens)
    return space, SpaceMap(b_space, space, b_map), SpaceMap(c_space, space, c_map)


def product_spaces(x, y):
    """The product space on pair points, with the projection maps.

    Opens are the unions of open boxes U x V.  Pair labels keep the
    row-major layout sorted because the comma sorts below every label
    character.  Returns (space, proj_x, proj_y).
    """
    ny = y.n
    points = tuple(f"({a},{b})" for a in x.points for b in y.points)
    boxes = set()
    for u in x.opens:
        for v in y.opens:
            m = 0
            for i in iter_bits(u):
                m |= v << (i * ny)
            boxes.add(m)
    opens = set(boxes)
    frontier = list(boxes)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(opens):
                u = a | b
                if u not in opens:
                    if len(opens) >= PRODUCT_OPEN_CAP:
                        raise SizeError(f"product topology exceeds {PRODUCT_OPEN_CAP} opens")
                    opens.add(u)
                    fresh.append(u)
        frontier = fresh
    space = FiniteSpace(points, opens)
    proj_x = SpaceMap(space, x, [i for i in range(x.n) for _ in range(ny)])
    proj_y = SpaceMap(space, y, [j for _ in range(x.n) for j in range(ny)])
    return space, proj_x, proj_y
