"""Finite topological spaces, presented by their specialization preorders.

A finite space is Alexandrov: its opens are exactly the up-sets of the
specialization preorder, x <= y when y lies in every open around x.  So a
`FiniteSpace` is a `Preorder` on sorted point labels whose rows are that
order, its opens are listed by the shared up-set enumerator, and its maps
are the monotone `PreMap`s.  Constructions (preorders, pushouts, products)
build rows, never open families; a pushout is the labelled `poset.pushout`
of the specialization orders.  The continuous maps are the monotone
ones, `poset.iter_monotone_maps`.
"""

from __future__ import annotations

from functools import cached_property

from .bits import iter_bits, popcount
from .errors import CarrierMismatchError, SizeError, TopologyError
from .order import isomorphisms, product_rows, sort_labels, upsets
from .poset import PreMap, Preorder, pushout

PRODUCT_OPEN_CAP = 4096


class FiniteSpace(Preorder):
    """A finite space: sorted points, rows the specialization order.

    `opens` lists the up-sets of the rows, canonically sorted by
    (size, mask); `from_opens` builds a space from an open family instead.
    """

    @classmethod
    def from_opens(cls, points, opens):
        """The space with the given opens; TopologyError unless they form a topology.

        The rows are the smallest opens around each point.  Every open
        inside the carrier is an up-set of those rows, so a family of such
        opens is a topology, the Alexandrov topology of the rows, exactly
        when the rows have no more up-sets than there are opens; counting
        them with the cap decides it in one enumeration.  Any other family
        runs the pairwise scan of the topology axioms (the empty set, the
        whole carrier, closure under binary union and intersection), which
        names what is missing.
        """
        points = tuple(points)
        if sorted(points) != list(points):
            raise TopologyError("points must be sorted")
        if len(set(points)) != len(points):
            raise TopologyError("duplicate points")
        opens = tuple(sorted(set(opens), key=lambda m: (popcount(m), m)))
        full = (1 << len(points)) - 1
        rows = []
        for i in range(len(points)):
            acc = full
            for u in opens:
                if u >> i & 1:
                    acc &= u
            rows.append(acc)
        space = cls(points, rows, validate=False)
        space.opens = opens
        if not any(u & ~full for u in opens) and len(upsets(rows, len(opens))) == len(opens):
            return space
        os = set(opens)
        if 0 not in os:
            raise TopologyError("empty set is not open")
        if full not in os:
            raise TopologyError("carrier is not open")
        for u in opens:
            for v in opens:
                if u | v not in os:
                    raise TopologyError(
                        f"union of opens {space.label_set(u)} and {space.label_set(v)} is not open"
                    )
                if u & v not in os:
                    raise TopologyError(
                        f"intersection of opens {space.label_set(u)} and {space.label_set(v)} is not open"
                    )
        return space

    @cached_property
    def opens(self):
        return upsets(self.up)

    def is_open(self, mask):
        return all(self.up[i] & ~mask == 0 for i in iter_bits(mask))

    @cached_property
    def closed_sets(self):
        return upsets(self.down)

    def closure(self, mask):
        acc = 0
        for i in iter_bits(mask):
            acc |= self.down[i]
        return acc

    @cached_property
    def is_discrete(self):
        return all(self.up[i] == 1 << i for i in range(self.n))


def space_from_preorder(labels, up_rows):
    """Alexandrov space of a (not necessarily antisymmetric) preorder."""
    return FiniteSpace(*sort_labels(labels, up_rows), validate=False)


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
    return next(isomorphisms(x.up, y.up), None)


def pushout_spaces(f, g):
    """Pushout of the span f : A -> B, g : A -> C in finite spaces.

    The carrier and order are `poset.pushout`'s: the disjoint union of B
    and C glued along the images of A, each class labelled by its least
    tag "b:x"/"c:y".  The final topology is the Alexandrov topology of the
    order generated by the two injected orders: a set has open preimages
    under both injections exactly when it is an up-set of each injected
    order.  Returns (space, inj_b, inj_c).
    """
    if g.source != f.source:
        raise CarrierMismatchError("the span legs must share a source")
    points, rows, b_map, c_map = pushout(f.target, g.target, f.mapping, g.mapping)
    space = FiniteSpace(points, rows)
    return space, PreMap(f.target, space, b_map), PreMap(g.target, space, c_map)


def product_spaces(x, y):
    """The product space on pair points, with the projection maps.

    A finite product is Alexandrov with the product of the specialization
    orders.  Pair labels keep the row-major layout sorted because the comma
    sorts below every label character.  Returns (space, proj_x, proj_y).
    """
    ny = y.n
    points = tuple(f"({a},{b})" for a in x.points for b in y.points)
    space = FiniteSpace(points, product_rows(x.up, y.up))
    opens = upsets(space.up, PRODUCT_OPEN_CAP)
    if len(opens) > PRODUCT_OPEN_CAP:
        raise SizeError(f"product topology exceeds {PRODUCT_OPEN_CAP} opens")
    space.opens = opens
    proj_x = PreMap(space, x, [i for i in range(x.n) for _ in range(ny)])
    proj_y = PreMap(space, y, [j for _ in range(x.n) for j in range(ny)])
    return space, proj_x, proj_y
