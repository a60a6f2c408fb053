"""Shared fixtures: small named posets, spaces, and frames."""

import gc
import json
from itertools import permutations

import pytest
from hypothesis import strategies as st

from finitetop.bits import iter_bits
from finitetop.errors import NotLatticeError
from finitetop.frames import FiniteFrame, chain_frame, downset_frame, frame_from_poset
from finitetop.poset import validate_poset
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
    """The join-irreducibles by their definition through the join table.

    The oracle of the irreducibles `frames.FiniteFrame` reads off a family.
    """
    down = frame.order.down
    return tuple(j for j in range(frame.n) if frame.join_mask(down[j] & ~(1 << j)) != j)


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


class TableLattice(FiniteFrame):
    """A lattice filled from its literal tables, distributive or not.

    `FiniteFrame(labels, family)` refuses a lattice that is not a family of
    sets closed under union and intersection, such as M3 or N5.  This
    stand-in skips that constructor, so tests can hand such a lattice to
    the package and watch it be refused.  Its `family` is the
    join-irreducibles below each element, as `frame_from_poset` would try.
    """

    def __init__(self, poset):
        everything = (1 << poset.n) - 1
        self.order = poset
        self.join, self.meet = literal_tables(poset)
        self.bottom = least_of(poset, everything)
        self.top = greatest_of(poset, everything)
        self.irreducibles = table_irreducibles(self)
        j_mask = sum(1 << j for j in self.irreducibles)
        self.family = tuple(d & j_mask for d in poset.down)
        self.index = {m: k for k, m in enumerate(self.family)}


def stdlib_canonical_json(data):
    """The canonical text through the stdlib's encoder: the oracle of `serialize.canonical_json`."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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


def sierpinski():
    """Points x, y with {y} open; the specialization order is x < y."""
    return FiniteSpace.from_opens(("x", "y"), (0, 2, 3))


@pytest.fixture
def chain3_frame():
    return chain_frame(3)


@pytest.fixture
def b4_frame():
    return frame_from_poset(grid_poset())

