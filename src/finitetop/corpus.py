"""Exhaustive corpora of small posets, preorders, lattices and frames.

Also the fixed regression set of factorization problems that the small
object argument suite runs, `soa_regression_cases`.

Generation is deterministic: posets grow by attaching a fresh maximal
element over each downset of a smaller poset (every finite poset arises
this way by deleting a maximal element), spaces are the labelled preorders,
and `order.representatives` keeps the first relation of each isomorphism
class.  Known counts are frozen in the test suite as an independent
cross-check.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotDistributiveError, NotLatticeError
from .frames import frame_from_poset
from .order import representatives
from .poset import FinitePoset, PreMap, Preorder, coproduct_pre
from .spaces import space_from_preorder

LABELS = "abcdefghijklmnop"

# Entries per corpus function, each one whole corpus.  A run asks for a
# handful of bounds (a default `check all` plus the groups at frame size 4
# fill at most 4 entries of any one function), so 16 evicts nothing.
CORPUS_CACHE_SIZE = 16

# the bench tracer books the corpus dedupe under this name
poset_certificate = representatives


def _poset_from_rows(rows):
    n = len(rows)
    return FinitePoset(LABELS[:n], rows, validate=False)


@lru_cache(maxsize=CORPUS_CACHE_SIZE)
def all_posets(max_n):
    """All posets with at most max_n elements, one per isomorphism class."""
    layers = {0: [()]}
    for n in range(1, max_n + 1):
        top = 1 << (n - 1)
        grown = []
        for rows in layers[n - 1]:
            for d in _poset_from_rows(rows).downsets():
                grown.append(
                    tuple(r | top if d >> i & 1 else r for i, r in enumerate(rows)) + (top,)
                )
        layers[n] = sorted(representatives(grown))
    out = []
    for n in range(0, max_n + 1):
        out.extend(_poset_from_rows(rows) for rows in layers[n])
    return tuple(out)


@lru_cache(maxsize=CORPUS_CACHE_SIZE)
def all_preorders_labelled(n):
    """All reflexive transitive relations on n labelled points, as row tuples."""
    if n == 0:
        return ((),)
    out = []
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    base = [1 << i for i in range(n)]

    def closed(rows):
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1 and rows[i] | rows[k] != rows[i]:
                    return False
        return True

    for choice in range(1 << len(pairs)):
        rows = list(base)
        for t, (i, j) in enumerate(pairs):
            if choice >> t & 1:
                rows[i] |= 1 << j
        if closed(rows):
            out.append(tuple(rows))
    return tuple(sorted(out))


@lru_cache(maxsize=CORPUS_CACHE_SIZE)
def all_spaces(max_n, *, t0_only=False):
    """All finite topologies with at most max_n points, one per homeomorphism class."""
    out = []
    for n in range(0, max_n + 1):
        relations = all_preorders_labelled(n)
        if t0_only:
            # T0 is antisymmetry: no two points share an up row
            relations = [rows for rows in relations if len(set(rows)) == n]
        for rows in representatives(relations):
            space = space_from_preorder(LABELS[:n], rows)
            space.opens  # cached with the corpus, outside any suite's memory peak
            out.append(space)
    return tuple(out)


@lru_cache(maxsize=CORPUS_CACHE_SIZE)
def all_lattices(max_n):
    """All lattices with 1..max_n elements, one per isomorphism class.

    Each is a (poset, frame) pair; the frame is None when the lattice is
    not distributive.  A poset is a lattice when `frame_from_poset` names
    no missing bound: it builds a frame, or finds every bound and names a
    failing triple.  `all_frames` reads this pass, so each frame is built
    once.
    """
    out = []
    for p in all_posets(max_n):
        if p.n == 0:
            continue
        try:
            out.append((p, frame_from_poset(p)))
        except NotLatticeError:
            continue
        except NotDistributiveError:
            out.append((p, None))
    return tuple(out)


@lru_cache(maxsize=CORPUS_CACHE_SIZE)
def all_frames(max_n):
    """All frames (distributive lattices) with 1..max_n elements, up to iso."""
    return tuple(frame for _, frame in all_lattices(max_n) if frame is not None)


@lru_cache(maxsize=CORPUS_CACHE_SIZE)
def frame_corpus():
    """The default frame corpus: every frame with at most 5 elements.

    No package code calls it; the tests use it and the bench tracer wraps it
    by name.
    """
    return all_frames(5)


def frames_upto(max_n):
    return all_frames(max_n)


def spaces_upto(max_n, t0_only=False):
    return all_spaces(max_n, t0_only=t0_only)


def soa_regression_cases():
    """The fixed factorization regression set: (name, map, generators, steps)."""
    empty = Preorder((), ())
    point = Preorder(("p",), (1,))
    d2 = Preorder(("x", "y"), (1, 2))
    c2 = Preorder(("x", "y"), (3, 2))
    i2 = Preorder(("x", "y"), (3, 3))
    d3 = Preorder(("x", "y", "z"), (1, 2, 4))
    c3 = Preorder(("x", "y", "z"), (7, 6, 4))
    v3 = Preorder(("r", "s", "t"), (7, 2, 4))
    l3 = Preorder(("r", "s", "t"), (1, 3, 5))
    fold_src, _ = coproduct_pre((point, point), ("0", "1"))
    g_cell = PreMap(empty, point, ())
    g_fold = PreMap(fold_src, point, (0, 0))
    g_edge = PreMap(d2, c2, (0, 1))
    g_low = PreMap(point, c2, (0,))
    g_high = PreMap(point, c2, (1,))
    return (
        ("attach-two-cells", PreMap(empty, d2, ()), (g_cell,), 2),
        ("attach-cells-no-steps", PreMap(empty, d2, ()), (g_cell,), 0),
        ("fold-pair", PreMap(d2, point, (0, 0)), (g_fold,), 2),
        ("fold-pair-no-steps", PreMap(d2, point, (0, 0)), (g_fold,), 0),
        ("fill-edge", PreMap(d2, c2, (0, 1)), (g_edge,), 2),
        ("fill-edge-no-steps", PreMap(d2, c2, (0, 1)), (g_edge,), 0),
        ("climb-chain", PreMap(point, c3, (0,)), (g_low,), 4),
        ("climb-chain-short", PreMap(point, c3, (0,)), (g_low,), 1),
        ("mixed-generators", PreMap(d2, c3, (0, 2)), (g_cell, g_fold, g_edge), 4),
        ("grow-wedge", PreMap(point, v3, (1,)), (g_cell, g_low), 3),
        ("indiscrete-edge", PreMap(d2, i2, (0, 1)), (g_edge,), 2),
        ("identity-stays", PreMap(d2, d2, (0, 1)), (g_cell, g_fold, g_edge), 2),
        ("empty-identity", PreMap(empty, empty, ()), (g_cell,), 1),
        ("single-cell", PreMap(empty, point, ()), (g_cell,), 1),
        ("merge-then-order", PreMap(d3, c2, (0, 0, 1)), (g_fold, g_edge), 3),
        ("grow-under-top", PreMap(point, l3, (1,)), (g_low,), 3),
        ("grow-under-top-no-steps", PreMap(point, l3, (1,)), (g_low,), 0),
        ("two-sided-chain", PreMap(point, c3, (0,)), (g_low, g_high), 3),
        ("collapse-chain", PreMap(c3, point, (0, 0, 0)), (g_fold,), 2),
        ("build-chain-from-nothing", PreMap(empty, c3, ()), (g_cell, g_low), 5),
    )
