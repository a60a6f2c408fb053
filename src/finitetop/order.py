"""Kernels on order rows: transpose, monotone fill, gluing, isomorphism.

Posets, finite spaces (through their specialization preorders) and the
preorders of the lifting layer all present an order as reflexive,
transitive up rows: bit j of `up[i]` is set when i <= j.  The functions
here take such rows directly, so one mechanism serves every order type,
antisymmetric or not.

Visit order of the monotone fill is fixed: source points are placed in
ascending `(-popcount(up[i]), i)`, and the values for each point ascend.
Assignments therefore come out in a fixed sequence.  That sequence is part
of the observable output: power-object points are numbered by it, arrow
sampling indexes into it, and report bytes depend on both.  Changing it
changes reports.

The visit plan of a source and the dual rows of a target depend on the rows
alone, so `fill` and `count_fill` read both from bounded LRU caches keyed on
the row tuples (`_plan` and `_dual_rows`); a run over a fixed corpus builds
each once.  `PLAN_CACHE_SIZE` bounds each cache.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .bits import iter_bits, popcount

# Entries per cache.  `check all` at the default bounds needs fewer than 500
# distinct plans and dual-row tuples, so nothing is evicted there.
PLAN_CACHE_SIZE = 2048


def transpose(up):
    """The dual rows: bit i of row j is set when bit j of row i is."""
    rows = [0] * len(up)
    for i, r in enumerate(up):
        for j in iter_bits(r):
            rows[j] |= 1 << i
    return tuple(rows)


_dual_rows = lru_cache(maxsize=PLAN_CACHE_SIZE)(transpose)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(src_up):
    """Per visit step: the point, and the earlier points above and below it."""
    order = sorted(range(len(src_up)), key=lambda i: (-popcount(src_up[i]), i))
    return tuple(
        (
            i,
            tuple(k for k in order[:t] if src_up[i] >> k & 1),
            tuple(k for k in order[:t] if src_up[k] >> i & 1),
        )
        for t, i in enumerate(order)
    )


def fill(src_up, dst_up, allowed=None):
    """Every monotone assignment src -> dst, streamed in the fixed order.

    `allowed` optionally restricts each source point to a mask of target
    values.  Each step intersects the allowed mask with the down row of
    every placed point above it and the up row of every placed point below.
    """
    n = len(src_up)
    if n == 0:
        yield ()
        return
    if not dst_up:
        return
    if allowed is None:
        allowed = ((1 << len(dst_up)) - 1,) * n
    elif not all(allowed):
        return
    dst_down = _dual_rows(tuple(dst_up))
    plan = _plan(tuple(src_up))
    last = n - 1
    assigned = [0] * n

    def rec(t):
        i, above, below = plan[t]
        cand = allowed[i]
        for k in above:
            cand &= dst_down[assigned[k]]
        for k in below:
            cand &= dst_up[assigned[k]]
        if t == last:
            for v in iter_bits(cand):
                assigned[i] = v
                yield tuple(assigned)
            return
        for v in iter_bits(cand):
            assigned[i] = v
            yield from rec(t + 1)

    yield from rec(0)


def count_fill(src_up, dst_up, allowed):
    """The number of assignments `fill` would yield, without yielding them.

    Same visit plan; the last point contributes a popcount instead of a
    branch, which collapses the widest level.
    """
    n = len(src_up)
    if n == 0:
        return 1
    if not dst_up or not all(allowed):
        return 0
    dst_down = _dual_rows(tuple(dst_up))
    plan = _plan(tuple(src_up))
    last = n - 1
    assigned = [0] * n

    def rec(t):
        i, above, below = plan[t]
        cand = allowed[i]
        for k in above:
            cand &= dst_down[assigned[k]]
        for k in below:
            cand &= dst_up[assigned[k]]
        if t == last:
            return popcount(cand)
        total = 0
        for v in iter_bits(cand):
            assigned[i] = v
            total += rec(t + 1)
        return total

    return rec(0)


def glue(total, pairs):
    """Classes of the equivalence on range(total) generated by `pairs`.

    Returns one class id per point, numbered by first occurrence, so two
    pair lists generate the same partition exactly when the lists are equal.
    """
    parent = list(range(total))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra = find(a)
        rb = find(b)
        if ra != rb:
            parent[rb] = ra
    ids = {}
    return [ids.setdefault(find(i), len(ids)) for i in range(total)]


def isomorphism(up_a, up_b):
    """An order isomorphism a -> b as an index tuple, or None.

    Candidates are pruned by (|up|, |down|) signatures, and points with the
    fewest candidates are placed first.
    """
    n = len(up_a)
    if len(up_b) != n:
        return None
    down_a = transpose(up_a)
    down_b = transpose(up_b)
    sig_a = [(popcount(up_a[i]), popcount(down_a[i])) for i in range(n)]
    sig_b = [(popcount(up_b[j]), popcount(down_b[j])) for j in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return None
    cands = [[j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    image = [-1] * n
    used = [False] * n

    def rec(t):
        if t == n:
            return True
        i = order[t]
        for j in cands[i]:
            if used[j]:
                continue
            if all(
                (up_a[i] >> k & 1) == (up_b[j] >> image[k] & 1)
                and (up_a[k] >> i & 1) == (up_b[image[k]] >> j & 1)
                for k in order[:t]
            ):
                image[i] = j
                used[j] = True
                if rec(t + 1):
                    return True
                used[j] = False
        return False

    return tuple(image) if rec(0) else None


def certificate(rows):
    """Canonical form of a relation: the least row tuple over relabellings."""
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
