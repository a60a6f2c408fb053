"""Kernels on order rows: transpose, products, up-sets, maps, glue, isomorphisms.

Posets, finite spaces (through their specialization preorders) and the
preorders of the lifting layer all present an order as reflexive,
transitive up rows: bit j of `up[i]` is set when i <= j.  The functions
here take such rows directly, so one mechanism serves every order type,
antisymmetric or not.  `upsets` lists the up-sets of such rows, which are
the opens of a finite space and, on the dual rows, the downsets of a poset.
`fill` and `isomorphisms` need only reflexive rows, so they serve the
limit rows of a pseudotopology too.

Visit order of the monotone fill is fixed: source points are placed in
ascending `(-popcount(up[i]), i)`, and the values for each point ascend.
Assignments therefore come out in a fixed sequence.  That sequence is part
of the observable output: power-object points are numbered by it, arrow
sampling indexes into it, and report bytes depend on both.  Changing it
changes reports.  `maps` is that sequence as a tuple, LRU-cached on the
row tuples; every list of maps between two orders reads it.

The visit plan of a source and the dual rows of a target depend on the rows
alone, so `fill` reads both from bounded LRU caches keyed on the row tuples
(`_plan` and `_dual_rows`); a run over a fixed corpus builds each once.
`PLAN_CACHE_SIZE` bounds each cache.

`glue_span` is the one pushout kernel: it glues B and C along the images
of a span B <- A -> C and closes the two image orders, on rows and
indices alone.  `poset.pushout` labels its classes.  Its closure half,
`quotient_rows`, orders any partition of a relation: the lifting layer
numbers a pushout-product corner's classes without rows and orders them
with it.  `inclusion_rows` orders a family of sets by inclusion, as the
opens of a space, the downsets of a poset and the elements of a frame
coproduct or product are; row a is one AND per point of a, over the
bit-sliced column of members holding that point, the family's
`transpose`.  `gather` is the OR twin of that AND: the union of the columns
named by a row's bits, which `pointwise_rows` (the pointwise order on a list
of maps) and the frame layer's adjoints are bit-sliced with; `fibres` gives
the columns of a map, the points over each value.  `restrict` gives the
induced order on a subset, and `split` cuts a map at its target's connected
components, for the lifting census.

`isomorphisms` is the one isomorphism search: it yields every isomorphism
between two relations, or only those keeping given point colours (the
lifting layer searches arrows as one relation with the sources and the
targets coloured apart), and `representatives` dedupes a corpus with it.
`invariant` is the sorted signature list it prunes by, and
`is_isomorphism` checks a mapping built some other way.
"""

from __future__ import annotations

from functools import lru_cache
from .bits import popcount

# Entries per cache.  `check all` at the default bounds needs about 500
# distinct plans, 200 dual-row tuples and 200 map lists, so nothing is
# evicted there.
PLAN_CACHE_SIZE = 2048
MAPS_CACHE_SIZE = 1024


def transpose(up):
    """The dual rows: bit i of row j is set when bit j of row i is.

    One row per column up to the highest bit: of a family of sets, the
    members holding each point.
    """
    rows = [0] * max(up, default=0).bit_length()
    for i, r in enumerate(up):
        bit = 1 << i
        while r:
            low = r & -r
            rows[low.bit_length() - 1] |= bit
            r ^= low
    return tuple(rows)


_dual_rows = lru_cache(maxsize=PLAN_CACHE_SIZE)(transpose)


def gather(row, columns):
    """The OR of `columns[p]` over the bits p of `row`."""
    out = 0
    while row:
        low = row & -row
        out |= columns[low.bit_length() - 1]
        row ^= low
    return out


def fibres(mapping, n):
    """Per point v of range(n), the mask of the points x with mapping[x] == v."""
    out = [0] * n
    for x, v in enumerate(mapping):
        out[v] |= 1 << x
    return out


def restrict(up, mask):
    """Rows of the induced order on the points of `mask`, renumbered ascending.

    Point p of the mask becomes the number of mask points below it.
    """
    rows = []
    rest = mask
    while rest:
        low = rest & -rest
        row = up[low.bit_length() - 1] & mask
        r = 0
        while row:
            bit = row & -row
            r |= 1 << popcount(mask & (bit - 1))
            row ^= bit
        rows.append(r)
        rest ^= low
    return tuple(rows)


def sort_labels(labels, rows):
    """The labels in sorted order, with the rows renumbered to match."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    if order == list(range(len(labels))):
        return list(labels), list(rows)
    pos = [0] * len(labels)
    for t, i in enumerate(order):
        pos[i] = t
    out = [0] * len(labels)
    for i, r in enumerate(rows):
        m = 0
        while r:
            low = r & -r
            m |= 1 << pos[low.bit_length() - 1]
            r ^= low
        out[pos[i]] = m
    return [labels[i] for i in order], out


def product_rows(left, right):
    """Rows of the product order on row-major pairs: (i, j) at i * len(right) + j."""
    nr = len(right)
    rows = []
    for row in left:
        shifts = []
        while row:
            low = row & -row
            shifts.append((low.bit_length() - 1) * nr)
            row ^= low
        for r in right:
            m = 0
            for s in shifts:
                m |= r << s
            rows.append(m)
    return tuple(rows)


def upsets(up, cap=None):
    """Every up-set of the rows, sorted by (size, mask).

    Each step takes the lowest undecided point and either excludes it with
    everything below it or includes it with everything above it; both
    branches stay consistent, so every leaf is a distinct up-set and no
    branch dies.  With a `cap`, enumeration stops at cap + 1 up-sets and
    returns them unsorted, so a caller tells "too many" by the length.
    """
    down = transpose(up)
    full = (1 << len(up)) - 1
    out = []
    stack = [(0, 0)]
    while stack:
        inc, exc = stack.pop()
        free = full & ~(inc | exc)
        if not free:
            out.append(inc)
            if cap is not None and len(out) > cap:
                return tuple(out)
            continue
        i = (free & -free).bit_length() - 1
        stack.append((inc | up[i], exc))
        stack.append((inc, exc | down[i]))
    out.sort(key=lambda m: (popcount(m), m))
    return tuple(out)


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
    One loop walks the steps: `left[t]` holds the candidates of step t not
    yet tried, and the last step yields one assignment per candidate.
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
    plan = _plan(tuple(src_up))
    dst_down = _dual_rows(tuple(dst_up))
    assigned = [0] * n
    left = [0] * n
    last = n - 1
    t = 0
    while True:
        i, above, below = plan[t]
        cand = allowed[i]
        for k in above:
            cand &= dst_down[assigned[k]]
        for k in below:
            cand &= dst_up[assigned[k]]
        if t == last:
            while cand:
                low = cand & -cand
                assigned[i] = low.bit_length() - 1
                yield tuple(assigned)
                cand ^= low
        while not cand:
            if t == 0:
                return
            t -= 1
            cand = left[t]
        low = cand & -cand
        left[t] = cand ^ low
        assigned[plan[t][0]] = low.bit_length() - 1
        t += 1


@lru_cache(maxsize=MAPS_CACHE_SIZE)
def maps(src_up, dst_up):
    """Every assignment `fill` yields between the row tuples, as one tuple."""
    return tuple(fill(src_up, dst_up))


def pointwise_rows(base_up, mappings):
    """Rows of the pointwise order on maps into the base, bit-sliced.

    Map m is below map t when t[a] is in the up row of m[a] at every
    position a.  Per position a and value u, the maps t with t[a] above u
    are the `gather` of `base_up[u]` over the columns "maps t with t[a] =
    v"; row m is the AND of those masks over its positions.
    """
    everyone = (1 << len(mappings)) - 1
    above = []
    for a in range(len(mappings[0]) if mappings else 0):
        columns = [0] * len(base_up)
        for t, m in enumerate(mappings):
            columns[m[a]] |= 1 << t
        above.append([gather(up, columns) for up in base_up])
    rows = []
    for m in mappings:
        row = everyone
        for masks, u in zip(above, m):
            row &= masks[u]
        rows.append(row)
    return tuple(rows)


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


def split(src_up, dst_up, mapping):
    """The map cut at its target's connected components, or () if there are under two.

    Part k maps the preimage of the k-th component, by least point, into
    it, as (source rows, target rows, mapping), both `restrict`ed.  Each
    point's up row, with the point, joins every component it meets, so the
    cost follows the points and the components, not the relation's pairs.
    """
    comps = []
    for b, row in enumerate(dst_up):
        joined = row | 1 << b
        rest = []
        for comp in comps:
            if comp & joined:
                joined |= comp
            else:
                rest.append(comp)
        rest.append(joined)
        comps = rest
    if len(comps) < 2:
        return ()
    fibre = fibres(mapping, len(dst_up))
    return [
        (
            restrict(src_up, gather(comp, fibre)),
            restrict(dst_up, comp),
            tuple(popcount(comp & ((1 << b) - 1)) for b in mapping if comp >> b & 1),
        )
        for comp in sorted(comps, key=lambda c: c & -c)
    ]


def transitive_closure(rows):
    """In-place Warshall closure of successor bit rows."""
    n = len(rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def quotient_rows(cls, up):
    """Rows of the quotient of a relation by the classes 0, 1, ... of `cls`.

    Class k is below class k2 when the transitive closure of the images of
    the rows relates them; `cls` gives the class of every point of `up`.
    """
    rows = [1 << k for k in range(max(cls, default=-1) + 1)]
    for i, row in enumerate(up):
        m = 0
        while row:
            low = row & -row
            m |= 1 << cls[low.bit_length() - 1]
            row ^= low
        rows[cls[i]] |= m
    return tuple(transitive_closure(rows))


def glue_span(b_up, c_up, f_map, g_map):
    """Label-free pushout of B <- A -> C, given by rows and the two images of A.

    Points are B's then C's, glued by `glue` along the pairs (f(a), g(a)),
    so classes are numbered by first occurrence.  Returns the apex rows,
    the `quotient_rows` of B and C side by side, and the class of every
    point of B and then of C.
    """
    nb = len(b_up)
    cls = glue(nb + len(c_up), [(fa, nb + ga) for fa, ga in zip(f_map, g_map)])
    return quotient_rows(cls, tuple(b_up) + tuple(r << nb for r in c_up)), cls


def inclusion_rows(masks, holders=None):
    """Rows of a family of sets ordered by inclusion, in the family's order.

    Bit-sliced: row a is the AND of `holders[p]` over the points p of a,
    the members that hold every point of a.  A caller that already has
    `transpose(masks)`, the column of holders of each point, passes it as
    `holders`.
    """
    if holders is None:
        holders = transpose(masks)
    everyone = (1 << len(masks)) - 1
    rows = []
    for a in masks:
        row = everyone
        while a:
            low = a & -a
            row &= holders[low.bit_length() - 1]
            a ^= low
        rows.append(row)
    return tuple(rows)


def _signatures(up, colours=None):
    """Per point, its colour and the sizes of its up and down rows; an isomorphism keeps them."""
    if colours is None:
        colours = (0,) * len(up)
    return [(c, popcount(u), popcount(d)) for c, u, d in zip(colours, up, transpose(up))]


def invariant(up, colours=None):
    """The sorted signatures: equal for isomorphic relations under the same colouring."""
    return tuple(sorted(_signatures(up, colours)))


def isomorphisms(up_a, up_b, colours=None):
    """Every isomorphism a -> b of reflexive relations, as index tuples.

    An isomorphism is a bijection that preserves and reflects the rows.
    `colours`, a pair of per-point colour sequences for a and b, restricts
    it to maps that keep every point's colour.  Candidates are pruned by
    (colour, |up|, |down|) signatures, points with the fewest candidates are
    placed first, and each placement is checked against every point placed
    before it.  Each isomorphism is yielded once; with none, nothing is.
    """
    n = len(up_a)
    if len(up_b) != n:
        return
    colours_a, colours_b = colours or (None, None)
    sig_a = _signatures(up_a, colours_a)
    sig_b = _signatures(up_b, colours_b)
    if sorted(sig_a) != sorted(sig_b):
        return
    cands = [[j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    yield from _extend_iso(0, order, cands, up_a, up_b, [-1] * n, [False] * n)


# The recursion of `isomorphisms` is a module-level function: a nested
# function that calls itself holds itself through its closure cell, so every
# call would leave a cycle for the garbage collector.


def _extend_iso(t, order, cands, up_a, up_b, image, used):
    """The isomorphisms extending the partial one on order[:t]."""
    if t == len(order):
        yield tuple(image)
        return
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
            yield from _extend_iso(t + 1, order, cands, up_a, up_b, image, used)
            used[j] = False


def is_isomorphism(up_a, up_b, mapping):
    """Whether `mapping` is a bijection a -> b carrying each row onto its image's row."""
    n = len(up_a)
    if len(up_b) != n or len(mapping) != n or len(set(mapping)) != n:
        return False
    for i, row in enumerate(up_a):
        moved = 0
        while row:
            low = row & -row
            moved |= 1 << mapping[low.bit_length() - 1]
            row ^= low
        if moved != up_b[mapping[i]]:
            return False
    return True


def representatives(relations):
    """The first relation of each isomorphism class, in order of appearance.

    A relation is searched with `isomorphisms` only against the earlier
    representatives that share its sorted (|up|, |down|) signature.
    """
    buckets = {}
    out = []
    for rows in relations:
        rows = tuple(rows)
        bucket = buckets.setdefault(invariant(rows), [])
        if all(next(isomorphisms(rep, rows), None) is None for rep in bucket):
            bucket.append(rows)
            out.append(rows)
    return out
