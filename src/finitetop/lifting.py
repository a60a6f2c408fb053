"""Lifting problems, pushout products, pullback powers, cell attachment.

The ambient category is finite preorders, `poset.Preorder` with
`poset.PreMap`.  A finite space is the same object presented by its
specialization order (`spaces.FiniteSpace` is a Preorder subclass), and
continuity is exactly monotonicity; `arrow` moves a space map onto plain
preorders.  Limits and colimits compute componentwise and by quotient, and
every object is exponentiable with the monotone-map object under the
pointwise order.  Working on order rows keeps the derived objects
(iterated products, map objects, pushouts of both) small where explicit
open-set families would grow exponentially.

Lifting verdicts run a square census fibre by fibre.  Every monotone map
out of the left map's target yields one commuting square it solves, and
that projection hits exactly the squares admitting a diagonal.  `_census`
streams the side with fewer candidate maps, tops or bottoms; for each
streamed top it counts the squares on that top with a memoized counted
fill and compares the count with the distinct squares the diagonals
pinned to that top solve (for a bottom, the same on the bottom's fibres).
The property holds exactly when every fibre matches, and the first fibre
that falls short decides a failure without touching the rest.  Lifting is
invariant under arrow isomorphism, so `_lifts` runs the census once per
pair of class representatives: `_arrow_class` maps a key to the
first-seen key of its class, found by the coloured `order.isomorphisms`
search among earlier representatives with equal signatures.  A witness
square for a failure is still searched on the real keys.

Pushout-product corners and pullback-power comparisons depend on their
factors only through `PreMap.key`: gluing numbers classes by first
occurrence and a power object lists its maps in fill order, never by
label.  So each is built once per pair of keys, on rows and indices alone,
by the memoized kernels `_corner` and `_power`.  Products are row-major
(`order.product_rows`), power objects list `order.maps` in fill order, and
a corner is glued by `order.glue_span`, the package's one gluing kernel,
whose first-occurrence classes it keeps.
`pushout_product`, `pullback_power` and `product_arrow` return the arrow
of the resulting key with its points labelled by position, and `braiding`
and `associator` certify their isomorphisms on `_corner`'s keys and
classes.

The associativity verdict reads less still: corner classes and
comparisons never read an up row, so `_associates` is memoized on each
arrow's sizes and mapping alone.  That key is exact, not a canonical
form: every input the verdict reads is in it.  Every cache here is
LRU-bounded, above what a default-bounds `check all` fills.

Cell attachment glues with the labelled `poset.pushout`, the same one
finite spaces and pseudotopologies use.  Its labels and the coproduct's
are sorted, as a parsed trace's are, so a trace replays after a JSON
round trip however many cells a stage attaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import (
    CarrierMismatchError,
    NonCommutingError,
    NotIsoError,
    SizeError,
    VerificationError,
)
from .order import (
    count_fill,
    fill,
    glue,
    glue_span,
    invariant,
    is_isomorphism,
    isomorphisms,
    maps,
    product_rows,
    sort_labels,
)
from .poset import FinitePoset, PreMap, Preorder, pushout
from .poset import iter_monotone_maps as iter_monotone_arrows
from .spaces import FiniteSpace

COMPLETE = "COMPLETE"
PARTIAL = "PARTIAL"

POWER_POINT_CAP = 4096
PRODUCT_POINT_CAP = 4096
FACTORIZE_POINT_CAP = 512

# Cache bounds.  A default-bounds `check all` creates about 5.4k corners
# (340 of them on discrete orders, for `_associates`), 2.1k powers and at
# most 1,531 associativity verdicts (the two-point corpus has 11 set keys,
# so 1,331 triples, plus 200 seeded).  Its 44.6k labelled census pairs
# fall into 11.4k pairs of class representatives, and `_arrow_class` sees
# 1.6k keys in at most 890 classes (seeds 0, 3, 5 and 7).  Every bound is
# above its count, so that run evicts nothing.
CORNER_CACHE_SIZE = 8192
POWER_CACHE_SIZE = 8192
CENSUS_CACHE_SIZE = 1 << 14
ARROW_CLASS_CACHE_SIZE = 4096
CLASS_TABLE_SIZE = 2048
ASSOC_CACHE_SIZE = 4096


def _plain(pre):
    """A space or poset as a plain Preorder; other preorders pass through."""
    if isinstance(pre, (FiniteSpace, FinitePoset)):
        return Preorder(pre.points, pre.up, validate=False)
    return pre


def arrow(m):
    """A map of spaces or preorders as a PreMap between plain preorders.

    A space map keeps its mapping and moves to the specialization
    preorders, so lifting reports speak of preorders throughout.
    """
    source = _plain(m.source)
    target = _plain(m.target)
    if source is m.source and target is m.target:
        return m
    return PreMap(source, target, m.mapping, validate=False)


def identity_arrow(pre):
    return PreMap(pre, pre, range(pre.n), validate=False)


def _arrow_from_key(key):
    """An arrow with the given structural key, its points labelled by position."""
    src_up, dst_up, mapping = key
    src = Preorder(tuple(map(str, range(len(src_up)))), src_up, validate=False)
    dst = Preorder(tuple(map(str, range(len(dst_up)))), dst_up, validate=False)
    return PreMap(src, dst, mapping, validate=False)


def arrows_between(objects):
    """Every monotone arrow between members of a family of preorders."""
    out = []
    for a in objects:
        for b in objects:
            out.extend(iter_monotone_arrows(a, b))
    return tuple(out)


def _restriction(i_map):
    """h -> h.i as a tuple.

    `itemgetter` returns a bare value for one index and needs at least one,
    so one point and none are their own cases.
    """
    if len(i_map) > 1:
        return itemgetter(*i_map)
    if i_map:
        (a,) = i_map
        return lambda h: (h[a],)
    return lambda h: ()


def _solved_squares(left_key, right_key):
    """The commuting squares admitting a diagonal, as a set of (top, bottom).

    A diagonal h gives the top h.i and the bottom f.h.
    """
    _, b_up, i_map = left_key
    x_up, _, f_map = right_key
    top = _restriction(i_map)
    bottom = f_map.__getitem__
    return {(top(h), tuple(map(bottom, h))) for h in fill(b_up, x_up)}


def _streams_tops(left_key, right_key):
    """Whether the tops have the smaller map bound, so squares stream by top."""
    a_up, b_up, _ = left_key
    x_up, y_up, _ = right_key
    return max(len(x_up), 1) ** len(a_up) <= max(len(y_up), 1) ** len(b_up)


def _pin_bottom(left_key, right_key, top):
    """Allowed masks for bottoms completing a given top, or None on clash."""
    _, b_up, i_map = left_key
    _, y_up, f_map = right_key
    y_full = (1 << len(y_up)) - 1
    allowed = [y_full] * len(b_up)
    for a, t in enumerate(top):
        pin = 1 << f_map[t]
        if not allowed[i_map[a]] & pin:
            return None
        allowed[i_map[a]] = pin
    return tuple(allowed)


def _fibres(right_key):
    """Per target point of the right map, the mask of its preimage."""
    _, y_up, f_map = right_key
    fibre = [0] * len(y_up)
    for x, y in enumerate(f_map):
        fibre[y] |= 1 << x
    return fibre


def _iter_squares(left_key, right_key):
    """All commuting squares of the left map against the right map.

    Streams whichever side has the smaller map bound and fills the other
    side under the pins the streamed side imposes.
    """
    a_up, b_up, i_map = left_key
    x_up, y_up, _ = right_key
    if _streams_tops(left_key, right_key):
        for top in fill(a_up, x_up):
            allowed = _pin_bottom(left_key, right_key, top)
            if allowed is None:
                continue
            for bot in fill(b_up, y_up, allowed):
                yield top, bot
    else:
        fibre = _fibres(right_key)
        for bot in fill(b_up, y_up):
            for top in fill(a_up, x_up, tuple(fibre[bot[b]] for b in i_map)):
                yield top, bot


def _fibre_solved(solved, counted):
    """Whether a fibre's diagonals solve all of its squares; raises on excess."""
    if solved > counted:
        raise VerificationError("square census undercounts its solved squares")
    return solved == counted


@lru_cache(maxsize=CENSUS_CACHE_SIZE)
def _census(left_key, right_key):
    """Whether every commuting square admits a diagonal, one fibre at a time.

    Squares stream by the side with the smaller map bound.  For each
    streamed top u (or bottom v), the fibre's squares are counted by
    `count_fill`, memoized per pin pattern, and its solved squares are the
    distinct f.h (or h.i) over the diagonals pinned to u (or to the fibres
    of v).  Diagonal projections land inside the commuting squares, so the
    property holds exactly when every fibre's two numbers match; the first
    fibre with fewer solved squares decides False.
    """
    a_up, b_up, i_map = left_key
    x_up, y_up, f_map = right_key
    counts = {}
    if _streams_tops(left_key, right_key):
        x_full = (1 << len(x_up)) - 1
        bottom = f_map.__getitem__
        for top in fill(a_up, x_up):
            allowed = _pin_bottom(left_key, right_key, top)
            if allowed is None:
                continue
            if allowed not in counts:
                counts[allowed] = count_fill(b_up, y_up, allowed)
            pins = [x_full] * len(b_up)
            for a, t in enumerate(top):
                pins[i_map[a]] &= 1 << t
            solved = {tuple(map(bottom, h)) for h in fill(b_up, x_up, tuple(pins))}
            if not _fibre_solved(len(solved), counts[allowed]):
                return False
    else:
        fibre = _fibres(right_key)
        top = _restriction(i_map)
        for bot in fill(b_up, y_up):
            allowed = tuple(fibre[bot[b]] for b in i_map)
            if allowed not in counts:
                counts[allowed] = count_fill(a_up, x_up, allowed)
            pins = tuple(fibre[v] for v in bot)
            solved = {top(h) for h in fill(b_up, x_up, pins)}
            if not _fibre_solved(len(solved), counts[allowed]):
                return False
    return True


def _arrow_rows(key):
    """The arrow as one relation: source rows, each with an edge to its image, then target rows."""
    src_up, dst_up, mapping = key
    ns = len(src_up)
    return tuple(row | 1 << (ns + y) for row, y in zip(src_up, mapping)) + tuple(
        row << ns for row in dst_up
    )


def _sides(key):
    """Colour 0 on the source points and 1 on the target points of `_arrow_rows`."""
    return (0,) * len(key[0]) + (1,) * len(key[1])


class _ClassTable:
    """First-seen representatives of arrow-isomorphism classes, by invariant.

    Holds at most `bound` representatives and is cleared when full.  That
    stays correct: a representative dropped with the table is isomorphic to
    every key it stands for, and a later key only gets a fresh one.
    """

    def __init__(self, bound):
        self.bound = bound
        self.clear()

    def clear(self):
        self.buckets = {}
        self.size = 0

    def representative(self, key):
        sig = invariant(_arrow_rows(key), _sides(key))
        for rep in self.buckets.get(sig, ()):
            if next(_arrow_isos(rep, key), None) is not None:
                return rep
        if self.size >= self.bound:
            self.clear()
        self.buckets.setdefault(sig, []).append(key)
        self.size += 1
        return key


_CLASSES = _ClassTable(CLASS_TABLE_SIZE)


@lru_cache(maxsize=ARROW_CLASS_CACHE_SIZE)
def _arrow_class(key):
    """The first-seen representative of the key's arrow-isomorphism class.

    Searches only the earlier representatives whose coloured signatures
    (sizes, and per point its side, |up| and |down| in `_arrow_rows`) match.
    """
    return _CLASSES.representative(key)


def _lifts(left_key, right_key):
    """Whether every commuting square admits a diagonal.

    Lifting is invariant under isomorphism of either arrow, so the census
    runs once per pair of class representatives.
    """
    return _census(_arrow_class(left_key), _arrow_class(right_key))


def _find_unsolved(left_key, right_key):
    """The first commuting square with no diagonal, or None."""
    solved = _solved_squares(left_key, right_key)
    for square in _iter_squares(left_key, right_key):
        if square not in solved:
            return square
    return None


class LiftingSquare:
    """A commuting square: left i, right f, top u, bottom v with f.u = v.i."""

    def __init__(self, left, right, top, bottom):
        self.left = arrow(left)
        self.right = arrow(right)
        self.top = arrow(top)
        self.bottom = arrow(bottom)
        if (
            self.top.source != self.left.source
            or self.top.target != self.right.source
            or self.bottom.source != self.left.target
            or self.bottom.target != self.right.target
        ):
            raise CarrierMismatchError("square sides do not share their corners")
        lhs = self.top.then(self.right)
        rhs = self.left.then(self.bottom)
        if lhs.mapping != rhs.mapping:
            raise NonCommutingError("the square does not commute")

    def __repr__(self):
        return f"LiftingSquare({self.left!r} vs {self.right!r})"


def enumerate_lifts(square):
    """Every diagonal h with h.i = u and f.h = v, by pinned monotone fill."""
    i, f = square.left, square.right
    u, v = square.top, square.bottom
    b = i.target
    x = f.source
    allowed = [0] * b.n
    for k in range(b.n):
        m = 0
        for t in range(x.n):
            if f.mapping[t] == v.mapping[k]:
                m |= 1 << t
        allowed[k] = m
    for a in range(i.source.n):
        allowed[i.mapping[a]] &= 1 << u.mapping[a]
    return tuple(
        PreMap(b, x, h, validate=False)
        for h in fill(b.up, x.up, tuple(allowed))
    )


@dataclass(frozen=True)
class LiftVerdict:
    """Outcome of a lifting-property check, with the first failing square."""

    holds: bool
    witness: LiftingSquare | None

    def __bool__(self):
        return self.holds


def _witness_square(left, right, square):
    top, bot = square
    return LiftingSquare(
        left,
        right,
        PreMap(left.source, right.source, top, validate=False),
        PreMap(left.target, right.target, bot, validate=False),
    )


def lifts_against(left, right):
    """Does every square of left against right admit a diagonal."""
    if _lifts(left.key, right.key):
        return LiftVerdict(True, None)
    miss = _find_unsolved(left.key, right.key)
    if miss is None:
        raise VerificationError("a failed census produced no witness square")
    return LiftVerdict(False, _witness_square(left, right, miss))


def rlp(f, generators):
    """f has the right lifting property against every generator."""
    for s in generators:
        verdict = lifts_against(s, f)
        if not verdict:
            return verdict
    return LiftVerdict(True, None)


def _check_products(*sizes):
    """Refuse, in order, the first pair of sizes whose product is over the cap."""
    for m, n in sizes:
        if m * n > PRODUCT_POINT_CAP:
            raise SizeError(f"product exceeds {PRODUCT_POINT_CAP} points")


def product_arrow(f, g):
    """The componentwise map f x g between the product preorders, row-major."""
    (x_up, y_up, f_map), (a_up, b_up, g_map) = f.key, g.key
    nb = len(b_up)
    _check_products((len(x_up), len(a_up)), (len(y_up), nb))
    mapping = tuple(y * nb + b for y in f_map for b in g_map)
    return _arrow_from_key((product_rows(x_up, a_up), product_rows(y_up, b_up), mapping))


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


def _descend(cls, values, message):
    """Per class 0, 1, ... of `cls`, the value all its points share.

    `values` runs over the same points as `cls`; a class whose points
    disagree raises VerificationError with `message`.
    """
    out = {}
    for k, v in zip(cls, values):
        if out.setdefault(k, v) != v:
            raise VerificationError(message)
    return tuple(out[k] for k in range(len(out)))


@lru_cache(maxsize=CORNER_CACHE_SIZE)
def _corner(f_key, g_key):
    """The pushout-product of two arrow keys: its key and its corner classes.

    The corner glues X x B (side 0) and Y x A (side 1) over X x A, with
    products numbered row-major; the comparison sends each class into
    Y x B and must agree on all its members.  X x A is never built, but it
    is refused over the product cap like the other three.
    """
    x_up, y_up, f_map = f_key
    a_up, b_up, g_map = g_key
    nx, ny, na, nb = len(x_up), len(y_up), len(a_up), len(b_up)
    _check_products((nx, nb), (ny, na), (nx, na), (ny, nb))
    rows, cls = glue_span(
        product_rows(x_up, b_up),
        product_rows(y_up, a_up),
        [x * nb + b for x in range(nx) for b in g_map],
        [y * na + a for y in f_map for a in range(na)],
    )
    mapping = _descend(
        cls,
        [y * nb + b for y in f_map for b in range(nb)]
        + [y * nb + b for y in range(ny) for b in g_map],
        "pushout-product comparison is not well defined",
    )
    classes = [[] for _ in rows]
    for p, k in enumerate(cls):
        classes[k].append((0, p) if p < nx * nb else (1, p - nx * nb))
    return (rows, product_rows(y_up, b_up), mapping), tuple(map(tuple, classes))


def pushout_product(f, g):
    """The induced map from X x B glued with Y x A over X x A into Y x B."""
    key, _ = _corner(f.key, g.key)
    return _arrow_from_key(key)


def _capped_maps(src_up, dst_up):
    """The points of the map object dst^src, refused over the cap."""
    mappings = maps(src_up, dst_up)
    if len(mappings) > POWER_POINT_CAP:
        raise SizeError(f"map object exceeds {POWER_POINT_CAP} points")
    return mappings


def _pointwise_rows(base_up, mappings):
    """Rows of the pointwise order on maps into the base."""
    rows = []
    for m in mappings:
        row = 0
        for t, m2 in enumerate(mappings):
            if all(base_up[a] >> b & 1 for a, b in zip(m, m2)):
                row |= 1 << t
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _power(f_key, g_key):
    """The pullback-power of two arrow keys: its key and its apex pairs.

    The apex point (i, j) pairs the i-th map of X^A with the j-th map of
    Y^B that agree in Y^A, maps numbered in fill order.
    """
    x_up, y_up, f_map = f_key
    a_up, b_up, g_map = g_key
    xb = _capped_maps(b_up, x_up)
    xa = _capped_maps(a_up, x_up)
    yb = _capped_maps(b_up, y_up)
    xa_up = _pointwise_rows(x_up, xa)
    yb_up = _pointwise_rows(y_up, yb)
    restricted = {}
    for j, delta in enumerate(yb):
        restricted.setdefault(tuple(delta[b] for b in g_map), []).append(j)
    pairs = []
    for i, alpha in enumerate(xa):
        for j in restricted.get(tuple(f_map[v] for v in alpha), ()):
            pairs.append((i, j))
    rows = []
    for i, j in pairs:
        row = 0
        for k, (i2, j2) in enumerate(pairs):
            if xa_up[i] >> i2 & 1 and yb_up[j] >> j2 & 1:
                row |= 1 << k
        rows.append(row)
    pos = {(xa[i], yb[j]): k for k, (i, j) in enumerate(pairs)}
    mapping = tuple(
        pos[(tuple(beta[b] for b in g_map), tuple(f_map[v] for v in beta))]
        for beta in xb
    )
    return (_pointwise_rows(x_up, xb), tuple(rows), mapping), tuple(pairs)


def pullback_power(f, g):
    """The induced map X^B -> X^A x_{Y^A} Y^B for f: X -> Y and g: A -> B.

    The arrow of `_power`'s key; the bench tracer wraps it by name.
    """
    key, _ = _power(f.key, g.key)
    return _arrow_from_key(key)


def lifting_adjunction_check(f, g, i):
    """The two lifting verdicts of the pushout-product adjunction agree.

    Compares (f pushout-product i) lifting on the left against g with f
    lifting on the left against (g pullback-power i).
    """
    corner_key, _ = _corner(f.key, i.key)
    power_key, _ = _power(g.key, i.key)
    return _lifts(corner_key, g.key) == _lifts(f.key, power_key)


@dataclass(frozen=True)
class ArrowIso:
    """An isomorphism in the arrow category: isos on sources and targets."""

    top: PreMap
    bottom: PreMap


def _arrow_isos(key1, key2):
    """Every arrow isomorphism between two structural keys, as (top, bottom).

    top and bottom are order isomorphisms on the sources and on the
    targets, and bottom after the first arrow is the second after top:
    exactly the isomorphisms of `_arrow_rows` that keep the sides.
    """
    ns = len(key1[0])
    colours = (_sides(key1), _sides(key2))
    for iso in isomorphisms(_arrow_rows(key1), _arrow_rows(key2), colours):
        yield iso[:ns], tuple(v - ns for v in iso[ns:])


def _iso_between(m1, m2, top, bottom):
    """The ArrowIso m1 -> m2 with the given source and target mappings."""
    return ArrowIso(
        PreMap(m1.source, m2.source, top, validate=False),
        PreMap(m1.target, m2.target, bottom, validate=False),
    )


def arrow_iso(m1, m2):
    """An arrow-category isomorphism m1 -> m2, or None, by exhaustive search."""
    m1 = arrow(m1)
    m2 = arrow(m2)
    for top, bottom in _arrow_isos(m1.key, m2.key):
        return _iso_between(m1, m2, top, bottom)
    return None


def braiding(f, g):
    """The swap isomorphism between f pushout-product g and g pushout-product f.

    The mediator transposes pair coordinates on both the glued corner and
    the target product; the certificate checks class structure, order
    transfer in both directions, and commutation with the comparisons.
    """
    key1, classes1 = _corner(f.key, g.key)
    key2, classes2 = _corner(g.key, f.key)
    nx, ny = len(f.key[0]), len(f.key[1])
    na, nb = len(g.key[0]), len(g.key[1])
    cls2 = {member: k for k, members in enumerate(classes2) for member in members}
    top = []
    for members in classes1:
        targets = set()
        for side, idx in members:
            if side == 0:
                x, b = divmod(idx, nb)
                targets.add(cls2[(1, b * nx + x)])
            else:
                y, a = divmod(idx, na)
                targets.add(cls2[(0, a * ny + y)])
        if len(targets) != 1:
            raise NotIsoError("the swap does not respect the glued classes")
        top.append(targets.pop())
    (rows1, yb_up, map1), (rows2, by_up, map2) = key1, key2
    if not is_isomorphism(rows1, rows2, top):
        raise NotIsoError("the swap is not an order isomorphism on the corner")
    bottom = [b * ny + y for y in range(ny) for b in range(nb)]
    if not is_isomorphism(yb_up, by_up, bottom):
        raise NotIsoError("the swap is not an order isomorphism on the target")
    if any(bottom[v] != map2[t] for v, t in zip(map1, top)):
        raise NotIsoError("the swap does not commute with the comparisons")
    return _iso_between(_arrow_from_key(key1), _arrow_from_key(key2), top, bottom)


def _expand_lhs(classes, inner, na, nb, na2, nb2):
    """Flat coordinates per corner class of (f x^ g) x^ h.

    `inner` holds the classes of f x^ g; g has na source and nb target
    points, h has na2 and nb2.
    """
    out = []
    for members in classes:
        flats = []
        for side, idx in members:
            if side == 0:
                p1, b2 = divmod(idx, nb2)
                for iside, iidx in inner[p1]:
                    if iside == 0:
                        x, b = divmod(iidx, nb)
                        flats.append((0, x, b, b2))
                    else:
                        y, a = divmod(iidx, na)
                        flats.append((1, y, a, b2))
            else:
                yb, a2 = divmod(idx, na2)
                y, b = divmod(yb, nb)
                flats.append((2, y, b, a2))
        out.append(flats)
    return out


def _expand_rhs(classes, inner, nb, na2, nb2):
    """Flat coordinates per corner class of f x^ (g x^ h).

    `inner` holds the classes of g x^ h; g has nb target points, h has na2
    source and nb2 target points.
    """
    out = []
    for members in classes:
        flats = []
        for side, idx in members:
            if side == 0:
                x, bb2 = divmod(idx, nb * nb2)
                b, b2 = divmod(bb2, nb2)
                flats.append((0, x, b, b2))
            else:
                y, p2 = divmod(idx, len(inner))
                for iside, iidx in inner[p2]:
                    if iside == 0:
                        a, b2 = divmod(iidx, nb2)
                        flats.append((1, y, a, b2))
                    else:
                        b, a2 = divmod(iidx, na2)
                        flats.append((2, y, b, a2))
        out.append(flats)
    return out


def associator(f, g, h):
    """The re-association isomorphism (f x^ g) x^ h -> f x^ (g x^ h).

    Both corners glue the same three product blocks, so the mediator is
    induced by the identity on block coordinates; the certificate checks
    the partitions agree, the order transfers both ways, and the
    comparisons commute through the row-major index identification of the
    two target products.
    """
    fg_key, fg_classes = _corner(f.key, g.key)
    lhs_key, lhs_classes = _corner(fg_key, h.key)
    gh_key, gh_classes = _corner(g.key, h.key)
    rhs_key, rhs_classes = _corner(f.key, gh_key)
    na, nb = len(g.key[0]), len(g.key[1])
    na2, nb2 = len(h.key[0]), len(h.key[1])
    rhs_of = {
        fl: k
        for k, flats in enumerate(_expand_rhs(rhs_classes, gh_classes, nb, na2, nb2))
        for fl in flats
    }
    top = []
    for flats in _expand_lhs(lhs_classes, fg_classes, na, nb, na2, nb2):
        targets = {rhs_of[fl] for fl in flats}
        if len(targets) != 1:
            raise NotIsoError("re-association does not respect the glued classes")
        top.append(targets.pop())
    (lhs_rows, lhs_target, lhs_map), (rhs_rows, rhs_target, rhs_map) = lhs_key, rhs_key
    if not is_isomorphism(lhs_rows, rhs_rows, top):
        raise NotIsoError("re-association is not an order isomorphism on the corner")
    if lhs_target != rhs_target:
        raise VerificationError("the target products disagree as orders")
    if any(v != rhs_map[t] for v, t in zip(lhs_map, top)):
        raise NotIsoError("re-association does not commute with the comparisons")
    return _iso_between(
        _arrow_from_key(lhs_key), _arrow_from_key(rhs_key), top, range(len(lhs_target))
    )


def _discrete_key(set_key):
    """The structural key of the arrow with the given set key on discrete orders."""
    ns, nt, mapping = set_key
    return (tuple(1 << i for i in range(ns)), tuple(1 << i for i in range(nt)), mapping)


def associates(f, g, h):
    """Whether (f x^ g) x^ h and f x^ (g x^ h) agree, by `_associates`.

    The verdict reads the three arrows' sizes and mappings only, so it is
    memoized on those, the set keys (source size, target size, mapping).
    """
    return _associates(
        (f.source.n, f.target.n, f.mapping),
        (g.source.n, g.target.n, g.mapping),
        (h.source.n, h.target.n, h.mapping),
    )


@lru_cache(maxsize=ASSOC_CACHE_SIZE)
def _associates(f_set, g_set, h_set):
    """The associativity verdict on set keys, by comparing glued partitions.

    Builds no apex objects: the three product blocks are indexed flat, the
    two bracketings contribute their gluing relations through the stage-one
    corners, and the verdict is that the partitions and the induced
    comparison values coincide.  Corner classes and comparisons come from
    `order.glue_span`'s index arithmetic and the mappings, never from an up row,
    so `_corner` yields the same ones on discrete orders as on any rows, and
    still raises on an ill-defined comparison.  The key is thus exactly what
    the verdict reads.  Unlike a memo on isomorphism classes, it leaves out
    no labelling or order that a verdict could depend on, so it cannot hide
    a labelling bug behind a representative.
    """
    f_d, g_d, h_d = map(_discrete_key, (f_set, g_set, h_set))
    (_, _, map1), classes1 = _corner(f_d, g_d)
    (_, _, map2), classes2 = _corner(g_d, h_d)
    nx, ny, f_map = f_set
    na, nb, g_map = g_set
    na2, nb2, h_map = h_set
    sz0 = nx * nb * nb2
    sz1 = ny * na * nb2
    base2 = sz0 + sz1
    total = base2 + ny * nb * na2

    def flat(tag, i, j, k):
        if tag == 0:
            return (i * nb + j) * nb2 + k
        if tag == 1:
            return sz0 + (i * na + j) * nb2 + k
        return base2 + (i * nb + j) * na2 + k

    lhs_rel = []
    for p1, members in enumerate(classes1):
        first = members[0]
        for b2 in range(nb2):
            base = None
            for side, idx in members:
                if side == 0:
                    x, b = divmod(idx, nb)
                    pt = flat(0, x, b, b2)
                else:
                    y, a = divmod(idx, na)
                    pt = flat(1, y, a, b2)
                if base is None:
                    base = pt
                else:
                    lhs_rel.append((base, pt))
        y, b = divmod(map1[p1], nb)
        side, idx = first
        for a2 in range(na2):
            if side == 0:
                x0, b0 = divmod(idx, nb)
                pt = flat(0, x0, b0, h_map[a2])
            else:
                y0, a0 = divmod(idx, na)
                pt = flat(1, y0, a0, h_map[a2])
            lhs_rel.append((pt, flat(2, y, b, a2)))
    rhs_rel = []
    for p2, members in enumerate(classes2):
        first = members[0]
        for y in range(ny):
            base = None
            for side, idx in members:
                if side == 0:
                    a, b2 = divmod(idx, nb2)
                    pt = flat(1, y, a, b2)
                else:
                    b, a2 = divmod(idx, na2)
                    pt = flat(2, y, b, a2)
                if base is None:
                    base = pt
                else:
                    rhs_rel.append((base, pt))
        b, b2 = divmod(map2[p2], nb2)
        side, idx = first
        for x in range(nx):
            if side == 0:
                a0, b20 = divmod(idx, nb2)
                pt = flat(1, f_map[x], a0, b20)
            else:
                b0, a20 = divmod(idx, na2)
                pt = flat(2, f_map[x], b0, a20)
            rhs_rel.append((flat(0, x, b, b2), pt))
    classes = glue(total, lhs_rel)
    if classes != glue(total, rhs_rel):
        return False
    values = {}
    for p in range(total):
        if p < sz0:
            i, rest = divmod(p, nb * nb2)
            j, k = divmod(rest, nb2)
            val = (f_map[i], j, k)
        elif p < base2:
            i, rest = divmod(p - sz0, na * nb2)
            j, k = divmod(rest, nb2)
            val = (i, g_map[j], k)
        else:
            i, rest = divmod(p - base2, nb * na2)
            j, k = divmod(rest, na2)
            val = (i, j, h_map[k])
        if values.setdefault(classes[p], val) != val:
            return False
    return True


@dataclass(frozen=True)
class CellStage:
    """One attachment step: the problems glued in and the resulting factor."""

    problems: tuple
    attached: Preorder
    step: PreMap
    cells: PreMap
    right: PreMap


@dataclass(frozen=True)
class FactorizationTrace:
    """A bounded factorization f = right . left through recorded cell stages."""

    original: PreMap
    stages: tuple
    left: PreMap
    right: PreMap
    verdict: str


@lru_cache(maxsize=512)
def _arrow_autos(key):
    """Automorphism pairs of a generator arrow, for problem deduplication."""
    return tuple(_arrow_isos(key, key))


def _orbit_rep(square, autos):
    top, bot = square
    best = square
    for alpha, beta in autos:
        cand = (tuple(top[a] for a in alpha), tuple(bot[b] for b in beta))
        if cand < best:
            best = cand
    return best


def _unsolved_problems(generators, right):
    """Unsolved squares per generator, one per generator-automorphism orbit.

    Solvedness is orbit-invariant (compose a filler with the automorphism
    pair), and attaching one cell per orbit solves the whole orbit at the
    next census, so the representative is canonical and lossless.
    """
    out = []
    for t, s in enumerate(generators):
        autos = _arrow_autos(s.key)
        solved = _solved_squares(s.key, right.key)
        seen = set()
        for square in _iter_squares(s.key, right.key):
            if square in solved:
                continue
            rep = _orbit_rep(square, autos) if len(autos) > 1 else square
            if rep not in seen:
                seen.add(rep)
                out.append((t, rep[0], rep[1]))
    return tuple(out)


def cell_attach(right, generators, problems):
    """Glue every recorded problem's cell onto the source of the right factor.

    One step of the factorization: the pushout of the right factor's
    source and the coproduct of the generator targets, glued along the
    problem tops and the generators, attaches the cells, and the problem
    bottoms extend the right factor over the new points.
    """
    sigb, inj_b = coproduct_pre(
        [generators[t].target for t, _, _ in problems],
        [str(k) for k in range(len(problems))],
    )
    sigma = []
    sig_s = []
    bottoms = [0] * sigb.n
    for (t, top, bottom), inj in zip(problems, inj_b):
        sigma.extend(top)
        sig_s.extend(inj.mapping[v] for v in generators[t].mapping)
        for v, p in enumerate(inj.mapping):
            bottoms[p] = bottom[v]
    points, rows, step, cells = pushout(right.source, sigb, sigma, sig_s)
    apex = Preorder(points, rows, validate=False)
    new_right = _descend(
        step + cells,
        right.mapping + tuple(bottoms),
        "the extended right factor is not well defined",
    )
    return CellStage(
        tuple(problems),
        apex,
        PreMap(right.source, apex, step, validate=False),
        PreMap(sigb, apex, cells, validate=False),
        PreMap(apex, right.target, new_right, validate=False),
    )


def bounded_factorize(f, generators, steps):
    """Factor f as a cell complex followed by a candidate rlp map.

    Each stage attaches every currently unsolved lifting problem of the
    generators against the right factor.  A run with no problems left is
    COMPLETE; hitting the step bound with problems remaining is PARTIAL.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    f = arrow(f)
    generators = tuple(arrow(s) for s in generators)
    left = identity_arrow(f.source)
    right = f
    stages = []
    while True:
        problems = _unsolved_problems(generators, right)
        if not problems:
            verdict = COMPLETE
            break
        if len(stages) >= steps:
            verdict = PARTIAL
            break
        stage = cell_attach(right, generators, problems)
        if stage.attached.n > FACTORIZE_POINT_CAP:
            raise SizeError(f"factorization grew past {FACTORIZE_POINT_CAP} points")
        left = left.then(stage.step)
        right = stage.right
        stages.append(stage)
    trace = FactorizationTrace(f, tuple(stages), left, right, verdict)
    if left.then(right) != f:
        raise VerificationError("the factorization does not compose to the map")
    return trace


def replay_trace(trace, generators):
    """Re-derive every stage of a trace and confirm the recorded data.

    The recorded problems must be exactly the unsolved squares at each
    stage, the pushouts must rebuild identically, and the final verdict
    must match a fresh lifting sweep.
    """
    generators = tuple(arrow(s) for s in generators)
    right = trace.original
    left = identity_arrow(trace.original.source)
    for stage in trace.stages:
        if _unsolved_problems(generators, right) != stage.problems:
            raise VerificationError("recorded problems differ from the replayed stage")
        redo = cell_attach(right, generators, stage.problems)
        if redo != stage:
            raise VerificationError("a replayed stage differs from the record")
        left = left.then(redo.step)
        right = redo.right
    if left != trace.left or right != trace.right:
        raise VerificationError("the replayed factors differ from the record")
    remaining = _unsolved_problems(generators, right)
    if trace.verdict == COMPLETE and remaining:
        raise VerificationError("a complete trace replays with problems left")
    if trace.verdict == PARTIAL and not remaining:
        raise VerificationError("a partial trace replays to a complete one")
    return True
