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

Lifting verdicts ask each commuting square for one diagonal.  `_squares`
is the one walk over squares: it streams the side with fewer candidate
maps in `fill` order, and per streamed top (or bottom) the other side,
pinned so the square commutes.  A square (u, v) has a diagonal exactly
when `fill` yields one under `_diagonal_pins`, the fibre of v(b) at each
point b narrowed to u(a) where b = i(a).  `_unsolved` yields the squares
that fail this test, for a witness and for cell attachment; `_census` is
whether it yields none, and `enumerate_lifts` lists every diagonal under
the same pins.  Three exact lemmas decide a census before the walk: an
isomorphism on either side lifts, a bijection lifts against a map out of
an indiscrete preorder, and a left arrow with a disconnected target is
cut by `order.split` into one part per component, each asked in turn.
Lifting is invariant under arrow isomorphism, so the census runs once
per pair of class representatives: `_arrow_class` maps a key to the
first-seen key of its class, found by the coloured `order.isomorphisms`
search among earlier representatives with equal signatures, and `_lifts`
asks the census about the two classes.  `_facts` holds what the lemmas
read of one key, so each fact is computed once per representative, not
once per pair; `_parts` holds the `order.split` parts of a left key,
cut only when the lemmas leave one of its pairs undecided.  A witness square for a failure is still searched on the
real keys, by the walk alone.

The exhaustive sweeps are tables.  `adjunction_failures` builds each
corner and power of its lists once, numbers the classes of the arrows,
corners and powers, and fills `left[corner class][g]` and
`right[power class][f]` from the census, one run per pair of classes; a
triple then compares two entries.  `associativity_failures` numbers set
keys and asks `_associates` once per distinct triple of them.  The
per-triple checks `lifting_adjunction_check` and `associates` are the
tables on singletons.

Pushout-product corners and pullback-power comparisons depend on their
factors only through `PreMap.key`: gluing numbers classes by first
occurrence and a power object lists its maps in fill order, never by
label.  So each is built once per pair of keys, on rows and indices alone,
by the memoized kernels `_corner` and `_power`.  Products are row-major
(`order.product_rows`), power objects list `order.maps` in fill order,
each with its pointwise rows, once per pair of row tuples (`_map_object`),
and a corner's classes are glued by `order.glue` and ordered by
`order.quotient_rows`, the two halves of `order.glue_span`.
`pushout_product`, `pullback_power` and `product_arrow` return the arrow
of the resulting key with its points labelled by position.

A corner is its class array: classes and comparisons never read an up
row, so `_glued` builds them on set keys (source size, target size,
mapping) as `cls`, the class of every point of X x B and then of Y x A,
and `_corner` adds only the rows; `_corner` and `_power` memoize their
keys and nothing more.  `_descend` is the one kernel that turns a point
map into a class map.  `braiding` descends the coordinate swap, and
`_reassociate`, the one comparison of a corner's two bracketings, each
block point's class on the left to its class on the right; either map
must be a bijection commuting with the comparisons.  The verdict
`_associates` is that map found, memoized on the three set keys, an
exact key and not a canonical form; `associator` and `braiding` add the
order isomorphism on `_corner`'s rows.  Every cache here is LRU-bounded,
above what a default-bounds `check all` fills.

Cell attachment glues with the labelled `poset.pushout`, the same one
finite spaces and pseudotopologies use.  Its labels and the coproduct's
are sorted, as a parsed trace's are, so a trace replays after a JSON
round trip however many cells a stage attaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    CarrierMismatchError,
    NonCommutingError,
    NotIsoError,
    SizeError,
    VerificationError,
)
from .order import (
    fibres,
    fill,
    gather,
    glue,
    invariant,
    is_isomorphism,
    isomorphisms,
    maps,
    pointwise_rows,
    product_rows,
    quotient_rows,
    split,
)
from .poset import FinitePoset, PreMap, Preorder, coproduct_pre, pushout
from .poset import iter_monotone_maps as iter_monotone_arrows
from .spaces import FiniteSpace

COMPLETE = "COMPLETE"
PARTIAL = "PARTIAL"

POWER_POINT_CAP = 4096
PRODUCT_POINT_CAP = 4096
FACTORIZE_POINT_CAP = 512

# Cache bounds.  A default-bounds `check all` creates about 5.1k corners
# on about 1.9k set-level corners (`_glued`, shared by `_corner`,
# `braiding` and `_associates`), 2.1k powers and at most 1,531
# associativity verdicts (the two-point corpus has 11 set keys, so 1,331
# triples, plus 200 seeded).
# The adjunction table asks the census about 11.4k pairs of class
# representatives, each once, where the 85k triples name 44.6k labelled
# pairs; with the parts that split left arrows ask about, the census
# misses 11,585 to 11,638 times (11,607 at seed 0), and `_arrow_class`
# sees at most 1,675 keys in at most 956 classes (seeds 0 to 7).  `_facts`
# holds one entry per class the census meets, 910 to 956, `_parts` one per
# left class the lemmas leave undecided, 524 to 574, and `_map_object` 182
# to 192 pairs of row tuples.  Every bound is above its count, so that run
# evicts nothing.  `_glued` shares `CORNER_CACHE_SIZE`, `_facts` and
# `_parts` `ARROW_CLASS_CACHE_SIZE` and `_map_object` `POWER_CACHE_SIZE`.
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


def _streams_tops(left_key, right_key):
    """Whether the tops have the smaller map bound, so squares stream by top."""
    a_up, b_up, _ = left_key
    x_up, y_up, _ = right_key
    return max(len(x_up), 1) ** len(a_up) <= max(len(y_up), 1) ** len(b_up)


def _squares(left_key, right_key):
    """Every commuting square (top, bottom) of left against right.

    Streams the side with the smaller map bound in `fill` order, and per
    streamed top u (or bottom v) the other side in `fill` order, pinned so
    that f.u = v.i.
    """
    a_up, b_up, i_map = left_key
    x_up, y_up, f_map = right_key
    if _streams_tops(left_key, right_key):
        y_full = (1 << len(y_up)) - 1
        for top in fill(a_up, x_up):
            allowed = [y_full] * len(b_up)
            for a, t in enumerate(top):
                allowed[i_map[a]] &= 1 << f_map[t]
            for bot in fill(b_up, y_up, allowed):
                yield top, bot
    else:
        fibre = fibres(f_map, len(y_up))
        for bot in fill(b_up, y_up):
            for top in fill(a_up, x_up, [fibre[bot[b]] for b in i_map]):
                yield top, bot


def _diagonal_pins(fibre, i_map, top, bot):
    """Per point b of B, the values a diagonal may take at b.

    The fibre of v(b) over f, narrowed to u(a) where b = i(a): h is a
    diagonal of the square (u, v) exactly when `fill` yields it under these
    pins.
    """
    pins = [fibre[v] for v in bot]
    for a, t in enumerate(top):
        pins[i_map[a]] &= 1 << t
    return pins


def _unsolved(left_key, right_key):
    """The commuting squares with no diagonal, as (top, bottom), in `_squares` order."""
    _, b_up, i_map = left_key
    x_up, y_up, f_map = right_key
    fibre = fibres(f_map, len(y_up))
    for top, bot in _squares(left_key, right_key):
        if next(fill(b_up, x_up, _diagonal_pins(fibre, i_map, top, bot)), None) is None:
            yield top, bot


@lru_cache(maxsize=ARROW_CLASS_CACHE_SIZE)
def _facts(key):
    """What the census lemmas read of one arrow: iso, bijective, indiscrete source."""
    src_up, dst_up, mapping = key
    full = (1 << len(src_up)) - 1
    return (
        is_isomorphism(*key),
        len(set(mapping)) == len(mapping) == len(dst_up),
        all(row == full for row in src_up),
    )


@lru_cache(maxsize=ARROW_CLASS_CACHE_SIZE)
def _parts(key):
    """The `order.split` parts of a left arrow, one per component of its target."""
    return tuple(split(*key))


@lru_cache(maxsize=CENSUS_CACHE_SIZE)
def _census(left_key, right_key):
    """Whether every commuting square admits a diagonal.

    An isomorphism on either side lifts: u.i^-1 or f^-1.v is the diagonal.
    So does a bijection against a map out of an indiscrete preorder, into
    which every function is monotone: u.i^-1 as sets.  The squares of a
    left arrow with a disconnected target are the product of its parts'
    squares, so it lifts exactly when some part has no square or every part
    lifts.  Otherwise no square may be unsolved.
    """
    l_iso, l_bijective, _ = _facts(left_key)
    r_iso, _, r_indiscrete = _facts(right_key)
    if l_iso or r_iso or l_bijective and r_indiscrete:
        return True
    parts = _parts(left_key)
    if parts:
        return any(next(_squares(p, right_key), None) is None for p in parts) or all(
            _lifts(p, right_key) for p in parts
        )
    return next(_unsolved(left_key, right_key), None) is None


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
    pins = _diagonal_pins(
        fibres(f.mapping, f.target.n), i.mapping, square.top.mapping, square.bottom.mapping
    )
    return tuple(
        PreMap(i.target, f.source, h, validate=False) for h in fill(i.target.up, f.source.up, pins)
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
    miss = next(_unsolved(left.key, right.key), None)
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


def _descend(cls, values):
    """Per class 0, 1, ... of `cls`, the value all its points share, or None.

    `values` runs over the same points as `cls`, and every class must own
    at least one of them.  None means some class's points disagree; each
    caller raises its own error.
    """
    out = {}
    for k, v in zip(cls, values):
        if out.setdefault(k, v) != v:
            return None
    return tuple(out[k] for k in range(len(out)))


def _set_key(key):
    """The set key of an arrow key: source size, target size and mapping."""
    src_up, dst_up, mapping = key
    return len(src_up), len(dst_up), mapping


@lru_cache(maxsize=CORNER_CACHE_SIZE)
def _glued(f_set, g_set):
    """The pushout-product of two set keys: its set key and the class of every point.

    The corner glues X x B (side 0) and Y x A (side 1) over X x A, with
    products numbered row-major and classes by first occurrence; `cls`
    holds the class of each point of X x B and then of Y x A.  The
    comparison sends each class into Y x B and must agree on all its
    points.  None of this reads an up row.  X x A is never built, but it
    is refused over the product cap like the other three.
    """
    nx, ny, f_map = f_set
    na, nb, g_map = g_set
    _check_products((nx, nb), (ny, na), (nx, na), (ny, nb))
    side = nx * nb
    pairs = [
        (x * nb + b, side + y * na + a) for x, y in enumerate(f_map) for a, b in enumerate(g_map)
    ]
    cls = tuple(glue(side + ny * na, pairs))
    mapping = _descend(
        cls,
        [y * nb + b for y in f_map for b in range(nb)]
        + [y * nb + b for y in range(ny) for b in g_map],
    )
    if mapping is None:
        raise VerificationError("pushout-product comparison is not well defined")
    return (len(mapping), ny * nb, mapping), cls


@lru_cache(maxsize=CORNER_CACHE_SIZE)
def _corner(f_key, g_key):
    """The pushout-product of two arrow keys: rows, target rows and comparison.

    `_glued` numbers the classes; the corner orders them by `quotient_rows`
    of X x B beside Y x A.
    """
    x_up, y_up, _ = f_key
    a_up, b_up, _ = g_key
    (_, _, mapping), cls = _glued(_set_key(f_key), _set_key(g_key))
    side = len(x_up) * len(b_up)
    rows = quotient_rows(
        cls, product_rows(x_up, b_up) + tuple(r << side for r in product_rows(y_up, a_up))
    )
    return rows, product_rows(y_up, b_up), mapping


def pushout_product(f, g):
    """The induced map from X x B glued with Y x A over X x A into Y x B."""
    return _arrow_from_key(_corner(f.key, g.key))


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _map_object(src_up, dst_up):
    """The maps dst^src in fill order and their pointwise rows, refused over the cap."""
    mappings = maps(src_up, dst_up)
    if len(mappings) > POWER_POINT_CAP:
        raise SizeError(f"map object exceeds {POWER_POINT_CAP} points")
    return mappings, pointwise_rows(dst_up, mappings)


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _power(f_key, g_key):
    """The pullback-power of two arrow keys: source rows, apex rows and comparison.

    The apex point (i, j) pairs the i-th map of X^A with the j-th map of
    Y^B that agree in Y^A, maps numbered in fill order.  The apex is
    ordered pointwise, bit-sliced: the pairs above (i, j) are those whose
    first map is above the i-th, a `gather` of its row over the columns
    "pairs with first map i2", AND those whose second map is above the j-th.
    """
    x_up, y_up, f_map = f_key
    a_up, b_up, g_map = g_key
    xb, xb_up = _map_object(b_up, x_up)
    xa, xa_up = _map_object(a_up, x_up)
    yb, yb_up = _map_object(b_up, y_up)
    restricted = {}
    for j, delta in enumerate(yb):
        restricted.setdefault(tuple(delta[b] for b in g_map), []).append(j)
    pairs = []
    for i, alpha in enumerate(xa):
        for j in restricted.get(tuple(f_map[v] for v in alpha), ()):
            pairs.append((i, j))
    firsts = [0] * len(xa)
    seconds = [0] * len(yb)
    for k, (i, j) in enumerate(pairs):
        firsts[i] |= 1 << k
        seconds[j] |= 1 << k
    above_a = [gather(row, firsts) for row in xa_up]
    above_b = [gather(row, seconds) for row in yb_up]
    rows = [above_a[i] & above_b[j] for i, j in pairs]
    pos = {(xa[i], yb[j]): k for k, (i, j) in enumerate(pairs)}
    mapping = tuple(
        pos[(tuple(beta[b] for b in g_map), tuple(f_map[v] for v in beta))]
        for beta in xb
    )
    return xb_up, tuple(rows), mapping


def pullback_power(f, g):
    """The induced map X^B -> X^A x_{Y^A} Y^B for f: X -> Y and g: A -> B.

    The arrow of `_power`'s key; the bench tracer wraps it by name.
    """
    return _arrow_from_key(_power(f.key, g.key))


def _numbering():
    """A dict and a function giving each distinct key its first-seen index."""
    ids = {}
    return ids, lambda key: ids.setdefault(key, len(ids))


def adjunction_failures(fs, gs, is_):
    """The index triples (f, g, i) of fs x gs x is_ where the adjunction fails.

    It fails where (f pushout-product i) lifting on the left against g and
    f lifting on the left against (g pullback-power i) disagree.  Every
    corner and power is built once, and the arrow classes of the arrows,
    corners and powers are numbered.  The census then runs once per pair
    of classes it is asked about, into the tables `left[corner class][g]`
    and `right[power class][f]`, and each triple compares two entries.
    Triples come f-major, then g, then i.
    """
    classes, number = _numbering()
    f_cls = [number(_arrow_class(f.key)) for f in fs]
    g_cls = [number(_arrow_class(g.key)) for g in gs]
    corner = [[number(_arrow_class(_corner(f.key, i.key))) for i in is_] for f in fs]
    power = [[number(_arrow_class(_power(g.key, i.key))) for i in is_] for g in gs]
    reps = list(classes)

    def table(outer, inner, census):
        out = {}
        for c in dict.fromkeys(k for row in outer for k in row):
            verdicts = {k: census(reps[c], reps[k]) for k in dict.fromkeys(inner)}
            out[c] = [verdicts[k] for k in inner]
        return out

    left = table(corner, g_cls, _census)
    right = table(power, f_cls, lambda p, f: _census(f, p))
    failures = []
    for f, corner_f in enumerate(corner):
        for g, power_g in enumerate(power):
            for i, (c, p) in enumerate(zip(corner_f, power_g)):
                if left[c][g] != right[p][f]:
                    failures.append((f, g, i))
    return failures


def lifting_adjunction_check(f, g, i):
    """The two lifting verdicts of the pushout-product adjunction agree."""
    return not adjunction_failures((f,), (g,), (i,))


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

    The swap transposes pair coordinates: point (x, b) of X x B goes to
    (b, x) of B x X, and (y, a) of Y x A to (a, y) of A x Y.  `_descend`
    turns it into a class map on the two set-level corners; the
    certificate checks that it respects the classes, transfers the order
    both ways on the corners and the targets, and commutes with the
    comparisons.
    """
    nx, ny = len(f.key[0]), len(f.key[1])
    na, nb = len(g.key[0]), len(g.key[1])
    _, cls1 = _glued(_set_key(f.key), _set_key(g.key))
    _, cls2 = _glued(_set_key(g.key), _set_key(f.key))
    moved = [na * ny + b * nx + x for x in range(nx) for b in range(nb)]
    moved += [a * ny + y for y in range(ny) for a in range(na)]
    top = _descend(cls1, [cls2[p] for p in moved])
    if top is None:
        raise NotIsoError("the swap does not respect the glued classes")
    key1, key2 = _corner(f.key, g.key), _corner(g.key, f.key)
    (rows1, yb_up, map1), (rows2, by_up, map2) = key1, key2
    if not is_isomorphism(rows1, rows2, top):
        raise NotIsoError("the swap is not an order isomorphism on the corner")
    bottom = [b * ny + y for y in range(ny) for b in range(nb)]
    if not is_isomorphism(yb_up, by_up, bottom):
        raise NotIsoError("the swap is not an order isomorphism on the target")
    if any(bottom[v] != map2[t] for v, t in zip(map1, top)):
        raise NotIsoError("the swap does not commute with the comparisons")
    return _iso_between(_arrow_from_key(key1), _arrow_from_key(key2), top, bottom)


def _reassociate(f_set, g_set, h_set):
    """The class map (f x^ g) x^ h -> f x^ (g x^ h) on set keys.

    Both corners glue the blocks X x B x B2, Y x A x B2 and Y x B x A2, so
    the identity on block points, read through the inner corners' classes,
    descends to the map; every left class owns a block point.  Raises
    NotIsoError unless it is a well-defined bijection of classes that
    commutes with the comparisons, through the row-major identification of
    the two target products.
    """
    fg_set, fg = _glued(f_set, g_set)
    (_, _, lhs_map), lhs = _glued(fg_set, h_set)
    gh_set, gh = _glued(g_set, h_set)
    (n_rhs, _, rhs_map), rhs = _glued(f_set, gh_set)
    nb2 = h_set[1]
    # Each block point's class on either side, blocks in the order above.
    # Left, side 0 is (f x^ g) x B2, reached from X x B and Y x A through
    # `fg`, and side 1 is Y x B x A2 itself.
    left = [lhs[p * nb2 + b2] for p in fg for b2 in range(nb2)] + list(lhs[fg_set[0] * nb2 :])
    # Right, side 0 is X x B x B2 itself, and side 1 is Y x (g x^ h), reached
    # per y from A x B2 and then from B x A2 through `gh`.
    side, split = f_set[0] * gh_set[1], g_set[0] * nb2
    offsets = [side + y * gh_set[0] for y in range(f_set[1])]
    right = list(rhs[:side])
    right += [rhs[o + q] for block in (gh[:split], gh[split:]) for o in offsets for q in block]
    top = _descend(left, right)
    if top is None:
        raise NotIsoError("re-association does not respect the glued classes")
    if sorted(top) != list(range(n_rhs)):
        raise NotIsoError("re-association is not a bijection of the glued classes")
    if any(v != rhs_map[t] for v, t in zip(lhs_map, top)):
        raise NotIsoError("re-association does not commute with the comparisons")
    return top


def associator(f, g, h):
    """The re-association isomorphism (f x^ g) x^ h -> f x^ (g x^ h).

    `_reassociate` gives the class map; the certificate adds that the
    order transfers both ways and that the target products agree.
    """
    top = _reassociate(_set_key(f.key), _set_key(g.key), _set_key(h.key))
    lhs_key = _corner(_corner(f.key, g.key), h.key)
    rhs_key = _corner(f.key, _corner(g.key, h.key))
    (lhs_rows, lhs_target, _), (rhs_rows, rhs_target, _) = lhs_key, rhs_key
    if not is_isomorphism(lhs_rows, rhs_rows, top):
        raise NotIsoError("re-association is not an order isomorphism on the corner")
    if lhs_target != rhs_target:
        raise VerificationError("the target products disagree as orders")
    return _iso_between(
        _arrow_from_key(lhs_key), _arrow_from_key(rhs_key), top, range(len(lhs_target))
    )


def associativity_failures(fs, gs, hs):
    """The index triples (f, g, h) of fs x gs x hs where the corners do not associate.

    The verdict `_associates` reads the three arrows' set keys only, so the
    set keys are numbered and it runs once per distinct triple of them.
    Triples come f-major, then g, then h.
    """
    keys, number = _numbering()
    f_ids = [number(_set_key(f.key)) for f in fs]
    g_ids = [number(_set_key(g.key)) for g in gs]
    h_ids = [number(_set_key(h.key)) for h in hs]
    sets = list(keys)
    bad = {}
    for a in dict.fromkeys(f_ids):
        for b in dict.fromkeys(g_ids):
            bad[a, b] = {
                c for c in dict.fromkeys(h_ids) if not _associates(sets[a], sets[b], sets[c])
            }
    return [
        (f, g, h)
        for f, a in enumerate(f_ids)
        for g, b in enumerate(g_ids)
        if bad[a, b]
        for h, c in enumerate(h_ids)
        if c in bad[a, b]
    ]


def associates(f, g, h):
    """Whether (f x^ g) x^ h and f x^ (g x^ h) agree, by `_associates`."""
    return not associativity_failures((f,), (g,), (h,))


@lru_cache(maxsize=ASSOC_CACHE_SIZE)
def _associates(f_set, g_set, h_set):
    """The associativity verdict on set keys: whether `_reassociate` succeeds.

    The key is exactly what the verdict reads.  Unlike a memo on
    isomorphism classes, it leaves out no labelling or order that a verdict
    could depend on, so it cannot hide a labelling bug behind a
    representative.
    """
    try:
        _reassociate(f_set, g_set, h_set)
    except NotIsoError:
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
        seen = set()
        for square in _unsolved(s.key, right.key):
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
    new_right = _descend(step + cells, right.mapping + tuple(bottoms))
    if new_right is None:
        raise VerificationError("the extended right factor is not well defined")
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
