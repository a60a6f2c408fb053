"""Named verification suites behind the ``check`` subcommands.

Every suite packages one claim into a single runner keyed by a stable
citation label.  Reports carry the exact corpus swept and every failure
witness, so a green run documents what was checked, not just that a check
ran.  Options only scale the corpus bounds.

Wall times are measured but excluded from `report_data`, keeping report
bytes reproducible for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from time import perf_counter

from .bits import iter_bits
from .colimits import (
    PushoutLocaleResult,
    agreeing_pairs,
    copair_mapping,
    coproduct,
    distribute_iso,
    mediator_mapping,
    product_frames,
    pushout_apex,
    pushout_square,
)
from .corpus import frames_upto, soa_regression_cases, spaces_upto
from .errors import FinitetopError, NotHomError, NotIsoError, VerificationError
from .frames import (
    FrameHom,
    Prenucleus,
    composed,
    frame_isomorphism,
    iter_frame_homs,
    nucleus_from_prenucleus,
    prenucleus_violation,
    right_adjoint,
    two,
)
from .lifting import (
    COMPLETE,
    PARTIAL,
    adjunction_failures,
    arrow_iso,
    arrows_between,
    associates,
    associativity_failures,
    associator,
    bounded_factorize,
    braiding,
    identity_arrow,
    lifting_adjunction_check,
    product_arrow,
    pushout_product,
    replay_trace,
    rlp,
)
from .order import maps, upsets
from .poset import PreMap, Preorder
from .pstop import (
    lemma_all_compact,
    lemma_compact_balanced,
    lemma_compact_image,
    lemma_lattice_bounds,
    lemma_pushout_agreement,
    lemma_subspace_modification,
    lemma_subspace_restriction,
    lemma_tau_iota,
)
from .spaces import is_sober, product_spaces, spaces_homeomorphic
from .spatial import adjunction_check, is_spatial, omega, pt


@dataclass(frozen=True)
class SuiteOptions:
    """Corpus bounds shared by every suite runner.

    The defaults are desk scale.  Both size bounds must be at least 1:
    below that every corpus is empty, so a run would check nothing.
    """

    max_points: int = 3
    max_frame_size: int = 3
    seed: int = 0
    samples: int = 200

    def __post_init__(self):
        for name in ("max_points", "max_frame_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    citation: str
    group: str
    corpus: str
    cases: int
    failures: tuple
    wall_time: float

    @property
    def ok(self):
        return self.cases > 0 and not self.failures


def report_data(report):
    """The canonical dict form of a report, without the wall time."""
    return {
        "kind": "suite-report",
        "suite": report.suite,
        "citation": report.citation,
        "group": report.group,
        "corpus": report.corpus,
        "cases": report.cases,
        "failures": list(report.failures),
        "ok": report.ok,
    }


def _frame_name(frame):
    return "{" + ",".join(frame.labels) + "}"


def _space_name(space):
    """A space, or a preorder as its Alexandrov space: points and open count."""
    return "{" + ",".join(space.points) + "|" + str(len(upsets(space.up))) + " opens}"


def _arrow_name(m):
    pairs = ",".join(
        f"{m.source.points[i]}>{m.target.points[m.mapping[i]]}"
        for i in range(m.source.n)
    )
    return "[" + pairs + "]"


# --- frames -----------------------------------------------------------------


def _memo(build):
    """A per-run memo: `get(*key)` calls `build(*key)` once per key.

    The suites key it on corpus frames and on homs between them, which live
    for the whole run.  `_hom_sets` keeps each hom set as a tuple in
    enumeration order, so loops over it visit homs as before.
    """
    memo = {}

    def get(*key):
        found = memo.get(key)
        if found is None:
            found = memo[key] = build(*key)
        return found

    return get


def _hom_sets():
    """`homs(source, target)` enumerates each hom set once per run."""
    return _memo(lambda source, target: tuple(iter_frame_homs(source, target)))


def _by_legs(homs, legs):
    """Group homs by `legs(h)`, a pair of leg mappings, keeping their order.

    Legs out of one frame into one target are equal as homs exactly when
    their mappings are, so the homs restricting to a cocone are one lookup
    away.  The legs are composites of certified homs, so each is a hom and
    is not certified again.  A cocone's mediator mapping passes when its
    group is exactly one hom with that mapping: being that certified hom is
    its certificate, and being filed under the legs its triangle check.
    """
    table = {}
    for h in homs:
        table.setdefault(legs(h), []).append(h)
    return table


def _run_frame_coproduct(opt):
    """Universal property of the frame coproduct, plus the unit law.

    Sweeps every cocone out of every pair of small frames, checks the
    copairing triangles, and certifies the mediating hom as the only hom
    satisfying them.  The homs tensor -> target are enumerated once per
    target and grouped by their legs (m;iota1, m;iota2) on the injection
    mappings, so the homs restricting to a cocone (f, g) are the group at
    (f, g), which must be exactly the `copair_mapping` of (f, g)
    (`_by_legs`).  Only a mapping that does not match is certified, to
    name `FrameHom`'s refusal before the group's size.  The unit law
    two (x) L = L runs over the frames up to the same bound.
    """
    pool = frames_upto(opt.max_frame_size)
    cocones = frames_upto(opt.max_frame_size + 1)
    homs = _hom_sets()
    failures = []
    cases = 0
    for left in pool:
        for right in pool:
            tensor = coproduct(left, right)
            iota1, iota2 = tensor.iota1_map, tensor.iota2_map
            pair = _frame_name(left) + " (x) " + _frame_name(right)
            for target in cocones:
                fs = homs(left, target)
                gs = homs(right, target)
                if not fs or not gs:
                    continue
                mediators = _by_legs(
                    iter_frame_homs(tensor, target),
                    lambda m: (
                        tuple(map(m.mapping.__getitem__, iota1)),
                        tuple(map(m.mapping.__getitem__, iota2)),
                    ),
                )
                for f in fs:
                    for g in gs:
                        cases += 1
                        mapping = copair_mapping(f, g, tensor)
                        found = mediators.get((f.mapping, g.mapping), [])
                        if len(found) == 1 and found[0].mapping == mapping:
                            continue
                        try:
                            FrameHom(tensor, target, mapping)
                        except (NotHomError, VerificationError) as exc:
                            failures.append(f"{pair}: {exc}")
                        else:
                            failures.append(
                                f"{pair} into {_frame_name(target)}: "
                                f"{len(found)} mediators for one cocone"
                            )
    unit = two()
    for frame in pool:
        cases += 1
        if frame_isomorphism(coproduct(unit, frame), frame) is None:
            failures.append(f"two (x) {_frame_name(frame)} is not {_frame_name(frame)}")
    corpus = (
        f"frame pairs up to {opt.max_frame_size} elements, cocones up to "
        f"{opt.max_frame_size + 1}"
    )
    return corpus, cases, failures


def _run_galois_laws(opt):
    """Adjoint laws and duality for every hom between corpus frames.

    Each hom is paired with its computed right adjoint; the connection
    validates the adjunction law on construction and the named laws
    (triangles, meet and top preservation, both duality equivalences)
    must all report True.
    """
    pool = frames_upto(opt.max_frame_size)
    failures = []
    cases = 0
    for left in pool:
        for right in pool:
            for hom in iter_frame_homs(left, right):
                cases += 1
                try:
                    laws = right_adjoint(hom).check_laws()
                except VerificationError as exc:
                    failures.append(
                        f"{_frame_name(left)} -> {_frame_name(right)}: {exc}"
                    )
                    continue
                broken = sorted(name for name, good in laws.items() if not good)
                if broken:
                    failures.append(
                        f"{_frame_name(left)} -> {_frame_name(right)}: "
                        + ", ".join(broken)
                    )
    corpus = f"all homs between frames up to {opt.max_frame_size} elements"
    return corpus, cases, failures


def _run_nucleus_generation(opt):
    """Seeded random prenuclei and the nuclei they generate.

    Draws an inflationary assignment, monotone-closes it, keeps it when
    the prenucleus law holds, and generates the nucleus.  The generated
    map must fix exactly the prenucleus fixed points and send each element
    to the least fixed point above it.
    """
    rng = random.Random(opt.seed)
    pool = [f for f in frames_upto(max(opt.max_frame_size, 2)) if f.n >= 2]
    failures = []
    cases = 0
    while cases < opt.samples:
        frame = pool[rng.randrange(len(pool))]
        pick = []
        for x in range(frame.n):
            ups = list(iter_bits(frame.order.up[x]))
            pick.append(ups[rng.randrange(len(ups))])
        mapping = []
        for x in range(frame.n):
            mask = 0
            for y in range(frame.n):
                if frame.leq_idx(y, x):
                    mask |= 1 << pick[y]
            mapping.append(frame.join_mask(mask))
        if prenucleus_violation(frame, tuple(mapping)) is not None:
            continue
        cases += 1
        tag = f"{_frame_name(frame)} sample {cases}"
        try:
            nucleus = nucleus_from_prenucleus(Prenucleus(frame, tuple(mapping)))
        except FinitetopError as exc:
            failures.append(f"{tag}: {exc}")
            continue
        fix = sum(1 << x for x in range(frame.n) if mapping[x] == x)
        for x in range(frame.n):
            j = nucleus.mapping[x]
            if not fix >> j & 1:
                failures.append(f"{tag}: value at {frame.labels[x]!r} is not fixed")
                break
            for other in iter_bits(fix & frame.order.up[x]):
                if not frame.leq_idx(j, other):
                    failures.append(
                        f"{tag}: value at {frame.labels[x]!r} is not the least "
                        "fixed point above it"
                    )
                    break
            else:
                continue
            break
    corpus = (
        f"{opt.samples} seeded prenuclei on frames up to "
        f"{max(opt.max_frame_size, 2)} elements, seed {opt.seed}"
    )
    return corpus, cases, failures


# --- colimits ---------------------------------------------------------------


def _run_product_distribute(opt):
    """The distribution of a tensor over a binary product, all triples.

    Each triple (L, M1, M2) hands `distribute_iso` its pieces:
    L (x) (M1 x M2), L (x) M1 and L (x) M2.  Only L (x) (M1 x M2)
    and the target (L (x) M1) x (L (x) M2) are new to a triple; each
    M1 x M2 is built once per run and each L (x) M once per L, and every
    frame built runs its build checks.
    """
    pool = frames_upto(opt.max_frame_size)
    products = [[product_frames([m1, m2]) for m2 in pool] for m1 in pool]
    failures = []
    cases = 0
    for left in pool:
        tensors = [coproduct(left, m) for m in pool]
        for i, m1 in enumerate(pool):
            for j, m2 in enumerate(pool):
                cases += 1
                try:
                    distribute_iso(coproduct(left, products[i][j]), tensors[i], tensors[j])
                except NotIsoError as exc:
                    failures.append(
                        f"{_frame_name(left)} over {_frame_name(m1)} x "
                        f"{_frame_name(m2)}: {exc}"
                    )
    corpus = f"frame triples up to {opt.max_frame_size} elements"
    return corpus, cases, failures


def _run_loc_pushout(opt):
    """Localic pushouts: legs, mediators, uniqueness, injective stability.

    Every span f: B -> A, g: C -> A of corpus frame homs is pushed out, and
    a surjective span hom must make the opposite projection surjective.
    `colimits.pushout_loc` is two halves: `pushout_apex` reads only B, C
    and the agreeing `pairs`, and `pushout_square` reads the span through
    the right adjoints of f and g.  The cocones of a span are the (u, v)
    with u;f = v;g, which holds exactly when every (u(x), v(x)) is one of
    the agreeing pairs; equal (B, C, pairs) also give an equal apex,
    projections and `tuple_index`, and `mediator_mapping` reads the span only
    through that same commutation.  So the apex half and the cocone checks
    run once per distinct pushout, keyed on the pool positions of B and C
    and on `pairs` (`_pushout_record`), and every span with that pushout
    runs its own square and surjectivity checks and reports the pushout's
    messages under its own tag.  The right adjoint of each span hom is
    taken once.  Each cocone gets its mediator certified unique among all
    homs into the apex: those homs are grouped once by their projections
    (h;proj_b, h;proj_c), so the homs restricting to (u, v) are the group
    at (u, v), which must be exactly the `mediator_mapping` of (u, v).
    """
    pool = frames_upto(opt.max_frame_size)
    homs = _hom_sets()
    right = _memo(lambda hom: right_adjoint(hom).right)
    pushouts = {}
    failures = []
    cases = 0
    for codomain in pool:
        for b_pos, b_frame in enumerate(pool):
            homs_b = homs(b_frame, codomain)
            if not homs_b:
                continue
            for c_pos, c_frame in enumerate(pool):
                homs_c = homs(c_frame, codomain)
                tag = (
                    f"{_frame_name(b_frame)} <- {_frame_name(codomain)}"
                    f" -> {_frame_name(c_frame)}"
                )
                for f in homs_b:
                    for g in homs_c:
                        cases += 1
                        pairs = agreeing_pairs(f, g)
                        key = (b_pos, c_pos, pairs)
                        record = pushouts.get(key)
                        if record is None:
                            record = pushouts[key] = _pushout_record(pool, homs, f, g, pairs)
                        if isinstance(record, str):
                            failures.append(f"{tag}: {record}")
                            continue
                        legs, messages = record
                        try:
                            pushout_square(legs, right(f), right(g))
                        except FinitetopError as exc:
                            failures.append(f"{tag}: {exc}")
                            continue
                        f_surj = len(set(f.mapping)) == codomain.n
                        g_surj = len(set(g.mapping)) == codomain.n
                        if f_surj and len({c for _, c in pairs}) != c_frame.n:
                            failures.append(f"{tag}: pushed leg lost injectivity")
                        if g_surj and len({b for b, _ in pairs}) != b_frame.n:
                            failures.append(f"{tag}: pushed leg lost injectivity")
                        failures.extend(f"{tag}: {msg}" for msg in messages)
    corpus = f"spans and cocones over frames up to {opt.max_frame_size} elements"
    return corpus, cases, failures


def _pushout_record(pool, homs, f, g, pairs):
    """What the spans of one distinct pushout read, built from its first span.

    The refusal message of `pushout_apex`, or the right maps of the two
    legs and the untagged cocone messages of `_cocone_failures`.  The apex
    itself is not kept.
    """
    try:
        parts = pushout_apex(f.source, g.source, pairs)
    except FinitetopError as exc:
        return str(exc)
    result = PushoutLocaleResult(*parts, f, g)
    return (result.leg_b.right, result.leg_c.right), _cocone_failures(pool, homs, result)


def _cocone_failures(pool, homs, result):
    """The untagged failure messages of every cocone of one pushout, in order.

    Each cocone hom is composed with its span leg once, and the homs into
    the apex from a frame are enumerated only if some cocone from it has a
    mediator mapping.  A cocone's message is `mediator_mapping`'s
    ValueError, or for a mapping that is not its group (`_by_legs`),
    `FrameHom`'s refusal of it, else the group's size.
    """
    f, g = result.span_left, result.span_right
    messages = []
    for q_frame in pool:
        us = homs(q_frame, f.source)
        vs = homs(q_frame, g.source)
        if not us or not vs:
            continue
        vgs = [composed(v, g) for v in vs]
        into_apex = None
        for u in us:
            uf = composed(u, f)
            for v, vg in zip(vs, vgs):
                if uf != vg:
                    continue
                try:
                    mapping = mediator_mapping(result, u, v)
                except ValueError as exc:
                    messages.append(str(exc))
                    continue
                if into_apex is None:
                    into_apex = _by_legs(
                        iter_frame_homs(q_frame, result.apex),
                        lambda h: (
                            composed(h, result.proj_b),
                            composed(h, result.proj_c),
                        ),
                    )
                found = into_apex.get((u.mapping, v.mapping), [])
                if len(found) == 1 and found[0].mapping == mapping:
                    continue
                try:
                    FrameHom(q_frame, result.apex, mapping)
                except (NotHomError, VerificationError) as exc:
                    messages.append(str(exc))
                else:
                    messages.append(f"{len(found)} mediators from {_frame_name(q_frame)}")
    return tuple(messages)


# --- spatial ----------------------------------------------------------------


def _run_spatial_products(opt):
    """Tensor of opens against opens of the product, all T0 pairs.

    Includes the Sierpinski space squared, whose tensor must have exactly
    six elements.
    """
    pool = spaces_upto(opt.max_points, t0_only=True)
    opens = [omega(s) for s in pool]
    failures = []
    cases = 0
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            cases += 1
            tensor = coproduct(opens[i], opens[j])
            prod, _, _ = product_spaces(x, y)
            if frame_isomorphism(tensor, omega(prod)) is None:
                failures.append(
                    f"{_space_name(x)} x {_space_name(y)}: tensor misses the opens"
                )
    sier = next((s for s in pool if s.n == 2 and len(s.opens) == 3), None)
    if sier is not None:
        cases += 1
        size = coproduct(omega(sier), omega(sier)).n
        if size != 6:
            failures.append(f"the Sierpinski square tensor has {size} elements")
    corpus = f"T0 space pairs up to {opt.max_points} points"
    return corpus, cases, failures


def _run_omega_pt(opt):
    """Both unit laws and the hom-set bijection of the opens/points pair.

    Sober spaces are recovered from their opens, every corpus frame is
    spatial (finite frames are frames of downsets), and transposition is a
    bijection between localic homs and continuous maps.
    """
    sobers = [s for s in spaces_upto(opt.max_points, t0_only=True) if is_sober(s)]
    pool = frames_upto(opt.max_frame_size)
    failures = []
    cases = 0
    for s in sobers:
        cases += 1
        if spaces_homeomorphic(pt(omega(s)), s) is None:
            failures.append(f"{_space_name(s)}: points of opens changed the space")
    for frame in pool:
        cases += 1
        if not is_spatial(frame).spatial:
            failures.append(f"{_frame_name(frame)}: not spatial")
    for s in sobers:
        for frame in pool:
            cases += 1
            report = adjunction_check(s, frame)
            if not report.holds:
                failures.append(
                    f"{_space_name(s)} against {_frame_name(frame)}: "
                    "transposition is not a bijection"
                )
    corpus = (
        f"sober spaces up to {opt.max_points} points, frames up to "
        f"{opt.max_frame_size} elements"
    )
    return corpus, cases, failures


# --- pstop lemmas -----------------------------------------------------------


def _wrap_lemma(func, capped=False):
    def run(opt):
        bound = min(opt.max_points, 2) if capped else opt.max_points
        instances, failures = func(bound)
        return f"pseudotopologies up to {bound} points", instances, failures

    return run


# --- lifting ----------------------------------------------------------------


def _preorder_pool(max_points):
    return tuple(Preorder(s.points, s.up, validate=False) for s in spaces_upto(max_points))


def _sample_arrow(rng, pool):
    while True:
        source = pool[rng.randrange(len(pool))]
        target = pool[rng.randrange(len(pool))]
        mappings = maps(source.up, target.up)
        if mappings:
            mapping = mappings[rng.randrange(len(mappings))]
            return PreMap(source, target, mapping, validate=False)


def _run_lifting_adjunction(opt):
    """Corner map against power map: both transposes lift together.

    Exhaustive over the arrows between preorders of up to two points, as
    one `adjunction_failures` table, then seeded random triples at the full
    point bound.
    """
    small = arrows_between(_preorder_pool(min(opt.max_points, 2)))
    failures = [
        f"{_arrow_name(small[f])} / {_arrow_name(small[g])} / {_arrow_name(small[i])}"
        for f, g, i in adjunction_failures(small, small, small)
    ]
    cases = len(small) ** 3
    rng = random.Random(opt.seed)
    pool = _preorder_pool(opt.max_points)
    for _ in range(opt.samples):
        f = _sample_arrow(rng, pool)
        g = _sample_arrow(rng, pool)
        i = _sample_arrow(rng, pool)
        cases += 1
        if not lifting_adjunction_check(f, g, i):
            failures.append(
                f"seeded {_arrow_name(f)} / {_arrow_name(g)} / {_arrow_name(i)}"
            )
    corpus = (
        f"arrow triples up to 2 points, plus {opt.samples} seeded triples up to "
        f"{opt.max_points} points, seed {opt.seed}"
    )
    return corpus, cases, failures


def _relabel_source(m):
    pre = m.source
    order = tuple(reversed(range(pre.n)))
    points = tuple(pre.points[i] for i in order)
    up = []
    for i in order:
        mask = 0
        for j in iter_bits(pre.up[i]):
            mask |= 1 << order.index(j)
        up.append(mask)
    twin = Preorder(points, tuple(up))
    return PreMap(twin, m.target, tuple(m.mapping[i] for i in order))


def _run_pushout_product_symmetry(opt):
    """Symmetry and associativity of the corner construction.

    Braidings and associators are certified arrow isomorphisms on the
    exhaustive two point corpus; associativity additionally runs as a
    partition comparison on every triple, and seeded samples repeat the
    certified checks at the full point bound.  Relabeling a factor's
    source must not change the corner up to isomorphism.
    """
    small = arrows_between(_preorder_pool(min(opt.max_points, 2)))
    failures = []
    cases = 0
    for f in small:
        for g in small:
            cases += 1
            try:
                braiding(f, g)
            except FinitetopError as exc:
                failures.append(f"braid {_arrow_name(f)} / {_arrow_name(g)}: {exc}")
    cases += len(small) ** 3
    failures.extend(
        f"assoc {_arrow_name(small[f])} / {_arrow_name(small[g])} / {_arrow_name(small[h])}"
        for f, g, h in associativity_failures(small, small, small)
    )
    stride = max(1, len(small) // 9)
    sample = small[::stride]
    for f in sample:
        for g in sample:
            for h in sample:
                cases += 1
                try:
                    associator(f, g, h)
                except FinitetopError as exc:
                    failures.append(
                        f"associator {_arrow_name(f)} / {_arrow_name(g)} / "
                        f"{_arrow_name(h)}: {exc}"
                    )
    for f in sample:
        for g in sample:
            cases += 1
            twin = _relabel_source(f)
            if arrow_iso(pushout_product(f, g), pushout_product(twin, g)) is None:
                failures.append(
                    f"relabel {_arrow_name(f)} / {_arrow_name(g)}: corner changed"
                )
    rng = random.Random(opt.seed)
    pool = _preorder_pool(opt.max_points)
    for _ in range(opt.samples):
        f = _sample_arrow(rng, pool)
        g = _sample_arrow(rng, pool)
        h = _sample_arrow(rng, pool)
        cases += 2
        try:
            braiding(f, g)
            associator(f, g, h)
        except FinitetopError as exc:
            failures.append(
                f"seeded {_arrow_name(f)} / {_arrow_name(g)} / {_arrow_name(h)}: {exc}"
            )
        if not associates(f, g, h):
            failures.append(
                f"seeded assoc {_arrow_name(f)} / {_arrow_name(g)} / {_arrow_name(h)}"
            )
    corpus = (
        f"arrow pairs and triples up to 2 points, plus {opt.samples} seeded "
        f"triples up to {opt.max_points} points, seed {opt.seed}"
    )
    return corpus, cases, failures


def _run_pushout_product_units(opt):
    """Corner maps out of an empty domain are plain product arrows.

    For every space A and arrow f, the corner of (empty -> A) with f must
    be isomorphic to id_A x f; the corner of the point cell with itself
    must be the point cell again.
    """
    pool = _preorder_pool(min(opt.max_points, 2))
    empty = Preorder((), ())
    point = Preorder(("p",), (1,))
    cell = PreMap(empty, point, ())
    arrows = arrows_between(pool)
    failures = []
    cases = 0
    for pre in pool:
        bang = PreMap(empty, pre, ())
        for f in arrows:
            cases += 1
            corner = pushout_product(bang, f)
            expected = product_arrow(identity_arrow(pre), f)
            if arrow_iso(corner, expected) is None:
                failures.append(f"{_space_name(pre)} with {_arrow_name(f)}")
    cases += 1
    corner = pushout_product(cell, cell)
    if corner.source.n != 0 or corner.target.n != 1:
        failures.append("the point cell squared is not the point cell")
    corpus = f"spaces and arrows up to {min(opt.max_points, 2)} points"
    return corpus, cases, failures


def _run_soa(opt):
    """Bounded factorization on the fixed regression set.

    A COMPLETE verdict must come with a right factor that actually has the
    lifting property and a trace that replays; a PARTIAL verdict must come
    with a right factor that does not, and flipping either verdict must
    make the replay fail.
    """
    failures = []
    cases = 0
    for name, f, generators, steps in soa_regression_cases():
        cases += 1
        try:
            trace = bounded_factorize(f, generators, steps)
        except FinitetopError as exc:
            failures.append(f"{name}: {exc}")
            continue
        holds = bool(rlp(trace.right, generators))
        if trace.verdict == COMPLETE and not holds:
            failures.append(f"{name}: complete verdict without the lifting property")
        if trace.verdict == PARTIAL and holds:
            failures.append(f"{name}: partial verdict despite the lifting property")
        try:
            replay_trace(trace, generators)
        except VerificationError as exc:
            failures.append(f"{name}: replay failed: {exc}")
        flip = PARTIAL if trace.verdict == COMPLETE else COMPLETE
        try:
            replay_trace(dataclasses.replace(trace, verdict=flip), generators)
            failures.append(f"{name}: a flipped verdict replayed")
        except VerificationError:
            pass
    corpus = "the fixed regression set of 20 factorization problems"
    return corpus, cases, failures


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class SuiteEntry:
    citation: str
    suite: str
    group: str
    runner: object


_ENTRIES = (
    SuiteEntry("FrameCoproduct", "frame-coproduct", "frames", _run_frame_coproduct),
    SuiteEntry("GaloisLaws", "galois-laws", "frames", _run_galois_laws),
    SuiteEntry(
        "NucleusGeneration", "nucleus-generation", "frames", _run_nucleus_generation
    ),
    SuiteEntry(
        "ProductDistributeLocale",
        "product-distribute",
        "colimits",
        _run_product_distribute,
    ),
    SuiteEntry("LocPushout", "loc-pushout", "colimits", _run_loc_pushout),
    SuiteEntry(
        "LocSpatialProducts", "spatial-products", "spatial", _run_spatial_products
    ),
    SuiteEntry("OmegaPtAdjunction", "omega-pt-adjunction", "spatial", _run_omega_pt),
    SuiteEntry(
        "SubspaceRestiction",
        "subspace-restriction",
        "pstop-lemmas",
        _wrap_lemma(lemma_subspace_restriction),
    ),
    SuiteEntry(
        "SubspaceLemma",
        "subspace-modification",
        "pstop-lemmas",
        _wrap_lemma(lemma_subspace_modification),
    ),
    SuiteEntry(
        "CompactImageCompact",
        "compact-image",
        "pstop-lemmas",
        _wrap_lemma(lemma_compact_image),
    ),
    SuiteEntry(
        "CompactSpacesBalanced",
        "compact-balanced",
        "pstop-lemmas",
        _wrap_lemma(lemma_compact_balanced),
    ),
    SuiteEntry(
        "PushoutsInPsTop",
        "pushout-agreement",
        "pstop-lemmas",
        _wrap_lemma(lemma_pushout_agreement, capped=True),
    ),
    SuiteEntry(
        "TauIotaAdjunction",
        "tau-iota-adjunction",
        "pstop-lemmas",
        _wrap_lemma(lemma_tau_iota),
    ),
    SuiteEntry(
        "PsTopLattice",
        "lattice-bounds",
        "pstop-lemmas",
        _wrap_lemma(lemma_lattice_bounds),
    ),
    SuiteEntry(
        "FinitePsTopCompact",
        "all-compact",
        "pstop-lemmas",
        _wrap_lemma(lemma_all_compact),
    ),
    SuiteEntry(
        "PushProdAndPullPowerLemma",
        "lifting-adjunction",
        "lifting",
        _run_lifting_adjunction,
    ),
    SuiteEntry(
        "PushProdArrowCategory",
        "pushout-product-symmetry",
        "lifting",
        _run_pushout_product_symmetry,
    ),
    SuiteEntry(
        "PushProdIdentity1",
        "pushout-product-units",
        "lifting",
        _run_pushout_product_units,
    ),
    SuiteEntry("SmallObjectArgument", "bounded-soa", "lifting", _run_soa),
)

REGISTRY = {entry.citation: entry for entry in _ENTRIES}

GROUPS = {
    group: tuple(e.citation for e in _ENTRIES if e.group == group)
    for group in ("frames", "colimits", "spatial", "pstop-lemmas", "lifting")
}


def run_suite(citation, options=None):
    """Run one registered suite and time it."""
    entry = REGISTRY[citation]
    opt = options or SuiteOptions()
    start = perf_counter()
    corpus, cases, failures = entry.runner(opt)
    elapsed = perf_counter() - start
    return SuiteReport(
        entry.suite, entry.citation, entry.group, corpus, cases, tuple(failures), elapsed
    )


def _run_remote(args):
    citation, options = args
    return run_suite(citation, options)


def run_group(group, options=None, jobs=1):
    """All suites of one group, in registry order."""
    return _run_many(GROUPS[group], options, jobs)


def run_all(options=None, jobs=1):
    """Every registered suite, in registry order."""
    return _run_many(tuple(REGISTRY), options, jobs)


def _run_many(citations, options, jobs):
    opt = options or SuiteOptions()
    if jobs > 1 and len(citations) > 1:
        # imported here: the pool pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_remote, [(c, opt) for c in citations]))
        return tuple(reports)
    return tuple(run_suite(c, opt) for c in citations)
