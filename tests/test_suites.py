"""Every registered suite at small bounds: verdicts and report bytes."""

import collections
import gc
import hashlib
import itertools
import json
import tracemalloc

import pytest

import finitetop.suites as suites
from finitetop import colimits, frames, lifting, pstop, spatial
from finitetop.cli import run
from finitetop.frames import GaloisConnection, iter_frame_homs, right_adjoint
from finitetop.pstop import PsSpace
from finitetop.serialize import canonical_json
from finitetop.suites import (
    REGISTRY,
    SuiteOptions,
    report_data,
    run_all,
    run_group,
    run_suite,
)

from conftest import (
    clear_lifting_caches,
    cocone_legs_swapped,
    discrete_quotient_rows,
    discrete_space,
    glue_dropping_the_last_pair,
    least_member_only,
    literal_loc_pushout,
    literal_product_distribute,
    nucleus_from_fixed_points_strictly_above,
    pins_ignoring_the_top,
    projection_adjoint_off_by_one,
    tensor_action_dropping_the_last_pair,
    top_sent_to_bottom,
)

SMALL = SuiteOptions(max_points=1, max_frame_size=2)

# sha256 of each suite's canonical report at SMALL; any change to a report
# byte, case count or verdict changes its digest.
DIGESTS = {
    "FrameCoproduct": "372fcdbc9e4b98168253c681fb8b5be0850f45e5ee15f21f214274378060f8bc",
    "GaloisLaws": "1dde191448ecfbf448ce44da4df68139d73fd6c69d9c8fafb0b25672e8890822",
    "NucleusGeneration": "6cb106238298c5b44124a5e194c6dbddf32ca36a9e84f33ea0207bc5c149ab25",
    "ProductDistributeLocale": "23df2b0a2f41523d4dd4a3744e17efb6a612551669be7627032263d4bf48d3aa",
    "LocPushout": "4bfda73d4f43f09a55f5d663c8f45a4ce6fd9fe8f8e049a01d2064f3cd2050e9",
    "LocSpatialProducts": "e399a6803c6aaf827503dc0ab00830c87af28f89c3a4f0f9a577952e8e6a11f5",
    "OmegaPtAdjunction": "1469a0c7079c255b310d506d3936d684c1575d3ab38364247965c95b3c672a94",
    "SubspaceRestiction": "0cdc020f06406d8a18c047f8097f4dc6aaf41943acd8ed3d3bdeb0b7f7b71a98",
    "SubspaceLemma": "5e6793b8af4866215a3bc810f39494119c696f2a2d093d97881808fb364ddb8f",
    "CompactImageCompact": "70da819d835dd57537eabf004e390d936b75011f2241ea7b1f9d637de62205c4",
    "CompactSpacesBalanced": "cbaa8175aad743113490f7247e1de5e35e80e03189fa8b03274ed61368b510b7",
    "PushoutsInPsTop": "fb6aa07a74473b48c9bf5b4ca34787c94dc2aa2a2e7784a40d8c6df26b65a858",
    "TauIotaAdjunction": "1f589c859567ffb5a8be01b0884fdd0b2be81b963fb80838e1302eb4e09fdf7c",
    "PsTopLattice": "d88c105b84785c36a27c22d81693541b9efacb07a9accc849d61f74b27a41db3",
    "FinitePsTopCompact": "01666cd90b956764252b4fdb95a63c0bfc5db161a24456f94eb8e347bfea571c",
    "PushProdAndPullPowerLemma": "cd57d7c531480590ce769e3166885efb8a551e6df4c23a76c16fcc3db5d5d0f1",
    "PushProdArrowCategory": "a4a9a21269e299224dd5859b56fa67c51f0cf0398d087bcee027a83da662f76a",
    "PushProdIdentity1": "b46713b936a7a793f873d9bae897413236aa6a83a617c8bfa8462fd0cfc2ff08",
    "SmallObjectArgument": "8bcb84a86b8a3d8b9034e070d9c1125747552d6ba36e2309f4b73d855ea61130",
}

# sha256 of the frames, colimits and spatial reports at the default bounds
# (frame size 3), where the coproduct and pushout cocones are not trivial.
DEFAULT_DIGESTS = {
    "FrameCoproduct": "8ee7edf33cf8f9c0b50852591c1f39ba02b2bc4b297e8b4625aff73b5ab40aea",
    "GaloisLaws": "0ec81911b8adc6d58e50c9411336f3d1de5855b2845aa10f5b9b6ab1d821ce94",
    "NucleusGeneration": "9e9a5a36809a90a8f95c62537b452ecd2915e4f5b96bf70b4adedb5e03e803f8",
    "ProductDistributeLocale": "4c107990f9fa20656814d0dee498fdc196590eba9bcf39122522aab770b149dc",
    "LocPushout": "785c3e2c989667817bc356e4a835fa1d0797a478ac79914203601a7bba9252f0",
    "LocSpatialProducts": "96b94d800ff2ccc915c26428e9678bc9326f5f30eca04a2853c6a00cd26185e7",
    "OmegaPtAdjunction": "4fb2d0dbd0d3c3644fbf51077ef506d2e0e890ca2b6391c9ad9e970ff08ee66b",
}

# sha256 of the frame colimit and points reports at frame size 4, where hom
# sets out of tensors of four-element frames run into the thousands.
FRAME4_DIGESTS = {
    "FrameCoproduct": "d049eb9f114062672490ffadc4c73575071123af01af68156791d08a4e97b6cb",
    "GaloisLaws": "cde2c274b75b6c801f3fa7eca4d23833012f2eaf104d47f939b4f6901f6ac5e5",
    "LocPushout": "dee0edcce4c306e28923a0d8b7bf669fae1834e790ec7f04dd77c4038515a3ac",
    "OmegaPtAdjunction": "c10b09d4d41cf8aa2ac61532e604940c0d357ab2c264cae92f9441a6b20b222c",
}

# sha256 of the lifting reports at two points and 20 seeded samples, where
# the exhaustive two-point arrow corpus runs in full.
LIFTING2_DIGESTS = {
    "PushProdAndPullPowerLemma": "bd16d0fee40729aaf9a316e98182bf22c2ae3573d67a933d93e4c72739b42879",
    "PushProdArrowCategory": "10521b65ffdeae0496c3b0878e6d15141dff78e054cdb2ab8cd7894c8a0e195e",
}

# sha256 of the lifting reports at the default bounds: the exhaustive
# two-point corpus plus 200 seeded triples of up to three points.
DEFAULT_LIFTING_DIGESTS = {
    "PushProdAndPullPowerLemma": "e19ad4283dcc9cd708df1edcddac2409744dc98a711bb4c97709ed2b73017bd8",
    "PushProdArrowCategory": "84f181311785f35218ab4f0a0a818cd146e88a5b18daa113df5c37fe0d906b73",
    "PushProdIdentity1": "7361fb5d02f8512218a9383872f15aa9d4dfab937093864b2555d93f6d746f82",
    "SmallObjectArgument": "8bcb84a86b8a3d8b9034e070d9c1125747552d6ba36e2309f4b73d855ea61130",
}

# sha256 of the pstop-lemmas reports at the default bounds (three points),
# where the two swept suites check 77,957 and 111,731 instances.
DEFAULT_PSTOP_DIGESTS = {
    "SubspaceRestiction": "5b2ca73d9a1a09f7e0e4650c93937df6ad42929a2fe468fec93cc5315f768641",
    "SubspaceLemma": "b346e709f4031b8fd8204f4ca7fa7ba87a8a4a57f4f2fb12e64a21be3437ab1f",
    "CompactImageCompact": "4975477a5a7096f6f411f2c121092210fdb0fc37cbfb447377158580ee66c461",
    "CompactSpacesBalanced": "6215a15eb8fe5ea61b1c515236d42f211b0283632f5fd6318b241134bc512ead",
    "PushoutsInPsTop": "8401a3caf2780c3f8b7506419fa5b830aca45c40fbeb88d24d64083dc5a0bc1a",
    "TauIotaAdjunction": "c6ea8f2834aae9b7cb865a6b3731913dc592dc6534b8e32b56da9807d4f0125e",
    "PsTopLattice": "4791accd7ff1437c5d189515db49ff6c6dbb30dd8f1388a17e13a3273772aaeb",
    "FinitePsTopCompact": "200d1f1ee5ba6642944cd414fc441633f2ca4b7a4c3006f07043166e8146b9fa",
}


def _digest(report):
    return hashlib.sha256(canonical_json(report_data(report)).encode()).hexdigest()


def test_every_suite_is_ok_with_its_recorded_report_bytes():
    reports = run_all(SMALL)
    assert [r.citation for r in reports] == list(REGISTRY)
    assert set(DIGESTS) == set(REGISTRY)
    for report in reports:
        assert report.ok, (report.citation, report.failures)
        assert _digest(report) == DIGESTS[report.citation], report.citation


def test_unit_bounds_are_accepted():
    opt = SuiteOptions(max_points=1, max_frame_size=1)
    assert run_suite("GaloisLaws", opt).ok


def test_frame_colimit_and_spatial_reports_at_the_default_bounds():
    reports = [
        r for g in ("frames", "colimits", "spatial") for r in run_group(g, SuiteOptions())
    ]
    assert [r.citation for r in reports] == list(DEFAULT_DIGESTS)
    for report in reports:
        assert report.ok, (report.citation, report.failures)
        assert _digest(report) == DEFAULT_DIGESTS[report.citation], report.citation


def test_frame_colimit_and_points_reports_at_frame_size_four():
    opt = SuiteOptions(max_frame_size=4)
    for citation, digest in FRAME4_DIGESTS.items():
        report = run_suite(citation, opt)
        assert report.ok, (citation, report.failures)
        assert _digest(report) == digest, citation


def test_lifting_reports_over_the_exhaustive_two_point_corpus():
    opt = SuiteOptions(max_points=2, samples=20)
    for citation, digest in LIFTING2_DIGESTS.items():
        report = run_suite(citation, opt)
        assert report.ok, (citation, report.failures)
        assert _digest(report) == digest, citation


def test_lifting_reports_at_the_default_bounds():
    for citation, digest in DEFAULT_LIFTING_DIGESTS.items():
        report = run_suite(citation, SuiteOptions())
        assert report.ok, (citation, report.failures)
        assert _digest(report) == digest, citation


def test_a_repeated_hom_shows_as_a_second_mediator(monkeypatch):
    """Uniqueness is certified against every enumerated hom, repeats included."""

    def repeating(source, target):
        # every hom into a larger frame is yielded twice
        for h in iter_frame_homs(source, target):
            yield h
            if target.n > source.n:
                yield h

    monkeypatch.setattr(suites, "iter_frame_homs", repeating)
    coproduct_report = run_suite("FrameCoproduct", SMALL)
    assert coproduct_report.cases == 11
    assert coproduct_report.failures == (
        "{a,b} (x) {a,b} into {a,b,c}: 2 mediators for one cocone",
    ) * 4
    pushout_report = run_suite("LocPushout", SMALL)
    assert pushout_report.cases == 5
    assert pushout_report.failures == ("{a,b} <- {a} -> {a,b}: 2 mediators from {a,b}",)


def test_pstop_lemma_reports_at_the_default_bounds():
    """Three-point corpora, and two-point spans for PushoutsInPsTop."""
    reports = run_group("pstop-lemmas", SuiteOptions())
    assert [r.citation for r in reports] == list(DEFAULT_PSTOP_DIGESTS)
    cases = {r.citation: r.cases for r in reports}
    assert (cases["SubspaceRestiction"], cases["CompactImageCompact"]) == (77957, 111731)
    assert cases["PushoutsInPsTop"] == 106
    for report in reports:
        assert report.ok, (report.citation, report.failures)
        assert _digest(report) == DEFAULT_PSTOP_DIGESTS[report.citation], report.citation


def test_the_swept_pstop_suites_catch_discontinuous_maps(monkeypatch):
    """With every point map passed off as continuous, both swept lemmas fail.

    A restriction of a discontinuous map can be discontinuous, and a
    discontinuous image of a compact-at pair need not be compact-at.
    """

    def every_map(xi, zeta):
        return itertools.product(range(zeta.n), repeat=xi.n)

    monkeypatch.setattr(pstop, "iter_continuous_ps_maps", every_map)
    opt = SuiteOptions(max_points=2)
    restriction = run_suite("SubspaceRestiction", opt)
    image = run_suite("CompactImageCompact", opt)
    assert (restriction.cases, len(restriction.failures)) == (220, 7)
    assert (image.cases, len(image.failures)) == (280, 18)
    canonical_json([report_data(restriction), report_data(image)])


def test_subspace_restriction_catches_subspaces_that_keep_only_the_least_limit(monkeypatch):
    """A `subspace_ps` that keeps only its least member's limit set, and makes
    every other member discrete, restricts some continuous maps to
    discontinuous ones.  The failure list is pinned by its sha256."""
    monkeypatch.setattr(pstop, "subspace_ps", least_member_only(pstop.subspace_ps))
    two = run_suite("SubspaceRestiction", SuiteOptions(max_points=2))
    assert (two.cases, len(two.failures)) == (185, 1)
    assert two.failures[0] == (
        "PsSpace(1->{1,2}, 2->{1,2}) -[1>2,2>1]-> PsSpace(1->{1,2}, 2->{1,2}) "
        "restricted to {1,2} -> {1,2}"
    )
    three = run_suite("SubspaceRestiction", SuiteOptions(max_points=3))
    assert (three.cases, len(three.failures)) == (77957, 1877)
    assert three.failures[0] == two.failures[0]
    digest = hashlib.sha256(canonical_json(list(three.failures)).encode()).hexdigest()
    assert digest == "d8e8f0ab0043493d9f42d28938ec8f33bbcce28da4697c02653e68717a216016"


def _indiscrete_ps(points):
    points = tuple(sorted(points))
    return PsSpace(points, [(1 << len(points)) - 1] * len(points))


@pytest.mark.parametrize(
    "citation, name, mutant, counts",
    [
        ("TauIotaAdjunction", "top_modification", lambda xi: discrete_space(xi.points), (16, 4)),
        ("SubspaceLemma", "subspace_ps", lambda xi, m: _indiscrete_ps(xi.label_set(m)), (10, 2)),
        ("PushoutsInPsTop", "final_structure", lambda pieces, pts: _indiscrete_ps(pts), (106, 80)),
        ("CompactSpacesBalanced", "discrete_ps", _indiscrete_ps, (7, 4)),
    ],
)
def test_the_pstop_suites_catch_a_wrong_construction(monkeypatch, citation, name, mutant, counts):
    """A discrete modification, indiscrete subspaces, an indiscrete final
    structure or an indiscrete Hausdorff target each fails its suite, with
    a report of string witnesses.  FinitePsTopCompact builds nothing to
    break: it checks `is_compact_ps` over the corpus."""
    monkeypatch.setattr(pstop, name, mutant)
    report = run_suite(citation, SuiteOptions(max_points=2))
    assert (report.cases, len(report.failures)) == counts
    canonical_json([report_data(report)])


def test_the_coproduct_suite_catches_a_copair_with_swapped_legs(monkeypatch):
    """Copairing (g, f) for the cocone (f, g), wherever the legs share a
    source, breaks the uniqueness of the mediator for every f != g: the
    mapping is a hom, but not the one filed under the cocone's legs."""
    copair_mapping = suites.copair_mapping

    def swapped(f, g, tensor):
        if f.source == g.source:
            f, g = g, f
        return copair_mapping(f, g, tensor)

    monkeypatch.setattr(suites, "copair_mapping", swapped)
    report = run_suite("FrameCoproduct", SuiteOptions())
    assert not report.ok
    assert (report.cases, len(report.failures)) == (87, 32)
    assert report.failures[0] == "{a,b,c} (x) {a,b,c} into {a,b}: 1 mediators for one cocone"
    assert _failures_digest(report) == (
        "9db46b36e770d443e9a90ee272e16d1fd1c6f7e3882361352dec854509080092"
    )
    canonical_json([report_data(report)])


# Each hom builder's mapping builder, the (source, target) of the hom a
# mapping is for, and the failures digest under `top_sent_to_bottom`.
_MAPPING_BUILDERS = {
    "copair": (
        "copair_mapping",
        lambda f, g, tensor: (tensor, f.target),
        "bde9a88d4dd0992931bae590509b5ddbf208c9cdf8adac1f772554f4a9100bb9",
    ),
    "pushout_mediator": (
        "mediator_mapping",
        lambda result, u, v: (u.source, result.apex),
        "3d111134ade73d50948ff41fe40fbadd3b6ce038f0d295a6e529b464850fef75",
    ),
}


@pytest.mark.parametrize(
    "citation, group, builder, counts, first",
    [
        ("FrameCoproduct", "frames", "copair", (87, 75), "{a,b} (x) {a,b}"),
        ("LocPushout", "colimits", "pushout_mediator", (34, 151), "{a} <- {a} -> {a,b}"),
    ],
)
def test_a_built_map_that_is_no_hom_fails_its_case(
    monkeypatch, capsys, citation, group, builder, counts, first
):
    """A copair or mediator mapping with its top sent to bottom matches no
    certified hom, so the suite certifies it and `FrameHom` refuses it.  The
    suite reports that refusal as a failed case, and `check` exits 1 with
    every report, not 2 with none."""
    name, ends, digest = _MAPPING_BUILDERS[builder]
    monkeypatch.setattr(suites, name, top_sent_to_bottom(getattr(suites, name), ends))
    report = run_suite(citation, SuiteOptions())
    assert (report.cases, len(report.failures)) == counts
    assert report.failures[0] == f"{first}: top is not preserved"
    assert all(f.endswith(": top is not preserved") for f in report.failures)
    assert _failures_digest(report) == digest
    capsys.readouterr()
    assert run(["check", group]) == 1
    reports = {r["citation"]: r for r in json.loads(capsys.readouterr().out)}
    assert reports[citation]["failures"] == list(report.failures)
    assert [c for c, r in reports.items() if not r["ok"]] == [citation]


def test_the_galois_suite_catches_an_adjoint_off_by_one_value(monkeypatch):
    """A right adjoint whose value at the last target element is moved to
    the next source element breaks the adjunction law for every hom out of
    a frame of two or more elements."""

    def off_by_one(hom):
        right = list(right_adjoint(hom).right)
        right[-1] = (right[-1] + 1) % hom.source.n
        return GaloisConnection(hom, right)

    monkeypatch.setattr(suites, "right_adjoint", off_by_one)
    report = run_suite("GaloisLaws", SuiteOptions(max_frame_size=4))
    assert (report.cases, len(report.failures)) == (60, 59)
    assert report.failures[0] == "{a,b} -> {a}: adjunction law fails"
    assert _failures_digest(report) == (
        "b7501b81df395a9d8da1bd3af1f81f7df0632f0ffd023eac302a7abdedff5472"
    )
    canonical_json([report_data(report)])


def test_the_pushout_suite_catches_a_mediator_that_pairs_the_wrong_coordinates(monkeypatch):
    """A mediator that reads its first coordinate from the second cocone
    leg and its second from the first, wherever the span's two frames
    agree, breaks the cocone check or the uniqueness of the mediator."""
    monkeypatch.setattr(
        suites, "mediator_mapping", cocone_legs_swapped(suites.mediator_mapping)
    )
    report = run_suite("LocPushout", SuiteOptions())
    assert (report.cases, len(report.failures)) == (34, 28)
    kinds = collections.Counter(failure.split(": ")[1] for failure in report.failures)
    assert kinds == {
        "1 mediators from {a,b,c}": 16,
        "the cocone does not commute with the span": 12,
    }
    assert report.failures[0] == "{a,b} <- {a} -> {a,b}: 1 mediators from {a,b,c}"
    assert _failures_digest(report) == (
        "f424a193d597861ff65b31320a77bb20070e7c53926eb5bb2dec6d01b788e6aa"
    )
    canonical_json([report_data(report)])


@pytest.mark.parametrize("size", [3, 4])
@pytest.mark.parametrize("mutant", ["as-built", "legs-swapped", "projection-adjoint"])
def test_the_pushout_suite_matches_the_per_span_loop(monkeypatch, size, mutant):
    """Building each apex and checking its cocones once per distinct
    pushout reports what pushing out and checking every span does: the
    same cases and the same failures in the same order, with correct
    mediators, with cocone legs swapped, and with projection adjoints that
    fail their law.  That last refusal is raised in `pushout_apex`, which
    the suite runs once per distinct pushout, so every span of a refused
    pushout must report it under its own tag, in span order; the counts
    are those of the per-span loop the suite ran before the split.  The
    loop builds and certifies each mediator with `pushout_mediator`, and
    with legs swapped its mutant is the same swap of that hom builder."""
    mediator = colimits.pushout_mediator
    if mutant == "legs-swapped":
        mediator = cocone_legs_swapped(mediator)
        monkeypatch.setattr(
            suites, "mediator_mapping", cocone_legs_swapped(suites.mediator_mapping)
        )
    elif mutant == "projection-adjoint":
        monkeypatch.setattr(
            colimits, "right_adjoint", projection_adjoint_off_by_one(colimits.right_adjoint)
        )
    report = run_suite("LocPushout", SuiteOptions(max_frame_size=size))
    assert (report.cases, list(report.failures)) == literal_loc_pushout(size, mediator)
    if mutant == "projection-adjoint":
        assert (report.cases, len(report.failures)) == {3: (34, 24), 4: (846, 569)}[size]
        assert {f.split(": ", 1)[1] for f in report.failures} == {"adjunction law fails"}
        assert report.failures[0] == "{a} <- {a} -> {a,b}: adjunction law fails"
        assert _failures_digest(report) == {
            3: "c897b4aecec3b1c7999a211de90710be99aa6c7c6aafcfaec5ec7a0cad00538c",
            4: "ec7f5f26d89186c638257e21e3c2d86d0cbf7b916b4df8c5d7f4fc5275361af4",
        }[size]
    else:
        assert bool(report.failures) == (mutant == "legs-swapped")


def test_the_pushout_suite_checks_each_distinct_pushout_once(monkeypatch):
    """At frame size 4 the 846 spans have 236 distinct pushouts.  Each
    apex is built once, and its cocones are checked once: 5,763 mediator
    mappings, not one per cocone of every span (19,478), and each matches
    a certified hom, so no mediator is certified.  Homs are enumerated 970
    times, not 3,410: the 25 hom sets between corpus frames, and 945 sets
    of homs into an apex.  Every span checks its own square."""
    calls = collections.Counter()

    def counted(name):
        original = getattr(suites, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(suites, name, wrapper)

    names = ("pushout_apex", "pushout_square", "mediator_mapping", "iter_frame_homs", "FrameHom")
    for name in names:
        counted(name)
    report = run_suite("LocPushout", SuiteOptions(max_frame_size=4))
    assert report.ok
    assert report.cases == 846
    assert calls == {
        "pushout_apex": 236,
        "pushout_square": 846,
        "mediator_mapping": 5763,
        "iter_frame_homs": 970,
    }


def test_the_frame_suites_certify_each_hom_once(monkeypatch):
    """`frames._check_hom` runs at frame size 4, per suite of the frames,
    colimits and spatial groups.  The colimit suites certify no copair,
    mediator or injection that equals a hom `iter_frame_homs` has already
    certified: `FrameCoproduct` ran it 4,923 times and `LocPushout` 12,058
    times when they certified each copair and mediator, and read
    `iota1`/`iota2`, before comparing them with the enumerated homs."""
    calls = collections.Counter()
    check_hom = frames._check_hom
    citation = None

    def counted(*args):
        calls[citation] += 1
        return check_hom(*args)

    monkeypatch.setattr(frames, "_check_hom", counted)
    for group in ("frames", "colimits", "spatial"):
        for citation in suites.GROUPS[group]:
            assert run_suite(citation, SuiteOptions(max_frame_size=4)).ok
    assert calls == {
        "FrameCoproduct": 2530,
        "GaloisLaws": 60,
        "ProductDistributeLocale": 800,
        "LocPushout": 6295,
        "LocSpatialProducts": 164,
        "OmegaPtAdjunction": 544,
    }


def _count_builds(monkeypatch, names):
    """Count the calls of each named function, wherever colimits or suites call it."""
    calls = collections.Counter()
    for name in names:
        original = getattr(colimits, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (colimits, suites):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "citation, counts",
    [
        # 375 coproducts and 250 products before tensors were built once
        ("ProductDistributeLocale", {"coproduct": 150, "product_frames": 150}),
        # 846 apexes and 3,384 right adjoints before apexes were built once
        ("LocPushout", {"TupleFrame": 236, "right_adjoint": 532}),
    ],
)
def test_the_colimit_suites_build_each_piece_once(monkeypatch, citation, counts):
    """At frame size 4 each distinct piece is built once per run.

    ProductDistributeLocale: the 25 tensors L (x) M and 25 products
    M1 x M2 of the pool pairs, and per triple of the 125 the tensor
    L (x) (M1 x M2) and the product of the two tensors.  LocPushout: one
    apex per distinct pushout (236), the right adjoints of its two
    projections (472) and of each of the 60 span homs once.
    """
    calls = _count_builds(monkeypatch, counts)
    report = run_suite(citation, SuiteOptions(max_frame_size=4))
    assert report.ok
    assert calls == counts


def test_the_pushout_suite_keeps_no_apex(monkeypatch):
    """Past its first span, a distinct pushout keeps only its two leg right
    maps and its messages: the suite's heap peak at frame size 4 stays
    under 0.8 MiB, which a memo holding every one of the 236 apexes, with
    its projections and legs, breaks."""
    opt = SuiteOptions(max_frame_size=4)
    run_suite("LocPushout", opt)
    gc.collect()
    tracemalloc.start()
    try:
        run_suite("LocPushout", opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 2**20


@pytest.mark.parametrize("size", [3, 4])
@pytest.mark.parametrize("mutated", [False, True], ids=["as-built", "pair-dropped"])
def test_the_distribution_suite_matches_the_per_triple_loop(monkeypatch, size, mutated):
    """Building each tensor L (x) M and each product M1 x M2 once per run
    reports what calling `distribute_iso` on every triple does: the same
    cases and the same failures in the same order, as built and with a
    tensor action that drops the last irreducible pair (96 of 125 triples
    fail at frame size 4)."""
    if mutated:
        monkeypatch.setattr(colimits, "_tensor_action", tensor_action_dropping_the_last_pair)
    report = run_suite("ProductDistributeLocale", SuiteOptions(max_frame_size=size))
    assert (report.cases, list(report.failures)) == literal_product_distribute(size)
    if mutated:
        assert (report.cases, len(report.failures)) == {3: (27, 16), 4: (125, 96)}[size]
    else:
        assert report.ok


def test_the_distribution_suite_catches_a_tensor_action_missing_a_pair(monkeypatch):
    """A tensor action that drops the last irreducible pair of its source
    sends distinct elements to one image, or to one that is no hom."""
    monkeypatch.setattr(colimits, "_tensor_action", tensor_action_dropping_the_last_pair)
    report = run_suite("ProductDistributeLocale", SuiteOptions())
    assert (report.cases, len(report.failures)) == (27, 16)
    assert report.failures[0] == (
        "{a,b} over {a} x {a,b}: the distribution map is not an order isomorphism"
    )
    assert _failures_digest(report) == (
        "9158c16f827b0f886188a79f51617dc4808676c46140a5389b127e7a6298bb2e"
    )
    canonical_json([report_data(report)])


def test_the_points_suite_catches_a_locale_missing_its_last_point(monkeypatch):
    """With `locale_points` dropping its last point, the points of the opens
    of every sober space lose a point, every frame with a point is not
    spatial, and transposition against such a frame is no bijection."""
    points = spatial.locale_points
    monkeypatch.setattr(spatial, "locale_points", lambda frame: points(frame)[:-1])
    report = run_suite("OmegaPtAdjunction", SuiteOptions())
    assert (report.cases, len(report.failures)) == (39, 26)
    assert report.failures[0] == "{a|2 opens}: points of opens changed the space"
    assert _failures_digest(report) == (
        "70eae94983e32a82c76236493783e5065f204fb1951f2f32936604a15e3c4c70"
    )
    canonical_json([report_data(report)])


def test_the_spatial_products_suite_catches_a_discrete_product(monkeypatch):
    """With `product_spaces` returning the discrete space on the product's
    points, the tensor of the opens misses the opens of the product
    wherever a factor has a non-trivial specialization order."""
    product_spaces = suites.product_spaces

    def discrete_product(x, y):
        space, _, _ = product_spaces(x, y)
        return discrete_space(space.points), None, None

    monkeypatch.setattr(suites, "product_spaces", discrete_product)
    report = run_suite("LocSpatialProducts", SuiteOptions())
    assert (report.cases, len(report.failures)) == (82, 55)
    assert report.failures[0] == "{a|2 opens} x {a,b|3 opens}: tensor misses the opens"
    assert _failures_digest(report) == (
        "1fb377cc830818b21c8d32eff952413c70553fb0fb3ae1bc33d6ff649e46bfa0"
    )
    canonical_json([report_data(report)])


def _failures_digest(report):
    return hashlib.sha256("\n".join(report.failures).encode()).hexdigest()


def test_the_adjunction_suite_catches_diagonals_that_ignore_the_top(monkeypatch):
    """With pins that read only the bottom, some corners and powers disagree.

    The mutant's verdicts are cleared before and after, so none outlives
    the run in a cache.  The digest pins the failures in their order.
    """
    monkeypatch.setattr(lifting, "_diagonal_pins", pins_ignoring_the_top)
    clear_lifting_caches()
    try:
        report = run_suite("PushProdAndPullPowerLemma", SuiteOptions(max_points=2))
    finally:
        clear_lifting_caches()
    assert (report.cases, len(report.failures)) == (85384, 5376)
    assert report.failures[0] == "[] / [a>a,b>a] / [a>a,b>a]"
    assert _failures_digest(report) == (
        "d09e0504d4de46d341651c749a448b4515c77389c6012c0d56716a1a34f57b60"
    )


def test_the_arrow_category_suite_catches_a_corner_missing_one_gluing(monkeypatch):
    """With the last gluing pair of every corner dropped, the two
    bracketings of a triple glue different classes, the certified
    associators fail, and a relabelled factor changes the corner.

    The corners and verdicts are cleared before and after, so none
    outlives the run in a cache.
    """
    monkeypatch.setattr(lifting, "glue", glue_dropping_the_last_pair)
    clear_lifting_caches()
    try:
        report = run_suite("PushProdArrowCategory", SuiteOptions(max_points=2))
    finally:
        clear_lifting_caches()
    assert (report.cases, len(report.failures)) == (88972, 49596)
    kinds = collections.Counter(failure.split(" ")[0] for failure in report.failures)
    assert kinds == {"assoc": 49032, "associator": 404, "relabel": 2, "seeded": 158}
    assert report.failures[0] == "assoc [] / [a>a] / [a>a]"
    assert _failures_digest(report) == (
        "d5def3f7f257767acaa6f6edec3896f6371bfce0b7822a6ec4eff83c4c1979a4"
    )
    canonical_json([report_data(report)])


def test_the_nucleus_suite_catches_a_nucleus_of_the_points_strictly_above(monkeypatch):
    """Sending x to the meet of the fixed points strictly above it moves
    every fixed point but the top.  For 34 of the 200 seeded prenuclei the
    map is then not idempotent, and `Nucleus` refuses it; the other 57
    failures are valid nuclei whose values are not fixed by the prenucleus,
    which the suite catches by comparing with the prenucleus's fixed points."""
    monkeypatch.setattr(suites, "nucleus_from_prenucleus", nucleus_from_fixed_points_strictly_above)
    report = run_suite("NucleusGeneration", SuiteOptions())
    assert (report.cases, len(report.failures)) == (200, 91)
    assert report.failures[0] == "{a,b,c} sample 1: not idempotent at 'a'"
    kinds = collections.Counter(failure.split(": ")[1].split(" at ")[0] for failure in report.failures)
    assert kinds == {"not idempotent": 34, "value": 57}
    assert _failures_digest(report) == (
        "3dcb823eb5dfcfd737d65135a3b19289f1a1caf6101558990a2f01ec6608d8d9"
    )
    canonical_json([report_data(report)])


def test_the_unit_suite_catches_corners_that_forget_their_order(monkeypatch):
    """With every corner's classes left unordered, the corner of
    (empty -> A) with f is no longer isomorphic to id_A x f wherever the
    ends of that product have an order.

    The corners and verdicts are cleared before and after, so none
    outlives the run in a cache.
    """
    monkeypatch.setattr(lifting, "quotient_rows", discrete_quotient_rows)
    clear_lifting_caches()
    try:
        report = run_suite("PushProdIdentity1", SuiteOptions())
    finally:
        clear_lifting_caches()
    assert (report.cases, len(report.failures)) == (221, 116)
    assert report.failures[0] == "{a|2 opens} with [a>a,b>a]"
    assert _failures_digest(report) == (
        "ca8e0021eaa922a5b2c975048414af3dedf90dec1d9baf740017cc2aecca2d52"
    )
    canonical_json([report_data(report)])


def test_a_process_pool_gives_the_serial_reports():
    serial = run_group("frames", SMALL)
    pooled = run_group("frames", SMALL, jobs=2)
    assert [canonical_json(report_data(r)) for r in pooled] == [
        canonical_json(report_data(r)) for r in serial
    ]
