"""Canonical JSON encodings and their parsers."""

import json
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitetop import serialize
from finitetop.colimits import coproduct, pushout_loc
from finitetop.errors import CycleError, ParseError
from finitetop.frames import FrameHom, chain_frame, frame_from_poset
from finitetop.lifting import (
    LiftingSquare,
    PreMap,
    Preorder,
    bounded_factorize,
    identity_arrow,
    lifts_against,
    replay_trace,
)
from finitetop.order import isomorphisms
from finitetop.poset import validate_poset
from finitetop.pstop import PsSpace
from finitetop.serialize import (
    LocPushoutData,
    canonical_json,
    iter_canonical_json,
    load_structure,
    parse_structure,
    structure_data,
)

from conftest import antichain_poset, chain_poset, grid_poset, sierpinski, stdlib_canonical_json


def _round_trip(obj):
    text = canonical_json(structure_data(obj))
    parsed = parse_structure(json.loads(text))
    assert canonical_json(structure_data(parsed)) == text
    return parsed


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


# Text with quotes, backslashes, control characters and non-ASCII letters.
_TEXT = st.text(st.sampled_from('ab"\\\x00\x1f\n\t\u00e9\u2028\U0001f600 /'), max_size=6)
_SCALARS = (
    _TEXT
    | st.booleans()
    | st.none()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON = st.recursive(
    _SCALARS | st.lists(st.lists(_TEXT, max_size=3), max_size=5),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example({})
@example([])
@example({"leq": [], "points": [[]]})
@example([["a", "b"], ("c",), []])
@example([[["a"]], "b", {"c": None}])
@example({"x": [1.5, -0.0, float("inf")], "y": [True, False, None, -(2**80)]})
def test_canonical_json_matches_the_stdlib_encoder(data):
    text = canonical_json(data)
    assert text == stdlib_canonical_json(data)
    assert "".join(iter_canonical_json(data)) == text
    # two items a list block and every piece a block of output
    with patch.object(serialize, "_BLOCK_ITEMS", 2), patch.object(serialize, "_BLOCK_CHARS", 1):
        assert "".join(iter_canonical_json(data)) == text


def test_canonical_json_raises_the_stdlib_error_on_unsupported_values():
    for data in ({"a": {1, 2}}, [object()]):
        with pytest.raises(TypeError) as ours:
            canonical_json(data)
        with pytest.raises(TypeError) as stdlib:
            stdlib_canonical_json(data)
        assert str(ours.value) == str(stdlib.value)


@pytest.mark.parametrize("pairs", [False, True], ids=["strings", "pairs"])
def test_a_long_list_streams_in_blocks_of_bounded_size(pairs):
    n = 200_000
    points = [f"s{k:06d}" for k in range(n)]
    data = {"points": [[x, "t"] for x in points] if pairs else points}
    text = stdlib_canonical_json(data)
    blocks = list(iter_canonical_json(data))
    assert "".join(blocks) == text
    # at most one buffer's worth of pieces plus one list block of items,
    # every item as wide as the average
    bound = serialize._BLOCK_CHARS + serialize._BLOCK_ITEMS * len(text) / n
    assert len(blocks) > 20
    assert max(map(len, blocks)) <= bound


def test_poset_round_trip():
    p = grid_poset()
    data = structure_data(p)
    assert data["kind"] == "poset"
    assert data["points"] == ["0", "1", "a", "b"]
    assert ["0", "a"] in data["leq"]
    assert _round_trip(p) == p


def test_poset_relation_omits_reflexive_pairs():
    data = structure_data(chain_poset(3))
    assert all(x != y for x, y in data["leq"])


def _literal_pairs(poset):
    """The strict pairs of a poset with sorted labels, listed the slow way."""
    labels = poset.points
    return [
        [x, y]
        for i, x in enumerate(labels)
        for j, y in enumerate(labels)
        if i != j and poset.up[i] >> j & 1
    ]


def _poset_of_pairs(n):
    """A 32-chain (496 pairs) beside a fan of n - 496 tops over one bottom.

    The fan's row comes last, so block edges at 512 pairs cut inside it.
    """
    chain = [f"c{k:02d}" for k in range(32)]
    tops = [f"g{k:02d}" for k in range(n - 496)]
    pairs = list(zip(chain, chain[1:])) + [("f", t) for t in tops]
    return validate_poset(chain + ["f"] + tops, pairs)


def _chain(labels):
    return validate_poset(labels, list(zip(labels, labels[1:])))


@pytest.mark.parametrize(
    "poset",
    [
        validate_poset([0, 1, 2, 10], [(0, 1), (1, 2), (0, 10)]),
        antichain_poset(3),
        _poset_of_pairs(511),
        _poset_of_pairs(512),
        _poset_of_pairs(513),
        _chain(['"', "\\", "\x01", "\u00e9t\u00e9", "\u2028", "\U0001f600"]),
        validate_poset(list("abcde"), [("b", "c"), ("b", "d"), ("c", "d")]),
        validate_poset(["x", "y"], [("x", "y")]),
    ],
    ids=[
        "integer-labels", "antichain", "511-pairs", "512-pairs", "513-pairs",
        "escaped-labels", "empty-end-rows", "one-pair",
    ],
)
def test_a_streamed_relation_has_the_stdlib_bytes_every_time(poset):
    """Labels of any type and text, and rows empty at either end, as the stdlib writes them."""
    data = structure_data(poset)
    text = canonical_json(data)
    assert text == stdlib_canonical_json(data)
    assert canonical_json(data) == text
    with patch.object(serialize, "_BLOCK_CHARS", 1):
        assert "".join(iter_canonical_json(data)) == text
    assert json.loads(text)["leq"] == _literal_pairs(poset)


def test_a_streamed_relation_reads_like_its_list():
    poset = _poset_of_pairs(513)
    literal = _literal_pairs(poset)
    leq = structure_data(poset)["leq"]
    pairs = list(leq)
    assert (len(leq), pairs[0], pairs[-1], pairs[496]) == (513, literal[0], literal[-1], literal[496])
    cuts = [(0, 513, 1), (30, 530, 1), (510, 497, 1), (-20, None, 1), (None, None, 7), (None, None, -3)]
    for start, stop, step in cuts:
        assert pairs[start:stop:step] == literal[start:stop:step], (start, stop, step)
    assert ["c00", "c31"] in leq
    assert ["f", "g16"] in leq
    assert ["c31", "c00"] not in leq
    with pytest.raises(IndexError):
        pairs[513]
    # a second reading gives the same pairs, and `in` answers as the list does
    assert list(leq) == literal
    for probe in (("c00", "c31"), ["c00", "zz"], ["c00"], "c00", ["f", "f"]):
        assert (probe in leq) == (probe in literal), probe


def test_a_nested_relation_has_the_stdlib_bytes():
    """The apex's relation sits at depth 2, the legs' frames' at depth 3."""
    frame = frame_from_poset(_chain(['"q"', "a\\b", "\u00e9"]))
    ident = FrameHom(frame, frame, range(frame.n))
    data = structure_data(pushout_loc(ident, ident))
    text = stdlib_canonical_json(data)
    assert canonical_json(data) == text
    nested = {"outer": [data, [data["apex"]]]}
    assert canonical_json(nested) == stdlib_canonical_json(nested)


def test_encoding_a_924_element_coproduct_holds_one_block_of_pairs():
    """chain7 (x) chain7 has 225 k relation pairs; built as lists they took 17.7 MiB.

    The encoder holds no pairs, only the encoded labels and one row's text.
    """
    chain7 = chain_frame(7)
    tensor = coproduct(chain7, chain7)
    assert tensor.n == 924
    tracemalloc.start()
    try:
        size = sum(map(len, iter_canonical_json(structure_data(tensor))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 9_000_000
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_frame_round_trip():
    frame = frame_from_poset(chain_poset(3))
    parsed = _round_trip(frame)
    assert parsed == frame


def test_frame_hom_round_trip():
    frame = frame_from_poset(chain_poset(2))
    hom = FrameHom(frame, frame, (0, 1))
    parsed = _round_trip(hom)
    assert parsed == hom
    assert parsed.source == frame


def test_space_round_trip():
    s = sierpinski()
    data = structure_data(s)
    assert data["kind"] == "space"
    assert data["opens"] == [[], ["x", "y"], ["y"]]
    assert _round_trip(s) == s


def test_space_map_round_trip():
    s = sierpinski()
    m = PreMap(s, s, (0, 1))
    assert structure_data(m)["kind"] == "space-map"
    assert _round_trip(m) == m


def test_monotone_map_round_trip():
    p = chain_poset(3)
    m = PreMap(p, p, (0, 0, 1))
    assert structure_data(m)["kind"] == "monotone-map"
    assert _round_trip(m) == m


def test_pstop_round_trip():
    ps = PsSpace.from_lim(
        ["1", "2", "3"], {"1": ["1"], "2": ["1", "2"], "3": ["3"]}
    )
    data = structure_data(ps)
    assert data["kind"] == "pstop"
    assert data["limits"]["2"] == ["1", "2"]
    assert _round_trip(ps) == ps


def test_preorder_round_trip():
    pre = Preorder(("a", "b"), (3, 2))
    data = structure_data(pre)
    assert list(data["leq"]) == [["a", "b"]]
    assert _round_trip(pre) == pre


def test_preorder_parse_closes_transitively():
    data = {
        "kind": "preorder",
        "points": ["x", "y", "z"],
        "leq": [["x", "y"], ["y", "z"]],
    }
    pre = parse_structure(data)
    assert pre.leq_idx(0, 2)


def test_unsorted_labels_parse_to_an_isomorphic_preorder():
    pre = Preorder(("b", "a"), (1, 3))
    parsed = parse_structure(json.loads(canonical_json(structure_data(pre))))
    assert parsed.points == ("a", "b")
    assert next(isomorphisms(pre.up, parsed.up), None) is not None


def test_premap_round_trip():
    pre = Preorder(("a", "b"), (3, 2))
    m = PreMap(pre, pre, (0, 0))
    assert _round_trip(m) == m


def test_lifting_square_round_trip():
    pre = Preorder(("a", "b"), (3, 2))
    ident = identity_arrow(pre)
    square = LiftingSquare(ident, ident, ident, ident)
    parsed = _round_trip(square)
    assert parsed.left == ident and parsed.bottom == ident


def test_lift_verdict_encodes_with_its_witness():
    bad = lifts_against(
        PreMap(Preorder((), ()), Preorder(("p",), (1,)), ()),
        PreMap(Preorder((), ()), Preorder(("p",), (1,)), ()),
    )
    data = structure_data(bad)
    assert data["kind"] == "lift-verdict"
    assert data["holds"] is False
    assert data["witness"]["kind"] == "lifting-square"


def test_loc_pushout_round_trip():
    frame = frame_from_poset(chain_poset(2))
    ident = FrameHom(frame, frame, range(frame.n))
    result = pushout_loc(ident, ident)
    parsed = _round_trip(result)
    assert isinstance(parsed, LocPushoutData)
    assert parsed.apex == result.apex
    assert parsed.proj_b == result.proj_b
    assert parsed.proj_c == result.proj_c


def test_factorization_trace_round_trip_and_replay():
    empty = Preorder((), ())
    pt = Preorder(("p",), (1,))
    d2 = Preorder(("a", "b"), (1, 2))
    cell = PreMap(empty, pt, ())
    trace = bounded_factorize(PreMap(empty, d2, ()), [cell], 2)
    parsed = _round_trip(trace)
    assert parsed == trace
    assert replay_trace(parsed, [cell]) is True


def test_parse_rejects_non_object_data():
    with pytest.raises(ParseError):
        parse_structure([1, 2])


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_structure({"kind": "widget"})


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError):
        parse_structure({"kind": "poset", "points": ["a"]})


def test_parse_rejects_mapping_with_missing_label():
    frame = frame_from_poset(chain_poset(2))
    data = structure_data(FrameHom(frame, frame, (0, 1)))
    data["mapping"]["c0"] = "nowhere"
    with pytest.raises(ParseError):
        parse_structure(data)


def test_parse_rejects_space_with_unknown_point():
    data = {"kind": "space", "points": ["x"], "opens": [[], ["x"], ["y"]]}
    with pytest.raises(ParseError):
        parse_structure(data)


def test_parse_rejects_duplicate_points():
    with pytest.raises(ParseError):
        parse_structure({"kind": "space", "points": ["x", "x"], "opens": [[]]})


def test_cyclic_poset_data_raises_the_order_error():
    data = {
        "kind": "poset",
        "points": ["x", "y"],
        "leq": [["x", "y"], ["y", "x"]],
    }
    with pytest.raises(CycleError):
        parse_structure(data)


def test_dump_rejects_unsupported_objects():
    with pytest.raises(ParseError):
        structure_data(object())


def test_load_structure_reads_files(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(canonical_json(structure_data(sierpinski())), encoding="utf-8")
    assert load_structure(path) == sierpinski()


def test_load_structure_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_structure(path)
    assert "broken.json" in str(err.value)
