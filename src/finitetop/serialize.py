"""Canonical JSON encoding and decoding of the package structures.

Every encoder emits plain dicts tagged with a "kind" key, with point
labels listed sorted and relations as sorted label pairs, so equal
structures always produce equal bytes.  Decoders rebuild through the
validating constructors, so a parse is also a structural check.  Volatile
report fields (wall time) are excluded from the canonical form to keep
reports reproducible byte for byte.

The canonical text is `json.dumps(data, sort_keys=True, indent=2,
ensure_ascii=False)` plus a newline, but it is not made by the stdlib:
with `indent` set, CPython's `json` never uses its C encoder and walks
the data in pure-Python generators a token at a time, which made writing
a large frame cost more than building it.  `iter_canonical_json` walks
dicts (keys sorted), lists and tuples itself and streams the text in
blocks.  A list of strings or of lists of strings, as every `points` and
every space's `opens` is, is encoded `_BLOCK_ITEMS` items at a time: each
string goes through the C escaper `json.encoder.encode_basestring` once,
and the block is one `str.join`.  Other scalars are encoded as the stdlib
encodes them, floats by the stdlib itself.  The tests hold the stdlib encoder as
the oracle of these bytes.

Relations are written row by row.  The `leq` of a poset, frame or preorder
is no list of pairs but a read-only collection over the structure's sorted
rows: it has a length, iterates its pairs and answers `in` like the list
would.  The encoder never builds its pairs: it encodes each label once and
writes each non-empty row as one piece, the row's targets picked from the
encoded labels and joined by one `str.join`.  Give `json.dumps`
`default=list` to encode such data with the stdlib.
"""

from __future__ import annotations

import json
from collections.abc import Collection
from dataclasses import dataclass
from itertools import compress

from .bits import iter_bits
from .colimits import PushoutLocaleResult
from .errors import ParseError
from .frames import FiniteFrame, FrameHom, frame_from_poset
from .lifting import COMPLETE, PARTIAL, CellStage, FactorizationTrace, LiftingSquare, LiftVerdict
from .order import sort_labels, transitive_closure
from .poset import FinitePoset, PreMap, Preorder, validate_poset
from .pstop import PsSpace
from .spaces import FiniteSpace


# Encodes the scalars other than str, int, bool and None (floats) as the
# stdlib does, and raises the stdlib's TypeError on anything else.
_ENCODER = json.JSONEncoder()
_ESCAPE = json.encoder.encode_basestring

# Items of a list encoded into one piece, and characters of pieces joined
# into one block of streamed output.  Of 128 to 4096 items, 512 encoded
# the 924-element coproduct fastest while its relation was a list of
# pairs, and it keeps peak memory at what the stdlib encoder needed.
_BLOCK_ITEMS = 512
_BLOCK_CHARS = 1 << 16

_SEQUENCES = {list, tuple}


def iter_canonical_json(data):
    """The canonical text of data in blocks: sorted keys, two-space indent, newline end.

    Streaming keeps a large structure from holding its whole text in memory;
    the blocks concatenate to exactly `canonical_json(data)`.
    """
    buffer, size = [], 0
    for piece in _pieces(data, 0):
        buffer.append(piece)
        size += len(piece)
        if size >= _BLOCK_CHARS:
            yield "".join(buffer)
            buffer, size = [], 0
    buffer.append("\n")
    yield "".join(buffer)


def canonical_json(data):
    """Deterministic text form: sorted keys, two-space indent, newline end."""
    return "".join(iter_canonical_json(data))


def _scalar(o):
    if isinstance(o, str):
        return _ESCAPE(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return _ENCODER.encode(o)


def _pieces(o, depth):
    """The text of o at nesting depth `depth`, in pieces."""
    if isinstance(o, dict):
        yield from _dict_pieces(o, depth)
    elif isinstance(o, (list, tuple, _Relation)):
        yield from _list_pieces(o, depth)
    else:
        yield _scalar(o)


def _dict_pieces(o, depth):
    """Keys are strings, as every label and field name is."""
    if not o:
        yield "{}"
        return
    newline = "\n" + "  " * (depth + 1)
    opening = "{" + newline
    for key, value in sorted(o.items()):
        yield opening + _ESCAPE(key) + ": "
        opening = "," + newline
        yield from _pieces(value, depth + 1)
    yield "\n" + "  " * depth + "}"


def _list_pieces(o, depth):
    if not o:
        yield "[]"
        return
    if isinstance(o, _Relation):
        yield from o.row_pieces(depth)
        return
    newline = "\n" + "  " * (depth + 1)
    separator = "," + newline
    opening = "[" + newline
    for start in range(0, len(o), _BLOCK_ITEMS):
        block = o[start:start + _BLOCK_ITEMS]
        text = _flat_block(block, depth + 1, separator)
        if text is not None:
            yield opening
            yield text
            opening = separator
            continue
        for item in block:
            yield opening
            opening = separator
            yield from _pieces(item, depth + 1)
    yield "\n" + "  " * depth + "]"


def _flat_block(block, depth, separator):
    """One string for a block of strings or of lists of strings, else None.

    These are the `points`, `opens` and `limits` lists; each string goes
    through the C escaper once and the block is one join.
    """
    try:
        return separator.join(map(_ESCAPE, block))
    except TypeError:
        pass
    if not set(map(type, block)) <= _SEQUENCES:
        return None
    newline = "\n" + "  " * (depth + 1)
    opening, inner, closing = "[" + newline, "," + newline, "\n" + "  " * depth + "]"
    try:
        return separator.join(
            [opening + inner.join(map(_ESCAPE, item)) + closing if item else "[]" for item in block]
        )
    except TypeError:
        return None


def _map_kind(source):
    if isinstance(source, FinitePoset):
        return "monotone-map"
    if isinstance(source, FiniteSpace):
        return "space-map"
    return "premap"


def _mask_labels(labels, mask):
    return [labels[i] for i in iter_bits(mask)]


def _row_flags(row):
    """Whether each bit of row is set, lowest first: a `compress` selector."""
    return map("1".__eq__, bin(row)[:1:-1])


class _Relation(Collection):
    """The strict pairs of sorted rows, as [x, y] label lists read in row order.

    Labels sorted and distinct make row order sorted.  Nothing holds the
    pairs: iteration builds them a row at a time, and the encoder writes
    each row's text without them, so the relation reads the same every time.
    """

    def __init__(self, labels, rows):
        self._labels = labels
        self._rows = [row & ~(1 << i) for i, row in enumerate(rows)]
        self._len = sum(map(int.bit_count, self._rows))

    def __len__(self):
        return self._len

    def __iter__(self):
        labels = self._labels
        for x, row in zip(labels, self._rows):
            for y in compress(labels, _row_flags(row)):
                yield [x, y]

    def __contains__(self, pair):
        if not isinstance(pair, list) or len(pair) != 2:
            return False
        try:
            i, j = self._labels.index(pair[0]), self._labels.index(pair[1])
        except ValueError:
            return False
        return self._rows[i] >> j & 1 == 1

    def row_pieces(self, depth):
        """The text of the nonempty relation at nesting depth `depth`, one piece per nonempty row.

        Each label is encoded once, at the depth of a pair's items.  A row's
        text is one join of its targets' encoded labels, each pair's close
        and the next pair's opening with the row's own label between them.
        """
        newline = "\n" + "  " * (depth + 1)
        inner = "\n" + "  " * (depth + 2)
        close = newline + "]"
        encoded = ["".join(_pieces(label, depth + 2)) for label in self._labels]
        opening = "[" + newline
        for x, row in zip(encoded, self._rows):
            if row:
                head = "[" + inner + x + "," + inner
                targets = compress(encoded, _row_flags(row))
                yield opening + head + (close + "," + newline + head).join(targets) + close
                opening = "," + newline
        yield "\n" + "  " * depth + "]"


def _order_data(kind, labels, up):
    sorted_labels, rows = sort_labels(labels, up)
    return {
        "kind": kind,
        "points": sorted_labels,
        "leq": _Relation(sorted_labels, rows),
    }


def _map_data(kind, source, target, mapping, source_labels, target_labels):
    return {
        "kind": kind,
        "source": source,
        "target": target,
        "mapping": {
            source_labels[i]: target_labels[v] for i, v in enumerate(mapping)
        },
    }


@dataclass(frozen=True)
class LocPushoutData:
    """Pushout components as parsed back from a report."""

    apex: FiniteFrame
    proj_b: FrameHom
    proj_c: FrameHom


def structure_data(obj):
    """Encode a supported structure as canonical JSON data."""
    if isinstance(obj, FinitePoset):
        return _order_data("poset", obj.points, obj.up)
    if isinstance(obj, FiniteFrame):
        return _order_data("frame", obj.order.points, obj.order.up)
    if isinstance(obj, FrameHom):
        return _map_data(
            "frame-hom",
            structure_data(obj.source),
            structure_data(obj.target),
            obj.mapping,
            obj.source.labels,
            obj.target.labels,
        )
    if isinstance(obj, (PushoutLocaleResult, LocPushoutData)):
        return {
            "kind": "loc-pushout",
            "apex": structure_data(obj.apex),
            "left-leg": structure_data(obj.proj_b),
            "right-leg": structure_data(obj.proj_c),
        }
    if isinstance(obj, FiniteSpace):
        return {
            "kind": "space",
            "points": list(obj.points),
            "opens": sorted(
                sorted(_mask_labels(obj.points, m)) for m in obj.opens
            ),
        }
    if isinstance(obj, PsSpace):
        return {
            "kind": "pstop",
            "points": list(obj.points),
            "limits": {
                x: sorted(_mask_labels(obj.points, obj.lim[i]))
                for i, x in enumerate(obj.points)
            },
        }
    if isinstance(obj, Preorder):
        return _order_data("preorder", obj.points, obj.up)
    if isinstance(obj, PreMap):
        return _map_data(
            _map_kind(obj.source),
            structure_data(obj.source),
            structure_data(obj.target),
            obj.mapping,
            obj.source.points,
            obj.target.points,
        )
    if isinstance(obj, LiftingSquare):
        return {
            "kind": "lifting-square",
            "left": structure_data(obj.left),
            "right": structure_data(obj.right),
            "top": structure_data(obj.top),
            "bottom": structure_data(obj.bottom),
        }
    if isinstance(obj, LiftVerdict):
        return {
            "kind": "lift-verdict",
            "holds": obj.holds,
            "witness": None if obj.witness is None else structure_data(obj.witness),
        }
    if isinstance(obj, FactorizationTrace):
        stages = []
        complex_points = obj.original.source.points
        target_points = obj.original.target.points
        for stage in obj.stages:
            stages.append(
                {
                    "problems": [
                        {
                            "generator": t,
                            "top": [complex_points[v] for v in top],
                            "bottom": [target_points[v] for v in bottom],
                        }
                        for t, top, bottom in stage.problems
                    ],
                    "attached": structure_data(stage.attached),
                    "step": structure_data(stage.step),
                    "cells": structure_data(stage.cells),
                    "right": structure_data(stage.right),
                }
            )
            complex_points = stage.attached.points
        return {
            "kind": "factorization-trace",
            "original": structure_data(obj.original),
            "verdict": obj.verdict,
            "stages": stages,
            "left": structure_data(obj.left),
            "right": structure_data(obj.right),
        }
    raise ParseError(f"no encoding for {type(obj).__name__}")


def _expect(data, kind):
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise ParseError(f"expected a {kind} object")


def _label_pairs(kind, relation):
    """The entries of a relation, passed through as they are read; each must be two labels."""
    for entry in relation:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"malformed {kind} data: relation entry {entry!r} is not a pair of labels")
        yield entry


def _parse_poset(data):
    _expect(data, "poset")
    return validate_poset(data["points"], _label_pairs("poset", data["leq"]))


def _parse_frame(data):
    _expect(data, "frame")
    poset = validate_poset(data["points"], _label_pairs("frame", data["leq"]))
    return frame_from_poset(poset)


def _positional(mapping, source_labels, target_labels):
    index = {x: i for i, x in enumerate(target_labels)}
    try:
        return [index[mapping[x]] for x in source_labels]
    except KeyError as miss:
        raise ParseError(f"mapping misses label {miss}") from None


def _parse_frame_hom(data):
    _expect(data, "frame-hom")
    source = _parse_frame(data["source"])
    target = _parse_frame(data["target"])
    mapping = _positional(data["mapping"], source.labels, target.labels)
    return FrameHom(source, target, mapping)


def _parse_space(data):
    _expect(data, "space")
    points = sorted(data["points"])
    if len(set(points)) != len(points):
        raise ParseError("duplicate points")
    index = {x: i for i, x in enumerate(points)}
    opens = []
    for members in data["opens"]:
        m = 0
        for x in members:
            if x not in index:
                raise ParseError(f"open set mentions unknown point {x!r}")
            m |= 1 << index[x]
        opens.append(m)
    return FiniteSpace.from_opens(points, opens)


def _parse_map(kind, parse_end):
    def parse(data):
        _expect(data, kind)
        source = parse_end(data["source"])
        target = parse_end(data["target"])
        mapping = _positional(data["mapping"], source.points, target.points)
        return PreMap(source, target, mapping)

    return parse


def _parse_pstop(data):
    _expect(data, "pstop")
    return PsSpace.from_lim(data["points"], data["limits"])


def _parse_preorder(data):
    _expect(data, "preorder")
    points = sorted(data["points"])
    if len(set(points)) != len(points):
        raise ParseError("duplicate points")
    index = {x: i for i, x in enumerate(points)}
    rows = [1 << i for i in range(len(points))]
    for x, y in _label_pairs("preorder", data["leq"]):
        if x not in index or y not in index:
            raise ParseError("relation mentions unknown labels")
        rows[index[x]] |= 1 << index[y]
    return Preorder(points, transitive_closure(rows))


_parse_premap = _parse_map("premap", _parse_preorder)


def _parse_loc_pushout(data):
    apex = _parse_frame(data["apex"])
    left = _parse_frame_hom(data["left-leg"])
    right = _parse_frame_hom(data["right-leg"])
    if left.source != apex or right.source != apex:
        raise ParseError("pushout legs must start at the apex")
    return LocPushoutData(apex, left, right)


def _parse_square(data):
    _expect(data, "lifting-square")
    return LiftingSquare(
        _parse_premap(data["left"]),
        _parse_premap(data["right"]),
        _parse_premap(data["top"]),
        _parse_premap(data["bottom"]),
    )


def _generator_index(value):
    """A problem's generator: a non-negative int, for it indexes the generator list."""
    if type(value) is not int or value < 0:
        raise ParseError(f"a problem's generator must be a non-negative index, got {value!r}")
    return value


def _parse_trace(data):
    _expect(data, "factorization-trace")
    if data["verdict"] not in (COMPLETE, PARTIAL):
        raise ParseError(f"unknown trace verdict {data['verdict']!r}")
    original = _parse_premap(data["original"])
    complex_index = {x: i for i, x in enumerate(original.source.points)}
    target_index = {x: i for i, x in enumerate(original.target.points)}
    stages = []
    for stage in data["stages"]:
        problems = tuple(
            (
                _generator_index(p["generator"]),
                tuple(complex_index[x] for x in p["top"]),
                tuple(target_index[x] for x in p["bottom"]),
            )
            for p in stage["problems"]
        )
        attached = _parse_preorder(stage["attached"])
        stages.append(
            CellStage(
                problems,
                attached,
                _parse_premap(stage["step"]),
                _parse_premap(stage["cells"]),
                _parse_premap(stage["right"]),
            )
        )
        complex_index = {x: i for i, x in enumerate(attached.points)}
    return FactorizationTrace(
        original,
        tuple(stages),
        _parse_premap(data["left"]),
        _parse_premap(data["right"]),
        data["verdict"],
    )


_PARSERS = {
    "poset": _parse_poset,
    "frame": _parse_frame,
    "frame-hom": _parse_frame_hom,
    "space": _parse_space,
    "space-map": _parse_map("space-map", _parse_space),
    "monotone-map": _parse_map("monotone-map", _parse_poset),
    "pstop": _parse_pstop,
    "loc-pushout": _parse_loc_pushout,
    "preorder": _parse_preorder,
    "premap": _parse_premap,
    "lifting-square": _parse_square,
    "factorization-trace": _parse_trace,
}


def parse_structure(data):
    """Decode canonical JSON data into the structure it describes."""
    if not isinstance(data, dict):
        raise ParseError("structure data must be an object")
    kind = data.get("kind")
    if kind not in _PARSERS:
        raise ParseError(f"unknown structure kind {kind!r}")
    try:
        return _PARSERS[kind](data)
    except ParseError:
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed {kind} data: {exc}") from None


def load_structure(path):
    """Read and decode one canonical JSON file."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return parse_structure(data)
