"""The benchmark's workloads: suite bounds, command lists and seeded inputs.

This module never imports ``finitetop``: the inputs and the expected
invariants are computed here, independently of the program under test.
"""

from __future__ import annotations

import json
import os
import random
from itertools import product
from math import comb, prod

WORKLOADS = ("check-default", "check-frames4", "structures")

# Seeds are folded onto this many slots; the reference file holds the
# expected outputs of every slot, recorded once on commit b444f04.
SEED_SLOTS = 8


def seed_slot(seed):
    return seed % SEED_SLOTS


# --- suite workloads ----------------------------------------------------------

# Suite bounds per workload and mode.  "quick" is a tiny bound set for the
# benchmark's own tests; max_points=1 keeps the exhaustive two-point lifting
# corpus out of it.
SUITE_BOUNDS = {
    "check-default": {
        "full": {},
        "quick": {"max_points": 1, "max_frame_size": 2, "samples": 10},
    },
    "check-frames4": {
        "full": {"max_frame_size": 4},
        "quick": {"max_points": 1, "max_frame_size": 2, "samples": 10},
    },
}

# The groups a workload runs; None means `run_all`.
SUITE_GROUPS = {
    "check-default": None,
    "check-frames4": ("frames", "colimits", "spatial"),
}


def corpora(workload, bounds):
    """The corpus calls a suite workload makes during set-up: (name, args)."""
    frames = bounds.get("max_frame_size", 3)
    points = bounds.get("max_points", 3)
    calls = [
        ("frames_upto", (frames,)),
        ("frames_upto", (frames + 1,)),
        ("frames_upto", (max(frames, 2),)),
        ("spaces_upto", (points, True)),
    ]
    if SUITE_GROUPS[workload] is None:
        calls += [("spaces_upto", (points,)), ("spaces_upto", (min(points, 2),))]
    return calls


# --- structure inputs ---------------------------------------------------------


def _names(rng, n):
    """n distinct labels, drawn from the seed, in random order."""
    prefix = rng.choice("abcdefghjkmnpqrstuvwxyz")
    return [f"{prefix}{k:04d}" for k in rng.sample(range(10000), n)]


def _chain_points(lengths):
    return [(c, k) for c, length in enumerate(lengths) for k in range(length)]


def space_of_chains(rng, lengths):
    """Disjoint chains as an Alexandrov space: one open per up-set."""
    points = _chain_points(lengths)
    name = dict(zip(points, _names(rng, len(points))))
    opens = []
    for cut in product(*(range(length + 1) for length in lengths)):
        members = [name[(c, k)] for c, k in points if k >= cut[c]]
        rng.shuffle(members)
        opens.append(members)
    rng.shuffle(opens)
    labels = list(name.values())
    rng.shuffle(labels)
    return {"kind": "space", "points": labels, "opens": opens}


def poset_of_chains(rng, lengths):
    """Disjoint chains as a poset, with the full order relation."""
    points = _chain_points(lengths)
    name = dict(zip(points, _names(rng, len(points))))
    leq = [
        [name[(c, i)], name[(c, j)]]
        for c, length in enumerate(lengths)
        for i in range(length)
        for j in range(i + 1, length)
    ]
    rng.shuffle(leq)
    labels = list(name.values())
    rng.shuffle(labels)
    return {"kind": "poset", "points": labels, "leq": leq}


def _frame(rng, elements, leq):
    name = dict(zip(elements, _names(rng, len(elements))))
    pairs = [[name[x], name[y]] for x in elements for y in elements if x != y and leq(x, y)]
    rng.shuffle(pairs)
    labels = list(name.values())
    rng.shuffle(labels)
    return {"kind": "frame", "points": labels, "leq": pairs}


def grid_frame(rng, lengths):
    """The downsets of disjoint chains: a product of chains, componentwise."""
    elements = list(product(*(range(length + 1) for length in lengths)))
    return _frame(rng, elements, lambda x, y: all(a <= b for a, b in zip(x, y)))


def chain_frame(rng, k):
    """The k-element chain as a frame."""
    return _frame(rng, list(range(k)), lambda x, y: x <= y)


def boolean_frame(rng, n):
    """The powerset of n atoms as a frame."""
    return _frame(rng, list(range(1 << n)), lambda x, y: x & ~y == 0)


def pstop_ring(rng, n):
    """A fixed n-point pseudotopology; the seed only relabels it."""
    labels = _names(rng, n)
    limits = {}
    for i in range(n):
        targets = {labels[i], labels[(i + 1) % n]} if i % 3 else {labels[i]}
        if i % 4 == 0:
            targets.add(labels[(i + 5) % n])
        members = sorted(targets)
        rng.shuffle(members)
        limits[labels[i]] = members
    return {"kind": "pstop", "points": sorted(labels), "limits": limits}


def structure_commands(rng, mode):
    """The structures workload for one seed: a list of command dicts.

    Each command has an op name, the CLI words, its inputs by option, the
    expected exit code and, for exit 0, the number of points the output
    must have, worked out here from the shape of the input.
    """
    full = mode == "full"
    omega_sizes = ([4, 4, 4, 4], [5, 5, 5]) if full else ([2, 2], [3])
    pt_size = [5, 5, 5] if full else [2, 2]
    downset_sizes = ([2, 2, 2, 2], [3, 3, 3, 3]) if full else ([1, 1], [2, 2])
    chain = 7 if full else 3
    atoms, low = (6, 3) if full else (2, 2)
    ring = 14 if full else 5
    commands = []

    def add(op, words, inputs, exit_code=0, points=None):
        commands.append(
            {"op": op, "words": words, "inputs": inputs, "exit": exit_code, "points": points}
        )

    for lengths in omega_sizes:
        add("omega", ["omega"], {"--space": space_of_chains(rng, lengths)},
            points=prod(k + 1 for k in lengths))
    add("pt", ["pt"], {"--frame": grid_frame(rng, pt_size)}, points=sum(pt_size))
    for lengths in downset_sizes:
        add("downsets", ["downsets"], {"--poset": poset_of_chains(rng, lengths)},
            points=prod(k + 1 for k in lengths))
    add("coproduct", ["coproduct"],
        {"--left": chain_frame(rng, chain), "--right": chain_frame(rng, chain)},
        points=comb(2 * chain - 2, chain - 1))
    # The powerset of n atoms is the downsets of an antichain and a k-chain
    # frame the downsets of a (k-1)-chain, so the tensor is the downsets of
    # n disjoint (k-1)-chains: k ** n elements.
    add("coproduct", ["coproduct"],
        {"--left": boolean_frame(rng, atoms), "--right": chain_frame(rng, low)},
        points=low ** atoms)
    # chain10 (x) chain10 has C(18, 9) = 48620 elements, over the 20000 cap.
    add("coproduct-refused", ["coproduct"],
        {"--left": chain_frame(rng, 10), "--right": chain_frame(rng, 10)}, exit_code=2)
    add("pstop-tau", ["pstop", "tau"], {"--input": pstop_ring(rng, ring)}, points=ring)
    return commands


def write_structure_inputs(workdir, seed, mode):
    """Write the seed's input files under workdir; return the command list.

    Each returned command carries its argv for ``finitetop.cli.run``.
    """
    rng = random.Random(f"structures/{seed_slot(seed)}")
    commands = structure_commands(rng, mode)
    os.makedirs(workdir, exist_ok=True)
    for k, cmd in enumerate(commands):
        argv = list(cmd["words"])
        for option, data in cmd["inputs"].items():
            path = os.path.join(workdir, f"{k:02d}{option.replace('-', '_')}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            argv += [option, path]
        cmd["argv"] = argv
        del cmd["inputs"]
    return commands
