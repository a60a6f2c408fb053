"""Outside-in tracing of finitetop's public functions.

The traced run wraps the functions listed by ``_span_table``.  A wrapper
is rebound wherever the program holds the original function object: in every
``finitetop`` module namespace (``from .x import y`` copies the name into
the importing module) and in closure cells (the suite registry captures the
pstop lemmas inside closures).  Each call is a span; for a generator, each
``next()`` is one.  Spans nest on one stack, so a span's self time is its
duration minus the time of the spans it encloses.  Everything is kept in
memory and read out by ``layer_metrics`` at the end of the run.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import types
from time import perf_counter

PACKAGE = "finitetop"


def _span_table(lifting):
    """(module, function, metric base, hooks) for every wrapped function."""

    def arrows_key(args, kwargs):
        return (lifting.arrow(args[0]).key, lifting.arrow(args[1]).key)

    def elements(base):
        return {"result": lambda tracer, out: tracer.count(base + ".elements", out.n)}

    lemmas = [name for name in vars(sys.modules[PACKAGE + ".pstop"]) if name.startswith("lemma_")]
    corpus = (
        "poset_certificate", "all_posets", "all_preorders_labelled", "all_spaces",
        "all_lattices", "all_frames", "frame_corpus", "frames_upto", "spaces_upto",
    )
    table = [("corpus", name, "corpus.build", {}) for name in corpus]
    table += [
        ("suites", "run_suite", None, {}),
        ("lifting", "lifting_adjunction_check", "lifting.adjunction_check", {}),
        ("lifting", "pushout_product", "lifting.pushout_product", {"key": arrows_key}),
        ("lifting", "pullback_power", "lifting.pullback_power", {"key": arrows_key}),
        ("lifting", "associates", "lifting.associates", {}),
        ("lifting", "associator", "lifting.associator", {}),
        ("lifting", "braiding", "lifting.braiding", {}),
        ("lifting", "arrow_iso", "lifting.arrow_iso", {}),
        ("lifting", "iter_monotone_arrows", "lifting.monotone_arrows", {}),
        ("lifting", "arrows_between", "lifting.monotone_arrows", {}),
        ("frames", "iter_frame_homs", "frames.iter_frame_homs",
         {"item": lambda tracer, item: tracer.count("frames.homs_yielded", 1)}),
        ("frames", "frame_isomorphism", "frames.frame_isomorphism", {}),
        ("frames", "frame_from_poset", "frames.frame_from_poset", elements("frames.frame_from_poset")),
        ("colimits", "coproduct", "colimits.coproduct",
         dict(elements("colimits.coproduct"), key=lambda args, kwargs: args[:2])),
        ("colimits", "copair", "colimits.copair", {}),
        ("colimits", "pushout_loc", "colimits.pushout_loc", {}),
        ("colimits", "pushout_mediator", "colimits.pushout_mediator", {}),
        ("colimits", "distribute_iso", "colimits.distribute_iso", {}),
        ("spatial", "omega", "spatial.omega", {}),
        ("spatial", "pt", "spatial.pt", {}),
        ("spatial", "adjunction_check", "spatial.adjunction_check", {}),
        ("spatial", "is_spatial", "spatial.is_spatial", {}),
        ("spaces", "product_spaces", "spaces.product_spaces", {}),
        ("spaces", "spaces_homeomorphic", "spaces.spaces_homeomorphic", {}),
        ("spaces", "is_sober", "spaces.is_sober", {}),
        ("pstop", "top_modification", "pstop.top_modification", {}),
        ("poset", "validate_poset", "poset.validate_poset", {}),
        ("serialize", "parse_structure", "serialize.parse", {}),
        ("serialize", "structure_data", "serialize.emit", {}),
        ("serialize", "canonical_json", "serialize.emit",
         {"result": lambda tracer, out: tracer.count("serialize.bytes_out", len(out.encode()))}),
    ]
    table += [("pstop", name, "pstop.lemmas", {}) for name in lemmas]
    return table


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans = {}  # span name -> [calls, total seconds, self seconds]
        self.counts = {}  # counter name -> total
        self.keys = {}  # span name -> distinct argument keys seen
        self._stack = []  # per open span: seconds covered by its child spans

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, name, start):
        elapsed = perf_counter() - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child

    def call(self, name, fn, *args, **kwargs):
        """Run fn as one span named name."""
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def wrap(self, name, fn, key=None, result=None, item=None):
        """A traced stand-in for fn; name may be a function of the call args."""
        span = name if callable(name) else (lambda args, kwargs: name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                label = span(args, kwargs)
                gen = fn(*args, **kwargs)
                while True:
                    self._stack.append(0.0)
                    start = perf_counter()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(label, start)
                    if item is not None:
                        item(self, value)
                    yield value

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = span(args, kwargs)
            if key is not None:
                self.keys.setdefault(label, set()).add(key(args, kwargs))
            out = self.call(label, fn, *args, **kwargs)
            if result is not None:
                result(self, out)
            return out

        return traced

    def install(self):
        """Rebind every function of the span table to its traced wrapper."""
        modules = [
            m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        lifting = sys.modules[PACKAGE + ".lifting"]
        registry = sys.modules[PACKAGE + ".suites"].REGISTRY

        def suite_span(args, kwargs):
            return "suite." + registry[args[0]].suite

        for module_name, function, base, hooks in _span_table(lifting):
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], function)
            wrapped = self.wrap(base or suite_span, original, **hooks)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
            own = wrapped.__closure__ or ()
            for ref in gc.get_referrers(original):
                if isinstance(ref, types.CellType) and not any(ref is c for c in own):
                    ref.cell_contents = wrapped

    def snapshot(self):
        """The raw spans, counters and distinct-key counts, as plain data."""
        return {
            "spans": {name: list(stat) for name, stat in self.spans.items()},
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


SUITES = (
    "frame-coproduct", "galois-laws", "nucleus-generation", "product-distribute",
    "loc-pushout", "spatial-products", "omega-pt-adjunction", "subspace-restriction",
    "subspace-modification", "compact-image", "compact-balanced", "pushout-agreement",
    "tau-iota-adjunction", "lattice-bounds", "all-compact", "lifting-adjunction",
    "pushout-product-symmetry", "pushout-product-units", "bounded-soa",
)

COMMANDS = ("omega", "pt", "downsets", "coproduct", "coproduct-refused", "pstop-tau")

# Every per-layer metric, in report order.  A name ending in "_s" is the
# self time of the span of that name; ".calls" counts its calls;
# ".distinct_frac" is distinct argument keys over calls.
LAYER_METRICS = (
    ["corpus.build_s"]
    + [f"suite.{name}_s" for name in SUITES]
    + [f"cmd.{name}_s" for name in COMMANDS]
    + [
        "lifting.adjunction_check_s", "lifting.adjunction_check.calls",
        "lifting.pushout_product_s", "lifting.pushout_product.calls",
        "lifting.pushout_product.distinct_frac",
        "lifting.pullback_power_s", "lifting.pullback_power.calls",
        "lifting.pullback_power.distinct_frac",
        "lifting.associates_s", "lifting.associates.calls",
        "lifting.associator_s", "lifting.braiding_s", "lifting.arrow_iso_s",
        "lifting.monotone_arrows_s",
        "frames.iter_frame_homs_s", "frames.homs_yielded", "frames.frame_isomorphism_s",
        "frames.frame_from_poset_s", "frames.frame_from_poset.elements",
        "colimits.coproduct_s", "colimits.coproduct.calls",
        "colimits.coproduct.distinct_frac", "colimits.coproduct.elements",
        "colimits.copair_s", "colimits.pushout_loc_s", "colimits.pushout_mediator_s",
        "colimits.distribute_iso_s",
        "spatial.omega_s", "spatial.omega.calls", "spatial.pt_s",
        "spatial.adjunction_check_s", "spatial.is_spatial_s",
        "spaces.product_spaces_s", "spaces.spaces_homeomorphic_s", "spaces.is_sober_s",
        "pstop.lemmas_s", "pstop.top_modification_s",
        "poset.validate_poset_s", "serialize.parse_s", "serialize.emit_s",
        "serialize.bytes_out",
        "trace.overhead_frac",
    ]
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def layer_metrics(snapshot, overhead_frac):
    """Per-layer metric values from a traced run's snapshot.

    A layer the workload never enters reads 0.
    """
    spans, counts, distinct = snapshot["spans"], snapshot["counts"], snapshot["distinct"]
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name.endswith("_s"):
            value = spans.get(name[:-2], [0, 0.0, 0.0])[2]
        elif name.endswith(".calls"):
            value = spans.get(name[: -len(".calls")], [0])[0]
        elif name.endswith(".distinct_frac"):
            base = name[: -len(".distinct_frac")]
            calls = spans.get(base, [0])[0]
            value = distinct.get(base, 0) / calls if calls else 0.0
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": layer_unit(name)}
    return out
