"""Span tracing of permutiple's layers, installed from outside the library.

``Tracer.install`` rebinds public functions of each layer module to
wrappers that record a span around every call, in every module namespace
that holds the function (``permutiple.search.classify`` as well as
``permutiple.classify.classify``).  Modules are fetched with
``importlib.import_module``: ``import permutiple.classify as m`` would bind
the function of that name, which the package re-exports.

A span is ``[parent, name, start, end]``; its id is its index in the list
and ``parent`` is -1 for a root span.  Spans stay in memory until ``dump``.
``layer_metrics`` turns the spans of one traced process into the
benchmark's per-layer figures.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time

# Traced public functions, by layer; a layer is named after its module.
LAYER_FUNCTIONS = {
    "cf": ("evaluate", "continuant", "convergents", "tails", "from_rational"),
    "classify": ("classify", "find_witnesses"),
    "constructors": (
        "two_digit",
        "three_digit_reverse",
        "enumerate_three_digit_reverse",
        "perfect_from_parameters",
        "perfect_reverse",
        "perfect_cyclic",
        "validate_perfect_permutation",
    ),
    "concat": ("concat", "bracket_views", "concat_witness", "palindromic_concat"),
    "search": ("exhaustive_search", "check_conjectures", "export"),
    "surd": (
        "surd_multiplier",
        "is_reduced",
        "periodic_expansion",
        "expansion_digits",
        "verify_surd_permutiple",
        "infinite_perfect_stream",
        "asymptotic_continuant_gap",
        "truncation",
    ),
}

# Namespaces that may hold a traced function under its own or another name.
MODULES = ("permutiple", *(f"permutiple.{layer}" for layer in LAYER_FUNCTIONS), "permutiple.cli")

SCAN = "search.exhaustive_search"
CONJECTURES = "search.check_conjectures"
EXPORT = "search.export"
CLASSIFY = "classify.classify"


def tuple_count(lengths, max_digit: int, canonical_only: bool = True) -> int:
    """Digit tuples an exhaustive search tests: a_0 >= 2, and the last digit
    >= 2 when only canonical strings are searched."""
    d = max_digit
    last = d - 1 if canonical_only else d
    return sum((d - 1) * d ** (m - 2) * last for m in lengths)


def _export_destination(args, kwargs):
    if "destination" in kwargs:
        return kwargs["destination"]
    return args[2] if len(args) > 2 else "-"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"search.tuples": 0, "search.witnesses": 0, "surd.states": 0, "search.export_bytes": 0}
        self._current = -1

    def _begin(self, name: str) -> tuple[list, int]:
        span = [self._current, name, time.perf_counter(), 0.0]
        parent = self._current
        self._current = len(self.spans)
        self.spans.append(span)
        return span, parent

    def _end(self, span: list, parent: int) -> None:
        span[3] = time.perf_counter()
        self._current = parent

    def _wrap(self, name: str, fn):
        if name == SCAN:
            return self._wrap_scan(fn)

        def traced(*args, **kwargs):
            span, parent = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span, parent)
            self._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_scan(self, fn):
        """The search is a generator: each resumption is one span, so the
        time its consumer spends between items is not charged to it."""

        def traced(config, *args, **kwargs):
            self.counts["search.tuples"] += tuple_count(
                config.lengths(), config.max_digit, config.canonical_only
            )
            stream = fn(config, *args, **kwargs)
            while True:
                span, parent = self._begin(SCAN)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self._end(span, parent)
                self.counts["search.witnesses"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "surd.periodic_expansion":
            preperiod, period = result
            self.counts["surd.states"] += len(preperiod) + len(period)
        elif name == EXPORT:
            destination = _export_destination(args, kwargs)
            if isinstance(destination, (str, os.PathLike)) and destination != "-":
                self.counts["search.export_bytes"] += os.path.getsize(destination)

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"permutiple.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            bound = [(attr, id(value)) for attr, value in vars(module).items() if id(value) in wrappers]
            for attr, key in bound:
                setattr(module, attr, wrappers[key][1])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle, separators=(",", ":"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def layer_metrics(spans: list[list], counts: dict, wall_s: float) -> dict:
    """Per-layer figures of one traced process.

    busy time of a layer: its spans whose parent is in another layer (or
    none), so nested calls inside the layer count once; self time: busy
    time minus the time of the other-layer spans it calls directly.
    """
    layer = [span[1].split(".", 1)[0] for span in spans]
    duration = [span[3] - span[2] for span in spans]
    busy: dict[str, float] = {name: 0.0 for name in LAYER_FUNCTIONS}
    child_time: dict[str, float] = {name: 0.0 for name in LAYER_FUNCTIONS}
    by_name_self: dict[str, float] = {}
    by_name_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    inside_classify = [False] * len(spans)  # a classify() call is an ancestor
    cf_in_classify = 0
    root_s = 0.0
    for i, (parent, name, _, _) in enumerate(spans):
        here = layer[i]
        calls[here] = calls.get(here, 0) + 1
        by_name_total[name] = by_name_total.get(name, 0.0) + duration[i]
        by_name_self[name] = by_name_self.get(name, 0.0) + duration[i]
        if parent < 0:
            root_s += duration[i]
            busy[here] += duration[i]
            continue
        by_name_self[spans[parent][1]] -= duration[i]
        inside_classify[i] = spans[parent][1] == CLASSIFY or inside_classify[parent]
        cf_in_classify += here == "cf" and inside_classify[i]
        if layer[parent] != here:
            busy[here] += duration[i]
            child_time[layer[parent]] += duration[i]
    classify_us = [duration[i] * 1e6 for i, span in enumerate(spans) if span[1] == CLASSIFY]

    def self_s(name: str) -> float:
        return busy[name] - child_time[name]

    tuples = counts["search.tuples"]
    witnesses = counts["search.witnesses"]
    metrics = {
        "search.scan_s": by_name_self.get(SCAN, 0.0),
        "search.tuples": tuples,
        "search.witnesses": witnesses,
        "search.hit_ratio": witnesses / tuples if tuples else 0.0,
        "search.conjecture_s": by_name_self.get(CONJECTURES, 0.0),
        "search.export_s": by_name_total.get(EXPORT, 0.0),
        "search.export_bytes": counts["search.export_bytes"],
        "classify.calls": len(classify_us),
        "classify.self_s": self_s("classify"),
        "classify.call_us_p50": percentile(classify_us, 0.50),
        "classify.call_us_p99": percentile(classify_us, 0.99),
        "classify.find_witnesses_s": by_name_total.get("classify.find_witnesses", 0.0),
        "cf.calls": calls.get("cf", 0),
        "cf.busy_s": busy["cf"],
        "cf.calls_per_classify": cf_in_classify / len(classify_us) if classify_us else 0.0,
        "constructors.calls": calls.get("constructors", 0),
        "constructors.self_s": self_s("constructors"),
        "concat.calls": calls.get("concat", 0),
        "concat.self_s": self_s("concat"),
        "surd.calls": calls.get("surd", 0),
        "surd.busy_s": busy["surd"],
        "surd.states": counts["surd.states"],
        "cli.overhead_s": wall_s - root_s,
    }
    return metrics
