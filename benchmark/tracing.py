"""Per-layer spans and counters, attached to the package from outside.

Spans replace module attributes of the package with timing wrappers for as
long as a `with tracer.installed():` block lasts, and restore them after;
no program code changes.  Each span wraps one coarse layer boundary, the
public function through which the CLI (or the benchmark) calls a layer.
Counters wrap hot inner functions and are installed only in the untimed
counting pass, together with tracemalloc for the per-layer allocation peaks.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import partial

# (module, attribute, layer).  The CLI imports each layer function by name,
# so the wrapper must replace the name the CLI looks up.
SPAN_TARGETS = (
    ("convexcycles", "cli_run", "cli"),
    ("convexcycles.cli", "load_graph_text", "formats"),
    ("convexcycles.cli", "metric_profile", "metric"),
    ("convexcycles.cli", "odd_antipodal_pairs", "pairs"),
    ("convexcycles.cli", "even_antipodal_pairs", "pairs"),
    ("convexcycles.cli", "enumerate_convex_cycles", "enumeration"),
    ("convexcycles.cli", "check_extremal", "extremal"),
    ("convexcycles.cli", "is_moore", "extremal"),
    ("convexcycles.cli", "check_moore_by_count", "extremal"),
    ("convexcycles", "expand_factored", "spectral"),
)
LAYERS = ("cli", "formats", "metric", "pairs", "enumeration", "extremal", "spectral")

# Layers whose spans never nest inside another measured span, so that
# tracemalloc.reset_peak() at their entry leaves no outer peak wrong.
ALLOC_LAYERS = ("metric", "enumeration", "spectral")

# (module, attribute, counter, weight of one call); the weight reads the
# call's arguments.  These run tens of thousands of times per op, so they
# are counted only in the untimed pass.
COUNTER_TARGETS = (
    ("convexcycles.convexity", "is_convex_cycle", "enumeration.verify_calls", None),
    ("convexcycles.convexity", "unique_shortest_path", "enumeration.paths_built", None),
    ("convexcycles.convexity", "two_shortest_paths", "enumeration.paths_built", None),
    ("convexcycles.convexity", "canonical_cycle", "enumeration.canonical_calls", None),
    ("convexcycles.convexity", "canonical_cycle", "enumeration.candidate_len_sum",
     lambda vertices: len(vertices)),
)

# Counts read from a layer's return value in the counting pass.
RESULT_COUNTS = {
    "odd_antipodal_pairs": lambda pairs: {"pairs.odd": len(pairs)},
    "even_antipodal_pairs": lambda pairs: {"pairs.even": len(pairs)},
    "enumerate_convex_cycles": lambda census: {"enumeration.convex": census.total},
    "expand_factored": lambda poly: {
        "spectral.result_bits": sum(c.bit_length() for c in poly.coeffs)
    },
}
COUNTERS = (
    "pairs.odd", "pairs.even", "enumeration.verify_calls", "enumeration.paths_built",
    "enumeration.canonical_calls", "enumeration.candidate_len_sum",
    "enumeration.convex", "spectral.result_bits",
)


class Tracer:
    """Spans of the current op, per-op self times, errors and counts."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.missing = [
            f"{mod}.{attr}" for mod, attr, *_ in SPAN_TARGETS + COUNTER_TARGETS
            if not hasattr(modules[mod], attr)
        ]
        # (op, layer, start, end, parent index); ops of the counting pass
        # are numbered too but contribute no self times.
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.op = -1
        self.stack: list[int] = []
        # The CLI turns these into "applicable": false report sections, so
        # they are outcomes, not errors; they are counted apart.
        package = modules["convexcycles"]
        self.declines = (package.NotApplicable, package.Disconnected)
        self.declined: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.alloc_peak: dict[str, int] = {}
        self.self_times: list[dict[str, float]] = []
        self.counting = False

    def _span(self, layer: str, attr: str, func):
        def span(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append((self.op, layer, 0.0, 0.0, parent))
            self.stack.append(index)
            if self.counting and layer in ALLOC_LAYERS:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                kept = self.declined if isinstance(exc, self.declines) else self.errors
                kept[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (self.op, layer, start, end, parent)
            if self.counting:
                if layer in ALLOC_LAYERS:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.alloc_peak[layer] = max(self.alloc_peak.get(layer, 0), peak)
                if attr in RESULT_COUNTS:
                    self.counts.update(RESULT_COUNTS[attr](result))
            return result

        return span

    def _counter(self, name: str, weight, func):
        def counted(*args, **kwargs):
            self.counts[name] += 1 if weight is None else weight(*args)
            return func(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, counting: bool = False):
        """Replace the span (and, when counting, counter) targets for the
        duration of the block; per-op self times are kept at its end."""
        wrappers = [(mod, attr, partial(self._span, layer, attr))
                    for mod, attr, layer in SPAN_TARGETS]
        if counting:
            wrappers += [(mod, attr, partial(self._counter, name, weight))
                         for mod, attr, name, weight in COUNTER_TARGETS]
        originals = []
        for mod, attr, wrap in wrappers:
            module = self.modules[mod]
            if hasattr(module, attr):
                current = getattr(module, attr)
                originals.append((module, attr, current))
                setattr(module, attr, wrap(current))
        self.counting = counting
        self.op += 1
        first = len(self.spans)
        try:
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self.counting = False
        if not counting:
            self.self_times.append(self._self_times(first))

    def _self_times(self, first: int) -> dict[str, float]:
        """Per layer, span time minus the time of its child spans."""
        own = Counter()
        for _, layer, start, end, parent in self.spans[first:]:
            own[layer] += end - start
            if parent >= 0:
                own[self.spans[parent][1]] -= end - start
        return dict(own)

    def layer_medians(self) -> dict[str, float]:
        """Median over traced ops of each layer's self seconds per op;
        0.0 for a layer no op entered."""
        return {
            layer: statistics.median(op.get(layer, 0.0) for op in self.self_times)
            if self.self_times else 0.0
            for layer in LAYERS
        }

    def layer_shares(self) -> dict[str, float]:
        """Each layer's share of all traced self time."""
        totals = Counter()
        for op in self.self_times:
            totals.update(op)
        whole = sum(totals.values())
        return {layer: totals[layer] / whole for layer in LAYERS if whole and totals[layer]}


@contextmanager
def allocation_tracing():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
