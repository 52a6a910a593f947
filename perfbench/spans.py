"""Spans and counters recorded around calls into prism25d, from outside the program.

A `Tracer` replaces selected public functions of the prism25d modules with
wrappers, everywhere the package holds a reference to them (a function
imported by name into another module is replaced there too). Each wrapped
call records a span: its name, start, end and the span that was open when it
started. Spans stay in memory until `restore` is called; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# numcore's tensor operations; each call adds one node to the autodiff tape
NUMCORE_OPS = (
    "add", "neg", "mul", "matmul", "transpose", "relu", "exp", "log", "tsum", "tmean",
    "softmax_rows", "concat", "rows", "gather_rows", "gather_cols", "reshape", "take",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._in_step = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "prism25d" or mod_name.startswith("prism25d.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def wrap(self, owner, attr: str, name: str, count=None, step: bool = False) -> None:
        """Record a span per call of owner.attr; `count(counts, args, result)` adds counters.

        `step=True` marks the calls during which numcore operations are counted.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer._open.append(idx)
            tracer._in_step += step
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._in_step -= step
                tracer._open.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        if isinstance(owner, type):
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, traced)
        else:
            self._replace(fn, traced)

    def count_ops(self, module, attrs, key: str) -> None:
        """Count calls of module.<attr> made while a step span is open; no spans."""
        for attr in attrs:
            self._replace(getattr(module, attr), self._counted(getattr(module, attr), key))

    def _counted(self, fn, key: str):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._in_step:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- summaries ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the durations of its children;
        one thread records the spans, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own = Counter(), Counter()
        for (name, start, end, _parent), inner in zip(self.spans, child):
            inclusive[name] += end - start
            own[name] += end - start - inner
        return inclusive, own


def _rigid_counts(counts, args, _result):
    src = args[0]
    counts["lift.estimate_rigid_calls"] += 1
    counts["register.correspondences"] += len(src)
    if len(src) < 3:
        counts["lift.fallbacks"] += 1


def _register_counts(counts, args, _result):
    counts["register.frame_pairs"] += max(len(args[0].frames) - 1, 0)


def _compact_counts(counts, args, result):
    counts["compact.nodes_in"] += len(args[0].nodes)
    counts["compact.nodes_out"] += len(result.nodes)


def _kernel_counts(counts, _args, _result):
    counts["attention.kernel_levels_built"] += 1


def _encode_counts(counts, _args, _result):
    counts["attention.encode_graph_calls"] += 1


def _step_counts(counts, _args, _result):
    counts["qa.steps"] += 1


def _evaluate_counts(counts, args, _result):
    counts["qa.evaluate_instances"] += len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every prism25d layer the benchmark reports on."""
    # by module path: the package re-exports a function named `compact`
    attention, compact, graph, lift, numcore, qa, register, synthworld = (
        importlib.import_module(f"prism25d.{name}")
        for name in ("attention", "compact", "graph", "lift", "numcore", "qa", "register", "synthworld")
    )

    tracer.wrap(synthworld, "build_world", "synthworld.build_world")
    tracer.wrap(graph, "load_detection_groups", "graph.load_detections")
    tracer.wrap(graph, "save_corpus", "graph.save_corpus")
    tracer.wrap(graph, "load_corpus", "graph.load_corpus")
    tracer.wrap(lift, "lift_centroid", "lift.lift_centroid")
    tracer.wrap(lift, "estimate_rigid", "lift.estimate_rigid", count=_rigid_counts)
    tracer.wrap(register, "register_frames", "register.register_frames", count=_register_counts)
    tracer.wrap(compact, "compact", "compact.compact", count=_compact_counts)
    tracer.wrap(qa, "build_bundles", "attention.bundles")
    tracer.wrap(attention, "kernel_matrix", "attention.kernel_matrix", count=_kernel_counts)
    tracer.wrap(qa, "encode_graph", "attention.encode_graph", count=_encode_counts)
    tracer.wrap(qa, "batch_forward", "qa.batch_forward", count=_step_counts, step=True)
    tracer.wrap(qa, "evaluate", "qa.evaluate", count=_evaluate_counts)
    tracer.wrap(qa, "save_model", "qa.checkpoint_io")
    tracer.wrap(qa, "load_model", "qa.checkpoint_io")
    tracer.wrap(numcore, "backward", "numcore.backward")
    tracer.wrap(numcore.Adam, "step", "numcore.adam")
    tracer.count_ops(numcore, NUMCORE_OPS, "numcore.ops")


# per-layer metric -> (span name, "total" | "self") for times, or a counter
TIME_METRICS = {
    "graph.load_detections_s": ("graph.load_detections", "total"),
    "graph.save_corpus_s": ("graph.save_corpus", "total"),
    "graph.load_corpus_s": ("graph.load_corpus", "total"),
    "lift.lift_centroid_s": ("lift.lift_centroid", "total"),
    "lift.estimate_rigid_s": ("lift.estimate_rigid", "total"),
    "register.register_frames_s": ("register.register_frames", "self"),
    "compact.compact_s": ("compact.compact", "total"),
    "attention.bundles_s": ("attention.bundles", "total"),
    "attention.encode_graph_s": ("attention.encode_graph", "total"),
    "numcore.backward_s": ("numcore.backward", "total"),
    "numcore.adam_s": ("numcore.adam", "total"),
    "qa.batch_forward_s": ("qa.batch_forward", "total"),
    "qa.evaluate_s": ("qa.evaluate", "total"),
    "qa.checkpoint_io_s": ("qa.checkpoint_io", "total"),
}
COUNT_METRICS = (
    "lift.estimate_rigid_calls",
    "lift.fallbacks",
    "register.frame_pairs",
    "compact.nodes_in",
    "compact.nodes_out",
    "attention.kernel_levels_built",
    "attention.encode_graph_calls",
    "qa.steps",
    "qa.evaluate_instances",
)


def layer_metrics(timed: Tracer, rounds: int, setup: Tracer, setups: int) -> dict:
    """Per-layer figures per timed round (set-up figures per set-up), unit attached."""
    inclusive, own = timed.totals()
    out = {}
    for metric, (span, kind) in TIME_METRICS.items():
        total = own[span] if kind == "self" else inclusive[span]
        out[metric] = (total / rounds, "s")
    for metric in COUNT_METRICS:
        out[metric] = (timed.counts[metric] / rounds, "count")
    pairs = timed.counts["register.frame_pairs"]
    out["register.correspondences_per_pair"] = (
        timed.counts["register.correspondences"] / pairs if pairs else 0.0,
        "count/pair",
    )
    steps = timed.counts["qa.steps"]
    out["numcore.ops_per_step"] = (timed.counts["numcore.ops"] / steps if steps else 0.0, "count")
    setup_inclusive, _ = setup.totals()
    out["synthworld.build_world_s"] = (setup_inclusive["synthworld.build_world"] / setups, "s")
    return out
