"""Spans recorded around calls into the package's layers, and per-layer metrics from them.

A span is a dict with name, start, end, parent span id and run id, plus the
counts its note function read off the call. Spans stay in memory until the
traced process ends; only the benchmark's own wrappers record them.
"""

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

TIMED = (
    "synth.generate", "corpus.parse", "corpus.filter", "corpus.write", "metrics.score",
    "metrics.read_scores", "landscape.build", "landscape.layout", "landscape.export",
    "landscape.centroids", "stats.join", "stats.group_tests", "stats.design",
    "stats.fit.ols", "stats.fit.logistic", "stats.fit.poisson",
)
STAGES = ("cli.synth", "cli.ingest", "cli.score", "cli.landscape", "cli.stats")
# exact counts: they must repeat from run to run on the same inputs
COUNTS = ("metrics.score.pairs", "corpus.parse.calls", "landscape.build.calls",
          "landscape.layout.calls", "landscape.layout.nodes", "stats.fit.n_iter",
          "stats.fit.unconverged", "stats.dropped_rows", "metrics.score.unscored",
          "corpus.filter.dropped")


class Tracer:
    """Records spans of one run; measure_alloc turns on tracemalloc in the layers that ask."""

    def __init__(self, run: int, measure_alloc: bool = False):
        self.spans = []
        self.run = run
        self.measure_alloc = measure_alloc
        self.overhead = 0.0  # seconds spent in wrapping and in wrappers outside the calls
        self._stack = []

    def wrap(self, name, fn, note=None, alloc=False):
        """fn with a span around each call; name may be a function of the call's arguments.

        note(result, bound_arguments) returns counts to attach to the span; it
        runs after the span ends. alloc=True turns tracemalloc on for the
        span and records its peak when the tracer measures allocations;
        tracemalloc slows Python code, so those runs give no layer times.
        """
        t0 = time.perf_counter()
        signature = inspect.signature(fn)
        alloc = alloc and self.measure_alloc

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            span = {"id": len(self.spans), "run": self.run,
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name(*args, **kwargs) if callable(name) else name}
            self.spans.append(span)
            self._stack.append(span["id"])
            if alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    span["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(note(result, bound.arguments))
            self.overhead += span["start"] - enter + time.perf_counter() - span["end"]
            return result

        self.overhead += time.perf_counter() - t0
        return traced


def score_pairs(years, spans, last_complete_year) -> int:
    """(focal, window) record pairs score_corpus compares: focal x past plus focal x future."""
    values, counts = np.unique(np.asarray(years), return_counts=True)
    per_year = dict(zip(values.tolist(), counts.tolist()))
    pairs = 0
    for span in spans:
        span = int(getattr(span, "span_years", span))
        for year, focal in per_year.items():
            past = sum(per_year.get(y, 0) for y in range(year - span, year))
            if not past:
                continue
            pairs += focal * past
            if last_complete_year is not None and year + span <= last_complete_year:
                pairs += focal * sum(per_year.get(y, 0) for y in range(year + 1, year + span + 1))
    return pairs


def _score_note(table, args):
    return {"pairs": score_pairs(args["records"].years, args["spans"], args["last_complete_year"]),
            "unscored": len(table.unscored)}


# span name and note for each library function the benchmark wraps
LAYERS = {
    "generate_corpus": ("synth.generate", lambda rs, a: {"records": len(rs)}, False),
    "parse_records": ("corpus.parse", None, False),
    "apply_filters": ("corpus.filter",
                      lambda res, a: {"dropped": res[1].input_count - res[1].output_count}, False),
    "write_records_csv": ("corpus.write", None, False),
    "score_corpus": ("metrics.score", _score_note, True),
    "read_scores_csv": ("metrics.read_scores", None, False),
    "build_landscape": ("landscape.build", None, False),
    "layout": ("landscape.layout", lambda pos, a: {"nodes": len(pos)}, False),
    "export_graph": ("landscape.export", None, False),
    "render_svg": ("landscape.export", None, False),
    "centroids": ("landscape.centroids", None, False),
    "join_scores": ("stats.join", None, False),
    "group_test_battery": ("stats.group_tests", None, False),
    "build_design": ("stats.design", lambda d, a: {
        "dropped": len(a["data"][a["spec"].outcome]) - len(d.rows_used)}, False),
    "fit_model": (lambda design: f"stats.fit.{design.spec.family}", lambda fit, a: {
        "n_iter": int(fit.n_iter), "converged": bool(fit.converged)}, False),
}


def wrap_layers(tracer: Tracer, namespace, names):
    """Rebind each named library function in namespace (a module or object) to a traced one."""
    for attr in names:
        name, note, alloc = LAYERS[attr]
        setattr(namespace, attr, tracer.wrap(name, getattr(namespace, attr), note, alloc))


def _covered(children) -> float:
    """Length of the union of the children's intervals."""
    total, reach = 0.0, -np.inf
    for child in sorted(children, key=lambda s: s["start"]):
        start = max(child["start"], reach)
        if child["end"] > start:
            total += child["end"] - start
        reach = max(reach, child["end"])
    return total


def layer_metrics(spans) -> dict:
    """Per-layer totals of one run (one CLI process or one Monte-Carlo batch)."""
    out = {f"{n}.s": 0.0 for n in TIMED + STAGES}
    out.update({f"{n}.self_s": 0.0 for n in STAGES})
    out.update({n: 0 for n in COUNTS})
    out["metrics.score.peak_alloc_mb"] = 0.0
    synth_records = 0
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    for span in spans:
        name, dur = span["name"], span["end"] - span["start"]
        if f"{name}.s" in out:
            out[f"{name}.s"] += dur
        if name in STAGES:
            out[f"{name}.self_s"] += dur - _covered(children[span["id"]])
        if name == "synth.generate":
            synth_records += span["records"]
        elif name == "corpus.parse":
            out["corpus.parse.calls"] += 1
        elif name == "corpus.filter":
            out["corpus.filter.dropped"] += span["dropped"]
        elif name == "metrics.score":
            out["metrics.score.pairs"] += span["pairs"]
            out["metrics.score.unscored"] += span["unscored"]
            out["metrics.score.peak_alloc_mb"] = max(out["metrics.score.peak_alloc_mb"],
                                                     span.get("peak_alloc_mb", 0.0))
        elif name == "landscape.build":
            out["landscape.build.calls"] += 1
        elif name == "landscape.layout":
            out["landscape.layout.calls"] += 1
            out["landscape.layout.nodes"] += span["nodes"]
        elif name == "stats.design":
            out["stats.dropped_rows"] += span["dropped"]
        elif name.startswith("stats.fit."):
            out["stats.fit.n_iter"] += span["n_iter"]
            out["stats.fit.unconverged"] += not span["converged"]
    score_s, synth_s = out["metrics.score.s"], out["synth.generate.s"]
    out["metrics.score.pairs_per_s"] = out["metrics.score.pairs"] / score_s if score_s else 0.0
    out["synth.records_per_s"] = synth_records / synth_s if synth_s else 0.0
    return out
