"""Spans and counters recorded around calls into negmine, from outside it.

`Tracer.install` replaces each traced function in the namespace its caller
looks it up in (for example `negmine.cli.train_contrastive`, which
`cmd_train` calls) and `Tracer.uninstall` puts the originals back, so the
package itself carries no instrumentation. A span is (run id, span id,
parent id, name, start, end) plus the work counts its wrapper derived from
the call's arguments and result. Spans stay in memory until the run writes
them out. The span stack assumes one thread, which holds because every
workload ranks with the default `threads=1`.

A layer's self time is its span's duration minus the time covered by its
child spans; `layer_metrics` turns the spans of one pass into the per-layer
metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Samplers any workload evaluates; each gets draw time, draws and skips.
SAMPLERS = ("uniform", "negater-grad", "sans", "antonyms")


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id: int, parent: int | None, name: str, start: int):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end: int | None = None
        self.counts: dict[str, float] | None = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._knn_sizes: dict = {}

    # --- recording -----------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace `owner.attr` by a spanning wrapper.

        `name` is a span name or a function of the call's arguments that
        returns one; `count(args, kwargs, result)` returns the work counts
        stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Replace `owner.attr` by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, replacement) -> None:
        # Keep the raw namespace entry so a classmethod is restored as one.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # --- the traced boundaries ----------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary of the package, where callers look it up."""
        cli = sys.modules["negmine.cli"]
        scorer = sys.modules["negmine.scorer"]
        rankers = sys.modules["negmine.rankers"]
        candidates = sys.modules["negmine.candidates"]
        evaluation = sys.modules["negmine.evaluation"]
        checkpoint = sys.modules["negmine.checkpoint"]
        kb_module = sys.modules["negmine.kb"]
        samplers = sys.modules["negmine.samplers"]

        self.wrap(cli, "resolve_config", "config.resolve")
        self.wrap(cli, "_load_kb", "kb.load", lambda a, k, r: {"kb.loads": 1})
        self.count_calls(kb_module.KnowledgeBase, "contains", "kb.contains_calls")

        self.wrap(cli, "train_contrastive", "scorer.train_contrastive")
        self.wrap(scorer, "corruption_examples", "scorer.corruption_examples", _corruption_counts)
        self.wrap(evaluation, "train_supervised", "scorer.train_supervised", _supervised_counts)
        for module in (cli, evaluation):
            self.wrap(module, "fit_thresholds", "scorer.fit_thresholds")
        for module in (scorer, rankers, evaluation):
            self.wrap(module, "score_batch", "scorer.score_batch",
                      lambda a, k, r: {"scorer.score_rows": len(r)})

        self.wrap(cli, "build_index", "retrieval.build_index")
        self.wrap(candidates, "knn", "retrieval.knn", self._knn_counts)
        self.wrap(cli, "generate_candidates", "candidates.generate", self._candidate_counts)
        self.wrap(cli, "write_candidates_tsv", "candidates.write")
        self.wrap(cli, "read_candidates_tsv", "candidates.read")

        self.wrap(cli, "rank_theta", "rankers.theta", _theta_counts)
        self.wrap(cli, "rank_grad", "rankers.grad")
        self.wrap(rankers, "loss_and_gradient", "rankers.grad_eval",
                  lambda a, k, r: {"rankers.grad_evals": 1})
        self.wrap(cli, "fit_gradient_predictor", "rankers.fit_predictor")
        self.wrap(rankers, "fit_mae_regressor", "rankers.regressor")
        self.wrap(cli, "rank_grad_fast", "rankers.predict")
        self.wrap(cli, "write_ranked_tsv", "rankers.write")
        self.wrap(cli, "read_ranked_tsv", "rankers.read")

        self.wrap(cli, "run_experiment", "evaluation.run_experiment")
        self.wrap(evaluation, "_draw_negatives",
                  lambda a, k: f"samplers.draw.{a[1].sampler}", _draw_counts)
        self.wrap(samplers.EntityGraph, "from_kb", "samplers.graph")

        self.wrap(cli, "save_checkpoint", "checkpoint.save")
        self.wrap(cli, "load_checkpoint", "checkpoint.load")
        writes = ((cli, "atomic_write_text"), (candidates, "atomic_write_text"),
                  (rankers, "atomic_write_text"), (evaluation, "atomic_write_text"),
                  (checkpoint, "atomic_write_bytes"))
        for module, attr in writes:
            self.wrap(module, attr, "ioutil.write", _write_counts)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _knn_counts(self, args, kwargs, result):
        self._knn_sizes[args[1]] = len(result)
        return {"retrieval.knn_calls": 1}

    def _candidate_counts(self, args, kwargs, result):
        # generate_candidates caches neighbours per phrase; every positive
        # still examines its head's and its tail's full neighbour list.
        kb = args[0]
        sizes = self._knn_sizes
        examined = sum(sizes[t.head] + sizes[t.tail] for t in kb.triples)
        self._knn_sizes = {}
        return {"candidates.examined": examined, "candidates.emitted": len(result)}

    # --- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.span_id, "parent": s.parent, "name": s.name,
                    "start_ns": s.start, "end_ns": s.end, "counts": s.counts,
                }) + "\n")


def _corruption_counts(args, kwargs, result):
    positives, config = args[1], args[2]
    return {
        "scorer.corruption_examples": len(result),
        "scorer.corrupt_skips": len(positives) * len(config.modes()) - len(result),
        "scorer.train_examples": len(positives) + len(result),
    }


def _supervised_counts(args, kwargs, result):
    examples, config = args[1], args[2]
    return {"scorer.supervised_examples": len(examples) * config.epochs}


def _theta_counts(args, kwargs, result):
    return {"rankers.theta_kept": len(result), "rankers.theta_pool": len(args[2])}


def _draw_counts(args, kwargs, result):
    kb, config = args[0], args[1]
    wanted = len(kb.splits.train) * config.negatives_per_positive
    return {
        f"samplers.draws.{config.sampler}": len(result),
        f"samplers.skips.{config.sampler}": wanted - len(result),
    }


def _write_counts(args, kwargs, result):
    data = args[1]
    size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
    return {"ioutil.bytes": size}


def nesting_violations(spans: list[Span]) -> int:
    """Spans left open or not inside their parent's interval."""
    bad = 0
    for s in spans:
        if s.end is None or s.end < s.start:
            bad += 1
            continue
        if s.parent is not None:
            p = spans[s.parent]
            if p.end is None or s.start < p.start or s.end > p.end:
                bad += 1
    return bad


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _gaps(starts: list[int], end: int) -> list[float]:
    """Durations between successive start marks, the last one ending at `end`."""
    marks = sorted(starts) + [end]
    return [(b - a) / 1e9 for a, b in zip(marks, marks[1:])]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer self times, counts and per-call statistics of one pass."""
    spans = tracer.spans
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    self_s = defaultdict(float)
    counts: Counter = Counter(tracer.counters)
    for s in spans:
        self_s[s.name] += s.seconds - child_time[s.span_id]
        if s.counts:
            counts.update(s.counts)

    # Epoch and trial boundaries are the corruption and draw calls that
    # start each of them inside the training loop and the trial loop.
    epochs: list[float] = []
    trials: list[float] = []
    grad_evals: list[float] = []
    for s in spans:
        if s.name == "scorer.train_contrastive":
            starts = [c.start for c in spans
                      if c.parent == s.span_id and c.name == "scorer.corruption_examples"]
            epochs += _gaps(starts, s.end)
        elif s.name == "evaluation.run_experiment":
            starts = [c.start for c in spans
                      if c.parent == s.span_id and c.name.startswith("samplers.draw.")]
            trials += _gaps(starts, s.end)
        elif s.name == "rankers.grad_eval":
            grad_evals.append(s.seconds)

    def median(values):
        return statistics.median(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "scorer.corrupt_s": (self_s["scorer.corruption_examples"], "s"),
        "scorer.corruption_examples": (counts["scorer.corruption_examples"], "count"),
        "scorer.corrupt_skips": (counts["scorer.corrupt_skips"], "count"),
        "scorer.step_s": (self_s["scorer.train_contrastive"], "s"),
        "scorer.train_examples": (counts["scorer.train_examples"], "count"),
        "scorer.epoch_s.p50": (median(epochs), "s"),
        "scorer.epochs": (len(epochs), "count"),
        "scorer.supervised_s": (self_s["scorer.train_supervised"], "s"),
        "scorer.supervised_examples": (counts["scorer.supervised_examples"], "count"),
        "evaluation.trial_s.p50": (median(trials), "s"),
        "evaluation.trials": (len(trials), "count"),
        "evaluation.self_s": (self_s["evaluation.run_experiment"], "s"),
        "scorer.fit_thresholds_s": (self_s["scorer.fit_thresholds"], "s"),
        "scorer.score_batch_s": (self_s["scorer.score_batch"], "s"),
        "scorer.score_rows": (counts["scorer.score_rows"], "count"),
        "retrieval.build_index_s": (self_s["retrieval.build_index"], "s"),
        "retrieval.knn_s": (self_s["retrieval.knn"], "s"),
        "retrieval.knn_calls": (counts["retrieval.knn_calls"], "count"),
        "candidates.filter_s": (self_s["candidates.generate"], "s"),
        "candidates.examined": (counts["candidates.examined"], "count"),
        "candidates.emitted": (counts["candidates.emitted"], "count"),
        "candidates.yield": (
            ratio(counts["candidates.emitted"], counts["candidates.examined"]), "fraction"),
        "candidates.write_s": (self_s["candidates.write"], "s"),
        "candidates.read_s": (self_s["candidates.read"], "s"),
        "rankers.theta_s": (self_s["rankers.theta"], "s"),
        "rankers.theta_kept": (counts["rankers.theta_kept"], "count"),
        "rankers.theta_keep_ratio": (
            ratio(counts["rankers.theta_kept"], counts["rankers.theta_pool"]), "fraction"),
        "rankers.grad_s": (self_s["rankers.grad"], "s"),
        "rankers.grad_evals": (counts["rankers.grad_evals"], "count"),
        "rankers.grad_eval_s.p50": (median(grad_evals), "s"),
        "rankers.grad_eval_s.p99": (percentile(grad_evals, 99) if grad_evals else 0.0, "s"),
        "rankers.fit_predictor_s": (self_s["rankers.fit_predictor"], "s"),
        "rankers.regressor_s": (self_s["rankers.regressor"], "s"),
        "rankers.predict_s": (self_s["rankers.predict"], "s"),
        "rankers.write_s": (self_s["rankers.write"], "s"),
        "rankers.read_s": (self_s["rankers.read"], "s"),
        "samplers.graph_s": (self_s["samplers.graph"], "s"),
        "kb.load_s": (self_s["kb.load"], "s"),
        "kb.loads": (counts["kb.loads"], "count"),
        "kb.contains_calls": (counts["kb.contains_calls"], "count"),
        "checkpoint.save_s": (self_s["checkpoint.save"], "s"),
        "checkpoint.load_s": (self_s["checkpoint.load"], "s"),
        "ioutil.write_s": (self_s["ioutil.write"], "s"),
        "ioutil.bytes": (counts["ioutil.bytes"], "bytes"),
        "config.resolve_s": (self_s["config.resolve"], "s"),
        "cli.glue_s": (sum(v for k, v in self_s.items() if k.startswith("stage.")), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for sampler in SAMPLERS:
        m[f"samplers.draw_s.{sampler}"] = (self_s[f"samplers.draw.{sampler}"], "s")
        m[f"samplers.draws.{sampler}"] = (counts[f"samplers.draws.{sampler}"], "count")
        m[f"samplers.skips.{sampler}"] = (counts[f"samplers.skips.{sampler}"], "count")
    return m
