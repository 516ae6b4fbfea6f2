"""Task-based comparison of negative sources.

For each configured source, the harness draws one negative per training
positive, trains a fresh classifier per trial, fits per-relation thresholds
on the validation split, and scores the held-out test split. Reports carry
per-trial accuracy/precision/recall, their means and standard deviations,
and two-sided Welch t-test p-values against a named baseline sampler.

A trial trains on one `kb.TripleTable` of id rows, never decoded: the stored
positives, then a sampler's draws or the `RankedTable` rows `assign_ranked` picks.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .ioutil import ParseError, atomic_write_text, derive_seed, format_float, read_lines
from .kb import KnowledgeBase, TripleTable
from .rankers import RankedTable
from .samplers import (
    AntonymLexicon,
    EntityGraph,
    sample_antonyms,
    sample_sans,
    sample_slots,
    sample_uniform,
)
from .scorer import (
    TokenVocab,
    TrainConfig,
    fit_thresholds,
    init_params,
    score_batch,
    train_supervised,
)

SAMPLERS = (
    "uniform",
    "slots",
    "antonyms",
    "sans",
    "negater-theta",
    "negater-grad",
    "negater-none",
)
RANKED_SAMPLERS = ("negater-theta", "negater-grad", "negater-none")
METRICS = ("accuracy", "precision", "recall")
NA = "NA"


def metrics(
    predictions: Sequence[bool], labels: Sequence[bool]
) -> tuple[float, float | None, float | None]:
    """Accuracy, precision, recall; a zero denominator reports None."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(labels)} labels"
        )
    if not predictions:
        raise ValueError("cannot compute metrics on empty inputs")
    tp = fp = fn = tn = 0
    for pred, label in zip(predictions, labels):
        if pred and label:
            tp += 1
        elif pred and not label:
            fp += 1
        elif not pred and label:
            fn += 1
        else:
            tn += 1
    accuracy = (tp + tn) / len(predictions)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return accuracy, precision, recall


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz-style evaluation of the incomplete-beta continued fraction.
    max_iterations, eps, floor = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < floor:
        d = floor
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < floor:
                d = floor
            c = 1.0 + aa / c
            if abs(c) < floor:
                c = floor
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by continued fraction."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only below the distribution mode.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_test_two_sided(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-sided p-value.

    With both variances zero the test degenerates: equal means give p = 1,
    different means give p = 0 with an infinite statistic.
    """
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1 or len(xs) < 2 or len(ys) < 2:
        raise ValueError("each sample needs at least 2 observations")
    n_a, n_b = len(xs), len(ys)
    var_a = float(xs.var(ddof=1))
    var_b = float(ys.var(ddof=1))
    diff = float(xs.mean() - ys.mean())
    se_sq = var_a / n_a + var_b / n_b
    if se_sq == 0.0:
        return (0.0, 1.0) if diff == 0.0 else (math.copysign(math.inf, diff), 0.0)
    t = diff / math.sqrt(se_sq)
    df = se_sq**2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
    )
    # Two-sided tail mass of the t distribution: P(|T| >= |t|) = I_x(df/2, 1/2).
    p = incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return t, min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class TrialResult:
    """Test-split metrics of one trained classifier."""

    sampler: str
    trial: int
    accuracy: float
    precision: float | None
    recall: float | None

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.trial < 1:
            raise ValueError(f"trial numbers start at 1, got {self.trial}")
        for name in METRICS:
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def value(self, metric: str) -> float | None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self, metric)


class EvaluationReport:
    """Per-trial results grouped by sampler, with aggregates and p-values."""

    def __init__(self, results: Sequence[TrialResult], baseline: str = "uniform"):
        if baseline not in SAMPLERS:
            raise ValueError(f"unknown baseline sampler {baseline!r}")
        seen: set[tuple[str, int]] = set()
        for r in results:
            key = (r.sampler, r.trial)
            if key in seen:
                raise ValueError(f"duplicate trial {key}")
            seen.add(key)
        self.results = tuple(results)
        self.baseline = baseline

    def samplers(self) -> tuple[str, ...]:
        out: list[str] = []
        for r in self.results:
            if r.sampler not in out:
                out.append(r.sampler)
        return tuple(out)

    def trials(self, sampler: str) -> tuple[TrialResult, ...]:
        return tuple(
            sorted((r for r in self.results if r.sampler == sampler), key=lambda r: r.trial)
        )

    def values(self, sampler: str, metric: str) -> list[float]:
        """Per-trial values in trial order, absent entries dropped."""
        return [v for r in self.trials(sampler) if (v := r.value(metric)) is not None]

    def mean(self, sampler: str, metric: str) -> float | None:
        values = self.values(sampler, metric)
        return sum(values) / len(values) if values else None

    def std(self, sampler: str, metric: str) -> float | None:
        values = self.values(sampler, metric)
        if not values:
            return None
        center = sum(values) / len(values)
        return math.sqrt(sum((v - center) ** 2 for v in values) / len(values))

    def p_vs_baseline(self, sampler: str) -> float | None:
        """Two-sided p on accuracy against the baseline; None when undefined."""
        if sampler == self.baseline:
            return None
        a = self.values(sampler, "accuracy")
        b = self.values(self.baseline, "accuracy")
        if len(a) < 2 or len(b) < 2:
            return None
        return t_test_two_sided(a, b)[1]

    @classmethod
    def combine(
        cls, reports: Sequence["EvaluationReport"], baseline: str | None = None
    ) -> "EvaluationReport":
        if not reports:
            raise ValueError("no reports to combine")
        results = [r for report in reports for r in report.results]
        return cls(results, baseline=baseline if baseline is not None else reports[0].baseline)


@dataclass
class ExperimentConfig:
    """One sampler's evaluation run: trial count, seeds, and source inputs."""

    sampler: str
    trials: int = 5
    negatives_per_positive: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden_dim: int = 64
    seed: int = 0
    hops: int = 2
    lexicon: AntonymLexicon | None = None
    ranked: RankedTable | None = None
    baseline: str = "uniform"

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; expected one of {SAMPLERS}")
        if self.baseline not in SAMPLERS:
            raise ValueError(f"unknown baseline sampler {self.baseline!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.negatives_per_positive < 1:
            raise ValueError(
                f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}"
            )
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if self.hidden_dim < 2:
            raise ValueError(f"hidden_dim must be >= 2, got {self.hidden_dim}")
        if self.sampler == "antonyms" and self.lexicon is None:
            raise ValueError("the antonyms sampler needs a lexicon")
        if self.sampler in RANKED_SAMPLERS and not self.ranked:
            raise ValueError(f"the {self.sampler} sampler needs a ranked negative list")


def assign_ranked(
    positive_relations: Sequence[str],
    negative_relations: Sequence[str],
    per_positive: int = 1,
) -> list[int]:
    """Indices of the negatives paired with each positive in turn, best first.

    Consumption follows the ranked list order; each positive prefers the
    earliest remaining negative of its own relation and falls back to the
    earliest remaining one overall. Exhausting the list is an error naming
    the number of uncovered draws.
    """
    by_relation: dict[str, deque[int]] = {}
    for i, relation in enumerate(negative_relations):
        by_relation.setdefault(relation, deque()).append(i)
    consumed = [False] * len(negative_relations)
    cursor = 0
    out: list[int] = []
    shortfall = 0
    for relation in positive_relations:
        for _ in range(per_positive):
            index = None
            queue = by_relation.get(relation)
            if queue is not None:
                while queue and consumed[queue[0]]:
                    queue.popleft()
                if queue:
                    index = queue.popleft()
            if index is None:
                while cursor < len(consumed) and consumed[cursor]:
                    cursor += 1
                if cursor < len(consumed):
                    index = cursor
            if index is None:
                shortfall += 1
                continue
            consumed[index] = True
            out.append(index)
    if shortfall:
        raise ValueError(
            f"ranked negatives exhausted: {shortfall} of "
            f"{len(positive_relations) * per_positive} draws uncovered"
        )
    return out


def _draw_negatives(
    kb: KnowledgeBase,
    config: ExperimentConfig,
    graph: EntityGraph | None,
    trial_seed: int,
) -> TripleTable:
    """The trial's negatives for the KB's positives, in positive order."""
    train = kb.splits.train
    n = config.negatives_per_positive
    if config.sampler in RANKED_SAMPLERS:
        ranked = config.ranked.candidates
        relations = [ranked.relations[r] for r in ranked.rows[:, 1].tolist()]
        return ranked.take(assign_ranked([t.relation for t in train], relations, n))
    # Salt 50: a stream no other draw of the trial uses. Every sampler draws
    # from it alone, positives in order.
    rng = np.random.default_rng([trial_seed, 50])
    draw = {"uniform": sample_uniform, "slots": sample_slots, "sans": partial(sample_sans, graph)}
    if config.sampler in draw:
        return draw[config.sampler](kb, kb.ids.rows, n, rng)
    edits = (sample_antonyms(config.lexicon, kb, p, rng) for p in train for _ in range(n))
    return TripleTable.from_triples(edit for edit in edits if edit is not None)


def run_experiment(kb: KnowledgeBase, config: ExperimentConfig) -> EvaluationReport:
    """Train, threshold, and test once per trial; aggregate into a report.

    Each trial re-initializes the scorer and redraws sampled negatives from a
    seed derived from (base seed, trial index); ranked sources reuse their
    fixed list every trial. The classifier trains on the positive training
    split plus the drawn negatives, thresholds come from the validation
    split, and metrics from the test split.
    """
    if not kb.splits.train:
        raise ValueError("empty training split")
    if not kb.splits.validation or not kb.splits.test:
        raise ValueError("evaluation needs non-empty validation and test splits")
    vocab = TokenVocab.from_kb(kb)
    graph = EntityGraph.from_kb(kb, config.hops) if config.sampler == "sans" else None
    positives = kb.ids.table(kb.ids.rows)
    results: list[TrialResult] = []
    for trial in range(1, config.trials + 1):
        trial_seed = derive_seed(config.seed, trial)
        negatives = _draw_negatives(kb, config, graph, trial_seed)
        labels = np.repeat([1.0, 0.0], [len(positives), len(negatives)])
        params = init_params(vocab, hidden_dim=config.hidden_dim, seed=trial_seed)
        train_config = replace(config.train, seed=trial_seed)
        params, _ = train_supervised(params, positives.concat(negatives), train_config, labels)
        thresholds = fit_thresholds(params, kb.splits.validation)
        scores = score_batch(params, kb.splits.test)
        predictions = [
            float(s) > thresholds.threshold_for(t.relation)
            for s, t in zip(scores, kb.splits.test)
        ]
        truth = [t.label == 1 for t in kb.splits.test]
        accuracy, precision, recall = metrics(predictions, truth)
        results.append(TrialResult(config.sampler, trial, accuracy, precision, recall))
    return EvaluationReport(results, baseline=config.baseline)


def _format_optional(value: float | None) -> str:
    return NA if value is None else format_float(value)


def write_trials_tsv(results: Sequence[TrialResult], path: str | Path) -> None:
    """Write one `sampler trial accuracy precision recall` row per trial."""
    lines = [
        f"{r.sampler}\t{r.trial}\t{format_float(r.accuracy)}"
        f"\t{_format_optional(r.precision)}\t{_format_optional(r.recall)}\n"
        for r in results
    ]
    atomic_write_text(path, "".join(lines))


def read_trials_tsv(*paths: str | Path) -> list[TrialResult]:
    """Rows of one or more trials files, which must not repeat a (sampler, trial) pair."""
    def parse(fields: list[str]) -> TrialResult:
        sampler, trial, accuracy, precision, recall = fields
        return TrialResult(
            sampler,
            int(trial),
            float(accuracy),
            None if precision == NA else float(precision),
            None if recall == NA else float(recall),
        )

    results: list[TrialResult] = []
    first: dict[tuple[str, int], str | Path] = {}
    for path in paths:
        for line_no, result in read_lines(path, parse, 5):
            key = (result.sampler, result.trial)
            if key in first:
                where = "" if first[key] == path else f", also in {first[key]}"
                raise ParseError(path, line_no, f"duplicate trial {key}{where}")
            first[key] = path
            results.append(result)
    return results


def report_rows(report: EvaluationReport) -> list[tuple[str, str, float | None, float | None, float | None]]:
    """(sampler, metric, mean, std, p-vs-baseline) rows; p on accuracy only."""
    rows = []
    for sampler in report.samplers():
        for metric in METRICS:
            p = report.p_vs_baseline(sampler) if metric == "accuracy" else None
            rows.append(
                (sampler, metric, report.mean(sampler, metric), report.std(sampler, metric), p)
            )
    return rows


def write_report_tsv(report: EvaluationReport, path: str | Path) -> None:
    lines = [
        f"{sampler}\t{metric}\t{_format_optional(mean)}"
        f"\t{_format_optional(std)}\t{_format_optional(p)}\n"
        for sampler, metric, mean, std, p in report_rows(report)
    ]
    atomic_write_text(path, "".join(lines))


def format_report(report: EvaluationReport) -> str:
    """Human-readable summary table, one sampler per line."""
    def cell(sampler, metric):
        mean, std = report.mean(sampler, metric), report.std(sampler, metric)
        return "absent" if mean is None else f"{mean:.4f} +/- {std:.4f}"

    lines = [f"baseline: {report.baseline}"]
    header = f"{'sampler':<16}{'accuracy':<20}{'precision':<20}{'recall':<20}p(accuracy)"
    lines.append(header)
    for sampler in report.samplers():
        p = report.p_vs_baseline(sampler)
        p_text = "-" if p is None else f"{p:.4g}"
        lines.append(
            f"{sampler:<16}{cell(sampler, 'accuracy'):<20}"
            f"{cell(sampler, 'precision'):<20}{cell(sampler, 'recall'):<20}{p_text}"
        )
    return "\n".join(lines) + "\n"
