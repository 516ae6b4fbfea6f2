"""Rank candidate negatives by contradiction strength.

Every ranker takes the candidates' triples and returns `RankedRow`s, the
rows that `write_ranked_tsv` writes and `read_ranked_tsv` reads back. Four
methods: `theta`, the classification score among the below-threshold pool
("almost positive" first); `grad`, the L2 magnitude of the loss gradient
under a forced positive label (larger means the statement fights the trained
beliefs harder); `grad-fast`, a linear least-squares fit on a sample of exact
norms that predicts the other magnitudes from pooled vectors, skipping their
backward passes; and `none`, a seeded shuffle, the no-ranking ablation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ioutil import ParseError, atomic_write_text, format_float, read_lines
from .kb import LabeledTriple, Phrase, intern_phrase
from .scorer import (
    ScorerParams,
    ThresholdMap,
    encode_batch,
    loss_and_gradient,
    score_batch,
)

RANK_METHODS = ("theta", "grad", "grad-fast", "none")


@dataclass(frozen=True)
class RankedRow:
    """One ranked negative: a line of a ranked file.

    The ranks of a list are a permutation of 1..n. A shuffled list keeps each
    row's pre-shuffle position in `rank`, so sorting by `rank` recovers the
    key-descending order within each pool.
    """

    rank: int
    triple: LabeledTriple
    key: float
    method: str

    def __post_init__(self):
        if self.method not in RANK_METHODS:
            raise ValueError(f"unknown ranking method {self.method!r}")
        if self.triple.label != 0:
            raise ValueError(f"ranked triples are negatives, got label {self.triple.label}")
        if not math.isfinite(self.key):
            raise ValueError(f"non-finite ranking key {self.key!r} at rank {self.rank}")


def rank_theta(
    params: ScorerParams,
    thresholds: ThresholdMap,
    candidates: list[LabeledTriple],
    keep_fraction: float = 0.5,
    *,
    seed: int = 0,
) -> list[RankedRow]:
    """Keep below-threshold candidates, best-scoring first, per relation.

    Per relation: candidates with score <= theta_r are sorted descending by
    score (ties by emission order) and truncated to ceil(keep_fraction x pool
    size). Pools are concatenated in sorted relation order, ranks assigned,
    then the list order is shuffled by a seeded permutation.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    scores = score_batch(params, candidates)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classification score among the candidates")
    by_relation: dict[str, list[int]] = {}
    for i, triple in enumerate(candidates):
        by_relation.setdefault(triple.relation, []).append(i)
    order: list[int] = []
    for relation in sorted(by_relation):
        theta = thresholds.threshold_for(relation)
        pool = [i for i in by_relation[relation] if scores[i] <= theta]
        # Stable sort on negated score keeps emission order among ties.
        pool.sort(key=lambda i: -scores[i])
        order.extend(pool[: math.ceil(keep_fraction * len(pool))])
    ordered = _ranked(candidates, order, scores, "theta")
    perm = np.random.default_rng([seed, 10]).permutation(len(ordered))
    return [ordered[i] for i in perm]


def gradient_magnitude(params: ScorerParams, triple: LabeledTriple) -> float:
    """L2 norm of the full parameter gradient at a forced positive label."""
    _, grad = loss_and_gradient(params, triple, 1)
    return grad.norm()


def _ranked(
    candidates: list[LabeledTriple], order: list[int] | np.ndarray, keys: np.ndarray, method: str
) -> list[RankedRow]:
    """Rows of the candidates listed in `order`, ranked 1..n in that order."""
    keys = np.asarray(keys, dtype=np.float64).tolist()
    return [
        RankedRow(rank, candidates[i], keys[i], method)
        for rank, i in enumerate(np.asarray(order, dtype=np.int64).tolist(), start=1)
    ]


def rank_grad(params: ScorerParams, candidates: list[LabeledTriple]) -> list[RankedRow]:
    """Descending exact gradient magnitude, ties in emission order; one backward pass each."""
    keys = np.array([gradient_magnitude(params, triple) for triple in candidates])
    return _ranked(candidates, np.argsort(-keys, kind="stable"), keys, "grad")


def rank_none(candidates: list[LabeledTriple], *, seed: int = 0) -> list[RankedRow]:
    """No-ranking ablation: a seeded shuffle with constant keys."""
    perm = np.random.default_rng([seed, 11]).permutation(len(candidates))
    return _ranked(candidates, perm, np.zeros(len(candidates)), "none")


class GradientPredictor:
    """Linear regressor from pooled vectors to gradient magnitudes.

    Inputs and targets are standardized internally; `predict` returns values
    in original target units. Zero target variance collapses to the constant
    predictor.
    """

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.weights = np.zeros(input_dim)
        self.bias = 0.0
        self.x_mean = np.zeros(input_dim)
        self.x_scale = np.ones(input_dim)
        self.y_mean = 0.0
        self.y_scale = 1.0
        self.n_train = 0
        self.train_mae = float("nan")

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted magnitudes for an (n, input_dim) feature matrix."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.input_dim:
            raise ValueError(
                f"feature dimension {features.shape[1]} does not match predictor input {self.input_dim}"
            )
        x = (features - self.x_mean) / self.x_scale
        return (x @ self.weights + self.bias) * self.y_scale + self.y_mean


def fit_mae_regressor(features: np.ndarray, targets: np.ndarray) -> GradientPredictor:
    """Fit the linear regressor on explicit (features, targets).

    Weights and bias are one least-squares solve over the standardized
    inputs. The name predates the closed form and stays because the
    benchmark's tracer wraps it.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n, h = features.shape
    model = GradientPredictor(h)
    model.n_train = n
    std = features.std(axis=0)
    model.x_mean = features.mean(axis=0)
    model.x_scale = np.where(std > 1e-12, std, 1.0)
    model.y_mean = float(targets.mean())
    y_std = float(targets.std())
    model.y_scale = y_std if y_std > 1e-12 else 1.0
    x = (features - model.x_mean) / model.x_scale
    y = (targets - model.y_mean) / model.y_scale
    solution = np.linalg.lstsq(np.column_stack([x, np.ones(n)]), y, rcond=None)[0]
    model.weights, model.bias = solution[:h], float(solution[h])
    model.train_mae = float(np.abs(model.predict(features) - targets).mean())
    return model


def fit_gradient_predictor(
    params: ScorerParams, candidates: list[LabeledTriple], n: int, rng: np.random.Generator
) -> GradientPredictor:
    """Fit the magnitude regressor on n uniformly sampled candidates.

    Features are the scorer's pooled vectors; targets are the exact gradient
    magnitudes. Sampling is uniform without replacement.
    """
    if n < 2:
        raise ValueError(f"need at least 2 training candidates, got n={n}")
    if n > len(candidates):
        raise ValueError(f"n={n} exceeds candidate count {len(candidates)}")
    chosen = [candidates[int(i)] for i in rng.choice(len(candidates), size=n, replace=False)]
    features = encode_batch(params, chosen)
    targets = np.array([gradient_magnitude(params, triple) for triple in chosen])
    if not np.isfinite(targets).all():
        raise ValueError("non-finite gradient magnitude among the predictor's training targets")
    return fit_mae_regressor(features, targets)


def rank_grad_fast(
    params: ScorerParams, predictor: GradientPredictor, candidates: list[LabeledTriple]
) -> list[RankedRow]:
    """Descending predicted gradient magnitude; forward passes only."""
    keys = predictor.predict(encode_batch(params, candidates))
    return _ranked(candidates, np.argsort(-keys, kind="stable"), keys, "grad-fast")


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; zero variance in either input is an error."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    xd = x - x.mean()
    yd = y - y.mean()
    vx = float(xd @ xd)
    vy = float(yd @ yd)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance input")
    return float(xd @ yd) / math.sqrt(vx * vy)


def write_ranked_tsv(rows: list[RankedRow], path: str | Path) -> None:
    """Rows in list order: `rank relation head tail key method` (tab-separated)."""
    lines = [
        "\t".join([str(row.rank), row.triple.relation, row.triple.head.text,
                   row.triple.tail.text, format_float(row.key), row.method])
        for row in rows
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_ranked_tsv(path: str | Path) -> list[RankedRow]:
    """Rows of a ranked file, which must hold distinct triples ranked 1..n."""
    phrases: dict[str, Phrase] = {}
    ranks: set[int] = set()
    seen: set[tuple] = set()

    def parse(fields: list[str]) -> RankedRow:
        rank_text, relation, head, tail, key_text, method = fields
        row = RankedRow(
            int(rank_text),
            LabeledTriple(intern_phrase(phrases, head), relation, intern_phrase(phrases, tail), 0),
            float(key_text),
            method,
        )
        if row.rank < 1 or row.rank in ranks:
            raise ValueError(f"rank {row.rank} repeated or below 1")
        ranks.add(row.rank)
        if row.triple.key() in seen:
            raise ValueError(f"duplicate triple {relation!r} {head!r} {tail!r}")
        seen.add(row.triple.key())
        return row

    rows = []
    top, top_line = 0, 0
    for line_no, row in read_lines(path, parse, 6):
        rows.append(row)
        if row.rank > top:
            top, top_line = row.rank, line_no
    if top > len(rows):
        raise ParseError(path, top_line, f"rank {top} exceeds the row count {len(rows)}")
    return rows
