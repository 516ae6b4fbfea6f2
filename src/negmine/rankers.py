"""Rank candidate negatives by contradiction strength.

Every ranker takes the candidates' triples and returns `RankedRow`s, the
rows that `write_ranked_tsv` writes and `read_ranked_tsv` reads back. Four
methods: `theta`, the classification score among the below-threshold pool
("almost positive" first); `grad`, the L2 magnitude of the loss gradient
under a forced positive label (larger means the statement fights the trained
beliefs harder); `grad-fast`, a regression that predicts those magnitudes
from pooled vectors, skipping every backward pass; and `none`, a seeded
shuffle, the no-ranking ablation.
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
    if not candidates:
        return []
    scores = score_batch(params, candidates)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classification score among the candidates")
    by_relation: dict[str, list[int]] = {}
    for i, triple in enumerate(candidates):
        by_relation.setdefault(triple.relation, []).append(i)
    ordered: list[RankedRow] = []
    for relation in sorted(by_relation):
        theta = thresholds.threshold_for(relation)
        pool = [i for i in by_relation[relation] if scores[i] <= theta]
        # Stable sort on negated score keeps emission order among ties.
        pool.sort(key=lambda i: -scores[i])
        kept = pool[: math.ceil(keep_fraction * len(pool))]
        base = len(ordered)
        ordered.extend(
            RankedRow(base + j + 1, candidates[i], float(scores[i]), "theta")
            for j, i in enumerate(kept)
        )
    perm = np.random.default_rng([seed, 10]).permutation(len(ordered))
    return [ordered[i] for i in perm]


def gradient_magnitude(params: ScorerParams, triple: LabeledTriple) -> float:
    """L2 norm of the full parameter gradient at a forced positive label."""
    _, grad = loss_and_gradient(params, triple, 1)
    return grad.norm()


def _rank_descending(
    candidates: list[LabeledTriple], keys: np.ndarray, method: str
) -> list[RankedRow]:
    """Descending stable sort; emission order breaks ties; ranks 1..n."""
    order = np.argsort(-keys, kind="stable")
    return [
        RankedRow(rank, candidates[int(i)], float(keys[int(i)]), method)
        for rank, i in enumerate(order, start=1)
    ]


def rank_grad(params: ScorerParams, candidates: list[LabeledTriple]) -> list[RankedRow]:
    """Descending exact gradient magnitude; one backward pass per candidate."""
    keys = np.array([gradient_magnitude(params, triple) for triple in candidates])
    return _rank_descending(candidates, keys, "grad")


def rank_none(candidates: list[LabeledTriple], *, seed: int = 0) -> list[RankedRow]:
    """No-ranking ablation: a seeded shuffle with constant keys."""
    perm = np.random.default_rng([seed, 11]).permutation(len(candidates))
    return [
        RankedRow(rank, candidates[int(i)], 0.0, "none") for rank, i in enumerate(perm, start=1)
    ]


class GradientPredictor:
    """One-hidden-layer regressor from pooled vectors to gradient magnitudes.

    The hidden block is the same residual tanh used by the scorer's encoder,
    so exactly linear targets stay exactly representable. Inputs and targets
    are standardized internally; `predict` returns values in original target
    units. Zero target variance collapses to the constant predictor.
    """

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.w1 = np.zeros((input_dim, input_dim))
        self.b1 = np.zeros(input_dim)
        self.w2 = np.zeros(input_dim)
        self.b2 = 0.0
        self.x_mean = np.zeros(input_dim)
        self.x_scale = np.ones(input_dim)
        self.y_mean = 0.0
        self.y_scale = 1.0
        self.n_train = 0
        self.train_mae = float("nan")

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape[1] != self.input_dim:
            raise ValueError(
                f"feature dimension {features.shape[1]} does not match predictor input {self.input_dim}"
            )
        x = (features - self.x_mean) / self.x_scale
        hidden = x + np.tanh(x @ self.w1 + self.b1)
        return (hidden @ self.w2 + self.b2) * self.y_scale + self.y_mean


def fit_mae_regressor(
    features: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    *,
    epochs: int = 300,
    learning_rate: float = 0.05,
    batch_size: int = 64,
) -> GradientPredictor:
    """Fit the one-hidden-layer regressor on explicit (features, targets).

    Hidden width equals the feature dimension with the same tanh nonlinearity
    as the scorer's encoder; the mean absolute error objective is minimized
    by the same adaptive-step mini-batch descent.
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
    if y_std <= 1e-12:
        # Constant targets: the bias alone is the exact fit.
        model.train_mae = float(np.abs(model.predict(features) - targets).mean())
        return model
    model.y_scale = y_std

    x = (features - model.x_mean) / model.x_scale
    y = (targets - model.y_mean) / model.y_scale
    init = np.random.default_rng(rng.integers(2**63))
    random_w1 = init.normal(0.0, 1.0 / math.sqrt(h), size=(h, h))

    # Output-layer warm start: least squares over two candidate bases (the
    # bare inputs with a zeroed hidden block, and the random tanh features)
    # drops the descent into a near-optimal basin, so few epochs suffice.
    def output_lstsq(w1: np.ndarray) -> tuple[np.ndarray, float, float]:
        phi = np.column_stack([x + np.tanh(x @ w1), np.ones(n)])
        solution = np.linalg.lstsq(phi, y, rcond=None)[0]
        mae = float(np.abs(phi @ solution - y).mean())
        return solution[:h], float(solution[h]), mae

    starts = [(w1,) + output_lstsq(w1) for w1 in (np.zeros((h, h)), random_w1)]
    model.w1, model.w2, model.b2, best_mae = min(starts, key=lambda s: s[3])
    best = (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2)

    acc_w1 = np.zeros_like(model.w1)
    acc_b1 = np.zeros_like(model.b1)
    acc_w2 = np.zeros_like(model.w2)
    acc_b2 = 0.0
    eps = 1e-10
    for _ in range(epochs):
        perm = init.permutation(n)
        for start in range(0, n, batch_size):
            sel = perm[start : start + batch_size]
            xb, yb = x[sel], y[sel]
            t = np.tanh(xb @ model.w1 + model.b1)
            pred = (xb + t) @ model.w2 + model.b2
            dpred = np.sign(pred - yb) / len(sel)
            dw2 = (xb + t).T @ dpred
            db2 = float(dpred.sum())
            dt = np.outer(dpred, model.w2) * (1.0 - t * t)
            dw1 = xb.T @ dt
            db1 = dt.sum(axis=0)
            acc_w1 += dw1 * dw1
            acc_b1 += db1 * db1
            acc_w2 += dw2 * dw2
            acc_b2 += db2 * db2
            model.w1 -= learning_rate * dw1 / (np.sqrt(acc_w1) + eps)
            model.b1 -= learning_rate * db1 / (np.sqrt(acc_b1) + eps)
            model.w2 -= learning_rate * dw2 / (np.sqrt(acc_w2) + eps)
            model.b2 -= learning_rate * db2 / (math.sqrt(acc_b2) + eps)
        # Keep the best epoch-end parameters: refinement from a warm start
        # must never hand back something worse than a point it visited.
        t = np.tanh(x @ model.w1 + model.b1)
        epoch_mae = float(np.abs((x + t) @ model.w2 + model.b2 - y).mean())
        if epoch_mae < best_mae:
            best_mae = epoch_mae
            best = (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2)
    model.w1, model.b1, model.w2, model.b2 = best
    model.train_mae = float(np.abs(model.predict(features) - targets).mean())
    return model


def fit_gradient_predictor(
    params: ScorerParams,
    candidates: list[LabeledTriple],
    n: int,
    rng: np.random.Generator,
    *,
    epochs: int = 300,
    learning_rate: float = 0.05,
    batch_size: int = 64,
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
    return fit_mae_regressor(
        features, targets, rng, epochs=epochs, learning_rate=learning_rate, batch_size=batch_size
    )


def rank_grad_fast(
    params: ScorerParams, predictor: GradientPredictor, candidates: list[LabeledTriple]
) -> list[RankedRow]:
    """Descending predicted gradient magnitude; forward passes only."""
    if predictor.input_dim != params.hidden_dim:
        raise ValueError(
            f"predictor input dimension {predictor.input_dim} does not match "
            f"scorer hidden dimension {params.hidden_dim}"
        )
    if not candidates:
        return []
    keys = predictor.predict(encode_batch(params, candidates))
    return _rank_descending(candidates, keys, "grad-fast")


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
