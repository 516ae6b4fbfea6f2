"""Rank candidate negatives by contradiction strength.

Every ranker takes a `CandidateTable` and returns a `RankedTable`: the
candidate rows in list order plus rank, key and method columns, which
`write_ranked_tsv` writes and `read_ranked_tsv` reads back. Forward passes
hand the table to the scorer as it is (`score_rows`, `encode_rows`), and a
ranker decodes to triples only the rows its backward passes take. Four
methods: `theta`, the classification score among the below-threshold pool
("almost positive" first); `grad`, the L2 magnitude of the loss gradient
under a forced positive label (larger means the statement fights the
trained beliefs harder), one backward pass per candidate; `grad-fast`, a
linear least-squares fit on a sample of exact norms, taken in closed form
from forward passes (`scorer.gradient_norms`), that predicts the other
magnitudes from pooled vectors; and `none`, a seeded shuffle, the
no-ranking ablation.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .candidates import CandidateTable
from .ioutil import ParseError, atomic_write_text, format_float, read_lines
from .kb import LabeledTriple, PhraseIds
from .scorer import (  # noqa: F401  (score_batch re-exported for the benchmark tracer)
    ScorerParams,
    ThresholdMap,
    encode_rows,
    gradient_norms,
    loss_and_gradient,
    score_batch,
    score_rows,
)

RANK_METHODS = ("theta", "grad", "grad-fast", "none")


@dataclass(frozen=True)
class RankedRow:
    """One ranked negative, a line of a ranked file, as a `RankedTable` decodes it.

    The ranks of a list are a permutation of 1..n. A shuffled list keeps each
    row's pre-shuffle position in `rank`, so sorting by `rank` recovers the
    key-descending order within each pool.
    """

    rank: int
    triple: LabeledTriple
    key: float
    method: str


@dataclass(frozen=True, eq=False)
class RankedTable(Sequence[RankedRow]):
    """A ranked list as columns: `candidates` holds its rows in list order,
    and row i has rank `ranks[i]`, key `keys[i]` and method `methods[i]`.

    Building the table checks every row once: a known method and a finite
    key (every candidate row has label 0). The table reads as a sequence of
    `RankedRow`, decoded on access (all rows in one pass when iterated).
    """

    candidates: CandidateTable
    ranks: np.ndarray  # (n,) int64
    keys: np.ndarray  # (n,) float64
    methods: np.ndarray  # (n,) str

    def __post_init__(self):
        unknown = np.flatnonzero(~np.isin(self.methods, RANK_METHODS))
        if len(unknown):
            raise ValueError(f"unknown ranking method {str(self.methods[unknown[0]])!r}")
        bad = np.flatnonzero(~np.isfinite(self.keys))
        if len(bad):
            i = bad[0]
            raise ValueError(
                f"non-finite ranking key {float(self.keys[i])!r} at rank {int(self.ranks[i])}"
            )

    def __len__(self) -> int:
        return len(self.ranks)

    def _rows(self, indices: np.ndarray) -> list[RankedRow]:
        return [
            RankedRow(rank, triple, key, method)
            for triple, rank, key, method in zip(
                self.candidates.triples(indices),
                self.ranks[indices].tolist(),
                self.keys[indices].tolist(),
                self.methods[indices].tolist(),
            )
        ]

    def __getitem__(self, i: int) -> RankedRow:
        (row,) = self._rows(np.asarray([i], dtype=np.int64))
        return row

    def __iter__(self) -> Iterator[RankedRow]:
        return iter(self._rows(np.arange(len(self))))


def rank_theta(
    params: ScorerParams,
    thresholds: ThresholdMap,
    candidates: CandidateTable,
    keep_fraction: float = 0.5,
    *,
    seed: int = 0,
) -> RankedTable:
    """Keep below-threshold candidates, best-scoring first, per relation.

    Per relation: candidates with score <= theta_r are sorted descending by
    score (ties by emission order) and truncated to ceil(keep_fraction x pool
    size). Pools are concatenated in sorted relation order, ranks assigned,
    then the list order is shuffled by a seeded permutation.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    scores = score_rows(params, candidates)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classification score among the candidates")
    relation_of = candidates.rows[:, 1]
    kept = [np.zeros(0, dtype=np.int64)]
    for relation, name in sorted(enumerate(candidates.relations), key=lambda item: item[1]):
        below = scores <= thresholds.threshold_for(name)
        pool = np.flatnonzero((relation_of == relation) & below)
        # Stable sort on negated score keeps emission order among ties.
        pool = pool[np.argsort(-scores[pool], kind="stable")]
        kept.append(pool[: math.ceil(keep_fraction * len(pool))])
    order = np.concatenate(kept)
    perm = np.random.default_rng([seed, 10]).permutation(len(order))
    return _ranked(candidates, order[perm], scores, "theta", ranks=perm + 1)


def gradient_magnitude(params: ScorerParams, triple: LabeledTriple) -> float:
    """L2 norm of the full parameter gradient at a forced positive label."""
    _, grad = loss_and_gradient(params, triple, 1)
    return grad.norm()


def _ranked(
    candidates: CandidateTable,
    order: np.ndarray,
    keys: np.ndarray,
    method: str,
    ranks: np.ndarray | None = None,
) -> RankedTable:
    """The candidates listed in `order` with their `keys`, ranked 1..n in that
    order unless `ranks` gives each listed row its rank."""
    n = len(order)
    return RankedTable(
        candidates.take(order),
        np.arange(1, n + 1) if ranks is None else ranks,
        np.asarray(keys, dtype=np.float64)[order],
        np.full(n, method),
    )


def rank_grad(params: ScorerParams, candidates: CandidateTable) -> RankedTable:
    """Descending exact gradient magnitude, ties in emission order; one backward pass each."""
    keys = np.array([gradient_magnitude(params, triple) for triple in candidates.triples()])
    return _ranked(candidates, np.argsort(-keys, kind="stable"), keys, "grad")


def rank_none(candidates: CandidateTable, *, seed: int = 0) -> RankedTable:
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
    params: ScorerParams, candidates: CandidateTable, n: int, rng: np.random.Generator
) -> GradientPredictor:
    """Fit the magnitude regressor on n uniformly sampled candidates.

    Features are the scorer's pooled vectors; targets are the exact gradient
    magnitudes, from `gradient_norms`. Sampling is uniform without replacement.
    """
    if n < 2:
        raise ValueError(f"need at least 2 training candidates, got n={n}")
    if n > len(candidates):
        raise ValueError(f"n={n} exceeds candidate count {len(candidates)}")
    sample = candidates.take(rng.choice(len(candidates), size=n, replace=False))
    features = encode_rows(params, sample)
    targets = gradient_norms(params, sample)
    if not np.isfinite(targets).all():
        raise ValueError("non-finite gradient magnitude among the predictor's training targets")
    return fit_mae_regressor(features, targets)


def rank_grad_fast(
    params: ScorerParams, predictor: GradientPredictor, candidates: CandidateTable
) -> RankedTable:
    """Descending predicted gradient magnitude; forward passes only."""
    keys = predictor.predict(encode_rows(params, candidates))
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


def write_ranked_tsv(ranked: RankedTable, path: str | Path) -> None:
    """Rows in list order: `rank relation head tail key method` (tab-separated)."""
    candidates = ranked.candidates
    texts = [p.text for p in candidates.phrases]
    relations = candidates.relations
    lines = [
        f"{rank}\t{relations[r]}\t{texts[h]}\t{texts[t]}\t{format_float(key)}\t{method}\n"
        for rank, (h, r, t), key, method in zip(
            ranked.ranks.tolist(),
            candidates.rows.tolist(),
            ranked.keys.tolist(),
            ranked.methods.tolist(),
        )
    ]
    atomic_write_text(path, "".join(lines))


def read_ranked_tsv(path: str | Path) -> RankedTable:
    """The ranked table of a ranked file, which must hold distinct triples ranked 1..n.

    A repeated triple (compared by phrase ids, so case and spacing variants
    count) is rejected at the line that repeats it, and a rank beyond the
    row count at that rank's line.
    """
    phrase_ids = PhraseIds()
    relation_ids: dict[str, int] = {}
    rows: dict[tuple[int, int, int], None] = {}  # distinct, in file order
    rank_lines: dict[int, int] = {}  # rank -> its line number, in file order
    keys: list[float] = []
    methods: list[str] = []

    def parse(fields: list[str]) -> int:
        rank_text, relation, head, tail, key_text, method = fields
        rank = int(rank_text)
        row = (phrase_ids[head], relation_ids.setdefault(relation, len(relation_ids)), phrase_ids[tail])
        key = float(key_text)
        if method not in RANK_METHODS:
            raise ValueError(f"unknown ranking method {method!r}")
        if not math.isfinite(key):
            raise ValueError(f"non-finite ranking key {key!r} at rank {rank}")
        if rank < 1 or rank in rank_lines:
            raise ValueError(f"rank {rank} repeated or below 1")
        if row in rows:
            raise ValueError(f"duplicate triple {relation!r} {head!r} {tail!r}")
        rows[row] = None
        keys.append(key)
        methods.append(method)
        return rank

    for line_no, rank in read_lines(path, parse, 6):
        rank_lines[rank] = line_no
    top = max(rank_lines, default=0)
    if top > len(rank_lines):
        raise ParseError(path, rank_lines[top], f"rank {top} exceeds the row count {len(rows)}")
    table = CandidateTable(
        tuple(phrase_ids.phrases),
        tuple(relation_ids),
        np.fromiter(chain.from_iterable(rows), dtype=np.int64).reshape(-1, 3),
    )
    return RankedTable(
        table,
        np.fromiter(rank_lines, dtype=np.int64, count=len(rank_lines)),
        np.asarray(keys, dtype=np.float64),
        np.asarray(methods, dtype=str),
    )
