"""Exact k-nearest-neighbor search over phrase embeddings.

Distances are Euclidean, computed exactly via precomputed squared norms.
Desk-scale KBs do not need approximate structures, and exact search keeps
results verifiable against a naive full scan. A query partitions its
distances at the k-th smallest and stable-sorts only the phrases at or below
it, so the result is that of a stable sort of all distances, ties included.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kb import Phrase


@dataclass
class PhraseIndex:
    """Immutable embedding index over an ordered phrase list."""

    phrases: tuple[Phrase, ...]
    matrix: np.ndarray  # (n, H)
    norms: np.ndarray  # (n,) squared row norms
    positions: dict[Phrase, int]

    def __len__(self) -> int:
        return len(self.phrases)


def build_index(phrases: list[Phrase], embed: Callable[[Phrase], np.ndarray]) -> PhraseIndex:
    """Embed every phrase; insertion order defines tie-break priority."""
    if not phrases:
        raise ValueError("cannot index an empty phrase list")
    positions: dict[Phrase, int] = {}
    for i, p in enumerate(phrases):
        if p in positions:
            raise ValueError(f"duplicate phrase in index input: {p.text!r}")
        positions[p] = i
    matrix = np.stack([np.asarray(embed(p), dtype=np.float64) for p in phrases])
    norms = (matrix * matrix).sum(axis=1)
    # A non-finite embedding makes its norm non-finite too.
    if not np.isfinite(norms).all():
        raise ValueError("non-finite phrase embedding or squared norm")
    return PhraseIndex(tuple(phrases), matrix, norms, positions)


def knn(index: PhraseIndex, query: Phrase, k: int) -> list[tuple[Phrase, float]]:
    """k nearest phrases to an indexed query, ascending distance.

    The query itself is excluded; ties break by index insertion order; fewer
    than k results are returned when the index is small. The k-th smallest
    distance is found by partition, and only the phrases at or below it are
    stable-sorted: the search stays exact, ties across the k-th place
    included.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if query not in index.positions:
        raise ValueError(f"query phrase not in index: {query.text!r}")
    if k == 0:
        return []
    q_pos = index.positions[query]
    q = index.matrix[q_pos]
    sq = index.norms - 2.0 * (index.matrix @ q) + float(q @ q)
    if not np.isfinite(sq).all():
        raise ValueError(f"non-finite squared distance from {query.text!r}")
    np.maximum(sq, 0.0, out=sq)  # cancellation can leave tiny negatives
    sq[q_pos] = np.inf
    n_hits = min(k, len(index) - 1)
    # Every index at or below the n_hits-th smallest distance, in index
    # order: a stable sort of these keeps insertion order among exact ties,
    # also across the cut, as a stable sort of all of them would. (A
    # one-phrase index has n_hits 0: the cut at -1 is the query's inf.)
    kth = np.partition(sq, n_hits - 1)[n_hits - 1]
    (near,) = np.nonzero(sq <= kth)
    order = near[np.argsort(sq[near], kind="stable")[:n_hits]]
    phrases = index.phrases
    return [(phrases[i], d) for i, d in zip(order.tolist(), np.sqrt(sq[order]).tolist())]

