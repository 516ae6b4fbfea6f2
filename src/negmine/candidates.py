"""Candidate negative statements by nearest-neighbor phrase substitution.

For each KB positive, the head and the tail phrase are each replaced by their
k nearest neighbor phrases, keeping only candidates that (a) are not stored
positives, (b) put the substituted phrase in a slot where that relation has
actually seen it, and (c) have not been emitted before. The surviving
candidates are plausible-but-unsupported statements, ready for ranking.

Generation runs on the KB's integer view (`KnowledgeBase.ids`): neighbor
lists become KB phrase ids, candidates become packed int64 triple keys, and
filters (a)-(c) are array operations over blocks of positives.

Candidates travel as a `CandidateTable`, a `kb.TripleTable` with
substitution columns: `generate_candidates` returns one over the KB's ids,
`write_candidates_tsv` formats its columns, and `read_candidates_tsv` parses
a file back into one, which the rankers and the scorer take as it is.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_text, read_lines
from .kb import SLOTS, KnowledgeBase, LabeledTriple, PhraseIds, TripleTable
from .retrieval import PhraseIndex, knn

# Grid cells (positive x slot x neighbor rank) expanded at a time.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Candidate:
    """An out-of-KB triple plus the substitution that produced it."""

    triple: LabeledTriple
    source: LabeledTriple
    slot: str
    neighbor_rank: int  # 1-based position in the k-NN list

    def __post_init__(self):
        if self.slot not in SLOTS:
            raise ValueError(f"unknown slot {self.slot!r}")
        if self.neighbor_rank < 1:
            raise ValueError("neighbor_rank is 1-based")


@dataclass(frozen=True, eq=False)
class CandidateTable(TripleTable, Sequence[Candidate]):
    """Candidate negatives: a `TripleTable` plus the substitution that made each row.

    Every candidate has label 0. The substitution columns say how row i was
    made: `sources[i]` holds the substituted positive's (head phrase, tail
    phrase), `slots[i]` indexes `SLOTS`, and `neighbor_ranks[i]` is 1-based.
    A table made by `from_triples` has no substitution columns (they are None).

    The table reads as a sequence of `Candidate`, decoded on access (all rows
    in one pass when iterated); `triples` decodes only the rows asked for.
    """

    sources: np.ndarray | None = None  # (n, 2) int64
    slots: np.ndarray | None = None  # (n,) int64
    neighbor_ranks: np.ndarray | None = None  # (n,) int64

    @classmethod
    def from_triples(cls, triples: Iterable[LabeledTriple]) -> "CandidateTable":
        """A table of the label-0 triples' statements, in order, without substitution columns."""
        triples = list(triples)
        if any(t.label for t in triples):
            raise ValueError("candidate triples are negatives, got label 1")
        return super().from_triples(triples)

    def take(self, indices: np.ndarray) -> "CandidateTable":
        """The table of rows `indices`, in that order, over the same phrases and relations."""
        columns = (self.rows, self.sources, self.slots, self.neighbor_ranks)
        return CandidateTable(
            self.phrases, self.relations, *(None if c is None else c[indices] for c in columns)
        )

    def _candidates(self, indices: np.ndarray) -> list[Candidate]:
        if self.sources is None:
            raise ValueError("a table made from triples holds no substitutions")
        phrases = self.phrases
        return [
            Candidate(
                triple,
                LabeledTriple(phrases[head], triple.relation, phrases[tail], 1),
                SLOTS[slot],
                rank,
            )
            for triple, (head, tail), slot, rank in zip(
                self.triples(indices),
                self.sources[indices].tolist(),
                self.slots[indices].tolist(),
                self.neighbor_ranks[indices].tolist(),
            )
        ]

    def __getitem__(self, i: int) -> Candidate:
        (candidate,) = self._candidates(np.asarray([i], dtype=np.int64))
        return candidate

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self._candidates(np.arange(len(self))))


def generate_candidates(kb: KnowledgeBase, index: PhraseIndex, k: int) -> CandidateTable:
    """All filtered substitution candidates, in deterministic order, as a table over `kb.ids`.

    Order: positives in KB order; head substitutions before tail; neighbors
    by ascending distance. Duplicate candidate triples keep their first
    occurrence only, so each positive yields at most 2k candidates and
    usually fewer.

    The work is done on the KB's integer view (`kb.ids`): `knn` runs once per
    KB phrase, and each block of positives expands to a (positive, slot,
    neighbor rank) grid of substitutions. The slot filter is a lookup in a
    boolean table of the 2 x relations x phrases slot cells, built per call
    from `ids.slot_keys`. Only the grid cells it admits are packed into
    triple keys, and only their distinct keys are tested for KB membership.
    The table's columns are gathered from the surviving grid positions.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ids = kb.ids
    # Row i: the k-NN list of KB phrase i as KB phrase ids, -1 for a neighbor
    # the KB does not store (no slot admits it) and as padding. At least one
    # column, so that an empty neighbor list still makes a grid.
    lists = [knn(index, phrase, k) for phrase in kb.phrases]
    lengths = np.array([len(hits) for hits in lists], dtype=np.int64)
    width = max(1, int(lengths.max(initial=0)))
    neighbors = np.full((len(lists), width), -1, dtype=np.int64)
    position = kb.phrase_positions.get
    flat_ids = (position(p, -1) for hits in lists for p, _ in hits)
    neighbors[np.arange(width) < lengths[:, None]] = np.fromiter(flat_ids, dtype=np.int64)
    allowed = np.zeros(2 * len(ids.relations) * ids.n_phrases, dtype=bool)
    allowed[ids.slot_keys] = True

    # Grid cell (positive, slot, rank) has flat position
    # (positive * 2 + slot) * width + rank - 1: emission order.
    cells = 2 * width
    block = max(1, _BLOCK_CELLS // cells)
    slot = np.arange(2)[None, :, None]
    empty = np.zeros(0, dtype=np.int64)
    positions, keys, replacements = [empty], [empty], [empty]
    for start in range(0, len(ids.rows), block):
        h, r, t = ids.rows[start : start + block].T
        sub = np.stack([neighbors[h], neighbors[t]], axis=1)
        # pack_slot(r, s, -1) is the cell before (r, s, 0), so -1 is masked.
        admitted = (sub >= 0) & allowed[ids.pack_slot(r[:, None, None], slot, sub)]
        (flat,) = np.nonzero(admitted.ravel())
        positive, cell = np.divmod(flat, cells)
        replacement = sub.ravel()[flat]
        is_head = cell < width
        heads = np.where(is_head, replacement, h[positive])
        tails = np.where(is_head, t[positive], replacement)
        positions.append(start * cells + flat)
        keys.append(ids.pack(heads, r[positive], tails))
        replacements.append(replacement)
    # Slot survivors are in emission order, so the first index of each key is
    # its first occurrence. A stored triple is stored at every occurrence, so
    # the KB test runs on the distinct keys alone.
    _, first = np.unique(np.concatenate(keys), return_index=True)
    first.sort()
    positive_ids, cell = np.divmod(np.concatenate(positions)[first], cells)
    slots, ranks = np.divmod(cell, width)
    sources = ids.rows[positive_ids]
    rows = sources.copy()
    rows[np.arange(len(rows)), 2 * slots] = np.concatenate(replacements)[first]
    new = ~ids.contains(*rows.T)
    return CandidateTable(
        ids.phrases, ids.relations, rows[new], sources[new][:, [0, 2]], slots[new], ranks[new] + 1
    )


@dataclass
class ValidationReport:
    """Violation counts over a candidate list; all zero for generator output."""

    in_kb_leaks: int = 0
    slot_violations: int = 0
    overflow_positives: int = 0
    duplicates: int = 0

    def total(self) -> int:
        return self.in_kb_leaks + self.slot_violations + self.overflow_positives + self.duplicates

    def ok(self) -> bool:
        return self.total() == 0


def validate_candidates(
    kb: KnowledgeBase, candidates: Iterable[Candidate], k: int
) -> ValidationReport:
    """Independent recheck of every generation invariant.

    `k` bounds per-positive emission at 2k.
    """
    report = ValidationReport()
    per_positive: dict[tuple, int] = {}
    seen: set[tuple] = set()
    for c in candidates:
        if kb.contains(c.triple):
            report.in_kb_leaks += 1
        if c.triple.phrase(c.slot) not in kb.slot_phrases(c.triple.relation, c.slot):
            report.slot_violations += 1
        per_positive[c.source.key()] = per_positive.get(c.source.key(), 0) + 1
        key = c.triple.key()
        if key in seen:
            report.duplicates += 1
        seen.add(key)
    report.overflow_positives = sum(1 for n in per_positive.values() if n > 2 * k)
    return report


def write_candidates_tsv(candidates: CandidateTable, path: str | Path) -> None:
    """One line per row: `relation head tail source_head source_tail slot neighbor_rank`."""
    texts = [p.text for p in candidates.phrases]
    relations = candidates.relations
    lines = [
        f"{relations[r]}\t{texts[h]}\t{texts[t]}\t{texts[sh]}\t{texts[st]}\t{SLOTS[slot]}\t{rank}\n"
        for (h, r, t), (sh, st), slot, rank in zip(
            candidates.rows.tolist(),
            candidates.sources.tolist(),
            candidates.slots.tolist(),
            candidates.neighbor_ranks.tolist(),
        )
    ]
    atomic_write_text(path, "".join(lines))


# Largest neighbor rank a candidate table holds (its int64 column).
_MAX_RANK = np.iinfo(np.int64).max


def read_candidates_tsv(path: str | Path) -> CandidateTable:
    """The candidate table of a candidate file, which must hold distinct triples.

    A repeated triple (compared by phrase ids, so case and spacing variants
    count) is rejected at the line that repeats it.
    """
    phrase_ids = PhraseIds()
    relation_ids: dict[str, int] = {}
    slot_ids = {slot: i for i, slot in enumerate(SLOTS)}
    seen: set[tuple[int, int, int]] = set()

    def parse(fields: list[str]) -> tuple[int, ...]:
        relation, head, tail, src_head, src_tail, slot, rank_text = fields
        try:
            rank = int(rank_text)
        except ValueError:
            raise ValueError(f"bad neighbor_rank {rank_text!r}") from None
        relation_id = relation_ids.setdefault(relation, len(relation_ids))
        row = (phrase_ids[head], relation_id, phrase_ids[tail])
        if row in seen:
            raise ValueError(f"duplicate candidate triple {relation!r} {head!r} {tail!r}")
        seen.add(row)
        source = (phrase_ids[src_head], phrase_ids[src_tail])
        slot_id = slot_ids.get(slot)
        if slot_id is None:
            raise ValueError(f"unknown slot {slot!r}")
        if rank < 1:
            raise ValueError("neighbor_rank is 1-based")
        if rank > _MAX_RANK:
            raise ValueError(f"neighbor_rank {rank} out of range")
        return (*row, *source, slot_id, rank)

    lines = (values for _, values in read_lines(path, parse, 7))
    columns = np.fromiter(chain.from_iterable(lines), dtype=np.int64).reshape(-1, 7)
    return CandidateTable(
        tuple(phrase_ids.phrases),
        tuple(relation_ids),
        columns[:, :3],
        columns[:, 3:5],
        columns[:, 5],
        columns[:, 6],
    )
