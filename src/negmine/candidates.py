"""Candidate negative statements by nearest-neighbor phrase substitution.

For each KB positive, the head and the tail phrase are each replaced by their
k nearest neighbor phrases, keeping only candidates that (a) are not stored
positives, (b) put the substituted phrase in a slot where that relation has
actually seen it, and (c) have not been emitted before. The surviving
candidates are plausible-but-unsupported statements, ready for ranking.

Generation runs on the KB's integer view (`KnowledgeBase.ids`): neighbor
lists become KB phrase ids, candidates become packed int64 triple keys, and
filters (a)-(c) are array operations over blocks of positives.

A candidate file reads back as a `CandidateTable`: integer rows over the
file's distinct phrases and relations, which the rankers take as they are.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_text, read_lines
from .kb import SLOTS, KnowledgeBase, LabeledTriple, Phrase
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
class CandidateTable(Sequence[Candidate]):
    """Candidate negatives as integer rows over their distinct phrases and relations.

    Row i is `rows[i] = (head phrase, relation, tail phrase)`, indexing
    `phrases` (distinct `Phrase`s) and `relations` (names); every candidate
    has label 0. The substitution columns say how row i was made: `sources[i]`
    holds the substituted positive's (head phrase, tail phrase), `slots[i]`
    indexes `SLOTS`, and `neighbor_ranks[i]` is 1-based. A table made by
    `from_triples` has no substitution columns (they are None).

    The table reads as a sequence of `Candidate`, each decoded on access;
    `triples` decodes only the rows asked for.
    """

    phrases: tuple[Phrase, ...]
    relations: tuple[str, ...]
    rows: np.ndarray  # (n, 3) int64
    sources: np.ndarray | None = None  # (n, 2) int64
    slots: np.ndarray | None = None  # (n,) int64
    neighbor_ranks: np.ndarray | None = None  # (n,) int64

    @classmethod
    def from_triples(cls, triples: Iterable[LabeledTriple]) -> "CandidateTable":
        """A table of the triples' statements, in order, without substitution columns."""
        phrase_ids: dict[Phrase, int] = {}
        relation_ids: dict[str, int] = {}
        flat = [
            i
            for t in triples
            for i in (
                phrase_ids.setdefault(t.head, len(phrase_ids)),
                relation_ids.setdefault(t.relation, len(relation_ids)),
                phrase_ids.setdefault(t.tail, len(phrase_ids)),
            )
        ]
        rows = np.asarray(flat, dtype=np.int64).reshape(-1, 3)
        return cls(tuple(phrase_ids), tuple(relation_ids), rows)

    def __len__(self) -> int:
        return len(self.rows)

    def triples(self, indices: Iterable[int] | np.ndarray | None = None) -> list[LabeledTriple]:
        """The label-0 triples of rows `indices` (every row by default), in that order."""
        rows = self.rows if indices is None else self.rows[np.asarray(indices, dtype=np.int64)]
        phrases, relations = self.phrases, self.relations
        return [
            LabeledTriple(phrases[h], relations[r], phrases[t], 0) for h, r, t in rows.tolist()
        ]

    def __getitem__(self, i: int) -> Candidate:
        if self.sources is None:
            raise ValueError("a table made from triples holds no substitutions")
        (triple,) = self.triples([i])
        head, tail = self.sources[i].tolist()
        source = LabeledTriple(self.phrases[head], triple.relation, self.phrases[tail], 1)
        return Candidate(triple, source, SLOTS[self.slots[i]], int(self.neighbor_ranks[i]))


def generate_candidates(kb: KnowledgeBase, index: PhraseIndex, k: int) -> list[Candidate]:
    """All filtered substitution candidates, in deterministic order.

    Order: positives in KB order; head substitutions before tail; neighbors
    by ascending distance. Duplicate candidate triples keep their first
    occurrence only, so each positive yields at most 2k candidates and
    usually fewer.

    The work is done on the KB's integer view (`kb.ids`): `knn` runs once per
    KB phrase, each block of positives expands to a (positive, slot,
    neighbor rank) grid of packed triple keys, and the slot filter and the
    KB membership test are binary searches over packed keys. `Candidate`
    objects are made only for the survivors.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ids = kb.ids
    # Row i: the k-NN list of KB phrase i as KB phrase ids, -1 for a neighbor
    # the KB does not store (no slot admits it) and as padding.
    lists = [
        [kb.phrase_positions.get(p, -1) for p, _ in knn(index, phrase, k)]
        for phrase in kb.phrases
    ]
    width = max(map(len, lists), default=0)
    if width == 0:
        return []
    neighbors = np.full((len(lists), width), -1, dtype=np.int64)
    for i, row in enumerate(lists):
        neighbors[i, : len(row)] = row

    # Grid cell (positive, slot, rank) has flat position
    # (positive * 2 + slot) * width + rank - 1: emission order.
    cells = 2 * width
    block = max(1, _BLOCK_CELLS // cells)
    slot = np.arange(2)[None, :, None]
    positions, keys, replacements = [], [], []
    for start in range(0, len(ids.rows), block):
        h, r, t = ids.rows[start : start + block].T
        sub = np.stack([neighbors[h], neighbors[t]], axis=1)
        heads, relations, tails = h[:, None, None], r[:, None, None], t[:, None, None]
        new_heads = np.where(slot == 0, sub, heads)
        new_tails = np.where(slot == 1, sub, tails)
        keep = ids.slot_allows(relations, slot, sub)
        keep &= ~ids.contains(new_heads, relations, new_tails)
        (flat,) = np.nonzero(keep.ravel())
        positions.append(start * cells + flat)
        keys.append(ids.pack(new_heads, relations, new_tails).ravel()[flat])
        replacements.append(sub.ravel()[flat])
    # Survivors are in emission order, so the first index of each key is its
    # first occurrence.
    _, first = np.unique(np.concatenate(keys), return_index=True)
    first.sort()
    positions = np.concatenate(positions)[first]
    replacements = np.concatenate(replacements)[first]
    out: list[Candidate] = []
    for position, replacement in zip(positions.tolist(), replacements.tolist()):
        positive_id, cell = divmod(position, cells)
        slot_id, rank = divmod(cell, width)
        positive = kb.triples[positive_id]
        slot_name = SLOTS[slot_id]
        triple = positive.replace(slot_name, kb.phrases[replacement], label=0)
        out.append(Candidate(triple, positive, slot_name, rank + 1))
    return out


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


def write_candidates_tsv(candidates: list[Candidate], path: str | Path) -> None:
    lines = []
    for c in candidates:
        lines.append(
            "\t".join(
                [
                    c.triple.relation,
                    c.triple.head.text,
                    c.triple.tail.text,
                    c.source.head.text,
                    c.source.tail.text,
                    c.slot,
                    str(c.neighbor_rank),
                ]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


# Largest neighbor rank a candidate table holds (its int64 column).
_MAX_RANK = np.iinfo(np.int64).max


class _PhraseIds(dict):
    """Text -> phrase id. Each distinct text is parsed once, on its first
    lookup, and texts that parse to the same `Phrase` share its id."""

    def __init__(self):
        super().__init__()
        self.phrases: list[Phrase] = []
        self._ids: dict[Phrase, int] = {}

    def __missing__(self, text: str) -> int:
        phrase = Phrase.parse(text)
        i = self[text] = self._ids.setdefault(phrase, len(self.phrases))
        if i == len(self.phrases):
            self.phrases.append(phrase)
        return i


def read_candidates_tsv(path: str | Path) -> CandidateTable:
    """The candidate table of a candidate file, which must hold distinct triples.

    A repeated triple (compared by phrase ids, so case and spacing variants
    count) is rejected at the line that repeats it.
    """
    phrase_ids = _PhraseIds()
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
