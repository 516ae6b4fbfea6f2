"""Phrase-valued knowledge base: triple store, slot indices, and split construction.

Triples are (head phrase, relation, tail phrase) with free-text phrases and a
finite relation dictionary. The on-disk format is one triple per line:

    relation<TAB>head phrase<TAB>tail phrase[<TAB>label]

UTF-8, ``#``-prefixed comment lines ignored.

Besides the object API, a KB offers one integer view of its stored positives
(which are its training split), `KnowledgeBase.ids` (an `IdView`, built with
the KB): phrase ids are `phrase_positions`, relation ids number
`sorted(relations)`, and every stored positive packs to one int64 key, kept
sorted so that membership of a whole batch of id rows is one `np.searchsorted`.
The negative generators (`candidates.generate_candidates`,
`scorer.corruption_examples` and the `uniform`, `slots` and `sans` samplers)
work on it. Its id rows have the format of a `TripleTable`, which the
samplers, candidate tables and scorer share: `concat` joins two tables, and
`triples` is the one decoder of id rows back to triples.
"""
from __future__ import annotations

import logging
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .ioutil import ParseError, atomic_write_text, read_lines  # noqa: F401  (ParseError re-exported)

logger = logging.getLogger(__name__)

HEAD = "head"
TAIL = "tail"
SLOTS = (HEAD, TAIL)


@dataclass(frozen=True, order=True)
class Phrase:
    """A non-empty sequence of lowercase word tokens."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("phrase must have at least one token")
        for tok in self.tokens:
            if not tok or "\t" in tok or "\n" in tok:
                raise ValueError(f"invalid phrase token: {tok!r}")
        # The generated hash's value, computed once: phrases key every set and dict.
        object.__setattr__(self, "_hash", hash((self.tokens,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "Phrase":
        """Normalize free text: lowercase, whitespace-tokenize."""
        return cls(tuple(text.lower().split()))

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __str__(self) -> str:
        return self.text


class PhraseIds(dict):
    """Text -> phrase id, numbering `phrases` in first-seen order. Each
    distinct text is parsed once, on its first lookup (a text that fails to
    parse raises every time), and texts that parse to the same `Phrase`
    share its id."""

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


@dataclass(frozen=True)
class LabeledTriple:
    head: Phrase
    relation: str
    tail: Phrase
    label: int = 1

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    def key(self) -> tuple[Phrase, str, Phrase]:
        """Identity of the statement, ignoring the label."""
        return (self.head, self.relation, self.tail)

    def phrase(self, slot: str) -> Phrase:
        if slot == HEAD:
            return self.head
        if slot == TAIL:
            return self.tail
        raise ValueError(f"unknown slot {slot!r}")

    def replace(self, slot: str, phrase: Phrase, label: int = 0) -> "LabeledTriple":
        if slot == HEAD:
            return LabeledTriple(phrase, self.relation, self.tail, label)
        if slot == TAIL:
            return LabeledTriple(self.head, self.relation, phrase, label)
        raise ValueError(f"unknown slot {slot!r}")


@dataclass(frozen=True, eq=False)
class TripleTable:
    """Triples as int64 id rows over distinct phrases and relations.

    Row i is `rows[i] = (head phrase, relation, tail phrase)`, indexing
    `phrases` (distinct `Phrase`s) and `relations` (names); id -1 stands for
    a phrase or relation the table does not store. Labels are not kept:
    `triples` decodes rows as label-0 triples.
    """

    phrases: tuple[Phrase, ...]
    relations: tuple[str, ...]
    rows: np.ndarray  # (n, 3) int64

    @classmethod
    def from_triples(cls, triples: Iterable[LabeledTriple]) -> "TripleTable":
        """A table of the triples' statements in order, phrases and relations
        numbered in first-seen order (heads before tails per triple)."""
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

    def concat(self, other: "TripleTable") -> "TripleTable":
        """This table's rows, then `other`'s, over this table's phrases and
        relations followed by those of `other` it lacks (in `other`'s order)."""
        phrases = {p: i for i, p in enumerate(self.phrases)}
        relations = {r: i for i, r in enumerate(self.relations)}
        # Each map's trailing -1 keeps id -1 of `other` at -1.
        p = np.asarray([phrases.setdefault(x, len(phrases)) for x in other.phrases] + [-1])
        r = np.asarray([relations.setdefault(x, len(relations)) for x in other.relations] + [-1])
        heads, relation_ids, tails = other.rows.T
        rows = np.stack([p[heads], r[relation_ids], p[tails]], axis=1)
        return TripleTable(tuple(phrases), tuple(relations), np.concatenate([self.rows, rows]))

    def triples(self, indices: Iterable[int] | np.ndarray | None = None) -> list[LabeledTriple]:
        """The label-0 triples of rows `indices` (every row by default), in
        that order; an id of -1 is an error."""
        rows = self.rows if indices is None else self.rows[np.asarray(indices, dtype=np.int64)]
        if (rows < 0).any():
            raise ValueError("id row holds a phrase or relation the table does not store")
        phrases, relations = self.phrases, self.relations
        return [
            LabeledTriple(phrases[h], relations[r], phrases[t], 0) for h, r, t in rows.tolist()
        ]


@dataclass(frozen=True)
class Splits:
    train: tuple[LabeledTriple, ...]
    validation: list[LabeledTriple]
    test: list[LabeledTriple]


class KnowledgeBase:
    """Immutable store of positive triples with slot and membership indices.

    ``triples`` holds the positive statements and is the training split,
    ``splits.train``. Labeled evaluation splits, when present, live in
    ``splits``; they are invisible to the slot index, to membership checks and
    to ``ids`` (read for ``phrases``, ``phrase_positions`` and ``relations``).
    """

    def __init__(self, positives: Iterable[LabeledTriple],
                 validation: Iterable[LabeledTriple] = (), test: Iterable[LabeledTriple] = ()):
        self.triples: tuple[LabeledTriple, ...] = tuple(positives)
        seen: set[tuple] = set()
        for t in self.triples:
            if t.label != 1:
                raise ValueError(f"KB store accepts positives only, got label 0: {t}")
            if t.key() in seen:
                raise ValueError(f"duplicate positive triple: {t.key()}")
            seen.add(t.key())
        self._keys = seen
        self.ids = IdView(TripleTable.from_triples(self.triples))
        self.phrases: tuple[Phrase, ...] = self.ids.phrases
        self.phrase_positions: dict[Phrase, int] = self.ids.phrase_positions
        self.relations: frozenset[str] = frozenset(self.ids.relations)
        self.splits = Splits(self.triples, list(validation), list(test))

    @cached_property
    def slot_index(self) -> dict[tuple[str, str], frozenset[Phrase]]:
        """(relation, slot) -> phrases seen there among stored positives, built on first use."""
        index: dict[tuple[str, str], set[Phrase]] = defaultdict(set)
        for t in self.triples:
            index[(t.relation, HEAD)].add(t.head)
            index[(t.relation, TAIL)].add(t.tail)
        return {k: frozenset(v) for k, v in index.items()}

    def slot_phrases(self, relation: str, slot: str) -> frozenset[Phrase]:
        """Phrases observed in `slot` of `relation` among stored positives."""
        if slot not in SLOTS:
            raise ValueError(f"unknown slot {slot!r}")
        return self.slot_index.get((relation, slot), frozenset())

    def contains(self, triple: LabeledTriple) -> bool:
        """True iff (head, relation, tail) is a stored positive."""
        return triple.key() in self._keys

    def __len__(self) -> int:
        return len(self.triples)


def _member(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Elementwise `queries in sorted_keys` by binary search."""
    if not len(sorted_keys):
        return np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, queries)
    np.minimum(pos, len(sorted_keys) - 1, out=pos)
    return sorted_keys[pos] == queries


class IdView:
    """Stored positives as integer ids and packed int64 keys.

    Built from the `TripleTable` of the stored positives: phrase ids are the
    table's (first-seen order, heads before tails), and relation ids number
    `relations`, the table's relations sorted. Id -1 stands for a phrase or
    relation the KB does not store. `rows` holds the stored positives as
    (head, relation, tail) id rows in KB order. A row packs to the key
    `(head * R + relation) * P + tail` (P phrases, R relations); `keys` holds
    the stored positives' keys sorted. `slot_keys` packs the slot index the
    same way: `(slot * R + relation) * P + phrase`, slot 0 head and 1 tail.
    """

    def __init__(self, table: TripleTable):
        self.phrases = table.phrases
        self.phrase_positions = {p: i for i, p in enumerate(table.phrases)}
        self.n_phrases = len(table.phrases)
        self.relations: tuple[str, ...] = tuple(sorted(table.relations))
        self.relation_positions = {r: i for i, r in enumerate(self.relations)}
        if 2 * len(self.relations) * self.n_phrases**2 >= 2**63:
            raise ValueError("KB too large to pack its triples into int64 keys")
        # The table numbers relations first-seen; map them onto sorted order.
        sorted_ids = np.asarray([self.relation_positions[r] for r in table.relations], np.int64)
        heads, relations, tails = table.rows.T
        relations = sorted_ids[relations]
        self.rows = np.stack([heads, relations, tails], axis=1)
        self.keys = np.sort(self.pack(heads, relations, tails))
        self.slot_keys = np.unique(
            np.concatenate(
                [self.pack_slot(relations, 0, heads), self.pack_slot(relations, 1, tails)]
            )
        )

    def table(self, rows: np.ndarray) -> TripleTable:
        """The `TripleTable` of (n, 3) id rows over this view's numbering."""
        return TripleTable(self.phrases, self.relations, rows)

    def pack(self, heads, relations, tails) -> np.ndarray:
        return (heads * len(self.relations) + relations) * self.n_phrases + tails

    def pack_slot(self, relations, slot, phrases) -> np.ndarray:
        return (slot * len(self.relations) + relations) * self.n_phrases + phrases

    def contains(self, heads, relations, tails) -> np.ndarray:
        """Elementwise: is (head, relation, tail) a stored positive?"""
        known = (heads >= 0) & (relations >= 0) & (tails >= 0)
        return known & _member(self.keys, self.pack(heads, relations, tails))

    def slot_allows(self, relations, slot, phrases) -> np.ndarray:
        """Elementwise: has `relation` seen `phrase` in `slot` (0 head, 1 tail)?"""
        known = (relations >= 0) & (phrases >= 0)
        return known & _member(self.slot_keys, self.pack_slot(relations, slot, phrases))

    def slot_ranges(self, relations, slot, phrases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Elementwise (start, size, skip): the range of `slot_keys` holding the
        phrases `relation` has seen in `slot`, in phrase-id order, and the
        position of `phrase` in that range (-1 when absent)."""
        first = self.pack_slot(relations, slot, 0)
        start = np.searchsorted(self.slot_keys, first)
        size = np.searchsorted(self.slot_keys, first + self.n_phrases) - start
        size[relations < 0] = 0
        at = np.searchsorted(self.slot_keys, first + phrases) - start
        return start, size, np.where(self.slot_allows(relations, slot, phrases), at, -1)


def load_tsv(
    path: str | Path,
    has_labels: bool = False,
    column_order: str = "rht",
) -> list[LabeledTriple]:
    """Read a triple TSV, collapsing duplicate positive lines with a warning.

    `column_order` is a permutation of "rht" mapping external column layouts
    onto (relation, head, tail); an optional trailing label column follows.
    Triples are returned in file order. Without labels every triple is
    positive.
    """
    if sorted(column_order) != ["h", "r", "t"]:
        raise ValueError(f"column_order must be a permutation of 'rht', got {column_order!r}")
    r, h, t = (column_order.index(c) for c in "rht")
    phrase_ids = PhraseIds()
    phrases = phrase_ids.phrases

    def parse(fields: list[str]) -> LabeledTriple:
        relation = fields[r].strip()
        if not relation:
            raise ValueError("empty relation")
        label = 1
        if has_labels:
            label_text = fields[3].strip()
            if label_text not in ("0", "1"):
                raise ValueError(f"label must be 0 or 1, got {label_text!r}")
            label = int(label_text)
        head = phrases[phrase_ids[fields[h]]]
        return LabeledTriple(head, relation, phrases[phrase_ids[fields[t]]], label)

    triples: list[LabeledTriple] = []
    seen_positive: set[tuple] = set()
    duplicates = 0
    for _, triple in read_lines(path, parse, 4 if has_labels else 3):
        if triple.label == 1:
            if triple.key() in seen_positive:
                duplicates += 1
                continue
            seen_positive.add(triple.key())
        triples.append(triple)
    if duplicates:
        logger.warning("collapsed %d duplicate positive lines in %s", duplicates, path)
    return triples


def save_tsv(triples: list[LabeledTriple], path: str | Path, with_labels: bool = False) -> None:
    lines = []
    for t in triples:
        fields = [t.relation, t.head.text, t.tail.text]
        if with_labels:
            fields.append(str(t.label))
        lines.append("\t".join(fields) + "\n")
    atomic_write_text(path, "".join(lines))


def build_true_negative_split(
    kb: KnowledgeBase,
    negation_prefix: str = "Not",
    *,
    seed: int = 0,
    validation_fraction: float = 0.5,
) -> KnowledgeBase:
    """Rebuild a KB whose test-time negatives come from negated relations.

    Relations are paired as (r, prefix+r). Only triples of paired relations
    survive. Triples under prefix+r become label-0 triples under r and are
    divided between validation and test (`validation_fraction` of them to
    validation); an equal number of positives of the same relation joins
    each evaluation split, so classes stay balanced per relation.
    The remaining positives form the returned KB's triple store, which is its
    training split.
    """
    base_relations = sorted(
        r for r in kb.relations if (negation_prefix + r) in kb.relations
    )
    if not base_relations:
        raise ValueError(f"no relation pairs (r, {negation_prefix}r) found in KB")
    base_set = set(base_relations)

    positives_by_rel: dict[str, list[int]] = defaultdict(list)  # indices into kb.triples
    negatives_by_rel: dict[str, list[LabeledTriple]] = defaultdict(list)
    for i, t in enumerate(kb.triples):
        if t.relation in base_set:
            positives_by_rel[t.relation].append(i)
        elif t.relation.startswith(negation_prefix) and t.relation[len(negation_prefix):] in base_set:
            rewritten = LabeledTriple(t.head, t.relation[len(negation_prefix):], t.tail, 0)
            negatives_by_rel[rewritten.relation].append(rewritten)

    rng = np.random.default_rng(seed)
    train: list[int] = []
    val_pos: list[LabeledTriple] = []
    val_neg: list[LabeledTriple] = []
    test_pos: list[LabeledTriple] = []
    test_neg: list[LabeledTriple] = []
    for relation in base_relations:
        pos = positives_by_rel[relation]
        neg = negatives_by_rel[relation]
        n_val = int(round(len(neg) * validation_fraction))
        neg_perm = rng.permutation(len(neg))
        g_val_neg = [neg[i] for i in neg_perm[:n_val]]
        g_test_neg = [neg[i] for i in neg_perm[n_val:]]
        n_eval_pos = len(g_val_neg) + len(g_test_neg)
        if len(pos) <= n_eval_pos:
            raise ValueError(
                f"{relation}: {len(pos)} positives cannot balance {n_eval_pos} negatives "
                "and still leave a training split"
            )
        pos_perm = rng.permutation(len(pos))
        g_val_pos = [kb.triples[pos[i]] for i in pos_perm[: len(g_val_neg)]]
        g_test_pos = [kb.triples[pos[i]] for i in pos_perm[len(g_val_neg): n_eval_pos]]
        held_out = set(pos_perm[:n_eval_pos])
        train.extend(pos[i] for i in range(len(pos)) if i not in held_out)
        val_pos.extend(g_val_pos)
        val_neg.extend(g_val_neg)
        test_pos.extend(g_test_pos)
        test_neg.extend(g_test_neg)

    # The surviving training positives, in original KB order.
    return KnowledgeBase(
        [kb.triples[i] for i in sorted(train)], val_pos + val_neg, test_pos + test_neg
    )
