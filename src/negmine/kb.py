"""Phrase-valued knowledge base: triple store, slot indices, and split construction.

Triples are (head phrase, relation, tail phrase) with free-text phrases and a
finite relation dictionary. The on-disk format is one triple per line:

    relation<TAB>head phrase<TAB>tail phrase[<TAB>label]

UTF-8, ``#``-prefixed comment lines ignored.

Besides the object API, a KB offers one integer view of its stored positives,
`KnowledgeBase.ids` (an `IdView`, built on first use): phrase ids are
`phrase_positions`, relation ids number `sorted(relations)`, and every stored
positive packs to one int64 key, kept sorted so that membership of a whole
batch of id rows is one `np.searchsorted`. The negative generators
(`candidates.generate_candidates`, `scorer.corruption_examples` and the
`uniform`, `slots` and `sans` samplers) work on it.
"""
from __future__ import annotations

import logging
from collections import defaultdict
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


def intern_phrase(cache: dict[str, "Phrase"], text: str) -> Phrase:
    """`Phrase.parse(text)`, parsed once per distinct text of `cache`.

    Only successful parses are cached, so bad text raises every time.
    """
    phrase = cache.get(text)
    if phrase is None:
        phrase = cache[text] = Phrase.parse(text)
    return phrase


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


@dataclass
class Splits:
    train: list[LabeledTriple]
    validation: list[LabeledTriple]
    test: list[LabeledTriple]


class KnowledgeBase:
    """Immutable store of positive triples with slot and membership indices.

    ``triples`` holds the positive (training) statements. Evaluation splits,
    when present, live in ``splits``; they are invisible to the slot index and
    to membership checks, which only ever see stored positives.
    """

    def __init__(self, positives: list[LabeledTriple], splits: Splits | None = None):
        seen: set[tuple] = set()
        for t in positives:
            if t.label != 1:
                raise ValueError(f"KB store accepts positives only, got label 0: {t}")
            if t.key() in seen:
                raise ValueError(f"duplicate positive triple: {t.key()}")
            seen.add(t.key())
        self.triples: tuple[LabeledTriple, ...] = tuple(positives)
        self._keys = seen
        self.relations: frozenset[str] = frozenset(t.relation for t in positives)
        # Phrase vocabulary in first-occurrence order (heads before tails per triple).
        phrases: list[Phrase] = []
        phrase_seen: set[Phrase] = set()
        for t in positives:
            for p in (t.head, t.tail):
                if p not in phrase_seen:
                    phrase_seen.add(p)
                    phrases.append(p)
        self.phrases: tuple[Phrase, ...] = tuple(phrases)
        self.phrase_positions: dict[Phrase, int] = {p: i for i, p in enumerate(phrases)}
        self.slot_index: dict[tuple[str, str], frozenset[Phrase]] = build_slot_index(positives)
        self.splits = splits if splits is not None else Splits(list(positives), [], [])

    def slot_phrases(self, relation: str, slot: str) -> frozenset[Phrase]:
        """Phrases observed in `slot` of `relation` among stored positives."""
        if slot not in SLOTS:
            raise ValueError(f"unknown slot {slot!r}")
        return self.slot_index.get((relation, slot), frozenset())

    def contains(self, triple: LabeledTriple) -> bool:
        """True iff (head, relation, tail) is a stored positive."""
        return triple.key() in self._keys

    @cached_property
    def ids(self) -> "IdView":
        """Integer view of the stored positives, built on first use."""
        return IdView(self)

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
    """A KB's stored positives as integer ids and packed int64 keys.

    Phrase ids are the KB's `phrase_positions`; relation ids number
    `relations`, which is `sorted(kb.relations)`. Id -1 stands for a phrase
    or relation the KB does not store. `rows` holds the stored positives as
    (head, relation, tail) id rows in KB order. A row packs to the key
    `(head * R + relation) * P + tail` (P phrases, R relations); `keys` holds
    the stored positives' keys sorted. `slot_keys` packs the slot index the
    same way: `(slot * R + relation) * P + phrase`, slot 0 head and 1 tail.
    """

    def __init__(self, kb: KnowledgeBase):
        self.phrases = kb.phrases
        self.phrase_positions = kb.phrase_positions
        self.n_phrases = len(kb.phrases)
        self.relations: tuple[str, ...] = tuple(sorted(kb.relations))
        self.relation_positions = {r: i for i, r in enumerate(self.relations)}
        if 2 * len(self.relations) * self.n_phrases**2 >= 2**63:
            raise ValueError("KB too large to pack its triples into int64 keys")
        self.rows = self.encode(kb.triples)
        heads, relations, tails = self.rows.T
        self.keys = np.sort(self.pack(heads, relations, tails))
        self.slot_keys = np.unique(
            np.concatenate(
                [self.pack_slot(relations, 0, heads), self.pack_slot(relations, 1, tails)]
            )
        )

    def encode(self, triples) -> np.ndarray:
        """(n, 3) int64 id rows of `triples`; -1 where the KB lacks the item."""
        phrase = self.phrase_positions.get
        relation = self.relation_positions.get
        flat = [
            i
            for t in triples
            for i in (phrase(t.head, -1), relation(t.relation, -1), phrase(t.tail, -1))
        ]
        return np.asarray(flat, dtype=np.int64).reshape(-1, 3)

    def decode(self, rows: np.ndarray) -> list[LabeledTriple]:
        """Label-0 triples of (n, 3) id rows; -1 is an error."""
        if (rows < 0).any():
            raise ValueError("id row holds a phrase or relation the KB does not store")
        phrases, relations = self.phrases, self.relations
        return [
            LabeledTriple(phrases[h], relations[r], phrases[t], 0) for h, r, t in rows.tolist()
        ]

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


def build_slot_index(triples: list[LabeledTriple]) -> dict[tuple[str, str], frozenset[Phrase]]:
    index: dict[tuple[str, str], set[Phrase]] = defaultdict(set)
    for t in triples:
        index[(t.relation, HEAD)].add(t.head)
        index[(t.relation, TAIL)].add(t.tail)
    return {k: frozenset(v) for k, v in index.items()}


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
    phrases: dict[str, Phrase] = {}

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
        head = intern_phrase(phrases, fields[h])
        return LabeledTriple(head, relation, intern_phrase(phrases, fields[t]), label)

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
    The remaining positives form the training split and the returned KB's
    triple store.
    """
    base_relations = sorted(
        r for r in kb.relations if (negation_prefix + r) in kb.relations
    )
    if not base_relations:
        raise ValueError(f"no relation pairs (r, {negation_prefix}r) found in KB")
    base_set = set(base_relations)

    positives_by_rel: dict[str, list[LabeledTriple]] = defaultdict(list)
    negatives_by_rel: dict[str, list[LabeledTriple]] = defaultdict(list)
    for t in kb.triples:
        if t.relation in base_set:
            positives_by_rel[t.relation].append(t)
        elif t.relation.startswith(negation_prefix) and t.relation[len(negation_prefix):] in base_set:
            rewritten = LabeledTriple(t.head, t.relation[len(negation_prefix):], t.tail, 0)
            negatives_by_rel[rewritten.relation].append(rewritten)

    rng = np.random.default_rng(seed)
    train: list[LabeledTriple] = []
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
        g_val_pos = [pos[i] for i in pos_perm[: len(g_val_neg)]]
        g_test_pos = [pos[i] for i in pos_perm[len(g_val_neg): n_eval_pos]]
        held_out = set(pos_perm[:n_eval_pos])
        train.extend(pos[i] for i in range(len(pos)) if i not in held_out)
        val_pos.extend(g_val_pos)
        val_neg.extend(g_val_neg)
        test_pos.extend(g_test_pos)
        test_neg.extend(g_test_neg)

    # Keep the surviving training positives in original KB order.
    train_keys = {t.key() for t in train}
    train_ordered = [t for t in kb.triples if t.key() in train_keys]
    splits = Splits(train_ordered, val_pos + val_neg, test_pos + test_neg)
    return KnowledgeBase(train_ordered, splits)
