"""Baseline negative samplers: uniform, slot-constrained, antonym, and k-hop.

The slot, antonym and k-hop samplers map one positive triple to one label-0
corruption, or to None (a skip) when no valid corruption exists. The uniform
sampler draws every corruption of a list of positives in one batch, through
the same draw as training's corruptions (`scorer._draw_corruptions`).
Results that collide with a stored positive are redrawn up to
CORRUPT_RETRIES times before skipping, so emitted negatives are always
out-of-KB.
"""
from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable

import numpy as np

from .ioutil import atomic_write_text, read_lines
from .kb import HEAD, SLOTS, TAIL, KnowledgeBase, LabeledTriple, Phrase
from .scorer import CORRUPT_RETRIES, _draw_corruptions

logger = logging.getLogger(__name__)

POS_CLASSES = ("adjective", "noun", "verb")


class AntonymLexicon:
    """Token-level antonym table, each entry tagged with a word class.

    Entries map a token to its word class and a non-empty tuple of antonym
    tokens; no token lists itself as an antonym.
    """

    def __init__(self, entries: dict[str, tuple[str, list[str] | tuple[str, ...]]]):
        table: dict[str, tuple[str, tuple[str, ...]]] = {}
        for token, (pos_class, antonyms) in entries.items():
            _check_token(token, "token")
            if pos_class not in POS_CLASSES:
                raise ValueError(
                    f"unknown word class {pos_class!r} for {token!r}; expected one of {POS_CLASSES}"
                )
            antonyms = tuple(antonyms)
            if not antonyms:
                raise ValueError(f"empty antonym list for {token!r}")
            if len(set(antonyms)) != len(antonyms):
                raise ValueError(f"duplicate antonym for {token!r}")
            for ant in antonyms:
                _check_token(ant, f"antonym of {token!r}")
            if token in antonyms:
                raise ValueError(f"token {token!r} maps to itself")
            table[token] = (pos_class, antonyms)
        self._entries = table

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def pos_class(self, token: str) -> str | None:
        entry = self._entries.get(token)
        return entry[0] if entry else None

    def antonyms(self, token: str) -> tuple[str, ...]:
        entry = self._entries.get(token)
        return entry[1] if entry else ()


def _check_token(token: str, what: str) -> None:
    if not token or any(ch.isspace() for ch in token):
        raise ValueError(f"{what} must be a single non-empty token, got {token!r}")


def load_antonyms(path: str | Path) -> AntonymLexicon:
    """Read a lexicon from `token<TAB>class<TAB>antonym1,antonym2,...` lines."""
    tokens: set[str] = set()

    def parse(fields: list[str]) -> tuple[str, tuple[str, tuple[str, ...]]]:
        token, pos_class, ants = fields
        token = token.lower()
        if token in tokens:
            raise ValueError(f"duplicate token {token!r}")
        tokens.add(token)
        entry = (pos_class, tuple(a.lower() for a in ants.split(",")))
        AntonymLexicon({token: entry})  # validates the line
        return token, entry

    return AntonymLexicon(dict(pair for _, pair in read_lines(path, parse, 3)))


def save_antonyms(lexicon: AntonymLexicon, path: str | Path) -> None:
    """Write the lexicon in sorted-token order, one entry per line."""
    lines = []
    for token in sorted(lexicon.tokens()):
        pos_class = lexicon.pos_class(token)
        lines.append(f"{token}\t{pos_class}\t{','.join(lexicon.antonyms(token))}\n")
    atomic_write_text(path, "".join(lines))


class EntityGraph:
    """Symmetric phrase adjacency: p ~ q iff some positive pairs them as head and tail."""

    def __init__(self, adjacency: dict[Phrase, frozenset[Phrase]]):
        for phrase, neighbors in adjacency.items():
            if phrase in neighbors:
                raise ValueError(f"self-loop at {phrase.text!r}")
            for other in neighbors:
                if phrase not in adjacency.get(other, frozenset()):
                    raise ValueError(
                        f"asymmetric adjacency: {phrase.text!r} ~ {other.text!r} has no reverse"
                    )
        self.adjacency = dict(adjacency)

    @classmethod
    def from_kb(cls, kb: KnowledgeBase) -> "EntityGraph":
        adj: dict[Phrase, set[Phrase]] = {p: set() for p in kb.phrases}
        for t in kb.triples:
            if t.head != t.tail:
                adj[t.head].add(t.tail)
                adj[t.tail].add(t.head)
        return cls({p: frozenset(n) for p, n in adj.items()})

    def neighbors(self, phrase: Phrase) -> frozenset[Phrase]:
        return self.adjacency.get(phrase, frozenset())

    def within(self, phrase: Phrase, hops: int) -> list[Phrase]:
        """Phrases reachable in 1..hops edges, sorted; the start is excluded."""
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        seen = {phrase}
        frontier = {phrase}
        reached: set[Phrase] = set()
        for _ in range(hops):
            frontier = {q for p in frontier for q in self.neighbors(p)} - seen
            if not frontier:
                break
            reached |= frontier
            seen |= frontier
        return sorted(reached)


def sample_uniform(
    kb: KnowledgeBase,
    positives: list[LabeledTriple],
    per_positive: int,
    rng: np.random.Generator,
) -> list[LabeledTriple]:
    """`per_positive` corruptions of each positive, in order, minus skips.

    Each entry coin-flips head or tail, then replaces that slot with a
    uniform draw over KB phrases, excluding the original. Entries landing on
    a stored positive are redrawn in the same slot and skipped after
    CORRUPT_RETRIES rounds. A KB with fewer than 2 phrases yields none.
    """
    ids = kb.ids
    if ids.n_phrases < 2:
        logger.debug("uniform sampler skipped %d positives: no other phrase", len(positives))
        return []
    rows = np.repeat(ids.encode(positives), per_positive, axis=0)
    column = 2 * rng.integers(2, size=len(rows))
    return ids.decode(_draw_corruptions(ids, rows, column, rng))


def sample_slots(
    kb: KnowledgeBase, positive: LabeledTriple, rng: np.random.Generator
) -> LabeledTriple | None:
    """Replace head or tail with a phrase seen in that slot for the relation.

    The coin-flipped slot falls back to the other one when its pool is empty
    (the original phrase never counts). In-KB draws are retried with a budget
    shared across both slots, then the positive is skipped.
    """
    pools = {
        slot: sorted(kb.slot_phrases(positive.relation, slot) - {positive.phrase(slot)})
        for slot in SLOTS
    }
    if not pools[HEAD] and not pools[TAIL]:
        logger.debug("slot sampler skipped %s: both slot pools empty", positive)
        return None
    for _ in range(CORRUPT_RETRIES):
        slot = SLOTS[int(rng.integers(2))]
        if not pools[slot]:
            slot = TAIL if slot == HEAD else HEAD
        pool = pools[slot]
        candidate = positive.replace(slot, pool[int(rng.integers(len(pool)))])
        if not kb.contains(candidate):
            return candidate
    logger.debug("slot sampler skipped %s: retries exhausted", positive)
    return None


def sample_antonyms(
    lexicon: AntonymLexicon,
    positive: LabeledTriple,
    pos_of: Callable[[str], str | None] | None,
    rng: np.random.Generator,
    *,
    kb: KnowledgeBase | None = None,
) -> LabeledTriple | None:
    """Swap the first class-matching token of the head (else tail) for an antonym.

    A phrase's class is the class of its leftmost tagged token; the replaced
    token is the leftmost one of that class with a lexicon entry. `pos_of`
    overrides the lexicon's own tags when given. With `kb` set, edits that
    collide with a stored positive are redrawn, then skipped.
    """
    tag = pos_of if pos_of is not None else lexicon.pos_class
    for slot in SLOTS:
        phrase = positive.phrase(slot)
        phrase_class = next((c for c in map(tag, phrase.tokens) if c is not None), None)
        if phrase_class is None:
            continue
        site = next(
            (
                i
                for i, tok in enumerate(phrase.tokens)
                if tag(tok) == phrase_class and lexicon.antonyms(tok)
            ),
            None,
        )
        if site is None:
            continue
        options = lexicon.antonyms(phrase.tokens[site])
        for _ in range(CORRUPT_RETRIES):
            antonym = options[int(rng.integers(len(options)))]
            tokens = list(phrase.tokens)
            tokens[site] = antonym
            candidate = positive.replace(slot, Phrase(tuple(tokens)))
            if kb is not None and kb.contains(candidate):
                continue
            return candidate
        logger.debug("antonym sampler skipped %s: retries exhausted", positive)
        return None
    logger.debug("antonym sampler skipped %s: no replaceable token", positive)
    return None


def sample_sans(
    graph: EntityGraph,
    kb: KnowledgeBase,
    positive: LabeledTriple,
    hops: int,
    rng: np.random.Generator,
) -> LabeledTriple | None:
    """Replace head or tail (coin flip) with a phrase within `hops` graph edges.

    The neighborhood excludes the phrase itself; an empty neighborhood skips
    the positive, and in-KB draws are retried before skipping.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    slot = SLOTS[int(rng.integers(2))]
    pool = graph.within(positive.phrase(slot), hops)
    if not pool:
        logger.debug("k-hop sampler skipped %s: empty neighborhood", positive)
        return None
    for _ in range(CORRUPT_RETRIES):
        candidate = positive.replace(slot, pool[int(rng.integers(len(pool)))])
        if not kb.contains(candidate):
            return candidate
    logger.debug("k-hop sampler skipped %s: retries exhausted", positive)
    return None
