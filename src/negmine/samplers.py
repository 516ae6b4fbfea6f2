"""Baseline negative samplers: uniform, slot-constrained, antonym, and k-hop.

The uniform, slot and k-hop samplers draw every corruption of a list of
positives in one batch, through training's draw (`scorer._draw_corruptions`)
on the KB's integer view. Each entry coin-flips head or tail once, then draws
a replacement from its pool, in phrase-id order, never the original; in-KB
draws are redrawn in the same slot for up to CORRUPT_RETRIES rounds, then
skipped. The pools: every KB phrase (uniform); the phrases the relation has
seen in that slot, or in the other slot when that one is empty (slots); the
phrases within `hops` head-tail edges, where an empty neighbourhood skips
(sans, `EntityGraph`). The antonym sampler makes phrases the KB does not
store, so it edits one positive at a time.
"""
from __future__ import annotations

import logging
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ioutil import atomic_write_text, read_lines
from .kb import SLOTS, IdView, KnowledgeBase, LabeledTriple, Phrase
from .scorer import CORRUPT_RETRIES, Pools, _draw_corruptions

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


class EntityGraph(NamedTuple):
    """Every KB phrase's `hops` neighbourhood in the head-tail graph, as id pools.

    Phrases p and q are adjacent iff some stored positive pairs them as head
    and tail; self-loops are dropped. Phrase i's neighbourhood holds the
    phrases 1..`hops` edges away, never i itself, in phrase-id order:
    `members[offsets[i] : offsets[i + 1]]`.
    """

    offsets: np.ndarray
    members: np.ndarray

    @classmethod
    def from_kb(cls, kb: KnowledgeBase, hops: int) -> "EntityGraph":
        """Breadth-first search from every phrase at once, over packed id pairs.

        A pair `p * P + q` (P phrases) says q is in p's neighbourhood. Each
        round extends the pairs found last round by one edge and keeps the
        new ones, so the work is one merge per hop, not one walk per phrase.
        """
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        n = kb.ids.n_phrases
        heads, _, tails = kb.ids.rows.T
        edges = np.concatenate([heads * n + tails, tails * n + heads])
        edges = np.unique(edges[np.tile(heads != tails, 2)])
        edge_offsets, edge_ends = _split_pairs(edges, n)
        reached = frontier = edges
        for _ in range(hops - 1):
            if not len(frontier):
                break
            sources, middles = np.divmod(frontier, n)
            starts = edge_offsets[middles]
            counts = edge_offsets[middles + 1] - starts
            stops = np.cumsum(counts)
            at = np.arange(stops[-1]) + np.repeat(starts - (stops - counts), counts)
            sources, targets = np.repeat(sources, counts), edge_ends[at]
            loop = sources == targets
            step = np.unique(sources[~loop] * n + targets[~loop])
            frontier = np.setdiff1d(step, reached, assume_unique=True)
            reached = np.union1d(reached, frontier)
        return cls(*_split_pairs(reached, n))


def _split_pairs(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted packed pairs `p * n + q` as CSR: (offsets per p, the q's)."""
    sources, targets = np.divmod(pairs, n)
    return np.searchsorted(sources, np.arange(n + 1)), targets


def _flipped_rows(
    ids: IdView, positives: list[LabeledTriple], per_positive: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Id rows of each positive, `per_positive` times, and one coin flip each:
    the column to replace, 0 (head) or 2 (tail)."""
    rows = np.repeat(ids.encode(positives), per_positive, axis=0)
    return rows, 2 * rng.integers(2, size=len(rows))


def sample_uniform(
    kb: KnowledgeBase,
    positives: list[LabeledTriple],
    per_positive: int,
    rng: np.random.Generator,
) -> list[LabeledTriple]:
    """`per_positive` corruptions of each positive, in order, minus skips.

    The pool is every KB phrase; the draw is training's corruption draw. A
    KB with fewer than 2 phrases yields none.
    """
    ids = kb.ids
    if ids.n_phrases < 2:
        logger.debug("uniform sampler skipped %d positives: no other phrase", len(positives))
        return []
    rows, column = _flipped_rows(ids, positives, per_positive, rng)
    return ids.decode(_draw_corruptions(ids, rows, column, rng))


def sample_slots(
    kb: KnowledgeBase,
    positives: list[LabeledTriple],
    per_positive: int,
    rng: np.random.Generator,
) -> list[LabeledTriple]:
    """Like `sample_uniform`, but each slot's pool is the phrases the
    positive's relation has seen in it. The flipped slot falls back to the
    other when its pool holds nothing but the original; an entry with two
    such pools is skipped."""
    ids = kb.ids
    rows, column = _flipped_rows(ids, positives, per_positive, rng)
    head = ids.slot_ranges(rows[:, 1], 0, rows[:, 0])
    tail = ids.slot_ranges(rows[:, 1], 1, rows[:, 2])
    start, size, skip = (np.stack(pair) for pair in zip(head, tail))  # (2, n): slot, entry
    entry = np.arange(len(rows))
    choices = size - (skip >= 0)
    slot = column // 2
    slot = np.where(choices[slot, entry] > 0, slot, 1 - slot)
    keep = choices[slot, entry] > 0
    if not keep.all():
        logger.debug("slot sampler skipped %d entries: both slot pools empty", (~keep).sum())
    slot, entry = slot[keep], entry[keep]
    pools = Pools(
        ids.slot_keys % ids.n_phrases,
        start[slot, entry],
        size[slot, entry],
        skip[slot, entry],
    )
    return ids.decode(_draw_corruptions(ids, rows[entry], 2 * slot, rng, pools))


def sample_antonyms(
    lexicon: AntonymLexicon,
    kb: KnowledgeBase,
    positive: LabeledTriple,
    rng: np.random.Generator,
) -> LabeledTriple | None:
    """Swap the leftmost lexicon token of the head (else tail) for an antonym.

    Edits that collide with a stored positive are redrawn, then skipped.
    """
    for slot in SLOTS:
        phrase = positive.phrase(slot)
        site = next((i for i, tok in enumerate(phrase.tokens) if tok in lexicon), None)
        if site is None:
            continue
        options = lexicon.antonyms(phrase.tokens[site])
        for _ in range(CORRUPT_RETRIES):
            tokens = list(phrase.tokens)
            tokens[site] = options[int(rng.integers(len(options)))]
            candidate = positive.replace(slot, Phrase(tuple(tokens)))
            if not kb.contains(candidate):
                return candidate
        logger.debug("antonym sampler skipped %s: retries exhausted", positive)
        return None
    logger.debug("antonym sampler skipped %s: no replaceable token", positive)
    return None


def sample_sans(
    graph: EntityGraph,
    kb: KnowledgeBase,
    positives: list[LabeledTriple],
    per_positive: int,
    rng: np.random.Generator,
) -> list[LabeledTriple]:
    """Like `sample_uniform`, but the pool is the flipped phrase's
    neighbourhood in `graph`. An empty neighbourhood, or a phrase the KB
    does not store, skips the entry."""
    ids = kb.ids
    rows, column = _flipped_rows(ids, positives, per_positive, rng)
    phrase = rows[np.arange(len(rows)), column]
    size = np.append(np.diff(graph.offsets), 0)[phrase]  # id -1 reads the appended 0
    keep = size > 0
    if not keep.all():
        logger.debug("k-hop sampler skipped %d entries: empty neighbourhood", (~keep).sum())
    phrase = phrase[keep]
    pools = Pools(graph.members, graph.offsets[phrase], size[keep], np.full(len(phrase), -1))
    return ids.decode(_draw_corruptions(ids, rows[keep], column[keep], rng, pools))
