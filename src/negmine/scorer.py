"""Compact differentiable triple classifier.

A triple is linearized to a token-id sequence, mean-pooled over a learned
embedding table, passed through one residual feedforward layer, and scored by
a linear head with a sigmoid. Training is contrastive: each positive is paired
with corrupted counterparts under binary cross-entropy, optimized by
mini-batch gradient descent with adaptive per-parameter step sizes. Exact
analytic gradients over every parameter are exposed for gradient-based
ranking.

`loss_and_gradient` works on one triple and is the reference for the
batch gradients; the tests hold the single-triple forward pass that the
batch one is checked against. The batch paths encode each distinct phrase
to token ids once, into a `PhraseTable`, and hold triples as int rows (head
phrase id, relation token id, tail phrase id); `encode_rows` and
`score_rows` take such rows, and `encode_batch` and `score_batch` make them
from triples. Training pools a batch through its normalized token-count
matrix `A` (batch x the batch's distinct tokens), so the forward pass is
`A @ emb[ids]`, the embedding gradient is `A.T @ dm`, and the
optimizer steps only those rows. Each epoch's rows are shuffled once; for
every block of LAYOUT_BATCHES consecutive batches a `_TokenLayout` lists the
token ids each row emits, and each batch's `A` is a slice of it. The training
step takes the logistic as a tanh and the loss with one `log`, clipped as
`loss_and_gradient` clips it. Forward-only scoring keeps the stable `sigmoid`
and pools from per-phrase embedding sums, computed once per call.

Contrastive corruptions are drawn on the KB's integer view (`kb.ids`), whose
phrase ids match the training `PhraseTable`: an epoch's replacements are
integer arrays, collisions with stored positives are found by binary search
over packed triple keys, and only the colliding entries are redrawn. The
same draw, over per-entry `Pools`, serves the uniform, slot and k-hop
samplers.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .kb import IdView, KnowledgeBase, LabeledTriple, Phrase

logger = logging.getLogger(__name__)

CORRUPT_RETRIES = 10
LOSS_EPS = 1e-12
ADA_EPS = 1e-10
CORRUPTION_MODES = ("head", "relation", "tail")


class TokenVocab:
    """Dense token-id map with reserved start/separator/unknown ids.

    Ids are assigned as: 0 start, 1 sep, 2 unknown, then one id per relation
    (in the given order), then one id per word. Relation ids and word ids are
    disjoint even when spellings collide.
    """

    START = 0
    SEP = 1
    UNK = 2
    RESERVED = 3

    def __init__(self, relations: tuple[str, ...] | list[str], words: tuple[str, ...] | list[str]):
        self.relations = tuple(relations)
        self.words = tuple(words)
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relation names")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate word tokens")
        self.relation_ids = {r: self.RESERVED + i for i, r in enumerate(self.relations)}
        offset = self.RESERVED + len(self.relations)
        self.word_ids = {w: offset + i for i, w in enumerate(self.words)}
        self.size = offset + len(self.words)

    @classmethod
    def from_kb(cls, kb: KnowledgeBase) -> "TokenVocab":
        """Vocabulary over every relation and word visible in any split."""
        relations: set[str] = set(kb.relations)
        words: set[str] = set()
        for split in (kb.splits.train, kb.splits.validation, kb.splits.test):
            for t in split:
                relations.add(t.relation)
                for phrase in (t.head, t.tail):
                    words.update(phrase.tokens)
        for phrase in kb.phrases:
            words.update(phrase.tokens)
        return cls(sorted(relations), sorted(words))

    def word_id(self, token: str) -> int:
        return self.word_ids.get(token, self.UNK)

    def relation_id(self, relation: str) -> int:
        return self.relation_ids.get(relation, self.UNK)

    def encode_triple(self, triple: LabeledTriple) -> np.ndarray:
        """[start, head tokens, sep, relation, sep, tail tokens] as ids."""
        word, unk = self.word_ids.get, repeat(self.UNK)
        ids = [self.START, *map(word, triple.head.tokens, unk), self.SEP,
               self.relation_id(triple.relation), self.SEP, *map(word, triple.tail.tokens, unk)]
        return np.asarray(ids, dtype=np.int64)

    def encode_phrase(self, phrase: Phrase) -> np.ndarray:
        return np.asarray([self.word_id(t) for t in phrase.tokens], dtype=np.int64)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TokenVocab)
            and self.relations == other.relations
            and self.words == other.words
        )


class PhraseTable:
    """Distinct phrases in first-seen order, each encoded to token ids once.

    Phrase i's token ids are `tokens[offsets[i] : offsets[i] + lengths[i]]`
    of `arrays()`. `encode` turns triples into int rows (head phrase id,
    relation token id, tail phrase id) over the table, adding unseen phrases.
    """

    def __init__(self, vocab: TokenVocab, phrases: Iterable[Phrase] = ()):
        self.vocab = vocab
        self._ids: dict[Phrase, int] = {}
        self._tokens: list[int] = []
        self._lengths: list[int] = []
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        for phrase in phrases:
            self.phrase_id(phrase)

    def phrase_id(self, phrase: Phrase) -> int:
        i = self._ids.get(phrase)
        if i is None:
            i = self._ids[phrase] = len(self._lengths)
            self._tokens.extend(self.vocab.word_id(t) for t in phrase.tokens)
            self._lengths.append(len(phrase.tokens))
            self._arrays = None
        return i

    def encode(self, triples: Iterable[LabeledTriple]) -> np.ndarray:
        """(n, 3) int64 rows: head phrase id, relation token id, tail phrase id."""
        phrase_id = self.phrase_id
        relation_id = self.vocab.relation_id
        flat = [
            i
            for t in triples
            for i in (phrase_id(t.head), relation_id(t.relation), phrase_id(t.tail))
        ]
        return np.asarray(flat, dtype=np.int64).reshape(-1, 3)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tokens, offsets, lengths) of every phrase added so far."""
        if self._arrays is None:
            lengths = np.asarray(self._lengths, dtype=np.int64)
            offsets = np.zeros(len(lengths), dtype=np.int64)
            np.cumsum(lengths[:-1], out=offsets[1:])
            self._arrays = (np.asarray(self._tokens, dtype=np.int64), offsets, lengths)
        return self._arrays


class ScorerParams:
    """Full parameter set: embeddings, residual feedforward, linear head.

    `grad_evals` counts backward passes, so forward-only code paths can
    prove they never differentiate.
    """

    def __init__(
        self,
        vocab: TokenVocab,
        emb: np.ndarray,
        ff_w: np.ndarray,
        ff_b: np.ndarray,
        w: np.ndarray,
        b: float,
    ):
        hidden_dim = emb.shape[1]
        if hidden_dim < 2:
            raise ValueError(f"hidden dimension must be >= 2, got {hidden_dim}")
        if emb.shape != (vocab.size, hidden_dim):
            raise ValueError("embedding table must be (vocab size, hidden dim)")
        if ff_w.shape != (hidden_dim, hidden_dim) or ff_b.shape != (hidden_dim,):
            raise ValueError("feedforward weights must be (H, H) and (H,)")
        if w.shape != (hidden_dim,):
            raise ValueError("classification vector must be (H,)")
        self.vocab = vocab
        self.hidden_dim = hidden_dim
        self.emb = emb
        self.ff_w = ff_w
        self.ff_b = ff_b
        self.w = w
        self.b = float(b)
        self.grad_evals = 0

    def all_finite(self) -> bool:
        return bool(
            np.isfinite(self.emb).all()
            and np.isfinite(self.ff_w).all()
            and np.isfinite(self.ff_b).all()
            and np.isfinite(self.w).all()
            and math.isfinite(self.b)
        )


def init_params(vocab: TokenVocab, hidden_dim: int = 64, seed: int = 0) -> ScorerParams:
    """Fresh parameters drawn from the seed's stream `[seed, 0]`."""
    if hidden_dim < 2:
        raise ValueError(f"hidden dimension must be >= 2, got {hidden_dim}")
    rng = np.random.default_rng([seed, 0])
    emb = rng.normal(0.0, 1.0, size=(vocab.size, hidden_dim))
    ff_w = rng.normal(0.0, 1.0, size=(hidden_dim, hidden_dim))
    ff_b = np.zeros(hidden_dim)
    w = rng.normal(0.0, 1.0, size=hidden_dim)
    return ScorerParams(vocab, emb, ff_w, ff_b, w, 0.0)


def sigmoid(z):
    """Numerically stable logistic function for scalars and arrays.

    A scalar goes through the array path's ufunc calls on a one-element
    array, so it reads the same bits as an array holding it.
    """
    z = np.asarray(z, dtype=np.float64)
    if not z.ndim:
        z = z.reshape(1)
        if z[0] >= 0:
            return float((1.0 / (1.0 + np.exp(-z)))[0])
        ez = np.exp(z)
        return float((ez / (1.0 + ez))[0])
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def encode_rows(params: ScorerParams, table: PhraseTable, rows: np.ndarray) -> np.ndarray:
    """Pooled H-vectors of id rows over `table`, one row each, forward only.

    Each is the triple's token mean plus a residual feedforward correction;
    with zero feedforward weights it is the token mean exactly.
    """
    if not len(rows):
        return np.zeros((0, params.hidden_dim))
    _, h = _hidden(params, _pool_phrase_sums(params, table, rows))
    return h


def score_rows(params: ScorerParams, table: PhraseTable, rows: np.ndarray) -> np.ndarray:
    """Classification scores of id rows over `table`, forward only."""
    return sigmoid(encode_rows(params, table, rows) @ params.w + params.b)


def encode_batch(params: ScorerParams, triples: list[LabeledTriple]) -> np.ndarray:
    """`encode_rows` of many triples, one row each."""
    table = PhraseTable(params.vocab)
    return encode_rows(params, table, table.encode(triples))


def score_batch(params: ScorerParams, triples: list[LabeledTriple]) -> np.ndarray:
    table = PhraseTable(params.vocab)
    return score_rows(params, table, table.encode(triples))


def _mode_columns(modes: list[str]) -> np.ndarray:
    """Id-row column each corruption mode replaces: 0 head, 1 relation, 2 tail."""
    for mode in modes:
        if mode not in CORRUPTION_MODES:
            raise ValueError(f"unknown corruption mode {mode!r}")
    return np.asarray([CORRUPTION_MODES.index(m) for m in modes], dtype=np.int64)


class Pools(NamedTuple):
    """Per-entry replacement pools, as ranges of one shared id array.

    Entry i draws from `values[start[i] : start[i] + size[i]]`, never from
    position `skip[i]` of that range, which holds the original (-1: the
    original is not in the range).
    """

    values: np.ndarray
    start: np.ndarray
    size: np.ndarray
    skip: np.ndarray


def _draw_corruptions(
    ids: IdView,
    rows: np.ndarray,
    column: np.ndarray,
    rng: np.random.Generator,
    pools: Pools | None = None,
) -> np.ndarray:
    """Corrupted id `rows`, in order, minus skips; draws into `rows` in place.

    Entry i replaces column `column[i]` (0 head, 1 relation, 2 tail) with a
    uniform draw from its pool, excluding the original: a draw j >= skip
    becomes j + 1. The default pools are all of the KB's phrases (or
    relations), in id order. Entries that land on a stored positive are
    redrawn together, in the same column, for up to CORRUPT_RETRIES rounds
    in all; those still colliding are skipped.
    """
    if pools is None:
        size = np.where(column == 1, len(ids.relations), ids.n_phrases)
        original = rows[np.arange(len(rows)), column]
        pools = Pools(np.arange(size.max(initial=0)), np.zeros_like(size), size, original)
    values, start, size, skip = pools
    has_skip = skip >= 0
    choices = size - has_skip
    if len(choices) and choices.min() < 1:
        mode = CORRUPTION_MODES[column[choices.argmin()]]
        raise ValueError(f"KB too small to corrupt {mode}: no replacement differs from the original")
    pending = np.arange(len(rows))
    for _ in range(CORRUPT_RETRIES):
        if not len(pending):
            break
        j = rng.integers(choices[pending])
        j += has_skip[pending] & (j >= skip[pending])
        rows[pending, column[pending]] = values[start[pending] + j]
        pending = pending[ids.contains(*rows[pending].T)]
    if len(pending):
        logger.debug(
            "%d corruptions skipped after %d in-KB collisions", len(pending), CORRUPT_RETRIES
        )
    return np.delete(rows, pending, axis=0)


@dataclass
class TripleGradient:
    """Gradient of one triple's loss over every parameter.

    Embedding rows not touched by the triple have zero gradient and are
    omitted from `emb_rows`. Rows may share one array: do not write to them.
    """

    emb_rows: dict[int, np.ndarray]
    ff_w: np.ndarray
    ff_b: np.ndarray
    w: np.ndarray
    b: float

    def norm(self) -> float:
        total = float(self.w @ self.w) + self.b * self.b
        total += float((self.ff_w * self.ff_w).sum()) + float(self.ff_b @ self.ff_b)
        for row in self.emb_rows.values():
            total += float(row @ row)
        return math.sqrt(total)


def loss_and_gradient(
    params: ScorerParams, triple: LabeledTriple, label: int
) -> tuple[float, TripleGradient]:
    """Binary cross-entropy and its exact gradient for one triple."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    ids = params.vocab.encode_triple(triple)
    m = params.emb.take(ids, axis=0).sum(axis=0) / len(ids)  # `mean`'s sum and division
    t = np.tanh(params.ff_w @ m + params.ff_b)
    h = m + t
    p = sigmoid(params.w @ h + params.b)
    pc = min(max(p, LOSS_EPS), 1.0 - LOSS_EPS)
    loss = -(label * math.log(pc) + (1 - label) * math.log(1.0 - pc))

    dz = p - label
    dw = dz * h
    dh = dz * params.w
    da = dh * (1.0 - t * t)
    dff_w = da[:, None] * m  # `np.outer`'s multiply
    dm = dh + params.ff_w.T @ da
    # A row is dm / length summed once per occurrence, in token order.
    step = dm * (1.0 / len(ids))
    emb_rows: dict[int, np.ndarray] = {}
    for i in ids.tolist():
        row = emb_rows.get(i)
        emb_rows[i] = step if row is None else row + step
    params.grad_evals += 1
    return loss, TripleGradient(emb_rows, dff_w, da, dw, float(dz))


def _hidden(params: ScorerParams, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual feedforward over pooled rows: (tanh activation, pooled vector)."""
    t = np.tanh(m @ params.ff_w.T + params.ff_b)
    return t, m + t


def _pool_phrase_sums(params: ScorerParams, table: PhraseTable, rows: np.ndarray) -> np.ndarray:
    """Token means of triple rows from per-phrase embedding sums, forward only.

    Mean pooling is linear in the token rows, so each distinct phrase's
    embedding sum is gathered once and shared by every triple that uses it.
    """
    tokens, offsets, lengths = table.arrays()
    sums = np.add.reduceat(params.emb[tokens], offsets, axis=0)
    heads, relations, tails = rows.T
    vocab = params.vocab
    # encode_triple layout: [start, head tokens, sep, relation, sep, tail tokens]
    frame = params.emb[vocab.START] + 2.0 * params.emb[vocab.SEP]
    m = frame + params.emb[relations] + sums[heads] + sums[tails]
    m /= (4 + lengths[heads] + lengths[tails])[:, None]
    return m


# Batches per token layout. A layout holds 24 bytes per emitted token (id,
# owner row, weight), and building it costs a few numpy calls, so it is built
# for a block of batches, not per batch and not per epoch: 16 batches of 64
# rows of 28 tokens (the long-phrase bench world) hold 0.7 MB, a whole epoch
# of that world (9408 rows) 6.3 MB plus the temporaries that build it.
LAYOUT_BATCHES = 16


class _TokenLayout:
    """Every token id `encode_triple` emits for a block of rows, row after row.

    Row i's ids are `emitted[indptr[i] : indptr[i + 1]]`; `owner` names each
    id's row and `weight` is 1 / that row's length. `batch` turns a slice of
    consecutive rows into that batch's distinct token ids and normalized
    token-count matrix A: A[i, j] counts token `ids[j]` in row i, divided by
    the row's length. So `A @ emb[ids]` is the batch's token means, and
    `A.T @ dm` is the gradient of those means on rows `ids` of the embedding
    table; no other row is touched.
    """

    def __init__(self, vocab: TokenVocab, table: PhraseTable, rows: np.ndarray):
        tokens, offsets, lengths = table.arrays()
        heads, relations, tails = rows.T
        head_len = lengths[heads]
        length = 4 + head_len + lengths[tails]
        self.vocab_size = vocab.size
        self.indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(length, out=self.indptr[1:])
        starts = self.indptr[:-1]
        # encode_triple layout: [start, head tokens, sep, relation, sep, tail tokens]
        sep = starts + 1 + head_len
        self.emitted = np.empty(self.indptr[-1], dtype=np.int64)
        self.emitted[starts] = vocab.START
        self.emitted[sep] = vocab.SEP
        self.emitted[sep + 1] = relations
        self.emitted[sep + 2] = vocab.SEP
        is_word = np.ones(len(self.emitted), dtype=bool)
        is_word[np.concatenate([starts, sep, sep + 1, sep + 2])] = False
        # Index into `tokens` of row 0's head and tail tokens, then row 1's, ...
        phrases = np.column_stack([heads, tails]).ravel()
        counts = lengths[phrases]
        ends = np.cumsum(counts)
        positions = np.arange(ends[-1]) + np.repeat(offsets[phrases] - (ends - counts), counts)
        self.emitted[is_word] = tokens[positions]
        self.owner = np.repeat(np.arange(len(rows)), length)
        self.weight = np.repeat(1.0 / length, length)

    def batch(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, A) of rows `start:stop` of the block."""
        lo, hi = self.indptr[start], self.indptr[stop]
        emitted = self.emitted[lo:hi]
        present = np.zeros(self.vocab_size, dtype=bool)
        present[emitted] = True
        ids = np.flatnonzero(present)
        column = np.cumsum(present) - 1  # position of each token id within `ids`
        n = stop - start
        cells = (self.owner[lo:hi] - start) * len(ids) + column[emitted]
        a = np.bincount(cells, weights=self.weight[lo:hi], minlength=n * len(ids))
        return ids, a.reshape(n, len(ids))


def _token_batches(
    vocab: TokenVocab, table: PhraseTable, rows: np.ndarray, batch_size: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """(start, stop, ids, A) of each consecutive batch of `rows`.

    The token layout is built once per LAYOUT_BATCHES batches and sliced.
    """
    block = LAYOUT_BATCHES * batch_size
    for block_start in range(0, len(rows), block):
        layout = _TokenLayout(vocab, table, rows[block_start : block_start + block])
        block_len = len(layout.indptr) - 1
        for start in range(0, block_len, batch_size):
            stop = min(start + batch_size, block_len)
            yield (block_start + start, block_start + stop, *layout.batch(start, stop))


class _BatchGrads(NamedTuple):
    """Mean batch gradient; `emb` holds only the rows `emb_ids` of the table."""

    emb_ids: np.ndarray
    emb: np.ndarray
    ff_w: np.ndarray
    ff_b: np.ndarray
    w: np.ndarray
    b: float


def _loss_and_gradient_batch(
    params: ScorerParams, ids: np.ndarray, a: np.ndarray, labels: np.ndarray
) -> tuple[float, _BatchGrads]:
    """Mean loss and mean gradient over a batch, given its token layout (ids, A)."""
    n = len(labels)
    m = a @ params.emb[ids]
    t, h = _hidden(params, m)
    # The logistic in one pass. Its absolute error is about 1e-16 (it reads 0
    # below 3e-17), which the loss clip at LOSS_EPS hides; scores, which reach
    # far below that, keep the stable `sigmoid`.
    p = np.tanh(0.5 * (h @ params.w + params.b))
    p *= 0.5
    p += 0.5
    # Labels are 0 or 1: |(1 - label) - clip(p)| is the clipped probability
    # of the true label, as `loss_and_gradient` takes it.
    pc = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    loss = -float(np.log(np.abs((1.0 - labels) - pc)).sum()) / n

    dz = (p - labels) / n
    dw = h.T @ dz
    db = float(dz.sum())
    dh = dz[:, None] * params.w
    da = dh * (1.0 - t * t)
    dff_w = da.T @ m
    dff_b = da.sum(axis=0)
    dm = dh + da @ params.ff_w
    params.grad_evals += n
    return loss, _BatchGrads(ids, a.T @ dm, dff_w, dff_b, dw, db)


class _Adagrad:
    """Per-parameter adaptive steps from accumulated squared gradients."""

    def __init__(self, params: ScorerParams, learning_rate: float):
        self.lr = learning_rate
        self.acc_emb = np.zeros_like(params.emb)
        self.acc_ff_w = np.zeros_like(params.ff_w)
        self.acc_ff_b = np.zeros_like(params.ff_b)
        self.acc_w = np.zeros_like(params.w)
        self.acc_b = 0.0

    def step(self, params: ScorerParams, g: _BatchGrads) -> None:
        # Rows outside g.emb_ids have zero gradient, so their step is zero.
        acc_emb = self.acc_emb[g.emb_ids]
        acc_emb += g.emb * g.emb
        self.acc_emb[g.emb_ids] = acc_emb
        params.emb[g.emb_ids] -= self._delta(g.emb, acc_emb)
        for param, grad, acc in (
            (params.ff_w, g.ff_w, self.acc_ff_w),
            (params.ff_b, g.ff_b, self.acc_ff_b),
            (params.w, g.w, self.acc_w),
        ):
            acc += grad * grad
            param -= self._delta(grad, acc)
        self.acc_b += g.b * g.b
        params.b -= self.lr * g.b / (math.sqrt(self.acc_b) + ADA_EPS)

    def _delta(self, grad: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """lr * grad / (sqrt(acc) + ADA_EPS), in that order, in two new arrays."""
        delta = self.lr * grad
        root = np.sqrt(acc)
        root += ADA_EPS
        delta /= root
        return delta


@dataclass
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-2
    batch_size: int = 64
    negatives_per_positive: int = 3
    seed: int = 0
    corruption_mode: str = "cycle"

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives-per-positive must be >= 1")
        if self.corruption_mode not in CORRUPTION_MODES + ("cycle",):
            raise ValueError(f"unknown corruption mode {self.corruption_mode!r}")

    def modes(self) -> list[str]:
        """Corruption mode of the i-th negative for each positive."""
        if self.corruption_mode == "cycle":
            return [CORRUPTION_MODES[i % 3] for i in range(self.negatives_per_positive)]
        return [self.corruption_mode] * self.negatives_per_positive


def _train(
    params: ScorerParams,
    table: PhraseTable,
    config: TrainConfig,
    rng: np.random.Generator,
    epoch_examples: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> list[float]:
    """Mean loss per epoch; `epoch_examples()` gives each epoch's (rows, labels)."""
    optimizer = _Adagrad(params, config.learning_rate)
    trace: list[float] = []
    for epoch in range(config.epochs):
        rows, labels = epoch_examples()
        perm = rng.permutation(len(rows))
        labels = labels[perm]
        total = 0.0
        # A diverging run fails on its epoch loss below, not on numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop, ids, a in _token_batches(
                params.vocab, table, rows[perm], config.batch_size
            ):
                loss, grads = _loss_and_gradient_batch(params, ids, a, labels[start:stop])
                optimizer.step(params, grads)
                total += loss * (stop - start)
        mean_loss = total / len(rows)
        if not math.isfinite(mean_loss):
            raise ValueError(f"non-finite training loss {mean_loss} at epoch {epoch}")
        trace.append(mean_loss)
    return trace


def corruption_examples(
    kb: KnowledgeBase,
    positives: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One corrupted negative per positive per configured mode; skips logged.

    `positives` are (n, 3) id rows of `kb.ids` (`kb.ids.encode(triples)`).
    Returns the negatives as id rows too: head phrase id, relation id, tail
    phrase id, in (positive, mode) order. A -1 of a positive (a phrase or
    relation the KB does not store) stays -1.
    """
    columns = _mode_columns(config.modes())
    rows = np.repeat(positives, len(columns), axis=0)
    return _draw_corruptions(kb.ids, rows, np.tile(columns, len(positives)), rng)


def train_contrastive(
    params: ScorerParams, kb: KnowledgeBase, config: TrainConfig
) -> tuple[ScorerParams, list[float]]:
    """Fit the scorer on KB positives against fresh per-epoch corruptions."""
    positives = list(kb.splits.train)
    if not positives:
        raise ValueError("training split is empty")
    rng = np.random.default_rng([config.seed, 2])
    ids = kb.ids
    pos_ids = ids.encode(positives)
    if (pos_ids < 0).any():
        raise ValueError("training split holds a phrase or relation the KB does not store")
    # The table numbers the KB's phrases like `kb.ids`, so an id row becomes
    # a table row by mapping its relation id to the relation's token id.
    table = PhraseTable(params.vocab, kb.phrases)
    relation_tokens = np.asarray(
        [params.vocab.relation_id(r) for r in ids.relations], dtype=np.int64
    )

    def table_rows(id_rows: np.ndarray) -> np.ndarray:
        rows = id_rows.copy()
        rows[:, 1] = relation_tokens[id_rows[:, 1]]
        return rows

    pos_rows = table_rows(pos_ids)
    pos_labels = np.ones(len(positives))

    def epoch_examples():
        negatives = corruption_examples(kb, pos_ids, config, rng)
        rows = np.concatenate([pos_rows, table_rows(negatives)])
        return rows, np.concatenate([pos_labels, np.zeros(len(negatives))])

    return params, _train(params, table, config, rng, epoch_examples)


def train_supervised(
    params: ScorerParams, examples: list[LabeledTriple], config: TrainConfig
) -> tuple[ScorerParams, list[float]]:
    """Fit the scorer on a fixed labeled example set (labels from the triples)."""
    if not examples:
        raise ValueError("example set is empty")
    rng = np.random.default_rng([config.seed, 3])
    table = PhraseTable(params.vocab)
    rows = table.encode(examples)
    labels = np.asarray([float(t.label) for t in examples])
    return params, _train(params, table, config, rng, lambda: (rows, labels))


@dataclass
class ThresholdMap:
    """Per-relation decision thresholds with a global fallback."""

    per_relation: dict[str, float] = field(default_factory=dict)
    fallback: float = 0.5

    def __post_init__(self):
        for value in (*self.per_relation.values(), self.fallback):
            if not math.isfinite(value):
                raise ValueError(f"thresholds must be finite, got {value!r}")

    def threshold_for(self, relation: str) -> float:
        return self.per_relation.get(relation, self.fallback)


def best_threshold(pos_scores: np.ndarray, neg_scores: np.ndarray) -> tuple[float, float]:
    """Accuracy-maximizing threshold for `score > theta` classification.

    Candidates are the midpoints between adjacent distinct sorted scores plus
    one sentinel below the minimum and one above the maximum (classify-all
    cases). Ties prefer the widest margin, then the smallest threshold.
    Returns (threshold, accuracy).
    """
    distinct = np.unique(np.concatenate([pos_scores, neg_scores]))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    margins = (distinct[1:] - distinct[:-1]) / 2.0
    # Sentinel margin 1.0 beats any probability-gap half-width.
    cands = np.concatenate([[distinct[0] - 1.0], mids, [distinct[-1] + 1.0]])
    cand_margins = np.concatenate([[1.0], margins, [1.0]])
    # Correct at theta: positives scoring > theta plus negatives scoring <= theta.
    pos_at_most = np.searchsorted(np.sort(pos_scores), cands, side="right")
    neg_at_most = np.searchsorted(np.sort(neg_scores), cands, side="right")
    accs = (len(pos_scores) - pos_at_most + neg_at_most) / (len(pos_scores) + len(neg_scores))
    order = np.lexsort((cands, -cand_margins, -accs))
    best = order[0]
    return float(cands[best]), float(accs[best])


def fit_thresholds(params: ScorerParams, validation: list[LabeledTriple]) -> ThresholdMap:
    """Per-relation accuracy-maximizing thresholds on validation examples.

    Relations lacking both classes fall back to a single global threshold fit
    over all validation examples.
    """
    if not validation:
        raise ValueError("validation set is empty")
    scores = score_batch(params, validation)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classification score among the validation examples")
    by_relation: dict[str, list[int]] = {}
    for i, t in enumerate(validation):
        by_relation.setdefault(t.relation, []).append(i)
    labels = np.asarray([t.label for t in validation])
    fallback, _ = best_threshold(scores[labels == 1], scores[labels == 0])
    per_relation: dict[str, float] = {}
    for relation, idx in by_relation.items():
        rel_scores = scores[idx]
        rel_labels = labels[idx]
        if 0 < rel_labels.sum() < len(rel_labels):
            theta, _ = best_threshold(rel_scores[rel_labels == 1], rel_scores[rel_labels == 0])
            per_relation[relation] = theta
    return ThresholdMap(per_relation, fallback)


def embed_phrase(params: ScorerParams, phrase: Phrase) -> np.ndarray:
    """Mean token embedding of a phrase from the scorer's embedding table."""
    return params.emb[params.vocab.encode_phrase(phrase)].mean(axis=0)
