"""Scorer: encoding, scoring, corruption, exact gradients, training, thresholds."""
import math
import warnings

import numpy as np
import pytest
from conftest import corrupt, encode, score
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from negmine.candidates import generate_candidates
from negmine.kb import HEAD, TAIL, KnowledgeBase, LabeledTriple, Phrase, TripleTable
from negmine.retrieval import build_index
from negmine.scorer import (
    ADA_EPS,
    LAYOUT_BATCHES,
    LOSS_EPS,
    ScorerParams,
    ThresholdMap,
    TokenVocab,
    TrainConfig,
    TripleGradient,
    _Adagrad,
    _loss_and_gradient_batch,
    _token_batches,
    _token_view,
    _TokenLayout,
    best_threshold,
    embed_phrase,
    fit_thresholds,
    gradient_norms,
    init_params,
    loss_and_gradient,
    score_batch,
    sigmoid,
    train_contrastive,
    train_supervised,
)
from negmine.synthetic import SyntheticSpec, generate_kb


def t(rel, head, tail, label=1):
    return LabeledTriple(Phrase.parse(head), rel, Phrase.parse(tail), label)


def classify(params, thresholds, triple):
    """True iff the triple scores strictly above its relation's threshold."""
    return score(params, triple) > thresholds.threshold_for(triple.relation)


def dense_best_threshold(pos_scores, neg_scores):
    """`best_threshold` by a dense (candidates x scores) sweep: the reference."""
    scores = np.concatenate([pos_scores, neg_scores])
    labels = np.concatenate([np.ones(len(pos_scores)), np.zeros(len(neg_scores))])
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    margins = (distinct[1:] - distinct[:-1]) / 2.0
    cands = np.concatenate([[distinct[0] - 1.0], mids, [distinct[-1] + 1.0]])
    cand_margins = np.concatenate([[1.0], margins, [1.0]])
    correct = (scores[None, :] > cands[:, None]) == labels[None, :].astype(bool)
    accs = correct.mean(axis=1)
    best = np.lexsort((cands, -cand_margins, -accs))[0]
    return float(cands[best]), float(accs[best])


def toy_kb():
    """Two relations over disjoint phrase clusters, all pairs present."""
    triples = []
    for i in range(4):
        for j in range(4):
            triples.append(t("likes", f"a{i}", f"b{j}"))
            triples.append(t("avoids", f"c{i}", f"d{j}"))
    return KnowledgeBase(triples)


def dense_gradient(params, grad):
    """Flatten a TripleGradient to one vector aligned with flatten_params."""
    demb = np.zeros_like(params.emb)
    for idx, row in grad.emb_rows.items():
        demb[idx] += row
    return np.concatenate(
        [demb.ravel(), grad.ff_w.ravel(), grad.ff_b.ravel(), grad.w.ravel(), [grad.b]]
    )


def flatten_params(params):
    return np.concatenate(
        [params.emb.ravel(), params.ff_w.ravel(), params.ff_b.ravel(), params.w.ravel(), [params.b]]
    )


def set_params_from_flat(params, flat):
    n_emb = params.emb.size
    n_ff = params.ff_w.size
    h = params.hidden_dim
    params.emb[:] = flat[:n_emb].reshape(params.emb.shape)
    params.ff_w[:] = flat[n_emb : n_emb + n_ff].reshape(params.ff_w.shape)
    params.ff_b[:] = flat[n_emb + n_ff : n_emb + n_ff + h]
    params.w[:] = flat[n_emb + n_ff + h : n_emb + n_ff + 2 * h]
    params.b = float(flat[-1])


def bce_loss(params, triple, label):
    p = score(params, triple)
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return -(label * math.log(p) + (1 - label) * math.log(1.0 - p))


def fd_gradient(params, triple, label, step=1e-4):
    """Central finite differences over every parameter."""
    flat = flatten_params(params)
    out = np.zeros_like(flat)
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        set_params_from_flat(params, bumped)
        up = bce_loss(params, triple, label)
        bumped[i] = flat[i] - step
        set_params_from_flat(params, bumped)
        down = bce_loss(params, triple, label)
        out[i] = (up - down) / (2.0 * step)
    set_params_from_flat(params, flat)
    return out


class TestTokenVocab:
    def test_dense_disjoint_ids(self):
        vocab = TokenVocab(["r", "s"], ["a", "b", "c"])
        ids = [vocab.START, vocab.SEP, vocab.UNK]
        ids += [vocab.relation_ids[r] for r in ("r", "s")]
        ids += [vocab.word_ids[w] for w in ("a", "b", "c")]
        assert sorted(ids) == list(range(vocab.size))

    def test_relation_and_word_ids_disjoint_on_collision(self):
        vocab = TokenVocab(["same"], ["same"])
        assert vocab.relation_ids["same"] != vocab.word_ids["same"]

    def test_unknown_maps_to_unk(self):
        vocab = TokenVocab(["r"], ["a"])
        assert vocab.word_id("zzz") == vocab.UNK
        assert vocab.relation_id("zzz") == vocab.UNK

    def test_encode_triple_layout(self):
        vocab = TokenVocab(["r"], ["x", "y", "z"])
        ids = vocab.encode_triple(t("r", "x y", "z"))
        expected = [
            vocab.START,
            vocab.word_ids["x"],
            vocab.word_ids["y"],
            vocab.SEP,
            vocab.relation_ids["r"],
            vocab.SEP,
            vocab.word_ids["z"],
        ]
        assert ids.tolist() == expected

    def test_from_kb_covers_split_words(self):
        kb = KnowledgeBase([t("r", "a", "b")])
        kb.splits.validation.append(t("r", "new phrase", "b", 0))
        vocab = TokenVocab.from_kb(kb)
        assert "new" in vocab.word_ids and "phrase" in vocab.word_ids

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TokenVocab(["r", "r"], ["a"])


def hand_params(hidden_dim=2):
    vocab = TokenVocab(["r"], ["x", "y"])
    params = init_params(vocab, hidden_dim=hidden_dim, seed=0)
    return vocab, params


class TestEncode:
    def test_identity_feedforward_gives_token_mean(self):
        vocab, params = hand_params()
        params.ff_w[:] = 0.0
        params.ff_b[:] = 0.0
        params.emb[:] = np.arange(params.emb.size).reshape(params.emb.shape)
        triple = t("r", "x", "y")
        ids = vocab.encode_triple(triple)
        expected = params.emb[ids].mean(axis=0)
        np.testing.assert_array_equal(encode(params, triple), expected)

    def test_hand_computed_mean(self):
        vocab, params = hand_params()
        params.ff_w[:] = 0.0
        params.ff_b[:] = 0.0
        params.emb[:] = 0.0
        params.emb[vocab.word_ids["x"]] = [6.0, 0.0]
        params.emb[vocab.word_ids["y"]] = [0.0, 12.0]
        # Sequence [start, x, sep, r, sep, y]: zeros except x and y rows.
        np.testing.assert_allclose(encode(params, t("r", "x", "y")), [1.0, 2.0])

    def test_deterministic(self):
        _, params = hand_params()
        a = encode(params, t("r", "x", "y"))
        b = encode(params, t("r", "x", "y"))
        np.testing.assert_array_equal(a, b)

    def test_output_dimension(self):
        for h in (2, 5, 16):
            vocab = TokenVocab(["r"], ["x", "y"])
            params = init_params(vocab, hidden_dim=h, seed=1)
            assert encode(params, t("r", "x y x", "y")).shape == (h,)

    def test_hidden_dim_floor(self):
        with pytest.raises(ValueError):
            init_params(TokenVocab(["r"], ["x"]), hidden_dim=1)


class TestScore:
    def test_zero_logit_gives_half(self):
        _, params = hand_params()
        params.w[:] = 0.0
        params.b = 0.0
        assert score(params, t("r", "x", "y")) == 0.5

    def test_hand_computed_sigmoid(self):
        vocab, params = hand_params()
        params.ff_w[:] = 0.0
        params.ff_b[:] = 0.0
        params.emb[:] = 0.0
        params.emb[vocab.word_ids["x"]] = [6.0, 0.0]
        params.emb[vocab.word_ids["y"]] = [0.0, 12.0]
        params.w[:] = [1.0, 0.5]
        params.b = -1.0
        # encode = [1, 2], logit = 1*1 + 0.5*2 - 1 = 1.
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert score(params, t("r", "x", "y")) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_bias(self):
        _, params = hand_params()
        triple = t("r", "x", "y")
        low = score(params, triple)
        params.b += 1.0
        assert score(params, triple) > low

    def test_score_batch_matches_single(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=3)
        triples = list(kb.triples)
        batched = score_batch(params, triples)
        singles = np.array([score(params, x) for x in triples])
        np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-15)

    def test_positive_rescale_of_head_preserves_score_order(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=4)
        triples = list(kb.triples)
        before = np.argsort(score_batch(params, triples), kind="stable")
        params.w *= 3.7
        params.b *= 3.7
        after = np.argsort(score_batch(params, triples), kind="stable")
        np.testing.assert_array_equal(before, after)


SIGMOID_GRID = [
    0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 36.0, -36.0,
    709.0, -709.0, 745.0, -745.0, 1e300, -1e300, math.inf, -math.inf, math.nan,
]


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestScalarSigmoid:
    """A scalar reads the bits of the array path on a one-element array."""

    @staticmethod
    def check(x):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            want = sigmoid(np.array([x]))[0]
            for arg in (x, np.float64(x), np.array(x)):
                got = sigmoid(arg)
                assert type(got) is float
                assert same_bits(np.float64(got), want), (arg, got, want)

    @pytest.mark.parametrize("x", SIGMOID_GRID)
    def test_grid(self, x):
        self.check(x)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_any_float(self, x):
        self.check(x)

    def test_array_path_keeps_its_shape(self):
        z = np.array(SIGMOID_GRID).reshape(3, 7)
        out = sigmoid(z)
        assert out.shape == (3, 7)
        for x, y in zip(z.ravel(), out.ravel()):
            assert same_bits(np.float64(sigmoid(x)), y)


class TestCorrupt:
    def test_slot_contract(self):
        kb = toy_kb()
        rng = np.random.default_rng(0)
        pos = kb.triples[0]
        for mode, changed in (("head", HEAD), ("tail", TAIL)):
            neg = corrupt(kb, pos, mode, rng)
            assert neg.label == 0
            assert neg.phrase(changed) != pos.phrase(changed)
            other = TAIL if changed == HEAD else HEAD
            assert neg.phrase(other) == pos.phrase(other)
            assert neg.relation == pos.relation
        neg = corrupt(kb, pos, "relation", rng)
        assert neg.relation != pos.relation
        assert neg.head == pos.head and neg.tail == pos.tail

    def test_two_phrase_kb_deterministic(self):
        kb = KnowledgeBase([t("r", "p", "q")])
        rng = np.random.default_rng(0)
        neg = corrupt(kb, kb.triples[0], "head", rng)
        assert neg == t("r", "q", "q", 0)

    def test_single_relation_mode_errors(self):
        kb = KnowledgeBase([t("r", "p", "q")])
        with pytest.raises(ValueError):
            corrupt(kb, kb.triples[0], "relation", np.random.default_rng(0))

    def test_never_returns_in_kb_positive(self):
        kb = toy_kb()
        rng = np.random.default_rng(42)
        for pos in kb.triples:
            for mode in ("head", "relation", "tail"):
                neg = corrupt(kb, pos, mode, rng)
                if neg is not None:
                    assert not kb.contains(neg)

    def test_exhausted_retries_skip(self):
        # Corrupting the head of (r, a, b) can only produce (r, b, b), which is
        # itself in the KB, so every retry collides and the draw is skipped.
        kb = KnowledgeBase([t("r", "a", "b"), t("r", "b", "b")])
        assert corrupt(kb, kb.triples[0], "head", np.random.default_rng(0)) is None

    def test_unknown_mode_rejected(self):
        kb = toy_kb()
        with pytest.raises(ValueError):
            corrupt(kb, kb.triples[0], "middle", np.random.default_rng(0))


class TestLossAndGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        vocab = TokenVocab(["r", "s"], ["a", "b", "c", "d"])
        for case in range(10):
            params = init_params(vocab, hidden_dim=4, seed=100 + case)
            triple = t(
                ["r", "s"][case % 2],
                ["a", "a b", "c d a"][case % 3],
                ["b", "d c"][case % 2],
            )
            label = case % 2
            _, grad = loss_and_gradient(params, triple, label)
            analytic = dense_gradient(params, grad)
            numeric = fd_gradient(params, triple, label)
            err = np.abs(analytic - numeric)
            tol = np.maximum(1e-7, 1e-4 * np.maximum(np.abs(analytic), np.abs(numeric)))
            assert (err <= tol).all()

    def test_w_gradient_closed_form(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=5)
        triple = t("r", "a", "b")
        for label in (0, 1):
            _, grad = loss_and_gradient(params, triple, label)
            expected = (score(params, triple) - label) * encode(params, triple)
            np.testing.assert_allclose(grad.w, expected, rtol=1e-12)

    def test_zero_gradient_at_exact_fit(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=5)
        params.b = 50.0  # saturates the sigmoid to exactly 1.0 in floats
        assert score(params, t("r", "a", "b")) == 1.0
        _, grad = loss_and_gradient(params, t("r", "a", "b"), 1)
        assert grad.norm() <= 1e-6

    def test_emb_rows_cover_exactly_touched_ids(self):
        vocab = TokenVocab(["r"], ["a", "b", "c"])
        params = init_params(vocab, hidden_dim=4, seed=2)
        triple = t("r", "a a", "b")
        _, grad = loss_and_gradient(params, triple, 0)
        expected_ids = {
            vocab.START,
            vocab.SEP,
            vocab.relation_ids["r"],
            vocab.word_ids["a"],
            vocab.word_ids["b"],
        }
        assert set(grad.emb_rows) == expected_ids

    def test_duplicate_tokens_accumulate(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=2)
        _, grad_dup = loss_and_gradient(params, t("r", "a a", "b"), 0)
        # Sequence [start, a, a, sep, r, sep, b]: the duplicated id's row gets
        # twice the single-occurrence contribution.
        single = None
        for idx, row in grad_dup.emb_rows.items():
            if idx == vocab.word_ids["b"]:
                single = row
        dup = grad_dup.emb_rows[vocab.word_ids["a"]]
        assert single is not None
        # Same dm scaled by occurrence count / sequence length.
        np.testing.assert_allclose(dup, 2.0 * single, rtol=1e-12)

    def test_bad_label_rejected(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=2)
        with pytest.raises(ValueError):
            loss_and_gradient(params, t("r", "a", "b"), 2)

    def test_counts_grad_evals(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=2)
        assert params.grad_evals == 0
        loss_and_gradient(params, t("r", "a", "b"), 1)
        loss_and_gradient(params, t("r", "a", "b"), 0)
        assert params.grad_evals == 2


def reference_loss_and_gradient(params, triple, label):
    """`loss_and_gradient` written plainly: ids from per-phrase generators,
    the scalar logistic through the array path, `mean`, `np.outer`, and one
    scaled add per token occurrence. The bit-exact reference for the oracle."""
    vocab = params.vocab
    ids = [vocab.START]
    ids.extend(vocab.word_id(w) for w in triple.head.tokens)
    ids.append(vocab.SEP)
    ids.append(vocab.relation_id(triple.relation))
    ids.append(vocab.SEP)
    ids.extend(vocab.word_id(w) for w in triple.tail.tokens)
    ids = np.asarray(ids, dtype=np.int64)
    m = params.emb[ids].mean(axis=0)
    t = np.tanh(params.ff_w @ m + params.ff_b)
    h = m + t
    p = float(sigmoid(np.array([params.w @ h + params.b]))[0])
    pc = min(max(p, LOSS_EPS), 1.0 - LOSS_EPS)
    loss = -(label * math.log(pc) + (1 - label) * math.log(1.0 - pc))

    dz = p - label
    dw = dz * h
    dh = dz * params.w
    da = dh * (1.0 - t * t)
    dff_w = np.outer(da, m)
    dm = dh + params.ff_w.T @ da
    emb_rows = {}
    scale = 1.0 / len(ids)
    for i in ids:
        i = int(i)
        if i in emb_rows:
            emb_rows[i] = emb_rows[i] + dm * scale
        else:
            emb_rows[i] = dm * scale
    return loss, TripleGradient(emb_rows, dff_w, da, dw, float(dz))


def assert_oracle_is_reference(params, triple, label):
    want_loss, want = reference_loss_and_gradient(params, triple, label)
    evals = params.grad_evals
    loss, got = loss_and_gradient(params, triple, label)
    assert params.grad_evals == evals + 1
    assert same_bits(loss, want_loss)
    for name in ("ff_w", "ff_b", "w", "b"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert list(got.emb_rows) == list(want.emb_rows)
    for i, row in want.emb_rows.items():
        assert same_bits(got.emb_rows[i], row), i
    assert same_bits(got.norm(), want.norm())


ORACLE_WORDS = ["a", "b", "c", "d"]


@st.composite
def oracle_cases(draw):
    """Params, a triple of repeated, unknown and known words under a known or
    unknown relation, a label, and the logit's sign flipped or not."""
    vocab = TokenVocab(["r", "s"], ORACLE_WORDS)
    params = init_params(vocab, hidden_dim=draw(st.integers(2, 6)), seed=draw(st.integers(0, 99)))
    params.ff_b[:] = np.random.default_rng(draw(st.integers(0, 99))).normal(size=params.hidden_dim)
    params.b = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):  # the logit w @ h + b changes sign
        params.w *= -1.0
        params.b = -params.b
    word = st.sampled_from(ORACLE_WORDS + ["zzz", "qqq"])
    phrase = st.lists(word, min_size=1, max_size=9).map(" ".join)
    triple = t(draw(st.sampled_from(["r", "s", "unseen"])), draw(phrase), draw(phrase))
    return params, triple, draw(st.sampled_from([0, 1]))


class TestOracleMatchesReference:
    """`loss_and_gradient` is bit for bit its first version."""

    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    @example((init_params(TokenVocab(["r", "s"], ORACLE_WORDS), 4, 1), t("r", "a a a a b", "a c"), 1))
    @example((init_params(TokenVocab(["r", "s"], ORACLE_WORDS), 4, 2), t("x", "zzz qqq zzz", "d d d d"), 0))
    def test_random_triples(self, case):
        assert_oracle_is_reference(*case)

    def test_both_logit_signs_and_labels(self):
        vocab = TokenVocab(["r", "s"], ORACLE_WORDS)
        params = init_params(vocab, hidden_dim=5, seed=6)
        triple = t("s", "b b b b zzz", "c a b")
        logits = []
        for _ in range(2):
            params.w *= -1.0
            params.b = -params.b
            logits.append(float(params.w @ encode(params, triple) + params.b))
            for label in (0, 1):
                assert_oracle_is_reference(params, triple, label)
        assert min(logits) < 0 < max(logits)

    def test_every_candidate_of_a_trained_world(self):
        kb = generate_kb(SyntheticSpec(clusters=3, cluster_size=6, relations=4, density=0.8, seed=5))
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=1)
        train_contrastive(params, kb, TrainConfig(epochs=5, learning_rate=0.05, seed=1))
        index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
        candidates = generate_candidates(kb, index, 6)
        assert len(candidates) >= 50
        for c in candidates:
            for label in (0, 1):
                assert_oracle_is_reference(params, c.triple, label)



def oracle_norms(params, triples):
    return [loss_and_gradient(params, x, 1)[1].norm() for x in triples]


@st.composite
def norm_cases(draw):
    """Params (hidden_dim from 2) and triples of mixed phrase lengths, with
    unknown words and relations and tokens repeated within and across head
    and tail; sometimes saturated, so that p == 1.0 on every row."""
    vocab = TokenVocab(["r", "s"], ORACLE_WORDS)
    params = init_params(vocab, hidden_dim=draw(st.integers(2, 6)), seed=draw(st.integers(0, 99)))
    params.ff_b[:] = np.random.default_rng(draw(st.integers(0, 99))).normal(size=params.hidden_dim)
    params.b = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        params.b = 100.0
    word = st.sampled_from(ORACLE_WORDS + ["zzz", "qqq"])
    phrase = st.lists(word, min_size=1, max_size=9).map(" ".join)
    triple = st.builds(t, st.sampled_from(["r", "s", "unseen"]), phrase, phrase)
    return params, draw(st.lists(triple, max_size=8))


class TestGradientNorms:
    """`gradient_norms` is the oracle's norm at label 1, row by row."""

    @settings(max_examples=200, deadline=None)
    @given(norm_cases())
    @example((init_params(TokenVocab(["r", "s"], ORACLE_WORDS), 2, 3), [
        t("unseen", "zzz qqq zzz", "qqq"),  # UNK words and relation: one token, counted 5 times
        t("r", "a a b", "b a"),
        t("s", "d", "c c c c c c c c c"),
    ]))
    @example((init_params(TokenVocab(["r", "s"], ORACLE_WORDS), 4, 1), []))
    def test_random_tables(self, case):
        params, triples = case
        before = params.grad_evals
        norms = gradient_norms(params, TripleTable.from_triples(triples))
        assert params.grad_evals == before + len(triples)
        assert norms.shape == (len(triples),)
        np.testing.assert_allclose(norms, oracle_norms(params, triples), rtol=1e-12)

    def test_saturated_rows_beside_overflowing_squares(self):
        # p == 1.0 exactly, while |m|^2 and |h|^2 overflow: the oracle's zero
        # factors give 0, and so must the closed form, not 0 * inf.
        vocab = TokenVocab(["r"], ORACLE_WORDS)
        params = init_params(vocab, hidden_dim=3, seed=2)
        params.emb[:] = np.abs(params.emb) * 1e160
        params.ff_w[:] = 0.0
        params.w[:] = np.abs(params.w)
        triples = [t("r", "a b", "c"), t("r", "d d", "zzz a")]
        with np.errstate(over="ignore"):
            assert np.isinf(encode(params, triples[0]) @ encode(params, triples[0]))
        with np.errstate(over="raise", invalid="raise"):
            norms = gradient_norms(params, TripleTable.from_triples(triples))
        np.testing.assert_array_equal(norms, oracle_norms(params, triples))
        np.testing.assert_array_equal(norms, [0.0, 0.0])

def mixed_batch():
    """Params with a non-zero feedforward bias and a batch that mixes triple
    lengths, repeats a token, and holds out-of-vocabulary words and relations."""
    vocab = TokenVocab(["r", "s"], ["a", "b", "c", "d"])
    params = init_params(vocab, hidden_dim=5, seed=4)
    params.ff_b[:] = np.random.default_rng(5).normal(size=5)
    triples = [
        t("r", "a", "b", 1),
        t("s", "a b a", "c", 0),
        t("r", "zzz d", "b c d", 1),
        t("unseen", "d", "qqq", 0),
        t("s", "c c c c", "a", 1),
    ]
    return params, triples


def token_weights(vocab, table, rows):
    """The batch's distinct token ids and its normalized token-count matrix A,
    built from scratch for one batch of `table`'s id rows: the reference for
    `_TokenLayout`."""
    tokens, offsets, lengths, relation_tokens = _token_view(vocab, table)
    n = len(rows)
    heads, relations, tails = rows.T
    phrases = np.concatenate([heads, tails])
    counts = lengths[phrases]
    ends = np.cumsum(counts)
    # Index into `tokens` of every head token, then every tail token.
    positions = np.arange(ends[-1]) + np.repeat(offsets[phrases] - (ends - counts), counts)
    frame = np.empty((n, 4), dtype=np.int64)
    frame[:, :3] = (vocab.START, vocab.SEP, vocab.SEP)
    frame[:, 3] = relation_tokens[relations]
    emitted = np.concatenate([tokens[positions], frame.ravel()])
    owner = np.concatenate(
        [np.repeat(np.tile(np.arange(n), 2), counts), np.repeat(np.arange(n), 4)]
    )
    present = np.zeros(vocab.size, dtype=bool)
    present[emitted] = True
    ids = np.flatnonzero(present)
    column = np.cumsum(present) - 1
    inv_length = 1.0 / (4 + lengths[heads] + lengths[tails])
    cells = owner * len(ids) + column[emitted]
    a = np.bincount(cells, weights=inv_length[owner], minlength=n * len(ids))
    return ids, a.reshape(n, len(ids))


def batch_loss_and_gradient(params, triples):
    """`_loss_and_gradient_batch` over triples taken as one batch."""
    labels = np.array([float(x.label) for x in triples])
    table = TripleTable.from_triples(triples)
    view = _token_view(params.vocab, table)
    ids, a = _TokenLayout(params.vocab, view, table.rows).batch(0, len(triples))
    return _loss_and_gradient_batch(params, ids, a, labels)


LAYOUT_WORDS = ["a", "b", "c", "d"]


@st.composite
def layout_triples(draw):
    """Triples of mixed phrase lengths with repeated and unknown tokens, and a
    batch size; sometimes more rows than one layout block holds."""
    word = st.sampled_from(LAYOUT_WORDS + ["zzz", "qqq"])
    phrase = st.lists(word, min_size=1, max_size=5).map(" ".join)
    triple = st.builds(t, st.sampled_from(["r", "s", "unseen"]), phrase, phrase)
    batch_size = draw(st.integers(1, 4))
    block = LAYOUT_BATCHES * batch_size
    n = draw(st.integers(1, block - 1) | st.integers(block, 2 * block + batch_size))
    # Drawing every row is slow at these lengths, so rows cycle through a short pool.
    pool = draw(st.lists(triple, min_size=1, max_size=12))
    return [pool[i % len(pool)] for i in range(n)], batch_size


class TestTokenLayout:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layout_triples())
    def test_batches_equal_the_per_batch_reference(self, case):
        triples, batch_size = case
        vocab = TokenVocab(["r", "s"], LAYOUT_WORDS)
        table = TripleTable.from_triples(triples)
        rows = table.rows
        view = _token_view(vocab, table)
        stops = []
        for start, stop, ids, a in _token_batches(vocab, view, rows, batch_size):
            assert start == (stops[-1] if stops else 0)
            assert stop - start == min(batch_size, len(rows) - start)
            stops.append(stop)
            want_ids, want_a = token_weights(vocab, table, rows[start:stop])
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(a, want_a)
        assert stops[-1] == len(rows)

    def test_rows_are_encode_triple(self):
        vocab = TokenVocab(["r", "s"], LAYOUT_WORDS)
        triples = [t("r", "a b a", "c"), t("unseen", "zzz", "d d"), t("s", "b", "qqq a b c")]
        table = TripleTable.from_triples(triples)
        # The same rows, relations numbered in reverse of the vocabulary's order.
        rows = table.rows.copy()
        rows[:, 1] = len(table.relations) - 1 - rows[:, 1]
        reversed_table = TripleTable(table.phrases, table.relations[::-1], rows)
        assert reversed_table.relations == ("s", "unseen", "r")
        for table in (table, reversed_table):
            layout = _TokenLayout(vocab, _token_view(vocab, table), table.rows)
            for i, x in enumerate(triples):
                row = layout.emitted[layout.indptr[i] : layout.indptr[i + 1]]
                np.testing.assert_array_equal(row, vocab.encode_triple(x))
                owner = layout.owner[layout.indptr[i] : layout.indptr[i + 1]]
                np.testing.assert_array_equal(owner, i)
                weight = layout.weight[layout.indptr[i] : layout.indptr[i + 1]]
                assert (weight == 1.0 / len(row)).all()

    def test_partial_batches_on_both_sides_of_a_block_boundary(self):
        vocab = TokenVocab(["r", "s"], LAYOUT_WORDS)
        batch_size = 3
        block = LAYOUT_BATCHES * batch_size
        n = block + 2 * batch_size + 1
        triples = [t("rs"[i % 2], "a " * (1 + i % 3), "zzz b" if i % 5 else "c") for i in range(n)]
        table = TripleTable.from_triples(triples)
        rows = table.rows
        batches = list(_token_batches(vocab, _token_view(vocab, table), rows, batch_size))
        spans = [(start, stop) for start, stop, *_ in batches]
        # The first block ends on a full batch; the last batch is partial.
        assert (block - batch_size, block) in spans and (block, block + batch_size) in spans
        assert spans[-1] == (n - 1, n)
        for start, stop, ids, a in batches:
            want_ids, want_a = token_weights(vocab, table, rows[start:stop])
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(a, want_a)


class TestBatchPaths:
    def test_token_view_encodes_each_phrase_once(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        table = TripleTable.from_triples(
            [t("r", "a b", "b"), t("r", "b", "a b"), t("q", "zzz", "b")]
        )
        np.testing.assert_array_equal(table.rows, [[0, 0, 1], [1, 0, 0], [2, 1, 1]])
        tokens, offsets, lengths, relations = _token_view(vocab, table)
        np.testing.assert_array_equal(
            relations[table.rows[:, 1]],
            [vocab.relation_ids["r"], vocab.relation_ids["r"], vocab.UNK],
        )
        np.testing.assert_array_equal(
            tokens, [vocab.word_ids["a"], vocab.word_ids["b"], vocab.word_ids["b"], vocab.UNK]
        )
        np.testing.assert_array_equal(offsets, [0, 2, 3])
        np.testing.assert_array_equal(lengths, [2, 1, 1])

    def test_batch_gradient_is_mean_of_oracle(self):
        params, triples = mixed_batch()
        loss, grads = batch_loss_and_gradient(params, triples)
        oracle = [loss_and_gradient(params, x, x.label) for x in triples]
        assert loss == pytest.approx(np.mean([l for l, _ in oracle]), rel=1e-10)
        expected = np.mean([dense_gradient(params, g) for _, g in oracle], axis=0)
        demb = np.zeros_like(params.emb)
        demb[grads.emb_ids] = grads.emb
        got = np.concatenate(
            [demb.ravel(), grads.ff_w.ravel(), grads.ff_b.ravel(), grads.w.ravel(), [grads.b]]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @pytest.mark.parametrize("bias", [-35.0, 35.0])
    def test_saturated_batch_loss_is_mean_of_oracle(self, bias):
        params, triples = mixed_batch()
        params.w *= 0.5
        params.b = bias
        logits = np.array([params.w @ encode(params, x) + params.b for x in triples])
        assert (30 <= np.abs(logits)).all() and (np.abs(logits) <= 40).all()
        assert {x.label for x in triples} == {0, 1}
        loss, grads = batch_loss_and_gradient(params, triples)
        oracle = [loss_and_gradient(params, x, x.label) for x in triples]
        assert abs(loss - np.mean([l for l, _ in oracle])) <= 1e-12
        expected = np.mean([dense_gradient(params, g) for _, g in oracle], axis=0)
        demb = np.zeros_like(params.emb)
        demb[grads.emb_ids] = grads.emb
        got = np.concatenate(
            [demb.ravel(), grads.ff_w.ravel(), grads.ff_b.ravel(), grads.w.ravel(), [grads.b]]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-14)

    def test_adagrad_steps_only_touched_rows_as_a_dense_step_would(self):
        params, triples = mixed_batch()
        _, grads = batch_loss_and_gradient(params, triples)
        demb = np.zeros_like(params.emb)
        demb[grads.emb_ids] = grads.emb
        expected = params.emb - 0.1 * demb / (np.sqrt(demb * demb) + ADA_EPS)
        _Adagrad(params, 0.1).step(params, grads)
        np.testing.assert_array_equal(params.emb, expected)


class TestTraining:
    def test_zero_epochs_noop(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=0)
        before = flatten_params(params).copy()
        _, trace = train_contrastive(params, kb, TrainConfig(epochs=0, seed=0))
        assert trace == []
        np.testing.assert_array_equal(flatten_params(params), before)

    def test_toy_kb_reaches_high_accuracy(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=64, seed=0)
        config = TrainConfig(epochs=200, learning_rate=1e-2, batch_size=64, seed=0)
        _, trace = train_contrastive(params, kb, config)
        assert len(trace) == 200
        # Accuracy over positives plus a fresh corruption draw, at 0.5.
        from negmine.scorer import corruption_examples

        rng = np.random.default_rng(999)
        negatives = kb.ids.table(corruption_examples(kb, kb.ids.rows, config, rng)).triples()
        examples = list(kb.triples) + negatives
        labels = np.array([x.label for x in examples])
        preds = (score_batch(params, examples) > 0.5).astype(int)
        assert (preds == labels).mean() >= 0.95

    def test_loss_trace_tail_non_increasing(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=64, seed=0)
        _, trace = train_contrastive(params, kb, TrainConfig(epochs=200, learning_rate=0.1, seed=0))
        tail = trace[-10:]
        for earlier, later in zip(tail, tail[1:]):
            assert later <= earlier + 1e-3

    def test_bit_identical_given_seed(self):
        kb = toy_kb()
        vocab = TokenVocab.from_kb(kb)
        runs = []
        for _ in range(2):
            params = init_params(vocab, hidden_dim=8, seed=11)
            _, trace = train_contrastive(params, kb, TrainConfig(epochs=5, seed=11))
            runs.append((flatten_params(params).copy(), trace))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_non_finite_loss_aborts(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=0)
        params.emb[0, 0] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            train_contrastive(params, kb, TrainConfig(epochs=1, seed=0))

    def test_empty_training_split_rejected(self):
        params = init_params(TokenVocab.from_kb(toy_kb()), hidden_dim=8, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_contrastive(params, KnowledgeBase([]), TrainConfig(epochs=1, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(negatives_per_positive=0)
        with pytest.raises(ValueError):
            TrainConfig(corruption_mode="sideways")
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate must be a finite number > 0"):
                TrainConfig(learning_rate=bad)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="batch_size must be >= 1"):
                TrainConfig(batch_size=bad)

    def test_cycle_modes(self):
        assert TrainConfig(negatives_per_positive=3).modes() == ["head", "relation", "tail"]
        assert TrainConfig(negatives_per_positive=1).modes() == ["head"]
        assert TrainConfig(negatives_per_positive=4, corruption_mode="tail").modes() == ["tail"] * 4

    def test_supervised_learns_fixed_labels(self):
        kb = toy_kb()
        vocab = TokenVocab.from_kb(kb)
        params = init_params(vocab, hidden_dim=64, seed=1)
        rng = np.random.default_rng(5)
        negatives = []
        for pos in kb.triples:
            neg = corrupt(kb, pos, "tail", rng)
            if neg is not None:
                negatives.append(neg)
        examples = list(kb.triples) + negatives
        labels = np.array([x.label for x in examples])
        table = TripleTable.from_triples(examples)
        _, trace = train_supervised(params, table, TrainConfig(epochs=150, seed=1), labels)
        preds = (score_batch(params, examples) > 0.5).astype(int)
        assert (preds == labels).mean() >= 0.95
        assert trace[-1] < trace[0]

    def test_supervised_needs_one_label_per_row(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=1)
        table = kb.ids.table(kb.ids.rows)
        with pytest.raises(ValueError, match="labels for"):
            train_supervised(params, table, TrainConfig(epochs=1), np.ones(len(table) - 1))


class TestThresholds:
    def test_spec_midpoint_example(self):
        theta, acc = best_threshold(np.array([0.9, 0.8]), np.array([0.4, 0.3]))
        assert theta == pytest.approx(0.6)
        assert acc == 1.0

    def test_interleaved_scores(self):
        theta, acc = best_threshold(np.array([0.9, 0.4]), np.array([0.6]))
        assert acc == pytest.approx(2.0 / 3.0)
        # Verified against a dense sweep: no threshold beats 2/3.
        dense = np.linspace(0.0, 1.0, 1000)
        scores = np.array([0.9, 0.4, 0.6])
        labels = np.array([1, 1, 0], dtype=bool)
        dense_best = max(((scores[None, :] > dense[:, None]) == labels).mean(axis=1))
        assert acc >= dense_best

    def test_beats_dense_sweep_on_random_configs(self):
        rng = np.random.default_rng(3)
        dense = np.linspace(0.0, 1.0, 1000)
        for _ in range(20):
            n_pos = int(rng.integers(1, 12))
            n_neg = int(rng.integers(1, 12))
            pos = rng.random(n_pos)
            neg = rng.random(n_neg)
            theta, acc = best_threshold(pos, neg)
            scores = np.concatenate([pos, neg])
            labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)]).astype(bool)
            dense_accs = ((scores[None, :] > dense[:, None]) == labels).mean(axis=1)
            assert acc >= dense_accs.max() - 1e-12

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=12),
        st.lists(st.integers(0, 6), min_size=0, max_size=12),
        st.sampled_from([1.0 / 6.0, 1e-3, 0.5, 1e-300, 1e17]),
        st.booleans(),
    )
    def test_equals_dense_sweep(self, pos, neg, step, swap):
        # A coarse grid of scores makes ties and duplicates common; tiny and
        # huge steps make midpoints round onto a score or sentinels collapse.
        pos = np.asarray(pos) * step
        neg = np.asarray(neg) * step
        if swap:
            pos, neg = neg, pos
        if not len(pos) + len(neg):
            return
        assert best_threshold(pos, neg) == dense_best_threshold(pos, neg)

    def test_fit_thresholds_per_relation_and_fallback(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=0)
        validation = [
            t("likes", "a0", "b0", 1),
            t("likes", "a1", "b1", 1),
            t("likes", "a0", "d0", 0),
            t("avoids", "c0", "d0", 1),  # single class: falls back
        ]
        thresholds = fit_thresholds(params, validation)
        assert "likes" in thresholds.per_relation
        assert "avoids" not in thresholds.per_relation
        assert thresholds.threshold_for("avoids") == thresholds.fallback
        assert thresholds.threshold_for("likes") == thresholds.per_relation["likes"]

    def test_fit_thresholds_rejects_a_non_finite_score(self):
        kb = toy_kb()
        vocab = TokenVocab.from_kb(kb)
        params = init_params(vocab, hidden_dim=8, seed=0)
        validation = [
            t("likes", "a0", "b0", 1),
            t("likes", "a1", "b1", 1),
            t("likes", "a0", "d0", 0),
            t("likes", "a2", "d1", 0),
        ]
        params.emb[vocab.word_ids["d1"]] = np.nan  # only the last example scores nan
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            fit_thresholds(params, validation)

    def test_fit_thresholds_empty_rejected(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=0)
        with pytest.raises(ValueError):
            fit_thresholds(params, [])

    def test_trained_thresholds_separate_validation(self):
        kb = toy_kb()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=64, seed=0)
        config = TrainConfig(epochs=200, seed=0)
        train_contrastive(params, kb, config)
        from negmine.scorer import corruption_examples

        rng = np.random.default_rng(123)
        negatives = kb.ids.table(corruption_examples(kb, kb.ids.rows, config, rng)).triples()
        validation = list(kb.triples) + negatives
        thresholds = fit_thresholds(params, validation)
        correct = [
            classify(params, thresholds, x) == bool(x.label) for x in validation
        ]
        assert np.mean(correct) >= 0.95


class TestClassify:
    def _fixed_score_params(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=0)
        params.w[:] = 0.0
        params.b = 0.0  # every score is exactly 0.5
        return params

    def test_strict_inequality_at_boundary(self):
        params = self._fixed_score_params()
        thresholds = ThresholdMap({"r": 0.5}, fallback=0.5)
        assert classify(params, thresholds, t("r", "a", "b")) is False

    def test_above_threshold_positive(self):
        params = self._fixed_score_params()
        thresholds = ThresholdMap({"r": 0.4}, fallback=0.9)
        assert classify(params, thresholds, t("r", "a", "b")) is True

    def test_unseen_relation_uses_fallback(self):
        params = self._fixed_score_params()
        thresholds = ThresholdMap({"r": 0.9}, fallback=0.4)
        assert classify(params, thresholds, t("unseen", "a", "b")) is True


class TestEmbedPhrase:
    def test_single_token_is_row(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=0)
        np.testing.assert_array_equal(
            embed_phrase(params, Phrase.parse("a")),
            params.emb[vocab.word_ids["a"]],
        )

    def test_two_token_mean(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=0)
        rows = params.emb[[vocab.word_ids["a"], vocab.word_ids["b"]]]
        np.testing.assert_allclose(embed_phrase(params, Phrase.parse("a b")), rows.mean(axis=0))

    def test_identical_phrases_identical_vectors(self):
        vocab = TokenVocab(["r"], ["a", "b"])
        params = init_params(vocab, hidden_dim=4, seed=0)
        np.testing.assert_array_equal(
            embed_phrase(params, Phrase.parse("a b")), embed_phrase(params, Phrase.parse("a b"))
        )
