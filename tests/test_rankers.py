"""Ranking keys, gradient magnitudes, the regression fast path, and TSV I/O."""
import math

import numpy as np
import pytest
from conftest import dense_gradient, encode, fd_gradient, make_triple as t, score, spearman

from negmine import rankers
from negmine.candidates import CandidateTable
from negmine.ioutil import ParseError
from negmine.kb import Phrase
from negmine.rankers import (
    RANK_METHODS,
    GradientPredictor,
    RankedRow,
    fit_gradient_predictor,
    fit_mae_regressor,
    gradient_magnitude,
    pearson,
    rank_grad,
    rank_grad_fast,
    rank_none,
    rank_theta,
    read_ranked_tsv,
    write_ranked_tsv,
)
from negmine.scorer import (
    ThresholdMap,
    TokenVocab,
    encode_batch,
    init_params,
    score_batch,
)

from_triples = CandidateTable.from_triples


def controlled_setup(score_logits, relation="R"):
    """One single-token candidate triple per logit, scored exactly sigmoid(x).

    Sequence [start, h_i, sep, R, sep, x] has all rows zero except h_i, whose
    first coordinate is 6 * logit, so the pooled mean has first coordinate
    logit and w = e1 reads it off.
    """
    words = [f"h{i}" for i in range(len(score_logits))] + ["x", "src"]
    vocab = TokenVocab([relation], sorted(words))
    params = init_params(vocab, hidden_dim=2, seed=0)
    params.emb[:] = 0.0
    params.ff_w[:] = 0.0
    params.ff_b[:] = 0.0
    params.w[:] = [1.0, 0.0]
    params.b = 0.0
    candidates = []
    for i, logit in enumerate(score_logits):
        params.emb[vocab.word_ids[f"h{i}"], 0] = 6.0 * logit
        candidates.append(t(relation, f"h{i}", "x", 0))
    return params, candidates


def by_rank(rows):
    return sorted(rows, key=lambda row: row.rank)


def logit(p):
    return math.log(p / (1.0 - p))


def random_setup(n=30, seed=0, hidden_dim=4):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)] + ["x"]
    vocab = TokenVocab(["R", "S"], sorted(words))
    params = init_params(vocab, hidden_dim=hidden_dim, seed=seed)
    candidates = []
    seen = set()
    while len(candidates) < n:
        rel = ["R", "S"][int(rng.integers(2))]
        head = f"w{rng.integers(40)}"
        tail = f"w{rng.integers(40)}"
        # Mean pooling ignores token positions, so a head/tail swap scores
        # identically; skip swaps to keep ranking keys distinct.
        key = (rel, frozenset((head, tail)))
        if head == tail or key in seen:
            continue
        seen.add(key)
        candidates.append(t(rel, head, tail, 0))
    return params, candidates


class TestRankTheta:
    def test_empty(self):
        params, _ = controlled_setup([])
        assert rank_theta(params, ThresholdMap(), from_triples([])) == []

    def test_filter_sort_ceil_example(self):
        params, candidates = controlled_setup([logit(0.7), logit(0.6), logit(0.2)])
        thresholds = ThresholdMap({"R": 0.65})
        out = rank_theta(params, thresholds, from_triples(candidates), keep_fraction=0.5)
        # Below-threshold pool is {0.6, 0.2}; ceil(0.5 x 2) = 1 kept, best first.
        assert len(out) == 1
        assert out[0].triple == candidates[1]
        assert out[0].key == pytest.approx(0.6, rel=1e-9)
        assert out[0].rank == 1

    def test_no_filter_keep_all_sorted(self):
        params, candidates = controlled_setup([logit(0.3), logit(0.8), logit(0.5)])
        out = by_rank(
            rank_theta(params, ThresholdMap({"R": 1.0}), from_triples(candidates), keep_fraction=1.0)
        )
        assert [rc.triple for rc in out] == [candidates[1], candidates[2], candidates[0]]
        assert [rc.rank for rc in out] == [1, 2, 3]
        keys = [rc.key for rc in out]
        assert keys == sorted(keys, reverse=True)

    def test_never_keeps_above_threshold(self):
        params, candidates = random_setup(n=40, seed=3)
        thresholds = ThresholdMap({"R": 0.55, "S": 0.5}, fallback=0.5)
        for rc in rank_theta(params, thresholds, from_triples(candidates), keep_fraction=1.0):
            assert rc.key <= thresholds.threshold_for(rc.triple.relation)
            assert rc.key == pytest.approx(score(params, rc.triple), rel=1e-12)

    def test_ranks_are_permutation_and_keys_sorted_within_pool(self):
        params, candidates = random_setup(n=50, seed=4)
        out = rank_theta(
            params, ThresholdMap(fallback=0.9), from_triples(candidates), keep_fraction=0.8, seed=5
        )
        assert sorted(rc.rank for rc in out) == list(range(1, len(out) + 1))
        by_rel: dict = {}
        for rc in out:
            by_rel.setdefault(rc.triple.relation, []).append(rc)
        for pool in by_rel.values():
            pool.sort(key=lambda rc: rc.rank)
            keys = [rc.key for rc in pool]
            assert keys == sorted(keys, reverse=True)

    def test_shuffle_seeded_and_rank_recovers_order(self):
        params, candidates = random_setup(n=30, seed=6)
        thresholds = ThresholdMap(fallback=1.0)
        a = rank_theta(params, thresholds, from_triples(candidates), seed=1)
        b = rank_theta(params, thresholds, from_triples(candidates), seed=1)
        c = rank_theta(params, thresholds, from_triples(candidates), seed=2)
        assert a == b
        assert {rc.triple for rc in a} == {rc.triple for rc in c}
        assert [rc.triple for rc in a] != [rc.triple for rc in c]
        # Sorted by rank: relations in sorted order, each pool's kept half
        # by descending score, whatever the seed.
        scores = score_batch(params, candidates)
        expected = []
        for relation in sorted({c.relation for c in candidates}):
            pool = [i for i, c in enumerate(candidates) if c.relation == relation]
            pool.sort(key=lambda i: -scores[i])
            expected += pool[: math.ceil(0.5 * len(pool))]
        assert [rc.triple for rc in by_rank(a)] == [candidates[i] for i in expected]
        assert [rc.rank for rc in by_rank(a)] == list(range(1, len(a) + 1))
        assert by_rank(a) == by_rank(c)

    def test_score_ties_break_by_emission_order(self):
        params, candidates = controlled_setup([logit(0.4), logit(0.4), logit(0.4)])
        out = by_rank(
            rank_theta(params, ThresholdMap({"R": 0.9}), from_triples(candidates), keep_fraction=1.0)
        )
        assert [rc.triple for rc in out] == candidates

    def test_keep_fraction_validated(self):
        params, candidates = controlled_setup([logit(0.4)])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                rank_theta(params, ThresholdMap(), from_triples(candidates), keep_fraction=bad)


class TestGradientMagnitude:
    def test_non_negative_and_zero_at_saturation(self):
        params, candidates = random_setup(n=5, seed=8)
        for c in candidates:
            assert gradient_magnitude(params, c) >= 0.0
        params.w[:] = 0.0
        params.b = 50.0  # score saturates to exactly 1.0, loss bottoms out
        assert gradient_magnitude(params, candidates[0]) <= 1e-6

    def test_matches_finite_difference_norm(self):
        params, candidates = random_setup(n=6, seed=9, hidden_dim=4)
        for c in candidates[:4]:
            analytic = gradient_magnitude(params, c)
            numeric = float(np.linalg.norm(fd_gradient(params, c, 1)))
            assert analytic == pytest.approx(numeric, rel=1e-3)


class TestRankGrad:
    def test_singleton(self):
        params, candidates = random_setup(n=1, seed=11)
        out = rank_grad(params, from_triples(candidates))
        assert len(out) == 1 and out[0].rank == 1

    def test_descending_order_matches_recompute(self):
        params, candidates = random_setup(n=25, seed=12)
        out = rank_grad(params, from_triples(candidates))
        keys = np.array([gradient_magnitude(params, c) for c in candidates])
        expected = np.argsort(-keys, kind="stable")
        assert [rc.triple for rc in out] == [candidates[int(i)] for i in expected]
        assert [rc.rank for rc in out] == list(range(1, len(candidates) + 1))
        out_keys = [rc.key for rc in out]
        assert out_keys == sorted(out_keys, reverse=True)

    def test_permutation_invariant_with_distinct_keys(self):
        params, candidates = random_setup(n=15, seed=13)
        keys = [gradient_magnitude(params, c) for c in candidates]
        assert len(set(keys)) == len(keys), "setup assumes distinct keys"
        shuffled = [candidates[i] for i in np.random.default_rng(0).permutation(len(candidates))]
        a = [rc.triple for rc in rank_grad(params, from_triples(candidates))]
        b = [rc.triple for rc in rank_grad(params, from_triples(shuffled))]
        assert a == b

    def test_counts_backward_passes(self):
        params, candidates = random_setup(n=9, seed=15)
        before = params.grad_evals
        rank_grad(params, from_triples(candidates))
        assert params.grad_evals == before + 9


class TestOracleCalls:
    """The exact oracle runs once per candidate, through the name
    `rankers.loss_and_gradient`, which a tracer can wrap to count calls."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        oracle = rankers.loss_and_gradient

        def counting(params, triple, label):
            calls.append((triple, label))
            return oracle(params, triple, label)

        monkeypatch.setattr(rankers, "loss_and_gradient", counting)
        return calls

    def test_rank_grad_calls_once_per_candidate(self, calls):
        params, candidates = random_setup(n=12, seed=23)
        before = params.grad_evals
        rank_grad(params, from_triples(candidates))
        assert calls == [(c, 1) for c in candidates]
        assert params.grad_evals == before + len(candidates)

    def test_fit_gradient_predictor_calls_n_times(self, calls):
        params, candidates = random_setup(n=30, seed=24)
        before = params.grad_evals
        fit_gradient_predictor(params, from_triples(candidates), 11, np.random.default_rng(9))
        assert len(calls) == 11 and len({c for c, _ in calls}) == 11
        assert {label for _, label in calls} == {1}
        assert params.grad_evals == before + 11


class TestPredictor:
    def test_n_bounds(self):
        params, candidates = random_setup(n=10, seed=16)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            fit_gradient_predictor(params, from_triples(candidates), 1, rng)
        with pytest.raises(ValueError):
            fit_gradient_predictor(params, from_triples(candidates), 11, rng)

    def test_constant_targets_fit_exactly(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(40, 4))
        targets = np.full(40, 2.5)
        model = fit_mae_regressor(features, targets)
        np.testing.assert_allclose(model.predict(features), targets, atol=1e-3)

    def test_linear_targets_low_mae(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(200, 4))
        coefs = np.array([0.5, -1.0, 0.25, 2.0])
        targets = features @ coefs + 0.3
        model = fit_mae_regressor(features, targets)
        assert model.train_mae <= 1e-2

    def test_closed_form_least_squares(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(256, 8))
        targets = np.abs(features).sum(axis=1)
        model = fit_mae_regressor(features, targets)
        x = (features - model.x_mean) / model.x_scale
        basis = np.column_stack([x, np.ones(len(x))])
        # The residual satisfies the normal equations of the linear fit over [x, 1].
        residual = (model.predict(features) - targets) / model.y_scale
        assert np.abs(basis.T @ residual).max() <= 1e-8

    def test_fit_on_sampled_candidates_correlates(self):
        params, candidates = random_setup(n=200, seed=17)
        rng = np.random.default_rng(5)
        model = fit_gradient_predictor(params, from_triples(candidates), 150, rng)
        assert model.n_train == 150
        true = [gradient_magnitude(params, c) for c in candidates]
        predicted = model.predict(encode_batch(params, candidates))
        assert pearson(true, predicted) > 0.7

    def test_diagnostics_populated(self):
        params, candidates = random_setup(n=30, seed=18)
        rng = np.random.default_rng(6)
        model = fit_gradient_predictor(params, from_triples(candidates), 20, rng)
        assert model.n_train == 20
        assert math.isfinite(model.train_mae)


class TestEncodeCandidates:
    def test_rows_match_encode(self):
        vocab = TokenVocab(["R", "S"], ["a", "b", "c"])
        params = init_params(vocab, hidden_dim=6, seed=21)
        params.ff_b[:] = np.random.default_rng(22).normal(size=6)
        triples = [
            t("R", "a b c", "b", 0),  # multi-token head
            t("S", "a a", "c a b a", 0),  # repeated tokens
            t("R", "zzz", "a qqq", 0),  # out-of-vocabulary words
            t("T", "b", "c", 0),  # out-of-vocabulary relation
        ]
        expected = np.stack([encode(params, triple) for triple in triples])
        np.testing.assert_allclose(encode_batch(params, triples), expected, rtol=1e-12)


class TestRowPath:
    """The rankers pool a candidate table's id rows; their keys are bit for bit
    those of the triple path (`score_batch`, `encode_batch`) over the decoded
    triples, whatever the order of the table's phrases."""

    @staticmethod
    def world():
        vocab = TokenVocab(["R", "S"], ["a", "b", "c", "d"])
        params = init_params(vocab, hidden_dim=6, seed=31)
        params.ff_b[:] = np.random.default_rng(32).normal(size=6)
        triples = [
            t("R", "a b c", "d", 0),  # multi-token head
            t("S", "d", "a b c", 0),  # the same phrase in the other slot
            t("R", "zzz", "a qqq", 0),  # out-of-vocabulary words
            t("T", "b", "b", 0),  # out-of-vocabulary relation; one phrase in both slots
            t("S", "c a b a", "a", 0),  # repeated tokens
            t("R", "d", "c a b a", 0),
            t("S", "b", "unk d", 0),
            t("R", "a", "a b c", 0),
        ]
        rows = from_triples(triples)
        # Reversed phrases, plus one no row uses, as a file's sources add them.
        phrases = rows.phrases[::-1] + (Phrase.parse("extra words"),)
        remap = np.arange(len(rows.phrases))[::-1]
        ids = rows.rows.copy()
        ids[:, [0, 2]] = remap[ids[:, [0, 2]]]
        table = CandidateTable(phrases, rows.relations, ids)
        assert table.triples() == triples
        return params, table, triples

    def test_theta_keys_are_score_batch(self):
        params, table, triples = self.world()
        out = rank_theta(params, ThresholdMap(fallback=1.0), table, keep_fraction=1.0)
        assert len(out) == len(triples)
        expected = dict(zip(triples, score_batch(params, triples)))
        np.testing.assert_array_equal([r.key for r in out], [expected[r.triple] for r in out])

    def test_grad_fast_keys_are_predict_of_encode_batch(self):
        params, table, triples = self.world()
        model = fit_gradient_predictor(params, table, 5, np.random.default_rng(33))
        out = rank_grad_fast(params, model, table)
        expected = dict(zip(triples, model.predict(encode_batch(params, triples))))
        np.testing.assert_array_equal([r.key for r in out], [expected[r.triple] for r in out])

    def test_predictor_features_are_encode_batch(self, monkeypatch):
        params, table, triples = self.world()
        fitted = []
        fit = rankers.fit_mae_regressor
        monkeypatch.setattr(
            rankers, "fit_mae_regressor", lambda x, y: fitted.append((x, y)) or fit(x, y)
        )
        fit_gradient_predictor(params, table, 5, np.random.default_rng(34))
        chosen = [triples[i] for i in np.random.default_rng(34).choice(8, size=5, replace=False)]
        (features, targets), = fitted
        np.testing.assert_array_equal(features, encode_batch(params, chosen))
        np.testing.assert_array_equal(
            targets, [gradient_magnitude(params, triple) for triple in chosen]
        )


class TestRankGradFast:
    def test_dimension_mismatch(self):
        params, candidates = random_setup(n=5, seed=19, hidden_dim=4)
        with pytest.raises(ValueError, match="dimension"):
            rank_grad_fast(params, GradientPredictor(6), from_triples(candidates))

    def test_no_backward_passes(self):
        params, candidates = random_setup(n=30, seed=20)
        rng = np.random.default_rng(7)
        model = fit_gradient_predictor(params, from_triples(candidates), 20, rng)
        before = params.grad_evals
        rank_grad_fast(params, model, from_triples(candidates))
        assert params.grad_evals == before

    def test_exact_predictor_reproduces_rank_grad(self):
        params, candidates = random_setup(n=20, seed=21)
        true = np.array([gradient_magnitude(params, c) for c in candidates])

        class Exact(GradientPredictor):
            def predict(self, features):
                assert features.shape == (len(candidates), params.hidden_dim)
                return true.copy()

        out_fast = rank_grad_fast(params, Exact(params.hidden_dim), from_triples(candidates))
        out_full = rank_grad(params, from_triples(candidates))
        assert [rc.triple for rc in out_fast] == [rc.triple for rc in out_full]

    def test_trained_predictor_rank_agreement(self):
        params, candidates = random_setup(n=150, seed=22)
        rng = np.random.default_rng(8)
        model = fit_gradient_predictor(params, from_triples(candidates), 120, rng)
        full = rank_grad(params, from_triples(candidates))
        fast = rank_grad_fast(params, model, from_triples(candidates))
        pos_full = {rc.triple: rc.rank for rc in full}
        pos_fast = {rc.triple: rc.rank for rc in fast}
        rho = spearman(
            [pos_full[c] for c in candidates], [pos_fast[c] for c in candidates]
        )
        assert rho > 0.6


class TestRankNone:
    def test_permutation_with_constant_keys(self):
        _, candidates = random_setup(n=12, seed=23)
        out = rank_none(from_triples(candidates), seed=1)
        assert sorted(rc.rank for rc in out) == list(range(1, 13))
        assert all(rc.key == 0.0 for rc in out)
        assert {rc.triple for rc in out} == set(candidates)

    def test_seeded(self):
        _, candidates = random_setup(n=12, seed=24)
        table = from_triples(candidates)
        assert rank_none(table, seed=3) == rank_none(table, seed=3)
        assert [rc.triple for rc in rank_none(table, seed=3)] != [
            rc.triple for rc in rank_none(table, seed=4)
        ]


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="variance"):
            pearson([1, 2, 3], [5, 5, 5])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestRankedRow:
    @pytest.mark.parametrize(
        "rank, triple, key, method, message",
        [
            (1, t("R", "a", "b", 1), 0.5, "grad", "label 1"),
            (1, t("R", "a", "b", 0), math.nan, "grad", "non-finite ranking key"),
            (1, t("R", "a", "b", 0), math.inf, "grad-fast", "non-finite ranking key"),
            (1, t("R", "a", "b", 0), -math.inf, "theta", "non-finite ranking key"),
        ],
    )
    def test_invariants(self, rank, triple, key, method, message):
        with pytest.raises(ValueError, match=message):
            RankedRow(rank, triple, key, method)


def ranked_by(method):
    """Rows of one ranking method over the same small candidate pool."""
    params, candidates = random_setup(n=8, seed=26)
    table = from_triples(candidates)
    if method == "theta":
        return rank_theta(params, ThresholdMap(fallback=1.0), table, 1.0, seed=3)
    if method == "grad":
        return rank_grad(params, table)
    if method == "grad-fast":
        model = fit_gradient_predictor(params, table, 6, np.random.default_rng(9))
        return rank_grad_fast(params, model, table)
    return rank_none(table, seed=3)


class TestRankedTsv:
    @pytest.mark.parametrize("method", RANK_METHODS)
    def test_roundtrip(self, tmp_path, method):
        rows = ranked_by(method)
        assert {row.method for row in rows} == {method}
        if method == "theta":
            assert rows != by_rank(rows), "setup assumes a shuffled list"
        path = tmp_path / "ranked.tsv"
        write_ranked_tsv(rows, path)
        assert read_ranked_tsv(path) == rows  # repr round-trips doubles exactly

    def test_layout(self, tmp_path):
        row = RankedRow(1, t("R", "a b", "c", 0), 0.25, "theta")
        path = tmp_path / "r.tsv"
        write_ranked_tsv([row], path)
        assert path.read_text() == "1\tR\ta b\tc\t0.25\ttheta\n"

    def test_method_validated(self, tmp_path):
        with pytest.raises(ValueError):
            write_ranked_tsv([RankedRow(1, t("R", "a", "b", 0), 0.0, "magic")], tmp_path / "r.tsv")
        assert not (tmp_path / "r.tsv").exists()

    def test_bad_method_on_read(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\tR\ta\tb\t0.5\tmagic\n")
        with pytest.raises(ParseError, match="method"):
            read_ranked_tsv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\tR\ta\tb\t0.5\tgrad\n2\tR\ta\tb\t0.4\tgrad\n", "bad\\.tsv:2: duplicate triple"),
            ("1\tR\ta\tb\t0.5\tgrad\n1\tR\ta\tc\t0.4\tgrad\n", "bad\\.tsv:2: rank 1 repeated"),
            ("0\tR\ta\tb\t0.5\tgrad\n", "bad\\.tsv:1: rank 0 repeated or below 1"),
            ("1\tR\ta\tb\t0.5\tgrad\n3\tR\ta\tc\t0.4\tgrad\n", "bad\\.tsv:2: rank 3 exceeds"),
            ("1\tR\ta\tb\t0.5\tgrad\n2\tR\ta\tc\tnan\tgrad\n", "bad\\.tsv:2: non-finite ranking key"),
            ("1\tR\ta\tb\tinf\tgrad\n", "bad\\.tsv:1: non-finite ranking key"),
            ("1\tR\ta\tb\t-inf\ttheta\n", "bad\\.tsv:1: non-finite ranking key"),
        ],
    )
    def test_rejects_duplicates_and_non_permutation_ranks(self, tmp_path, text, message):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_ranked_tsv(path)

    def test_shuffled_permutation_accepted(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("2\tR\ta\tb\t0.5\tnone\n3\tR\ta\tc\t0.4\tnone\n1\tS\ta\tb\t0.1\tnone\n")
        assert [row.rank for row in read_ranked_tsv(path)] == [2, 3, 1]

    def test_rewrite_byte_identical(self, tmp_path):
        rows = ranked_by("grad")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_ranked_tsv(rows, a)
        write_ranked_tsv(rows, b)
        assert a.read_bytes() == b.read_bytes()
