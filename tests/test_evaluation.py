"""Metric arithmetic, Welch tests vs a quadrature oracle, and trial protocol."""
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import flatten_params, make_triple as t, ranked_table, t_tail_two_sided

from negmine.evaluation import (
    EvaluationReport,
    ExperimentConfig,
    TrialResult,
    assign_ranked,
    format_report,
    incomplete_beta,
    metrics,
    read_trials_tsv,
    report_rows,
    run_experiment,
    t_test_two_sided,
    write_report_tsv,
    write_trials_tsv,
)
from negmine.kb import KnowledgeBase, ParseError, TripleTable, build_true_negative_split
from negmine.rankers import RankedRow
from negmine.scorer import TokenVocab, TrainConfig, init_params, train_supervised


class TestMetrics:
    def test_all_correct(self):
        acc, prec, rec = metrics([True, False, True], [True, False, True])
        assert (acc, prec, rec) == (1.0, 1.0, 1.0)

    def test_confusion_matrix_arithmetic(self):
        # TP=3, FP=1, FN=2, TN=4.
        predictions = [True] * 3 + [True] + [False] * 2 + [False] * 4
        labels = [True] * 3 + [False] + [True] * 2 + [False] * 4
        acc, prec, rec = metrics(predictions, labels)
        assert acc == pytest.approx(0.7, abs=1e-12)
        assert prec == pytest.approx(0.75, abs=1e-12)
        assert rec == pytest.approx(0.6, abs=1e-12)

    def test_no_positive_predictions(self):
        acc, prec, rec = metrics([False, False], [True, False])
        assert prec is None
        assert acc == 0.5
        assert rec == 0.0

    def test_no_positive_labels(self):
        acc, prec, rec = metrics([True, False], [False, False])
        assert rec is None
        assert acc == 0.5
        assert prec == 0.0

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="predictions"):
            metrics([True], [True, False])
        with pytest.raises(ValueError, match="empty"):
            metrics([], [])


class TestIncompleteBeta:
    def test_endpoints(self):
        assert incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_arcsine_closed_form(self):
        # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x)).
        for x in (0.01, 0.2, 0.5, 0.77, 0.99):
            expected = 2.0 / math.pi * math.asin(math.sqrt(x))
            assert incomplete_beta(0.5, 0.5, x) == pytest.approx(expected, abs=1e-12)

    def test_power_closed_forms(self):
        for x in (0.1, 0.4, 0.9):
            assert incomplete_beta(1.0, 3.0, x) == pytest.approx(1 - (1 - x) ** 3, abs=1e-12)
            assert incomplete_beta(2.5, 1.0, x) == pytest.approx(x**2.5, abs=1e-12)

    def test_reflection_identity(self):
        for a, b in ((0.5, 4.0), (2.0, 2.0), (7.5, 1.5)):
            for x in (0.05, 0.33, 0.71, 0.95):
                total = incomplete_beta(a, b, x) + incomplete_beta(b, a, 1.0 - x)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        values = [incomplete_beta(3.0, 2.0, x) for x in np.linspace(0.01, 0.99, 25)]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="0, 1"):
            incomplete_beta(1.0, 1.0, 1.5)


class TestTTest:
    def test_identical_lists(self):
        t_stat, p = t_test_two_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t_stat == 0.0 and p == 1.0

    def test_zero_variance_equal_means(self):
        assert t_test_two_sided([2.0, 2.0], [2.0, 2.0]) == (0.0, 1.0)

    def test_zero_variance_different_means(self):
        t_stat, p = t_test_two_sided([0.0, 0.0], [1.0, 1.0])
        assert t_stat == -math.inf and p == 0.0

    def test_separated_samples(self):
        a = [0.0] * 5
        b = [1.0 + j * 1e-9 for j in range(5)]
        _, p = t_test_two_sided(a, b)
        assert p < 1e-6

    def test_shifted_ranges_match_quadrature(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [2.0, 3.0, 4.0, 5.0, 6.0]
        t_stat, p = t_test_two_sided(a, b)
        # Equal sizes and variances: se^2 = 2 x 2.5/5 = 1, so t = -1, df = 8.
        assert t_stat == pytest.approx(-1.0, abs=1e-12)
        assert p == pytest.approx(t_tail_two_sided(1.0, 8.0), abs=1e-4)

    def test_unequal_variances_match_quadrature(self):
        a = [0.0, 2.0]
        b = [0.0, 0.0, 6.0]
        t_stat, p = t_test_two_sided(a, b)
        # va=2, vb=12: se^2 = 1 + 4 = 5; Welch df = 25 / (1 + 16/2) = 25/9.
        assert t_stat == pytest.approx(-1.0 / math.sqrt(5.0), abs=1e-12)
        assert p == pytest.approx(t_tail_two_sided(t_stat, 25.0 / 9.0), abs=1e-4)

    def test_symmetry(self):
        a = [0.1, 0.5, 0.3, 0.9]
        b = [0.2, 0.8, 0.7]
        t_ab, p_ab = t_test_two_sided(a, b)
        t_ba, p_ba = t_test_two_sided(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-15)
        assert p_ab == pytest.approx(p_ba, abs=1e-15)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="2 observations"):
            t_test_two_sided([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="2 observations"):
            t_test_two_sided([1.0, 2.0], [3.0])


class TestTrialResult:
    def test_validation(self):
        with pytest.raises(ValueError, match="sampler"):
            TrialResult("magic", 1, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="trial"):
            TrialResult("uniform", 0, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="accuracy"):
            TrialResult("uniform", 1, 1.5, 0.5, 0.5)
        TrialResult("uniform", 1, 0.5, None, None)

    def test_value_accessor(self):
        r = TrialResult("uniform", 1, 0.5, 0.25, None)
        assert r.value("accuracy") == 0.5
        assert r.value("precision") == 0.25
        assert r.value("recall") is None
        with pytest.raises(ValueError, match="metric"):
            r.value("f1")


def toy_results():
    return [
        TrialResult("uniform", 1, 0.70, 0.7, 0.6),
        TrialResult("uniform", 2, 0.74, 0.8, 0.5),
        TrialResult("uniform", 3, 0.72, None, 0.7),
        TrialResult("slots", 1, 0.80, 0.9, 0.8),
        TrialResult("slots", 2, 0.84, 0.7, 0.9),
        TrialResult("slots", 3, 0.82, 0.8, 0.7),
    ]


class TestEvaluationReport:
    def test_means_are_arithmetic(self):
        report = EvaluationReport(toy_results())
        assert report.mean("uniform", "accuracy") == pytest.approx(0.72, abs=1e-12)
        assert report.mean("slots", "accuracy") == pytest.approx(0.82, abs=1e-12)
        # Absent precision values are dropped from the aggregate.
        assert report.mean("uniform", "precision") == pytest.approx(0.75, abs=1e-12)

    def test_std_population(self):
        report = EvaluationReport(toy_results())
        expected = math.sqrt(((0.02) ** 2 + 0.0 + (0.02) ** 2) / 3.0)
        assert report.std("uniform", "accuracy") == pytest.approx(expected, abs=1e-12)

    def test_single_trial_std_zero(self):
        report = EvaluationReport([TrialResult("uniform", 1, 0.7, None, None)])
        assert report.std("uniform", "accuracy") == 0.0
        assert report.mean("uniform", "precision") is None
        assert report.std("uniform", "precision") is None

    def test_p_vs_baseline(self):
        report = EvaluationReport(toy_results(), baseline="uniform")
        assert report.p_vs_baseline("uniform") is None
        expected = t_test_two_sided(
            [0.80, 0.84, 0.82], [0.70, 0.74, 0.72]
        )[1]
        assert report.p_vs_baseline("slots") == pytest.approx(expected, abs=1e-15)

    def test_duplicate_trials_rejected(self):
        rows = [TrialResult("uniform", 1, 0.7, None, None)] * 2
        with pytest.raises(ValueError, match="duplicate"):
            EvaluationReport(rows)

    def test_combine(self):
        a = EvaluationReport(toy_results()[:3])
        b = EvaluationReport(toy_results()[3:])
        merged = EvaluationReport.combine([a, b])
        assert merged.samplers() == ("uniform", "slots")
        assert merged.baseline == "uniform"

    def test_samplers_order_of_first_appearance(self):
        report = EvaluationReport(toy_results())
        assert report.samplers() == ("uniform", "slots")


def assign(positives, negatives, per_positive=1):
    """The negatives `assign_ranked` pairs with the positives, by relation."""
    chosen = assign_ranked(
        [p.relation for p in positives], [n.relation for n in negatives], per_positive
    )
    return [negatives[i] for i in chosen]


class TestAssignRanked:
    def test_prefers_matching_relation(self):
        positives = [t("R", "p1", "p2"), t("S", "p3", "p4")]
        negatives = [t("S", "n1", "n2", 0), t("R", "n3", "n4", 0), t("S", "n5", "n6", 0)]
        out = assign(positives, negatives)
        assert out == [negatives[1], negatives[0]]

    def test_falls_back_to_global_order(self):
        positives = [t("T", "p1", "p2")]
        negatives = [t("S", "n1", "n2", 0), t("S", "n3", "n4", 0)]
        assert assign(positives, negatives) == [negatives[0]]

    def test_global_fallback_skips_consumed(self):
        positives = [t("T", "p1", "p2"), t("S", "p3", "p4")]
        negatives = [t("S", "n1", "n2", 0), t("S", "n3", "n4", 0)]
        out = assign(positives, negatives)
        assert out == [negatives[0], negatives[1]]

    def test_relation_queue_skips_consumed(self):
        # The global draw takes the first S row; the S positive must not
        # receive it again.
        positives = [t("T", "p1", "p2"), t("S", "p3", "p4"), t("S", "p5", "p6")]
        negatives = [
            t("S", "n1", "n2", 0),
            t("S", "n3", "n4", 0),
            t("S", "n5", "n6", 0),
        ]
        out = assign(positives, negatives)
        assert out == negatives

    def test_exhaustion_error_counts_shortfall(self):
        positives = [t("R", f"p{i}", f"q{i}") for i in range(3)]
        negatives = [t("R", "n1", "n2", 0)]
        with pytest.raises(ValueError, match="2 of 3"):
            assign(positives, negatives)

    def test_per_positive_multiplier(self):
        positives = [t("R", "p1", "p2")]
        negatives = [t("R", "n1", "n2", 0), t("R", "n3", "n4", 0)]
        assert assign(positives, negatives, per_positive=2) == negatives


def eval_kb():
    """All-pairs clusters: likes(A x B) positives, Notlikes(C x D) negatives."""
    positives = [t("likes", f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
    negated = [t("Notlikes", f"c{i}", f"d{j}") for i in range(3) for j in range(2)]
    base = KnowledgeBase(positives + negated)
    return build_true_negative_split(base, seed=0)


def fast_config(sampler, **kwargs):
    train = TrainConfig(epochs=15, learning_rate=0.05, batch_size=16)
    return ExperimentConfig(
        sampler, trials=2, train=train, hidden_dim=8, seed=1, **kwargs
    )


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="sampler"):
            ExperimentConfig("magic")
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig("uniform", trials=0)
        with pytest.raises(ValueError, match="lexicon"):
            ExperimentConfig("antonyms")
        with pytest.raises(ValueError, match="ranked"):
            ExperimentConfig("negater-theta")
        with pytest.raises(ValueError, match="baseline"):
            ExperimentConfig("uniform", baseline="magic")


class TestRunExperiment:
    def test_uniform_report_shape(self):
        report = run_experiment(eval_kb(), fast_config("uniform"))
        assert report.samplers() == ("uniform",)
        trials = report.trials("uniform")
        assert [r.trial for r in trials] == [1, 2]
        for r in trials:
            assert 0.0 <= r.accuracy <= 1.0

    def test_deterministic(self):
        kb = eval_kb()
        a = run_experiment(kb, fast_config("uniform"))
        b = run_experiment(kb, fast_config("uniform"))
        assert a.results == b.results

    def test_seed_reaches_negative_draws(self):
        # Coarse test-split metrics can coincide across seeds, so check the
        # seed's effect where it must show: the sampled negatives themselves.
        from negmine.evaluation import _draw_negatives
        from negmine.ioutil import derive_seed

        kb = eval_kb()
        config = fast_config("uniform")
        draws = {
            seed: _draw_negatives(kb, config, None, derive_seed(seed, 1)).triples()
            for seed in (1, 99)
        }
        assert draws[1] != draws[99]
        assert _draw_negatives(kb, config, None, derive_seed(1, 1)).triples() == draws[1]

    @pytest.mark.parametrize("sampler", ["slots", "antonyms", "sans"])
    def test_samplers_draw_from_one_trial_stream(self, sampler):
        # One generator per positive, seeded [trial_seed, i], would replay for
        # i = 0, 1 and 3 the streams the same trial trains from.
        from negmine.evaluation import _draw_negatives
        from negmine.samplers import (
            AntonymLexicon,
            EntityGraph,
            sample_antonyms,
            sample_sans,
            sample_slots,
        )

        kb = eval_kb()
        lexicon = AntonymLexicon({f"a{i}": ("noun", ["x0", "x1", "x2"]) for i in range(4)})
        graph = EntityGraph.from_kb(kb, 2)
        rng = np.random.default_rng([7, 50])
        if sampler == "slots":
            expected = sample_slots(kb, kb.ids.rows, 1, rng).triples()
        elif sampler == "sans":
            expected = sample_sans(graph, kb, kb.ids.rows, 1, rng).triples()
        else:
            expected = [sample_antonyms(lexicon, kb, p, rng) for p in kb.splits.train]
        config = fast_config(sampler, lexicon=lexicon, hops=2)
        negatives = _draw_negatives(kb, config, graph, 7).triples()
        assert negatives == [n for n in expected if n is not None]

    @pytest.mark.parametrize(
        "sampler", ["uniform", "slots", "sans", "antonyms", "negater-grad", "negater-none"]
    )
    def test_id_table_trains_as_the_decoded_triples(self, sampler):
        # Training reads each row's token ids, never its phrase numbering: the
        # joined id table trains the same bits as the triples re-encoded.
        from negmine.evaluation import _draw_negatives
        from negmine.samplers import AntonymLexicon, EntityGraph

        kb = eval_kb()
        lexicon = AntonymLexicon({f"a{i}": ("noun", ["x0", "x1", "x2"]) for i in range(4)})
        ranked = None
        if sampler.startswith("negater"):
            # Every third row has a relation, and every row a head, the KB lacks.
            ranked = ranked_table(
                RankedRow(i + 1, t("hates" if i % 3 == 0 else "likes", f"c{i}", f"b{i % 4}", 0),
                          0.0, sampler.removeprefix("negater-"))
                for i in range(len(kb.splits.train) + 2)
            )
        config = fast_config(sampler, lexicon=lexicon, ranked=ranked)
        negatives = _draw_negatives(kb, config, EntityGraph.from_kb(kb, config.hops), 7)
        positives = kb.ids.table(kb.ids.rows)
        labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])

        def trained(table):
            params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=7)
            train_supervised(params, table, replace(config.train, seed=7), labels)
            return flatten_params(params)

        joined = positives.concat(negatives)
        reference = TripleTable.from_triples(list(kb.triples) + negatives.triples())
        if sampler.startswith("negater"):
            assert (joined.phrases, joined.relations) != (reference.phrases, reference.relations)
        np.testing.assert_array_equal(trained(joined), trained(reference))

    def test_sans_and_slots_run(self):
        kb = eval_kb()
        for sampler in ("slots", "sans"):
            report = run_experiment(kb, fast_config(sampler))
            assert len(report.trials(sampler)) == 2

    def test_negater_none_consumes_ranked_rows(self):
        kb = eval_kb()
        rows = [
            RankedRow(i + 1, t("likes", f"c{i % 3}", f"b{i % 4}", 0), 0.0, "none")
            for i in range(len(kb.splits.train) + 2)
        ]
        report = run_experiment(kb, fast_config("negater-none", ranked=ranked_table(rows)))
        assert len(report.trials("negater-none")) == 2

    def test_ranked_exhaustion_error(self):
        kb = eval_kb()
        rows = [RankedRow(1, t("likes", "c0", "b0", 0), 0.5, "theta")]
        config = fast_config("negater-theta", ranked=ranked_table(rows))
        missing = len(kb.splits.train) - 1
        with pytest.raises(ValueError, match=f"{missing} of {len(kb.splits.train)}"):
            run_experiment(kb, config)

    def test_requires_labeled_splits(self):
        bare = KnowledgeBase([t("likes", "a", "b")])
        with pytest.raises(ValueError, match="validation and test"):
            run_experiment(bare, fast_config("uniform"))


class TestReportingIo:
    def test_trials_roundtrip(self, tmp_path):
        results = toy_results()
        path = tmp_path / "trials.tsv"
        write_trials_tsv(results, path)
        assert read_trials_tsv(path) == results

    def test_trials_layout(self, tmp_path):
        path = tmp_path / "trials.tsv"
        write_trials_tsv([TrialResult("uniform", 1, 0.5, None, 0.25)], path)
        assert path.read_text() == "uniform\t1\t0.5\tNA\t0.25\n"

    def test_trials_malformed(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("uniform\t1\t0.5\n")
        with pytest.raises(ParseError, match="5 fields"):
            read_trials_tsv(path)
        path.write_text("uniform\tone\t0.5\tNA\tNA\n")
        with pytest.raises(ParseError):
            read_trials_tsv(path)

    def test_trials_repeated_pair_rejected(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("uniform\t1\t0.5\tNA\tNA\nslots\t1\t0.5\tNA\tNA\nuniform\t1\t0.6\tNA\tNA\n")
        with pytest.raises(ParseError, match=r"trials.tsv:3: duplicate trial \('uniform', 1\)"):
            read_trials_tsv(path)

    def test_report_rows_p_only_on_accuracy(self):
        report = EvaluationReport(toy_results())
        rows = report_rows(report)
        assert len(rows) == 6
        for sampler, metric, mean, std, p in rows:
            if metric != "accuracy" or sampler == "uniform":
                assert p is None
            else:
                assert p is not None

    def test_report_tsv_layout(self, tmp_path):
        report = EvaluationReport([TrialResult("uniform", 1, 0.5, None, None)])
        path = tmp_path / "report.tsv"
        write_report_tsv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "uniform\taccuracy\t0.5\t0.0\tNA"
        assert lines[1] == "uniform\tprecision\tNA\tNA\tNA"
        assert lines[2] == "uniform\trecall\tNA\tNA\tNA"

    def test_report_rewrite_byte_identical(self, tmp_path):
        report = EvaluationReport(toy_results())
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_report_tsv(report, a)
        write_report_tsv(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_format_report_mentions_baseline_and_samplers(self):
        text = format_report(EvaluationReport(toy_results()))
        assert text.startswith("baseline: uniform")
        assert "slots" in text and "0.8200" in text
