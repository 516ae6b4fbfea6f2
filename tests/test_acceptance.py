"""Acceptance gate: eight end-to-end checks, one printed verdict per criterion.

Each check prints `[criterion N] PASS|FAIL: <measurements>` through the
capture bypass so the verdicts reach the terminal under pytest, then asserts.
Expected values, tolerances, and time budgets are fixed; the synthetic
planted-rule corpus supplies ground truth where real-world scale would
otherwise be needed.
"""
import time

import numpy as np
import pytest
from conftest import dense_gradient, fd_gradient, knn_brute_force, t_tail_two_sided

from negmine import cli
from negmine.candidates import CandidateTable, generate_candidates
from negmine.evaluation import (
    EvaluationReport,
    ExperimentConfig,
    assign_ranked,
    run_experiment,
    t_test_two_sided,
)
from negmine.kb import KnowledgeBase, LabeledTriple, Phrase, build_true_negative_split, save_tsv
from negmine.rankers import (
    fit_gradient_predictor,
    pearson,
    rank_grad,
    rank_grad_fast,
    rank_none,
    rank_theta,
)
from negmine.retrieval import build_index, knn
from negmine.scorer import (
    TokenVocab,
    TrainConfig,
    embed_phrase,
    fit_thresholds,
    init_params,
    loss_and_gradient,
    score_batch,
    train_contrastive,
)
from negmine.synthetic import SyntheticSpec, cluster_pair, generate_kb, quality_of


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_gradient_correctness(capsys):
    """Analytic gradients vs central finite differences, 100 cases, H=4."""
    words = [f"w{i}" for i in range(12)]
    relations = [f"r{i}" for i in range(4)]
    vocab = TokenVocab(relations, words)
    start = time.perf_counter()
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng([21, case])
        params = init_params(vocab, hidden_dim=4, seed=case)
        head = Phrase(tuple(rng.choice(words, size=rng.integers(1, 4), replace=False)))
        tail = Phrase(tuple(rng.choice(words, size=rng.integers(1, 4), replace=False)))
        triple = LabeledTriple(head, str(rng.choice(relations)), tail, label=case % 2)
        _, grad = loss_and_gradient(params, triple, triple.label)
        analytic = dense_gradient(params, grad)
        oracle = fd_gradient(params, triple, triple.label, step=1e-4)
        worst = max(worst, float(np.linalg.norm(analytic - oracle) / np.linalg.norm(oracle)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report(capsys, 1, ok, f"max relative error {worst:.2e} (<=1e-4) in {elapsed:.1f}s (<10s)")


def test_criterion_2_knn_exactness(capsys):
    """knn equals the brute-force oracle on 1,000 H=8 embeddings, 50 queries."""
    rng = np.random.default_rng([22])
    phrases = [Phrase.parse(f"p{i}") for i in range(1000)]
    vectors = rng.normal(size=(1000, 8))
    index = build_index(phrases, lambda p: vectors[int(p.text[1:])])
    queries = [phrases[int(i)] for i in rng.choice(1000, size=50, replace=False)]
    start = time.perf_counter()
    mismatches = 0
    for query in queries:
        fast = [p for p, _ in knn(index, query, 10)]
        oracle = [p for p, _ in knn_brute_force(index, query, 10)]
        if fast != oracle:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(capsys, 2, ok, f"{mismatches} order mismatches over 50 queries in {elapsed:.2f}s (<5s)")


def test_criterion_3_candidate_filter_invariants(capsys):
    """No in-KB leaks, no slot violations, <= 2k per positive on a 5,000-triple KB."""
    start = time.perf_counter()
    spec = SyntheticSpec(clusters=12, cluster_size=22, relations=24, seed=5)
    kb = generate_kb(spec)
    assert len(kb) >= 5000
    params = init_params(TokenVocab.from_kb(kb), hidden_dim=16, seed=3)
    index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
    k = 10
    candidates = generate_candidates(kb, index, k)
    leaks = sum(kb.contains(c.triple) for c in candidates)
    violations = 0
    per_source: dict[tuple, int] = {}
    for c in candidates:
        substituted = c.triple.head if c.slot == "head" else c.triple.tail
        if substituted not in kb.slot_phrases(c.triple.relation, c.slot):
            violations += 1
        key = c.source.key()
        per_source[key] = per_source.get(key, 0) + 1
    worst_fanout = max(per_source.values())
    elapsed = time.perf_counter() - start
    ok = leaks == 0 and violations == 0 and worst_fanout <= 2 * k and elapsed < 60.0
    report(
        capsys,
        3,
        ok,
        f"{len(kb)} triples, {len(candidates)} candidates: {leaks} leaks, "
        f"{violations} slot violations, max {worst_fanout}/positive (<= {2 * k}) "
        f"in {elapsed:.1f}s (<60s)",
    )


def test_criterion_4_threshold_optimality(capsys):
    """fit_thresholds never falls below a dense 1,000-point sweep's accuracy.

    The sweep is the approximate oracle: the exact optimizer may legitimately
    beat it when the optimal threshold sits inside a score gap narrower than
    the 1e-3 grid pitch, but it must never land below it.
    """
    words = [f"w{i}" for i in range(20)]
    sweep = np.linspace(0.0, 1.0, 1000)
    below_sweep = 0
    beat_sweep = 0
    relations_checked = 0
    for config in range(20):
        rng = np.random.default_rng([23, config])
        n_relations = int(rng.integers(2, 5))
        relations = [f"r{i}" for i in range(n_relations)]
        vocab = TokenVocab(relations, words)
        params = init_params(vocab, hidden_dim=8, seed=config)
        validation = []
        for relation in relations:
            size = int(rng.integers(10, 31))
            for i in range(size):
                head = Phrase(tuple(rng.choice(words, size=rng.integers(1, 3), replace=False)))
                tail = Phrase(tuple(rng.choice(words, size=rng.integers(1, 3), replace=False)))
                # Alternating labels guarantee both classes per relation.
                validation.append(LabeledTriple(head, relation, tail, label=i % 2))
        thresholds = fit_thresholds(params, validation)
        scores = score_batch(params, validation)
        labels = np.asarray([t.label for t in validation], dtype=bool)
        for relation in relations:
            mask = np.asarray([t.relation == relation for t in validation])
            rel_scores, rel_labels = scores[mask], labels[mask]
            fitted = float(((rel_scores > thresholds.threshold_for(relation)) == rel_labels).mean())
            best_grid = float(
                ((rel_scores[None, :] > sweep[:, None]) == rel_labels[None, :]).mean(axis=1).max()
            )
            relations_checked += 1
            if fitted < best_grid:
                below_sweep += 1
            elif fitted > best_grid:
                beat_sweep += 1
    ok = below_sweep == 0
    report(
        capsys,
        4,
        ok,
        f"{below_sweep} of {relations_checked} relation accuracies below the dense sweep "
        f"({beat_sweep} strictly above it inside sub-grid score gaps)",
    )


@pytest.fixture(scope="module")
def predictor_world():
    """Scorer trained on a long-phrase corpus plus its 2,000 candidate triples."""
    spec = SyntheticSpec(phrase_tokens=12, seed=0)
    kb = generate_kb(spec)
    params = init_params(TokenVocab.from_kb(kb), hidden_dim=64, seed=11)
    params, _ = train_contrastive(
        params, kb, TrainConfig(epochs=80, learning_rate=0.05, batch_size=64, seed=11)
    )
    index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
    candidates = generate_candidates(kb, index, k=14)
    assert len(candidates) >= 2000
    return params, candidates.triples(range(2000))


def test_criterion_5_gradient_predictor_fidelity(capsys, predictor_world):
    """Predicted magnitudes track true ones and the fast path is >= 3x faster."""
    params, candidates = predictor_world
    t_full = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        full = rank_grad(params, CandidateTable.from_triples(candidates))
        t_full = min(t_full, time.perf_counter() - start)
    t_fast = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rng = np.random.default_rng([0, 40])
        table = CandidateTable.from_triples(candidates)
        predictor = fit_gradient_predictor(params, table, 160, rng)
        fast = rank_grad_fast(params, predictor, table)
        t_fast = min(t_fast, time.perf_counter() - start)
    true_key = {r.triple: r.key for r in full}
    fast_key = {r.triple: r.key for r in fast}
    rho = pearson([true_key[c] for c in candidates], [fast_key[c] for c in candidates])
    full_position = {r.triple: i for i, r in enumerate(full)}
    fast_position = {r.triple: i for i, r in enumerate(fast)}
    spear = pearson(
        [float(full_position[c]) for c in candidates],
        [float(fast_position[c]) for c in candidates],
    )
    ratio = t_full / t_fast
    ok = rho >= 0.9 and spear >= 0.9 and ratio >= 3.0
    report(
        capsys,
        5,
        ok,
        f"pearson={rho:.4f} (>=0.9), spearman={spear:.4f} (>=0.9), "
        f"fast path {ratio:.1f}x faster ({t_full:.3f}s vs {t_fast:.3f}s, >=3x)",
    )


@pytest.fixture(scope="module")
def planted_world():
    """Split planted-rule KB, trained scorer, and all three ranked lists."""
    start = time.perf_counter()
    spec = SyntheticSpec(seed=0)
    kb = build_true_negative_split(generate_kb(spec), seed=0)
    params = init_params(TokenVocab.from_kb(kb), hidden_dim=64, seed=11)
    params, _ = train_contrastive(
        params, kb, TrainConfig(epochs=60, learning_rate=0.05, batch_size=64, seed=11)
    )
    thresholds = fit_thresholds(params, kb.splits.validation)
    index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
    candidates = generate_candidates(kb, index, k=14)
    ranked = {
        "negater-theta": rank_theta(params, thresholds, candidates, keep_fraction=1.0, seed=0),
        "negater-grad": rank_grad(params, candidates),
        "negater-none": rank_none(candidates, seed=0),
    }
    return kb, ranked, time.perf_counter() - start


def test_criterion_6_directional_task_result(capsys, planted_world):
    """NegatER variants beat uniform on planted-rule data; ablation trails them."""
    kb, ranked, build_seconds = planted_world
    eval_positives = sum(
        t.label == 1 for split in (kb.splits.validation, kb.splits.test) for t in split
    )
    assert len(kb.relations) >= 10 and len(kb) + eval_positives >= 3000
    start = time.perf_counter()
    train = TrainConfig(epochs=40, learning_rate=0.05, batch_size=64)
    reports = []
    for sampler in ("uniform", "negater-theta", "negater-grad", "negater-none"):
        config = ExperimentConfig(
            sampler=sampler,
            trials=5,
            train=train,
            hidden_dim=64,
            seed=7,
            ranked=ranked.get(sampler),
        )
        reports.append(run_experiment(kb, config))
    combined = EvaluationReport.combine(reports, baseline="uniform")
    mean = {s: combined.mean(s, "accuracy") for s in combined.samplers()}
    p_value = {s: combined.p_vs_baseline(s) for s in combined.samplers() if s != "uniform"}
    elapsed = build_seconds + (time.perf_counter() - start)
    theta_wins = mean["negater-theta"] >= mean["uniform"]
    grad_wins = mean["negater-grad"] >= mean["uniform"]
    ablation_trails = not (
        mean["negater-none"] > mean["negater-theta"] and mean["negater-none"] > mean["negater-grad"]
    )
    ok = theta_wins and grad_wins and ablation_trails and elapsed < 900.0
    means = ", ".join(f"{s}={mean[s]:.4f}" for s in combined.samplers())
    ps = ", ".join(f"p[{s}]={p_value[s]:.4g}" for s in p_value)
    report(capsys, 6, ok, f"accuracy means {means}; {ps}; total {elapsed:.0f}s (<900s)")


def planted_false(spec: SyntheticSpec, triple: LabeledTriple) -> bool:
    """Ground truth of the planted world: a statement is false iff its head
    and tail are of its relation's cluster kinds and their qualities differ."""
    head_cluster, tail_cluster = cluster_pair(spec, int(triple.relation.removeprefix("rel")))
    typed = triple.head.tokens[1] == f"kind{head_cluster}" and (
        triple.tail.tokens[1] == f"kind{tail_cluster}"
    )
    return typed and quality_of(triple.head) != quality_of(triple.tail)


def test_ranked_negatives_are_false_statements(planted_world):
    """The paper's intrinsic claim on criterion 6's world: the negatives that
    `theta` and `grad` rankings hand to training (one per training positive,
    as `assign_ranked` consumes them) are false statements far more often
    than the unranked ablation's. Measured: theta 0.9953, grad 0.9983, none
    0.6701 over 2352 draws each."""
    kb, ranked, _ = planted_world
    spec = SyntheticSpec(seed=0)
    positives = [x.relation for x in kb.splits.train]
    share = {}
    for sampler, table in ranked.items():
        candidates = table.candidates
        relations = [candidates.relations[r] for r in candidates.rows[:, 1].tolist()]
        drawn = candidates.triples(assign_ranked(positives, relations, 1))
        assert len(drawn) == len(positives)
        share[sampler] = float(np.mean([planted_false(spec, x) for x in drawn]))
    for sampler in ("negater-theta", "negater-grad"):
        assert share[sampler] >= 0.95, share
        assert share[sampler] >= share["negater-none"] + 0.2, share


def test_criterion_7_statistics_correctness(capsys):
    """Welch p-values vs quadrature oracle; pearson vs the direct formula."""
    worst_p = 0.0
    for case in range(20):
        rng = np.random.default_rng([24, case])
        a = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(3, 12)))
        b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(3, 12)))
        t_stat, p = t_test_two_sided(a, b)
        var_a, var_b = a.var(ddof=1), b.var(ddof=1)
        se_a, se_b = var_a / len(a), var_b / len(b)
        df = (se_a + se_b) ** 2 / (se_a**2 / (len(a) - 1) + se_b**2 / (len(b) - 1))
        worst_p = max(worst_p, abs(p - t_tail_two_sided(t_stat, df)))
    worst_r = 0.0
    for case in range(20):
        rng = np.random.default_rng([25, case])
        x = rng.normal(size=int(rng.integers(5, 51)))
        y = rng.normal(size=len(x)) + rng.uniform(-1, 1) * x
        direct = float(
            ((x - x.mean()) * (y - y.mean())).sum()
            / np.sqrt(((x - x.mean()) ** 2).sum() * ((y - y.mean()) ** 2).sum())
        )
        worst_r = max(worst_r, abs(pearson(x, y) - direct))
    ok = worst_p <= 1e-4 and worst_r <= 1e-12
    report(
        capsys,
        7,
        ok,
        f"max p-value deviation {worst_p:.2e} (<=1e-4), "
        f"max pearson deviation {worst_r:.2e} (<=1e-12)",
    )


ARTIFACTS = (
    "scorer.ckpt",
    "train-loss.tsv",
    "thresholds.tsv",
    "candidates.tsv",
    "ranked.tsv",
    "trials-negater-theta.tsv",
)


def test_criterion_8_pipeline_determinism(capsys, tmp_path, monkeypatch):
    """The five-stage pipeline run twice with one seed is byte-identical."""
    monkeypatch.delenv("NEGMINE_OUTPUT_DIR", raising=False)
    spec = SyntheticSpec(
        clusters=4, cluster_size=10, relations=10, density=0.7, negative_fraction=0.3, seed=3
    )
    save_tsv(list(generate_kb(spec).triples), tmp_path / "kb.tsv")
    config = tmp_path / "run.conf"
    config.write_text(
        f"kb={tmp_path / 'kb.tsv'}\n"
        "split=true-negatives\n"
        "hidden_dim=16\n"
        "epochs=60\n"
        "learning_rate=0.05\n"
        "batch_size=32\n"
        "k=10\n"
        "keep_fraction=1.0\n"
        "method=theta\n"
        "sampler=negater-theta\n"
        "trials=3\n"
        "seed=1\n"
    )
    for out in ("a", "b"):
        for stage in ("train", "thresholds", "candidates", "rank", "evaluate"):
            code = cli.main(
                [stage, "--config", str(config), "--output-dir", str(tmp_path / out)]
            )
            assert code == 0, f"{stage} exited {code} in run {out}"
    differing = [
        name
        for name in ARTIFACTS
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = not differing
    report(
        capsys,
        8,
        ok,
        f"{len(ARTIFACTS)} artifacts compared, differing: {differing or 'none'}",
    )
