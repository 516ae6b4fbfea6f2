"""What the benchmark relies on: every package name its tracer wraps or its
runner imports exists, uninstalling the tracer puts the original objects
back, a traced stage runs and counts what an untraced one does, and the
runner's output checks work on a small world."""
import ast
import importlib
import math
import sys
from pathlib import Path

import pytest

import negmine.cli  # noqa: F401  (the tracer finds the package's modules in sys.modules)
from negmine.candidates import (
    generate_candidates,
    read_candidates_tsv,
    validate_candidates,
    write_candidates_tsv,
)
from negmine.checkpoint import load_checkpoint
from negmine.kb import KnowledgeBase, build_true_negative_split, load_tsv, save_tsv
from negmine.rankers import rank_grad, rank_none, read_ranked_tsv, write_ranked_tsv
from negmine.retrieval import build_index, knn
from negmine.scorer import TokenVocab, embed_phrase, init_params
from negmine.synthetic import SyntheticSpec, generate_kb

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_namespaces():
    """Every loaded negmine module and every class defined at its top level."""
    for name, module in list(sys.modules.items()):
        if name == "negmine" or name.startswith("negmine."):
            yield module
            yield from (v for v in vars(module).values() if isinstance(v, type))


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = {id(ns): (ns, dict(vars(ns))) for ns in package_namespaces()}
    tracer = spans.Tracer("t")
    try:
        tracer.install()
        wrapped = [(owner, attr) for owner, attr, _ in tracer._patches]
        replaced = [vars(owner)[attr] is not before[id(owner)][1][attr] for owner, attr in wrapped]
    finally:
        tracer.uninstall()
    assert wrapped and all(replaced)
    for ns, names in before.values():
        for attr, original in names.items():
            assert vars(ns).get(attr) is original, f"{ns.__name__}.{attr} not restored"


@pytest.mark.parametrize("sampler", ["uniform", "negater-grad"])
def test_traced_evaluate_counts_what_an_untraced_run_draws(tmp_path, monkeypatch, sampler):
    """`evaluate` under the tracer: the wrapped calls still fit their
    signatures, spans nest, and the draw and training counts are those of
    the untraced run (one trial, so `sample` writes its draws)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    spec = SyntheticSpec(clusters=4, cluster_size=10, relations=8, negative_fraction=0.3, seed=1)
    save_tsv(list(generate_kb(spec).triples), tmp_path / "kb.tsv")
    out = tmp_path / "out"
    epochs = 2
    argv = ["--kb", str(tmp_path / "kb.tsv"), "--output-dir", str(out), "--split",
            "true-negatives", "--hidden-dim", "8", "--epochs", str(epochs), "--trials", "1",
            "--seed", "3", "--sampler", sampler]
    cli = negmine.cli
    kb = cli._load_kb(cli.resolve_config(cli.build_parser().parse_args(["evaluate", *argv])))
    if sampler == "uniform":
        assert cli.main(["sample", *argv]) == 0
        draws = len((out / "negatives.tsv").read_text(encoding="utf-8").splitlines())
    else:
        out.mkdir()
        params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=0)
        index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
        write_ranked_tsv(rank_grad(params, generate_candidates(kb, index, 6)), out / "ranked.tsv")
        draws = len(kb.splits.train)
    assert 0 < draws

    tracer = spans.Tracer("t")
    tracer.install()
    try:
        code = cli.main(["evaluate", *argv])
    finally:
        tracer.uninstall()
    assert code == 0
    assert spans.nesting_violations(tracer.spans) == 0
    metrics = spans.layer_metrics(tracer)
    assert metrics[f"samplers.draws.{sampler}"][0] == draws
    assert metrics[f"samplers.skips.{sampler}"][0] == len(kb.splits.train) - draws
    assert metrics["scorer.supervised_examples"][0] == (len(kb.splits.train) + draws) * epochs
    assert metrics["evaluation.trials"][0] == 1


def test_traced_candidates_counts_what_an_untraced_search_finds(tmp_path, monkeypatch):
    """`candidates` under the tracer: one wrapped `knn` call per KB phrase
    (the tracer keys neighbor-list sizes by the query phrase), nested spans,
    and the examined and emitted counts of the untraced search and file."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    spec = SyntheticSpec(clusters=4, cluster_size=10, relations=8, negative_fraction=0.3, seed=1)
    save_tsv(list(generate_kb(spec).triples), tmp_path / "kb.tsv")
    out = tmp_path / "out"
    k = 6
    argv = ["--kb", str(tmp_path / "kb.tsv"), "--output-dir", str(out), "--split",
            "true-negatives", "--hidden-dim", "8", "--epochs", "1", "--seed", "3", "--k", str(k)]
    cli = negmine.cli
    assert cli.main(["train", *argv]) == 0
    kb = cli._load_kb(cli.resolve_config(cli.build_parser().parse_args(["candidates", *argv])))
    params, _ = load_checkpoint(out / "scorer.ckpt")
    index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
    sizes = {p: len(knn(index, p, k)) for p in kb.phrases}
    examined = sum(sizes[t.head] + sizes[t.tail] for t in kb.triples)

    tracer = spans.Tracer("t")
    tracer.install()
    try:
        code = cli.main(["candidates", *argv])
    finally:
        tracer.uninstall()
    assert code == 0
    assert spans.nesting_violations(tracer.spans) == 0
    metrics = spans.layer_metrics(tracer)
    emitted = len((out / "candidates.tsv").read_text(encoding="utf-8").splitlines())
    assert 0 < emitted < examined
    assert metrics["retrieval.knn_calls"][0] == len(kb.phrases)
    assert metrics["candidates.emitted"][0] == emitted
    assert metrics["candidates.examined"][0] == examined


def test_runner_imports_resolve():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("negmine")
        for alias in node.names
    ]
    assert names
    missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert not missing, f"bench/run.py imports missing names: {missing}"


def test_runner_checks_work_on_a_small_world(tmp_path):
    """The calls of `bench/run.py`'s `check_outputs`, on a small synthetic world."""
    spec = SyntheticSpec(clusters=4, cluster_size=10, relations=8, negative_fraction=0.3, seed=1)
    save_tsv(list(generate_kb(spec).triples), tmp_path / "kb.tsv")
    kb = build_true_negative_split(KnowledgeBase(load_tsv(tmp_path / "kb.tsv")), "Not", seed=0)
    assert kb.splits.train
    assert {p for x in kb.splits.train for p in (x.head, x.tail)} <= set(kb.phrases)
    params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=0)
    index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
    k = 6
    write_candidates_tsv(generate_candidates(kb, index, k), tmp_path / "candidates.tsv")
    candidates = read_candidates_tsv(tmp_path / "candidates.tsv")
    assert candidates and validate_candidates(kb, candidates, k).ok()
    write_ranked_tsv(rank_none(candidates, seed=0), tmp_path / "ranked.tsv")
    rows = read_ranked_tsv(tmp_path / "ranked.tsv")
    assert sorted(r.rank for r in rows) == list(range(1, len(candidates) + 1))
    assert all(r.method == "none" and math.isfinite(r.key) for r in rows)
    assert {r.triple.relation for r in rows} <= kb.relations
