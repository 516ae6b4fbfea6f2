"""Pipeline driver: each stage is a subcommand over one shared config.

Configuration precedence: built-in defaults, then the ``--config`` file, then
the environment (output directory only), then flags.

Exit codes: 0 success; 2 a required stage input is missing; 3 configuration
or data validation failed; 4 an internal invariant broke. Every failure
prints a single diagnostic line ``negmine: <kind>: <message>`` to stderr.
The package's warnings (a KB's collapsed duplicate lines, a reclaimed stale
lockfile) print there as ``negmine: warning: <message>`` lines, so stderr
holds nothing else.
Outputs are written atomically, and a lockfile in the output directory
rejects concurrent runs against the same artifacts.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .candidates import generate_candidates, read_candidates_tsv, write_candidates_tsv
from .checkpoint import load_checkpoint, save_checkpoint
from .config import CONVERTERS, PipelineConfig, build_config, parse_config_file
from .evaluation import (
    RANKED_SAMPLERS,
    EvaluationReport,
    ExperimentConfig,
    _draw_negatives,
    format_report,
    read_trials_tsv,
    run_experiment,
    write_report_tsv,
    write_trials_tsv,
)
from .ioutil import DirectoryLock, LockError, ParseError, atomic_write_text, derive_seed, format_float
from .kb import KnowledgeBase, build_true_negative_split, load_tsv, save_tsv
from .rankers import (
    GradientPredictor,
    rank_grad,
    rank_grad_fast,
    rank_none,
    rank_theta,
    fit_gradient_predictor,
    read_ranked_tsv,
    write_ranked_tsv,
)
from .retrieval import build_index
from .samplers import EntityGraph, load_antonyms
from .scorer import ScorerParams, TokenVocab, TrainConfig, embed_phrase, fit_thresholds, init_params, train_contrastive
from .synthetic import SyntheticSpec  # noqa: F401  (re-export convenience for scripts)

COMMANDS = ("train", "thresholds", "candidates", "rank", "sample", "evaluate", "report")

# Ranked files acceptable to each ranked sampler.
RANKED_METHODS_FOR = {
    "negater-theta": ("theta",),
    "negater-grad": ("grad", "grad-fast"),
    "negater-none": ("none",),
}


class MissingInputError(Exception):
    """A required stage input does not exist."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--dry-run", action="store_true", help="validate and print the plan only")
    for name in CONVERTERS:
        flag = "--" + name.replace("_", "-")
        common.add_argument(
            flag, dest=name, type=CONVERTERS[name], default=None, metavar=name.upper()
        )
    parser = argparse.ArgumentParser(prog="negmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub.add_parser(command, parents=[common])
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    file_mapping: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise MissingInputError(f"config file not found: {path}")
        file_mapping = parse_config_file(path)
    overrides = {name: getattr(args, name) for name in CONVERTERS}
    return build_config(file_mapping, dict(os.environ), overrides)


def _require(path: Path | None, what: str) -> Path:
    if path is None:
        raise ValueError(f"{what} not configured; set it in the config file or by flag")
    if not path.exists():
        raise MissingInputError(f"{what} not found: {path}")
    return path


def _load_kb(config: PipelineConfig) -> KnowledgeBase:
    path = _require(config.kb_path(), "kb file")
    triples = load_tsv(path, column_order=config.kb_columns)
    kb = KnowledgeBase(triples)
    if config.split == "true-negatives":
        kb = build_true_negative_split(
            kb,
            config.negation_prefix,
            seed=config.split_seed,
            validation_fraction=config.validation_fraction,
        )
    return kb


def _load_params(config: PipelineConfig, *, need_thresholds: bool = False):
    path = _require(config.checkpoint_path(), "checkpoint file")
    params, thresholds = load_checkpoint(path)
    if need_thresholds and thresholds is None:
        raise MissingInputError(
            f"checkpoint has no thresholds: {path} (run the thresholds stage first)"
        )
    return params, thresholds


def _wrote(path: Path) -> None:
    print(f"wrote {path}")


def cmd_train(config: PipelineConfig, dry_run: bool) -> None:
    kb = _load_kb(config)
    out = config.checkpoint_path()
    if dry_run:
        print(f"plan: train scorer on {len(kb.splits.train)} positives; would write {out}")
        return
    vocab = TokenVocab.from_kb(kb)
    params = init_params(vocab, hidden_dim=config.hidden_dim, seed=config.seed)
    train_config = TrainConfig(
        epochs=config.epochs,
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        negatives_per_positive=config.train_negatives,
        seed=config.seed,
        corruption_mode=config.corruption_mode,
    )
    params, trace = train_contrastive(params, kb, train_config)
    save_checkpoint(out, params)
    _wrote(out)
    loss_path = config.loss_path()
    lines = [f"{epoch}\t{format_float(loss)}\n" for epoch, loss in enumerate(trace, start=1)]
    atomic_write_text(loss_path, "".join(lines))
    _wrote(loss_path)


def cmd_thresholds(config: PipelineConfig, dry_run: bool) -> None:
    kb = _load_kb(config)
    if not kb.splits.validation:
        raise ValueError("thresholds needs a labeled validation split; set split=true-negatives")
    params, _ = _load_params(config)
    out = config.checkpoint_path()
    if dry_run:
        print(
            f"plan: fit thresholds on {len(kb.splits.validation)} validation examples; "
            f"would rewrite {out} and write {config.thresholds_path()}"
        )
        return
    # Overflowing weights fail as non-finite scores, not as numpy warnings.
    with np.errstate(all="ignore"):
        thresholds = fit_thresholds(params, kb.splits.validation)
    save_checkpoint(out, params, thresholds)
    _wrote(out)
    lines = [f"# fallback\t{format_float(thresholds.fallback)}\n"]
    lines += [
        f"{relation}\t{format_float(thresholds.per_relation[relation])}\n"
        for relation in sorted(thresholds.per_relation)
    ]
    atomic_write_text(config.thresholds_path(), "".join(lines))
    _wrote(config.thresholds_path())


def cmd_candidates(config: PipelineConfig, dry_run: bool) -> None:
    kb = _load_kb(config)
    params, _ = _load_params(config)
    out = config.candidates_path()
    if dry_run:
        print(
            f"plan: index {len(kb.phrases)} phrases, substitute {config.k} neighbors per slot; "
            f"would write {out}"
        )
        return
    # Overflowing weights fail as non-finite distances, not as numpy warnings.
    with np.errstate(all="ignore"):
        index = build_index(list(kb.phrases), lambda p: embed_phrase(params, p))
        candidates = generate_candidates(kb, index, config.k)
    write_candidates_tsv(candidates, out)
    _wrote(out)


def cmd_rank(config: PipelineConfig, dry_run: bool) -> None:
    params, thresholds = _load_params(config, need_thresholds=config.method == "theta")
    candidates_path = _require(config.candidates_path(), "candidates file")
    out = config.ranked_path()
    if dry_run:
        print(f"plan: rank {candidates_path} by method={config.method}; would write {out}")
        return
    candidates = read_candidates_tsv(candidates_path)
    # Overflowing weights fail as non-finite keys, not as numpy warnings.
    with np.errstate(all="ignore"):
        if config.method == "theta":
            ranked = rank_theta(
                params, thresholds, candidates, config.keep_fraction, seed=config.seed
            )
        elif config.method == "grad":
            ranked = rank_grad(params, candidates)
        elif config.method == "grad-fast":
            n = min(config.n, len(candidates))
            if 0 < n < config.n:
                print(f"note: predictor sample clamped to {n} (candidate count)")
            rng = np.random.default_rng([config.seed, 40])
            predictor = GradientPredictor(params.hidden_dim)  # an empty list has nothing to fit
            if n:
                predictor = fit_gradient_predictor(params, candidates, n, rng)
            ranked = rank_grad_fast(params, predictor, candidates)
        else:
            ranked = rank_none(candidates, seed=config.seed)
    write_ranked_tsv(ranked, out)
    _wrote(out)


def cmd_sample(config: PipelineConfig, dry_run: bool) -> None:
    if config.sampler in RANKED_SAMPLERS:
        raise ValueError(
            f"sample draws baseline negatives only, got sampler={config.sampler}; "
            "use the rank stage for ranked sources"
        )
    kb = _load_kb(config)
    lexicon = None
    if config.sampler == "antonyms":
        lexicon = load_antonyms(_require(config.lexicon_path(), "lexicon file"))
    out = config.negatives_path()
    if dry_run:
        print(
            f"plan: draw {config.eval_negatives} {config.sampler} negatives per positive "
            f"for {len(kb.splits.train)} positives; would write {out}"
        )
        return
    experiment = ExperimentConfig(
        sampler=config.sampler,
        negatives_per_positive=config.eval_negatives,
        hops=config.hops,
        lexicon=lexicon,
        seed=config.seed,
    )
    graph = EntityGraph.from_kb(kb, config.hops) if config.sampler == "sans" else None
    negatives = _draw_negatives(kb, experiment, graph, derive_seed(config.seed, 1))
    save_tsv(negatives.triples(), out, with_labels=True)
    _wrote(out)


def _load_ranked_rows(config: PipelineConfig):
    path = _require(config.ranked_path(), "ranked file")
    ranked = read_ranked_tsv(path)
    allowed = RANKED_METHODS_FOR[config.sampler]
    bad = sorted(set(ranked.methods.tolist()) - set(allowed))
    if bad:
        raise ValueError(
            f"ranked file {path} was produced by method {bad[0]!r}, "
            f"but sampler {config.sampler} expects one of {allowed}"
        )
    return ranked


def cmd_evaluate(config: PipelineConfig, dry_run: bool) -> None:
    kb = _load_kb(config)
    lexicon = None
    if config.sampler == "antonyms":
        lexicon = load_antonyms(_require(config.lexicon_path(), "lexicon file"))
    ranked = _load_ranked_rows(config) if config.sampler in RANKED_SAMPLERS else None
    out = config.trials_path(config.sampler)
    if dry_run:
        print(
            f"plan: evaluate sampler={config.sampler} over {config.trials} trials; "
            f"would write {out}"
        )
        return
    experiment = ExperimentConfig(
        sampler=config.sampler,
        trials=config.trials,
        negatives_per_positive=config.eval_negatives,
        train=TrainConfig(
            epochs=config.epochs,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
        ),
        hidden_dim=config.hidden_dim,
        seed=config.seed,
        hops=config.hops,
        lexicon=lexicon,
        ranked=ranked,
        baseline=config.baseline,
    )
    report = run_experiment(kb, experiment)
    write_trials_tsv(report.results, out)
    _wrote(out)
    for result in report.results:
        print(f"trial {result.trial} accuracy={format_float(result.accuracy)}")
    print(format_report(report), end="")


def cmd_report(config: PipelineConfig, dry_run: bool) -> None:
    paths = sorted(config.out().glob("trials-*.tsv"))
    if not paths:
        raise MissingInputError(f"no trial files found: {config.out() / 'trials-*.tsv'}")
    out = config.report_path()
    if dry_run:
        names = ", ".join(str(p) for p in paths)
        print(f"plan: combine {names}; would write {out}")
        return
    report = EvaluationReport(read_trials_tsv(*paths), baseline=config.baseline)
    write_report_tsv(report, out)
    _wrote(out)
    print(format_report(report), end="")


STAGES = {
    "train": cmd_train,
    "thresholds": cmd_thresholds,
    "candidates": cmd_candidates,
    "rank": cmd_rank,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}

# Stages that write artifacts and therefore take the output-directory lock.
WRITING_STAGES = frozenset(COMMANDS)


def _diagnostic(kind: str, message: str) -> None:
    message = " ".join(str(message).split())
    print(f"negmine: {kind}: {message}", file=sys.stderr)


def _fail(kind: str, message: str, code: int) -> int:
    _diagnostic(kind, message)
    return code


class _WarningLines(logging.Handler):
    """Package warnings as diagnostic lines on the current `sys.stderr`."""

    def __init__(self):
        super().__init__(logging.WARNING)

    def emit(self, record: logging.LogRecord) -> None:
        try:
            _diagnostic("warning", record.getMessage())
        except Exception:
            self.handleError(record)


_WARNING_LINES = _WarningLines()


def main(argv: list[str] | None = None) -> int:
    # addHandler ignores a handler already attached, so repeated in-process
    # runs print each warning once.
    logging.getLogger(__package__).addHandler(_WARNING_LINES)
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        stage = STAGES[args.command]
        if args.dry_run:
            stage(config, dry_run=True)
            return 0
        config.out().mkdir(parents=True, exist_ok=True)
        with DirectoryLock(config.out()):
            stage(config, dry_run=False)
        return 0
    except MissingInputError as exc:
        return _fail("missing-input", str(exc), 2)
    except FileNotFoundError as exc:
        return _fail("missing-input", f"{exc.filename or exc}", 2)
    except (ParseError, ValueError, LockError) as exc:
        return _fail("invalid", str(exc), 3)
    except Exception as exc:  # internal invariant breach
        return _fail("internal", f"{type(exc).__name__}: {exc}", 4)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
