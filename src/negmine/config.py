"""Flat key=value configuration shared by every pipeline stage.

A config file holds one ``key=value`` assignment per line; blank lines and
``#`` comments are skipped. Keys are the field names of `PipelineConfig`.
Values from the file are overridden by the environment (output directory
only) and then by command-line flags.

Keys:
  paths     kb, lexicon, output_dir, checkpoint, candidates, ranked
  model     hidden_dim, epochs, learning_rate, batch_size, train_negatives,
            corruption_mode
  pipeline  k, keep_fraction, method, n, hops, sampler, baseline, trials,
            eval_negatives, seed
  data      split (none | true-negatives), negation_prefix,
            validation_fraction, split_seed, kb_columns

Artifacts live under ``output_dir`` with fixed names unless an explicit path
key overrides the corresponding input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .evaluation import SAMPLERS
from .ioutil import read_lines
from .rankers import RANK_METHODS
from .scorer import CORRUPTION_MODES

SPLIT_MODES = ("none", "true-negatives")

ENV_OUTPUT_DIR = "NEGMINE_OUTPUT_DIR"


@dataclass
class PipelineConfig:
    # Paths. Unset optional paths resolve to fixed names under output_dir.
    kb: str | None = None
    lexicon: str | None = None
    output_dir: str = "out"
    checkpoint: str | None = None
    candidates: str | None = None
    ranked: str | None = None
    # Scorer hyperparameters.
    hidden_dim: int = 64
    epochs: int = 200
    learning_rate: float = 0.01
    batch_size: int = 64
    train_negatives: int = 3
    corruption_mode: str = "cycle"
    # Pipeline parameters.
    k: int = 10
    keep_fraction: float = 0.5
    method: str = "theta"
    n: int = 256
    hops: int = 2
    sampler: str = "uniform"
    baseline: str = "uniform"
    trials: int = 5
    eval_negatives: int = 1
    seed: int = 0
    # Data handling.
    split: str = "none"
    negation_prefix: str = "Not"
    validation_fraction: float = 0.5
    split_seed: int = 0
    kb_columns: str = "rht"

    def __post_init__(self):
        if self.hidden_dim < 2:
            raise ValueError(f"hidden_dim must be >= 2, got {self.hidden_dim}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.train_negatives < 1:
            raise ValueError(f"train_negatives must be >= 1, got {self.train_negatives}")
        if self.corruption_mode not in CORRUPTION_MODES + ("cycle",):
            raise ValueError(f"unknown corruption_mode {self.corruption_mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1], got {self.keep_fraction}")
        if self.method not in RANK_METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {RANK_METHODS}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; expected one of {SAMPLERS}")
        if self.baseline not in SAMPLERS:
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.eval_negatives < 1:
            raise ValueError(f"eval_negatives must be >= 1, got {self.eval_negatives}")
        if self.split not in SPLIT_MODES:
            raise ValueError(f"unknown split {self.split!r}; expected one of {SPLIT_MODES}")
        if not self.negation_prefix:
            raise ValueError("negation_prefix must be non-empty")
        if not 0.0 <= self.validation_fraction <= 1.0:
            raise ValueError(
                f"validation_fraction must be in [0, 1], got {self.validation_fraction}"
            )
        if sorted(self.kb_columns) != ["h", "r", "t"]:
            raise ValueError(f"kb_columns must be a permutation of 'rht', got {self.kb_columns!r}")

    # Resolved artifact locations.
    def out(self) -> Path:
        return Path(self.output_dir)

    def kb_path(self) -> Path | None:
        return Path(self.kb) if self.kb else None

    def lexicon_path(self) -> Path | None:
        return Path(self.lexicon) if self.lexicon else None

    def checkpoint_path(self) -> Path:
        return Path(self.checkpoint) if self.checkpoint else self.out() / "scorer.ckpt"

    def candidates_path(self) -> Path:
        return Path(self.candidates) if self.candidates else self.out() / "candidates.tsv"

    def ranked_path(self) -> Path:
        return Path(self.ranked) if self.ranked else self.out() / "ranked.tsv"

    def loss_path(self) -> Path:
        return self.out() / "train-loss.tsv"

    def thresholds_path(self) -> Path:
        return self.out() / "thresholds.tsv"

    def negatives_path(self) -> Path:
        return self.out() / "negatives.tsv"

    def trials_path(self, sampler: str) -> Path:
        return self.out() / f"trials-{sampler}.tsv"

    def report_path(self) -> Path:
        return self.out() / "report.tsv"


def _converters() -> dict[str, Callable[[str], object]]:
    table: dict[str, Callable[[str], object]] = {}
    for f in fields(PipelineConfig):
        if f.type in ("str", "str | None"):
            table[f.name] = str
        elif f.type == "int":
            table[f.name] = int
        elif f.type == "float":
            table[f.name] = float
        else:  # pragma: no cover - new field types must be registered here
            raise TypeError(f"no converter for field {f.name}: {f.type}")
    return table


CONVERTERS = _converters()


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Raw key=value mapping from a config file; duplicates are errors."""
    keys: set[str] = set()

    def parse(line: str) -> tuple[str, str]:
        line = line.strip()
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONVERTERS:
            raise ValueError(f"unknown config key {key!r}")
        if key in keys:
            raise ValueError(f"duplicate config key {key!r}")
        keys.add(key)
        return key, value.strip()

    return dict(pair for _, pair in read_lines(path, parse))


def build_config(
    file_mapping: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> PipelineConfig:
    """Layer file values, environment overrides, then typed flag overrides."""
    values: dict[str, object] = {}
    for key, text in (file_mapping or {}).items():
        try:
            values[key] = CONVERTERS[key](text)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
    env = env or {}
    if ENV_OUTPUT_DIR in env:
        values["output_dir"] = env[ENV_OUTPUT_DIR]
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return PipelineConfig(**values)
