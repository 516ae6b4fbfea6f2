"""Tests for the flat key=value pipeline configuration."""
from pathlib import Path

import pytest

from negmine.config import (
    ENV_OUTPUT_DIR,
    PipelineConfig,
    build_config,
    parse_config_file,
)
from negmine.kb import ParseError


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "config.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfigFile:
    def test_parses_keys_and_skips_noise(self, tmp_path):
        path = write_config(
            tmp_path,
            "# comment\n\nkb = data/kb.tsv\nepochs=10\n  seed = 7  \n",
        )
        assert parse_config_file(path) == {"kb": "data/kb.tsv", "epochs": "10", "seed": "7"}

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "epochs 10\n")
        with pytest.raises(ParseError, match="key=value"):
            parse_config_file(path)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "epochz=10\n")
        with pytest.raises(ParseError, match="unknown config key 'epochz'"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "seed=1\nseed=2\n")
        with pytest.raises(ParseError, match="duplicate config key"):
            parse_config_file(path)

    def test_error_names_file_and_line(self, tmp_path):
        path = write_config(tmp_path, "seed=1\nbogus\n")
        with pytest.raises(ParseError, match=r"config\.txt:2"):
            parse_config_file(path)


class TestBuildConfig:
    def test_file_values_are_typed(self):
        config = build_config(
            {"epochs": "12", "learning_rate": "0.5", "kb": "x.tsv"}
        )
        assert config.epochs == 12
        assert config.learning_rate == 0.5
        assert config.kb == "x.tsv"

    def test_bad_value_names_key(self):
        with pytest.raises(ValueError, match="config key epochs"):
            build_config({"epochs": "ten"})

    def test_env_overrides_file(self):
        config = build_config({"output_dir": "from-file"}, {ENV_OUTPUT_DIR: "from-env"})
        assert config.output_dir == "from-env"

    def test_flags_override_env_and_file(self):
        config = build_config(
            {"output_dir": "from-file", "seed": "1"},
            {ENV_OUTPUT_DIR: "from-env"},
            {"output_dir": "from-flag", "seed": 9},
        )
        assert config.output_dir == "from-flag"
        assert config.seed == 9

    def test_none_overrides_are_ignored(self):
        config = build_config({"seed": "5"}, overrides={"seed": None})
        assert config.seed == 5

    def test_unrelated_env_ignored(self):
        config = build_config({}, {"NEGMINE_SEED": "9", "PATH": "/bin"})
        assert config.seed == 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_dim": 1},
            {"epochs": -1},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"train_negatives": 0},
            {"corruption_mode": "swap"},
            {"k": 0},
            {"keep_fraction": 0.0},
            {"keep_fraction": 1.5},
            {"method": "best"},
            {"n": 1},
            {"hops": 0},
            {"sampler": "negater"},
            {"baseline": "negater"},
            {"trials": 0},
            {"eval_negatives": 0},
            {"split": "holdout"},
            {"negation_prefix": ""},
            {"validation_fraction": 1.1},
            {"kb_columns": "rh"},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_defaults_valid(self):
        PipelineConfig()


class TestPaths:
    def test_artifacts_default_under_output_dir(self):
        config = PipelineConfig(output_dir="run")
        assert config.checkpoint_path() == Path("run/scorer.ckpt")
        assert config.candidates_path() == Path("run/candidates.tsv")
        assert config.ranked_path() == Path("run/ranked.tsv")
        assert config.trials_path("uniform") == Path("run/trials-uniform.tsv")
        assert config.report_path() == Path("run/report.tsv")

    def test_explicit_paths_win(self):
        config = PipelineConfig(checkpoint="elsewhere/model.ckpt", candidates="c.tsv")
        assert config.checkpoint_path() == Path("elsewhere/model.ckpt")
        assert config.candidates_path() == Path("c.tsv")

    def test_unset_inputs_resolve_to_none(self):
        config = PipelineConfig()
        assert config.kb_path() is None
        assert config.lexicon_path() is None
