"""End-to-end tests for the pipeline subcommands."""
import contextlib
import functools
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import rewrite_checkpoint_header
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import negmine
from negmine.checkpoint import load_checkpoint, save_checkpoint
from negmine.cli import main
from negmine.kb import save_tsv
from negmine.scorer import TokenVocab, init_params
from negmine.rankers import RANK_METHODS, read_ranked_tsv
from negmine.evaluation import RANKED_SAMPLERS, SAMPLERS, read_trials_tsv
from negmine.synthetic import SyntheticSpec, generate_kb

SPEC = SyntheticSpec(
    clusters=3, cluster_size=6, relations=6, density=0.8, negative_fraction=0.25, seed=3
)


@pytest.fixture()
def workspace(tmp_path):
    """A kb.tsv plus a fast config file; returns the config path."""
    kb = generate_kb(SPEC)
    save_tsv(list(kb.triples), tmp_path / "kb.tsv")
    config = tmp_path / "config.txt"
    config.write_text(
        f"kb={tmp_path / 'kb.tsv'}\n"
        f"output_dir={tmp_path / 'out'}\n"
        "split=true-negatives\n"
        "hidden_dim=8\n"
        "epochs=3\n"
        "learning_rate=0.05\n"
        "batch_size=32\n"
        "keep_fraction=1.0\n"
        "seed=1\n",
        encoding="utf-8",
    )
    return config


def run(*argv: str) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_rank_without_checkpoint_names_path(self, workspace, capsys):
        code = run("rank", "--config", str(workspace))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("negmine: missing-input:")
        assert "scorer.ckpt" in err
        assert err.count("\n") == 1

    def test_train_with_missing_kb(self, workspace, capsys):
        code = run("train", "--config", str(workspace), "--kb", "nowhere.tsv")
        err = capsys.readouterr().err
        assert code == 2
        assert "nowhere.tsv" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = run("train", "--config", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_invalid_flag_value(self, workspace, capsys):
        code = run("train", "--config", str(workspace), "--k", "0")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("negmine: invalid:")

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("bogus=1\n", encoding="utf-8")
        code = run("train", "--config", str(config))
        assert code == 3
        assert "unknown config key" in capsys.readouterr().err

    def test_undecodable_kb_line(self, workspace, capsys):
        kb = workspace.parent / "kb.tsv"
        first, rest = kb.read_bytes().split(b"\n", 1)
        kb.write_bytes(first + b"\nIsA\tcaf\xe9\tpet\n" + rest)
        code = run("train", "--config", str(workspace))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"negmine: invalid: {kb}:2: byte 0xe9")

    def test_kb_not_configured(self, capsys):
        code = run("train")
        assert code == 3
        assert "kb file not configured" in capsys.readouterr().err

    def saved_checkpoint(self, workspace, emb_value=None):
        out = workspace.parent / "out"
        out.mkdir()
        params = init_params(TokenVocab.from_kb(generate_kb(SPEC)), hidden_dim=8, seed=1)
        if emb_value is not None:
            params.emb[0, 0] = emb_value
        save_checkpoint(out / "scorer.ckpt", params)
        return out / "scorer.ckpt"

    def test_checkpoint_header_without_bias(self, workspace, capsys):
        path = self.saved_checkpoint(workspace)
        rewrite_checkpoint_header(path, lambda header: header.pop("bias"))
        code = run("rank", "--config", str(workspace), "--method", "grad")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("negmine: invalid:") and "lacks bias" in err

    def test_checkpoint_with_nan_weights(self, workspace, capsys):
        self.saved_checkpoint(workspace, emb_value=float("nan"))
        code = run("rank", "--config", str(workspace), "--method", "grad")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("negmine: invalid:") and "non-finite" in err

    @pytest.mark.parametrize(
        "argv",
        [["rank", "--method", m] for m in ("theta", "grad", "grad-fast")]
        + [["candidates"], ["thresholds"]],
        ids=["theta", "grad", "grad-fast", "candidates", "thresholds"],
    )
    def test_overflowing_checkpoint_writes_no_ranked_file(self, workspace, tmp_path, argv):
        # Finite weights whose forward and backward passes overflow to nan.
        for stage in ("train", "thresholds", "candidates"):
            assert run(stage, "--config", str(workspace)) == 0
        out = tmp_path / "out"
        path = out / "scorer.ckpt"
        params, thresholds = load_checkpoint(path)
        for array in (params.emb, params.ff_w, params.w):
            array *= 1e160
        assert params.all_finite()
        save_checkpoint(path, params, thresholds)
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
        # A child process, so that numpy's warnings would reach its stderr.
        src = Path(negmine.__file__).parents[1]
        child = subprocess.run(
            [sys.executable, "-m", "negmine.cli", argv[0], "--config", str(workspace), *argv[1:]],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        lines = child.stderr.splitlines()
        assert child.returncode == 3, child.stderr
        assert lines and all(line.startswith("negmine: invalid: ") for line in lines), lines
        assert "non-finite" in lines[0]
        # No ranked file, and the checkpoint and candidate file are not rewritten.
        after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
        assert after == before

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_learning_rate_checked_before_the_kb_loads(self, tmp_path, capsys, value):
        code = run("train", "--kb", str(tmp_path / "absent.tsv"), "--learning-rate", value)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("negmine: invalid: learning_rate must be a finite number > 0")

    def test_sample_rejects_ranked_sampler(self, workspace, capsys):
        code = run("sample", "--config", str(workspace), "--sampler", "negater-theta")
        assert code == 3
        assert "baseline negatives only" in capsys.readouterr().err


class TestWarnings:
    def test_warnings_print_as_diagnostic_lines(self, workspace, tmp_path):
        kb = tmp_path / "kb.tsv"
        lines = kb.read_text(encoding="utf-8").splitlines(keepends=True)
        kb.write_text("".join(lines + lines[:1]), encoding="utf-8")
        # thresholds loads the KB, then rejects a config without validation labels.
        config = workspace.read_text(encoding="utf-8").replace("split=true-negatives", "split=none")
        workspace.write_text(config, encoding="utf-8")
        for _ in range(2):  # the handler is installed once across in-process runs
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run("thresholds", "--config", str(workspace)) == 3
            printed = err.getvalue().splitlines()
            assert all(line.startswith("negmine: ") for line in printed), printed
            assert printed[0] == f"negmine: warning: collapsed 1 duplicate positive lines in {kb}"
            failures = [line for line in printed if not line.startswith("negmine: warning: ")]
            assert len(printed) == 2 and len(failures) == 1
            assert failures[0].startswith("negmine: invalid: thresholds needs a labeled validation split")


class TestDryRun:
    def test_plan_without_writes(self, workspace, capsys, tmp_path):
        code = run("train", "--config", str(workspace), "--dry-run")
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("plan:")
        assert "would write" in out
        assert not (tmp_path / "out").exists()

    def test_dry_run_still_validates_inputs(self, workspace, capsys):
        code = run("rank", "--config", str(workspace), "--dry-run")
        assert code == 2


class TestLocking:
    def test_held_lock_rejected(self, workspace, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # A lock names its holder's pid; this process is certainly alive.
        (out_dir / ".lock").write_text(str(os.getpid()), encoding="utf-8")
        code = run("train", "--config", str(workspace))
        err = capsys.readouterr().err
        assert code == 3
        assert "lockfile exists" in err

    def test_stale_lock_of_exited_process_reclaimed(self, workspace, capsys, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped, so its pid names no process
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / ".lock").write_text(str(child.pid), encoding="utf-8")
        assert run("train", "--config", str(workspace)) == 0
        err = capsys.readouterr().err
        assert err == f"negmine: warning: reclaimed stale lockfile {out_dir / '.lock'} of exited pid {child.pid}\n"
        assert (out_dir / "scorer.ckpt").exists()
        assert not (out_dir / ".lock").exists()

    @pytest.mark.parametrize(
        "content", ["", "not a pid", "12ab", "-5", "0", "99999999999999999999", "\xff"]
    )
    def test_unreadable_lock_refused(self, workspace, capsys, tmp_path, content):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / ".lock").write_text(content, encoding="latin-1")
        code = run("train", "--config", str(workspace))
        err = capsys.readouterr().err
        assert code == 3
        assert "lockfile exists" in err
        assert (out_dir / ".lock").read_text(encoding="latin-1") == content

    def test_lock_released_after_run(self, workspace, tmp_path):
        assert run("train", "--config", str(workspace)) == 0
        assert not (tmp_path / "out" / ".lock").exists()


class TestPipelineIntegration:
    def test_stage_chain(self, workspace, tmp_path, capsys):
        # Spec'd flow: after candidates and theta ranking, every ranked row's
        # relation must hold an entry in the fitted threshold map.
        for argv in (
            ("train", "--config", str(workspace)),
            ("thresholds", "--config", str(workspace)),
            ("candidates", "--config", str(workspace), "--k", "10"),
            ("rank", "--config", str(workspace), "--method", "theta"),
        ):
            assert run(*argv) == 0, argv
        out = capsys.readouterr().out
        assert "wrote" in out
        _, thresholds = load_checkpoint(tmp_path / "out" / "scorer.ckpt")
        rows = read_ranked_tsv(tmp_path / "out" / "ranked.tsv")
        assert rows
        assert all(row.triple.relation in thresholds.per_relation for row in rows)
        assert (tmp_path / "out" / "thresholds.tsv").exists()
        assert (tmp_path / "out" / "train-loss.tsv").read_text().count("\n") == 3

    def test_evaluate_uniform_five_trials(self, workspace, tmp_path, capsys):
        assert run("evaluate", "--config", str(workspace), "--sampler", "uniform",
                   "--trials", "5") == 0
        out = capsys.readouterr().out
        results = read_trials_tsv(tmp_path / "out" / "trials-uniform.tsv")
        assert [r.trial for r in results] == [1, 2, 3, 4, 5]
        assert all(0.0 <= r.accuracy <= 1.0 for r in results)
        assert out.count("trial ") == 5
        assert "+/-" in out

    def test_report_combines_trial_files(self, workspace, tmp_path, capsys):
        assert run("evaluate", "--config", str(workspace), "--sampler", "uniform",
                   "--trials", "2") == 0
        assert run("evaluate", "--config", str(workspace), "--sampler", "slots",
                   "--trials", "2") == 0
        assert run("report", "--config", str(workspace)) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "out" / "report.tsv").exists()
        assert "baseline: uniform" in out
        assert "slots" in out

    def test_report_without_trials(self, workspace, capsys):
        code = run("report", "--config", str(workspace))
        assert code == 2
        assert "trials-*" in capsys.readouterr().err

    def test_sample_writes_labeled_negatives(self, workspace, tmp_path):
        assert run("sample", "--config", str(workspace), "--sampler", "uniform") == 0
        lines = (tmp_path / "out" / "negatives.tsv").read_text().splitlines()
        assert lines
        assert all(line.endswith("\t0") for line in lines)

    @pytest.mark.parametrize(
        "ranked, message",
        [
            ("1\tR0\ta\tb\t0.0\tnone\n2\tR0\ta\tb\t0.0\tnone\n", "duplicate triple"),
            ("1\tR0\ta\tb\t0.0\tnone\n3\tR0\ta\tc\t0.0\tnone\n", "rank 3 exceeds"),
        ],
    )
    def test_evaluate_rejects_malformed_ranked_file(
        self, workspace, tmp_path, capsys, ranked, message
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "ranked.tsv").write_text(ranked, encoding="utf-8")
        code = run("evaluate", "--config", str(workspace), "--sampler", "negater-none",
                   "--trials", "1")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("negmine: invalid:") and "ranked.tsv:2:" in err and message in err

    def test_evaluate_rejects_mismatched_ranked_method(self, workspace, tmp_path, capsys):
        for argv in (
            ("train", "--config", str(workspace)),
            ("candidates", "--config", str(workspace)),
            ("rank", "--config", str(workspace), "--method", "none"),
        ):
            assert run(*argv) == 0
        code = run("evaluate", "--config", str(workspace), "--sampler", "negater-theta",
                   "--trials", "1")
        capsys.readouterr()
        assert code == 3


class TestDeterminism:
    def run_chain(self, workspace, out_dir: Path) -> None:
        for argv in (
            ("train",),
            ("thresholds",),
            ("candidates",),
            ("rank", "--method", "theta"),
        ):
            assert run(*argv, "--config", str(workspace), "--output-dir", str(out_dir)) == 0

    def test_byte_identical_reruns(self, workspace, tmp_path, capsys):
        self.run_chain(workspace, tmp_path / "a")
        self.run_chain(workspace, tmp_path / "b")
        capsys.readouterr()
        for name in ("scorer.ckpt", "train-loss.tsv", "thresholds.tsv",
                     "candidates.tsv", "ranked.tsv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seed_flag_changes_shuffle(self, workspace, tmp_path, capsys):
        for argv in (
            ("train", "--config", str(workspace)),
            ("thresholds", "--config", str(workspace)),
            ("candidates", "--config", str(workspace)),
        ):
            assert run(*argv) == 0
        assert run("rank", "--config", str(workspace), "--method", "theta",
                   "--seed", "1") == 0
        first = (tmp_path / "out" / "ranked.tsv").read_bytes()
        assert run("rank", "--config", str(workspace), "--method", "theta",
                   "--seed", "2") == 0
        second = (tmp_path / "out" / "ranked.tsv").read_bytes()
        capsys.readouterr()
        assert first != second


class TestEnvironmentOverrides:
    def test_output_dir_from_env(self, workspace, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env-out"
        monkeypatch.setenv("NEGMINE_OUTPUT_DIR", str(target))
        assert run("train", "--config", str(workspace)) == 0
        capsys.readouterr()
        assert (target / "scorer.ckpt").exists()
        assert not (tmp_path / "out").exists()

    def test_flag_beats_env(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NEGMINE_OUTPUT_DIR", str(tmp_path / "env-out"))
        assert run("train", "--config", str(workspace),
                   "--output-dir", str(tmp_path / "flag-out")) == 0
        capsys.readouterr()
        assert (tmp_path / "flag-out" / "scorer.ckpt").exists()


def fail_closed_world():
    """File name -> bytes of a tiny evaluable world: KB, lexicon, one ranked file per method."""
    from negmine.samplers import save_antonyms
    from negmine.synthetic import generate_lexicon

    kb = generate_kb(SyntheticSpec(clusters=3, cluster_size=4, relations=6, density=0.8,
                                   negative_fraction=0.3, seed=5))
    with tempfile.TemporaryDirectory() as tmp:
        save_tsv(list(kb.triples), Path(tmp) / "kb.tsv")
        save_antonyms(generate_lexicon(), Path(tmp) / "lexicon.tsv")
        files = {name: (Path(tmp) / name).read_bytes() for name in ("kb.tsv", "lexicon.tsv")}
    # Ranked negatives: each positive with the next positive's tail.
    triples = kb.triples
    rows = [
        f"{i + 1}\t{a.relation}\t{a.head.text}\t{b.tail.text}\t0.5"
        for i, (a, b) in enumerate(zip(triples, triples[1:] + triples[:1]))
    ]
    for method in ("theta", "grad", "none"):
        files[f"ranked-{method}.tsv"] = "".join(f"{r}\t{method}\n" for r in rows).encode()
    return files


FAIL_CLOSED_FILES = fail_closed_world()
FUZZ_FIELDS = st.sampled_from(
    [b"", b"0", b"-1", b"1e400", b"nan", b"inf", b"#", b"a b", b"\xff", b"Not", b"1\t2"]
) | st.binary(max_size=6)


@st.composite
def corrupted(draw, data):
    """`data` kept, or with a byte span replaced, a line dropped or repeated,
    or one field of a line swapped for fuzz."""
    kind = draw(st.sampled_from(["keep", "bytes", "drop", "repeat", "field"]))
    if kind == "keep":
        return data
    if kind == "bytes":
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        return data[:i] + draw(st.binary(max_size=8)) + data[j:]
    lines = data.split(b"\n")
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[k]
    elif kind == "repeat":
        lines.insert(k, lines[k])
    else:
        fields = lines[k].split(b"\t")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(FUZZ_FIELDS)
        lines[k] = b"\t".join(fields)
    return b"\n".join(lines)


SMALL_INTS = st.integers(-2, 3).map(str)
CONFIG_VALUES = {
    "sampler": st.sampled_from(SAMPLERS + ("magic", "")),
    "hops": st.one_of(st.integers(-2, 5), st.integers(6, 10**12)).map(str)
    | st.sampled_from(["", "x", "2.5", "nan"]),
    "eval_negatives": SMALL_INTS,
    "trials": SMALL_INTS,
    "epochs": SMALL_INTS,
    "seed": SMALL_INTS,
    "split_seed": SMALL_INTS,
    "split": st.sampled_from(["none", "true-negatives", "bogus"]),
    "negation_prefix": st.sampled_from(["Not", "", "R", "x"]),
    "validation_fraction": st.sampled_from(["0", "0.5", "1", "1.5", "nan", "-0.1"]),
    "learning_rate": st.sampled_from(["0.05", "0", "-1", "nan", "inf", "1e308"]),
    "batch_size": SMALL_INTS,
    "kb_columns": st.sampled_from(["rht", "thr", "rrt", ""]),
    "baseline": st.sampled_from(SAMPLERS + ("magic",)),
}


@functools.cache
def fail_closed_artifacts():
    """File name -> bytes of the stage outputs of the fail-closed world: a
    trained checkpoint with thresholds, its candidates and two trial files;
    plus a well-formed checkpoint whose vocabulary lacks the KB's relations."""
    from negmine.scorer import ThresholdMap

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in FAIL_CLOSED_FILES.items():
            (tmp / name).write_bytes(data)
        (tmp / "run.conf").write_text(
            f"kb={tmp / 'kb.tsv'}\noutput_dir={tmp}\nsplit=true-negatives\nhidden_dim=4\n"
            "epochs=1\nbatch_size=16\ntrials=1\nk=3\n",
            encoding="utf-8",
        )
        steps = [["train"], ["thresholds"], ["candidates"], ["evaluate"],
                 ["evaluate", "--sampler", "negater-grad", "--ranked", str(tmp / "ranked-grad.tsv")]]
        with contextlib.redirect_stdout(io.StringIO()):
            for step in steps:
                assert run(*step, "--config", str(tmp / "run.conf")) == 0, step
        files = {
            name: (tmp / name).read_bytes()
            for name in ("scorer.ckpt", "candidates.tsv", "trials-uniform.tsv",
                         "trials-negater-grad.tsv")
        }
        foreign = init_params(TokenVocab(["elsewhere"], ["x", "y"]), hidden_dim=4, seed=1)
        save_checkpoint(tmp / "foreign.ckpt", foreign, ThresholdMap({"elsewhere": 0.4}, 0.5))
        files["foreign.ckpt"] = (tmp / "foreign.ckpt").read_bytes()
    return files


def run_on_files(stage, files, settings_):
    """Run `stage` on `files` written to a fresh directory, with `settings_`
    as its config file (paths relative to that directory); (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        settings_ = {key: tmp / value if isinstance(value, Path) else value
                     for key, value in settings_.items()}
        text = "".join(f"{key}={value}\n" for key, value in settings_.items())
        (tmp / "run.conf").write_bytes(text.encode("utf-8", "surrogateescape"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(stage, "--config", str(tmp / "run.conf"))
    return code, err.getvalue()


FAIL_CLOSED_SETTINGS = {"split": "true-negatives", "hidden_dim": 4, "epochs": 1, "trials": 1,
                        "batch_size": 16}


STAGE_CONFIG_VALUES = {
    "method": st.sampled_from(RANK_METHODS + ("magic",)),
    "k": st.sampled_from(["0", "1", "3", "50", "x"]),
    "n": st.sampled_from(["1", "2", "8", "10000"]),
    "keep_fraction": st.sampled_from(["0", "0.01", "0.5", "1", "2", "nan"]),
    "hidden_dim": st.sampled_from(["1", "2", "4", "5"]),
    **{key: CONFIG_VALUES[key] for key in (
        "epochs", "seed", "split", "negation_prefix", "validation_fraction", "learning_rate",
        "batch_size", "kb_columns", "baseline")},
    "train_negatives": SMALL_INTS,
    "corruption_mode": st.sampled_from(["cycle", "head", "relation", "tail", "both"]),
}


class TestFailClosed:
    """Corrupt inputs to every stage exit 0, 2 or 3, never 4, and print
    nothing on stderr but `negmine: ` lines."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        run_of=st.sampled_from(
            [("sample", s) for s in SAMPLERS if s not in RANKED_SAMPLERS]
            + [("evaluate", s) for s in SAMPLERS]
        ),
        files=st.fixed_dictionaries(
            {name: corrupted(data) for name, data in FAIL_CLOSED_FILES.items()}
        ),
        config=st.dictionaries(st.sampled_from(sorted(CONFIG_VALUES)), st.just(None), max_size=3)
        .flatmap(lambda keys: st.fixed_dictionaries({k: CONFIG_VALUES[k] for k in keys})),
    )
    def test_corrupt_inputs_never_exit_internal(self, run_of, files, config):
        stage, sampler = run_of
        method = {"negater-theta": "theta", "negater-grad": "grad"}.get(sampler, "none")
        code, err = run_on_files(stage, files, {
            "kb": Path("kb.tsv"),
            "lexicon": Path("lexicon.tsv"),
            "ranked": Path(f"ranked-{method}.tsv"),
            "output_dir": Path("out"),
            "sampler": sampler,
            **FAIL_CLOSED_SETTINGS,
            **config,
        })
        assert code in (0, 2, 3), err
        assert all(line.startswith("negmine: ") for line in err.splitlines()), err

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        run_of=st.sampled_from(
            [("train", None), ("thresholds", None), ("candidates", None), ("report", None)]
            + [("rank", method) for method in RANK_METHODS]
        ),
        checkpoint=st.sampled_from(["scorer.ckpt", "foreign.ckpt"]),
        data=st.data(),
        config=st.dictionaries(st.sampled_from(sorted(STAGE_CONFIG_VALUES)), st.just(None),
                               max_size=3)
        .flatmap(lambda keys: st.fixed_dictionaries({k: STAGE_CONFIG_VALUES[k] for k in keys})),
    )
    def test_corrupt_stage_outputs_never_exit_internal(self, run_of, checkpoint, data, config):
        stage, method = run_of
        artifacts = fail_closed_artifacts()
        inputs = {"kb.tsv": FAIL_CLOSED_FILES["kb.tsv"], "scorer.ckpt": artifacts[checkpoint]}
        for name in ("candidates.tsv", "trials-uniform.tsv", "trials-negater-grad.tsv"):
            inputs[name] = artifacts[name]
        # One input corrupted per run, so that the others reach the later stages intact.
        target = data.draw(st.sampled_from(sorted(inputs)), label="corrupted file")
        files = dict(inputs, **{target: data.draw(corrupted(inputs[target]), label=target)})
        # `report` reads every trial file of the output directory.
        code, err = run_on_files(stage, files, {
            "kb": Path("kb.tsv"),
            "checkpoint": Path("scorer.ckpt"),
            "candidates": Path("candidates.tsv"),
            "output_dir": Path("."),
            "method": method or "theta",
            "k": 3,
            "n": 8,
            **FAIL_CLOSED_SETTINGS,
            **config,
        })
        assert code in (0, 2, 3), err
        assert all(line.startswith("negmine: ") for line in err.splitlines()), err

    @pytest.mark.parametrize("stage", ["thresholds", "candidates", "rank"])
    @pytest.mark.parametrize("method", RANK_METHODS)
    def test_checkpoint_without_the_kb_relations(self, stage, method):
        artifacts = fail_closed_artifacts()
        files = {"kb.tsv": FAIL_CLOSED_FILES["kb.tsv"], "scorer.ckpt": artifacts["foreign.ckpt"],
                 "candidates.tsv": artifacts["candidates.tsv"]}
        code, err = run_on_files(stage, files, {
            "kb": Path("kb.tsv"), "output_dir": Path("."), "method": method, "k": 3, "n": 8,
            **FAIL_CLOSED_SETTINGS,
        })
        assert code == 0, err
