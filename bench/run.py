#!/usr/bin/env python3
"""negmine benchmark: seeded synthetic worlds through the real CLI stages.

Run from the repository root:

    python3 bench/run.py --workload planted --seed 1 --seconds 42 --trace 0

One process, one caller, closed loop: for the chosen workload it generates
the world from `--seed` (set-up), then runs pipeline passes through
`negmine.cli.main` in process, each stage starting when the previous one
returns. The first pass calls every stage once and is checked in full. In
later passes a stage that took under STAGE_FLOOR_S is called several times
back to back, so that short stages get as many samples as a noisy shared
machine needs; the passes go on until `--seconds` is used up, the last one
stopping at the deadline. Each must reproduce the first pass's artifacts
byte for byte. Every stage call and every output check is one operation.
A stage time is the median of all its calls in the run. BENCHMARK.md
beside this file describes the workloads, metrics and checks.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced passes, starting and ending untraced, and prints the per-layer
metrics of the traced ones (see spans.py) with the tracing overhead. `--toy`
runs the same plan on a tiny world for the smoke test. The last stdout line is the JSON result; the
environment record and the traced spans go to bench/.work/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import RANK_METHODS, SHARED_CONFIG, WORKLOADS

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
SRC = Path.cwd() / "src"

# Stage label -> metric holding its wall time (report_s is only part of
# pipeline_s). Every `evaluate-<sampler>` label adds to evaluate_s.
STAGE_METRICS = {
    "train": "train_s",
    "thresholds": "thresholds_s",
    "candidates": "candidates_s",
    "rank-theta": "rank_theta_s",
    "rank-grad": "rank_grad_s",
    "rank-grad-fast": "rank_grad_fast_s",
    "evaluate": "evaluate_s",
    "report": "report_s",
}
SETUP_REPEATS = 5
# An untraced pass after the first repeats a stage that took less than this
# in the first pass until its calls add up to about this long, at most
# MAX_REPEATS times. Every stage is idempotent: a repeat reads the same
# inputs and rewrites the same bytes.
STAGE_FLOOR_S = 0.8
MAX_REPEATS = 8


def stage_name(label: str) -> str:
    """The CLI stage a plan label runs: `evaluate-<sampler>` is `evaluate`."""
    return "evaluate" if label.startswith("evaluate-") else label


def stage_metric(label: str) -> str:
    return STAGE_METRICS[stage_name(label)]


def repeats_for(first: dict[str, list[float]]) -> dict[str, int]:
    """Calls per stage in later passes, from the first pass's stage times."""
    return {label: max(1, min(MAX_REPEATS, math.ceil(STAGE_FLOOR_S / max(times[0], 1e-6))))
            for label, times in first.items()}


def _cap_environment() -> int:
    """Clear the package's environment overrides and run OpenBLAS on one thread.

    Must run before numpy is imported. With two OpenBLAS threads on a shared
    2-core machine, one `rank --method grad-fast` stage took from 0.43 s to
    1.07 s over eight calls in one process; with one thread, 0.39 s to 0.50 s.
    """
    for name in ("NEGMINE_OUTPUT_DIR", "NEGMINE_THREADS"):
        os.environ.pop(name, None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


class Ledger:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check(self, what: str, fn) -> None:
        """Run one output check; an exception is a failed check, not a crash."""
        try:
            ok = bool(fn())
        except Exception as exc:  # a broken artifact must count, not abort the run
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        self.record(ok, what)


# --- set-up ------------------------------------------------------------------

def setup_world(workload, seed: int, world: Path) -> float:
    """Import the package afresh, generate the world, write kb, lexicon, config."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "negmine" or m.startswith("negmine.")]:
        del sys.modules[name]
    importlib.import_module("negmine.cli")
    from negmine.kb import save_tsv
    from negmine.samplers import save_antonyms
    from negmine.synthetic import SyntheticSpec, generate_kb, generate_lexicon

    world.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(seed=seed, **workload.spec)
    save_tsv(list(generate_kb(spec).triples), world / "kb.tsv")
    save_antonyms(generate_lexicon(), world / "lexicon.tsv")
    config = dict(SHARED_CONFIG)
    config.update(
        kb=world / "kb.tsv",
        lexicon=world / "lexicon.tsv",
        epochs=workload.train_epochs,
        trials=workload.trials,
        k=workload.k,
        seed=seed,
    )
    text = "".join(f"{key}={value}\n" for key, value in config.items())
    (world / "run.conf").write_text(text, encoding="utf-8")
    return time.perf_counter() - start


# --- one pipeline pass -------------------------------------------------------

def stage_plan(workload, conf: Path, out: Path) -> list[tuple[str, list[str]]]:
    common = ["--config", str(conf), "--output-dir", str(out)]
    plan = [("train", ["train"] + common),
            ("thresholds", ["thresholds"] + common),
            ("candidates", ["candidates"] + common)]
    for method in RANK_METHODS:
        plan.append((f"rank-{method}", ["rank"] + common + [
            "--method", method, "--ranked", str(out / f"ranked-{method}.tsv")]))
    for sampler in workload.samplers:
        argv = ["evaluate"] + common + ["--sampler", sampler, "--epochs", str(workload.eval_epochs)]
        if sampler == "negater-grad":
            argv += ["--ranked", str(out / "ranked-grad.tsv")]
        plan.append((f"evaluate-{sampler}", argv))
    plan.append(("report", ["report"] + common))
    return plan


def call_stage(argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI call: exit code, wall seconds, captured stderr.

    Garbage is collected before the clock starts, so that no call pays for
    the reference cycles an earlier one left, as a stage run in a fresh
    process would not.
    """
    cli = sys.modules["negmine.cli"]
    err = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue().strip()


def run_pass(workload, world: Path, out: Path, ledger: Ledger, tracer=None,
             repeats: dict[str, int] | None = None, deadline: float | None = None,
             longest: dict[str, float] | None = None) -> tuple[dict[str, list[float]], bool]:
    """Every stage in order, closed loop, each `repeats[label]` times back to
    back (once by default). Returns stage label -> wall seconds of each call,
    and whether the pass ran to the end.

    With a `deadline`, the pass stops before a call that `longest` (the
    slowest earlier call of each stage) says would overrun it. It never stops
    between `train` and the `thresholds` call after it, since `train`
    rewrites the checkpoint without thresholds; so the artifacts a cut pass
    leaves are always a subset of a whole pass's.
    """
    if out.exists():
        shutil.rmtree(out)
    times: dict[str, list[float]] = {}
    for label, argv in stage_plan(workload, world / "run.conf", out):
        calls = (repeats or {}).get(label, 1)
        for _ in range(calls):
            if deadline is not None and ("train" not in times or "thresholds" in times):
                ahead = longest[label]
                if label == "train":
                    ahead = calls * longest["train"] + longest["thresholds"]
                if time.perf_counter() + ahead > deadline:
                    return times, False
            span = tracer.open(f"stage.{stage_name(label)}") if tracer else None
            code, elapsed, err = call_stage(argv)
            if span:
                tracer.close(span)
            ledger.record(code == 0, f"stage {label} exited {code}: {err}")
            times.setdefault(label, []).append(elapsed)
            if longest is not None:
                longest[label] = max(longest.get(label, 0.0), elapsed)
    return times, True


def pass_total(times: dict[str, list[float]]) -> float:
    """Pipeline seconds of a pass that ran every stage once."""
    return sum(sum(calls) for calls in times.values())


# --- output checks -----------------------------------------------------------

def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact of a pass; none when every stage failed early."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_outputs(workload, world: Path, out: Path, ledger: Ledger) -> dict[str, float]:
    """Check every artifact of one pass; returns each sampler's mean test accuracy."""
    from negmine.candidates import read_candidates_tsv, validate_candidates
    from negmine.checkpoint import load_checkpoint
    from negmine.evaluation import read_trials_tsv
    from negmine.kb import KnowledgeBase, build_true_negative_split, load_tsv
    from negmine.rankers import read_ranked_tsv

    state: dict = {}

    def checkpoint_ok():
        params, thresholds = load_checkpoint(out / "scorer.ckpt")
        state["thresholds"] = thresholds
        return params.all_finite() and thresholds is not None

    def losses_ok():
        lines = (out / "train-loss.tsv").read_text(encoding="utf-8").splitlines()
        values = [float(line.split("\t")[1]) for line in lines]
        return len(values) == workload.train_epochs and all(map(math.isfinite, values))

    def candidates_ok():
        kb = build_true_negative_split(KnowledgeBase(load_tsv(world / "kb.tsv")), "Not", seed=0)
        state["candidates"] = read_candidates_tsv(out / "candidates.tsv")
        return state["candidates"] and validate_candidates(kb, state["candidates"], workload.k).ok()

    def ranked_ok(method):
        rows = read_ranked_tsv(out / f"ranked-{method}.tsv")
        state[method] = rows
        n = len(rows)
        whole = method == "theta" or n == len(state.get("candidates", ()))
        return (n > 0 and whole and sorted(r.rank for r in rows) == list(range(1, n + 1))
                and all(math.isfinite(r.key) and r.method == method for r in rows))

    def descending(method):
        keys = [r.key for r in sorted(state[method], key=lambda r: r.rank)]
        return all(a >= b for a, b in zip(keys, keys[1:]))

    def theta_below_threshold():
        thresholds = state["thresholds"]
        return all(r.key <= thresholds.threshold_for(r.triple.relation) for r in state["theta"])

    def trials_ok(sampler):
        results = read_trials_tsv(out / f"trials-{sampler}.tsv")
        return len(results) == workload.trials and all(0.0 <= r.accuracy <= 1.0 for r in results)

    def report_ok():
        rows = [line.split("\t") for line in
                (out / "report.tsv").read_text(encoding="utf-8").splitlines()]
        state["accuracy"] = {r[0]: float(r[2]) for r in rows if r[1] == "accuracy"}
        return set(workload.samplers) <= set(state["accuracy"])

    ledger.check("checkpoint loads and is finite, with thresholds", checkpoint_ok)
    ledger.check("train-loss.tsv finite, one row per epoch", losses_ok)
    ledger.check("validate_candidates ok", candidates_ok)
    for method in RANK_METHODS:
        ledger.check(f"ranked-{method}: ranks 1..n, finite keys", lambda m=method: ranked_ok(m))
    for method in ("grad", "grad-fast"):
        ledger.check(f"ranked-{method}: keys descend with rank", lambda m=method: descending(m))
    ledger.check("ranked-theta: keys at or below threshold", theta_below_threshold)
    for sampler in workload.samplers:
        ledger.check(f"trials-{sampler}: accuracies in [0, 1]", lambda s=sampler: trials_ok(s))
    ledger.check("report.tsv covers every sampler", report_ok)

    return state.get("accuracy", {})


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("negmine/*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_across_runs(key: str, found: dict[str, str], ledger: Ledger) -> None:
    """Compare with the digests an earlier run of the same code and seed stored."""
    record = WORK / "digests" / f"{key}-{source_digest()}.json"
    if record.exists():
        ledger.record(json.loads(record.read_text()) == found,
                      f"artifacts differ from an earlier run ({record.name})")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(found, indent=1, sort_keys=True))


# --- environment record ------------------------------------------------------

def git_commit() -> str | None:
    head = Path.cwd() / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = Path.cwd() / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path.cwd() / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def openblas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, read through ctypes."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.get("version"),
        "openblas_threads": openblas_threads(),
        "openblas_num_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": cores,
        "git_commit": git_commit(),
        "noise": "shared 2-core machine; nothing drops the page cache or pins CPUs",
    }


# --- main --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny world, for the smoke test")
    args = parser.parse_args(argv)

    cores = _cap_environment()
    if not (SRC / "negmine" / "cli.py").is_file():
        print(f"bench: no negmine sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload].toy() if args.toy else WORKLOADS[args.workload]
    key = f"{workload.name}{'-toy' if args.toy else ''}-s{args.seed}"
    run_dir = WORK / key
    if run_dir.exists():
        shutil.rmtree(run_dir)
    world = run_dir / "world"

    setups = [setup_world(workload, args.seed, world) for _ in range(SETUP_REPEATS)]
    import negmine

    if Path(negmine.__file__).resolve().parent != (SRC / "negmine").resolve():
        print(f"bench: imported negmine from {negmine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans as tracing

    env = environment(cores)
    (run_dir / "environment.json").write_text(json.dumps(env, indent=1))
    print("environment: " + json.dumps(env))

    ledger = Ledger()
    deadline = time.perf_counter() + args.seconds
    untraced: list[dict[str, list[float]]] = []
    traced: list[tuple[dict[str, tuple[float, str]], float]] = []  # (layers, pipeline)
    first: dict[str, str] = {}
    accuracy: dict[str, float] = {}

    def finish_pass(index: int, out: Path, whole: bool) -> None:
        """Check pass 0 in full; every later pass must reproduce its bytes."""
        nonlocal accuracy
        found = digests(out)
        if index == 0:
            first.update(found)
            accuracy = check_outputs(workload, world, out, ledger)
            check_across_runs(key, found, ledger)
            return
        # A pass cut at the deadline leaves a subset of the artifacts.
        same = found == first if whole else all(first.get(n) == d for n, d in found.items())
        ledger.record(same, f"pass {index} artifacts differ from pass 0")
        shutil.rmtree(out, ignore_errors=True)

    def show(index: int, times: dict[str, list[float]]) -> None:
        print(f"pass {index}: " + " ".join(
            f"{k}=" + ",".join(f"{v:.3f}" for v in calls) for k, calls in times.items()))

    if not args.trace:
        # Pass 0 runs every stage once. Later passes repeat short stages, and
        # the last one stops at the deadline, so no measuring time is idle.
        longest: dict[str, float] = {}
        times, _ = run_pass(workload, world, run_dir / "pass0", ledger, longest=longest)
        untraced.append(times)
        show(0, times)
        finish_pass(0, run_dir / "pass0", True)
        repeats = repeats_for(times)
        whole = True
        while whole:
            index = len(untraced)
            # One more set-up per pass spreads the set-up samples over the run.
            setups.append(setup_world(workload, args.seed, world))
            out = run_dir / f"pass{index}"
            times, whole = run_pass(workload, world, out, ledger, repeats=repeats,
                                    deadline=deadline, longest=longest)
            if times:
                untraced.append(times)
                show(index, times)
            finish_pass(index, out, whole)
    else:
        # Untraced and traced passes alternate, starting and ending untraced,
        # so every traced pass has an untraced one on each side to measure
        # its overhead against. Every pass calls each stage once, so that the
        # layer metrics describe one pipeline.
        longest_pass = 0.0
        while True:
            index = len(untraced) + len(traced)
            out = run_dir / f"pass{index}"
            if index:
                setups.append(setup_world(workload, args.seed, world))
            started = time.perf_counter()
            if index % 2:
                tracer = tracing.Tracer(f"{key}-pass{index}")
                tracer.install()
                try:
                    times, _ = run_pass(workload, world, out, ledger, tracer)
                finally:
                    tracer.uninstall()
                traced.append((tracing.layer_metrics(tracer), pass_total(times)))
                ledger.record(tracing.nesting_violations(tracer.spans) == 0,
                              "traced child spans lie within their parents")
                tracer.write(run_dir / f"spans-pass{index}.jsonl")
            else:
                times, _ = run_pass(workload, world, out, ledger)
                untraced.append(times)
                show(index, times)
            finish_pass(index, out, True)
            longest_pass = max(longest_pass, time.perf_counter() - started)
            done = index + 1
            if done >= 3 and done % 2 and time.perf_counter() + longest_pass > deadline:
                break

    if args.trace:
        for i, (layers, total) in enumerate(traced):
            base = (pass_total(untraced[i]) + pass_total(untraced[i + 1])) / 2
            layers["trace.overhead_s"] = (total - base, "s")
        metrics = {name: {"value": statistics.median(p[name][0] for p, _ in traced),
                          "unit": unit} for name, (_, unit) in traced[0][0].items()}
        for sampler in tracing.SAMPLERS:
            metrics[f"evaluation.accuracy.{sampler}"] = {
                "value": accuracy.get(sampler, 0.0), "unit": "fraction"}
        gain = accuracy.get("negater-grad", 0.0) - accuracy.get("uniform", 0.0)
        metrics["evaluation.accuracy_gain"] = {"value": gain, "unit": "fraction"}
    else:
        # Each stage's median over all its calls in the run; evaluate_s sums
        # the medians of the workload's samplers.
        stage = dict.fromkeys(STAGE_METRICS.values(), 0.0)
        for label in untraced[0]:
            calls = [t for p in untraced for t in p.get(label, ())]
            stage[stage_metric(label)] += statistics.median(calls)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "pipeline_s": {"value": sum(stage.values()), "unit": "s"}}
        for name in STAGE_METRICS.values():
            if name != "report_s":
                metrics[name] = {"value": stage[name], "unit": "s"}
        metrics["accuracy"] = {"value": max(accuracy.values(), default=0.0), "unit": "fraction"}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    for failure in ledger.failures:
        print(f"failed: {' '.join(failure.split())}")
    correct = not ledger.failures
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
