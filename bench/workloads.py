"""The benchmark's synthetic worlds and the CLI stage plan run on each.

Every workload shares the scorer settings below; they differ in the world
they generate, the training and evaluation lengths, `k`, and the samplers
they evaluate. Why each workload exists, and why its run lengths are what
they are, is recorded in BENCHMARK.md beside this file.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

# Settings every workload passes to every stage through its config file.
SHARED_CONFIG = {
    "split": "true-negatives",
    "hidden_dim": 64,
    "learning_rate": 0.05,
    "batch_size": 64,
    "train_negatives": 3,
    "corruption_mode": "cycle",
    "keep_fraction": 1.0,
}

RANK_METHODS = ("theta", "grad", "grad-fast")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SyntheticSpec keyword arguments; the run adds the seed
    train_epochs: int
    eval_epochs: int
    trials: int
    k: int
    samplers: tuple[str, ...]

    def toy(self) -> "Workload":
        """Same stage plan on a tiny world, for the benchmark's smoke test."""
        spec = dict(clusters=4, cluster_size=10, relations=8, density=0.8, negative_fraction=0.3)
        if "phrase_tokens" in self.spec:
            spec["phrase_tokens"] = self.spec["phrase_tokens"]
        return replace(self, spec=spec, train_epochs=2, eval_epochs=2, trials=2, k=6)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted",
            spec={},
            train_epochs=8,
            eval_epochs=5,
            trials=1,
            # At k=14 or k=40 the candidate count swings with the seed, down
            # to 1.9k at k=40, fewer than negater-grad's 2352 draws. At k=100
            # it stays between 4.9k and 5.4k (see BENCHMARK.md).
            k=100,
            samplers=("uniform", "negater-grad"),
        ),
        Workload(
            name="wide",
            spec=dict(
                clusters=30, cluster_size=40, relations=20, density=0.25, negative_fraction=0.05
            ),
            train_epochs=1,
            eval_epochs=3,
            trials=1,
            k=20,
            samplers=("uniform", "negater-grad", "sans"),
        ),
        Workload(
            name="long-phrase",
            spec=dict(phrase_tokens=12),
            train_epochs=5,
            eval_epochs=3,
            trials=1,
            k=14,
            samplers=("uniform", "negater-grad", "antonyms"),
        ),
    )
}
