"""Benchmark workloads: the fedad experiments each one runs, built from
the benchmark's seed, and the call counts those experiments imply.

A workload is a list of experiments, all run in one repetition. Its main
experiment runs the detectors the workload is about; small guard
experiments run the others, because every workload reports every
end-to-end metric. Solver work and every AUC depend on the drawn
geometry and pilots, so the solver experiments are split over several
master seeds and their scores pooled; FL work does not, so the main FL
experiment runs on one.

The configs are spelled out here rather than read from `configs/`, so
that editing a shipped config cannot silently change what the benchmark
measures.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# configs/desk.json's scenario: 8 APs x 2 antennas, K=40, L=20, V=512.
DESK = {
    "area_side_km": 0.5, "num_aps": 8, "antennas_per_ap": 2, "num_devices": 40,
    "pilot_len": 20, "activation_prob": 0.1, "cluster_size": 4,
    "hidden_units": 512, "tx_power": 1e12, "noise_var": 1.0,
}
# configs/paper_full.json's scenario: 20 APs x 2 antennas, K=100, L=40.
PAPER = {
    "area_side_km": 1.0, "num_aps": 20, "antennas_per_ap": 2, "num_devices": 100,
    "pilot_len": 40, "activation_prob": 0.1, "cluster_size": 4,
    "hidden_units": 512, "tx_power": 1e12, "noise_var": 1.0,
}
SMOKE = {
    "num_aps": 3, "antennas_per_ap": 2, "num_devices": 6, "pilot_len": 4,
    "hidden_units": 8, "cluster_size": 2, "tx_power": 1e12,
}
FEDERATION = {
    "local_epochs": 2, "batch_size": 32, "train_samples": 1024, "eval_samples": 256,
    "server_mode": "server-adam", "server_lr": 0.005, "local_lr": 0.001,
    "regenerate_each_round": True,
}
SOLVER = {"lambda": None, "max_iters": 200, "tol": 1e-8, "amp_iters": 25, "amp_alpha": 1.5}
# Solvers that run a fixed number of iterations (tol 0 never stops them
# early). How many iterations ISTA needs varies several-fold from event to
# event, so a few hundred converging solves cost a seed-dependent amount of
# work; fixed iterations cost the same on every seed. Only the solver
# workload, with enough events to average that out, lets them converge.
FIXED_ITERS = {"tol": 0.0, "max_iters": 20, "amp_iters": 10}
DETECTORS = ("fl", "ista", "fista", "amp")


class Part(NamedTuple):
    """`copies` experiments, each with its own master seed."""

    scenario: dict
    detectors: tuple[str, ...]
    federation: dict
    eval_trials: int
    copies: int = 1
    solver: dict = {}


FL = ("fl",)
SOLVERS = ("ista", "fista", "amp")

WORKLOADS = {
    # FL on the desk network: slp, federation and channel (256 fresh events
    # per round) do the work. The shards are cut from desk's 1,024 events to
    # 256 so that one repetition takes a few seconds, and the learning rates
    # raised from desk's 0.001/0.005 so that 12 rounds still train past
    # chance (AUC ~0.65); neither changes the kind of work per round.
    # Guard: fixed-iteration solvers on 16 x 12 events.
    "fl_cellfree": [
        Part(DESK, FL, {"rounds": 12, "train_samples": 256, "local_lr": 0.02,
                        "server_lr": 0.1}, 250),
        Part(DESK, SOLVERS, {}, 12, copies=16, solver=FIXED_ITERS),
    ],
    # The solvers, converging, on 24 x 20 desk events (800 scores per
    # solve, 19.2k pooled per detector). Guard: FL trains 2 rounds on
    # 96-event shards, three times (its AUC varies with the drawn network).
    "baselines_cellfree": [
        Part(DESK, SOLVERS, {}, 20, copies=24),
        Part(DESK, FL, {"rounds": 2, "train_samples": 96}, 100, copies=3),
    ],
    # Everything at the paper's shapes: 20 clients per round, 40x100
    # dictionaries; FL for 2 rounds on 128-event shards, fixed-iteration
    # solvers on 16 x 8 events.
    "paper_cellfree": [
        Part(PAPER, FL, {"rounds": 2, "train_samples": 128}, 100),
        Part(PAPER, SOLVERS, {}, 8, copies=16, solver=FIXED_ITERS),
    ],
    # Smoke-sized shapes for the harness self-test; not a benchmark workload.
    "smoke": [
        Part(SMOKE, FL, {"rounds": 2, "train_samples": 16, "eval_samples": 8, "batch_size": 4}, 12),
        Part(SMOKE, SOLVERS, {}, 12, copies=2),
    ],
}


def experiment_configs(workload: str, seed: int, output_root: str) -> list[dict]:
    """The fedad JSON configs a workload runs for benchmark seed `seed`;
    experiment i has master seed 100 * seed + i and writes to
    `output_root`/exp<i>."""
    configs = []
    for part in WORKLOADS[workload]:
        for _ in range(part.copies):
            i = len(configs)
            configs.append({
                "scenario": {**part.scenario, "master_seed": 100 * seed + i},
                "federation": {**FEDERATION, **part.federation},
                "solver": {**SOLVER, **part.solver},
                "detectors": list(part.detectors),
                "architecture": "cellfree",
                "eval_trials": part.eval_trials,
                "output_dir": f"{output_root}/exp{i}",
                "emit": ["roc_csv", "summary_json", "history_csv"],
            })
    return configs


def expected_counts(configs: list[dict]) -> dict[str, int]:
    """Call and work counts that cell-free, server-adam runs of `configs`
    must produce together, keyed by per-layer metric name."""
    total: dict[str, int] = {}
    for config in configs:
        for name, count in _expected_counts(config).items():
            total[name] = total.get(name, 0) + count
    return total


def _expected_counts(config: dict) -> dict[str, int]:
    sc, fed = config["scenario"], config["federation"]
    detectors = config["detectors"]
    trials = config["eval_trials"]
    counts = {
        "slp.backward.calls": 0,
        "slp.adam_step.calls": 0,
        "channel.build_dataset.events": trials,
        "evaluation.roc_curve.calls": len(detectors),
        "evaluation.roc_curve.scores": len(detectors) * trials * sc["num_devices"],
    }
    if "fl" in detectors:
        rounds = fed["rounds"]
        steps = sc["num_aps"] * fed["local_epochs"] * math.ceil(
            fed["train_samples"] / fed["batch_size"]
        )
        regenerated = rounds - 1 if fed["regenerate_each_round"] else 0
        counts["slp.backward.calls"] = rounds * steps
        counts["slp.adam_step.calls"] = rounds * steps + rounds  # local + server steps
        counts["channel.build_dataset.events"] += (
            fed["train_samples"] * (1 + regenerated) + fed["eval_samples"]
        )
    for solver in SOLVERS:
        counts[f"baselines.{solver}.calls"] = trials if solver in detectors else 0
    return counts
