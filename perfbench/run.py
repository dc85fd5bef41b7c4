"""fedad benchmark: time to solution, exact AUC per detector, and per-layer
traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/fedad`. Set-up is timed
in a fresh process that only imports `fedad.cli` and parses the config,
and in every worker. Then fresh single-threaded worker processes (BLAS
pinned to one thread, as `fedad.cli` pins it), one after another, run
the workload's seeded experiments again and again, one repetition at a
time in a closed loop, until the next would end after `--seconds`.
Every repetition does the same work, so each time metric is a sum over
the workload's experiments of that experiment's median over the
repetitions: a burst of host load in one repetition moves no median.
Slower drift of the host's speed, which moves whole runs, is taken out
by scaling every end-to-end time to a nominal host speed, gauged by a
fixed reference kernel that this process times on the workers' CPU
while they pause, every 0.2 s (see reference.py and worker.py); the
unscaled times are kept in result.json.

--trace 0 reports the end-to-end metrics.
--trace 1 splits the time between an untraced and a traced worker and
reports the per-layer metrics of the traced repetitions (unscaled
medians), after auditing their call counts.

Every repetition's outputs are checked; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Details of the run (every repetition, the environment, every failure)
go to `.perfbench/<workload>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402  (pins BLAS to one thread in this process)
from worker import BLAS_THREAD_VARS, PAUSE  # noqa: E402
from workloads import DETECTORS, WORKLOADS, expected_counts, experiment_configs  # noqa: E402

# Largest accepted gap between summary.json's AUC and the exact
# rank-statistic AUC. The 2,048-point ROC cap puts AMP at 0.942585 against
# an exact 0.942771 on the desk run.
AUC_TOLERANCE = 1e-3
SETUP_PROBES = 1
PLAIN_WORKERS = 2
HARD_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    *((f"{d}_s", "s", "lower") for d in DETECTORS),
    *((f"auc_{d}", "1", "higher") for d in DETECTORS),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("scenario.build_scenario.s", "s", "lower"),
    ("channel.build_dataset.calls", "count", "lower"),
    ("channel.build_dataset.events", "count", "lower"),
    ("channel.build_dataset.s", "s", "lower"),
    ("channel.build_dataset.us_per_event", "us", "lower"),
    ("slp.forward.calls", "count", "lower"),
    ("slp.forward.s", "s", "lower"),
    ("slp.backward.calls", "count", "lower"),
    ("slp.backward.s", "s", "lower"),
    ("slp.backward.gflop_per_s", "GFLOP/s", "higher"),
    ("slp.adam_step.calls", "count", "lower"),
    ("slp.adam_step.s", "s", "lower"),
    ("slp.adam_step.us_per_call", "us", "lower"),
    ("slp.adam_step.gb_per_s", "GB/s", "higher"),
    ("federation.local_train.calls", "count", "lower"),
    ("federation.local_train.s", "s", "lower"),
    ("federation.aggregate.s", "s", "lower"),
    ("federation.server_step.s", "s", "lower"),
    ("federation.heldout_bce.s", "s", "lower"),
    ("federation.fuse_cluster_scores.calls", "count", "lower"),
    ("federation.fuse_cluster_scores.s", "s", "lower"),
    ("federation.round_s_p50", "s", "lower"),
    ("federation.round_s_p90", "s", "lower"),
    ("federation.uplink_bytes_per_round", "B", "lower"),
    *(
        (f"baselines.{solver}.{metric}", unit, "lower")
        for solver in ("ista", "fista")
        for metric, unit in (
            ("calls", "count"), ("s", "s"), ("iters_mean", "iters"),
            ("iters_max", "iters"), ("capped_frac", "1"),
        )
    ),
    ("baselines.amp.calls", "count", "lower"),
    ("baselines.amp.s", "s", "lower"),
    ("baselines.lasso_objective.calls", "count", "lower"),
    ("baselines.lasso_objective.s", "s", "lower"),
    ("baselines.build_mmv_problem.s", "s", "lower"),
    ("evaluation.roc_curve.calls", "count", "lower"),
    ("evaluation.roc_curve.scores", "count", "lower"),
    ("evaluation.roc_curve.s", "s", "lower"),
    ("cli.run_experiment.s", "s", "lower"),
    ("cli.emit_results.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, rep_dir: Path, configs: list[dict], flags: list[str],
              until: float, timeout: float) -> dict:
    """Run worker.py on `configs` in `rep_dir`, repeating until `until`
    (system-wide monotonic clock); returns its result, or {"error": ...}
    if it failed or timed out. Whenever the worker pauses, one reference
    chunk is timed here; the result's "reference_samples" lists the chunk
    times ("reference_parts" their two halves) and every repetition
    carries their "reference_scale".
    """
    gauge: list[float] = []
    parts: list[tuple[float, float]] = []
    rep_dir.mkdir(parents=True)
    paths = []
    for i, config in enumerate(configs):
        paths.append(str(rep_dir / f"config{i}.json"))
        Path(paths[-1]).write_text(json.dumps(config, indent=2))
    spawned_at = time.monotonic()  # system-wide clock, also read by the child
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(spawned_at),
           "--until", repr(until), *flags, *paths]
    with open(rep_dir / "stderr.txt", "w+") as stderr, subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=stderr, text=True,
    ) as proc:
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line == f"{PAUSE}\n":
                    parts.append(reference.chunk())
                    gauge.append(sum(parts[-1]))
                    proc.stdin.write("\n")
                    proc.stdin.flush()
        except BrokenPipeError:
            pass
        finally:  # also on SIGTERM (see main): the worker never outlives us
            if proc.poll() is None and sys.exc_info()[0] is not None:
                proc.kill()
            returncode = proc.wait()
            watchdog.cancel()
        stderr.seek(0)
        errors = stderr.read().strip()[-2000:]
    if returncode == -signal.SIGKILL:
        return {"error": f"timed out after {timeout:.0f} s"}
    if returncode != 0:
        return {"error": f"exit {returncode}: {errors}"}
    result = json.loads((rep_dir / "worker.json").read_text())
    result["reference_samples"] = gauge
    result["reference_parts"] = parts
    for rep in result.get("reps", []):
        rep["blas_env"] = result["blas_env"]
        rep["reference_scale"] = reference.scale(gauge)
    return result


def rep_failures(rep: dict, configs: list[dict], reference: dict | None) -> list[str]:
    """Why one repetition's outputs are wrong; empty if they are right.

    `reference` is the first completed repetition of the same seed: ROC
    CSVs and exact AUCs must match it bit for bit. A traced repetition's
    call counts must also match what the configs imply.
    """
    if "error" in rep:
        return [f"raised: {rep['error']}"]
    failures = [f"{var}={val!r}, not 1" for var, val in rep["blas_env"].items() if val != "1"]
    if sorted(rep["detectors"]) != sorted(DETECTORS):
        failures.append(f"detectors {sorted(rep['detectors'])} != {sorted(DETECTORS)}")
    if len(rep["experiments"]) != len(configs):
        failures.append(f"{len(rep['experiments'])} experiments, not {len(configs)}")
    for i, (exp, config) in enumerate(zip(rep["experiments"], configs)):
        if sorted(exp["detectors"]) != sorted(config["detectors"]):
            failures.append(f"exp{i}: detectors {sorted(exp['detectors'])} "
                            f"!= {sorted(config['detectors'])}")
        for name, det in exp["detectors"].items():
            if not det["finite"]:
                failures.append(f"exp{i} {name}: non-finite scores")
            gap = abs(det["auc_summary"] - det["auc_exact"])
            if not gap <= AUC_TOLERANCE:
                failures.append(
                    f"exp{i} {name}: summary auc {det['auc_summary']} is {gap:.3g} from the "
                    f"exact {det['auc_exact']} (tolerance {AUC_TOLERANCE})"
                )
        if reference is not None and exp["roc_digest"] != reference["experiments"][i]["roc_digest"]:
            failures.append(f"exp{i}: ROC CSV digest differs from the first run of this seed")
    for name, det in rep["detectors"].items():
        ref = reference["detectors"].get(name) if reference else None
        if ref is not None and det["auc_exact"] != ref["auc_exact"]:
            failures.append(f"{name}: exact auc {det['auc_exact']} != {ref['auc_exact']} "
                            "of the first run")
    if "layers" in rep:
        failures += audit_counts(rep["layers"], configs)
    return failures


def audit_counts(layers: dict, configs: list[dict]) -> list[str]:
    """Mismatches between traced call counts and those `configs` imply."""
    return [
        f"{name}: traced {layers.get(name)} != expected {want}"
        for name, want in expected_counts(configs).items()
        if layers.get(name) != want
    ]


def summed_medians(reps: list[dict], value) -> float:
    """Sum over the experiments of each one's median `value(experiment)`
    over `reps`; experiments where `value` gives None are skipped."""
    total = 0.0
    for i in range(len(reps[0]["experiments"])):
        samples = [value(r["experiments"][i]) for r in reps]
        if samples[0] is not None:
            total += statistics.median(samples)
    return total


def end_to_end_metrics(reps: list[dict], setup_samples: list[float],
                       scale: float) -> dict[str, float]:
    """Time metrics are summed medians over the completed untraced
    repetitions, times `scale` (see reference.py); AUCs (equal in every
    repetition) and peak memory are the first repetition's, the one a
    single run of the workload would see."""
    done = [r for r in reps if "error" not in r and "layers" not in r]
    metrics = {"setup_s": scale * statistics.median(setup_samples)}
    metrics["run_s"] = scale * summed_medians(done, lambda e: e["run_s"])
    for d in DETECTORS:
        metrics[f"{d}_s"] = scale * summed_medians(
            done, lambda e: e["detectors"][d]["runtime_s"] if d in e["detectors"] else None
        )
    for d in DETECTORS:
        metrics[f"auc_{d}"] = done[0]["detectors"][d]["auc_exact"]
    metrics["peak_rss_mb"] = done[0]["peak_rss_mb"]
    return metrics


def per_layer_metrics(reps: list[dict]) -> dict[str, float]:
    """Medians over the completed traced repetitions, plus the tracing
    overhead: traced minus untraced summed-median run_s, each scaled by
    its own worker's reference gauge."""
    traced = [r for r in reps if "error" not in r and "layers" in r]
    plain = [r for r in reps if "error" not in r and "layers" not in r]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name, _, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        traced[0]["reference_scale"] * summed_medians(traced, lambda e: e["run_s"])
        - plain[0]["reference_scale"] * summed_medians(plain, lambda e: e["run_s"])
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = HERE.parent
    if not (root / "src" / "fedad" / "cli.py").is_file():
        print(f"perfbench: no fedad sources at {root / 'src' / 'fedad'}; "
              "run from the root of a fedad checkout", file=sys.stderr)
        return 2
    out = root / ".perfbench" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = started + args.seconds
    hard_deadline = started + HARD_LIMIT_S

    # This process and every worker share one CPU, so that the reference
    # chunks timed here, while a worker waits, gauge the CPU it runs on.
    usable_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable_cpus[0]})

    def child(name: str, flags: list[str], until: float = 0.0) -> dict:
        rep_dir = out / name
        configs = experiment_configs(args.workload, args.seed, str(rep_dir))
        return run_child(root, rep_dir, configs, flags, until, hard_deadline - time.monotonic())

    probes = [child(f"setup{i}", ["--setup-only"]) for i in range(SETUP_PROBES)]
    for probe in probes:
        if "error" in probe:
            print(f"perfbench: set-up failed: {probe['error']}", file=sys.stderr)
            return 1

    # Untraced repetitions in PLAIN_WORKERS processes, or (with --trace 1)
    # in one process and traced ones in a second, each process given its
    # share of the time that is left.
    passes = [["--trace"]] if args.trace else [[]] * (PLAIN_WORKERS - 1)
    passes.insert(0, [])
    workers = []
    for i, flags in enumerate(passes):
        share = (deadline - time.monotonic()) / (len(passes) - i)
        workers.append(child(f"worker{i}", flags, time.monotonic() + share))
    reps = [rep for w in workers for rep in w.get("reps", [])]
    reps += [{"error": w["error"]} for w in workers if "error" in w]
    ref_samples = [t for w in workers for t in w.get("reference_samples", [])]

    configs = experiment_configs(args.workload, args.seed, "")
    setup_samples = [w["setup_s"] for w in probes + workers if "setup_s" in w]
    first = next((r for r in reps if "error" not in r), None)
    failures = [rep_failures(r, configs, first) for r in reps]
    plain = [r for r in reps if "error" not in r and "layers" not in r]
    traced = [r for r in reps if "error" not in r and "layers" in r]
    if not plain or (args.trace and not traced):
        for fail in failures:
            for line in fail:
                print(f"perfbench: {line}", file=sys.stderr)
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        specs, metrics = PER_LAYER, per_layer_metrics(reps)
    else:
        specs = END_TO_END
        metrics = end_to_end_metrics(reps, setup_samples, reference.scale(ref_samples))
    n_failed = sum(1 for f in failures if f)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "usable_cores": len(usable_cpus),
            "pinned_to_cpu": usable_cpus[0],
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            **next(w["environment"] for w in workers if "environment" in w),
            "blas_threads_1_in_every_child": all(
                value == "1" for w in probes + workers if "blas_env" in w
                for value in w["blas_env"].values()
            ),
        },
        "configs": configs,
        "setup_samples": setup_samples,
        "reference_samples": ref_samples,
        "reference_parts": [part for w in workers for part in w.get("reference_parts", [])],
        "reference_scale": reference.scale(ref_samples),
        "reps": reps,
        "failures": failures,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2))

    for i, fail in enumerate(failures):
        for line in fail:
            print(f"FAILED rep{i}: {line}")
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"{len(setup_samples)} set-up samples, {n_failed} failed")
    for name, unit, better in specs:
        print(f"{name:40s} {metrics[name]:>14.6g} {unit:8s} ({better} is better)")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": len(reps),
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
