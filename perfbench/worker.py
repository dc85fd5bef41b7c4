"""Benchmark repetitions, run by `run.py` in a fresh process.

    python3 worker.py --spawned-at T [--until U] [--trace] [--setup-only] CONFIG.json...

Times set-up (from process start, `--spawned-at` on the system-wide
monotonic clock, until `fedad.cli` is imported and every config parsed
and validated). Then runs repetitions, one at a time, until the next
would end after `--until` on the same clock (at least one), pausing
every 0.2 s for `run.py`'s reference kernel (see PAUSE). A repetition
runs each config's `run_experiment` plus `emit_results` in turn, each
config with its own fixed master seed, so every repetition does the same
work and must give the same outputs. Outside the timed regions it
gathers what `run.py` checks: per experiment, the AUCs `summary.json`
reports against the exact ones, finiteness of the scores and a digest of
the ROC CSVs; per detector, the exact AUC of the scores pooled over the
experiments that ran it. With `--trace` every repetition runs under a
fresh tracer and also reports its per-layer metrics. The result goes to
`worker.json` next to the first config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Every PAUSE_EVERY_S of wall time while experiments run, a timer signal
# makes the worker write PAUSE to standard output and wait for a line on
# standard input, while `run.py` times its reference kernel on the same
# CPU. `time.perf_counter`, which fedad and this worker time everything
# with, is replaced by a clock that stands still during those pauses, so
# no reported time includes them.
PAUSE = "perfbench-pause"
PAUSE_EVERY_S = 0.2
_real_clock = time.perf_counter
_paused_s = 0.0
_pausing = False


def _clock() -> float:
    return _real_clock() - _paused_s


def _pause(signum=None, frame=None) -> None:
    global _paused_s
    if not _pausing:
        return
    t0 = _real_clock()
    print(PAUSE, flush=True)
    sys.stdin.readline()
    _paused_s += _real_clock() - t0
    signal.setitimer(signal.ITIMER_REAL, PAUSE_EVERY_S)


def _start_pauses() -> None:
    global _pausing
    _pausing = True
    signal.signal(signal.SIGALRM, _pause)
    _pause()


def _stop_pauses() -> None:
    global _pausing
    _pausing = False
    signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("configs", nargs="+", type=Path)
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    blas_env = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}

    time.perf_counter = _clock
    import fedad.cli as cli  # first import of numpy: pins BLAS to one thread

    configs = [cli.parse_config(path) for path in args.configs]
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s, "blas_env": blas_env}
    if not args.setup_only:
        raw = [json.loads(path.read_text()) for path in args.configs]
        result["environment"] = _environment()
        result["reps"] = reps = []
        while True:
            rep_start = time.monotonic()
            try:
                reps.append(_repetition(cli, configs, raw, args.trace))
            except Exception:  # a failed repetition is reported, not fatal
                reps.append({"error": traceback.format_exc(limit=4)[-2000:]})
                break
            now = time.monotonic()
            if now + (now - rep_start) > args.until:
                break
    (args.configs[0].parent / "worker.json").write_text(json.dumps(result))
    return 0


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def _repetition(cli, configs, raw_configs: list[dict], trace: bool) -> dict:
    import resource

    import numpy as np

    from fedad.evaluation import ScoredTrials, auc_rank_oracle

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        bundles, run_times = [], []
        _start_pauses()
        for config in configs:
            t0 = time.perf_counter()
            bundle = cli.run_experiment(config)
            cli.emit_results(bundle, config)
            run_times.append(time.perf_counter() - t0)
            bundles.append(bundle)
    finally:
        _stop_pauses()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    experiments = []
    pooled: dict[str, list] = {}
    for config, bundle, run_s in zip(configs, bundles, run_times):
        out = Path(config.output_dir)
        summary = json.loads((out / "summary.json").read_text())
        digest = hashlib.sha256()
        for path in sorted(out.glob("roc_*.csv")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        experiments.append({
            "master_seed": config.scenario.master_seed,
            "run_s": run_s,
            "roc_digest": digest.hexdigest(),
            "detectors": {
                name: {
                    "runtime_s": res.runtime_s,
                    "auc_exact": auc_rank_oracle(res.trials),
                    "auc_summary": summary[name]["auc"],
                    "finite": bool(np.all(np.isfinite(res.trials.scores))),
                }
                for name, res in bundle.results.items()
            },
        })
        for name, res in bundle.results.items():
            pooled.setdefault(name, []).append(res.trials)
    detectors = {
        name: {
            "runtime_s": sum(e["detectors"][name]["runtime_s"]
                             for e in experiments if name in e["detectors"]),
            "auc_exact": auc_rank_oracle(ScoredTrials(
                scores=np.concatenate([t.scores for t in trials]),
                truths=np.concatenate([t.truths for t in trials]),
            )),
        }
        for name, trials in pooled.items()
    }
    rep = {
        "run_s": sum(run_times),
        "peak_rss_mb": peak_rss_mb,
        "detectors": detectors,
        "experiments": experiments,
    }
    if tracer is not None:
        tracer.dump(Path(configs[0].output_dir).parent / "spans.npz")
        checkpoint = next(b.checkpoint for b in bundles if b.checkpoint is not None)
        uplink = configs[0].scenario.num_aps * len(checkpoint)
        rep["layers"] = tracer.layer_metrics(raw_configs, uplink)
        rep["sites"] = tracer.sites
    return rep


if __name__ == "__main__":
    sys.exit(main())
