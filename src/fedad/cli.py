"""Experiment runner CLI: `run`, `validate`, and `macs` subcommands over
a strict JSON config.

BLAS thread pools are pinned to one thread at module import (before numpy
loads) so that repeated runs of the same config produce byte-identical
outputs regardless of the machine's threading defaults. Import this
module first in entry points; library users are unaffected if numpy is
already loaded.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import functools
import json
import subprocess
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BASELINES, SolverConfig, detect
from .channel import build_dataset
from .evaluation import RocCurve, ScoredTrials, detector_macs, roc_curve, slp_macs_per_ap
from .federation import (
    FederationConfig,
    LocalUpdate,
    run_training,
    score_events,
    serialize_update,
)
from .rng import substream
from .scenario import ScenarioConfig, build_scenario, colocate

ALL_DETECTORS = ("fl", *BASELINES)
ALL_EMIT = ("roc_csv", "summary_json", "history_csv", "checkpoints")
ARCHITECTURES = ("cellfree", "colocated")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    detectors: tuple[str, ...] = ALL_DETECTORS
    architecture: str = "cellfree"
    eval_trials: int = 1000
    output_dir: str = "results"
    emit: tuple[str, ...] = ("roc_csv", "summary_json")

    def __post_init__(self) -> None:
        if not self.detectors:
            raise ValueError("detectors: must not be empty")
        for d in self.detectors:
            if d not in ALL_DETECTORS:
                raise ValueError(f"detectors: unknown detector {d!r}")
        if len(set(self.detectors)) < len(self.detectors):
            raise ValueError(f"detectors: each may appear once, got {list(self.detectors)}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture: must be one of {ARCHITECTURES}")
        if self.eval_trials < 1:
            raise ValueError(f"eval_trials: must be >= 1, got {self.eval_trials}")
        for e in self.emit:
            if e not in ALL_EMIT:
                raise ValueError(f"emit: unknown output kind {e!r}")


@dataclass
class DetectorResult:
    roc: RocCurve
    macs_complex1: int
    macs_real4: int
    iters: int
    runtime_s: float
    trials: ScoredTrials


@dataclass
class ResultBundle:
    results: dict[str, DetectorResult]
    checkpoint: bytes | None = None
    history: list[float] | None = None


_SCALAR_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "true or false",
    type(None): "null",
}


def _check_scalar(hint, value, where: str) -> None:
    """Raise ConfigError unless `value` is a JSON value of the field type
    `hint` (a scalar type, or a union of them such as `float | None`).
    Types match exactly, so a bool is no integer; a float field also
    takes an integer, and no number field takes NaN, an infinity, or an
    integer beyond the float range."""
    accepted = typing.get_args(hint) or (hint,)
    if type(value) in accepted or (type(value) is int and float in accepted):
        number = type(value) in (int, float) and float in accepted
        # NaN fails the comparison; an int is compared exactly, unrounded.
        if number and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where}: must be a finite number, got {json.dumps(value)}")
        return
    expected = " or ".join(_SCALAR_NAMES[kind] for kind in accepted)
    raise ConfigError(f"{where}: must be {expected}, got {json.dumps(value, default=repr)}")


def _build_section(cls, data, section: str):
    """Strict parse of one JSON object into the dataclass `cls`: unknown
    keys are rejected, missing keys take the field defaults, dataclass
    fields are parsed as sections of their own, tuple fields take JSON
    lists, and scalar fields take JSON values of their type."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: must be a JSON object")
    # Resolved in this module's namespace, which names every section type
    # also when the module runs as __main__ (python -m cProfile -m ...).
    hints = typing.get_type_hints(cls, globalns=globals())
    attr_of = {name: name for name in hints}
    if cls is SolverConfig:
        attr_of["lambda"] = attr_of.pop("lam")
    kwargs = {}
    for key, value in data.items():
        attr = attr_of.get(key)
        if attr is None:
            raise ConfigError(f"{section}: unknown key {key!r}")
        hint = hints[attr]
        if dataclasses.is_dataclass(hint):
            value = _build_section(hint, value, key)
        elif typing.get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{section}: {key}: must be a JSON list")
            value = tuple(value)
        else:
            _check_scalar(hint, value, f"{section}: {key}")
        kwargs[attr] = value
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict parse: unknown keys are rejected, missing keys take the
    documented full-scale defaults."""
    return _build_section(ExperimentConfig, data, "top level")


def _unique_keys(pairs: list[tuple[str, typing.Any]]) -> dict:
    """JSON object hook that rejects a key given twice, where json.loads
    would silently keep the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate key {key!r}")
        data[key] = value
    return data


def parse_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Inverse of config_from_dict; round-trips through JSON."""
    data = dataclasses.asdict(config)
    data["solver"]["lambda"] = data["solver"].pop("lam")
    return data


@functools.cache
def _version_string() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"fedad-{__version__}+{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):  # no git, or one that hangs
        pass
    return f"fedad-{__version__}"


def run_experiment(config: ExperimentConfig) -> ResultBundle:
    """Execute the full seeded pipeline for every requested detector.

    Each stage holds only its own data: FL trains first, before the
    evaluation events exist, and only its trained model outlives training.
    The events are then drawn once and scored by every detector in config
    order. FL's `runtime_s` covers its training, scoring and checkpoint;
    event synthesis counts for no detector.
    """
    seed = config.scenario.master_seed
    stage = "scenario generation"
    try:
        artifacts = build_scenario(config.scenario)
        if config.architecture == "colocated":
            artifacts = colocate(artifacts)
        history = checkpoint = None
        if "fl" in config.detectors:
            stage = "detector fl"
            t0 = time.perf_counter()
            params, training = run_training(
                artifacts, config.federation, substream(seed, "federation")
            )
            history = training.heldout_bce
            training_s = time.perf_counter() - t0
        stage = "evaluation event generation"
        events = build_dataset(
            artifacts.config, artifacts.beta, artifacts.pilots,
            config.eval_trials, substream(seed, "eval-events"),
        )
        results: dict[str, DetectorResult] = {}
        for detector in config.detectors:
            stage = f"detector {detector}"
            t0 = time.perf_counter()
            if detector == "fl":
                scores = score_events(params, events, artifacts.beta, artifacts.config.cluster_size)
                checkpoint = serialize_update(
                    LocalUpdate(params=params, weight=1.0, ap_index=0),
                    round_index=config.federation.rounds,
                )
                iters = config.federation.rounds
                t0 -= training_s  # FL's runtime includes its training
            else:
                scores, iters = detect(detector, config.solver, artifacts, events)
            trials = ScoredTrials(scores=scores.ravel(), truths=events.labels.ravel())
            macs1, macs4 = detector_macs(detector, artifacts.config, iters)
            if not np.all(np.isfinite(trials.scores)):
                raise ValueError("scores are not all finite")
            runtime = time.perf_counter() - t0
            results[detector] = DetectorResult(
                roc=roc_curve(trials),
                macs_complex1=macs1,
                macs_real4=macs4,
                iters=iters,
                runtime_s=runtime,
                trials=trials,
            )
    except (ValueError, FloatingPointError, RuntimeError) as exc:
        raise RuntimeError(f"stage failed: {stage}: {exc}") from exc
    return ResultBundle(results=results, checkpoint=checkpoint, history=history)


def _format_sig(x: float) -> str:
    return f"{x:.9g}"


def emit_results(bundle: ResultBundle, config: ExperimentConfig) -> list[Path]:
    """Write the requested output files; returns the paths written."""
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output dir {out}: {exc}") from exc
    written: list[Path] = []
    arch = config.architecture
    try:
        if "roc_csv" in config.emit:
            for detector, res in bundle.results.items():
                path = out / f"roc_{detector}_{arch}.csv"
                lines = ["detector,architecture,threshold,fpr,tpr"]
                for thr, fpr, tpr in res.roc.points:
                    lines.append(
                        f"{detector},{arch},{_format_sig(thr)},"
                        f"{_format_sig(fpr)},{_format_sig(tpr)}"
                    )
                path.write_text("\n".join(lines) + "\n")
                written.append(path)
        if "summary_json" in config.emit:
            path = out / "summary.json"
            payload = {
                detector: {
                    "auc": res.roc.auc,
                    "macs_complex1": res.macs_complex1,
                    "macs_real4": res.macs_real4,
                    "iters": res.iters,
                    "runtime_s": res.runtime_s,
                }
                for detector, res in bundle.results.items()
            }
            doc = {
                **payload,
                "config_echo": config_to_dict(config),
                "seed": config.scenario.master_seed,
                "version": _version_string(),
            }
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            written.append(path)
        if "history_csv" in config.emit and bundle.history is not None:
            path = out / f"history_fl_{arch}.csv"
            lines = ["round,heldout_bce"]
            for rnd, bce in enumerate(bundle.history):
                lines.append(f"{rnd},{_format_sig(bce)}")
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
        if "checkpoints" in config.emit and bundle.checkpoint is not None:
            path = out / f"model_fl_{arch}.bin"
            path.write_bytes(bundle.checkpoint)
            written.append(path)
    except OSError as exc:
        raise RuntimeError(f"failed writing results under {out}: {exc}") from exc
    return written


def _mac_table(config: ExperimentConfig) -> str:
    cfg = config.scenario
    if config.architecture == "colocated":
        cfg = colocate(build_scenario(cfg)).config
    per_ap = str(slp_macs_per_ap(cfg))
    fl_network, _ = detector_macs("fl", cfg, 0)
    rows = [
        ("detector", "macs_complex1", "macs_real4", "iters"),
        ("fl_per_ap", per_ap, per_ap, "-"),
        ("fl_network", str(fl_network), str(fl_network), "-"),
    ]
    solver = config.solver
    macs = {}
    for detector in BASELINES:
        iters = solver.amp_iters if detector == "amp" else solver.max_iters
        macs[detector] = detector_macs(detector, cfg, iters)
        rows.append((detector, *map(str, macs[detector]), str(iters)))
    amp_c1, amp_c4 = macs["amp"]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    lines.append(
        "amp/fl network ratio: "
        f"{amp_c1 / fl_network:.3f} (complex MAC = 1 real MAC), "
        f"{amp_c4 / fl_network:.3f} (complex MAC = 4 real MACs)"
    )
    return "\n".join(lines)


def _apply_cli_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """The config with the run flags set, rebuilt through config_from_dict
    so that a flag's value is checked, and named, as the file's would be."""
    data = config_to_dict(config)
    if getattr(args, "seed", None) is not None:
        data["scenario"]["master_seed"] = args.seed
    if getattr(args, "out", None) is not None:
        data["output_dir"] = args.out
    if getattr(args, "detectors", None) is not None:
        data["detectors"] = [d.strip() for d in args.detectors.split(",") if d.strip()]
    if getattr(args, "arch", None) is not None:
        data["architecture"] = args.arch
    return config_from_dict(data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedad",
        description="Seeded activity-detection experiments: federated SLP "
        "detector vs sparse-recovery baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment and write results")
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override master seed")
    run_p.add_argument("--out", default=None, help="override output directory")
    run_p.add_argument(
        "--detectors", default=None, help=f"comma-separated subset of {','.join(ALL_DETECTORS)}"
    )
    run_p.add_argument("--arch", choices=ARCHITECTURES, default=None)

    val_p = sub.add_parser("validate", help="parse and validate a config")
    val_p.add_argument("--config", required=True)

    mac_p = sub.add_parser("macs", help="print the MAC-cost table without running")
    mac_p.add_argument("--config", required=True)
    mac_p.add_argument("--arch", choices=ARCHITECTURES, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        config = _apply_cli_overrides(config, args)
    except ValueError as exc:  # ConfigError, or json refusing a 5,000-digit integer
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print("config ok")
        return EXIT_OK
    if args.command == "macs":
        print(_mac_table(config))
        return EXIT_OK

    try:
        bundle = run_experiment(config)
        written = emit_results(bundle, config)
    except (RuntimeError, FloatingPointError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in written:
        print(f"wrote {path}")
    for detector, res in bundle.results.items():
        print(f"{detector}: auc={res.roc.auc:.6f} runtime={res.runtime_s:.2f}s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
