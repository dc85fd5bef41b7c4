#!/usr/bin/env python3
"""Output manifest: run a fixed set of shipped experiments and record, in
one JSON file, what each one wrote, so that "which output bytes moved"
between two checkouts is one comparison.

    python3 scripts/output_manifest.py --out manifest.json [--desk]
    python3 scripts/output_manifest.py --compare before.json after.json

Each run is `python -m fedad.cli run` on this checkout's `src/`, with all
four emit kinds. The set is `configs/smoke.json` at seeds 0-2 and
`configs/paper.json --seed 7` in both layouts; `--desk` adds
`configs/desk.json` (seed 42) in both layouts, which takes minutes.

Per run the manifest holds the sha256 of every output file, with
`summary.json` hashed after masking what differs between identical runs
(each `runtime_s`, `version` and the echoed `output_dir`); every AUC as
`repr(float)`; and each detector's `iters` and MACs. The summary's
`config_echo` is hashed apart from the rest of it, as `config_echo`, so
that a change to the config schema and a change to the results show as
different lines in `--compare`. It also records the
machine: cores, BLAS build, numpy and Python. The digests depend on the
BLAS build and the CPU, so compare manifests taken on one machine; the
run-to-run check is acceptance criterion 8.

The manifest also holds the `fedad macs` table of each (config, layout)
it runs, as printed; the table does not depend on the seed.

Each run also records `peak_rss_mb`, the run's peak resident set size
(the child's `ru_maxrss`, from `os.wait4`). It varies from run to run, so
`--compare` does not read it.

`--compare` prints every file digest, config echo, AUC, iteration count,
MAC count and `fedad macs` table that differs between two manifests, one
per line, and exits 1 if any does.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
EMIT = ["roc_csv", "summary_json", "history_csv", "checkpoints"]

# (config file under configs/, master seed, architecture)
RUNS = [
    ("smoke", 0, "cellfree"),
    ("smoke", 1, "cellfree"),
    ("smoke", 2, "cellfree"),
    ("paper", 7, "cellfree"),
    ("paper", 7, "colocated"),
]
DESK_RUNS = [("desk", 42, "cellfree"), ("desk", 42, "colocated")]


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


def summary_digests(summary: dict) -> tuple[str, str]:
    """Digests of `summary` without its config echo, and of the echo, each
    with what differs between identical runs masked."""
    doc = {**summary, "version": None}
    echo = {**doc.pop("config_echo"), "output_dir": None}
    for key, value in doc.items():
        if isinstance(value, dict) and "runtime_s" in value:
            doc[key] = {**value, "runtime_s": None}
    return _digest(doc), _digest(echo)


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(REPO / "src")}


def macs_table(name: str, arch: str) -> str:
    """What `fedad macs` prints for one shipped config and layout."""
    argv = [
        sys.executable, "-m", "fedad.cli", "macs",
        "--config", str(REPO / "configs" / f"{name}.json"), "--arch", arch,
    ]
    return subprocess.run(
        argv, capture_output=True, text=True, check=True, env=cli_env(), cwd=REPO
    ).stdout


def run_one(name: str, seed: int, arch: str, work: Path) -> dict:
    """Run one experiment into `work` and describe what it wrote."""
    data = json.loads((REPO / "configs" / f"{name}.json").read_text())
    out = work / f"{name}_seed{seed}_{arch}"
    config_path = work / f"{out.name}.json"
    config_path.write_text(json.dumps({**data, "emit": EMIT}))
    argv = [
        sys.executable, "-m", "fedad.cli", "run", "--config", str(config_path),
        "--seed", str(seed), "--arch", arch, "--out", str(out),
    ]
    with tempfile.TemporaryFile("w+") as stderr:
        child = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=stderr, text=True, env=cli_env(), cwd=REPO
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        stderr.seek(0)
        errors = stderr.read()
    record = {"config": f"configs/{name}.json", "seed": seed, "arch": arch,
              "exit_code": child.returncode, "files": {}, "detectors": {},
              "peak_rss_mb": usage.ru_maxrss / 1024.0}  # ru_maxrss is in KiB on Linux
    if child.returncode != 0:
        record["stderr"] = errors.strip().splitlines()[-1:]
        return record
    for path in sorted(out.iterdir()):
        blob = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(blob)
            record["files"][path.name], record["config_echo"] = summary_digests(summary)
        else:
            record["files"][path.name] = hashlib.sha256(blob).hexdigest()
    for detector, res in summary.items():
        if not (isinstance(res, dict) and "auc" in res):
            continue
        record["detectors"][detector] = {
            "auc": repr(float(res["auc"])),
            "iters": res["iters"],
            "macs_complex1": res["macs_complex1"],
            "macs_real4": res["macs_real4"],
        }
    return record


def build_manifest(runs, work: Path) -> dict:
    return {
        "machine": machine(),
        "runs": {
            f"{name}_seed{seed}_{arch}": run_one(name, seed, arch, work)
            for name, seed, arch in runs
        },
        "macs_tables": {f"{name}_{arch}": macs_table(name, arch) for name, _, arch in runs},
    }


def compare(before: dict, after: dict) -> list[str]:
    """One line per recorded value that differs between two manifests."""
    lines = []
    for run in sorted(before["runs"].keys() | after["runs"].keys()):
        a, b = before["runs"].get(run), after["runs"].get(run)
        if a is None or b is None:
            lines.append(f"{run}: only in {'after' if a is None else 'before'}")
            continue
        if a["exit_code"] != b["exit_code"]:
            lines.append(f"{run}: exit code {a['exit_code']} -> {b['exit_code']}")
        for name in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"{run}: {name} moved")
        if a.get("config_echo") != b.get("config_echo"):
            lines.append(f"{run}: config_echo moved")
        for detector in sorted(a["detectors"].keys() | b["detectors"].keys()):
            da, db = a["detectors"].get(detector, {}), b["detectors"].get(detector, {})
            for key in sorted(da.keys() | db.keys()):
                if da.get(key) != db.get(key):
                    lines.append(f"{run}: {detector} {key} {da.get(key)} -> {db.get(key)}")
    tables_a, tables_b = before["macs_tables"], after["macs_tables"]
    for table in sorted(tables_a.keys() | tables_b.keys()):
        if tables_a.get(table) != tables_b.get(table):
            lines.append(f"{table}: fedad macs table moved")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="manifest path to write")
    parser.add_argument("--desk", action="store_true", help="also run configs/desk.json")
    parser.add_argument("--work", help="directory for the run outputs (default: a temporary one)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(before, after)
        print("\n".join(lines) if lines else "no recorded output moved")
        return 1 if lines else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    runs = RUNS + DESK_RUNS if args.desk else RUNS
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(args.work or scratch)
        work.mkdir(parents=True, exist_ok=True)
        manifest = build_manifest(runs, work)
    Path(args.out).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    failed = [run for run, rec in manifest["runs"].items() if rec["exit_code"] != 0]
    for run in failed:
        print(f"{run}: exit code {manifest['runs'][run]['exit_code']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
