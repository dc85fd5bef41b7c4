#!/usr/bin/env python3
"""Desk-scale detector comparison: federated SLP vs ISTA/FISTA/AMP on the
cell-free layout plus the colocated-array variant, with MAC costs.

Writes the cell-free results under results/desk/ and the colocated FL
run under results/desk_colocated/ (both relative to the working
directory), and prints a summary table. Runs in a couple of minutes on a
laptop.
"""

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from fedad.cli import config_from_dict, emit_results, parse_config, run_experiment


def main() -> None:
    config_path = REPO / "configs" / "desk.json"
    config = parse_config(config_path)
    t0 = time.time()
    print("running cell-free experiment (fl + baselines)...")
    cellfree = run_experiment(config)
    emit_results(cellfree, config)

    colocated_cfg = config_from_dict(
        {
            **json.loads(config_path.read_text()),
            "architecture": "colocated",
            "detectors": ["fl"],
            "output_dir": f"{config.output_dir}_colocated",
        }
    )
    print("running colocated variant (fl)...")
    colocated = run_experiment(colocated_cfg)
    emit_results(colocated, colocated_cfg)

    print(f"\ndone in {time.time() - t0:.0f}s\n")
    header = f"{'detector':<16}{'auc':>8}{'macs(c=1)':>12}{'macs(c=4)':>12}{'iters':>7}"
    print(header)
    print("-" * len(header))
    for name, res in cellfree.results.items():
        print(
            f"{name:<16}{res.roc.auc:>8.4f}{res.macs_complex1:>12}"
            f"{res.macs_real4:>12}{res.iters:>7}"
        )
    res = colocated.results["fl"]
    print(f"{'fl (colocated)':<16}{res.roc.auc:>8.4f}{res.macs_complex1:>12}"
          f"{res.macs_real4:>12}{res.iters:>7}")

    fl_macs = cellfree.results["fl"].macs_complex1
    if "amp" in cellfree.results:
        amp1 = cellfree.results["amp"].macs_complex1
        amp4 = cellfree.results["amp"].macs_real4
        print(
            f"\nAMP/FL network MAC ratio: {amp1 / fl_macs:.2f} (complex MAC = 1) "
            f"to {amp4 / fl_macs:.2f} (complex MAC = 4 real)"
        )


if __name__ == "__main__":
    main()
