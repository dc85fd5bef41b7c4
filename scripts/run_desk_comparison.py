#!/usr/bin/env python3
"""Desk-scale detector comparison: federated SLP vs ISTA/FISTA/AMP on the
cell-free layout and on the colocated-array variant, with MAC costs.

Writes the cell-free results under results/desk/ and the colocated
results under results/desk_colocated/ (both relative to the working
directory), and prints one table row per detector and layout.
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
            "output_dir": f"{config.output_dir}_colocated",
        }
    )
    print("running colocated variant (fl + baselines)...")
    colocated = run_experiment(colocated_cfg)
    emit_results(colocated, colocated_cfg)

    print(f"\ndone in {time.time() - t0:.0f}s\n")
    header = f"{'detector':<20}{'auc':>8}{'macs(c=1)':>12}{'macs(c=4)':>12}{'iters':>7}"
    print(header)
    print("-" * len(header))
    rows = [*cellfree.results.items()]
    rows += [(f"{name} (colocated)", res) for name, res in colocated.results.items()]
    for name, res in rows:
        print(
            f"{name:<20}{res.roc.auc:>8.4f}{res.macs_complex1:>12}"
            f"{res.macs_real4:>12}{res.iters:>7}"
        )

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
