"""scripts/run_desk_comparison.py, run end to end on a smoke-sized desk
config so that a renamed result field breaks a test, not the script."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_desk_comparison.py"

SMOKE_DESK = {
    "scenario": {
        "num_aps": 2, "antennas_per_ap": 2, "num_devices": 4, "pilot_len": 4,
        "hidden_units": 8, "cluster_size": 2, "master_seed": 5,
    },
    "federation": {
        "rounds": 1, "local_epochs": 1, "batch_size": 4,
        "train_samples": 8, "eval_samples": 4,
    },
    "solver": {"max_iters": 20},
    "detectors": ["fl", "ista", "fista", "amp"],
    "eval_trials": 4,
    "emit": ["roc_csv", "summary_json", "history_csv"],
}


def test_desk_script_writes_both_runs_and_the_table(tmp_path, capsys):
    out = tmp_path / "results" / "desk"
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "desk.json").write_text(
        json.dumps({**SMOKE_DESK, "output_dir": str(out)})
    )
    spec = importlib.util.spec_from_file_location("run_desk_comparison", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.REPO = tmp_path

    script.main()

    assert (out / "summary.json").is_file()
    assert (tmp_path / "results" / "desk_colocated" / "summary.json").is_file()
    rows = {line[:20].strip() for line in capsys.readouterr().out.splitlines()}
    names = ["fl", "ista", "fista", "amp"]
    assert {*names, *(f"{name} (colocated)" for name in names)} <= rows
