"""scripts/output_manifest.py, run end to end on one smoke run so that a
renamed output or summary field breaks a test, not the script."""

import importlib.util
import json
from pathlib import Path

from fedad.cli import main as fedad_main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_manifest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_manifest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_manifest_schema_and_compare(tmp_path, capsys):
    script = load_script()
    script.RUNS = [("smoke", 0, "cellfree")]
    out = tmp_path / "manifest.json"

    assert script.main(["--out", str(out), "--work", str(tmp_path / "runs")]) == 0

    manifest = json.loads(out.read_text())
    assert {"cores", "usable_cores", "blas", "numpy", "python"} <= manifest["machine"].keys()
    run = manifest["runs"]["smoke_seed0_cellfree"]
    assert run["exit_code"] == 0
    assert set(run["files"]) == {
        "roc_fl_cellfree.csv", "summary.json", "history_fl_cellfree.csv", "model_fl_cellfree.bin",
    }
    assert all(len(digest) == 64 for digest in run["files"].values())
    assert len(run["config_echo"]) == 64
    assert run["peak_rss_mb"] > 0
    fl = run["detectors"]["fl"]
    summary = json.loads((tmp_path / "runs" / "smoke_seed0_cellfree" / "summary.json").read_text())
    # The config echo is hashed apart: an echo that gains a key moves the
    # echo's digest and not the summary's.
    echoed = {**summary, "config_echo": {**summary["config_echo"], "extra": 1}}
    digests, echoed_digests = script.summary_digests(summary), script.summary_digests(echoed)
    assert digests == (run["files"]["summary.json"], run["config_echo"])
    assert echoed_digests[0] == digests[0] and echoed_digests[1] != digests[1]
    assert fl["auc"] == repr(summary["fl"]["auc"])
    assert (fl["iters"], fl["macs_complex1"], fl["macs_real4"]) == (
        summary["fl"]["iters"], summary["fl"]["macs_complex1"], summary["fl"]["macs_real4"],
    )

    # The `fedad macs` table of the run's config and layout, as printed.
    capsys.readouterr()
    assert fedad_main(["macs", "--config", str(SCRIPT.parents[1] / "configs" / "smoke.json"),
                       "--arch", "cellfree"]) == 0
    assert manifest["macs_tables"] == {"smoke_cellfree": capsys.readouterr().out}

    # The masked summary digest ignores the run's timings and output path.
    assert script.main(["--out", str(tmp_path / "again.json"),
                        "--work", str(tmp_path / "elsewhere")]) == 0
    capsys.readouterr()
    assert script.main(["--compare", str(out), str(tmp_path / "again.json")]) == 0
    assert capsys.readouterr().out.strip() == "no recorded output moved"

    # The peak RSS is not deterministic, so it is recorded but not compared.
    again = json.loads((tmp_path / "again.json").read_text())
    assert again["runs"]["smoke_seed0_cellfree"]["peak_rss_mb"] > 0
    again["runs"]["smoke_seed0_cellfree"]["peak_rss_mb"] = 2 * run["peak_rss_mb"]
    (tmp_path / "heavier.json").write_text(json.dumps(again))
    assert script.main(["--compare", str(out), str(tmp_path / "heavier.json")]) == 0
    assert capsys.readouterr().out.strip() == "no recorded output moved"

    moved = json.loads(out.read_text())
    moved["runs"]["smoke_seed0_cellfree"]["detectors"]["fl"]["auc"] = "0.5"
    (tmp_path / "moved.json").write_text(json.dumps(moved))
    assert script.main(["--compare", str(out), str(tmp_path / "moved.json")]) == 1
    assert capsys.readouterr().out.strip() == (
        f"smoke_seed0_cellfree: fl auc {fl['auc']} -> 0.5"
    )

    repriced = json.loads(out.read_text())
    repriced["macs_tables"]["smoke_cellfree"] += "a row more\n"
    (tmp_path / "repriced.json").write_text(json.dumps(repriced))
    assert script.main(["--compare", str(out), str(tmp_path / "repriced.json")]) == 1
    assert capsys.readouterr().out.strip() == "smoke_cellfree: fedad macs table moved"

    reconfigured = json.loads(out.read_text())
    reconfigured["runs"]["smoke_seed0_cellfree"]["config_echo"] = "0" * 64
    (tmp_path / "reconfigured.json").write_text(json.dumps(reconfigured))
    assert script.main(["--compare", str(out), str(tmp_path / "reconfigured.json")]) == 1
    assert capsys.readouterr().out.strip() == "smoke_seed0_cellfree: config_echo moved"
