"""Self-test of the benchmark harness on smoke-sized shapes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, experiment_configs  # noqa: E402

ROOT = HERE.parent


def _bench(trace: int) -> tuple[dict, dict]:
    """Run the smoke workload; returns the printed result and result.json."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "smoke" / "result.json").read_text())
    return printed, record


@pytest.fixture(scope="module")
def plain():
    return _bench(0)


@pytest.fixture(scope="module")
def traced():
    return _bench(1)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_benchmark_json(spec):
    def triples(entries):
        return [(m["name"], m["unit"], m["better"]) for m in entries]

    assert triples(spec["end_to_end"]) == run.END_TO_END
    assert triples(spec["per_layer"]) == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace, plain, traced):
    printed, _ = traced if trace else plain
    specs = run.PER_LAYER if trace else run.END_TO_END
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True and printed["failed"] == 0
    assert printed["attempted"] >= (2 if trace else 1)
    assert list(printed["metrics"]) == [name for name, _, _ in specs]
    for name, unit, _ in specs:
        assert printed["metrics"][name]["unit"] == unit
        assert isinstance(printed["metrics"][name]["value"], (int, float))


def test_good_runs_pass_the_checks(traced):
    _, record = traced
    reps = record["reps"]
    assert any("layers" in r for r in reps)
    for rep in reps:
        assert run.rep_failures(rep, record["configs"], reps[0]) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rep: rep.update(error="boom"),
        lambda rep: rep["experiments"][1]["detectors"]["amp"].update(finite=False),
        lambda rep: rep["experiments"][2]["detectors"]["ista"].update(
            auc_summary=rep["experiments"][2]["detectors"]["ista"]["auc_exact"]
            + 2 * run.AUC_TOLERANCE),
        lambda rep: rep["detectors"]["fl"].update(
            auc_exact=rep["detectors"]["fl"]["auc_exact"] * (1 + 1e-15)),
        lambda rep: rep["experiments"][0].update(roc_digest="0" * 64),
        lambda rep: rep["detectors"].pop("fista"),
        lambda rep: rep["experiments"].pop(),
        lambda rep: rep["blas_env"].update(OPENBLAS_NUM_THREADS="2"),
    ],
    ids=["raised", "non-finite", "summary-auc", "auc-bits", "digest", "detector", "experiment",
         "blas"],
)
def test_checks_fail_on_a_corrupted_result(traced, corrupt):
    _, record = traced
    reference = record["reps"][0]
    bad = copy.deepcopy(reference)
    corrupt(bad)
    assert run.rep_failures(bad, record["configs"], reference)


@pytest.mark.parametrize(
    "name",
    ["slp.backward.calls", "slp.adam_step.calls", "channel.build_dataset.events",
     "baselines.ista.calls", "baselines.fista.calls", "baselines.amp.calls",
     "evaluation.roc_curve.calls"],
)
def test_count_audit_fails_on_a_corrupted_count(traced, name):
    _, record = traced
    rep = next(r for r in record["reps"] if "layers" in r)
    assert run.audit_counts(rep["layers"], record["configs"]) == []
    bad = copy.deepcopy(rep)
    bad["layers"][name] += 1
    assert run.audit_counts(bad["layers"], record["configs"])
    assert run.rep_failures(bad, record["configs"], record["reps"][0])


def test_time_metrics_sum_per_experiment_medians():
    def rep(*times):
        return {"experiments": [{"run_s": t} for t in times]}

    reps = [rep(1.0, 10.0), rep(9.0, 11.0), rep(2.0, 30.0)]
    assert run.summed_medians(reps, lambda e: e["run_s"]) == 2.0 + 11.0
    assert run.summed_medians(reps, lambda e: e["run_s"] if e["run_s"] < 10 else None) == 2.0


def test_reference_scale_is_one_at_nominal_speed():
    assert reference.scale([reference.NOMINAL_S] * 3) == 1.0
    assert reference.scale([2 * reference.NOMINAL_S, 9.0, 0.0]) == 0.5
    assert all(t > 0 for t in reference.chunk())


def test_workload_configs_parse():
    sys.path.insert(0, str(ROOT / "src"))
    from fedad.cli import config_from_dict

    for name in WORKLOADS:
        configs = [config_from_dict(c) for c in experiment_configs(name, 7, "out")]
        assert [c.scenario.master_seed for c in configs] == list(range(700, 700 + len(configs)))
