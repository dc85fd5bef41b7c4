"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line when it holds (run with -s to see them
on success; pytest -v shows one verdict per criterion either way)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    _reference_row_soft_threshold,
    exhaustive_ls_support,
    finite_difference_grads,
    orthonormal_dictionary,
    unit_column_dictionary,
)

import fedad
from fedad.baselines import (
    MmvProblem,
    SolverConfig,
    amp,
    fista,
    ista,
)
from fedad.cli import config_from_dict, parse_config, run_experiment
from fedad.evaluation import (
    ScoredTrials,
    auc_rank_oracle,
    detector_macs,
    roc_curve,
    slp_macs_per_ap,
)
from fedad.federation import (
    FederationConfig,
    LocalUpdate,
    aggregate,
    deserialize_update,
    run_training,
    serialize_update,
)
from fedad.rng import substream
from fedad.scenario import ScenarioConfig, build_scenario
from fedad.slp import SlpParams, backward, init_params

REPO = Path(__file__).resolve().parent.parent


def _report(n, label):
    print(f"\nACCEPTANCE {n}: PASS - {label}")


def scalar_params(value):
    return SlpParams(
        w1=np.array([[value]]), b1=np.array([value]),
        w2=np.array([[value]]), b2=np.array([value]),
    )


def params_equal(a, b):
    return np.array_equal(a.flat, b.flat)


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(10001)
    worst = 0.0
    for _ in range(100):
        v = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        f = int(rng.integers(2, 8))
        params = SlpParams(
            w1=rng.normal(0, 0.5, size=(v, f)),
            b1=rng.normal(0, 0.2, size=v),
            w2=rng.normal(0, 0.5, size=(k, v)),
            b2=rng.normal(0, 0.2, size=k),
        )
        for _ in range(50):
            x = rng.normal(0, 1.0, size=f)
            if np.min(np.abs(params.w1 @ x + params.b1)) > 1e-3:
                break
        labels = (rng.random(k) < 0.4).astype(np.int8)
        analytic = backward(params, x[None], labels[None]).flat
        numeric = finite_difference_grads(params, x[None], labels[None], step=1e-5)
        rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"max relative gradient error {worst}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    _report(1, f"backward matches finite differences (worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_solver_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20002)

    # Orthonormal dictionary: both solvers land on the analytic prox.
    q = orthonormal_dictionary(rng, 8)
    y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    prob = MmvProblem(dictionary=q, rho=1.0)
    closed = _reference_row_soft_threshold(q.conj().T @ y, 0.2)
    solver = SolverConfig(lam=0.2, max_iters=500, tol=1e-15)
    for solve in (ista, fista):
        est = solve(prob, y, solver)
        assert np.max(np.abs(est.x_hat - closed)) < 1e-6

    # Seeded 40x100 instance: FISTA hits gap 1e-6 no later than ISTA.
    ell, k, c = 40, 100, 8
    a = unit_column_dictionary(rng, ell, k)
    x = np.zeros((k, c), complex)
    active = rng.choice(k, 10, replace=False)
    x[active] = (rng.standard_normal((10, c)) + 1j * rng.standard_normal((10, c))) / np.sqrt(2)
    noise = 0.05 * (rng.standard_normal((ell, c)) + 1j * rng.standard_normal((ell, c)))
    prob, y = MmvProblem(dictionary=a, rho=1.0), a @ x + noise
    lam = 0.05 * np.sqrt(2 * np.log(k)) * np.sqrt(c)
    cfg = SolverConfig(lam=lam, max_iters=4000, tol=0.0)
    est_i = ista(prob, y, cfg)
    est_f = fista(prob, y, cfg)
    f_star = min(est_i.objective_trace.min(), est_f.objective_trace.min())
    first_i = int(np.argmax(est_i.objective_trace <= f_star + 1e-6))
    first_f = int(np.argmax(est_f.objective_trace <= f_star + 1e-6))
    assert est_i.objective_trace[first_i] <= f_star + 1e-6
    assert first_f <= first_i, f"FISTA {first_f} vs ISTA {first_i}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"solver oracle check took {elapsed:.1f}s"
    _report(2, f"closed-form match and FISTA {first_f} <= ISTA {first_i} iterations ({elapsed:.1f}s)")


def test_criterion_3_amp_small_instance_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(30003)
    trials, hits = 200, 0
    for _ in range(trials):
        k = int(rng.integers(6, 13))
        ell = max(4, k - 2)
        n_active = int(rng.integers(1, 3))
        a = unit_column_dictionary(rng, ell, k)
        x = np.zeros((k, 4), complex)
        active = rng.choice(k, n_active, replace=False)
        x[active] = (
            rng.standard_normal((n_active, 4)) + 1j * rng.standard_normal((n_active, 4))
        ) / np.sqrt(2)
        prob, y = MmvProblem(dictionary=a, rho=1.0), a @ x
        est = amp(prob, y, SolverConfig(lam=0.0, amp_iters=25, amp_alpha=1.5))
        top = set(np.argsort(-est.activity_stat)[:n_active].tolist())
        if top == exhaustive_ls_support(a, y, n_active):
            hits += 1
    elapsed = time.perf_counter() - started
    rate = hits / trials
    assert rate >= 0.90, f"AMP matched exhaustive search in only {rate:.0%}"
    assert elapsed < 60.0, f"AMP oracle check took {elapsed:.1f}s"
    _report(3, f"AMP support matches exhaustive search in {rate:.0%} of {trials} trials ({elapsed:.1f}s)")


def test_criterion_4_roc_correctness():
    rng = np.random.default_rng(40004)
    scores = rng.normal(size=1000)
    truths = (rng.random(1000) < 0.3).astype(np.int8)
    pooled = ScoredTrials(scores=scores, truths=truths)
    roc = roc_curve(pooled)
    assert abs(roc.auc - auc_rank_oracle(pooled)) < 1e-9

    tied = ScoredTrials(scores=rng.integers(0, 7, 1000).astype(float), truths=truths)
    assert abs(roc_curve(tied).auc - auc_rank_oracle(tied)) < 1e-9

    order = np.lexsort((roc.tpr, roc.fpr))
    assert np.all(np.diff(roc.tpr[order]) >= 0)

    perfect = ScoredTrials(
        scores=np.array([0.9, 0.8, 0.1, 0.2]),
        truths=np.array([1, 1, 0, 0], dtype=np.int8),
    )
    assert roc_curve(perfect).auc == 1.0
    constant = ScoredTrials(
        scores=np.full(6, 0.3), truths=np.array([1, 0, 1, 0, 0, 1], dtype=np.int8)
    )
    assert roc_curve(constant).auc == 0.5
    _report(4, "trapezoid AUC equals rank oracle; staircase and endpoints exact")


def test_criterion_5_federation_algebra_and_privacy_shape():
    # Identity, weighted mean, scaling, permutation: bit-exact.
    p = scalar_params(0.813)
    assert params_equal(aggregate([LocalUpdate(params=p, weight=3.0, ap_index=0)]), p)

    pair = [
        LocalUpdate(params=scalar_params(0.0), weight=1.0, ap_index=0),
        LocalUpdate(params=scalar_params(4.0), weight=3.0, ap_index=1),
    ]
    assert aggregate(pair).w1[0, 0] == 3.0

    rng = np.random.default_rng(50005)
    updates = [
        LocalUpdate(params=scalar_params(rng.normal()), weight=w, ap_index=i)
        for i, w in enumerate([1.0, 0.5, 2.0, 4.0])
    ]
    reference = aggregate(updates)
    assert params_equal(aggregate(list(reversed(updates))), reference)
    scaled = [
        LocalUpdate(params=u.params, weight=4.0 * u.weight, ap_index=u.ap_index)
        for u in updates
    ]
    assert params_equal(aggregate(scaled), reference)

    # E = 0 rounds change nothing.
    cfg = ScenarioConfig(
        num_aps=3, antennas_per_ap=2, num_devices=6, pilot_len=4,
        hidden_units=8, cluster_size=2, master_seed=50,
    )
    artifacts = build_scenario(cfg)
    fed = FederationConfig(
        rounds=2, local_epochs=0, batch_size=4, train_samples=4, eval_samples=4
    )
    params, _ = run_training(artifacts, fed, substream(0, "fed"))
    assert params_equal(params, init_params(cfg, substream(0, "fed").spawn(4)[0]))

    # Privacy shape at full network dimensions: the AP-to-CPU payload
    # carries the four parameter tensors and one scalar weight, and no
    # array field has the size of a raw observation (L*N complex or
    # 2*L*N real).
    full = ScenarioConfig()
    update = LocalUpdate(
        params=init_params(full, substream(1, "init")), weight=7.0, ap_index=2
    )
    shipped = deserialize_update(serialize_update(update, round_index=4))[1].params
    array_fields = {name: getattr(shipped, name).size for name in ("w1", "b1", "w2", "b2")}
    assert sum(array_fields.values()) == shipped.flat.size
    raw_signal_sizes = {
        full.pilot_len * full.antennas_per_ap,
        2 * full.pilot_len * full.antennas_per_ap,
    }
    for name, size in array_fields.items():
        assert size not in raw_signal_sizes, f"{name} aliases a raw-signal shape"
    _report(5, "aggregation algebra bit-exact; update wire format is parameters-only")


@pytest.fixture(scope="module")
def desk_bundles():
    config = parse_config(REPO / "configs" / "desk.json")
    started = time.perf_counter()
    cellfree = run_experiment(config)
    colocated_cfg = config_from_dict(
        {**json.loads((REPO / "configs" / "desk.json").read_text()), "architecture": "colocated",
         "detectors": ["fl"]}
    )
    colocated = run_experiment(colocated_cfg)
    elapsed = time.perf_counter() - started
    return cellfree, colocated, elapsed


def test_criterion_6_desk_scale_roc_reproduction(desk_bundles):
    cellfree, colocated, elapsed = desk_bundles
    fl = cellfree.results["fl"].roc.auc
    ista_auc = cellfree.results["ista"].roc.auc
    fista_auc = cellfree.results["fista"].roc.auc
    colocated_fl = colocated.results["fl"].roc.auc

    assert fl > ista_auc, f"fl {fl:.4f} <= ista {ista_auc:.4f}"
    assert fl > fista_auc, f"fl {fl:.4f} <= fista {fista_auc:.4f}"
    assert fl >= colocated_fl, f"cellfree {fl:.4f} < colocated {colocated_fl:.4f}"
    assert fl > 0.85, f"fl auc {fl:.4f} below the 0.85 floor"

    # Training makes real progress: the final held-out loss is below half
    # the first-round value.
    history = cellfree.history
    assert history[-1] < 0.5 * history[0], (
        f"held-out bce {history[-1]:.4f} vs round-0 {history[0]:.4f}"
    )
    assert elapsed < 600.0, f"desk experiment took {elapsed:.0f}s"
    amp_auc = cellfree.results["amp"].roc.auc if "amp" in cellfree.results else None
    _report(
        6,
        f"fl={fl:.4f} > ista={ista_auc:.4f}/fista={fista_auc:.4f} (amp={amp_auc:.4f}); "
        f"colocated={colocated_fl:.4f}; bce {history[0]:.3f}->{history[-1]:.3f} "
        f"({elapsed:.0f}s)",
    )


def test_criterion_7_mac_cost_claim(capsys):
    from fedad.cli import main

    cfg = ScenarioConfig()  # default full-scale dimensions
    assert slp_macs_per_ap(cfg) == 133_120
    slp, _ = detector_macs("fl", cfg, 0)
    assert slp == 2_662_400

    ratios = [macs / slp for macs in detector_macs("amp", cfg, 25)]
    assert min(ratios) <= 6.0 <= max(ratios), f"ratios {ratios} do not bracket 6x"
    for r in ratios:
        # Quoted to three significant figures, both ratios land in [3, 12].
        assert 2.995 <= r <= 12.049, f"ratio {r} outside [3, 12]"

    config_path = REPO / "configs" / "paper.json"
    assert main(["macs", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "133120" in out
    _report(7, f"per-AP SLP MACs 133120; AMP/FL ratios {ratios[0]:.2f} and {ratios[1]:.2f}")


def _run_cli(config_path, out_dir, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fedad.__file__).resolve().parent.parent)
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    result = subprocess.run(
        [
            sys.executable, "-m", "fedad.cli", "run",
            "--config", str(config_path), "--seed", "7", "--out", str(out_dir),
        ],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert result.returncode == 0, result.stderr
    return {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}


def test_criterion_8_byte_determinism(tmp_path):
    config_path = REPO / "configs" / "paper.json"
    out = tmp_path / "results"
    first = _run_cli(config_path, out, threads=1)
    second = _run_cli(config_path, out, threads=4)
    assert first.keys() == second.keys()
    for name in first:
        if name == "summary.json":
            continue
        assert first[name] == second[name], f"{name} differs between runs"

    # summary.json carries wall-clock runtimes; everything else in it must
    # match exactly.
    def masked(blob):
        doc = json.loads(blob)
        for key, value in doc.items():
            if isinstance(value, dict) and "runtime_s" in value:
                value["runtime_s"] = None
        return json.dumps(doc, sort_keys=True)

    assert masked(first["summary.json"]) == masked(second["summary.json"])
    _report(8, "CSV outputs byte-identical across runs and thread counts")
