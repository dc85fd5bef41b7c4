import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedad
from fedad.baselines import BASELINES
from fedad.cli import (
    ALL_DETECTORS,
    ConfigError,
    _version_string,
    config_from_dict,
    config_to_dict,
    emit_results,
    main,
    parse_config,
    run_experiment,
)

SMOKE = {
    "scenario": {
        "num_aps": 2, "antennas_per_ap": 2, "num_devices": 4, "pilot_len": 4,
        "hidden_units": 8, "cluster_size": 2, "master_seed": 5,
    },
    "federation": {
        "rounds": 1, "local_epochs": 1, "batch_size": 4,
        "train_samples": 8, "eval_samples": 4,
    },
    "solver": {"max_iters": 20},
    "detectors": ["fl"],
    "eval_trials": 2,
    "emit": ["roc_csv", "summary_json", "history_csv"],
}


def smoke_config(tmp_path, **overrides):
    data = json.loads(json.dumps(SMOKE))
    data.update(overrides)
    data["output_dir"] = str(tmp_path / "out")
    return config_from_dict(data)


class TestParseConfig:
    def test_empty_object_gives_full_defaults(self):
        cfg = config_from_dict({})
        sc = cfg.scenario
        assert (sc.num_aps, sc.antennas_per_ap, sc.num_devices) == (20, 2, 100)
        assert (sc.pilot_len, sc.hidden_units, sc.cluster_size) == (40, 512, 4)
        assert sc.activation_prob == 0.1
        assert cfg.detectors == ("fl", "ista", "fista", "amp")
        assert cfg.architecture == "cellfree"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="scenario.*typo_key"):
            config_from_dict({"scenario": {"typo_key": 3}})

    def test_cluster_size_exceeds_aps(self):
        with pytest.raises(ConfigError, match="cluster_size"):
            config_from_dict({"scenario": {"cluster_size": 99, "num_aps": 8}})

    def test_unknown_detector(self):
        with pytest.raises(ConfigError, match="detector"):
            config_from_dict({"detectors": ["fl", "mystery"]})

    def test_round_trip(self):
        cfg = config_from_dict({
            "scenario": {"num_aps": 8, "cluster_size": 3},
            "federation": {"rounds": 4, "server_mode": "plain-average"},
            "solver": {"lambda": 0.25, "max_iters": 50},
            "detectors": ["amp", "fl"],
            "architecture": "colocated",
            "eval_trials": 7,
            "output_dir": "elsewhere",
            "emit": ["checkpoints"],
        })
        assert cfg.solver.lam == 0.25 and cfg.detectors == ("amp", "fl")
        assert cfg.emit == ("checkpoints",)
        assert config_to_dict(cfg)["solver"]["lambda"] == 0.25
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg

    def test_lambda_null_means_auto(self):
        cfg = config_from_dict({"solver": {"lambda": None}})
        assert cfg.solver.lam is None
        cfg2 = config_from_dict({"solver": {"lambda": 0.5}})
        assert cfg2.solver.lam == 0.5

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.json")


class TestRunExperiment:
    def test_smoke_run_writes_roc(self, tmp_path):
        cfg = smoke_config(tmp_path)
        bundle = run_experiment(cfg)
        written = emit_results(bundle, cfg)
        roc_path = tmp_path / "out" / "roc_fl_cellfree.csv"
        assert roc_path in written
        lines = roc_path.read_text().strip().splitlines()
        assert lines[0] == "detector,architecture,threshold,fpr,tpr"
        assert len(lines) >= 3  # header plus at least two sweep points

    def test_determinism_byte_identical(self, tmp_path):
        cfg = smoke_config(tmp_path, detectors=["fl", "ista", "amp"])
        bundle1 = run_experiment(cfg)
        emit_results(bundle1, cfg)
        first = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir()
            if p.suffix == ".csv"
        }
        bundle2 = run_experiment(cfg)
        emit_results(bundle2, cfg)
        second = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir()
            if p.suffix == ".csv"
        }
        assert first == second

    def test_summary_auc_full_precision(self, tmp_path):
        cfg = smoke_config(tmp_path)
        bundle = run_experiment(cfg)
        emit_results(bundle, cfg)
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["fl"]["auc"] == bundle.results["fl"].roc.auc
        assert set(doc["fl"]) == {"auc", "macs_complex1", "macs_real4", "iters", "runtime_s"}
        assert doc["seed"] == 5
        assert "config_echo" in doc and "version" in doc

    def test_history_schema(self, tmp_path):
        cfg = smoke_config(tmp_path)
        emit_results(run_experiment(cfg), cfg)
        lines = (tmp_path / "out" / "history_fl_cellfree.csv").read_text().splitlines()
        assert lines[0] == "round,heldout_bce"
        assert len(lines) == 1 + cfg.federation.rounds

    def test_colocated_architecture(self, tmp_path):
        cfg = smoke_config(tmp_path, architecture="colocated")
        bundle = run_experiment(cfg)
        written = emit_results(bundle, cfg)
        assert (tmp_path / "out" / "roc_fl_colocated.csv") in written

    def test_checkpoint_emission(self, tmp_path):
        cfg = smoke_config(tmp_path, emit=["checkpoints"])
        written = emit_results(run_experiment(cfg), cfg)
        from fedad.federation import deserialize_update, run_training
        from fedad.rng import substream
        from fedad.scenario import build_scenario

        blob = written[0].read_bytes()
        rnd, update = deserialize_update(blob)
        assert rnd == cfg.federation.rounds
        assert (update.weight, update.ap_index) == (1.0, 0)
        assert update.params.w2.shape == (4, 8)
        # The checkpoint is the trained global model, bit for bit.
        trained, _ = run_training(
            build_scenario(cfg.scenario), cfg.federation,
            substream(cfg.scenario.master_seed, "federation"),
        )
        assert np.array_equal(update.params.flat, trained.flat)

    def test_fl_trains_before_the_evaluation_events_are_drawn(self, tmp_path, monkeypatch):
        calls = []
        real_training, real_events = fedad.cli.run_training, fedad.cli.build_dataset

        def recording_training(*args):
            calls.append("run_training")
            result = real_training(*args)
            calls.append("run_training returned")
            return result

        def recording_events(config, beta, pilots, n_samples, stream):
            calls.append(f"build_dataset({n_samples})")
            return real_events(config, beta, pilots, n_samples, stream)

        monkeypatch.setattr("fedad.cli.run_training", recording_training)
        monkeypatch.setattr("fedad.cli.build_dataset", recording_events)
        cfg = smoke_config(tmp_path, detectors=["ista", "fl"], eval_trials=3)
        run_experiment(cfg)
        assert calls == ["run_training", "run_training returned", "build_dataset(3)"]

    def test_fl_runtime_covers_training_and_no_runtime_covers_synthesis(
        self, tmp_path, monkeypatch
    ):
        # A clock that only the wrapped stages advance: FL's runtime is
        # exactly its training delay, and drawing the events counts for
        # no detector.
        import types

        clock = [0.0]
        real_training, real_events = fedad.cli.run_training, fedad.cli.build_dataset

        def slow_training(*args):
            clock[0] += 7.0
            return real_training(*args)

        def slow_events(*args):
            clock[0] += 100.0
            return real_events(*args)

        monkeypatch.setattr("fedad.cli.time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr("fedad.cli.run_training", slow_training)
        monkeypatch.setattr("fedad.cli.build_dataset", slow_events)
        results = run_experiment(smoke_config(tmp_path, detectors=["ista", "fl"])).results
        assert results["fl"].runtime_s == 7.0
        assert results["ista"].runtime_s == 0.0

    def test_detector_order_does_not_move_scores(self, tmp_path):
        first = run_experiment(smoke_config(tmp_path, detectors=["fl", "ista"]))
        second = run_experiment(smoke_config(tmp_path, detectors=["ista", "fl"]))
        assert list(second.results) == ["ista", "fl"]
        for name in ("fl", "ista"):
            assert (
                first.results[name].trials.scores.tobytes()
                == second.results[name].trials.scores.tobytes()
            )
        assert first.checkpoint == second.checkpoint
        assert first.history == second.history

    @pytest.mark.parametrize("arch", ["cellfree", "colocated"])
    def test_baseline_scores_equal_per_event_solves(self, tmp_path, arch):
        # The runner decodes the events one at a time and fills in lam from
        # the experiment's scenario; scores must equal solving each event
        # on its own, against a problem built for that event, stacked here
        # by hand.
        import dataclasses

        from fedad.baselines import (
            MmvProblem,
            amp,
            default_lambda,
            fista,
            ista,
        )
        from fedad.channel import build_dataset, received_from_features
        from fedad.rng import substream
        from fedad.scenario import build_scenario, colocate

        # A strong uplink, so that every solver finds some active rows.
        scenario = {**SMOKE["scenario"], "area_side_km": 0.5, "tx_power": 1e12,
                    "activation_prob": 0.3}
        cfg = smoke_config(
            tmp_path, scenario=scenario, detectors=["ista", "fista", "amp"],
            eval_trials=3, architecture=arch, solver={"max_iters": 20},
        )
        results = run_experiment(cfg).results
        artifacts = build_scenario(cfg.scenario)
        if arch == "colocated":
            artifacts = colocate(artifacts)
        sc = artifacts.config
        events = build_dataset(
            sc, artifacts.beta, artifacts.pilots, cfg.eval_trials, substream(5, "eval-events")
        )
        solver = dataclasses.replace(cfg.solver, lam=default_lambda(sc))
        for name, solve in {"ista": ista, "fista": fista, "amp": amp}.items():
            expected = []
            for i in range(cfg.eval_trials):
                received = np.stack([
                    received_from_features(events.features[i, ap], sc.pilot_len, sc.antennas_per_ap)
                    for ap in range(sc.num_aps)
                ])
                problem = MmvProblem(np.sqrt(sc.tx_power) * artifacts.pilots, sc.tx_power)
                observations = np.concatenate(list(received), axis=1)
                expected.append(solve(problem, observations, solver).activity_stat)
            assert np.any(results[name].trials.scores > 0)
            assert np.array_equal(results[name].trials.scores, np.concatenate(expected))


class TestMainEntry:
    def _write(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, SMOKE)
        assert main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {"scenario": {"cluster_size": 99, "num_aps": 8}})
        assert main(["validate", "--config", str(path)]) == 2
        assert "cluster_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "top level: must be a JSON object"),
            ({"scenario": 3}, "scenario: must be a JSON object"),
            ({"federation": 3}, "federation: must be a JSON object"),
            ({"solver": 3}, "solver: must be a JSON object"),
            ({"emit": None}, "emit: must be a JSON list"),
            ({"eval_trials": 2.5}, "top level: eval_trials: must be an integer, got 2.5"),
            ({"scenario": {"num_aps": True}}, "scenario: num_aps: must be an integer, got true"),
            ({"solver": {"tol": "x"}}, 'solver: tol: must be a number, got "x"'),
            ({"solver": {"lam": 0.5}}, "solver: unknown key 'lam'"),
            ({"scenario": {"hidden_layers": 1}}, "scenario: unknown key 'hidden_layers'"),
            ({"lambda_scale": 1.0}, "top level: unknown key 'lambda_scale'"),
            ({"scenario": {"standardize_features": True}},
             "scenario: unknown key 'standardize_features'"),
            ({"scenario": {"shadow_std_db": 4.0}}, "scenario: unknown key 'shadow_std_db'"),
            ({"federation": {"weight_mode": "beta_sum"}},
             "federation: unknown key 'weight_mode'"),
            ({"scenario": {"activation_prob": 0.0}},
             "scenario: activation_prob: must lie in (0, 1), got 0.0"),
            ({"scenario": {"pathloss_intercept_db": -30.5}},
             "scenario: unknown key 'pathloss_intercept_db'"),
            ({"scenario": {"pathloss_exponent": 36.7}},
             "scenario: unknown key 'pathloss_exponent'"),
            ({"scenario": {"pathloss_floor_m": 10.0}}, "scenario: unknown key 'pathloss_floor_m'"),
            ({"federation": {"adam_beta1": 0.9}}, "federation: unknown key 'adam_beta1'"),
            ({"federation": {"adam_beta2": 0.999}}, "federation: unknown key 'adam_beta2'"),
            ({"federation": {"adam_eps": 1e-8}}, "federation: unknown key 'adam_eps'"),
            ({"federation": {"server_eps": 1e-8}}, "federation: unknown key 'server_eps'"),
            ({"solver": {"lambda": -1}}, "solver: lambda: must be >= 0, got -1"),
            ({"solver": {"max_iters": 0}}, "solver: max_iters: must be >= 1, got 0"),
            ({"solver": {"tol": -1e-3}}, "solver: tol: must be >= 0, got -0.001"),
            ({"solver": {"step_size": 0.01}}, "solver: unknown key 'step_size'"),
            ({"solver": {"amp_iters": -1}}, "solver: amp_iters: must be >= 0, got -1"),
            ({"solver": {"amp_alpha": -0.5}}, "solver: amp_alpha: must be >= 0, got -0.5"),
            ({"solver": {"amp_alpha": None}}, "solver: amp_alpha: must be a number, got null"),
            ({"detectors": []}, "top level: detectors: must not be empty"),
            ({"architecture": "mesh"}, "top level: architecture: must be one of"),
            ({"eval_trials": 0}, "top level: eval_trials: must be >= 1, got 0"),
            ({"emit": ["pdf"]}, "top level: emit: unknown output kind 'pdf'"),
        ],
        ids=["top level", "scenario", "federation", "solver", "emit",
             "float int", "bool int", "string float", "lam alias", "hidden_layers",
             "lambda_scale", "standardize_features", "shadow_std_db", "weight_mode",
             "activation_prob", "pathloss_intercept_db", "pathloss_exponent",
             "pathloss_floor_m", "adam_beta1", "adam_beta2", "adam_eps", "server_eps",
             "lambda", "max_iters", "tol", "step_size", "amp_iters", "amp_alpha",
             "amp_alpha null", "detectors empty", "architecture", "eval_trials",
             "emit kind"],
    )
    def test_validate_wrong_type_names_the_key(self, tmp_path, capsys, data, message):
        path = self._write(tmp_path, data)
        assert main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "number",
        ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="401-digits")],
    )
    @pytest.mark.parametrize(
        "template, where",
        [('{"solver": {"tol": %s}}', "solver: tol"),
         ('{"scenario": {"tx_power": %s}}', "scenario: tx_power")],
        ids=["tol", "tx_power"],
    )
    def test_validate_rejects_non_finite_numbers(self, tmp_path, capsys, number, template, where):
        # Python's json module reads the bare words as float values; the
        # 401-digit integer is beyond the float range.
        path = tmp_path / "config.json"
        path.write_text(template % number)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{where}: must be a finite number, got {number}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [('{"eval_trials": 0, "eval_trials": 5}', "eval_trials"),
         ('{"solver": {"tol": 1e-8, "max_iters": 9, "tol": 1e-6}}', "tol")],
        ids=["top level", "solver"],
    )
    def test_validate_rejects_duplicate_keys(self, tmp_path, capsys, text, key):
        # json.loads alone keeps the last value of a repeated key.
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"duplicate key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [pytest.param("adam_beta1", -0.1, "federation: unknown key 'adam_beta1'",
                      id="adam_beta1--0.1"),
         pytest.param("adam_beta1", 1.0, "federation: unknown key 'adam_beta1'",
                      id="adam_beta1-1.0"),
         pytest.param("local_lr", -1, "federation: local_lr: must", id="local_lr--1"),
         pytest.param("local_lr", 0, "federation: local_lr: must", id="local_lr-0"),
         pytest.param("server_lr", 0.0, "federation: server_lr: must", id="server_lr-0.0")],
    )
    def test_validate_rejects_bad_adam_settings(self, tmp_path, capsys, key, value, message):
        # Adam's decay rates are module constants, so a config that still sets
        # one (in or out of range) is refused as naming an unknown key.
        path = self._write(tmp_path, {"federation": {key: value}})
        assert main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_scenario_failure_names_the_stage(self, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise ValueError("no geometry")

        monkeypatch.setattr("fedad.cli.build_scenario", broken)
        data = {**SMOKE, "output_dir": str(tmp_path / "results")}
        path = self._write(tmp_path, data)
        assert main(["run", "--config", str(path)]) == 3
        assert "stage failed: scenario generation: no geometry" in capsys.readouterr().err

    def test_non_finite_scores_fail_the_detector_stage(self, tmp_path, capsys, monkeypatch):
        def nan_scores(params, dataset, beta, cluster_size):
            return np.full(dataset.labels.shape, np.nan)

        monkeypatch.setattr("fedad.cli.score_events", nan_scores)
        data = {**SMOKE, "output_dir": str(tmp_path / "results")}
        path = self._write(tmp_path, data)
        assert main(["run", "--config", str(path)]) == 3
        assert "stage failed: detector fl: scores are not all finite" in capsys.readouterr().err
        assert not (tmp_path / "results" / "summary.json").exists()

    def test_macs_prints_per_ap_count(self, tmp_path, capsys):
        path = self._write(tmp_path, {})  # full-scale defaults
        assert main(["macs", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "133120" in out
        assert "2662400" in out

    def test_macs_colocated_prints_one_ap(self, capsys):
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
        assert main(["macs", "--config", str(desk), "--arch", "colocated"]) == 0
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
        expected = "348160"  # one AP with all 8 * 2 antennas: (2 * 20 * 16) * 512 + 512 * 40
        assert rows["fl_per_ap"] == rows["fl_network"] == [expected, expected, "-"]

    @pytest.mark.parametrize("arch", ["cellfree", "colocated"])
    def test_summary_macs_equal_the_macs_table(self, tmp_path, capsys, arch):
        # With tol 0 no solver converges early, so ISTA and FISTA use
        # max_iters, as the table prices them.
        data = {
            **SMOKE, "solver": {"max_iters": 20, "tol": 0.0},
            "detectors": ["fl", "ista", "fista", "amp"], "architecture": arch,
            "output_dir": str(tmp_path / "results"),
        }
        path = self._write(tmp_path, data)
        assert main(["macs", "--config", str(path)]) == 0
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
        assert main(["run", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "results" / "summary.json").read_text())
        for detector, row in (("fl", "fl_network"), ("ista", "ista"), ("fista", "fista"),
                              ("amp", "amp")):
            summary = doc[detector]
            assert [summary["macs_complex1"], summary["macs_real4"]] == [
                int(macs) for macs in rows[row][:2]
            ]
            if detector != "fl":
                assert str(summary["iters"]) == rows[row][2]

    def test_detector_set_is_fl_and_the_baseline_table(self, tmp_path, capsys):
        names = ("fl", *BASELINES)
        assert ALL_DETECTORS == names
        assert config_from_dict({}).detectors == names
        for name in names:
            assert config_from_dict({"detectors": [name]}).detectors == (name,)
        with pytest.raises(ConfigError, match="unknown detector 'mf'"):
            config_from_dict({"detectors": ["mf"]})

        assert main(["macs", "--config", str(self._write(tmp_path, {}))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == [
            "detector", "fl_per_ap", "fl_network", *BASELINES,
        ]
        assert lines[-1].startswith("amp/fl network ratio:")

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert f"subset of {','.join(ALL_DETECTORS)}" in capsys.readouterr().out

    def test_run_smoke_exit_0(self, tmp_path, capsys):
        data = json.loads(json.dumps(SMOKE))
        data["output_dir"] = str(tmp_path / "results")
        path = self._write(tmp_path, data)
        assert main(["run", "--config", str(path), "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        doc = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert doc["seed"] == 11

    def test_run_detector_override(self, tmp_path):
        data = json.loads(json.dumps(SMOKE))
        data["output_dir"] = str(tmp_path / "results")
        path = self._write(tmp_path, data)
        assert main(["run", "--config", str(path), "--detectors", "ista"]) == 0
        assert (tmp_path / "results" / "roc_ista_cellfree.csv").exists()
        assert not (tmp_path / "results" / "roc_fl_cellfree.csv").exists()

    def test_run_bad_detector_exit_2(self, tmp_path):
        path = self._write(tmp_path, SMOKE)
        assert main(["run", "--config", str(path), "--detectors", "nope"]) == 2

    @pytest.mark.parametrize(
        "changes, flags, message",
        [({"scenario": {**SMOKE["scenario"], "master_seed": -1}}, [],
          "scenario: master_seed: must be >= 0, got -1"),
         ({}, ["--seed", "-3"], "scenario: master_seed: must be >= 0, got -3"),
         ({"detectors": ["fl", "fl"]}, [], "top level: detectors: each may appear once"),
         ({}, ["--detectors", "fl,fl"], "top level: detectors: each may appear once"),
         ({}, ["--detectors", ","], "top level: detectors: must not be empty"),
         ({"scenario": {**SMOKE["scenario"], "activation_prob": 0.0}}, [],
          "scenario: activation_prob: must lie in (0, 1), got 0.0"),
         ({"scenario": {**SMOKE["scenario"], "activation_prob": 1.0}}, ["--detectors", "ista"],
          "scenario: activation_prob: must lie in (0, 1), got 1.0")],
        ids=["master_seed", "--seed", "detectors", "--detectors", "--detectors-empty",
             "activation_prob-0", "activation_prob-1"],
    )
    def test_run_rejects_bad_values_before_running(self, tmp_path, capsys, changes, flags, message):
        data = {**SMOKE, **changes, "output_dir": str(tmp_path / "results")}
        path = self._write(tmp_path, data)
        assert main(["run", "--config", str(path), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "results").exists()


def test_run_survives_a_hanging_git(tmp_path, monkeypatch):
    # The version stamp asks git; a git that times out must not cost the
    # run its outputs, only the commit in the stamp.
    def hanging_git(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    _version_string.cache_clear()
    monkeypatch.setattr("fedad.cli.subprocess.run", hanging_git)
    try:
        data = {**SMOKE, "detectors": ["amp"], "output_dir": str(tmp_path / "results")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert doc["version"] == f"fedad-{fedad.__version__}"
    finally:
        _version_string.cache_clear()


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")),
    ids=lambda path: path.name,
)
def test_shipped_configs_validate(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "config ok\n"


def test_shipped_smoke_config_runs_for_any_seed(tmp_path, capsys):
    # The smoke run must be a seed-independent check: enough evaluation
    # trials that both classes appear, so its ROC is defined.
    path = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"
    for seed in range(12):
        out = tmp_path / str(seed)
        assert main(["run", "--config", str(path), "--seed", str(seed), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == seed
    capsys.readouterr()


def test_readme_config_table_matches_the_schema():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = set()
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("| ").split("|")]
        if line.startswith("| ") and cells[0] in ("top", "scenario", "federation", "solver"):
            documented.update((cells[0], key.strip()) for key in cells[1].split("/"))
    schema = set()
    for section, value in config_to_dict(config_from_dict({})).items():
        if isinstance(value, dict):
            schema.update((section, key) for key in value)
        else:
            schema.add(("top", section))
    assert documented == schema


def test_import_loads_no_scipy():
    # The runtime needs numpy alone: a fresh `import fedad.cli` must not
    # pull in any scipy module.
    env = {**os.environ, "PYTHONPATH": str(Path(fedad.__file__).resolve().parent.parent)}
    code = (
        "import sys, fedad.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_validate_under_cprofile(tmp_path):
    # `python -m cProfile -m fedad.cli` runs the cli as __main__ while
    # sys.modules["__main__"] stays cProfile's own module; the codec must
    # still resolve its section types.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMOKE))
    env = {**os.environ, "PYTHONPATH": str(Path(fedad.__file__).resolve().parent.parent)}
    result = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "fedad.cli", "validate", "--config", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "config ok" in result.stdout
