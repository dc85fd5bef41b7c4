import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    build_dataset_reference,
    fuse_cluster_scores,
    score_events_reference,
    traced_peak,
)

import fedad.federation as federation
from fedad.baselines import colocate
from fedad.channel import Dataset, build_dataset
from fedad.federation import (
    FederationConfig,
    LocalUpdate,
    aggregate,
    deserialize_update,
    heldout_bce,
    local_train,
    run_training,
    score_events,
    serialize_update,
    server_step,
)
from fedad.rng import substream
from fedad.scenario import ScenarioConfig, build_scenario
from fedad.slp import SlpParams, adam_step, backward, forward, init_adam, init_params


def scalar_params(value: float) -> SlpParams:
    return SlpParams(
        w1=np.array([[value]]), b1=np.array([value]),
        w2=np.array([[value]]), b2=np.array([value]),
    )


def params_equal(a: SlpParams, b: SlpParams) -> bool:
    return np.array_equal(a.flat, b.flat)


@pytest.fixture
def fed_small():
    return FederationConfig(
        rounds=2, local_epochs=1, batch_size=4, train_samples=8, eval_samples=8
    )


class TestLocalTrain:
    def test_zero_epochs_is_noop(self, small_config, small_artifacts, fed_small):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 6,
            substream(0, "data"),
        )
        params = init_params(small_config, substream(1, "init"))
        feats, labels = ds.shard(0)
        fed = replace(fed_small, local_epochs=0)
        update = local_train(params, feats, labels, fed, 0, substream(2, "sh"))
        assert params_equal(update.params, params)
        assert update.weight == 6.0

    def test_single_sample_matches_manual_trace(self, small_config, small_artifacts, fed_small):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 1,
            substream(3, "data"),
        )
        params = init_params(small_config, substream(4, "init"))
        feats, labels = ds.shard(1)
        update = local_train(params, feats, labels, fed_small, 1, substream(5, "sh"))
        # Manual replay: one epoch over one sample is one float32 fwd/bwd/adam
        # step from the float32 cast of the global, and the update is the
        # float64 global plus that step's displacement.
        origin = params.flat.astype(np.float32)
        p32 = params.like(origin.copy())
        grads = backward(p32, feats[[0]].astype(np.float32), labels[[0]])
        manual, _ = adam_step(p32, grads, init_adam(p32, lr=fed_small.local_lr))
        expected = params.flat + (manual.flat.astype(np.float64) - origin)
        assert update.params.flat.dtype == np.float64
        assert np.array_equal(update.params.flat, expected)

    def test_identical_shards_identical_updates(self, small_config, small_artifacts, fed_small):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 8,
            substream(6, "data"),
        )
        params = init_params(small_config, substream(7, "init"))
        feats, labels = ds.shard(2)
        fed = replace(fed_small, local_epochs=2)
        u1 = local_train(params, feats, labels, fed, 0, substream(8, "sh"))
        u2 = local_train(params, feats, labels, fed, 1, substream(8, "sh"))
        assert params_equal(u1.params, u2.params)

    def test_empty_shard_rejected(self, small_config, fed_small):
        params = init_params(small_config, substream(9, "init"))
        empty = np.empty((0, small_config.feature_dim))
        with pytest.raises(ValueError, match="empty"):
            local_train(params, empty, np.empty((0, 10)), fed_small, 0, substream(0, "sh"))


class TestAggregate:
    def test_single_update_identity(self):
        p = scalar_params(0.7)
        out = aggregate([LocalUpdate(params=p, weight=5.0, ap_index=0)])
        assert params_equal(out, p)

    def test_weighted_mean(self):
        updates = [
            LocalUpdate(params=scalar_params(0.0), weight=1.0, ap_index=0),
            LocalUpdate(params=scalar_params(4.0), weight=3.0, ap_index=1),
        ]
        out = aggregate(updates)
        assert np.allclose(out.w1, 3.0, rtol=0) and out.w1[0, 0] == 3.0

    def test_idempotence_many_copies(self):
        p = scalar_params(0.3141)
        updates = [LocalUpdate(params=p, weight=2.0, ap_index=i) for i in range(7)]
        assert params_equal(aggregate(updates), p)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(0)
        updates = [
            LocalUpdate(params=scalar_params(rng.normal()), weight=rng.random() + 0.1,
                        ap_index=i)
            for i in range(5)
        ]
        a = aggregate(updates)
        b = aggregate(list(reversed(updates)))
        c = aggregate([updates[2], updates[0], updates[4], updates[1], updates[3]])
        assert params_equal(a, b) and params_equal(a, c)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(1)
        base = [
            LocalUpdate(params=scalar_params(rng.normal()), weight=w, ap_index=i)
            for i, w in enumerate([1.0, 2.5, 0.25, 4.0])
        ]
        reference = aggregate(base)
        # Power-of-two scalings commute with rounding: bit-exact.
        for scale in (0.5, 4.0):
            scaled = [
                LocalUpdate(params=u.params, weight=u.weight * scale, ap_index=u.ap_index)
                for u in base
            ]
            assert params_equal(aggregate(scaled), reference)
        # Arbitrary positive scaling: equal to tight float tolerance.
        scaled = [
            LocalUpdate(params=u.params, weight=u.weight * 3.7, ap_index=u.ap_index)
            for u in base
        ]
        out = aggregate(scaled)
        assert np.allclose(out.flat, reference.flat, rtol=1e-14, atol=0)

    def test_zero_weights_rejected(self):
        updates = [LocalUpdate(params=scalar_params(1.0), weight=0.0, ap_index=0)]
        with pytest.raises(ValueError, match="weight"):
            aggregate(updates)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        # One such weight would turn every aggregated parameter into NaN.
        with pytest.raises(ValueError, match="weight must be finite"):
            LocalUpdate(params=scalar_params(1.0), weight=weight, ap_index=0)


class TestStreamedAggregate:
    """aggregate(generator, total_weight) folds each update as it arrives;
    it must give the bytes the sorted-list form gives."""

    @staticmethod
    def _shuffled_updates(small_config, seed):
        rng = np.random.default_rng(seed)
        template = init_params(small_config, substream(seed, "init"))
        updates = [
            LocalUpdate(params=template.like(rng.normal(size=template.flat.size)),
                        weight=float(rng.random() * 10.0 + 0.01), ap_index=i)
            for i in range(int(rng.integers(1, 9)))
        ]
        rng.shuffle(updates)
        return updates

    @staticmethod
    def _stream(updates):
        ordered = sorted(updates, key=lambda u: u.ap_index)
        total = 0.0
        for u in ordered:
            total += u.weight
        return (u for u in ordered), total

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_list_bit_exact(self, small_config, seed):
        updates = self._shuffled_updates(small_config, seed)
        stream, total = self._stream(updates)
        assert params_equal(aggregate(stream, total_weight=total), aggregate(updates))

    def test_wrong_total_rejected(self, small_config):
        stream, total = self._stream(self._shuffled_updates(small_config, 3))
        with pytest.raises(ValueError, match="total_weight"):
            aggregate(stream, total_weight=total * 1.5)

    def test_zero_total_rejected(self):
        stream = iter([LocalUpdate(params=scalar_params(1.0), weight=0.0, ap_index=0)])
        with pytest.raises(ValueError, match="weight"):
            aggregate(stream, total_weight=0.0)

    def test_out_of_order_rejected(self):
        updates = [
            LocalUpdate(params=scalar_params(1.0), weight=1.0, ap_index=1),
            LocalUpdate(params=scalar_params(2.0), weight=1.0, ap_index=0),
        ]
        with pytest.raises(ValueError, match="AP 0 arrived after AP 1"):
            aggregate(iter(updates), total_weight=2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate(iter([]), total_weight=1.0)


class TestServerStep:
    def test_plain_average_pass_through(self):
        current, agg = scalar_params(1.0), scalar_params(2.0)
        out, _ = server_step(current, agg, None)
        assert params_equal(out, agg)

    def test_zero_pseudo_gradient(self):
        current = scalar_params(0.5)
        state = init_adam(current, lr=1e-3)
        # An aggregate equal to the global, in its own buffer: the step
        # consumes both, so the result is checked against a fresh 0.5.
        out, state2 = server_step(current, current.copy(), state)
        assert params_equal(out, scalar_params(0.5))
        assert state2.step_count == 1

    def test_first_step_magnitude(self):
        # Pseudo-gradient 0.1 moves the global by lr toward the aggregate.
        current = scalar_params(0.1)
        agg = scalar_params(0.0)
        state = init_adam(current, lr=1e-3)
        out, _ = server_step(current, agg, state)
        assert out.w1[0, 0] == pytest.approx(0.1 - 1e-3, rel=1e-6)


class TestPonderate:
    def test_full_cluster_is_plain_mean(self):
        rng = np.random.default_rng(2)
        beta = rng.random((4, 6)) + 0.1
        scores = rng.random((4, 6))
        fused = fuse_cluster_scores(scores, beta, 4)
        assert np.allclose(fused, scores.mean(axis=0), rtol=1e-15)

    def test_singleton_cluster_takes_best_ap(self):
        beta = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.3]])
        scores = np.array([[0.11, 0.12], [0.21, 0.22], [0.31, 0.32]])
        fused = fuse_cluster_scores(scores, beta, 1)
        assert fused[0] == 0.21  # AP 1 strongest for device 0
        assert fused[1] == 0.12  # AP 0 strongest for device 1

    def test_two_ap_average(self):
        beta = np.array([[1.0], [0.5], [0.1]])
        scores = np.array([[0.9], [0.1], [0.5]])
        assert fuse_cluster_scores(scores, beta, 2)[0] == pytest.approx(0.5, abs=1e-15)

    def test_tie_breaks_toward_lower_index(self):
        beta = np.array([[0.5], [0.5], [0.5]])
        scores = np.array([[1.0], [0.0], [0.0]])
        # All gains tied: cluster of 2 must pick APs 0 and 1.
        assert fuse_cluster_scores(scores, beta, 2)[0] == pytest.approx(0.5, abs=1e-15)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(3)
        fused = fuse_cluster_scores(rng.random((5, 9)), rng.random((5, 9)), 3)
        assert np.all(fused >= 0) and np.all(fused <= 1)

    def test_cluster_too_large_rejected(self):
        with pytest.raises(ValueError):
            fuse_cluster_scores(np.zeros((2, 3)), np.ones((2, 3)), 3)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), bump=st.floats(0.0, 0.5))
    def test_monotone_in_cluster_scores(self, seed, bump):
        rng = np.random.default_rng(seed)
        m, k, t = 5, 4, 3
        beta = rng.random((m, k)) + 0.01
        scores = rng.random((m, k)) * 0.5
        base = fuse_cluster_scores(scores, beta, t)
        ap = int(rng.integers(0, m))
        dev = int(rng.integers(0, k))
        bumped = scores.copy()
        bumped[ap, dev] = min(1.0, bumped[ap, dev] + bump)
        fused = fuse_cluster_scores(bumped, beta, t)
        assert fused[dev] >= base[dev] - 1e-15
        others = np.delete(fused, dev)
        assert np.allclose(others, np.delete(base, dev), rtol=0, atol=0)


class TestRunTraining:
    def test_zero_epochs_zero_learning(self, small_config, small_artifacts):
        fed = FederationConfig(
            rounds=1, local_epochs=0, batch_size=4, train_samples=4, eval_samples=4
        )
        params, history = run_training(small_artifacts, fed, substream(0, "fed"))
        reference = init_params(small_config, substream(0, "fed").spawn(4)[0])
        assert params_equal(params, reference)
        assert len(history.heldout_bce) == 1

    def test_deterministic(self, small_artifacts):
        fed = FederationConfig(
            rounds=2, local_epochs=1, batch_size=4, train_samples=8, eval_samples=6
        )
        p1, h1 = run_training(small_artifacts, fed, substream(5, "fed"))
        p2, h2 = run_training(small_artifacts, fed, substream(5, "fed"))
        assert params_equal(p1, p2)
        assert h1.heldout_bce == h2.heldout_bce

    def test_regenerated_sets_are_consecutive_children(
        self, small_config, small_artifacts, monkeypatch
    ):
        # Round r trains on children r*n, ..., r*n + n - 1 of the data
        # stream: the events a spawn of n children per round would give.
        fed = FederationConfig(
            rounds=3, local_epochs=0, batch_size=4, train_samples=5, eval_samples=6,
            regenerate_each_round=True,
        )
        training_sets = []

        def recording_build_dataset(*args):
            ds = build_dataset(*args)
            if args[3] == fed.train_samples:
                training_sets.append(ds)
            return ds

        monkeypatch.setattr(federation, "build_dataset", recording_build_dataset)
        run_training(small_artifacts, fed, substream(4, "fed"))
        assert len(training_sets) == fed.rounds
        data_stream = substream(4, "fed").spawn(4)[1]
        for ds in training_sets:
            ref = build_dataset_reference(
                small_config, small_artifacts.beta, small_artifacts.pilots,
                fed.train_samples, data_stream,
            )
            assert np.array_equal(ds.labels, ref.labels)
            assert ds.features.tobytes() == ref.features.astype(np.float32).tobytes()

    def test_history_length(self, small_artifacts):
        fed = FederationConfig(
            rounds=3, local_epochs=1, batch_size=4, train_samples=6, eval_samples=4
        )
        _, history = run_training(small_artifacts, fed, substream(6, "fed"))
        assert len(history.heldout_bce) == 3
        assert len(history.round_seconds) == 3

    def test_regeneration_redraws_the_training_set(self, small_artifacts, monkeypatch):
        # With regenerate_each_round, round 0 trains on the set drawn
        # before the loop and every later round on a fresh draw.
        sizes = []

        def counting_build_dataset(*args):
            sizes.append(args[3])
            return build_dataset(*args)

        monkeypatch.setattr(federation, "build_dataset", counting_build_dataset)
        fed = FederationConfig(
            rounds=3, local_epochs=1, batch_size=4, train_samples=8, eval_samples=6
        )
        _, fixed = run_training(small_artifacts, fed, substream(3, "fed"))
        assert sizes == [8, 6]
        sizes.clear()
        fresh_fed = replace(fed, regenerate_each_round=True)
        _, fresh = run_training(small_artifacts, fresh_fed, substream(3, "fed"))
        # rounds training draws plus the held-out set
        assert sizes == [8, 6, 8, 8]
        assert fresh.heldout_bce[0] == fixed.heldout_bce[0]
        assert fresh.heldout_bce[1] != fixed.heldout_bce[1]

    @pytest.mark.parametrize("mode", ["plain-average", "server-adam"])
    def test_learning_reduces_heldout_bce(self, mode):
        cfg = ScenarioConfig(
            num_aps=3, antennas_per_ap=2, num_devices=8, pilot_len=6,
            hidden_units=32, cluster_size=2, master_seed=77,
        )
        artifacts = build_scenario(cfg)
        fed = FederationConfig(
            rounds=8, local_epochs=2, batch_size=16, train_samples=64,
            eval_samples=64, server_mode=mode,
        )
        _, history = run_training(artifacts, fed, substream(1, "fed"))
        assert history.heldout_bce[-1] < history.heldout_bce[0]


class TestUpdateWire:
    def _update(self, small_config):
        params = init_params(small_config, substream(1, "init"))
        return LocalUpdate(params=params, weight=12.0, ap_index=3)

    def test_round_trip(self, small_config):
        update = self._update(small_config)
        blob = serialize_update(update, round_index=9)
        rnd, back = deserialize_update(blob)
        assert rnd == 9
        assert back.ap_index == 3 and back.weight == 12.0
        assert params_equal(back.params, update.params)

    def test_schema_lists_only_parameter_fields(self, small_config):
        update = self._update(small_config)
        blob = serialize_update(update, 0)
        _, back = deserialize_update(blob)
        v, f = update.params.w1.shape
        k = update.params.w2.shape[0]
        fields = {name: getattr(back.params, name).size for name in ("w1", "b1", "w2", "b2")}
        assert fields == {"w1": v * f, "b1": v, "w2": k * v, "b2": k}
        assert struct.unpack_from("<I", blob, 4)[0] == 1  # the wire version

    def test_body_is_the_layers_in_wire_order(self, small_config):
        update = self._update(small_config)
        v, f, k = update.params.dims
        header = struct.pack("<4sIIIdIII", b"ADUP", 1, 5, 3, 12.0, v, f, k)
        p = update.params
        expected = header + b"".join(
            layer.astype("<f8").tobytes(order="C") for layer in (p.w1, p.b1, p.w2, p.b2)
        )
        assert serialize_update(update, 5) == expected

    def test_bad_magic_rejected(self, small_config):
        blob = serialize_update(self._update(small_config), 0)
        with pytest.raises(ValueError):
            deserialize_update(b"XXXX" + blob[4:])

    def test_nan_weight_blob_rejected(self, small_config):
        blob = bytearray(serialize_update(self._update(small_config), 0))
        blob[16:24] = struct.pack("<d", np.nan)  # the header's f64 weight
        with pytest.raises(ValueError, match="weight must be finite"):
            deserialize_update(bytes(blob))

    def test_schema_rejects_what_does_not_deserialize(self, small_config):
        # A foreign magic, a header followed by too few body bytes, a body
        # one parameter longer than the header's dimensions, and blobs
        # shorter than the header.
        blob = serialize_update(self._update(small_config), 0)
        for bad in (b"XXXX" + blob[4:], blob[:40], blob + bytes(8), b"ADUP", b""):
            with pytest.raises(ValueError):
                deserialize_update(bad)


class TestHeldoutBce:
    def test_uniform_scores_give_log2(self, small_config, small_artifacts):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 4,
            substream(2, "data"),
        )
        template = init_params(small_config, substream(0, "init"))
        zeros = template.like(np.zeros_like(template.flat))
        got = heldout_bce(zeros, ds, small_artifacts.beta, small_config.cluster_size)
        assert got == pytest.approx(np.log(2.0), rel=1e-12)


class TestScoreEvents:
    @pytest.mark.parametrize("cluster_size", [1, 2, 3, 4])
    def test_matches_per_event_fusion(self, small_config, small_artifacts, cluster_size):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 9,
            substream(4, "data"),
        )
        params = init_params(small_config, substream(5, "init"))
        fused = score_events(params, ds, small_artifacts.beta, cluster_size)
        per_ap = np.stack(
            [forward(params, ds.features[:, ap])[0] for ap in range(small_config.num_aps)]
        )
        assert fused.shape == ds.labels.shape
        for i in range(ds.features.shape[0]):
            expected = fuse_cluster_scores(per_ap[:, i], small_artifacts.beta, cluster_size)
            assert np.array_equal(fused[i], expected)

    def test_cluster_too_large_rejected(self, small_config, small_artifacts):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 2,
            substream(4, "data"),
        )
        params = init_params(small_config, substream(5, "init"))
        with pytest.raises(ValueError, match="cluster_size"):
            score_events(params, ds, small_artifacts.beta, small_config.num_aps + 1)

    @pytest.mark.parametrize("shape", [
        {"num_aps": 8, "num_devices": 40, "pilot_len": 20},   # configs/desk.json
        {"num_aps": 20, "num_devices": 100, "pilot_len": 40},  # configs/paper.json
    ], ids=["desk", "paper"])
    @pytest.mark.parametrize("cluster", ["one", "all"])
    def test_matches_gather_reference(self, shape, cluster):
        cfg = ScenarioConfig(antennas_per_ap=2, hidden_units=512, cluster_size=1, **shape)
        cluster_size = 1 if cluster == "one" else cfg.num_aps
        rng = np.random.default_rng(cfg.num_aps)
        ds = Dataset(
            features=rng.normal(size=(16, cfg.num_aps, cfg.feature_dim)),
            labels=np.zeros((16, cfg.num_devices), dtype=np.int8),
        )
        beta = build_scenario(cfg).beta
        params = init_params(cfg, substream(6, "init"))
        assert np.array_equal(
            score_events(params, ds, beta, cluster_size),
            score_events_reference(params, ds, beta, cluster_size),
        )

    def test_ap_serving_no_device_is_not_run(self, small_config, small_artifacts, monkeypatch):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 7,
            substream(4, "data"),
        )
        params = init_params(small_config, substream(5, "init"))
        beta = small_artifacts.beta.copy()
        beta[2] = beta.min() / 2.0  # AP 2 is in no device's cluster of 2
        served = []

        def recording_forward(p, features):
            served.append(next(
                ap for ap in range(small_config.num_aps)
                if np.shares_memory(features, ds.features[:, ap])
            ))
            return forward(p, features)

        monkeypatch.setattr(federation, "forward", recording_forward)
        fused = score_events(params, ds, beta, 2)
        assert served == [0, 1, 3]
        assert np.array_equal(fused, score_events_reference(params, ds, beta, 2))


class TestServerMemory:
    """The central processor's buffers do not grow with the number of APs."""

    @pytest.mark.parametrize("mode", ["plain-average", "server-adam"])
    def test_run_training_peak_does_not_grow_with_aps(self, mode):
        # A wide hidden layer and a handful of events, so that a parameter
        # vector (410 kB) dwarfs everything else that scales with M.
        fed = FederationConfig(
            rounds=1, local_epochs=1, batch_size=4, train_samples=4, eval_samples=4,
            server_mode=mode,
        )
        peaks = {}
        for m in (4, 16):
            cfg = ScenarioConfig(
                num_aps=m, antennas_per_ap=2, num_devices=8, pilot_len=4,
                hidden_units=2048, cluster_size=2, master_seed=5,
            )
            artifacts = build_scenario(cfg)
            peaks[m] = traced_peak(run_training, artifacts, fed, substream(1, "fed"))
        vector_bytes = init_params(cfg, substream(0, "init")).flat.nbytes
        assert peaks[16] - peaks[4] < vector_bytes

    @staticmethod
    def _wide_colocated():
        # One colocated AP with 64 antennas: a parameter vector (4.3 MB)
        # dwarfs the handful of events, so a peak counts the vectors
        # training holds at once.
        return colocate(build_scenario(ScenarioConfig(
            num_aps=8, antennas_per_ap=8, num_devices=16, pilot_len=8,
            hidden_units=512, cluster_size=2, master_seed=3,
        )))

    def test_run_training_peak_on_wide_inputs(self):
        # No round's aggregate outlives its server step, the server step
        # writes its pseudo-gradient into the aggregate's buffer and steps
        # the global in place, so the peak is local training's (the global,
        # two server moments and 2.5 vectors of float32 training state).
        artifacts = self._wide_colocated()
        fed = FederationConfig(
            rounds=2, local_epochs=1, batch_size=4, train_samples=8, eval_samples=4,
        )
        peak = traced_peak(run_training, artifacts, fed, substream(1, "fed"))
        vector_bytes = init_params(artifacts.config, substream(0, "init")).flat.nbytes
        assert peak / vector_bytes < 5.75

    def test_local_train_peak_on_wide_inputs(self):
        # Counted in float32 vectors (2.1 MB): the trajectory, its two Adam
        # moments, one gradient and the Adam step's scratch, with no
        # float32 cast of the global kept beside them and no gradient
        # alive past its step.
        artifacts = self._wide_colocated()
        cfg = artifacts.config
        ds = build_dataset(
            cfg, artifacts.beta, artifacts.pilots, 8, substream(2, "data"), dtype=np.float32
        )
        params = init_params(cfg, substream(0, "init"))
        fed = FederationConfig(rounds=1, local_epochs=2, batch_size=4, train_samples=8)
        peak = traced_peak(local_train, params, *ds.shard(0), fed, 0, substream(3, "sh"))
        assert peak / params.flat.astype(np.float32).nbytes < 5.25

    def test_regeneration_holds_one_training_set(self, monkeypatch):
        # 1,024 events of 2 APs (131 kB of float32 features), no local epochs:
        # the training sets dominate, and drawing a fresh one each round
        # must not hold the last one alive while it is drawn.
        cfg = ScenarioConfig(
            num_aps=2, antennas_per_ap=2, num_devices=8, pilot_len=4,
            hidden_units=8, cluster_size=1, master_seed=4,
        )
        artifacts = build_scenario(cfg)
        fed = FederationConfig(
            rounds=2, local_epochs=0, batch_size=256, train_samples=1024, eval_samples=4,
        )
        fixed = traced_peak(run_training, artifacts, fed, substream(2, "fed"))
        fresh_fed = replace(fed, regenerate_each_round=True)
        fresh = traced_peak(run_training, artifacts, fresh_fed, substream(2, "fed"))
        # A set's size is what run_training stores: its own feature itemsize.
        itemsizes = set()

        def recording_build_dataset(*args):
            ds = build_dataset(*args)
            if args[3] == fed.train_samples:
                itemsizes.add(ds.features.itemsize)
            return ds

        monkeypatch.setattr(federation, "build_dataset", recording_build_dataset)
        run_training(artifacts, fresh_fed, substream(2, "fed"))
        (itemsize,) = itemsizes
        set_bytes = fed.train_samples * cfg.num_aps * cfg.feature_dim * itemsize
        assert fresh - fixed < set_bytes // 2

    @pytest.mark.parametrize("num_aps", [4, 16, 32])
    def test_score_events_peak_is_slots_plus_one_forward(self, num_aps):
        # Many devices and a narrow hidden layer, so that one AP's scores
        # (64 kB) are what a per-AP score array would multiply.
        cfg = ScenarioConfig(
            num_aps=num_aps, antennas_per_ap=2, num_devices=64, pilot_len=4,
            hidden_units=32, cluster_size=2, master_seed=9,
        )
        n_events = 128
        rng = np.random.default_rng(num_aps)
        ds = Dataset(
            features=rng.normal(size=(n_events, num_aps, cfg.feature_dim)),
            labels=np.zeros((n_events, cfg.num_devices), dtype=np.int8),
        )
        beta = build_scenario(cfg).beta
        params = init_params(cfg, substream(2, "init"))
        one_forward = traced_peak(forward, params, ds.features[:, 0, :])
        fused_bytes = n_events * cfg.num_devices * 8
        slots_bytes = cfg.cluster_size * fused_bytes
        peak = traced_peak(score_events, params, ds, beta, cfg.cluster_size)
        # Choosing the clusters sorts -beta: two (M, K) arrays, the size of
        # the gains the caller already holds.
        assert peak <= slots_bytes + one_forward + fused_bytes + 2 * beta.nbytes + 8192


class TestInputsUntouched:
    """The parameters passed in are the caller's: training, aggregation,
    the server step and serialization must leave their bytes as they were,
    except what a step is documented to consume (the FedAdam server step
    consumes both the global model and the aggregate)."""

    def _random_params(self, config, label):
        return init_params(config, substream(20, label))

    def test_local_train(self, small_config, small_artifacts, fed_small):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 8,
            substream(21, "data"),
        )
        params = self._random_params(small_config, "global")
        before = params.flat.tobytes()
        feats, labels = ds.shard(0)
        fed = replace(fed_small, local_epochs=2)
        update = local_train(params, feats, labels, fed, 0, substream(22, "sh"))
        assert params.flat.tobytes() == before
        assert update.params.flat.tobytes() != before

    @pytest.mark.parametrize("mode", ["plain-average", "server-adam"])
    def test_server_step(self, small_config, mode):
        current = self._random_params(small_config, "current")
        agg = self._random_params(small_config, "aggregate")
        before = (current.flat.tobytes(), agg.flat.tobytes())
        state = init_adam(current, lr=1e-2) if mode == "server-adam" else None
        out, _ = server_step(current, agg, state)
        if mode == "plain-average":
            assert current.flat.tobytes() == before[0]
            assert agg.flat.tobytes() == before[1]
        else:
            # The step consumes both inputs: the aggregate's buffer holds the
            # pseudo-gradient and the global is stepped in place. The model
            # returned is the copy-based step computed from untouched copies.
            untouched = current.like(np.frombuffer(before[0]).copy())
            pseudo_grad = untouched.flat - np.frombuffer(before[1])
            assert agg.flat.tobytes() == pseudo_grad.tobytes()
            expected, _ = adam_step(
                untouched.copy(), untouched.like(pseudo_grad), init_adam(untouched, lr=1e-2)
            )
            assert out.flat.tobytes() == expected.flat.tobytes()
            assert out.flat is current.flat
            assert out.flat.tobytes() != before[0]

    @pytest.mark.parametrize("count", [1, 3])
    def test_aggregate(self, small_config, count):
        updates = [
            LocalUpdate(params=self._random_params(small_config, f"ap{i}"), weight=i + 1.0,
                        ap_index=i)
            for i in range(count)
        ]
        before = [u.params.flat.tobytes() for u in updates]
        out = aggregate(updates)
        assert [u.params.flat.tobytes() for u in updates] == before
        assert not any(np.shares_memory(out.flat, u.params.flat) for u in updates)

    def test_serialize_update(self, small_config):
        update = LocalUpdate(
            params=self._random_params(small_config, "wire"), weight=2.0, ap_index=1
        )
        before = update.params.flat.tobytes()
        serialize_update(update, 3)
        assert update.params.flat.tobytes() == before
