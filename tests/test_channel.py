import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    build_dataset_reference,
    draw_channels,
    features_from_received,
    received_signals_reference,
    synthesize_received,
)

from fedad.channel import build_dataset, received_from_features
from fedad.rng import substream
from fedad.scenario import ScenarioConfig, build_scenario, generate_pilots


def orthonormal_pilots(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(raw)
    return q


def small_scale_fading(config, stream):
    """CN(0,1) draws h in the reference draw_channels' order: real parts,
    then imaginary."""
    shape = (config.num_aps, config.num_devices, config.antennas_per_ap)
    return (stream.standard_normal(shape) + 1j * stream.standard_normal(shape)) / np.sqrt(2)


class TestDrawChannels:
    def test_composition_rule(self):
        # Hand value: beta=4, h=0.5+0.5j composes to exactly 1+1j.
        assert np.sqrt(4.0) * (0.5 + 0.5j) == 1.0 + 1.0j
        cfg = ScenarioConfig(num_aps=1, num_devices=1, antennas_per_ap=1, cluster_size=1)
        g = draw_channels(np.array([[4.0]]), cfg, substream(0, "channels"))
        h = small_scale_fading(cfg, substream(0, "channels"))
        assert g[0, 0, 0] == 2.0 * h[0, 0, 0]

    def test_unit_beta_is_identity(self):
        cfg = ScenarioConfig(num_aps=2, num_devices=3, cluster_size=1)
        beta = np.ones((2, 3))
        g = draw_channels(beta, cfg, substream(1, "channels"))
        assert np.array_equal(g, small_scale_fading(cfg, substream(1, "channels")))

    def test_unit_variance(self):
        # Sample variance of h over 1e5 draws must be 1.0 +- 0.03.
        cfg = ScenarioConfig(
            num_aps=1, num_devices=100_000, antennas_per_ap=1, cluster_size=1
        )
        g = draw_channels(np.ones((1, 100_000)), cfg, substream(5, "channels"))
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.03


class TestSynthesizeReceived:
    def _one_ap_config(self, **kw):
        defaults = dict(
            num_aps=1, antennas_per_ap=1, num_devices=1, pilot_len=4,
            cluster_size=1, tx_power=1.0, noise_var=0.0,
        )
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_single_active_device_no_noise(self):
        cfg = self._one_ap_config()
        pilots = generate_pilots(cfg, substream(0, "pilots"))
        gains = np.full((1, 1, 1), 2.0 + 0.0j)
        y = synthesize_received(
            np.array([1]), gains, pilots, cfg, substream(0, "noise")
        )
        assert np.allclose(y[0, :, 0], 2.0 * pilots[:, 0], atol=1e-15)

    def test_all_inactive_gives_zero(self):
        cfg = self._one_ap_config(num_devices=3)
        pilots = generate_pilots(cfg, substream(0, "pilots"))
        gains = draw_channels(np.ones((1, 3)), cfg, substream(1, "channels"))
        y = synthesize_received(
            np.zeros(3, dtype=np.int8), gains, pilots, cfg, substream(2, "noise")
        )
        assert np.all(y == 0)

    def test_matched_filter_orthonormal(self):
        # With orthonormal pilots and no noise, despreading recovers
        # sqrt(rho) * g on the active column and 0 elsewhere.
        k = 6
        cfg = self._one_ap_config(num_devices=k, pilot_len=k, tx_power=4.0)
        pilots = orthonormal_pilots(np.random.default_rng(3), k)
        gains = draw_channels(np.ones((1, k)), cfg, substream(4, "channels"))
        activity = np.zeros(k, dtype=np.int8)
        activity[2] = 1
        y = synthesize_received(activity, gains, pilots, cfg, substream(5, "noise"))
        despread = pilots.conj().T @ y[0, :, 0]
        assert despread[2] == pytest.approx(2.0 * gains[0, 2, 0], rel=1e-12)
        others = np.delete(despread, 2)
        assert np.max(np.abs(others)) < 1e-12

    def test_linearity_disjoint_supports(self):
        k = 5
        cfg = self._one_ap_config(num_devices=k, pilot_len=8)
        pilots = generate_pilots(cfg, substream(0, "pilots"))
        gains = draw_channels(np.ones((1, k)), cfg, substream(1, "channels"))
        noise = lambda: substream(9, "noise")
        a1 = np.array([1, 0, 0, 0, 0], dtype=np.int8)
        a2 = np.array([0, 0, 1, 1, 0], dtype=np.int8)
        y1 = synthesize_received(a1, gains, pilots, cfg, noise())
        y2 = synthesize_received(a2, gains, pilots, cfg, noise())
        y12 = synthesize_received(a1 + a2, gains, pilots, cfg, noise())
        assert np.allclose(y1 + y2, y12, atol=1e-12)

    def test_power_scaling(self):
        k = 4
        cfg1 = self._one_ap_config(num_devices=k, pilot_len=8, tx_power=1.0)
        cfg4 = self._one_ap_config(num_devices=k, pilot_len=8, tx_power=4.0)
        pilots = generate_pilots(cfg1, substream(0, "pilots"))
        gains = draw_channels(np.ones((1, k)), cfg1, substream(1, "channels"))
        activity = np.array([1, 1, 0, 0], dtype=np.int8)
        y1 = synthesize_received(activity, gains, pilots, cfg1, substream(2, "noise"))
        y2 = synthesize_received(activity, gains, pilots, cfg4, substream(2, "noise"))
        assert np.allclose(2.0 * y1, y2, rtol=1e-13)


class TestFeatureCodec:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        feats = features_from_received(y)
        assert feats.shape == (30,)
        back = received_from_features(feats, 5, 3)
        assert np.array_equal(back, y)
        # Leading batch axes decode like one observation at a time.
        batch = rng.standard_normal((4, 6, 30))
        decoded = received_from_features(batch, 5, 3)
        assert decoded.shape == (4, 6, 5, 3)
        for i, ap in np.ndindex(4, 6):
            assert np.array_equal(decoded[i, ap], received_from_features(batch[i, ap], 5, 3))

    def test_round_trip_keeps_signed_zeros_and_infinities(self):
        # Any arithmetic between the halves breaks these: re + 1j * im adds
        # +0.0 to each real part (-0.0 comes back as +0.0) and multiplies
        # an infinite imaginary part by 0 (a NaN real part and a warning).
        y = np.empty((2, 2), dtype=complex)
        y.real = [[-0.0, -0.0], [1.0, -0.0]]
        y.imag = [[1.0, -1.0], [np.inf, -np.inf]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = received_from_features(features_from_received(y), 2, 2)
        assert back.tobytes() == y.tobytes()

    def test_layout_written_out(self):
        # L = 3 pilot symbols, N = 2 antennas: the real parts antenna by
        # antenna, [Re y[:, 0], Re y[:, 1]], then the imaginary parts.
        y = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j], [9 + 10j, 11 + 12j]])
        expected = [1.0, 5.0, 9.0, 3.0, 7.0, 11.0, 2.0, 6.0, 10.0, 4.0, 8.0, 12.0]
        assert np.array_equal(features_from_received(y), expected)

    def test_batched_encode_equals_per_ap(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((4, 6, 5, 3)) + 1j * rng.standard_normal((4, 6, 5, 3))
        feats = features_from_received(y)
        assert feats.shape == (4, 6, 30)
        for i, ap in np.ndindex(4, 6):
            assert np.array_equal(feats[i, ap], features_from_received(y[i, ap]))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        ell=st.integers(1, 8),
        n=st.integers(1, 4),
    )
    def test_round_trip_property(self, seed, ell, n):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((ell, n)) + 1j * rng.standard_normal((ell, n))
        assert np.array_equal(received_from_features(features_from_received(y), ell, n), y)


class TestBuildDataset:
    def test_feature_length(self):
        cfg = ScenarioConfig(pilot_len=40, antennas_per_ap=2, num_aps=2, cluster_size=1)
        art = build_scenario(cfg)
        ds = build_dataset(cfg, art.beta, art.pilots, 2, substream(0, "data"))
        assert ds.features.shape == (2, 2, 160)

    def test_label_shapes(self, small_config, small_artifacts):
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 5,
            substream(0, "data"),
        )
        assert ds.labels.shape == (5, small_config.num_devices)

    def test_shared_event_across_aps(self, small_config, small_artifacts):
        # Every AP's feature row within one sample decodes to a signal
        # with the same label; labels are stored once per event.
        ds = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 3,
            substream(1, "data"),
        )
        feats0, labels0 = ds.shard(0)
        feats1, labels1 = ds.shard(1)
        assert labels0 is labels1
        assert not np.array_equal(feats0, feats1)

    def test_activity_rate(self):
        cfg = ScenarioConfig(
            num_aps=1, antennas_per_ap=1, num_devices=100, pilot_len=2,
            cluster_size=1, activation_prob=0.1,
        )
        art = build_scenario(cfg)
        ds = build_dataset(cfg, art.beta, art.pilots, 10_000, substream(3, "data"))
        assert abs(ds.labels.mean() - 0.1) < 0.01

    def test_determinism(self, small_config, small_artifacts):
        ds1 = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 4,
            substream(8, "data"),
        )
        ds2 = build_dataset(
            small_config, small_artifacts.beta, small_artifacts.pilots, 4,
            substream(8, "data"),
        )
        assert np.array_equal(ds1.features, ds2.features)
        assert np.array_equal(ds1.labels, ds2.labels)

    def test_matches_einsum_reference(self):
        # Desk shapes, 4 of 40 devices active on average. The synthesis
        # may reorder the pilot sums (tolerance 1e-12 relative per event),
        # but must keep the draws (labels bit-exact) and the feature layout.
        cfg = ScenarioConfig(
            area_side_km=0.5, num_aps=8, antennas_per_ap=2, num_devices=40, pilot_len=20,
            cluster_size=4, tx_power=1e12, master_seed=42,
        )
        art = build_scenario(cfg)
        ds = build_dataset(cfg, art.beta, art.pilots, 24, substream(6, "data"))
        signals, labels = received_signals_reference(
            cfg, art.beta, art.pilots, 24, substream(6, "data")
        )
        assert np.array_equal(ds.labels, labels)
        for i, y in enumerate(signals):
            scale = np.max(np.abs(y))
            ref = np.stack([features_from_received(y[ap]) for ap in range(cfg.num_aps)])
            assert np.max(np.abs(ds.features[i] - ref)) <= 1e-12 * scale
            for ap in range(cfg.num_aps):
                back = received_from_features(
                    ds.features[i, ap], cfg.pilot_len, cfg.antennas_per_ap
                )
                assert np.max(np.abs(back - y[ap])) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "shape",
        [dict(area_side_km=0.5, num_aps=8, num_devices=40, pilot_len=20), dict()],
        ids=["desk", "paper"],
    )
    def test_bit_exact_to_step_by_step_reference(self, shape):
        # The one-block draw split four ways and the active-only gains must
        # reproduce the event-by-event reference (four draws, every gain)
        # bit for bit, features and labels alike.
        cfg = ScenarioConfig(
            antennas_per_ap=2, cluster_size=4, tx_power=1e12, master_seed=42, **shape
        )
        art = build_scenario(cfg)
        ds = build_dataset(cfg, art.beta, art.pilots, 256, substream(12, "data"))
        ref = build_dataset_reference(cfg, art.beta, art.pilots, 256, substream(12, "data"))
        assert np.array_equal(ds.labels, ref.labels)
        assert np.array_equal(ds.features, ref.features)
        assert 0 < ds.labels.sum() < ds.labels.size

    @pytest.mark.parametrize(
        "shape",
        [dict(area_side_km=0.5, num_aps=8, num_devices=40, pilot_len=20), dict()],
        ids=["desk", "paper"],
    )
    def test_float32_set_is_the_float64_set_rounded(self, shape):
        # A float32 set is written event by event; it must hold the float32
        # rounding of the float64 set's features, byte for byte.
        cfg = ScenarioConfig(
            antennas_per_ap=2, cluster_size=4, tx_power=1e12, master_seed=42, **shape
        )
        art = build_scenario(cfg)
        wide = build_dataset(cfg, art.beta, art.pilots, 64, substream(13, "data"))
        narrow = build_dataset(
            cfg, art.beta, art.pilots, 64, substream(13, "data"), dtype=np.float32
        )
        assert wide.features.dtype == np.float64
        assert narrow.features.dtype == np.float32
        assert narrow.features.tobytes() == wide.features.astype(np.float32).tobytes()
        assert np.array_equal(narrow.labels, wide.labels)
        assert narrow.labels.dtype == wide.labels.dtype

    def test_rejects_empty(self, small_config, small_artifacts):
        with pytest.raises(ValueError):
            build_dataset(
                small_config, small_artifacts.beta, small_artifacts.pilots, 0,
                substream(0, "data"),
            )
