from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedad.rng import substream
from fedad.scenario import (
    ScenarioConfig,
    build_scenario,
    generate_geometry,
    generate_pilots,
    large_scale_fading,
    sample_activity,
)


def pathloss_db(distance_m, floor_m=10.0):
    # Independent evaluation of the stated law for oracle values.
    d = max(distance_m, floor_m)
    return -30.5 - 36.7 * np.log10(d)


class TestConfigInvariants:
    def test_default_network_scale(self):
        cfg = ScenarioConfig()
        assert (cfg.num_aps, cfg.antennas_per_ap, cfg.num_devices) == (20, 2, 100)
        assert (cfg.pilot_len, cfg.hidden_units, cfg.cluster_size) == (40, 512, 4)
        assert cfg.activation_prob == 0.1

    @pytest.mark.parametrize(
        "changes",
        [
            {"num_aps": 0},
            {"num_devices": 0},
            {"pilot_len": 0},
            {"activation_prob": 1.5},
            {"activation_prob": -0.1},
            {"activation_prob": 0.0},
            {"activation_prob": 1.0},
            {"cluster_size": 30, "num_aps": 20},
            {"hidden_units": 0},
            {"tx_power": 0.0},
            {"noise_var": -1.0},
            {"area_side_km": 0.0},
        ],
    )
    def test_bad_values_rejected(self, changes):
        with pytest.raises(ValueError):
            ScenarioConfig(**changes)

    def test_error_names_offending_key(self):
        with pytest.raises(ValueError, match="cluster_size"):
            ScenarioConfig(cluster_size=99, num_aps=8)

    def test_feature_dim(self):
        assert ScenarioConfig(pilot_len=40, antennas_per_ap=2).feature_dim == 160


class TestGeometry:
    def test_range_containment(self):
        cfg = ScenarioConfig(area_side_km=1.0)
        geo = generate_geometry(cfg, substream(0, "geometry"))
        for coords in (geo.ap_positions, geo.device_positions):
            assert np.all(coords >= 0.0) and np.all(coords <= 1.0)

    def test_determinism(self):
        cfg = ScenarioConfig()
        a = generate_geometry(cfg, substream(7, "geometry"))
        b = generate_geometry(cfg, substream(7, "geometry"))
        assert np.array_equal(a.ap_positions, b.ap_positions)
        assert np.array_equal(a.device_positions, b.device_positions)

    def test_uniform_moments(self):
        # Mean of U(0,1) is 0.5 with std 1/sqrt(12); with 1e4 devices the
        # sample mean must land within 3 standard errors.
        cfg = ScenarioConfig(num_devices=10_000, num_aps=1, cluster_size=1)
        geo = generate_geometry(cfg, substream(42, "geometry"))
        tol = 3.0 / np.sqrt(12.0 * 10_000)
        for axis in range(2):
            assert abs(geo.device_positions[:, axis].mean() - 0.5) < tol

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), side=st.floats(0.1, 5.0))
    def test_containment_property(self, seed, side):
        cfg = ScenarioConfig(num_aps=5, num_devices=7, cluster_size=2, area_side_km=side)
        geo = generate_geometry(cfg, substream(seed, "geometry"))
        assert np.all(geo.ap_positions >= 0) and np.all(geo.ap_positions <= side)
        assert np.all(geo.device_positions >= 0) and np.all(geo.device_positions <= side)


class TestLargeScaleFading:
    def _beta_at_distance(self, distance_km):
        from fedad.scenario import Geometry

        geo = Geometry(
            ap_positions=np.array([[0.0, 0.0]]),
            device_positions=np.array([[distance_km, 0.0]]),
        )
        return large_scale_fading(geo)[0, 0]

    def test_100m_value(self):
        expected_db = pathloss_db(100.0)
        assert expected_db == pytest.approx(-103.9, abs=1e-9)
        assert self._beta_at_distance(0.1) == pytest.approx(10 ** (expected_db / 10), rel=1e-12)

    def test_floor_at_10m(self):
        expected_db = pathloss_db(1.0)
        assert expected_db == pytest.approx(-67.2, abs=1e-9)
        assert self._beta_at_distance(0.001) == pytest.approx(10 ** (-6.72), rel=1e-12)
        # Anything below the floor sees the same gain.
        assert self._beta_at_distance(0.001) == self._beta_at_distance(0.005)

    def test_monotone_decay(self):
        distances = np.linspace(0.0, 1.4, 50)
        betas = np.array([self._beta_at_distance(d) for d in distances])
        assert np.all(np.diff(betas) <= 0)
        assert np.all(betas > 0) and np.all(np.isfinite(betas))


class TestPilots:
    def test_unit_norm_columns(self):
        cfg = ScenarioConfig()
        pilots = generate_pilots(cfg, substream(3, "pilots"))
        norms = np.linalg.norm(pilots, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_full_rank_default_dims(self):
        cfg = ScenarioConfig(pilot_len=40, num_devices=100)
        pilots = generate_pilots(cfg, substream(5, "pilots"))
        assert np.linalg.matrix_rank(pilots) == 40

    def test_determinism(self):
        cfg = ScenarioConfig(num_devices=2, pilot_len=2, num_aps=2, cluster_size=1)
        a = generate_pilots(cfg, substream(9, "pilots"))
        b = generate_pilots(cfg, substream(9, "pilots"))
        assert np.array_equal(a, b)

    def test_non_orthogonal_when_overloaded(self):
        cfg = ScenarioConfig(pilot_len=8, num_devices=24)
        pilots = generate_pilots(cfg, substream(1, "pilots"))
        gram = np.abs(pilots.conj().T @ pilots)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() > 0.0


class TestActivity:
    def test_entries_binary(self):
        cfg = ScenarioConfig()
        a = sample_activity(cfg, substream(2, "activity"))
        assert set(np.unique(a)).issubset({0, 1})

    def test_binomial_moment(self):
        # Mean active count over 1e4 draws of Binomial(100, 0.1) must lie
        # within 3 * sqrt(100 * 0.1 * 0.9 / 1e4) of 10.
        cfg = ScenarioConfig(activation_prob=0.1, num_devices=100)
        rng = substream(77, "activity")
        counts = [sample_activity(cfg, rng).sum() for _ in range(10_000)]
        tol = 3.0 * np.sqrt(100 * 0.1 * 0.9 / 10_000)
        assert abs(np.mean(counts) - 10.0) < tol


class TestBuildScenario:
    def test_reproducible_world(self):
        cfg = ScenarioConfig(master_seed=21)
        a = build_scenario(cfg)
        b = build_scenario(cfg)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.pilots, b.pilots)

    def test_beta_positive_finite(self, small_artifacts):
        assert np.all(small_artifacts.beta > 0)
        assert np.all(np.isfinite(small_artifacts.beta))

    def test_with_overrides_validates(self, small_config):
        # dataclasses.replace builds a new config, so __post_init__ runs.
        with pytest.raises(ValueError):
            replace(small_config, cluster_size=small_config.num_aps + 1)
