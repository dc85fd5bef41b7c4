"""Static experiment world: geometry, large-scale fading and pilot book.
Each event's sparse device activity is drawn with its channels, in
`channel.build_dataset`.

All powers are linear and expressed relative to the per-sample noise
power, i.e. ``noise_var = 1.0`` means the AWGN has unit variance per
complex pilot sample and ``tx_power`` is the transmit power on the same
scale. The default ``tx_power = 1e11`` (110 dB above the noise floor)
puts a device 100 m from an AP at roughly +6 dB post-despreading SNR.

Large-scale fading follows one fixed law, the 3GPP urban-microcell
single-slope model used by Bjornson & Sanguinetti ("Making Cell-Free
Massive MIMO Competitive With MMSE Processing and Centralized
Implementation", IEEE TWC 2020):
beta_dB = PATHLOSS_INTERCEPT_DB - PATHLOSS_EXPONENT * log10(d_m), with
d_m floored at PATHLOSS_FLOOR_M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import substream

PATHLOSS_INTERCEPT_DB = -30.5
PATHLOSS_EXPONENT = 36.7
PATHLOSS_FLOOR_M = 10.0


@dataclass(frozen=True)
class ScenarioConfig:
    """All scalar system parameters plus the master seed."""

    area_side_km: float = 1.0
    num_aps: int = 20
    antennas_per_ap: int = 2
    num_devices: int = 100
    pilot_len: int = 40
    activation_prob: float = 0.1
    tx_power: float = 1e11
    noise_var: float = 1.0
    hidden_units: int = 512
    cluster_size: int = 4
    master_seed: int = 1

    def __post_init__(self) -> None:
        counts = {
            "num_aps": self.num_aps,
            "antennas_per_ap": self.antennas_per_ap,
            "num_devices": self.num_devices,
            "pilot_len": self.pilot_len,
            "hidden_units": self.hidden_units,
            "cluster_size": self.cluster_size,
        }
        for key, value in counts.items():
            if value < 1:
                raise ValueError(f"{key}: must be >= 1, got {value}")
        if not 0.0 < self.activation_prob < 1.0:
            raise ValueError(
                f"activation_prob: must lie in (0, 1), got {self.activation_prob}"
            )
        if self.cluster_size > self.num_aps:
            raise ValueError(
                f"cluster_size: must be <= num_aps "
                f"({self.cluster_size} > {self.num_aps})"
            )
        if self.tx_power <= 0:
            raise ValueError(f"tx_power: must be > 0, got {self.tx_power}")
        if self.noise_var < 0:
            raise ValueError(f"noise_var: must be >= 0, got {self.noise_var}")
        if self.area_side_km <= 0:
            raise ValueError(f"area_side_km: must be > 0, got {self.area_side_km}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed: must be >= 0, got {self.master_seed}")

    @property
    def feature_dim(self) -> int:
        """Length of one AP's real feature vector (2 * L * N)."""
        return 2 * self.pilot_len * self.antennas_per_ap


@dataclass(frozen=True)
class Geometry:
    """AP and device coordinates in km, inside the [0, D]^2 square."""

    ap_positions: np.ndarray      # (M, 2)
    device_positions: np.ndarray  # (K, 2)


@dataclass(frozen=True)
class ScenarioArtifacts:
    """Everything static about one experiment world."""

    config: ScenarioConfig
    geometry: Geometry
    beta: np.ndarray    # (M, K) linear large-scale gains
    pilots: np.ndarray  # (L, K) complex, unit-norm columns


def generate_geometry(config: ScenarioConfig, stream: np.random.Generator) -> Geometry:
    """Drop APs and devices independently and uniformly over the D x D square."""
    side = config.area_side_km
    ap_positions = stream.uniform(0.0, side, size=(config.num_aps, 2))
    device_positions = stream.uniform(0.0, side, size=(config.num_devices, 2))
    return Geometry(ap_positions=ap_positions, device_positions=device_positions)


def large_scale_fading(geometry: Geometry) -> np.ndarray:
    """Single-slope log-distance gains beta (M, K) under the module's
    path-loss law, distances floored at PATHLOSS_FLOOR_M; deterministic
    in the geometry (no shadowing)."""
    delta = geometry.ap_positions[:, None, :] - geometry.device_positions[None, :, :]
    dist_m = 1000.0 * np.sqrt(np.sum(delta**2, axis=-1))
    dist_m = np.maximum(dist_m, PATHLOSS_FLOOR_M)
    beta_db = PATHLOSS_INTERCEPT_DB - PATHLOSS_EXPONENT * np.log10(dist_m)
    return 10.0 ** (beta_db / 10.0)


def generate_pilots(config: ScenarioConfig, stream: np.random.Generator) -> np.ndarray:
    """Non-orthogonal pilot book (L, K): i.i.d. CN(0,1) entries, columns
    normalized to unit Euclidean norm."""
    shape = (config.pilot_len, config.num_devices)
    raw = (stream.standard_normal(shape) + 1j * stream.standard_normal(shape)) / np.sqrt(2.0)
    return raw / np.linalg.norm(raw, axis=0, keepdims=True)


def build_scenario(config: ScenarioConfig) -> ScenarioArtifacts:
    """Generate the full static world from the config's master seed."""
    geometry = generate_geometry(config, substream(config.master_seed, "geometry"))
    beta = large_scale_fading(geometry)
    pilots = generate_pilots(config, substream(config.master_seed, "pilots"))
    return ScenarioArtifacts(config=config, geometry=geometry, beta=beta, pilots=pilots)
