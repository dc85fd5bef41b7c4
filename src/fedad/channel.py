"""Small-scale fading, per-AP received-signal synthesis, and labeled
dataset construction.

Feature encoding (`features_from_received`): each AP's L x N observation
is flattened column-major (antenna by antenna) and the real parts are
concatenated ahead of the imaginary parts, giving a lossless real vector
of length 2*L*N. The inverse (`received_from_features`) is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig, sample_activity

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Dataset:
    """A batch of Monte-Carlo uplink events seen by every AP.

    features: (n_samples, M, 2*L*N) real
    labels:   (n_samples, K) 0/1
    """

    features: np.ndarray
    labels: np.ndarray

    def shard(self, ap_index: int) -> tuple[np.ndarray, np.ndarray]:
        """One AP's local view: its features across all events, shared labels."""
        return self.features[:, ap_index, :], self.labels


def draw_channels(
    beta: np.ndarray, config: ScenarioConfig, stream: np.random.Generator
) -> np.ndarray:
    """Composite gains g = sqrt(beta) * h, shaped (M, K, N), with i.i.d.
    CN(0,1) small-scale fading h."""
    shape = (config.num_aps, config.num_devices, config.antennas_per_ap)
    h = (stream.standard_normal(shape) + 1j * stream.standard_normal(shape)) / _SQRT2
    return np.sqrt(beta)[:, :, None] * h


def synthesize_received(
    activity: np.ndarray,
    gains: np.ndarray,
    pilots: np.ndarray,
    config: ScenarioConfig,
    noise_stream: np.random.Generator,
) -> np.ndarray:
    """Received signal y (M, L, N): superposition of the active devices'
    scaled pilots through their composite gains (M, K, N), plus
    CN(0, noise_var) AWGN."""
    coef = activity.astype(np.float64) * np.sqrt(config.tx_power)   # (K,)
    active = np.flatnonzero(coef)                # silent devices add exact zeros
    weighted = coef[active, None] * gains[:, active]                # (M, A, N)
    signal = pilots[:, active] @ weighted                           # (M, L, N)
    shape = signal.shape
    noise = (
        noise_stream.standard_normal(shape) + 1j * noise_stream.standard_normal(shape)
    ) * np.sqrt(config.noise_var / 2.0)
    return signal + noise


def features_from_received(received: np.ndarray) -> np.ndarray:
    """Flatten L x N observations to real vectors of length 2*L*N, over any
    leading batch axes: (..., L, N) observations map to (..., 2*L*N)
    features."""
    flat = received.swapaxes(-1, -2).reshape(received.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def received_from_features(features: np.ndarray, pilot_len: int, antennas: int) -> np.ndarray:
    """Bit-exact inverse of `features_from_received`, over any leading
    batch axes: (..., 2*L*N) features map to (..., L, N) observations."""
    half = pilot_len * antennas
    flat = features[..., :half] + 1j * features[..., half:]
    return flat.reshape(flat.shape[:-1] + (antennas, pilot_len)).swapaxes(-1, -2)


def build_dataset(
    config: ScenarioConfig,
    beta: np.ndarray,
    pilots: np.ndarray,
    n_samples: int,
    stream: np.random.Generator,
) -> Dataset:
    """Generate n_samples labeled uplink events.

    Each event owns an independent child stream (activity, channels, noise
    drawn in that fixed order), so datasets are reproducible regardless of
    how callers parallelize. Within an event all APs observe the same
    transmission, which is what makes per-AP shards non-iid.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples: must be >= 1, got {n_samples}")
    feat = np.empty((n_samples, config.num_aps, config.feature_dim))
    labels = np.empty((n_samples, config.num_devices), dtype=np.int8)
    for i, child in enumerate(stream.spawn(n_samples)):
        activity = sample_activity(config, child)
        gains = draw_channels(beta, config, child)
        y = synthesize_received(activity, gains, pilots, config, child)
        feat[i] = features_from_received(y)
        labels[i] = activity
    return Dataset(features=feat, labels=labels)
