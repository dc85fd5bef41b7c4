"""Small-scale fading, per-AP received-signal synthesis, and labeled
dataset construction.

Stream contract (`build_dataset`): event i draws from the i-th child
spawned from the dataset's stream, in this order: K activity uniforms,
then one block of 2*M*K*N + 2*M*L*N standard normals, read as the real
parts of the fading h (M, K, N), its imaginary parts, the real parts of
the noise (M, L, N) and its imaginary parts, each row-major. Every
shipped output that depends on event synthesis depends on this order.

Feature encoding (`features_from_received`): each AP's L x N observation
is flattened column-major (antenna by antenna) and the real parts are
concatenated ahead of the imaginary parts, giving a lossless real vector
of length 2*L*N. The inverse (`received_from_features`) is bit-exact,
signed zeros and non-finite values included: each half is written into
its own part of the complex result, with no arithmetic between them.
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
    flat = np.empty(features.shape[:-1] + (half,), dtype=complex)
    flat.real = features[..., :half]
    flat.imag = features[..., half:]
    return flat.reshape(flat.shape[:-1] + (antennas, pilot_len)).swapaxes(-1, -2)


def build_dataset(
    config: ScenarioConfig,
    beta: np.ndarray,
    pilots: np.ndarray,
    n_samples: int,
    stream: np.random.Generator,
    dtype: np.typing.DTypeLike = np.float64,
) -> Dataset:
    """Generate n_samples labeled uplink events, their features stored
    as `dtype`.

    Each event owns an independent child stream, so datasets are
    reproducible regardless of how callers parallelize. Within an event all
    APs observe the same transmission, which is what makes per-AP shards
    non-iid. The event's received signal is y = sum over active k of
    sqrt(tx_power) * pilot_k * g_k + CN(0, noise_var) noise, with gains
    g = sqrt(beta) * h and CN(0,1) fading h; silent devices add nothing,
    so only the active devices' gains are formed.

    Each event is synthesized in float64 and its features are rounded
    into the `dtype` array as they are written, so a float32 set holds
    exactly the values of `build_dataset(...).features.astype(np.float32)`
    without a float64 set ever existing.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples: must be >= 1, got {n_samples}")
    m, k, n, ell = config.num_aps, config.num_devices, config.antennas_per_ap, config.pilot_len
    root_beta = np.sqrt(beta)[:, :, None]                           # (M, K, 1)
    amplitude = np.sqrt(config.tx_power)
    noise_scale = np.sqrt(config.noise_var / 2.0)
    feat = np.empty((n_samples, m, config.feature_dim), dtype=dtype)
    labels = np.empty((n_samples, k), dtype=np.int8)
    for i, child in enumerate(stream.spawn(n_samples)):
        activity = sample_activity(config, child)
        draws = child.standard_normal(2 * m * k * n + 2 * m * ell * n)
        fading = draws[: 2 * m * k * n].reshape(2, m, k, n)       # real, imaginary
        noise = draws[2 * m * k * n :].reshape(2, m, ell, n)        # real, imaginary
        coef = activity.astype(np.float64) * amplitude              # (K,)
        active = np.flatnonzero(coef)
        h = fading[:, :, active]
        h = (h[0] + 1j * h[1]) / _SQRT2
        weighted = coef[active, None] * (root_beta[:, active] * h)  # (M, A, N)
        signal = pilots[:, active] @ weighted                       # (M, L, N)
        y = signal + (noise[0] + 1j * noise[1]) * noise_scale
        feat[i] = features_from_received(y)
        labels[i] = activity
    return Dataset(features=feat, labels=labels)
