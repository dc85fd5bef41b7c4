"""Small-scale fading, per-AP received-signal synthesis, and labeled
dataset construction.

Stream contract (`build_dataset`): event i of a set whose first child is
c draws from child c + i of the dataset's stream, the generator that
`stream.spawn` hands out as child c + i (the one whose spawn key ends in
c + i), in this order: K activity uniforms, then one block of
2*M*K*N + 2*M*L*N standard normals, read as the real parts of the
fading h (M, K, N), its imaginary parts, the real parts of the noise
(M, L, N) and its imaginary parts, each row-major. Every shipped output
that depends on event synthesis depends on this order. Child numbers
are explicit: the stream's spawn counter is neither read nor advanced,
so two sets drawn from one stream must be given first children apart.

Synthesis runs at the contract's draw floor. The children's PCG64 states
are derived in one pass per set (`rng.spawned_pcg64_states`) and every
event draws from one reused generator whose state is set to its child's.
Each event's features are written straight into its output row with
real arithmetic that rounds as numpy's complex products do, so the only
complex operation is the pilot superposition's matrix product.

Feature encoding: each AP's L x N observation is flattened column-major
(antenna by antenna) and the real parts are placed ahead of the
imaginary parts, giving a lossless real vector of length 2*L*N. The
inverse (`received_from_features`) is bit-exact, signed zeros and
non-finite values included: each half is written into its own part of
the complex result, with no arithmetic between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import spawned_pcg64_states
from .scenario import ScenarioConfig

# numpy divides a complex array by sqrt(2) as complex division by
# sqrt(2) + 0j, which multiplies both parts by this rounded reciprocal.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


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


def received_from_features(features: np.ndarray, pilot_len: int, antennas: int) -> np.ndarray:
    """The observations that features encode (see the module docstring),
    bit for bit, over any leading batch axes: (..., 2*L*N) features map
    to (..., L, N) observations."""
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
    first_child: int = 0,
) -> Dataset:
    """Generate n_samples labeled uplink events, their features stored
    as `dtype`.

    Event i draws from child first_child + i of `stream` (see the module
    docstring), so datasets are reproducible regardless of how callers
    parallelize. The stream's spawn counter is neither read nor advanced,
    so a caller that draws several sets from one stream numbers them
    apart. Within an event all APs observe the same
    transmission, which is what makes per-AP shards non-iid. The event's
    received signal is y = sum over active k of sqrt(tx_power) * pilot_k
    * g_k + CN(0, noise_var) noise, with gains g = sqrt(beta) * h and
    CN(0,1) fading h; silent devices add nothing, so only the active
    devices' gains are formed.

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
    active_bits = labels.view(np.bool_)                             # writes 0/1 bytes
    # Event i's features as a (real/imaginary, M, L, N) view of its rows.
    rows = feat.reshape(n_samples, m, 2, n, ell).transpose(0, 2, 1, 4, 3)
    uniforms = np.empty(k)
    draws = np.empty(2 * m * k * n + 2 * m * ell * n)
    fading = draws[: 2 * m * k * n].reshape(2, m, k, n)           # real, imaginary
    noise = draws[2 * m * k * n :].reshape(2, m, ell, n)            # real, imaginary
    signal = np.empty((m, ell, n), dtype=complex)
    # The signal's real and imaginary parts as one (2, M, L, N) float view.
    signal_parts = signal.view(np.float64).reshape(m, ell, n, 2).transpose(3, 0, 1, 2)
    generator = np.random.Generator(np.random.PCG64(0))
    for i, child in enumerate(spawned_pcg64_states(stream, first_child, n_samples)):
        generator.bit_generator.state = child
        generator.random(out=uniforms)
        np.less(uniforms, config.activation_prob, out=active_bits[i])
        generator.standard_normal(out=draws)
        active = active_bits[i].nonzero()[0]
        # amplitude * (sqrt(beta) * (h / sqrt(2))) part by part: a complex
        # times a real multiplies each part, and numpy's complex division by
        # sqrt(2) multiplies each part by _INV_SQRT2, so this is bit-exact.
        gains = np.take(fading, active, axis=2)                     # (2, M, A, N)
        gains *= _INV_SQRT2
        gains *= np.take(root_beta, active, axis=1)
        gains *= amplitude
        weighted = np.empty(gains.shape[1:], dtype=complex)
        weighted.real, weighted.imag = gains
        np.matmul(np.take(pilots, active, axis=1), weighted, out=signal)  # (M, L, N)
        noise *= noise_scale
        noise += signal_parts                                       # y = signal + noise
        rows[i] = noise
    return Dataset(features=feat, labels=labels)
