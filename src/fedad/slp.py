"""Single-hidden-layer perceptron detector: Glorot init, forward pass,
binary cross-entropy, exact backprop, and Adam.

The network maps one AP's real feature vector (length 2*L*N) through a
ReLU hidden layer of V units to K sigmoid outputs, one activity
probability per device. Everything is plain numpy. Parameters live in
one flat vector (see SlpParams), so an Adam step is a handful of
in-place vector operations: `adam_step` updates the parameters and the
optimizer state it is given, in Kingma & Ba's efficient form, while
`forward` and `backward` never mutate their inputs. All three follow the
dtype of the parameter vector: float64 for the global model and the
server step, float32 for local training (see federation.local_train),
with every scalar a Python float so that no pass is widened. Adam's
moment decays and epsilon are the fixed constants ADAM_BETA1,
ADAM_BETA2 and ADAM_EPS, the standard values of Kingma & Ba (ICLR 2015)
that FedAdam also uses on the server (Reddi et al., "Adaptive Federated
Optimization", ICLR 2021); only the learning rate is a setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig

PROB_CLAMP = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class SlpParams:
    """Two dense layers, held as reshaped views into one contiguous vector
    `flat` in wire-format order (w1, b1, w2, b2, each row-major). Also
    reused for gradients, which share this layout. Building one from its
    four layers gives a float64 vector; `from_flat` and `like` wrap an
    existing vector and keep its dtype."""

    def __init__(self, w1, b1, w2, b2) -> None:
        (v, f), k = np.shape(w1), np.size(b2)
        flat = np.concatenate([np.ravel(a) for a in (w1, b1, w2, b2)], dtype=np.float64)
        self._bind(flat, v, f, k)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: tuple[int, int, int]) -> "SlpParams":
        """Views into `flat` (not copied) for hidden units, inputs, outputs `dims`."""
        out = object.__new__(cls)
        out._bind(flat, *dims)
        return out

    def _bind(self, flat: np.ndarray, v: int, f: int, k: int) -> None:
        b1, w2, b2 = v * f, v * f + v, v * f + v + k * v
        if flat.shape != (b2 + k,):
            raise ValueError(f"vector shape {flat.shape} does not match V={v}, F={f}, K={k}")
        self.flat = flat
        self.dims = (v, f, k)
        self.w1 = flat[:b1].reshape(v, f)
        self.b1 = flat[b1:w2]
        self.w2 = flat[w2:b2].reshape(k, v)
        self.b2 = flat[b2:]

    def like(self, flat: np.ndarray) -> "SlpParams":
        """This layout over `flat` (not copied)."""
        return SlpParams.from_flat(flat, self.dims)

    def copy(self) -> "SlpParams":
        return self.like(self.flat.copy())


@dataclass
class AdamState:
    """Adam moments as flat vectors in the SlpParams layout; `adam_step`
    updates them and `step_count` in place."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    lr: float


def init_params(config: ScenarioConfig, stream: np.random.Generator) -> SlpParams:
    """Glorot-uniform weights, zero biases."""
    v, f, k = config.hidden_units, config.feature_dim, config.num_devices
    lim1 = np.sqrt(6.0 / (f + v))
    lim2 = np.sqrt(6.0 / (v + k))
    return SlpParams(
        w1=stream.uniform(-lim1, lim1, size=(v, f)),
        b1=np.zeros(v),
        w2=stream.uniform(-lim2, lim2, size=(k, v)),
        b2=np.zeros(k),
    )


def init_adam(params: SlpParams, lr: float = 1e-3) -> AdamState:
    return AdamState(
        first_moment=np.zeros_like(params.flat),
        second_moment=np.zeros_like(params.flat),
        step_count=0,
        lr=lr,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: exp(-|z|) is exp(z) for negative z."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def forward(
    params: SlpParams, features: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Scores in (0, 1), shaped (B, K), for a (B, F) batch of feature
    vectors, plus the cache `backward` reads: the hidden layer's output
    `hidden` only. The ReLU runs in place on the pre-activation, whose
    positive entries are exactly those of `hidden`, so no second (B, V)
    buffer is kept."""
    if features.shape[1] != params.w1.shape[1]:
        raise ValueError(
            f"feature length {features.shape[1]} does not match "
            f"model input dim {params.w1.shape[1]}"
        )
    z1 = features @ params.w1.T
    z1 += params.b1
    hidden = np.maximum(z1, 0.0, out=z1)
    z2 = hidden @ params.w2.T
    z2 += params.b2
    return _sigmoid(z2), {"hidden": hidden}


def bce_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy over all device outputs (and the batch,
    if scores are batched), with probabilities clamped away from 0/1."""
    s = np.clip(scores, PROB_CLAMP, 1.0 - PROB_CLAMP)
    a = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-(a * np.log(s) + (1.0 - a) * np.log(1.0 - s))))


def backward(params: SlpParams, features: np.ndarray, labels: np.ndarray) -> SlpParams:
    """Exact gradients of the mean BCE over a (B, F) batch and its (B, K)
    labels, using the fused sigmoid-BCE delta (scores - labels) / (B * K),
    written into one fresh flat buffer."""
    scores, cache = forward(params, features)
    batch, k = scores.shape
    d2 = (scores - labels) / (batch * k)            # (B, K)
    grads = params.like(np.empty_like(params.flat))
    np.matmul(d2.T, cache["hidden"], out=grads.w2)
    np.add.reduce(d2, axis=0, out=grads.b2)         # np.sum without its wrapper
    d1 = d2 @ params.w2                             # (B, V)
    d1 *= cache["hidden"] > 0.0                     # the ReLU mask: z1 > 0
    np.matmul(d1.T, features, out=grads.w1)
    np.add.reduce(d1, axis=0, out=grads.b1)
    return grads


def adam_step(
    params: SlpParams, grads: SlpParams, state: AdamState
) -> tuple[SlpParams, AdamState]:
    """One bias-corrected Adam update, in place on `params` and `state`,
    which are returned. It runs in Kingma & Ba's efficient form (ICLR
    2015, end of section 2): both bias corrections fold into the scalars
    lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_hat = eps * sqrt(1 - beta2^t), and the update is
    p - (lr_t / (sqrt(v) + eps_hat)) * m. That is the textbook update
    algebraically; only its rounding differs. One scratch vector serves
    every full-size intermediate, in the parameters' dtype: the scalars are
    Python floats, which do not widen a float32 pass."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_bc2 = math.sqrt(1.0 - b2**t)
    lr_t = state.lr * root_bc2 / (1.0 - b1**t)
    eps_hat = ADAM_EPS * root_bc2
    g, m, v = grads.flat, state.first_moment, state.second_moment
    tmp = (1.0 - b1) * g
    m *= b1
    m += tmp                                        # b1*m + (1-b1)*g
    np.multiply(1.0 - b2, g, out=tmp)
    tmp *= g
    v *= b2
    v += tmp                                        # b2*v + ((1-b2)*g)*g
    np.sqrt(v, out=tmp)
    tmp += eps_hat
    np.divide(lr_t, tmp, out=tmp)
    tmp *= m                                        # lr_t / (sqrt(v) + eps_hat) * m
    params.flat -= tmp
    return params, state
