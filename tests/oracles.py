"""Independent oracles shared by the acceptance suite: brute-force and
finite-difference references that never touch the implementation paths
they check."""

import itertools

import numpy as np

from fedad.channel import draw_channels
from fedad.scenario import sample_activity
from fedad.slp import bce_loss, forward


def finite_difference_grads(params, x, labels, step=1e-5):
    """Central differences of the mean BCE w.r.t. every parameter, in the
    order of `params.flat`."""
    vec = params.flat.copy()
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        bumped = vec.copy()
        bumped[i] += step
        plus = bce_loss(forward(params.like(bumped), x)[0], labels)
        bumped[i] -= 2 * step
        minus = bce_loss(forward(params.like(bumped), x)[0], labels)
        grad[i] = (plus - minus) / (2 * step)
    return grad


def leafwise_adam_step(leaves, grads, first, second, step, lr, beta1, beta2, eps):
    """One bias-corrected Adam step written out of place, layer by layer
    (lists of arrays in, new lists out); `step` counts from 1."""
    first = [beta1 * m + (1.0 - beta1) * g for m, g in zip(first, grads)]
    second = [beta2 * v + (1.0 - beta2) * g * g for v, g in zip(second, grads)]
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    leaves = [
        p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        for p, m, v in zip(leaves, first, second)
    ]
    return leaves, first, second


def received_signals_reference(config, beta, pilots, n_samples, stream):
    """Per-event received signals y (M, L, N) and activity labels, drawn in
    the dataset's order (one child stream per event: activity, channels,
    noise) and superposed with an explicit einsum."""
    signals, labels = [], []
    for child in stream.spawn(n_samples):
        activity = sample_activity(config, child)
        g = draw_channels(beta, config, child).g
        coef = activity.astype(np.float64) * np.sqrt(config.tx_power)
        signal = np.einsum("lk,mkn->mln", pilots, coef[None, :, None] * g)
        noise = (
            child.standard_normal(signal.shape) + 1j * child.standard_normal(signal.shape)
        ) * np.sqrt(config.noise_var / 2.0)
        signals.append(signal + noise)
        labels.append(activity)
    return signals, np.array(labels)


def exhaustive_ls_support(dictionary, observations, size):
    """Least-squares residual over every support of the given size."""
    best, best_resid = None, np.inf
    for combo in itertools.combinations(range(dictionary.shape[1]), size):
        sub = dictionary[:, combo]
        coef, *_ = np.linalg.lstsq(sub, observations, rcond=None)
        resid = np.linalg.norm(observations - sub @ coef)
        if resid < best_resid:
            best, best_resid = set(combo), resid
    return best


def unit_column_dictionary(rng, ell, k):
    a = (rng.standard_normal((ell, k)) + 1j * rng.standard_normal((ell, k))) / np.sqrt(2)
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def orthonormal_dictionary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q
