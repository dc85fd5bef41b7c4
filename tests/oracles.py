"""Independent oracles shared by the acceptance suite: brute-force and
finite-difference references that never touch the implementation paths
they check."""

import itertools
import math
import tracemalloc

import numpy as np

from fedad.baselines import SolverDivergenceError, SparseEstimate
from fedad.channel import Dataset
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


def efficient_adam_step(leaves, grads, first, second, step, lr, beta1, beta2, eps):
    """The same Adam step in Kingma & Ba's efficient form (ICLR 2015, end
    of section 2), out of place and layer by layer: the bias corrections
    fold into lr_t and eps_hat, and p - (lr_t / (sqrt(v) + eps_hat)) * m.
    Every scalar is a Python float, so the step runs in the leaves' dtype."""
    first = [beta1 * m + (1.0 - beta1) * g for m, g in zip(first, grads)]
    second = [beta2 * v + (1.0 - beta2) * g * g for v, g in zip(second, grads)]
    root_bc2 = math.sqrt(1.0 - beta2**step)
    lr_t = lr * root_bc2 / (1.0 - beta1**step)
    eps_hat = eps * root_bc2
    leaves = [
        p - (lr_t / (np.sqrt(v) + eps_hat)) * m for p, m, v in zip(leaves, first, second)
    ]
    return leaves, first, second


def sample_activity(config, stream):
    """One Bernoulli(activation_prob) activity vector of length K, entries 0/1."""
    draws = stream.random(config.num_devices)
    return (draws < config.activation_prob).astype(np.int8)


def features_from_received(received):
    """Flatten L x N observations to real vectors of length 2*L*N, over any
    leading batch axes: (..., L, N) observations map to (..., 2*L*N)
    features, each antenna's column in turn, real parts ahead of
    imaginary parts."""
    flat = received.swapaxes(-1, -2).reshape(received.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def draw_channels(beta, config, stream):
    """Composite gains g = sqrt(beta) * h, shaped (M, K, N), with i.i.d.
    CN(0,1) small-scale fading h drawn as real parts, then imaginary."""
    shape = (config.num_aps, config.num_devices, config.antennas_per_ap)
    h = (stream.standard_normal(shape) + 1j * stream.standard_normal(shape)) / np.sqrt(2.0)
    return np.sqrt(beta)[:, :, None] * h


def synthesize_received(activity, gains, pilots, config, noise_stream):
    """Received signal y (M, L, N): superposition of the active devices'
    scaled pilots through their composite gains (M, K, N), plus
    CN(0, noise_var) AWGN."""
    coef = activity.astype(np.float64) * np.sqrt(config.tx_power)
    active = np.flatnonzero(coef)
    weighted = coef[active, None] * gains[:, active]
    signal = pilots[:, active] @ weighted
    shape = signal.shape
    noise = (
        noise_stream.standard_normal(shape) + 1j * noise_stream.standard_normal(shape)
    ) * np.sqrt(config.noise_var / 2.0)
    return signal + noise


def build_dataset_reference(config, beta, pilots, n_samples, stream):
    """`channel.build_dataset` with each event written out step by step:
    four separate normal draws, gains for every device, then the
    active-column superposition and noise."""
    feat = np.empty((n_samples, config.num_aps, config.feature_dim))
    labels = np.empty((n_samples, config.num_devices), dtype=np.int8)
    for i, child in enumerate(stream.spawn(n_samples)):
        activity = sample_activity(config, child)
        gains = draw_channels(beta, config, child)
        feat[i] = features_from_received(
            synthesize_received(activity, gains, pilots, config, child)
        )
        labels[i] = activity
    return Dataset(features=feat, labels=labels)


def received_signals_reference(config, beta, pilots, n_samples, stream):
    """Per-event received signals y (M, L, N) and activity labels, drawn in
    the dataset's order (one child stream per event: activity, channels,
    noise) and superposed with an explicit einsum."""
    signals, labels = [], []
    for child in stream.spawn(n_samples):
        activity = sample_activity(config, child)
        g = draw_channels(beta, config, child)
        coef = activity.astype(np.float64) * np.sqrt(config.tx_power)
        signal = np.einsum("lk,mkn->mln", pilots, coef[None, :, None] * g)
        noise = (
            child.standard_normal(signal.shape) + 1j * child.standard_normal(signal.shape)
        ) * np.sqrt(config.noise_var / 2.0)
        signals.append(signal + noise)
        labels.append(activity)
    return signals, np.array(labels)


def _reference_shrink(rows, tau):
    """Row soft threshold that also hands back the rows' norms before the
    shrink and each row's factor."""
    norms = np.linalg.norm(rows, axis=1)
    scale = np.where(norms > tau, 1.0 - tau / np.maximum(norms, 1e-300), 0.0)
    return rows * scale[:, None], norms, scale


def _reference_row_soft_threshold(rows, tau):
    return _reference_shrink(rows, tau)[0]


def _reference_objective(problem, x, lam):
    residual = problem.observations - problem.dictionary @ x
    data_term = 0.5 * float(np.linalg.norm(residual) ** 2)
    return data_term + lam * float(np.sum(np.linalg.norm(x, axis=1)))


def _reference_divergence(trace, increases, f0):
    if len(trace) < 2:
        return increases
    if trace[-1] > trace[-2] * (1.0 + 1e-12) + 1e-300:
        increases += 1
    else:
        increases = 0
    if increases >= 5 and trace[-1] > f0:
        raise SolverDivergenceError("objective increased for 5 consecutive iterations")
    return increases


def _reference_estimate(x, iterations, trace):
    return SparseEstimate(
        x_hat=x,
        activity_stat=np.sum(np.abs(x) ** 2, axis=1) / x.shape[1],
        iterations_used=iterations,
        objective_trace=np.asarray(trace),
    )


def ista_reference(problem, solver):
    """ISTA written out on its own: the objective recomputes its residual.
    Like the solver, it takes lam and the step size from `solver`."""
    s = problem.dictionary
    y = problem.observations
    lam = solver.lam
    mu = solver.step_size
    x = np.zeros((s.shape[1], y.shape[1]), dtype=complex)
    trace = [_reference_objective(problem, x, lam)]
    increases = 0
    iterations = 0
    for _ in range(solver.max_iters):
        grad_step = x + mu * (s.conj().T @ (y - s @ x))
        x = _reference_row_soft_threshold(grad_step, mu * lam)
        trace.append(_reference_objective(problem, x, lam))
        iterations += 1
        increases = _reference_divergence(trace, increases, trace[0])
        rel = abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-300)
        if rel < solver.tol:
            break
    return _reference_estimate(x, iterations, trace)


def fista_reference(problem, solver):
    """FISTA written out on its own, with the Nesterov t-sequence inline."""
    s = problem.dictionary
    y = problem.observations
    lam = solver.lam
    mu = solver.step_size
    x = np.zeros((s.shape[1], y.shape[1]), dtype=complex)
    z = x.copy()
    t = 1.0
    trace = [_reference_objective(problem, x, lam)]
    increases = 0
    iterations = 0
    for _ in range(solver.max_iters):
        grad_step = z + mu * (s.conj().T @ (y - s @ z))
        x_new = _reference_row_soft_threshold(grad_step, mu * lam)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        trace.append(_reference_objective(problem, x, lam))
        iterations += 1
        increases = _reference_divergence(trace, increases, trace[0])
        rel = abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-300)
        if rel < solver.tol:
            break
    return _reference_estimate(x, iterations, trace)


def shrink_form_reference(problem, solver, accelerate):
    """ISTA (accelerate=False) or FISTA written out with the objective
    taken from what the iteration already holds: the data term is
    0.5 * Re <R, R>, one complex dot of the residual R = Y - S X with
    itself, and the penalty is lam * sum_k ||g_k|| * scale_k, the row
    norms of the gradient step g before the shrink times the shrink's
    factors. That is lam * sum_k ||x_k|| up to rounding, and exactly 0
    for a dropped row."""
    s = problem.dictionary
    y = problem.observations
    lam = solver.lam
    mu = solver.step_size
    x = np.zeros((s.shape[1], y.shape[1]), dtype=complex)
    z = x.copy()
    t = 1.0
    residual = y - s @ x
    trace = [0.5 * float(np.vdot(residual, residual).real) + lam * 0.0]
    increases = 0
    iterations = 0
    for _ in range(solver.max_iters):
        grad_step = z + mu * (s.conj().T @ (y - s @ z))
        x_new, norms, scale = _reference_shrink(grad_step, mu * lam)
        if accelerate:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        else:
            z = x_new
        x = x_new
        residual = y - s @ x
        data_term = 0.5 * float(np.vdot(residual, residual).real)
        trace.append(data_term + lam * float(np.dot(norms, scale)))
        iterations += 1
        increases = _reference_divergence(trace, increases, trace[0])
        rel = abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-300)
        if rel < solver.tol:
            break
    return _reference_estimate(x, iterations, trace)


def amp_reference(problem, solver):
    """AMP written out on its own, with norms from np.linalg.norm, the
    adjoint formed every iteration and the residual norm taken twice."""
    a = problem.dictionary / np.sqrt(problem.rho)
    y = problem.observations
    ell = a.shape[0]
    alpha = solver.amp_alpha
    x = np.zeros((a.shape[1], y.shape[1]), dtype=complex)
    residual = y.copy()
    trace = []
    for _ in range(solver.amp_iters):
        tau = alpha * np.sqrt(np.linalg.norm(residual) ** 2 / ell)
        x = _reference_row_soft_threshold(x + a.conj().T @ residual, tau)
        support = int(np.sum(np.linalg.norm(x, axis=1) > 0))
        residual = y - a @ x + (support / ell) * residual
        if not np.all(np.isfinite(residual)) or not np.all(np.isfinite(x)):
            raise SolverDivergenceError("AMP produced non-finite values")
        trace.append(float(np.linalg.norm(residual)))
    x_hat = x / np.sqrt(problem.rho)
    return SparseEstimate(
        x_hat=x_hat,
        activity_stat=np.sum(np.abs(x_hat) ** 2, axis=1) / x_hat.shape[1],
        iterations_used=solver.amp_iters,
        objective_trace=np.asarray(trace),
    )


def fuse_cluster_scores(per_ap_scores, beta, cluster_size):
    """Fuse one event's (M, K) per-AP probabilities: for each device, the
    mean score of the cluster_size APs with the largest large-scale gain
    toward it, ties broken toward the lower AP index."""
    if cluster_size > beta.shape[0]:
        raise ValueError(f"cluster_size {cluster_size} exceeds number of APs {beta.shape[0]}")
    if per_ap_scores.shape != beta.shape:
        raise ValueError(
            f"per_ap_scores shape {per_ap_scores.shape} does not match beta {beta.shape}"
        )
    top = np.argsort(-beta, axis=0, kind="stable")[:cluster_size]
    return per_ap_scores[top, np.arange(beta.shape[1])].mean(axis=0)


def score_events_reference(params, dataset, beta, cluster_size):
    """`federation.score_events` as a full gather: every AP's scores on
    every event in one (M, E, K) array, then each device's cluster picked
    out of it and averaged."""
    top = np.argsort(-beta, axis=0, kind="stable")[:cluster_size]  # (T, K)
    n_events, m, _ = dataset.features.shape
    k = beta.shape[1]
    per_ap = np.empty((m, n_events, k))
    for ap in range(m):
        per_ap[ap] = forward(params, dataset.features[:, ap, :])[0]
    return per_ap[top[:, None, :], np.arange(n_events)[:, None], np.arange(k)].mean(axis=0)


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


def traced_peak(fn, *args) -> int:
    """Bytes `fn(*args)` holds at its peak beyond what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
