"""Sparse-recovery baselines on the stacked multi-antenna observations:
ISTA, FISTA (row-sparse group LASSO), and AMP with a row soft-threshold
denoiser; `detect`, which runs one of them on every event of a dataset;
and the colocated-array scenario transform.

The uplink model is rewritten as Y = S X + W where S is the pilot book
scaled by sqrt(tx_power), Y stacks every antenna of the participating APs
column-wise, and row k of X collects device k's composite channel gains.
Activity is then read off the recovered row energies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import Dataset, received_from_features
from .scenario import Geometry, ScenarioArtifacts, ScenarioConfig, large_scale_fading


class SolverDivergenceError(RuntimeError):
    """Raised when an iterative solve blows up (bad step size or an AMP
    run outside its stability regime)."""


@dataclass(frozen=True)
class MmvProblem:
    """Joint-sparsity recovery instance.

    dictionary:   (L, K) complex, every column of norm sqrt(rho)
    observations: (L, C) complex, C = total antennas stacked column-wise
    rho:          common squared column norm (transmit power scale)
    """

    dictionary: np.ndarray
    observations: np.ndarray
    rho: float

    def __post_init__(self) -> None:
        # np.allclose(norms, target, atol=...) with its default rtol = 1e-5.
        target = np.sqrt(self.rho)
        atol = 1e-9 * max(1.0, target)
        deviation = np.abs(_row_norms(self.dictionary.T) - target)
        if not np.all(deviation <= atol + 1e-5 * target):
            raise ValueError("dictionary columns must have norm sqrt(rho)")
        if self.observations.shape[0] != self.dictionary.shape[0]:
            raise ValueError("observation rows must match dictionary rows")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    lam: row-group regularization weight (ISTA/FISTA).
    step_size: proximal-gradient step (ISTA/FISTA).
    amp_alpha: AMP threshold multiplier.

    None in lam or step_size stands for the experiment's default, which
    resolve_solver fills in; ista and fista take resolved settings.
    """

    lam: float | None = None
    max_iters: int = 200
    tol: float = 1e-8
    step_size: float | None = None
    amp_iters: int = 25
    amp_alpha: float = 1.5

    def __post_init__(self) -> None:
        # Messages name the JSON key, which for lam is "lambda".
        if self.max_iters < 1:
            raise ValueError(f"max_iters: must be >= 1, got {self.max_iters}")
        if self.lam is not None and self.lam < 0:
            raise ValueError(f"lambda: must be >= 0, got {self.lam}")
        if self.tol < 0:
            raise ValueError(f"tol: must be >= 0, got {self.tol}")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError(f"step_size: must be > 0, got {self.step_size}")
        if self.amp_iters < 0:
            raise ValueError(f"amp_iters: must be >= 0, got {self.amp_iters}")
        if self.amp_alpha < 0:
            raise ValueError(f"amp_alpha: must be >= 0, got {self.amp_alpha}")


@dataclass(frozen=True)
class SparseEstimate:
    """Solver output: row-sparse estimate, per-device row-energy statistic,
    iterations actually run, and the per-iteration objective/residual trace."""

    x_hat: np.ndarray
    activity_stat: np.ndarray
    iterations_used: int
    objective_trace: np.ndarray


def default_lambda(config: ScenarioConfig) -> float:
    """Universal-threshold default, scaled to the dictionary's column norm:
    sigma * sqrt(2 ln K) * sqrt(N_total) * sqrt(rho), N_total = M * N."""
    sigma = np.sqrt(config.noise_var)
    return float(
        sigma
        * np.sqrt(2.0 * np.log(config.num_devices))
        * np.sqrt(config.num_aps * config.antennas_per_ap)
        * np.sqrt(config.tx_power)
    )


def _shrink_rows(rows: np.ndarray, tau: float) -> np.ndarray:
    """Shrink each row of a float or complex 2-D stack the caller owns
    toward zero, in place: row * max(1 - tau/||row||, 0) for tau >= 0,
    so a zero row stays zero even at tau = 0. Returns the mask of kept
    rows, those of norm > tau.

    A kept row stays nonzero. Its norm reads 0 only if its squared entries
    underflow, which takes norms near 1e-154 or below."""
    norms = _row_norms(rows)
    kept = norms > tau
    # Kept rows' norms exceed tau, so flooring the divisor at tau changes
    # none of their quotients; it keeps those of dropped rows from
    # overflowing.
    divisor = np.maximum(norms, max(tau, 1e-300))
    rows *= np.where(kept, 1.0 - tau / divisor, 0.0)[:, None]
    return kept


def _objective(residual: np.ndarray, x: np.ndarray, lam: float) -> float:
    """The LASSO objective 0.5 * ||Y - S X||_F^2 + lam * sum_k ||row k of X||_2
    of the 2-D estimate x, given its residual Y - S X."""
    data_term = 0.5 * float(_frobenius(residual) ** 2)
    return data_term + lam * float(np.add.reduce(_row_norms(x)))


# The two norms below are the expressions np.linalg.norm evaluates for
# these cases, bit for bit, without its per-call argument handling; the
# solvers call them several times per iteration.


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of a 2-D array."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))


def _frobenius(x: np.ndarray) -> np.float64:
    """np.linalg.norm(x) of a complex array."""
    flat = x.ravel(order="K")
    return np.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))


def _row_energies(x_hat: np.ndarray) -> np.ndarray:
    c = x_hat.shape[1]
    return np.sum(np.abs(x_hat) ** 2, axis=1) / c


def default_step_size(dictionary: np.ndarray) -> float:
    """1 / ||S||_2^2, the reciprocal Lipschitz constant of the LASSO gradient."""
    return 1.0 / float(np.linalg.norm(dictionary, 2) ** 2)


def resolve_solver(solver: SolverConfig, artifacts: ScenarioArtifacts) -> SolverConfig:
    """The experiment's solver settings: a None lam or step_size becomes
    its default (default_lambda, and 1 / ||S||_2^2 of the shared
    dictionary S = sqrt(tx_power) * pilots); set values pass through."""
    cfg = artifacts.config
    if solver.lam is None:
        solver = replace(solver, lam=default_lambda(cfg))
    if solver.step_size is None:
        dictionary = np.sqrt(cfg.tx_power) * artifacts.pilots
        solver = replace(solver, step_size=default_step_size(dictionary))
    return solver


def _check_divergence(trace: list[float], increases: int, f0: float) -> int:
    """Count consecutive objective increases; five in a row above the
    starting objective signals a bad step size."""
    if len(trace) < 2:
        return increases
    if trace[-1] > trace[-2] * (1.0 + 1e-12) + 1e-300:
        increases += 1
    else:
        increases = 0
    if increases >= 5 and trace[-1] > f0:
        raise SolverDivergenceError(
            "objective increased for 5 consecutive iterations; "
            "step size is too large for this instance"
        )
    return increases


def _proximal_gradient(
    problem: MmvProblem, solver: SolverConfig, accelerate: bool
) -> SparseEstimate:
    """Proximal-gradient iteration for the row-sparse LASSO, from X = 0:

        X <- rowprox(Z + mu * S^H (Y - S Z), mu * lam),  mu = step_size,

    with lam and step_size as resolve_solver sets them.

    Without acceleration Z is the last iterate, whose residual the
    objective already computed. With it, Z follows the Nesterov momentum
    sequence t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2 (FISTA). Stops at
    max_iters or when the relative objective change drops below tol.
    """
    s = problem.dictionary
    s_h = s.conj().T
    y = problem.observations
    lam, mu = solver.lam, solver.step_size
    x = z = np.zeros((s.shape[1], y.shape[1]), dtype=complex)
    residual = y - s @ x
    trace = [_objective(residual, x, lam)]
    t = 1.0
    increases = 0
    iterations = 0
    for _ in range(solver.max_iters):
        # The gradient step Z + mu * S^H (Y - S Z), formed and shrunk in place.
        x_new = s_h @ (y - s @ z if accelerate else residual)
        x_new *= mu
        x_new += z
        _shrink_rows(x_new, mu * lam)
        if accelerate:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        else:
            z = x_new
        x = x_new
        residual = y - s @ x
        trace.append(_objective(residual, x, lam))
        iterations += 1
        increases = _check_divergence(trace, increases, trace[0])
        rel = abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-300)
        if rel < solver.tol:
            break
    return SparseEstimate(
        x_hat=x,
        activity_stat=_row_energies(x),
        iterations_used=iterations,
        objective_trace=np.asarray(trace),
    )


def ista(problem: MmvProblem, solver: SolverConfig) -> SparseEstimate:
    """ISTA; its objective trace (including the X = 0 start) is
    nonincreasing for any step up to 1 / ||S||_2^2 (default_step_size)."""
    return _proximal_gradient(problem, solver, accelerate=False)


def fista(problem: MmvProblem, solver: SolverConfig) -> SparseEstimate:
    """FISTA; its objective trace need not be monotone, but on these convex
    instances the final objective matches ISTA's at equal iteration
    budgets to high accuracy."""
    return _proximal_gradient(problem, solver, accelerate=True)


def amp(problem: MmvProblem, solver: SolverConfig) -> SparseEstimate:
    """Approximate message passing with a row soft-threshold denoiser and
    the Onsager residual correction.

    Internally the dictionary is rescaled to unit columns (AMP's natural
    normalization); the returned x_hat is on the original problem scale.
    The per-iteration threshold is alpha * sqrt(||R||_F^2 / L), the rms
    row norm of the residual, which reduces to the classic scalar rule
    for a single observation column. The trace records residual norms.

    The Onsager term's support size is the number of rows the shrink
    kept. Divergence is read off the residual norm: a non-finite entry
    of X reaches the residual through A X, as every column of A has unit
    norm, so SolverDivergenceError is raised when ||R||_F is not finite.
    That includes a finite residual whose squared norm overflows, which
    takes entries above about 1e153.
    """
    a = problem.dictionary / np.sqrt(problem.rho)
    y = problem.observations
    ell = a.shape[0]
    alpha = solver.amp_alpha
    a_h = a.conj().T
    x = np.zeros((a.shape[1], y.shape[1]), dtype=complex)
    residual = y.copy()
    residual_norm = _frobenius(residual)
    trace = []
    for _ in range(solver.amp_iters):
        tau = alpha * np.sqrt(residual_norm ** 2 / ell)
        x_new = a_h @ residual
        x_new += x
        support = int(np.count_nonzero(_shrink_rows(x_new, tau)))
        x = x_new
        residual = y - a @ x + (support / ell) * residual
        residual_norm = _frobenius(residual)
        if not np.isfinite(residual_norm):
            raise SolverDivergenceError("AMP produced non-finite values")
        trace.append(float(residual_norm))
    x_hat = x / np.sqrt(problem.rho)
    return SparseEstimate(
        x_hat=x_hat,
        activity_stat=_row_energies(x_hat),
        iterations_used=solver.amp_iters,
        objective_trace=np.asarray(trace),
    )


def detect(
    detector: str, solver: SolverConfig, artifacts: ScenarioArtifacts, events: Dataset
) -> tuple[np.ndarray, int]:
    """Score every event with the baseline named `detector` (ista, fista or
    amp) under the experiment's resolved solver settings.

    Each event is one centralized problem: the dictionary sqrt(tx_power) *
    pilots, shared by all events, against the event's M APs' antennas
    stacked column-wise. Returns the (n_events, K) recovered row energies
    and the most iterations any event used.
    """
    if detector not in ("ista", "fista", "amp"):
        raise ValueError(f"unknown baseline detector {detector!r}")
    cfg = artifacts.config
    solver = resolve_solver(solver, artifacts)
    # Looked up at call time, so that whatever the module name is bound to
    # then (a tracing wrapper, say) is what runs.
    solve = globals()[detector]
    dictionary = np.sqrt(cfg.tx_power) * artifacts.pilots
    received = received_from_features(events.features, cfg.pilot_len, cfg.antennas_per_ap)
    n_events, m, ell, n = received.shape
    stats = np.empty((n_events, cfg.num_devices))
    iters = 0
    for i, event in enumerate(received):
        observations = event.transpose(1, 0, 2).reshape(ell, m * n)
        est = solve(MmvProblem(dictionary, observations, cfg.tx_power), solver)
        stats[i] = est.activity_stat
        iters = max(iters, est.iterations_used)
    return stats, iters


def colocate(artifacts: ScenarioArtifacts) -> ScenarioArtifacts:
    """Equivalent colocated (cellular) scenario: one AP at the square
    center carrying all M*N antennas, large-scale gains recomputed from
    center distances, pilots and devices unchanged."""
    cfg = artifacts.config
    center = 0.5 * cfg.area_side_km
    colocated_cfg = replace(
        cfg,
        num_aps=1,
        antennas_per_ap=cfg.num_aps * cfg.antennas_per_ap,
        cluster_size=1,
    )
    geometry = Geometry(
        ap_positions=np.array([[center, center]]),
        device_positions=artifacts.geometry.device_positions,
    )
    return ScenarioArtifacts(
        config=colocated_cfg,
        geometry=geometry,
        beta=large_scale_fading(geometry),
        pilots=artifacts.pilots,
    )
