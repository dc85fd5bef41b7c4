"""Sparse-recovery baselines on the stacked multi-antenna observations:
ISTA, FISTA (row-sparse group LASSO), and AMP with a row soft-threshold
denoiser, and `detect`, which runs one of them on every event of a
dataset.

The uplink model is rewritten as Y = S X + W where S is the pilot book
scaled by sqrt(tx_power), Y stacks every antenna of the participating APs
column-wise, and row k of X collects device k's composite channel gains.
Activity is then read off the recovered row energies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import Dataset, received_from_features
from .scenario import ScenarioArtifacts, ScenarioConfig


class SolverDivergenceError(RuntimeError):
    """Raised when an iterative solve blows up (bad step size or an AMP
    run outside its stability regime)."""


@dataclass(frozen=True)
class MmvProblem:
    """The joint-sparsity dictionary that every event of an experiment is
    solved against; the solvers take it beside one event's observations,
    (L, C) complex with C = total antennas stacked column-wise.

    dictionary: (L, K) complex, every column of norm sqrt(rho)
    rho:        common squared column norm (transmit power scale)
    """

    dictionary: np.ndarray
    rho: float

    def __post_init__(self) -> None:
        # np.allclose(norms, target, atol=...) with its default rtol = 1e-5.
        target = np.sqrt(self.rho)
        atol = 1e-9 * max(1.0, target)
        deviation = np.abs(_row_norms(self.dictionary.T) - target)
        if not np.all(deviation <= atol + 1e-5 * target):
            raise ValueError("dictionary columns must have norm sqrt(rho)")

    @functools.cached_property
    def step_size(self) -> float:
        """The ISTA/FISTA step, default_step_size of the dictionary; it is
        computed when first read, so AMP, which never reads it, never
        pays for it."""
        return default_step_size(self.dictionary)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    lam: row-group regularization weight (ISTA/FISTA).
    max_iters: ISTA's and FISTA's iteration cap.
    tol: every solver stops once the relative change of its trace drops
        below tol (_settled): the objective for ISTA and FISTA, the
        residual norm for AMP. At tol 0 each runs its full cap.
    amp_iters: AMP's iteration cap.
    amp_alpha: AMP threshold multiplier.

    A None lam stands for the experiment's default, which resolve_solver
    fills in; ista and fista take resolved settings. Their step is not a
    setting: it is the problem's step_size, 1 / ||S||_2^2.
    """

    lam: float | None = None
    max_iters: int = 200
    tol: float = 1e-8
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
        if self.amp_iters < 0:
            raise ValueError(f"amp_iters: must be >= 0, got {self.amp_iters}")
        if self.amp_alpha < 0:
            raise ValueError(f"amp_alpha: must be >= 0, got {self.amp_alpha}")


@dataclass(frozen=True)
class SparseEstimate:
    """Solver output: row-sparse estimate, per-device row-energy statistic,
    and the trace, the one record of the solve. The trace opens with the
    value at X = 0, the objective F(0) for ISTA and FISTA and the residual
    norm ||Y||_F for AMP, and gains one entry per iteration run."""

    x_hat: np.ndarray
    activity_stat: np.ndarray
    objective_trace: np.ndarray

    @property
    def iterations_used(self) -> int:
        """Iterations actually run: the trace's entries after the X = 0 one."""
        return len(self.objective_trace) - 1


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


def _shrink_rows(rows: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrink each row of a float or complex 2-D stack the caller owns
    toward zero, in place: row * max(1 - tau/||row||, 0) for tau >= 0,
    so a zero row stays zero even at tau = 0. Returns the rows' norms
    before the shrink and the factor each row was scaled by.

    The kept rows, those of norm > tau, are exactly the rows of positive
    factor: tau/||row|| rounds below 1 when tau < ||row||, and a dropped
    row's factor is exactly 0. So norms * factor is each row's norm after
    the shrink, up to rounding, and exactly 0 for a dropped row.

    A kept row stays nonzero. Its norm reads 0 only if its squared entries
    underflow, which takes norms near 1e-154 or below."""
    norms = _row_norms(rows)
    # Kept rows' norms exceed tau, so flooring the divisor at tau changes
    # none of their quotients; it keeps those of dropped rows from
    # overflowing.
    divisor = np.maximum(norms, max(tau, 1e-300))
    scale = np.where(norms > tau, 1.0 - tau / divisor, 0.0)
    rows *= scale[:, None]
    return norms, scale


def lasso_objective(residual: np.ndarray, row_norm_sum: float, lam: float) -> float:
    """The group-LASSO objective 0.5 * ||Y - S X||_F^2 + lam * sum_k ||x_k||_2,
    from the residual Y - S X and the sum of X's row norms; the squared
    Frobenius norm is one complex dot of the residual with itself."""
    return 0.5 * float(np.vdot(residual, residual).real) + lam * float(row_norm_sum)


# The two norms below are the expressions np.linalg.norm evaluates for
# these cases, bit for bit, without its per-call argument handling; the
# solvers call them every iteration.


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


def resolve_solver(solver: SolverConfig, config: ScenarioConfig) -> SolverConfig:
    """The experiment's solver settings: a None lam becomes
    default_lambda(config); a set lam passes through."""
    if solver.lam is None:
        solver = replace(solver, lam=default_lambda(config))
    return solver


def _settled(trace: list[float], tol: float) -> bool:
    """The solvers' stop rule: the relative change between the last two
    entries of a trace of at least two is below tol. It never holds at
    tol 0."""
    previous, current = trace[-2], trace[-1]
    return abs(previous - current) / max(abs(previous), 1e-300) < tol


def _check_divergence(trace: list[float]) -> None:
    """Raise when an objective trace's last five steps all rose and its
    last entry is above its first, the X = 0 objective: the step size is
    too large for the instance. Checked after every iteration, this fires
    on the fifth rise in a row that ends above trace[0]. A trace that
    ends at or below trace[0], the usual case, costs one comparison."""
    if trace[-1] > trace[0] and len(trace) > 5 and all(
        later > earlier * (1.0 + 1e-12) + 1e-300
        for earlier, later in zip(trace[-6:-1], trace[-5:])
    ):
        raise SolverDivergenceError(
            "objective increased for 5 consecutive iterations; "
            "step size is too large for this instance"
        )


def _proximal_gradient(
    problem: MmvProblem, observations: np.ndarray, solver: SolverConfig, accelerate: bool
) -> SparseEstimate:
    """Proximal-gradient iteration for the row-sparse LASSO on one event's
    observations Y, from X = 0:

        X <- rowprox(Z + mu * S^H (Y - S Z), mu * lam),  mu = problem.step_size,

    with lam as resolve_solver sets it.

    Z follows the Nesterov momentum sequence
    t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2: Z = X_new + c (X_new - X) with
    c = (t_j - 1) / t_{j+1}. Its residual is then R_new + c (R_new - R),
    formed from the residuals of X_new and X, so an iteration runs two
    dictionary products. Both residuals are computed afresh from their
    iterates, so no rounding accumulates across iterations. Where c is
    0, Z is X_new and its residual the one the objective computed.

    The momentum restarts, t_j reset to 1 so that c = 0 and Z = X_new,
    whenever X_new's objective is above X's: the function scheme of
    O'Donoghue & Candes, "Adaptive restart for accelerated gradient
    schemes" (FoCM 2015). Their gradient scheme stops a few iterations
    sooner, but it costs a K x C subtraction and a complex dot every
    iteration, which slows solves that run a fixed budget; the function
    scheme reads the objective the loop computes anyway, so it adds no
    arithmetic. The step after a restart is a plain proximal-gradient
    step, which does not raise the objective, so FISTA's trace never
    rises twice in a row. Without acceleration the momentum restarts at
    every iteration: c is exactly 0 throughout, and the loop is ISTA.

    Stops at max_iters or when the relative objective change drops below
    tol (_settled).
    """
    s = problem.dictionary
    s_h = s.conj().T
    y = observations
    lam, mu = solver.lam, problem.step_size
    x = z = np.zeros((s.shape[1], y.shape[1]), dtype=complex)
    # At X = 0 the residual Y - S X is Y.
    residual = residual_z = y.copy()
    trace = [lasso_objective(residual, 0.0, lam)]
    t = 1.0
    for _ in range(solver.max_iters):
        # The gradient step Z + mu * S^H (Y - S Z), formed and shrunk in place.
        x_new = s_h @ residual_z
        x_new *= mu
        x_new += z
        norms, scale = _shrink_rows(x_new, mu * lam)
        residual_new = y - s @ x_new
        # The penalty reads x_new's row norms off the shrink: norms * scale.
        trace.append(lasso_objective(residual_new, norms @ scale, lam))
        if not accelerate or trace[-1] > trace[-2]:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        c = (t - 1.0) / t_new
        t = t_new
        # c is 0 in ISTA, and in FISTA's first iteration and after a restart.
        if c:
            z = x_new + c * (x_new - x)
            residual_z = residual_new + c * (residual_new - residual)
        else:
            z, residual_z = x_new, residual_new
        x, residual = x_new, residual_new
        _check_divergence(trace)
        if _settled(trace, solver.tol):
            break
    return SparseEstimate(
        x_hat=x,
        activity_stat=_row_energies(x),
        objective_trace=np.asarray(trace),
    )


def ista(problem: MmvProblem, observations: np.ndarray, solver: SolverConfig) -> SparseEstimate:
    """ISTA on one event's (L, C) observations; its objective trace
    (including the X = 0 start) is nonincreasing at the problem's step,
    1 / ||S||_2^2, and at any smaller one."""
    return _proximal_gradient(problem, observations, solver, accelerate=False)


def fista(problem: MmvProblem, observations: np.ndarray, solver: SolverConfig) -> SparseEstimate:
    """FISTA with function-scheme adaptive restart (O'Donoghue & Candes,
    FoCM 2015): whenever its objective rises, the momentum restarts, so
    the next step is a plain ISTA step and the objective trace never rises
    on two consecutive iterations. The restart test reuses the objective
    the loop already computes, so it adds no arithmetic; on these convex
    instances the final objective matches ISTA's to high accuracy."""
    return _proximal_gradient(problem, observations, solver, accelerate=True)


def amp(problem: MmvProblem, observations: np.ndarray, solver: SolverConfig) -> SparseEstimate:
    """Approximate message passing with a row soft-threshold denoiser and
    the Onsager residual correction.

    Internally the dictionary is rescaled to unit columns (AMP's natural
    normalization); the returned x_hat is on the original problem scale.
    The per-iteration threshold is alpha * sqrt(||R||_F^2 / L), the rms
    row norm of the residual, which reduces to the classic scalar rule
    for a single observation column. The trace records residual norms,
    opening with ||Y||_F, the residual at X = 0.

    Stops at amp_iters, its cap, or when the residual norm settles: when
    the relative change of the trace's last two entries drops below tol
    (_settled), so the first iteration compares against ||Y||_F. At tol 0
    it runs all amp_iters.

    The Onsager term's support size is the number of rows the shrink
    kept. Divergence is read off the residual norm: a non-finite entry
    of X reaches the residual through A X, as every column of A has unit
    norm, so SolverDivergenceError is raised when ||R||_F is not finite.
    That includes a finite residual whose squared norm overflows, which
    takes entries above about 1e153.
    """
    a = problem.dictionary / np.sqrt(problem.rho)
    y = observations
    ell = a.shape[0]
    alpha = solver.amp_alpha
    a_h = a.conj().T
    x = np.zeros((a.shape[1], y.shape[1]), dtype=complex)
    residual = y.copy()
    trace = [float(_frobenius(residual))]
    for _ in range(solver.amp_iters):
        tau = alpha * np.sqrt(trace[-1] ** 2 / ell)
        x_new = a_h @ residual
        x_new += x
        support = int(np.count_nonzero(_shrink_rows(x_new, tau)[1]))
        x = x_new
        residual = y - a @ x + (support / ell) * residual
        trace.append(float(_frobenius(residual)))
        if not math.isfinite(trace[-1]):
            raise SolverDivergenceError("AMP produced non-finite values")
        if _settled(trace, solver.tol):
            break
    x_hat = x / np.sqrt(problem.rho)
    return SparseEstimate(
        x_hat=x_hat,
        activity_stat=_row_energies(x_hat),
        objective_trace=np.asarray(trace),
    )


# The baseline detectors, each the solver of that name in this module.
# evaluation.detector_macs prices their iterations.
BASELINES = ("ista", "fista", "amp")


def detect(
    detector: str, solver: SolverConfig, artifacts: ScenarioArtifacts, events: Dataset
) -> tuple[np.ndarray, int]:
    """Score every event with the baseline named `detector` (one of
    BASELINES), under the experiment's resolved solver settings
    (resolve_solver).

    Every event is solved against one MmvProblem, built and checked once
    per call: the dictionary sqrt(tx_power) * pilots. An event's
    observations are its M APs' antennas stacked column-wise. Events are
    decoded one at a time, so the decoded observations of only one event
    are held at once. Returns the (n_events, K) recovered row energies and
    the most iterations any event used.
    """
    if detector not in BASELINES:
        raise ValueError(f"unknown baseline detector {detector!r}")
    cfg = artifacts.config
    solver = resolve_solver(solver, cfg)
    # Looked up at call time, so that whatever the module name is bound to
    # then (a tracing wrapper, say) is what runs.
    solve = globals()[detector]
    problem = MmvProblem(np.sqrt(cfg.tx_power) * artifacts.pilots, cfg.tx_power)
    n_events, m = events.features.shape[:2]
    ell, n = cfg.pilot_len, cfg.antennas_per_ap
    stats = np.empty((n_events, cfg.num_devices))
    iters = 0
    for i in range(n_events):
        event = received_from_features(events.features[i], ell, n)  # (M, L, N)
        est = solve(problem, event.transpose(1, 0, 2).reshape(ell, m * n), solver)
        stats[i] = est.activity_stat
        iters = max(iters, est.iterations_used)
    return stats, iters

