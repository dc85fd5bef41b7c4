import functools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _reference_row_soft_threshold,
    amp_reference,
    exhaustive_ls_support,
    fista_reference,
    ista_reference,
    orthonormal_dictionary,
    shrink_form_reference,
    traced_peak,
    unit_column_dictionary,
)

from fedad import baselines
from fedad.baselines import (
    MmvProblem,
    SolverConfig,
    SolverDivergenceError,
    SparseEstimate,
    _shrink_rows,
    amp,
    default_lambda,
    default_step_size,
    detect,
    fista,
    ista,
    lasso_objective,
    resolve_solver,
)
from fedad.channel import build_dataset, received_from_features
from fedad.cli import parse_config
from fedad.rng import substream
from fedad.scenario import ScenarioConfig, build_scenario, colocate


def make_problem(dictionary, observations, rho=1.0):
    """The problem over `dictionary`, and the observations to solve it on."""
    return MmvProblem(dictionary=dictionary, rho=rho), observations


def sparse_instance():
    """Seeded 40x100 row-sparse instance with 8 columns: (problem,
    observations) over a unit-column dictionary with 10 active rows and
    noise at 0.05, and the lam to solve it at."""
    rng = np.random.default_rng(20240808)
    ell, k, c = 40, 100, 8
    a = unit_column_dictionary(rng, ell, k)
    x = np.zeros((k, c), complex)
    active = rng.choice(k, 10, replace=False)
    x[active] = (
        rng.standard_normal((10, c)) + 1j * rng.standard_normal((10, c))
    ) / np.sqrt(2)
    noise = 0.05 * (
        rng.standard_normal((ell, c)) + 1j * rng.standard_normal((ell, c))
    ) / np.sqrt(2)
    lam = 0.05 * np.sqrt(2 * np.log(k)) * np.sqrt(c)
    return make_problem(a, a @ x + noise), lam


# fista_reference recomputes the momentum residual Y - S Z with a third
# dictionary product, and the solver forms it from the residuals it holds.
# Over all 2,000 desk events (seed 42) in both layouts their activity
# statistics are at most 2e-12 apart, relative.
FISTA_RTOL = 1e-9


def assert_fista_matches_stand_alone(est, ref):
    """`est` agrees with fista_reference's `ref`: the same iteration count
    and activity statistics within FISTA_RTOL. There is no absolute slack,
    so a zero statistic must meet a zero: the zero patterns are equal."""
    assert est.iterations_used == ref.iterations_used
    np.testing.assert_allclose(est.activity_stat, ref.activity_stat, rtol=FISTA_RTOL, atol=0)


def stacked_observations(artifacts, events):
    """The problem detect solves against for `artifacts`, and every event's
    (L, M*N) observations with its APs' antennas stacked column-wise,
    built apart from detect."""
    cfg = artifacts.config
    problem = MmvProblem(np.sqrt(cfg.tx_power) * artifacts.pilots, cfg.tx_power)
    received = received_from_features(events.features, cfg.pilot_len, cfg.antennas_per_ap)
    return problem, [np.concatenate(list(event), axis=1) for event in received]


def desk_instance(n_events, seed):
    """The desk experiment's resolved solver settings, and the problem and
    stacked observations of n_events desk events drawn from `seed`."""
    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "desk.json")
    art = build_scenario(config.scenario)
    events = build_dataset(
        config.scenario, art.beta, art.pilots, n_events, substream(seed, "desk-events")
    )
    return (resolve_solver(config.solver, config.scenario), *stacked_observations(art, events))


def use_step(monkeypatch, step):
    """Give every problem whose step is first read after this call the
    step `step`. The step is the problem's, not a setting, so a test picks
    its own by standing in for default_step_size."""
    monkeypatch.setattr(baselines, "default_step_size", lambda dictionary: step)


def shrunk(rows, tau):
    """_shrink_rows on a copy of `rows`: the shrunk copy and the kept mask,
    the rows of positive factor."""
    out = rows.copy()
    _, scale = _shrink_rows(out, tau)
    return out, scale > 0


class TestRowSoftThreshold:
    """The closed form of the in-place shrink the solvers share."""

    def test_full_shrinkage(self):
        out, kept = shrunk(np.array([[3.0, 4.0]]), 5.0)
        assert np.array_equal(out[0], np.zeros(2))
        assert not kept[0]

    def test_partial_shrinkage(self):
        out, kept = shrunk(np.array([[3.0, 4.0]]), 2.5)
        assert np.allclose(out[0], [1.5, 2.0], rtol=1e-15)
        assert kept[0]

    def test_tau_zero_is_identity(self):
        row = np.array([1.0 + 2.0j, -0.5j])
        out, kept = shrunk(row[None], 0.0)
        # Equal values, not equal bits: the complex product with the real
        # scale 1.0 turns the -0.0 real part of -0.5j into +0.0.
        assert np.array_equal(out[0], row)
        assert kept[0]

    def test_zero_row_maps_to_zero(self):
        # filterwarnings = error turns any divide or invalid warning into
        # a failure here.
        for tau in (0.0, 1.0):
            out, kept = shrunk(np.zeros((1, 3)), tau)
            assert not out.any()
            assert not kept[0]

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        tau=st.floats(0.0, 10.0),
        width=st.integers(1, 6),
    )
    def test_nonexpansive_property(self, seed, tau, width):
        rng = np.random.default_rng(seed)
        row = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        out, kept = shrunk(row[None], tau)
        norm_in, norm_out = np.linalg.norm(row), np.linalg.norm(out[0])
        assert norm_out <= norm_in + 1e-12
        assert kept[0] == out.any()
        if norm_in <= tau:
            assert not out.any()


class TestShrinkRows:
    """The in-place shrink that the solvers share, against the oracles' reference."""

    # Entries span 1e-100 to 1e100: inside it, no squared norm underflows
    # to 0 or overflows to inf, in the shrink or in np.linalg.norm.
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 8),
        width=st.integers(1, 6),
        is_complex=st.booleans(),
        exponent=st.floats(-100.0, 100.0),
        zero_frac=st.floats(0.0, 1.0),
        tau_rule=st.sampled_from(["zero", "row_norm", "scaled"]),
        tau_scale=st.floats(0.0, 3.0),
    )
    def test_matches_reference(
        self, seed, n_rows, width, is_complex, exponent, zero_frac, tau_rule, tau_scale
    ):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n_rows, width))
        if is_complex:
            rows = rows + 1j * rng.standard_normal((n_rows, width))
        rows *= 10.0**exponent
        rows[rng.random(n_rows) < zero_frac] = 0.0
        norms = np.linalg.norm(rows, axis=1)
        tau = {
            "zero": 0.0,
            "row_norm": norms[rng.integers(n_rows)],
            "scaled": tau_scale * 10.0**exponent,
        }[tau_rule]
        # The reference's discarded quotient tau / 1e-300 overflows on zero
        # rows once tau exceeds about 1.8e8; the shrink must not warn.
        with np.errstate(over="ignore"):
            expected = _reference_row_soft_threshold(rows, tau)
        out = rows.copy()
        norms_in, scale = _shrink_rows(out, tau)
        kept = scale > 0
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(kept, norms > tau)
        # The support AMP counted before it read the factors.
        assert np.count_nonzero(kept) == np.sum(np.linalg.norm(out, axis=1) > 0)
        # What the ISTA/FISTA objective reads off the shrink: the norms
        # before it, bit for bit, a factor of exactly 0 on dropped rows,
        # and norms * factor as the norms after it, up to rounding.
        assert norms_in.tobytes() == norms.tobytes()
        assert not scale[~kept].any()
        after = np.linalg.norm(out, axis=1)
        assert np.allclose(norms_in * scale, after, rtol=1e-14, atol=0.0)


def row_norm_sum(x):
    return float(np.sum(np.linalg.norm(x, axis=1)))


class TestLassoObjective:
    # lasso_objective takes the residual Y - S X and the sum of X's row norms.
    def test_zero_estimate(self):
        rng = np.random.default_rng(0)
        a = unit_column_dictionary(rng, 4, 6)
        y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        x = np.zeros((6, 2), complex)
        expected = 0.5 * np.linalg.norm(y) ** 2
        got = lasso_objective(y - a @ x, row_norm_sum(x), 0.7)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_exact_fit_no_penalty(self):
        rng = np.random.default_rng(1)
        a = unit_column_dictionary(rng, 5, 5)
        x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        y = a @ x
        got = lasso_objective(y - a @ x, row_norm_sum(x), 0.0)
        assert got == pytest.approx(0.0, abs=1e-20)

    def test_scalar_arithmetic(self):
        x = np.array([[0.5 + 0j]])
        # 0.5 * (0.8 - 0.5)^2 + 0.3 * 0.5 = 0.045 + 0.15
        got = lasso_objective(np.array([[0.8 - 0.5 + 0j]]), row_norm_sum(x), 0.3)
        assert got == pytest.approx(0.195, rel=1e-12)


class TestIsta:
    def test_scalar_closed_form(self):
        prob, y = make_problem(np.array([[1.0 + 0j]]), np.array([[0.8 + 0j]]))
        est = ista(prob, y, SolverConfig(lam=0.3, max_iters=100, tol=1e-14))
        # Orthonormal scalar LASSO solves to soft(0.8, 0.3) = 0.5.
        assert abs(est.x_hat[0, 0] - 0.5) < 1e-6

    def test_huge_lambda_full_shrinkage(self):
        rng = np.random.default_rng(2)
        a = unit_column_dictionary(rng, 4, 8)
        y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        prob, y = make_problem(a, y)
        lam = 10.0 * np.max(np.linalg.norm(a.conj().T @ y, axis=1))
        est = ista(prob, y, SolverConfig(lam=lam, max_iters=50, tol=0.0))
        assert not est.x_hat.any()
        assert not est.activity_stat.any()

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(3)
        q = orthonormal_dictionary(rng, 6)
        y = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        prob, y = make_problem(q, y)
        est = ista(prob, y, SolverConfig(lam=0.2, max_iters=500, tol=1e-15))
        closed = _reference_row_soft_threshold(q.conj().T @ y, 0.2)
        assert np.max(np.abs(est.x_hat - closed)) < 1e-6

    def test_objective_trace_nonincreasing(self):
        rng = np.random.default_rng(4)
        a = unit_column_dictionary(rng, 10, 25)
        y = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        prob, y = make_problem(a, y)
        est = ista(prob, y, SolverConfig(lam=0.3, max_iters=300, tol=0.0))
        trace = est.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0))

    def test_bad_step_size_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = unit_column_dictionary(rng, 8, 12)
        y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        prob, y = make_problem(a, y)
        use_step(monkeypatch, 10.0 / np.linalg.norm(a, 2) ** 2)
        with pytest.raises(SolverDivergenceError):
            ista(prob, y, SolverConfig(lam=0.1, max_iters=200, tol=0.0))


class TestFista:
    def test_same_fixed_point_scalar(self):
        prob, y = make_problem(np.array([[1.0 + 0j]]), np.array([[0.8 + 0j]]))
        est = fista(prob, y, SolverConfig(lam=0.3, max_iters=100, tol=1e-14))
        assert abs(est.x_hat[0, 0] - 0.5) < 1e-6

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(6)
        q = orthonormal_dictionary(rng, 5)
        y = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        prob, y = make_problem(q, y)
        est = fista(prob, y, SolverConfig(lam=0.2, max_iters=500, tol=1e-15))
        closed = _reference_row_soft_threshold(q.conj().T @ y, 0.2)
        assert np.max(np.abs(est.x_hat - closed)) < 1e-6

    def test_head_to_head_iterations(self):
        # On a seeded 40x100 instance FISTA reaches objective gap 1e-6 in
        # no more iterations than ISTA, and their finals agree.
        (prob, y), lam = sparse_instance()
        solver = SolverConfig(lam=lam, max_iters=3000, tol=0.0)
        est_i = ista(prob, y, solver)
        est_f = fista(prob, y, solver)
        f_star = min(est_i.objective_trace.min(), est_f.objective_trace.min())
        first_i = int(np.argmax(est_i.objective_trace <= f_star + 1e-6))
        first_f = int(np.argmax(est_f.objective_trace <= f_star + 1e-6))
        assert first_f <= first_i
        assert est_f.objective_trace[-1] <= est_i.objective_trace[-1] + 1e-9
        rel = abs(est_f.objective_trace[-1] - est_i.objective_trace[-1]) / abs(
            est_i.objective_trace[-1]
        )
        assert rel < 1e-6

    @pytest.mark.parametrize("tol", [0.0, 1e-8], ids=["full_budget", "early_stop"])
    def test_objective_never_rises_twice_in_a_row(self, tol):
        # A rise restarts the momentum, and the plain step that follows
        # does not raise the objective; the slack is ISTA's monotone one.
        # Without the restart FISTA rises up to 3 times in a row here.
        (prob, y), lam = sparse_instance()
        est = fista(prob, y, SolverConfig(lam=lam, max_iters=3000, tol=tol))
        trace = est.objective_trace
        rises = np.diff(trace) > 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0)
        assert (est.iterations_used < 3000) == (tol > 0)
        assert not np.any(rises[1:] & rises[:-1])


class TestProximalGradientOracle:
    """ISTA and FISTA share one loop. Each must reproduce, bit for bit, the
    reference loop that evaluates the objective and FISTA's momentum
    residual the same way (shrink_form_reference). Against its own
    stand-alone reference with the direct objective, ISTA matches in
    every iterate, statistic and stopping decision, and the two objective
    traces differ by rounding only. fista_reference recomputes Y - S Z
    with a third product, so FISTA matches it in every stopping decision
    and in its statistics up to FISTA_RTOL."""

    PAIRS = [(ista, ista_reference), (fista, fista_reference)]
    # Relative gap allowed between the solver's objective trace and the
    # direct one, which sums the same terms in another order; they are
    # about 3e-16 apart on these instances.
    TRACE_RTOL = 1e-13

    @pytest.mark.parametrize("solver_fn, reference", PAIRS, ids=["ista", "fista"])
    @pytest.mark.parametrize("case", ["early_stop", "full_budget", "explicit_step"])
    def test_bit_identical_to_reference(self, monkeypatch, solver_fn, reference, case):
        (prob, y), lam = sparse_instance()
        if case == "explicit_step":
            use_step(monkeypatch, 0.7 / np.linalg.norm(prob.dictionary, 2) ** 2)
        solver = {
            "early_stop": SolverConfig(lam=lam, max_iters=3000, tol=1e-8),
            "full_budget": SolverConfig(lam=lam, max_iters=150, tol=0.0),
            "explicit_step": SolverConfig(lam=lam, max_iters=3000, tol=1e-8),
        }[case]
        est, ref = solver_fn(prob, y, solver), reference(prob, y, solver)
        same_form = shrink_form_reference(prob, y, solver, accelerate=solver_fn is fista)
        if case == "full_budget":
            assert est.iterations_used == solver.max_iters
        else:
            assert est.iterations_used < solver.max_iters
        assert est.iterations_used == same_form.iterations_used
        assert np.array_equal(est.x_hat, same_form.x_hat)
        assert np.array_equal(est.objective_trace, same_form.objective_trace)
        assert np.array_equal(est.activity_stat, same_form.activity_stat)

        assert est.iterations_used == ref.iterations_used
        if solver_fn is fista:
            assert_fista_matches_stand_alone(est, ref)
        else:
            assert np.array_equal(est.x_hat, ref.x_hat)
            assert np.array_equal(est.activity_stat, ref.activity_stat)
        gap = np.abs(est.objective_trace - ref.objective_trace)
        assert np.all(gap <= self.TRACE_RTOL * np.maximum(np.abs(ref.objective_trace), 1.0))

    @pytest.mark.parametrize("solver_fn, reference", PAIRS, ids=["ista", "fista"])
    def test_bad_step_size_raises(self, monkeypatch, solver_fn, reference):
        (prob, y), lam = sparse_instance()
        use_step(monkeypatch, 10.0 / np.linalg.norm(prob.dictionary, 2) ** 2)
        solver = SolverConfig(lam=lam, max_iters=200, tol=0.0)
        same_form = functools.partial(shrink_form_reference, accelerate=solver_fn is fista)
        for fn in (solver_fn, reference, same_form):
            with pytest.raises(SolverDivergenceError):
                fn(prob, y, solver)

    @pytest.mark.parametrize("solver_fn", [ista, fista], ids=["ista", "fista"])
    @pytest.mark.parametrize("tol", [0.0, 1e-8], ids=["full_budget", "early_stop"])
    def test_one_row_norm_pass_and_one_objective_per_iteration(
        self, monkeypatch, solver_fn, tol
    ):
        # The objective reads x's row norms off the shrink, so a solve of n
        # iterations takes row norms n times and evaluates the objective
        # n + 1 times. The dictionary's columns were checked when the
        # problem was built, before the count starts.
        (prob, y), lam = sparse_instance()
        calls = dict.fromkeys(["_row_norms", "lasso_objective"], 0)
        for name in calls:
            original = getattr(baselines, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(baselines, name, counted)
        solver = SolverConfig(lam=lam, max_iters=150, tol=tol)
        n = solver_fn(prob, y, solver).iterations_used
        assert (n < solver.max_iters) == (tol > 0)
        assert calls == {"_row_norms": n, "lasso_objective": n + 1}


class TestAmpOracle:
    """AMP must reproduce its stand-alone reference loop bit for bit."""

    @pytest.mark.parametrize(
        "alpha, iters, rho",
        [(1.5, 25, 1.0), (1.0, 60, 1.0), (1.5, 25, 4.0), (2.0, 5, 1e12), (1.5, 200, 1.0)],
    )
    def test_bit_identical_to_reference(self, alpha, iters, rho):
        (unit, y), _ = sparse_instance()
        scale = np.sqrt(rho)
        prob, y = make_problem(scale * unit.dictionary, scale * y, rho)
        solver = SolverConfig(amp_alpha=alpha, amp_iters=iters)
        est, ref = amp(prob, y, solver), amp_reference(prob, y, solver)
        assert np.any(est.activity_stat > 0)
        assert est.iterations_used == ref.iterations_used == len(ref.objective_trace) - 1
        # At the default tol the 200-iteration solve settles short of its
        # cap; the others run their whole budget.
        assert (ref.iterations_used < iters) == (iters == 200)
        assert np.array_equal(est.x_hat, ref.x_hat)
        assert np.array_equal(est.objective_trace, ref.objective_trace)
        assert np.array_equal(est.activity_stat, ref.activity_stat)


class TestAmpStop:
    """AMP stops when its residual norm settles, and stopping is the only
    thing the stop rule changes: a solve that stops early is the solve
    capped at that iteration."""

    def test_tol_zero_runs_the_cap_on_a_desk_event(self):
        solver, problem, observations = desk_instance(20, 3)
        y = next(
            y for y in observations
            if amp(problem, y, solver).iterations_used < solver.amp_iters
        )
        est = amp(problem, y, replace(solver, tol=0.0))
        assert est.iterations_used == len(est.objective_trace) - 1 == solver.amp_iters

    def test_an_early_stop_is_the_truncated_solve(self):
        solver, problem, observations = desk_instance(20, 3)
        stopped = 0
        for y in observations:
            est = amp(problem, y, solver)
            if est.iterations_used == solver.amp_iters:
                continue
            stopped += 1
            capped = amp(problem, y, replace(solver, tol=0.0, amp_iters=est.iterations_used))
            assert capped.iterations_used == est.iterations_used
            assert np.array_equal(est.x_hat, capped.x_hat)
            assert np.array_equal(est.objective_trace, capped.objective_trace)
            assert np.array_equal(est.activity_stat, capped.activity_stat)
        assert stopped > 0


class TestAmp:
    def test_orthonormal_single_active_one_iteration(self):
        rng = np.random.default_rng(7)
        q = orthonormal_dictionary(rng, 6)
        x = np.zeros((6, 3), complex)
        x[4] = np.array([1 + 1j, 0.5, -1j])
        est = amp(*make_problem(q, q @ x), SolverConfig(lam=0.0, amp_iters=1, amp_alpha=1.5))
        assert np.array_equal(np.nonzero(est.activity_stat)[0], [4])

    def test_square_instance_matches_brute_force(self):
        rng = np.random.default_rng(8)
        k = 6
        a = unit_column_dictionary(rng, k, k)
        x = np.zeros((k, 2), complex)
        x[3] = np.array([1.0 + 0.5j, -0.7j])
        prob, y = make_problem(a, a @ x)
        est = amp(prob, y, SolverConfig(lam=0.0))
        assert int(np.argmax(est.activity_stat)) == 3
        assert exhaustive_ls_support(a, y, 1) == {3}

    def test_zero_observations(self):
        rng = np.random.default_rng(9)
        a = unit_column_dictionary(rng, 4, 7)
        est = amp(*make_problem(a, np.zeros((4, 2), complex)), SolverConfig(lam=0.0))
        assert not est.x_hat.any()
        assert not est.activity_stat.any()

    def test_non_finite_raises(self):
        rng = np.random.default_rng(10)
        a = unit_column_dictionary(rng, 4, 7)
        y = np.full((4, 2), np.nan, dtype=complex)
        with pytest.raises(SolverDivergenceError):
            amp(*make_problem(a, y), SolverConfig(lam=0.0))

    @pytest.mark.parametrize("solve", [amp, amp_reference], ids=["amp", "reference"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_one_non_finite_entry_raises(self, solve, bad):
        # amp reads divergence off the residual norm alone; one bad entry
        # must reach it. The inf case passes through inf - inf and inf * 0,
        # which numpy reports as invalid values; those are expected here.
        rng = np.random.default_rng(10)
        a = unit_column_dictionary(rng, 4, 7)
        y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        y[2, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(SolverDivergenceError):
            solve(*make_problem(a, y), SolverConfig())


class TestTrace:
    """A solve's trace is its one record: it opens with the value at X = 0,
    and every later entry is one iteration run."""

    @pytest.mark.parametrize("solver_fn", [ista, fista, amp], ids=["ista", "fista", "amp"])
    def test_trace_opens_at_zero_and_counts_the_iterations(self, solver_fn):
        (prob, y), lam = sparse_instance()
        # tol 0 runs the whole cap.
        solver = SolverConfig(lam=lam, max_iters=30, tol=0.0, amp_iters=30)
        est = solver_fn(prob, y, solver)
        at_zero = np.linalg.norm(y) if solver_fn is amp else lasso_objective(y, 0.0, lam)
        assert est.objective_trace[0] == at_zero
        assert est.iterations_used == len(est.objective_trace) - 1 == 30


class TestStatisticSeparation:
    @pytest.mark.parametrize("solver_name", ["ista", "fista", "amp"])
    def test_active_stat_exceeds_inactive(self, solver_name):
        # Noise-free, orthonormal pilots (L = K): active-row statistics
        # strictly dominate inactive ones for every solver.
        rng = np.random.default_rng(12)
        k = 8
        q = orthonormal_dictionary(rng, k)
        x = np.zeros((k, 4), complex)
        active = [1, 5]
        x[active] = (
            rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        ) / np.sqrt(2)
        solver = SolverConfig(lam=0.05, max_iters=300, tol=1e-14)
        est = {"ista": ista, "fista": fista}.get(solver_name, amp)(*make_problem(q, q @ x), solver)
        active_stats = est.activity_stat[active]
        inactive_stats = np.delete(est.activity_stat, active)
        assert active_stats.min() > inactive_stats.max()


class _RecordingSolver:
    """Stand-in for a baseline solver: records each (problem, observations,
    solver) call and answers call i with statistic i + 0.5 on every device
    and a trace of i + 1 iterations, except that the first call's is the
    longest, 50 iterations."""

    def __init__(self):
        self.calls = []

    def __call__(self, problem, observations, solver):
        i = len(self.calls)
        self.calls.append((problem, observations, solver))
        k = problem.dictionary.shape[1]
        return SparseEstimate(
            x_hat=np.zeros((k, observations.shape[1]), dtype=complex),
            activity_stat=np.full(k, i + 0.5),
            objective_trace=np.zeros(51 if i == 0 else i + 2),
        )


class TestBuildMmvProblem:
    CONFIG = ScenarioConfig(
        num_aps=3, antennas_per_ap=2, num_devices=6, pilot_len=5,
        cluster_size=2, tx_power=4.0,
    )

    def _detect_recorded(self, monkeypatch, n_events):
        # detect must find the solver by name when it runs, so a stand-in
        # bound to the module name is what it calls.
        art = build_scenario(self.CONFIG)
        ds = build_dataset(self.CONFIG, art.beta, art.pilots, n_events, substream(0, "events"))
        recorder = _RecordingSolver()
        monkeypatch.setattr("fedad.baselines.ista", recorder)
        stats, iters = detect("ista", SolverConfig(), art, ds)
        return art, ds, recorder.calls, stats, iters

    def test_stacking_and_scaling(self, monkeypatch):
        art, ds, calls, stats, iters = self._detect_recorded(monkeypatch, 1)
        received = np.stack(
            [received_from_features(ds.features[0, ap], 5, 2) for ap in range(3)]
        )
        assert len(calls) == 1
        prob, observations, solver = calls[0]
        assert observations.shape == (5, 6)
        assert np.array_equal(observations, np.concatenate(list(received), axis=1))
        assert np.allclose(np.linalg.norm(prob.dictionary, axis=0), 2.0, atol=1e-9)
        assert prob.rho == 4.0
        # The solver arrives resolved, and the step is the dictionary's.
        assert solver.lam == default_lambda(self.CONFIG)
        assert prob.step_size == default_step_size(2.0 * art.pilots)
        assert np.array_equal(stats, np.full((1, 6), 0.5))
        assert iters == 50

    def test_batch_shares_one_dictionary(self, monkeypatch):
        art, ds, calls, stats, iters = self._detect_recorded(monkeypatch, 4)
        received = received_from_features(ds.features, 5, 2)
        # One call per event, in event order, all with one resolved solver
        # and one problem object over sqrt(P) * pilots.
        assert len(calls) == 4
        problem = calls[0][0]
        assert np.array_equal(problem.dictionary, np.sqrt(4.0) * art.pilots)
        for i, (prob, observations, solver) in enumerate(calls):
            assert np.array_equal(observations, np.concatenate(list(received[i]), axis=1))
            assert prob is problem
            assert solver == resolve_solver(SolverConfig(), art.config)
            assert solver.lam is not None
        assert np.array_equal(stats, np.repeat(np.arange(4)[:, None] + 0.5, 6, axis=1))
        assert iters == 50

    @pytest.mark.parametrize("detector", list(baselines.BASELINES))
    def test_detect_builds_and_checks_one_problem(self, monkeypatch, detector):
        # Every event is solved against one problem, built when detect
        # starts; its columns are checked then, once, not once per event.
        art = build_scenario(self.CONFIG)
        ds = build_dataset(self.CONFIG, art.beta, art.pilots, 5, substream(0, "events"))
        built = []
        check = MmvProblem.__post_init__

        def counted(problem):
            built.append(problem)
            check(problem)

        monkeypatch.setattr(MmvProblem, "__post_init__", counted)
        detect(detector, SolverConfig(max_iters=5, amp_iters=5), art, ds)
        assert len(built) == 1
        assert np.array_equal(built[0].dictionary, 2.0 * art.pilots)

    @pytest.mark.parametrize("solve", [ista, fista, amp], ids=["ista", "fista", "amp"])
    @pytest.mark.parametrize("rows", [4, 6])
    def test_observations_must_have_l_rows(self, solve, rows):
        # The problem no longer holds observations; the solver's first
        # product with the L x K dictionary refuses any other row count.
        rng = np.random.default_rng(15)
        prob = MmvProblem(unit_column_dictionary(rng, 5, 7), 1.0)
        y = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
        with pytest.raises(ValueError):
            solve(prob, y, SolverConfig(lam=0.1))

    @pytest.mark.parametrize("name", ["colocate", "detect", "MmvProblem", "fl"])
    def test_detect_refuses_what_is_no_baseline(self, name):
        art = build_scenario(self.CONFIG)
        ds = build_dataset(self.CONFIG, art.beta, art.pilots, 1, substream(0, "events"))
        with pytest.raises(ValueError, match="unknown baseline detector"):
            detect(name, SolverConfig(), art, ds)

    @pytest.mark.parametrize("rho", [1e-12, 1.0, 4.0, 1e12])
    def test_column_norm_tolerance_boundary(self, rho):
        # np.allclose's rule: |norm - sqrt(rho)| <= atol + 1e-5 sqrt(rho),
        # with atol = 1e-9 max(1, sqrt(rho)).
        a = unit_column_dictionary(np.random.default_rng(14), 4, 5)
        target = np.sqrt(rho)
        tol = 1e-9 * max(1.0, target) + 1e-5 * target
        for sign in (1.0, -1.0):
            for fraction, accepted in ((0.99, True), (1.01, False)):
                fields = dict(dictionary=(target + sign * fraction * tol) * a, rho=rho)
                if accepted:
                    MmvProblem(**fields)
                else:
                    with pytest.raises(ValueError, match="norm"):
                        MmvProblem(**fields)

    def test_column_norm_invariant_enforced(self):
        rng = np.random.default_rng(13)
        a = unit_column_dictionary(rng, 4, 5)
        with pytest.raises(ValueError, match="norm"):
            MmvProblem(dictionary=2.0 * a, rho=1.0)

    def test_default_lambda_formula(self):
        cfg = ScenarioConfig(
            num_aps=20, antennas_per_ap=2, num_devices=100, noise_var=1.0, tx_power=1.0
        )
        expected = np.sqrt(2 * np.log(100)) * np.sqrt(40)
        assert default_lambda(cfg) == pytest.approx(expected, rel=1e-12)


class TestResolveSolver:
    CONFIG = ScenarioConfig(
        num_aps=3, antennas_per_ap=2, num_devices=12, pilot_len=6, cluster_size=1,
        activation_prob=0.2, tx_power=4.0, noise_var=0.5, master_seed=3,
    )

    def test_nulls_take_their_formulas(self):
        art = build_scenario(self.CONFIG)
        solver = SolverConfig(lam=None, max_iters=7)
        got = resolve_solver(solver, art.config)
        # sigma * sqrt(2 ln K) * sqrt(M N) * sqrt(P)
        lam = np.sqrt(0.5) * np.sqrt(2 * np.log(12)) * np.sqrt(3 * 2) * np.sqrt(4.0)
        assert got.lam == pytest.approx(lam, rel=1e-12)
        # The step: 1 / ||sqrt(P) pilots||_2^2, the largest eigenvalue of S^H S.
        s = np.sqrt(4.0) * art.pilots
        step = MmvProblem(s, 4.0).step_size
        assert step == pytest.approx(1 / np.linalg.eigvalsh(s.conj().T @ s)[-1], rel=1e-10)
        assert (got.max_iters, got.tol, got.amp_iters) == (7, solver.tol, solver.amp_iters)
        # The colocated array keeps all M N antennas, so lam is unchanged.
        assert resolve_solver(solver, colocate(art).config).lam == got.lam

    def test_set_values_pass_through(self):
        solver = SolverConfig(lam=0.3, amp_alpha=2.0, max_iters=7)
        assert resolve_solver(solver, self.CONFIG) == solver
        solver = SolverConfig(lam=0.0, amp_alpha=0.0)
        got = resolve_solver(solver, self.CONFIG)
        assert (got.lam, got.amp_alpha) == (0.0, 0.0)

    def test_detect_resolves_no_step_size_for_amp(self, monkeypatch):
        # AMP never reads the problem's step, so detect runs no SVD in
        # default_step_size for it; ISTA still takes its step from there.
        art = build_scenario(self.CONFIG)
        ds = build_dataset(self.CONFIG, art.beta, art.pilots, 3, substream(0, "events"))
        stats, iters = detect("amp", SolverConfig(), art, ds)
        solver = resolve_solver(SolverConfig(), self.CONFIG)
        problem, observations = stacked_observations(art, ds)
        expected = max(amp_reference(problem, y, solver).iterations_used for y in observations)

        def refuse(dictionary):
            raise RuntimeError("default_step_size called")

        monkeypatch.setattr(baselines, "default_step_size", refuse)
        again, again_iters = detect("amp", SolverConfig(), art, ds)
        assert np.array_equal(again, stats) and again_iters == iters == expected
        with pytest.raises(RuntimeError, match="default_step_size"):
            detect("ista", SolverConfig(), art, ds)


class TestDetectAtDeskShapes:
    """detect on desk events (L = 20, K = 40, 16 stacked antennas) against
    a per-event loop over the stand-alone references: the stopping
    decisions at tol 1e-8 must fall on the same iteration. FISTA's
    bit-exact reference is shrink_form_reference, and its stand-alone
    one must agree as assert_fista_matches_stand_alone states."""

    @pytest.mark.parametrize(
        "detector, reference",
        [("ista", ista_reference), ("fista", fista_reference), ("amp", amp_reference)],
    )
    def test_matches_per_event_reference_loop(self, detector, reference):
        config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "desk.json")
        cfg = config.scenario
        art = build_scenario(cfg)
        events = build_dataset(cfg, art.beta, art.pilots, 20, substream(3, "desk-events"))
        stats, iters = detect(detector, config.solver, art, events)

        solver = resolve_solver(config.solver, cfg)
        problem, observations = stacked_observations(art, events)
        refs = [reference(problem, y, solver) for y in observations]
        if detector == "fista":
            same_form = [
                shrink_form_reference(problem, y, solver, accelerate=True) for y in observations
            ]
            for est, ref in zip(same_form, refs):
                assert_fista_matches_stand_alone(est, ref)
            refs = same_form
        assert np.array_equal(stats, np.stack([ref.activity_stat for ref in refs]))
        assert iters == max(ref.iterations_used for ref in refs)
        # Some events stop on tol, short of the budget.
        cap = solver.amp_iters if detector == "amp" else solver.max_iters
        assert min(ref.iterations_used for ref in refs) < cap


class TestDetectMemory:
    """detect decodes one event at a time: its peak stays below what the
    decoded observations of all events would take."""

    @pytest.mark.parametrize("detector", ["ista", "fista", "amp"])
    def test_peak_is_below_all_decoded_events(self, detector):
        config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "desk.json")
        cfg = config.scenario
        art = build_scenario(cfg)
        n_events = 100
        events = build_dataset(cfg, art.beta, art.pilots, n_events, substream(5, "desk-events"))
        solver = replace(config.solver, max_iters=10, amp_iters=10)
        all_decoded = n_events * cfg.num_aps * cfg.pilot_len * cfg.antennas_per_ap * 16
        assert traced_peak(detect, detector, solver, art, events) < all_decoded


class TestColocate:
    def test_antenna_count_preserved(self):
        cfg = ScenarioConfig(num_aps=20, antennas_per_ap=2)
        art = colocate(build_scenario(cfg))
        assert art.config.num_aps == 1
        assert art.config.antennas_per_ap == 40
        assert art.config.cluster_size == 1

    def test_single_beta_per_device(self):
        cfg = ScenarioConfig(num_aps=5, antennas_per_ap=3, num_devices=12, cluster_size=2)
        art = colocate(build_scenario(cfg))
        assert art.beta.shape == (1, 12)
        assert np.array_equal(art.pilots, build_scenario(cfg).pilots)

    def test_center_device_has_max_beta(self):
        from fedad.scenario import Geometry, ScenarioArtifacts, generate_pilots

        cfg = ScenarioConfig(num_aps=4, num_devices=3, cluster_size=1, area_side_km=1.0)
        geometry = Geometry(
            ap_positions=np.zeros((4, 2)),
            device_positions=np.array([[0.5, 0.5], [0.1, 0.9], [1.0, 0.0]]),
        )
        art = ScenarioArtifacts(
            config=cfg,
            geometry=geometry,
            beta=np.ones((4, 3)),
            pilots=generate_pilots(cfg, substream(0, "pilots")),
        )
        beta = colocate(art).beta[0]
        assert np.argmax(beta) == 0
