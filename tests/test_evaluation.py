import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedad import baselines
from fedad.baselines import MmvProblem, SolverConfig, default_lambda
from fedad.evaluation import (
    ROC_MAX_POINTS,
    ScoredTrials,
    auc_rank_oracle,
    detector_macs,
    roc_curve,
    slp_macs_per_ap,
)
from fedad.rng import substream
from fedad.scenario import ScenarioConfig
from fedad.slp import init_params


class _CountingDictionary(np.ndarray):
    """A dictionary that tallies the matrix products it takes part in and
    their complex MACs. Transposes and elementwise results (conjugate,
    rescaling) stay counting; products come back as plain arrays."""

    products = 0
    macs = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) for x in inputs]
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if ufunc is np.matmul:
            (m, k), n = inputs[0].shape, inputs[1].shape[1]
            _CountingDictionary.products += 1
            _CountingDictionary.macs += m * k * n
            return result
        return result.view(_CountingDictionary) if isinstance(result, np.ndarray) else result


def trials(scores, truths):
    return ScoredTrials(
        scores=np.asarray(scores, dtype=float),
        truths=np.asarray(truths, dtype=np.int8),
    )


class TestRocCurve:
    def test_perfect_scores(self):
        t = trials([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert roc_curve(t).auc == 1.0

    def test_constant_scores(self):
        t = trials([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])
        assert roc_curve(t).auc == 0.5

    def test_single_positive_outranks(self):
        # AUC equals P(score_pos > score_neg) = 1 when the positive tops both.
        t = trials([0.9, 0.8, 0.3], [1, 0, 0])
        assert roc_curve(t).auc == pytest.approx(1.0, abs=1e-15)

    def test_endpoints_present(self):
        t = trials([0.6, 0.2, 0.8], [1, 0, 1])
        roc = roc_curve(t)
        pts = [(f, tp) for _, f, tp in roc.points]
        assert (1.0, 1.0) in pts
        assert (0.0, 0.0) in pts

    def test_monotone_staircase(self):
        rng = np.random.default_rng(0)
        t = trials(rng.random(200), rng.integers(0, 2, 200))
        roc = roc_curve(t)
        # Thresholds ascend; both rates must be nonincreasing.
        assert np.all(np.diff(roc.fpr) <= 0)
        assert np.all(np.diff(roc.tpr) <= 0)
        order = np.lexsort((roc.tpr, roc.fpr))
        assert np.all(np.diff(roc.tpr[order]) >= 0)

    def test_threshold_cap(self):
        rng = np.random.default_rng(1)
        t = trials(rng.random(5000), rng.integers(0, 2, 5000))
        roc = roc_curve(t)
        assert len(roc.thresholds) <= ROC_MAX_POINTS
        # The cap thins the returned points, not the AUC.
        assert abs(roc.auc - auc_rank_oracle(t)) < 1e-9

    def test_degenerate_truths_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(trials([0.1, 0.2], [1, 1]))
        with pytest.raises(ValueError):
            roc_curve(trials([0.1, 0.2], [0, 0]))


class TestAucRankOracle:
    def test_perfect_ordering(self):
        assert auc_rank_oracle(trials([0.9, 0.7, 0.1], [1, 1, 0])) == 1.0

    def test_all_tied(self):
        assert auc_rank_oracle(trials([0.5, 0.5, 0.5], [1, 0, 1])) == 0.5

    def test_matches_trapezoid_seeded(self):
        rng = np.random.default_rng(2024)
        scores = rng.normal(size=1000)
        truths = (rng.random(1000) < 0.3).astype(np.int8)
        t = trials(scores, truths)
        assert abs(auc_rank_oracle(t) - roc_curve(t).auc) < 1e-9

    def test_matches_trapezoid_with_ties(self):
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 5, size=400).astype(float)  # heavy ties
        truths = (rng.random(400) < 0.4).astype(np.int8)
        t = trials(scores, truths)
        assert abs(auc_rank_oracle(t) - roc_curve(t).auc) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(4, 120))
    def test_equivalence_property(self, seed, n):
        rng = np.random.default_rng(seed)
        truths = rng.integers(0, 2, n)
        if truths.min() == truths.max():
            truths[0] = 1 - truths[0]
        scores = np.round(rng.random(n), 2)  # induce occasional ties
        t = trials(scores, truths)
        auc = roc_curve(t).auc
        assert 0.0 <= auc <= 1.0
        assert abs(auc - auc_rank_oracle(t)) < 1e-9


class TestMacCounts:
    def test_slp_default_config(self):
        cfg = ScenarioConfig()  # M=20, N=2, K=100, L=40, V=512
        assert slp_macs_per_ap(cfg) == 133_120
        assert detector_macs("fl", cfg, 0) == (2_662_400, 2_662_400)

    def test_slp_minimal_dims(self):
        cfg = ScenarioConfig(
            num_aps=1, antennas_per_ap=1, num_devices=1, pilot_len=1,
            hidden_units=1, cluster_size=1,
        )
        assert slp_macs_per_ap(cfg) == 3

    def test_amp_default_config(self):
        assert detector_macs("amp", ScenarioConfig(), 25) == (8_000_000, 32_000_000)

    def test_amp_zero_iters(self):
        assert detector_macs("amp", ScenarioConfig(), 0) == (0, 0)

    def test_ratio_conventions(self):
        cfg = ScenarioConfig()
        slp, _ = detector_macs("fl", cfg, 0)
        r1, r4 = (macs / slp for macs in detector_macs("amp", cfg, 25))
        assert r1 == pytest.approx(3.0, rel=5e-3)
        assert r4 == pytest.approx(12.0, rel=5e-3)
        assert r1 < 6.0 < r4

    def test_linearity_in_dims(self):
        cfg = ScenarioConfig()
        double_iters = detector_macs("amp", cfg, 50)
        assert double_iters == tuple(2 * m for m in detector_macs("amp", cfg, 25))


class TestMacOracle:
    """The cost model against sizes read off the arrays a run builds."""

    def test_per_ap_macs_are_the_weight_sizes(self, small_config):
        params = init_params(small_config, substream(3, "init"))
        assert slp_macs_per_ap(small_config) == params.w1.size + params.w2.size

    @pytest.mark.parametrize("detector", ["ista", "fista", "amp"])
    @pytest.mark.parametrize("iters", [0, 1, 7])
    def test_solver_macs_are_two_dictionary_products(self, small_artifacts, detector, iters):
        cfg = small_artifacts.config
        n_total = cfg.num_aps * cfg.antennas_per_ap
        complex_macs = iters * 2 * small_artifacts.pilots.size * n_total
        assert detector_macs(detector, cfg, iters) == (complex_macs, 4 * complex_macs)

    @pytest.mark.parametrize("detector, products", [(d, 2) for d in baselines.BASELINES])
    def test_solver_macs_match_the_products_a_solve_runs(
        self, small_artifacts, detector, products
    ):
        cfg = small_artifacts.config
        plain = np.sqrt(cfg.tx_power) * small_artifacts.pilots
        rng = np.random.default_rng(6)
        n_total = cfg.num_aps * cfg.antennas_per_ap
        observations = np.sqrt(cfg.tx_power) * (
            rng.standard_normal((cfg.pilot_len, n_total))
            + 1j * rng.standard_normal((cfg.pilot_len, n_total))
        )
        problem = MmvProblem(plain.view(_CountingDictionary), cfg.tx_power)
        solve = getattr(baselines, detector)

        def tally(iters):
            # tol = 0 runs every iteration of the budget.
            solver = SolverConfig(
                lam=default_lambda(cfg), max_iters=iters, tol=0.0, amp_iters=iters
            )
            _CountingDictionary.products = _CountingDictionary.macs = 0
            assert solve(problem, observations, solver).iterations_used == iters
            return _CountingDictionary.products, _CountingDictionary.macs

        # Each solve starts from R = Y, so it runs no set-up product: one
        # iteration runs exactly the table's products, and so does the
        # second, whose momentum point (FISTA) is no longer zero.
        (products_1, macs_1), (products_2, macs_2) = tally(1), tally(2)
        assert products_1 == products_2 - products_1 == products
        assert macs_1 == macs_2 - macs_1
        assert detector_macs(detector, cfg, 1) == (macs_1, 4 * macs_1)

    @pytest.mark.parametrize("iters", [0, 1, 50])
    def test_fl_counts_agree_under_both_conventions(self, small_config, iters):
        params = init_params(small_config, substream(3, "init"))
        network = small_config.num_aps * (params.w1.size + params.w2.size)
        assert detector_macs("fl", small_config, iters) == (network, network)

    @pytest.mark.parametrize("detector", ["fl", "ista", "fista", "amp"])
    def test_negative_iters_raise(self, small_config, detector):
        with pytest.raises(ValueError, match="iters"):
            detector_macs(detector, small_config, -1)

    def test_unknown_detector_raises(self, small_config):
        with pytest.raises(ValueError, match="no MAC model"):
            detector_macs("mf", small_config, 1)
