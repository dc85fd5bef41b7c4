"""ROC curves, AUC (trapezoid and rank-statistic), and the
multiply-accumulate cost model.

ROC curves are pooled over (device, trial) pairs: one network-level curve
per detector. AUC is computed two independent ways, the trapezoidal rule
over every threshold of the sweep and the Mann-Whitney pair-ordering
statistic; the two agree to machine precision, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import BASELINES
from .scenario import ScenarioConfig

# Most points a returned ROC curve keeps; the AUC always uses them all.
ROC_MAX_POINTS = 2048


@dataclass(frozen=True)
class ScoredTrials:
    """Flat per-device detection statistics pooled across trials."""

    scores: np.ndarray
    truths: np.ndarray

    def __post_init__(self) -> None:
        if self.scores.shape != self.truths.shape:
            raise ValueError(
                f"scores and truths lengths differ: "
                f"{self.scores.shape} vs {self.truths.shape}"
            )
        t = np.asarray(self.truths)
        if not np.all((t == 0) | (t == 1)):
            raise ValueError("truths must be binary 0/1")


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep: at most ROC_MAX_POINTS (threshold, fpr, tpr)
    triples plus the trapezoidal AUC of the full, uncapped sweep.

    Thresholds ascend; fpr and tpr are each nonincreasing along them, and
    the endpoints (1, 1) and (0, 0) in (fpr, tpr) space are always present.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.thresholds.tolist(), self.fpr.tolist(), self.tpr.tolist()))


def _check_both_classes(truths: np.ndarray) -> None:
    n_pos = int(np.sum(truths == 1))
    if n_pos == 0 or n_pos == truths.size:
        raise ValueError(
            "ROC rates are undefined without both positive and negative truths"
        )


def roc_curve(trials: ScoredTrials) -> RocCurve:
    """Sweep thresholds over the sorted unique scores with the decision rule
    `score >= threshold`; rates are pooled over all trials. The AUC is
    taken over every threshold; the returned points are capped at
    ROC_MAX_POINTS, kept at evenly sampled quantiles."""
    scores = np.asarray(trials.scores, dtype=np.float64)
    truths = np.asarray(trials.truths)
    _check_both_classes(truths)

    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    pos = np.sort(scores[truths == 1])
    neg = np.sort(scores[truths == 0])
    tp = pos.size - np.searchsorted(pos, thresholds, side="left")
    fp = neg.size - np.searchsorted(neg, thresholds, side="left")
    tpr = tp / pos.size
    fpr = fp / neg.size
    # fpr ascends when read back-to-front (thresholds descend).
    auc = float(np.trapezoid(tpr[::-1], fpr[::-1]))

    if len(thresholds) > ROC_MAX_POINTS:
        n_unique = len(thresholds) - 1
        idx = np.round(np.linspace(0, n_unique - 1, ROC_MAX_POINTS - 1)).astype(int)
        keep = np.concatenate([np.unique(idx), [n_unique]])
        thresholds, fpr, tpr = thresholds[keep], fpr[keep], tpr[keep]
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


def auc_rank_oracle(trials: ScoredTrials) -> float:
    """AUC as the Mann-Whitney statistic: the fraction of (positive,
    negative) pairs ranked correctly, ties counted one half.

    Independent of the threshold-sweep path in `roc_curve`.
    """
    scores = np.asarray(trials.scores, dtype=np.float64)
    truths = np.asarray(trials.truths)
    _check_both_classes(truths)

    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average of ranks i+1..j+1
        i = j + 1

    n_pos = int(np.sum(truths == 1))
    n_neg = truths.size - n_pos
    rank_sum = float(np.sum(ranks[truths == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def slp_macs_per_ap(config: ScenarioConfig) -> int:
    """One SLP forward pass at one AP, in real MACs: (2*L*N)*V into the
    hidden layer plus V*K into the output layer."""
    v = config.hidden_units
    return config.feature_dim * v + v * config.num_devices


def detector_macs(detector: str, config: ScenarioConfig, iters: int) -> tuple[int, int]:
    """Network-wide MACs to score one event, under both accounting
    conventions: (a complex MAC counted as 1, a complex MAC counted as 4
    real MACs).

    FL is one real forward pass at every AP, the same under both. Each
    baseline runs 2 L x K by K x (M*N) complex products per iteration on
    the centralized antenna stack, S^H R and S X, priced at `iters`. No
    solve runs a set-up product, as each starts from R = Y, and FISTA
    forms its momentum point's residual from the residuals of its last
    two iterates.

    All three solvers stop when their trace settles, so `iters` is the
    caller's choice of count: a run prices each baseline at the most
    iterations any of its events used (detect's count), and the
    `fedad macs` table at the solver's cap, max_iters or AMP's amp_iters.
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if detector == "fl":
        macs = config.num_aps * slp_macs_per_ap(config)
        return macs, macs
    if detector not in BASELINES:
        raise ValueError(f"no MAC model for detector {detector!r}")
    n_total = config.num_aps * config.antennas_per_ap
    complex_macs = iters * 2 * config.pilot_len * config.num_devices * n_total
    return complex_macs, 4 * complex_macs
