"""ROC curves, AUC (trapezoid and rank-statistic), and multiply-accumulate
cost models.

ROC curves are pooled over (device, trial) pairs: one network-level curve
per detector. AUC is computed two independent ways, the trapezoidal rule
over every threshold of the sweep and the Mann-Whitney pair-ordering
statistic; the two agree to machine precision, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import ScenarioConfig


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
    """Threshold sweep: (threshold, fpr, tpr) triples plus the trapezoidal
    AUC of the full, uncapped sweep.

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


@dataclass(frozen=True)
class MacCount:
    """Multiply-accumulate tally with a per-stage breakdown; macs is the
    exact sum of the breakdown."""

    macs: int
    breakdown: dict = field(default_factory=dict)
    knobs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.macs != sum(self.breakdown.values()):
            raise ValueError("macs must equal the sum of the breakdown")


def _check_both_classes(truths: np.ndarray) -> None:
    n_pos = int(np.sum(truths == 1))
    if n_pos == 0 or n_pos == truths.size:
        raise ValueError(
            "ROC rates are undefined without both positive and negative truths"
        )


def roc_curve(trials: ScoredTrials, n_thresholds: int | None = None) -> RocCurve:
    """Sweep thresholds over the sorted unique scores with the decision rule
    `score >= threshold`; rates are pooled over all trials. The AUC is
    taken over every threshold; n_thresholds caps only the returned
    points, at evenly sampled quantiles."""
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

    if n_thresholds is not None and len(thresholds) > n_thresholds:
        if n_thresholds < 2:
            raise ValueError(f"n_thresholds must be >= 2, got {n_thresholds}")
        n_unique = len(thresholds) - 1
        idx = np.round(np.linspace(0, n_unique - 1, n_thresholds - 1)).astype(int)
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


def mac_count_slp(config: ScenarioConfig) -> MacCount:
    """Network-wide SLP inference cost: every AP runs one forward pass,
    (2*L*N)*V MACs into the hidden layer plus V*K into the output layer."""
    m = config.num_aps
    f = config.feature_dim
    v = config.hidden_units
    k = config.num_devices
    per_ap = f * v + v * k
    breakdown = {"hidden_layer_all_aps": m * f * v, "output_layer_all_aps": m * v * k}
    return MacCount(
        macs=m * per_ap,
        breakdown=breakdown,
        knobs={
            "per_ap_macs": per_ap,
            "num_aps": m,
            "input_dim": f,
            "hidden_units": v,
            "num_devices": k,
        },
    )


def mac_count_amp(
    config: ScenarioConfig, iters: int, complex_mac_real_ops: int = 4
) -> MacCount:
    """Cost of an iterative MMV solve on the centralized antenna stack:
    two L x K by K x N_total complex products per iteration.

    `complex_mac_real_ops` selects the accounting convention (a complex MAC
    as 4 real MACs, or counted as 1).
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    ell = config.pilot_len
    k = config.num_devices
    n_total = config.num_aps * config.antennas_per_ap
    per_product = complex_mac_real_ops * ell * k * n_total
    breakdown = {
        "forward_products": iters * per_product,
        "adjoint_products": iters * per_product,
    }
    return MacCount(
        macs=iters * 2 * per_product,
        breakdown=breakdown,
        knobs={
            "iters": iters,
            "pilot_len": ell,
            "num_devices": k,
            "n_total_antennas": n_total,
            "complex_mac_real_ops": complex_mac_real_ops,
        },
    )
