"""Federated training orchestration and clustered score fusion.

One round: the CPU broadcasts the global model, every AP runs local
mini-batch Adam on its own received data (in float32; the global model,
the server step and the wire format stay float64), the CPU forms a
weighted average of the returned parameters and applies its own
optimization step (plain pass-through or a FedOpt-style Adam on the
averaging delta). The average is a streaming fold, as a FedAvg server
needs (McMahan et al., AISTATS 2017): each AP's update is folded into a
running weighted sum as it arrives and then dropped, so the CPU holds a
fixed number of parameter vectors however many APs there are.

At inference the CPU fuses per-AP probabilities per device over the
cluster of that device's strongest APs. Each AP's scores go straight
into their cluster slots, so fusion, too, holds nothing per AP.

Update wire format (version 1, little-endian), used for checkpoints and
to make the parameters-only exchange auditable:

    magic  b"ADUP" | u32 version | u32 round | u32 ap_index | f64 weight
    u32 hidden_units | u32 input_dim | u32 num_devices
    w1 (V*F f64) | b1 (V f64) | w2 (K*V f64) | b2 (K f64)

The body is exactly `SlpParams.flat`, whose layout is this field order.
"""

from __future__ import annotations

import struct
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .channel import Dataset, build_dataset
from .scenario import ScenarioArtifacts
from .slp import AdamState, SlpParams, adam_step, backward, bce_loss, forward, init_adam, init_params

_MAGIC = b"ADUP"
_WIRE_VERSION = 1
_HEADER = struct.Struct("<4sIIIdIII")


@dataclass(frozen=True)
class FederationConfig:
    rounds: int = 100
    local_epochs: int = 2
    batch_size: int = 32
    server_mode: str = "server-adam"  # or "plain-average"
    train_samples: int = 512
    eval_samples: int = 256
    local_lr: float = 1e-3
    server_lr: float = 0.005
    regenerate_each_round: bool = False

    def __post_init__(self) -> None:
        for key in ("rounds", "batch_size", "train_samples", "eval_samples"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key}: must be >= 1, got {getattr(self, key)}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs: must be >= 0, got {self.local_epochs}")
        for key in ("local_lr", "server_lr"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key}: must be > 0, got {getattr(self, key)}")
        if self.server_mode not in ("plain-average", "server-adam"):
            raise ValueError(f"server_mode: unknown mode {self.server_mode!r}")


@dataclass(frozen=True)
class LocalUpdate:
    """One AP's trained parameters plus its aggregation weight."""

    params: SlpParams
    weight: float
    ap_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.weight < np.inf:  # NaN fails both comparisons
            raise ValueError(f"weight must be finite and >= 0, got {self.weight}")


@dataclass
class TrainingHistory:
    heldout_bce: list[float] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)


def local_train(
    global_params: SlpParams,
    features: np.ndarray,
    labels: np.ndarray,
    fed: FederationConfig,
    ap_index: int,
    stream: np.random.Generator,
) -> LocalUpdate:
    """Train a copy of the global model on one AP's shard for
    fed.local_epochs epochs, in float32 (mixed precision, as in
    Micikevicius et al., ICLR 2018): the copy and its Adam moments are
    float32, and so is the shard, which `run_training` stores as float32
    (a float64 shard is cast once per call, to the same values). Each
    gradient goes straight into its Adam step, so none outlives the step
    that reads it. The float64 update is the global plus the float32
    trajectory's displacement, global + (p32 - origin) with origin the
    float32 cast of the global, cast afresh once the trajectory is dropped,
    so 0 epochs return the global bit for bit. The update is weighted by
    the shard size, as in federated averaging."""
    if features.shape[0] == 0:
        raise ValueError(f"AP {ap_index}: cannot train on an empty shard")
    n = features.shape[0]
    params = global_params.like(global_params.flat.astype(np.float32))
    features = features.astype(np.float32, copy=False)
    state = init_adam(params, lr=fed.local_lr)
    for _ in range(fed.local_epochs):
        order = stream.permutation(n)
        for start in range(0, n, fed.batch_size):
            batch = order[start : start + fed.batch_size]
            params, state = adam_step(
                params, backward(params, features[batch], labels[batch]), state
            )
    del state, features  # freed before `moved`
    moved = params.flat.astype(np.float64)
    del params  # the float32 trajectory goes before origin is cast again
    moved -= global_params.flat.astype(np.float32)
    moved += global_params.flat
    return LocalUpdate(params=global_params.like(moved), weight=float(n), ap_index=ap_index)


def aggregate(updates: Iterable[LocalUpdate], total_weight: float | None = None) -> SlpParams:
    """Parameter-wise weighted mean, weights normalized to sum one and
    summation performed in ascending ap_index order (so reordering the
    input list is bit-exact).

    Computed as base + sum_i c_i * (p_i - base), c_i = w_i / total, against
    the lowest-index update, which makes a single update and identical
    inputs exact, not just close. Each update is folded into the running
    sum as it arrives, through a scratch vector that is dropped with the
    update, so while the next AP trains the server holds two parameter
    vectors (base and sum) whatever the number of APs.

    Without `total_weight`, `updates` is collected, sorted by ap_index and
    its weights summed first. With it, `updates` may be a generator that
    yields them one at a time in ascending ap_index, and `total_weight`
    must be the sum of their weights in that order: anything else raises
    ValueError, after the fold for a total that does not match.
    """
    if total_weight is None:
        updates = sorted(updates, key=lambda u: u.ap_index)
        total_weight = 0.0
        for u in updates:
            total_weight += u.weight
    stream = iter(updates)
    first = next(stream, None)
    if first is None:
        raise ValueError("aggregate requires at least one update")
    if not total_weight > 0:  # NaN fails too
        raise ValueError("aggregation weights must not all be zero")
    base = first.params.flat
    acc = base.copy()
    summed, last = first.weight, first.ap_index
    for u in stream:
        if u.ap_index < last:
            raise ValueError(f"update from AP {u.ap_index} arrived after AP {last}")
        delta = u.params.flat - base
        delta *= u.weight / total_weight
        acc += delta
        summed, last = summed + u.weight, u.ap_index
        del u, delta  # the next AP trains without this update or its scratch alive
    if summed != total_weight:
        raise ValueError(f"total_weight {total_weight} is not the updates' weight sum {summed}")
    return first.params.like(acc)


def server_step(
    current_global: SlpParams,
    aggregated: SlpParams,
    server_state: AdamState | None,
) -> tuple[SlpParams, AdamState | None]:
    """CPU-side optimization step.

    Without a server Adam state (plain-average) the aggregate passes
    through. With one (server-adam), (current - aggregated) is a
    pseudo-gradient for one Adam step on the current global model
    (FedOpt, Reddi et al., ICLR 2021). The step consumes both inputs,
    since the caller reads neither again: the pseudo-gradient is written
    into the aggregate's buffer, which holds current - aggregated on
    return and must not be `current_global`'s, and the global model is
    stepped in place, so the model returned is `current_global` itself.
    """
    if server_state is None:
        return aggregated, None
    pseudo_grad = np.subtract(current_global.flat, aggregated.flat, out=aggregated.flat)
    return adam_step(current_global, current_global.like(pseudo_grad), server_state)


def score_events(
    params: SlpParams, dataset: Dataset, beta: np.ndarray, cluster_size: int
) -> np.ndarray:
    """System output (n_events, K): the model runs at every AP, and each
    device's score is the mean of the scores of its cluster, the
    cluster_size APs with the largest large-scale gain toward it (ties
    broken toward the lower AP index).

    Each AP writes the scores of the devices it serves straight into
    their (cluster rank, event, device) slots, so memory holds the
    (cluster_size, n_events, K) slots and one AP's forward pass at a time,
    whatever the number of APs; an AP that serves no device is not run."""
    top = _cluster_members(beta, cluster_size)            # (T, K)
    slots = np.empty((cluster_size, dataset.features.shape[0], beta.shape[1]))
    for ap in range(beta.shape[0]):
        rank, device = np.nonzero(top == ap)
        if device.size:
            scores = forward(params, dataset.features[:, ap, :])[0]
            slots[rank, :, device] = scores[:, device].T
    return slots.mean(axis=0)


def heldout_bce(
    params: SlpParams, dataset: Dataset, beta: np.ndarray, cluster_size: int
) -> float:
    """BCE of the system output (see score_events) on held-out events."""
    return bce_loss(score_events(params, dataset, beta, cluster_size), dataset.labels)


def run_training(
    artifacts: ScenarioArtifacts,
    fed: FederationConfig,
    stream: np.random.Generator,
) -> tuple[SlpParams, TrainingHistory]:
    """Full federated run: R rounds of broadcast, local training at all M
    APs, shard-size weighted aggregation, and the server step. Per-AP
    shards are the APs' own views of a single shared event set, drawn in
    round 0 (and fresh each round when regenerate_each_round is set).
    Round r's set is events r*n, ..., r*n + n - 1 of the data stream,
    n = train_samples, as if each round spawned its n children in turn.
    Round 0's time in the history includes its draw.

    Returns the global model and the per-round history.
    """
    cfg = artifacts.config
    init_stream, data_stream, heldout_stream, shuffle_root = stream.spawn(4)

    params = init_params(cfg, init_stream)
    # The held-out set stays float64, as the float64 global model scores it;
    # the training sets, drawn in the loop, are float32, as local training
    # reads them so.
    heldout_data = build_dataset(
        cfg, artifacts.beta, artifacts.pilots, fed.eval_samples, heldout_stream
    )

    m = cfg.num_aps
    total_weight = float(m * fed.train_samples)
    shuffle_streams = shuffle_root.spawn(fed.rounds * m)
    server_state = None
    if fed.server_mode == "server-adam":
        server_state = init_adam(params, lr=fed.server_lr)

    history = TrainingHistory()
    for rnd in range(fed.rounds):
        t0 = time.perf_counter()
        if rnd == 0 or fed.regenerate_each_round:
            train_data = None  # free the last round's set before drawing the next
            train_data = build_dataset(
                cfg, artifacts.beta, artifacts.pilots, fed.train_samples, data_stream,
                np.float32, rnd * fed.train_samples,
            )
        updates = (
            local_train(params, *train_data.shard(ap), fed, ap, shuffle_streams[rnd * m + ap])
            for ap in range(m)
        )
        # The aggregate goes straight in: no name holds it while the next round trains.
        params, server_state = server_step(params, aggregate(updates, total_weight), server_state)
        history.heldout_bce.append(
            heldout_bce(params, heldout_data, artifacts.beta, cfg.cluster_size)
        )
        history.round_seconds.append(time.perf_counter() - t0)
    return params, history


def _cluster_members(beta: np.ndarray, cluster_size: int) -> np.ndarray:
    """(T, K) indices of each device's T strongest APs, best first."""
    if cluster_size > beta.shape[0]:
        raise ValueError(f"cluster_size {cluster_size} exceeds number of APs {beta.shape[0]}")
    return np.argsort(-beta, axis=0, kind="stable")[:cluster_size]


def serialize_update(update: LocalUpdate, round_index: int) -> bytes:
    """Pack one AP-to-CPU update in the version-1 wire format; the payload
    is parameter tensors and one scalar weight, nothing else."""
    v, f, k = update.params.dims
    header = _HEADER.pack(
        _MAGIC, _WIRE_VERSION, round_index, update.ap_index, update.weight, v, f, k
    )
    return header + update.params.flat.astype("<f8", copy=False).tobytes()


def deserialize_update(blob: bytes) -> tuple[int, LocalUpdate]:
    """Unpack a version-1 blob; ValueError unless its body is exactly the
    parameter vector its header's dimensions call for."""
    if len(blob) < _HEADER.size:
        raise ValueError(f"blob has {len(blob)} bytes, fewer than the {_HEADER.size}-byte header")
    magic, version, round_index, ap_index, weight, v, f, k = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise ValueError("not an AP update blob")
    if version != _WIRE_VERSION:
        raise ValueError(f"unsupported update version {version}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    params = SlpParams.from_flat(flat.astype(np.float64), (v, f, k))
    return round_index, LocalUpdate(params=params, weight=weight, ap_index=ap_index)
