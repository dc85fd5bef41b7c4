"""Span tracing for the benchmark's traced runs.

The tracer wraps a fixed set of public fedad functions (one or more per
module, the module being the layer) at every name they are bound to in
the package: `cli` and `federation` import `forward`, `build_dataset`,
`ista`, ... by name, and modules call their own functions through
module globals, so every binding that holds the original function is
replaced. `src/` is not modified.

Spans are kept in memory as parallel arrays (name, parent, start, end,
value) and written out when the run ends. Self time is a span's duration
minus the durations of its wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

# layer (fedad module) -> functions traced in it.
TRACED = {
    "scenario": ("build_scenario",),
    "channel": ("build_dataset",),
    "slp": ("forward", "backward", "adam_step"),
    "federation": (
        "run_training", "local_train", "aggregate", "server_step",
        "heldout_bce", "fuse_cluster_scores",
    ),
    "baselines": ("build_mmv_problem", "ista", "fista", "amp", "lasso_objective"),
    "evaluation": ("roc_curve",),
    "cli": ("run_experiment", "emit_results"),
}

# Every fedad module whose namespace may hold a traced function.
MODULES = ("rng", "scenario", "channel", "slp", "federation", "baselines", "evaluation", "cli")


def _iterations(bound, result):
    return result.iterations_used


# Per-span value recorded from a call: the work it did, in the unit the
# layer metrics need. `bound` holds the call's arguments by parameter name.
VALUE_OF = {
    "channel.build_dataset": lambda bound, result: result.features.shape[0],
    "slp.backward": lambda bound, result: np.atleast_2d(bound["features"]).shape[0],
    "baselines.ista": _iterations,
    "baselines.fista": _iterations,
    "baselines.amp": _iterations,
    "evaluation.roc_curve": lambda bound, result: np.asarray(bound["trials"].scores).size,
}


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}

    def install(self) -> None:
        """Replace every binding of each traced function in the package."""
        modules = {m: importlib.import_module(f"fedad.{m}") for m in MODULES}
        for layer, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(modules[layer], fn_name, None)
                if original is None:
                    continue
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original)
                for mod_name, module in modules.items():
                    for attr, bound in list(vars(module).items()):
                        if bound is original:
                            self._restore.append((module, attr, bound))
                            setattr(module, attr, wrapper)
                            self.sites.setdefault(name, []).append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, value = (
            self.name_of, self.parent, self.start, self.end, self.value,
        )
        stack = self._stack
        clock = time.perf_counter
        value_of = VALUE_OF.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if value_of is not None:
                bound = signature.bind(*args, **kwargs).arguments
                value[idx] = float(value_of(bound, result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        return {
            "name": name_of,
            "parent": parent,
            "start": start,
            "end": end,
            "value": np.frombuffer(self.value, dtype=np.float64),
            "self": duration - children,
        }

    def dump(self, path: Path) -> None:
        """Write every span to an .npz file (names in `names`)."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def layer_metrics(self, configs: list[dict], uplink_bytes_per_round: int) -> dict[str, float]:
        """The per-layer metrics of traced runs of `configs` (benchmark
        experiment configs, as JSON, that share one scenario's shapes, and
        whose experiments that run a given solver share its solver config)."""
        spans = self.arrays()

        def pick(name):
            mask = spans["name"] == (self.names.index(name) if name in self.names else -1)
            return {
                "calls": int(mask.sum()),
                "s": float(spans["self"][mask].sum()),
                "total_s": float((spans["end"] - spans["start"])[mask].sum()),
                "values": spans["value"][mask],
                "ends": spans["end"][mask],
                "parents": spans["parent"][mask],
            }

        sc = configs[0]["scenario"]
        f = 2 * sc["pilot_len"] * sc["antennas_per_ap"]
        v, k = sc["hidden_units"], sc["num_devices"]
        n_params = v * f + v + k * v + k
        out: dict[str, float] = {}

        out["scenario.build_scenario.s"] = pick("scenario.build_scenario")["s"]

        data = pick("channel.build_dataset")
        events = float(data["values"].sum())
        out["channel.build_dataset.calls"] = data["calls"]
        out["channel.build_dataset.events"] = events
        out["channel.build_dataset.s"] = data["s"]
        out["channel.build_dataset.us_per_event"] = _ratio(1e6 * data["s"], events)

        fwd = pick("slp.forward")
        out["slp.forward.calls"] = fwd["calls"]
        out["slp.forward.s"] = fwd["s"]
        bwd = pick("slp.backward")
        # Matrix products of backward including its own forward pass:
        # 2FV + 2VK forward, 2KV + 2KV + 2VF backward, per sample.
        flops = float(bwd["values"].sum()) * (4 * f * v + 6 * v * k)
        out["slp.backward.calls"] = bwd["calls"]
        out["slp.backward.s"] = bwd["s"]
        out["slp.backward.gflop_per_s"] = _ratio(flops / 1e9, bwd["total_s"])
        adam = pick("slp.adam_step")
        # Least traffic of one Adam step: read p, g, m, v and write p, m, v.
        adam_bytes = adam["calls"] * n_params * 7 * 8
        out["slp.adam_step.calls"] = adam["calls"]
        out["slp.adam_step.s"] = adam["s"]
        out["slp.adam_step.us_per_call"] = _ratio(1e6 * adam["s"], adam["calls"])
        out["slp.adam_step.gb_per_s"] = _ratio(adam_bytes / 1e9, adam["s"])

        local = pick("federation.local_train")
        out["federation.local_train.calls"] = local["calls"]
        out["federation.local_train.s"] = local["s"]
        out["federation.aggregate.s"] = pick("federation.aggregate")["s"]
        server = pick("federation.server_step")
        out["federation.server_step.s"] = server["s"]
        out["federation.heldout_bce.s"] = pick("federation.heldout_bce")["s"]
        fuse = pick("federation.fuse_cluster_scores")
        out["federation.fuse_cluster_scores.calls"] = fuse["calls"]
        out["federation.fuse_cluster_scores.s"] = fuse["s"]
        # A round ends with its server step; rounds of one training run
        # share the run_training parent span.
        rounds = np.concatenate([
            np.diff(server["ends"][server["parents"] == run]) for run in np.unique(server["parents"])
        ]) if server["calls"] else np.empty(0)
        p50, p90 = np.percentile(rounds, [50, 90]) if rounds.size else (0.0, 0.0)
        out["federation.round_s_p50"] = float(p50)
        out["federation.round_s_p90"] = float(p90)
        out["federation.uplink_bytes_per_round"] = uplink_bytes_per_round

        for solver in ("ista", "fista"):
            est = pick(f"baselines.{solver}")
            iters = est["values"]
            out[f"baselines.{solver}.calls"] = est["calls"]
            out[f"baselines.{solver}.s"] = est["s"]
            out[f"baselines.{solver}.iters_mean"] = float(iters.mean()) if iters.size else 0.0
            out[f"baselines.{solver}.iters_max"] = float(iters.max()) if iters.size else 0.0
            cap = next((c["solver"]["max_iters"] for c in configs if solver in c["detectors"]), 0)
            capped = float(np.sum(iters >= cap))
            out[f"baselines.{solver}.capped_frac"] = _ratio(capped, iters.size)
        for name in ("amp", "lasso_objective"):
            est = pick(f"baselines.{name}")
            out[f"baselines.{name}.calls"] = est["calls"]
            out[f"baselines.{name}.s"] = est["s"]
        out["baselines.build_mmv_problem.s"] = pick("baselines.build_mmv_problem")["s"]

        roc = pick("evaluation.roc_curve")
        out["evaluation.roc_curve.calls"] = roc["calls"]
        out["evaluation.roc_curve.scores"] = float(roc["values"].sum())
        out["evaluation.roc_curve.s"] = roc["s"]

        out["cli.run_experiment.s"] = pick("cli.run_experiment")["s"]
        out["cli.emit_results.s"] = pick("cli.emit_results")["s"]
        return out


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
