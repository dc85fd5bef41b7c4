"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the speed of one core drifts by 15-25 % over minutes as
other tenants' load comes and goes, and that drift moves every fedad
timing alike. Every 0.2 s while a worker runs experiments, the benchmark
pauses it and times one chunk of this kernel on the worker's CPU, in
`run.py`'s own process (which never imports fedad, so no change to fedad
can speed the kernel up or slow it down). Each end-to-end time is then
scaled by `NOMINAL_S` over the median chunk time of the run. A chunk is
half `dense()`, the perceptron arithmetic of `slp`, and half `sparse()`,
the many small numpy calls of the proximal-gradient baselines, because
host load slows the two kinds of code by different amounts.
"""

from __future__ import annotations

import os
import statistics
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# Median time of one `chunk()` on a quiet 2-core x86-64 host (OpenBLAS
# 0.3.31, one thread); scaled times read as seconds on such a host.
NOMINAL_S = 0.013

_rng = np.random.default_rng(0)
# A perceptron layer pair at the desk shapes: 32 samples x 80 features,
# 512 hidden units, 40 devices.
_X = _rng.standard_normal((32, 80))
_W = _rng.standard_normal((512, 80)) * 0.1
_U = _rng.standard_normal((40, 512)) * 0.1
# A row-sparse recovery problem at the desk shapes: 20 x 40 pilots, 16
# antennas.
_S = (_rng.standard_normal((20, 40)) + 1j * _rng.standard_normal((20, 40))) / np.sqrt(40)
_Y = _rng.standard_normal((20, 16)) + 1j * _rng.standard_normal((20, 16))


def dense() -> float:
    """Seconds for ten forward and backward passes of the perceptron."""
    t0 = time.perf_counter()
    for _ in range(10):
        h = np.tanh(_X @ _W.T)
        o = 1.0 / (1.0 + np.exp(-(h @ _U.T)))
        grad_w = ((o @ _U) * (1.0 - h * h)).T @ _X
        _W - 1e-9 * grad_w / (np.abs(grad_w) + 1e-8)
    return time.perf_counter() - t0


def sparse() -> float:
    """Seconds for 150 proximal-gradient iterations, each a handful of
    small numpy calls, as the baselines make them."""
    t0 = time.perf_counter()
    x = np.zeros((40, 16), dtype=complex)
    for _ in range(150):
        v = x + 0.5 * (_S.conj().T @ (_Y - _S @ x))
        norms = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
        x = v * np.maximum(1.0 - 0.05 / np.maximum(norms, 1e-300), 0.0)[:, None]
        0.5 * np.sum(np.abs(_Y - _S @ x) ** 2) + 0.05 * np.sum(norms)
    return time.perf_counter() - t0


def chunk() -> tuple[float, float]:
    """Seconds taken by `dense()` and by `sparse()`, one fixed unit of
    work (about 13 ms in all)."""
    return dense(), sparse()


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured while `samples` (chunk times)
    were taken into seconds at the nominal host speed."""
    return NOMINAL_S / statistics.median(samples)
