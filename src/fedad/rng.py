"""Named random substreams derived from a single master seed.

Every stochastic stage of the simulator (geometry, pilots, activity,
channels, noise, model init, ...) pulls its own generator from
``substream(master_seed, <string labels>)``, so each module can be
exercised in isolation and results never depend on call order or thread
schedule.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(master_seed: int, *labels: str) -> np.random.Generator:
    """Return an independent generator keyed by (master_seed, labels),
    each label keyed by its CRC-32 in UTF-8.

    Identical arguments always yield a bit-identical stream.
    """
    key = tuple(zlib.crc32(label.encode("utf-8")) for label in labels)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))
