"""Named random substreams derived from a single master seed.

Every stochastic stage of the simulator (geometry, pilots, activity,
channels, noise, model init, ...) pulls its own generator from
``substream(master_seed, <string labels>)``, so each module can be
exercised in isolation and results never depend on call order or thread
schedule.

`spawned_pcg64_states` derives the PCG64 states that ``Generator.spawn``
would give a range of children without building any child: numpy's
SeedSequence hash (O'Neill's ``seed_seq``, from the PCG paper, 2014)
mixes a child's spawn index in last, so the pool is hashed once up to
that word and the rest runs as a few uint32 array passes over all
children.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's default 128-bit LCG multiplier (pcg64.h) and modulus mask.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def substream(master_seed: int, *labels: str) -> np.random.Generator:
    """Return an independent generator keyed by (master_seed, labels),
    each label keyed by its CRC-32 in UTF-8.

    Identical arguments always yield a bit-identical stream.
    """
    key = tuple(zlib.crc32(label.encode("utf-8")) for label in labels)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def spawned_pcg64_states(stream: np.random.Generator, first: int, count: int) -> Iterator[dict]:
    """The `bit_generator.state` of each PCG64 child numbered first, ...,
    first + count - 1 of `stream`'s seed sequence, in turn, child i being
    the one whose spawn key ends in i: `stream.spawn(n)` after j earlier
    children hands out children j, ..., j + n - 1. A PCG64 given a child's
    state draws what that child draws.

    The seeds are derived when called; each state is formed as it is
    handed out, so a caller that uses one at a time holds one. The
    stream's spawn counter is neither read nor advanced.
    """
    if not isinstance(stream.bit_generator, np.random.PCG64):
        raise TypeError(f"expected a PCG64 stream, got {type(stream.bit_generator).__name__}")
    if not 0 <= first <= first + count <= _MASK32 + 1:
        raise ValueError(f"children {first}..{first + count - 1} are not all one-word indices")
    seed_seq = stream.bit_generator.seed_seq
    pool_size = seed_seq.pool_size
    # A child's entropy words: the run entropy, padded to the pool size
    # because a child's spawn key is never empty, then the parent's spawn
    # key, then the child index, one word that here is an array over the
    # children. Every word but the index is a plain int.
    run = _words(seed_seq.entropy)
    entropy = [*run, *[0] * (pool_size - len(run)), *_words(seed_seq.spawn_key),
               np.arange(first, first + count, dtype=np.uint32)]

    # SeedSequence.mix_entropy; the entropy always outruns the pool.
    const, pool = _INIT_A, []
    for word in entropy[:pool_size]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[pool_size:]:
        for dst in range(pool_size):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)

    # SeedSequence.generate_state(4, np.uint64): eight words, cycling the pool.
    const, words = _INIT_B, []
    for i in range(8):
        word = pool[i % pool_size] ^ const
        const = (const * _MULT_B) & _MASK32
        word = (word * const) & _MASK32
        words.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    seeds = [lo | (hi << 32) for lo, hi in zip(words[0::2], words[1::2])]
    return map(_pcg64_state, *seeds)


def _pcg64_state(hi, lo, seq_hi, seq_lo) -> dict:
    """The state pcg64_set_seed gives a PCG64 seeded with these four
    uint64 words: state 0, inc = 2 * initseq + 1, step, add initstate,
    step."""
    inc = ((((int(seq_hi) << 64) | int(seq_lo)) << 1) | 1) & _MASK128
    state = ((inc + ((int(hi) << 64) | int(lo))) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }


def _words(value) -> list[int]:
    """numpy's little-endian uint32 words of SeedSequence entropy or a
    spawn key: an integer gives its words (0 gives one), a sequence the
    words of each element in turn."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]
        while value := value >> 32:
            words.append(value & _MASK32)
        return words
    return [word for item in value for word in _words(item)]


def _hashmix(value, const: int):
    """One `hashmix` of a word (int) or of words (uint32 array); returns
    the hashed value and the advanced hash constant."""
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    result = ((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)
    result &= _MASK32
    return result ^ (result >> _XSHIFT)
