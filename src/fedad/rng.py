"""Named random substreams derived from a single master seed.

Every stochastic stage of the simulator (geometry, pilots, activity,
channels, noise, model init, ...) pulls its own generator from
``substream(master_seed, <string labels>)``, so each module can be
exercised in isolation and results never depend on call order or thread
schedule.

`spawned_pcg64_states` derives the PCG64 states that ``Generator.spawn``
would give a range of children without building any child. A child's
entropy words are its parent's words followed by its spawn index, and
numpy's SeedSequence hash (O'Neill's ``seed_seq``, from the PCG paper,
2014) takes its words in order. So the parent's own pool, which numpy
hashed from the shared words, is every child's pool up to the last word;
fedad mixes in only the index, as a few uint32 array passes over all
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

    numpy has already hashed the words every child shares with `stream`
    into the stream's seed pool; this mixes in only each child's index,
    then runs SeedSequence.generate_state and PCG64's seeding on the
    result. The seeds are derived when called; each state is formed as
    it is handed out, so a caller that uses one at a time holds one. The
    stream's spawn counter is neither read nor advanced.
    """
    if not isinstance(stream.bit_generator, np.random.PCG64):
        raise TypeError(f"expected a PCG64 stream, got {type(stream.bit_generator).__name__}")
    if not 0 <= first <= first + count <= _MASK32 + 1:
        raise ValueError(f"children {first}..{first + count - 1} are not all one-word indices")
    seed_seq = stream.bit_generator.seed_seq
    pool_size = seed_seq.pool_size
    # The words a child shares with its parent: the run entropy, zero-padded
    # to the pool size (explicitly, as a child's spawn key is never empty;
    # numpy's hash pads a keyless parent's short entropy the same way), then
    # the parent's spawn key. SeedSequence.mix_entropy has hashed them into
    # seed_seq.pool with pool_size hashmix calls per word, each advancing the
    # hash constant by _MULT_A.
    shared = max(_word_count(seed_seq.entropy), pool_size) + _word_count(seed_seq.spawn_key)
    const = (_INIT_A * pow(_MULT_A, pool_size * shared, _MASK32 + 1)) & _MASK32
    # The child index is the last word, which mix_entropy hashes into every
    # pool word in turn; here it is an array over the children.
    index = np.arange(first, first + count, dtype=np.uint32)
    pool = []
    for word in seed_seq.pool.tolist():
        hashed, const = _hashmix(index, const)
        pool.append(_mix(word, hashed))

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


def _word_count(value) -> int:
    """How many uint32 words numpy makes of SeedSequence entropy or a spawn
    key: an integer takes its little-endian words (0 takes one), a
    sequence the words of each element in turn."""
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(map(_word_count, value))


def _hashmix(value, const: int):
    """One `hashmix` of each word of a uint32 array; returns the hashed
    words and the advanced hash constant."""
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    result = ((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)
    result &= _MASK32
    return result ^ (result >> _XSHIFT)
