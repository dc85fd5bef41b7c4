"""`rng.spawned_pcg64_states` against numpy's own `Generator.spawn`: the
derived state of every child must be the state of the child that spawn
builds, whatever the parent's entropy, spawn key or pool size."""

import numpy as np
import pytest

from fedad.rng import spawned_pcg64_states, substream

ENTROPY = {"1-word": 7, "2-words": 2**40 + 5, "7-words": 2**200 + 77, "os": None}
SPAWN_KEY = (0xDEADBEEF, 12, 2**35 + 1)  # the last element takes two words


def spawned(parent, count):
    """The bit-generator states of the next `count` children `parent.spawn`
    hands out."""
    return [child.bit_generator.state for child in parent.spawn(count)]


def make_parent(entropy, key_len, pool_size=4):
    seed_seq = np.random.SeedSequence(
        ENTROPY[entropy], spawn_key=SPAWN_KEY[:key_len], pool_size=pool_size
    )
    return np.random.default_rng(seed_seq)


@pytest.mark.parametrize("key_len", [0, 1, 2, 3])
@pytest.mark.parametrize("entropy", list(ENTROPY))
@pytest.mark.parametrize("first,count", [(0, 5), (3, 4), (1000, 3)])
def test_matches_spawn(entropy, key_len, first, count):
    parent = make_parent(entropy, key_len)
    derived = list(spawned_pcg64_states(parent, first, count))
    parent.spawn(first)  # numpy numbers children by its spawn counter
    assert derived == spawned(parent, count)


@pytest.mark.parametrize(
    "parent",
    [
        lambda: np.random.default_rng([1, 2**33, 3, 4, 5, 6]),
        lambda: make_parent("2-words", 1, pool_size=8),
        lambda: substream(42, "federation").spawn(4)[1],  # run_training's data stream
    ],
    ids=["sequence-entropy", "pool-8", "data-stream"],
)
def test_matches_spawn_on_other_parents(parent):
    parent = parent()
    assert list(spawned_pcg64_states(parent, 0, 6)) == spawned(parent, 6)


def test_parent_that_already_spawned():
    # The derivation numbers children explicitly: it neither reads nor
    # advances the parent's spawn counter.
    parent = substream(5, "data")
    parent.spawn(3)
    derived = list(spawned_pcg64_states(parent, 3, 4))
    assert parent.bit_generator.seed_seq.n_children_spawned == 3
    assert derived == spawned(parent, 4)
    assert list(spawned_pcg64_states(parent, 0, 2)) == spawned(substream(5, "data"), 2)


def test_generator_set_to_a_derived_state_draws_the_childs_stream():
    parent = substream(9, "events")
    (state,) = spawned_pcg64_states(parent, 2, 1)
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = state
    child = parent.spawn(3)[2]
    assert np.array_equal(generator.random(40), child.random(40))
    assert np.array_equal(generator.standard_normal(999), child.standard_normal(999))


def test_empty_range():
    assert list(spawned_pcg64_states(substream(1, "x"), 7, 0)) == []


def test_rejects_other_bit_generators():
    with pytest.raises(TypeError, match="PCG64"):
        spawned_pcg64_states(np.random.Generator(np.random.MT19937(1)), 0, 1)


def test_rejects_indices_past_one_word():
    with pytest.raises(ValueError, match="one-word"):
        spawned_pcg64_states(substream(1, "x"), 2**32 - 1, 2)
    with pytest.raises(ValueError, match="one-word"):
        spawned_pcg64_states(substream(1, "x"), -1, 2)
