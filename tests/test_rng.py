import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlsim import rng


def _reference(key):
    """The stream as ``SeedSequence`` builds it from a list of Python ints."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(2**32 - 2, 2**32 + 2), st.integers(0, 2**70 - 1)),
                min_size=1, max_size=5))
def test_stream_is_the_seed_sequence_of_the_key_bit_for_bit(key):
    got, want = rng.stream(*key), _reference(key)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(7).view(np.uint64), want.random(7).view(np.uint64))
    assert np.array_equal(got.integers(0, 2**40, 5), want.integers(0, 2**40, 5))
    assert np.array_equal(got.permutation(11), want.permutation(11))


def test_stream_takes_numpy_integers():
    key = (np.int64(3), np.uint32(2**32 - 1), np.uint64(2**63))
    assert np.array_equal(rng.stream(*key).random(4), _reference([int(k) for k in key]).random(4))


@pytest.mark.parametrize("key", [(), (-1,), (3, -2**40)])
def test_empty_and_negative_keys_are_rejected(key):
    with pytest.raises(ValueError):
        rng.stream(*key)


# a key element: 0, either side of a word boundary, or up to three words
ELEMENT = st.one_of(st.just(0), st.integers(2**32 - 2, 2**32 + 2), st.integers(0, 2**70 - 1))
# an index element of a family, which an integer array holds
INDEX = st.one_of(st.just(0), st.integers(2**32 - 2, 2**32 + 2), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(ELEMENT, max_size=3), st.lists(INDEX, min_size=1, max_size=4),
       st.lists(ELEMENT, max_size=2))
def test_a_family_seeds_each_key_as_its_stream_bit_for_bit(prefix, index, suffix):
    states = rng.family_states(tuple(prefix), np.array(index, np.uint64), tuple(suffix))
    assert states.shape == (len(index), 4) and states.dtype == np.uint64
    for state, i in zip(states, index):
        key = (*prefix, i, *suffix)
        seq = np.random.SeedSequence(list(key))
        assert np.array_equal(state, seq.generate_state(4, np.uint64))
        got, want = rng.generator(state), rng.stream(*key)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(5).view(np.uint64), want.random(5).view(np.uint64))


def test_a_key_shorter_than_four_words_is_its_zero_padded_form():
    # SeedSequence pads its pool with zero words, so these keys are one stream:
    # (s, 9002, 1001) is device 1001's data and round 9002's uniform selection
    for short, padded in (((7, 9002, 1001), (7, 9002, 1001, 0)), ((3,), (3, 0, 0, 0))):
        assert np.array_equal(rng.stream(*short).random(4), rng.stream(*padded).random(4))
    # four words and more are not padded
    assert not np.array_equal(rng.stream(7, 9002, 1001, 0).random(4),
                              rng.stream(7, 9002, 1001, 0, 0).random(4))
    # and the family form hashes a short key the same way
    family = rng.family_states((7, 9002), np.array([1001]))
    assert np.array_equal(family, rng.family_states((7, 9002), np.array([1001]), (0,)))
    assert np.array_equal(family[0], np.random.SeedSequence([7, 9002, 1001, 0])
                          .generate_state(4, np.uint64))


@pytest.mark.parametrize("prefix, index, suffix", [
    ((1,), [0, -1], ()), ((-1,), [0], ()), ((1,), [2], (3, -4)),
])
def test_a_family_rejects_a_negative_element(prefix, index, suffix):
    with pytest.raises(ValueError, match="non-negative"):
        rng.family_states(prefix, np.array(index), suffix)


