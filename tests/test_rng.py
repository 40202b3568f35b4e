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
