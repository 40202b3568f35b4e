import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlsim.errors import InvalidInputError
from fmlsim.selection import aggregate, select_top_k, shifted_scores


def _top_k(scores, n_k):
    return select_top_k(np.array(scores, dtype=float), n_k).tolist()


def test_top_two_of_three():
    assert _top_k([5.0, 1.0, 3.0], 2) == [0, 2]


def test_ties_broken_by_ascending_id():
    # rows are in ascending device id, so the lower row wins a tie
    assert _top_k([2.0, 1.0, 1.0, 1.0], 3) == [0, 1, 2]
    assert _top_k([1.0, 1.0, 1.0], 2) == [0, 1]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(InvalidInputError, match="non-finite"):
        _top_k([1.0, bad, 3.0], 2)


def test_n_k_equal_to_n_returns_all():
    assert _top_k(range(5), 5) == list(range(5))


def test_out_of_range_n_k():
    with pytest.raises(InvalidInputError):
        _top_k([1.0], 2)
    with pytest.raises(InvalidInputError):
        _top_k([1.0], 0)


def test_selection_matches_brute_force():
    g = np.random.default_rng(0)
    for _ in range(25):
        scores = g.normal(size=12)
        got = select_top_k(scores, 5)
        assert len(set(got.tolist())) == 5 and (np.diff(got) > 0).all()
        best = max(itertools.combinations(range(12), 5), key=lambda s: scores[list(s)].sum())
        assert scores[got].sum() == pytest.approx(scores[list(best)].sum())


def test_selection_invariant_to_common_shift():
    g = np.random.default_rng(1)
    scores = g.normal(size=10)
    base = select_top_k(scores, 4)
    assert np.array_equal(select_top_k(scores + 123.456, 4), base)


def test_positive_shift_makes_scores_positive():
    shifted = shifted_scores(np.array([-3.0, 0.0, 2.0]))
    assert (shifted > 0).all()
    assert shifted.tolist() == pytest.approx([1.0, 4.0, 6.0])    # shift 4 = -min + 1
    assert shifted_scores(np.array([0.5, 2.0])).tolist() == [1.5, 3.0]   # shift 1


def test_aggregate_mean():
    out = aggregate([np.array([0.0, 0.0]), np.array([2.0, 4.0])])
    assert np.allclose(out, [1.0, 2.0])


def test_aggregate_idempotent_and_order_free():
    g = np.random.default_rng(2)
    models = [g.normal(size=4) for _ in range(5)]
    assert np.allclose(aggregate(models), aggregate(models[::-1]))
    theta = g.normal(size=4)
    assert np.allclose(aggregate([theta, theta]), theta)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 50), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_aggregate_is_the_mean_bit_for_bit(count, d, seed):
    stack = np.random.default_rng(seed).normal(scale=1e3, size=(count, d))
    want = np.mean(stack, axis=0).view(np.uint64)
    assert np.array_equal(aggregate(stack).view(np.uint64), want)
    assert np.array_equal(aggregate(list(stack)).view(np.uint64), want)


def test_aggregate_empty_rejected():
    with pytest.raises(InvalidInputError):
        aggregate([])
