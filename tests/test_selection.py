import itertools

import numpy as np
import pytest

from fmlsim.errors import InvalidInputError
from fmlsim.selection import aggregate, positive_shift, select_top_k, shifted_scores


def test_top_two_of_three():
    assert select_top_k({0: 5.0, 1: 1.0, 2: 3.0}, 2) == {0, 2}


def test_ties_broken_by_ascending_id():
    assert select_top_k({3: 1.0, 1: 1.0, 2: 1.0}, 2) == {1, 2}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(InvalidInputError, match="non-finite"):
        select_top_k({0: 1.0, 1: bad, 2: 3.0}, 2)


def test_n_k_equal_to_n_returns_all():
    scores = {i: float(i) for i in range(5)}
    assert select_top_k(scores, 5) == set(range(5))


def test_out_of_range_n_k():
    with pytest.raises(InvalidInputError):
        select_top_k({0: 1.0}, 2)
    with pytest.raises(InvalidInputError):
        select_top_k({0: 1.0}, 0)


def test_selection_matches_brute_force():
    g = np.random.default_rng(0)
    for _ in range(25):
        scores = {i: float(v) for i, v in enumerate(g.normal(size=12))}
        got = select_top_k(scores, 5)
        best = max(
            itertools.combinations(scores, 5),
            key=lambda s: sum(scores[i] for i in s),
        )
        assert sum(scores[i] for i in got) == pytest.approx(
            sum(scores[i] for i in best)
        )


def test_selection_invariant_to_common_shift():
    g = np.random.default_rng(1)
    scores = {i: float(v) for i, v in enumerate(g.normal(size=10))}
    base = select_top_k(scores, 4)
    shifted = {i: v + 123.456 for i, v in scores.items()}
    assert select_top_k(shifted, 4) == base


def test_positive_shift_makes_scores_positive():
    scores = {0: -3.0, 1: 0.0, 2: 2.0}
    c = positive_shift(scores)
    assert all(v > 0 for v in shifted_scores(scores, c).values())
    assert c == pytest.approx(4.0)


def test_aggregate_mean():
    out = aggregate([np.array([0.0, 0.0]), np.array([2.0, 4.0])])
    assert np.allclose(out, [1.0, 2.0])


def test_aggregate_idempotent_and_order_free():
    g = np.random.default_rng(2)
    models = [g.normal(size=4) for _ in range(5)]
    assert np.allclose(aggregate(models), aggregate(models[::-1]))
    theta = g.normal(size=4)
    assert np.allclose(aggregate([theta, theta]), theta)


def test_aggregate_empty_rejected():
    with pytest.raises(InvalidInputError):
        aggregate([])
