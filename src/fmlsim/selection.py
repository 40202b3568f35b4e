"""Server-side device selection and model aggregation.

Devices are rows: scores are one array entry per device, in the row order
of the run's training arrays (ascending device id), and a selection is an
ascending array of rows.  Selection is a plain top-k on the contribution
scores, ties going to the lower row; it is invariant to adding a common
constant to all scores.  The positive shift needed by the matching utility
lives here too, isolated from top-k.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInputError


def select_top_k(scores: np.ndarray, n_k: int) -> np.ndarray:
    """Ascending rows of the n_k largest scores, ties broken by the lower row.

    Scores must be finite: a NaN compares false both ways and has no rank.
    """
    if not 1 <= n_k <= len(scores):
        raise InvalidInputError(f"n_k={n_k} out of range for {len(scores)} scores")
    finite = np.isfinite(scores)
    if not finite.all():
        raise InvalidInputError(
            f"non-finite contribution scores for device rows {np.flatnonzero(~finite).tolist()}"
        )
    return np.sort(np.argsort(-scores, kind="stable")[:n_k])


def shifted_scores(scores: np.ndarray) -> np.ndarray:
    """Scores plus the round-global constant max(0, -min u) + 1, so every entry is positive."""
    return scores + (max(0.0, -float(scores.min())) + 1.0)


def aggregate(models: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise mean of the received parameter vectors (a list or the rows of an array)."""
    if len(models) == 0:
        raise InvalidInputError("cannot aggregate an empty model list")
    stack = np.asarray(models)
    if stack.ndim != 2:
        raise InvalidInputError("parameter vectors must share one dimension")
    # what ``stack.mean(axis=0)`` computes, without its Python wrapper
    return np.add.reduce(stack, axis=0) / len(stack)
