"""Server-side device selection and model aggregation.

Selection is a plain top-k on the per-device contribution scores; it is
invariant to adding a common constant to all scores.  The positive shift
needed by the matching utility lives here too, isolated from top-k.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInputError


def select_top_k(scores: dict[int, float], n_k: int) -> set[int]:
    """Return the ids of the n_k largest scores, ties broken by ascending id.

    Scores must be finite: a NaN compares false both ways and would leave
    the result short of n_k ids.

    Average-case linear: partition by score, then resolve only the boundary
    ties explicitly.
    """
    if not 1 <= n_k <= len(scores):
        raise InvalidInputError(f"n_k={n_k} out of range for {len(scores)} scores")
    ids = np.fromiter(scores.keys(), dtype=np.int64, count=len(scores))
    u = np.fromiter(scores.values(), dtype=float, count=len(scores))
    if not np.all(np.isfinite(u)):
        raise InvalidInputError(
            f"non-finite contribution scores for devices {ids[~np.isfinite(u)].tolist()}"
        )
    if n_k == len(scores):
        return set(ids.tolist())
    part = np.argpartition(-u, n_k - 1)
    threshold = u[part[n_k - 1]]
    above = ids[u > threshold]
    at = np.sort(ids[u == threshold])
    take = n_k - above.size
    return set(above.tolist()) | set(at[:take].tolist())


def positive_shift(scores: dict[int, float]) -> float:
    """Round-global constant C with u + C > 0 for every device: max(0, -min u) + 1."""
    if not scores:
        return 1.0
    return max(0.0, -min(scores.values())) + 1.0


def shifted_scores(scores: dict[int, float], shift: float | None = None) -> dict[int, float]:
    c = positive_shift(scores) if shift is None else shift
    return {i: u + c for i, u in scores.items()}


def aggregate(models: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise mean of the received parameter vectors (a list or the rows of an array)."""
    if len(models) == 0:
        raise InvalidInputError("cannot aggregate an empty model list")
    stack = np.stack(models)
    if stack.ndim != 2:
        raise InvalidInputError("parameter vectors must share one dimension")
    return stack.mean(axis=0)
