"""Argument validation shared across the public API surface.

All user-facing constructors and query methods funnel through these
checks so error messages are consistent and tests can assert on them.
"""

from __future__ import annotations

import numpy as np


#: The largest squared norm whose squared distances cannot overflow:
#: ``|x - q|^2 <= 4 * max(|x|^2, |q|^2)``.  NaN compares False against it.
_MAX_SQUARED_NORM = np.finfo(np.float64).max / 4.0


def _check_norms_finite(rows: np.ndarray, what: str) -> None:
    """Reject rows whose squared distances could overflow.

    A NaN or infinite entry makes ``v @ v`` non-finite, and so does a
    finite row large enough to overflow it (``np.full(8, 1e154)``): every
    distance to such a row is ``inf``, which would leave the neighbour
    order to tie-breaking.  The bound is a quarter of the float range,
    not all of it: ``|x - q|^2`` reaches ``4 * max(|x|^2, |q|^2)`` (at
    ``q = -x``), so a row whose own squared norm is finite can still put
    ``inf`` into every distance to its mirror image.
    """
    if not (np.einsum("ij,ij->i", rows, rows) <= _MAX_SQUARED_NORM).all():
        raise ValueError(
            f"{what} NaN or infinite values, or values whose squared norm overflows"
        )


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Ensure ``value`` is positive (or non-negative when ``strict=False``)."""
    value = float(value)
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Ensure ``value`` is a probability in the open interval (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def check_dataset(data: np.ndarray) -> np.ndarray:
    """Validate and normalise a dataset to a C-contiguous float64 (n, d) array."""
    array = np.ascontiguousarray(data, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"dataset must be 2-D (n, d), got shape {array.shape}")
    if array.shape[0] == 0:
        raise ValueError("dataset must contain at least one point")
    if array.shape[1] == 0:
        raise ValueError("dataset must have at least one dimension")
    _check_norms_finite(array, "dataset contains")
    return array


def check_query(query: np.ndarray, dim: int) -> np.ndarray:
    """Validate a single query point against the indexed dimensionality."""
    vector = np.ascontiguousarray(query, dtype=np.float64).reshape(-1)
    if vector.shape[0] != dim:
        raise ValueError(f"query has dimension {vector.shape[0]}, index expects {dim}")
    _check_norms_finite(vector[None, :], "query contains")
    return vector


def check_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    """Validate a query batch to a C-contiguous float64 (m, d) array.

    A single row is promoted to shape (1, d); ``m = 0`` is allowed (the
    batched query paths return an empty result list for it).
    """
    array = np.atleast_2d(np.ascontiguousarray(queries, dtype=np.float64))
    if array.ndim != 2 or array.shape[1] != dim:
        raise ValueError(
            f"queries have dimension {array.shape[-1]}, index expects {dim}"
        )
    _check_norms_finite(array, "queries contain")
    return array
