"""Tests for Timer, validation helpers, and the shared scale estimators."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.dblsh import estimate_initial_radius
from repro.utils.scale import estimate_nn_distance
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_dataset,
    check_positive,
    check_probability,
    check_queries,
    check_query,
)

#: Finite values whose squared distances overflow: every distance to such
#: a row is inf, so the neighbour order would be left to tie-breaking.
#: 3.5e153 keeps ``v @ v`` finite over 8 dims (9.8e307) while ``|v - (-v)|^2``
#: (4x that) is inf.
OVERFLOWING = [1e154, 1e300, 3.5e153]


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.002)
        with timer:
            time.sleep(0.002)
        assert timer.count == 2
        assert timer.elapsed >= 0.004

    def test_mean(self):
        timer = Timer()
        assert timer.mean == 0.0
        with timer:
            pass
        assert timer.mean >= 0.0
        assert timer.mean_ms == pytest.approx(timer.mean * 1e3)

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.count == 0
        assert timer.elapsed == 0.0


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_rejects_negative_always(self):
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError, match="strictly between"):
            check_probability("p", value)

    def test_accepts_interior(self):
        assert check_probability("p", 0.5) == 0.5


class TestCheckDataset:
    def test_accepts_2d(self):
        out = check_dataset([[1.0, 2.0], [3.0, 4.0]])
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            check_dataset(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one point"):
            check_dataset(np.zeros((0, 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            check_dataset(np.zeros((3, 0)))

    def test_rejects_nan(self):
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_dataset(bad)

    def test_rejects_inf(self):
        bad = np.array([[1.0, np.inf]])
        with pytest.raises(ValueError):
            check_dataset(bad)

    @pytest.mark.parametrize("value", OVERFLOWING)
    def test_rejects_overflowing_squared_norm(self, value):
        bad = np.zeros((4, 8))
        bad[2] = value
        with pytest.raises(ValueError, match="squared norm overflows"):
            check_dataset(bad)


class TestCheckQuery:
    def test_accepts_matching_dim(self):
        out = check_query([1.0, 2.0, 3.0], 3)
        assert out.shape == (3,)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            check_query([1.0, 2.0], 3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_query([np.nan, 0.0], 2)

    @pytest.mark.parametrize("value", OVERFLOWING)
    def test_rejects_overflowing_squared_norm(self, value):
        with pytest.raises(ValueError, match="squared norm overflows"):
            check_query(np.full(8, value), 8)
        batch = np.ones((3, 8))
        batch[1] = value
        with pytest.raises(ValueError, match="squared norm overflows"):
            check_queries(batch, 8)


class TestEstimateNNDistance:
    def test_known_grid(self):
        # Points on a unit 1-D grid embedded in 2-D: NN distance is 1.
        data = np.stack([np.arange(50, dtype=float), np.zeros(50)], axis=1)
        assert estimate_nn_distance(data) == pytest.approx(1.0)

    def test_scales_linearly(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((300, 8))
        base = estimate_nn_distance(data)
        scaled = estimate_nn_distance(10.0 * data)
        assert scaled == pytest.approx(10.0 * base, rel=1e-9)

    def test_single_point_returns_zero(self):
        assert estimate_nn_distance(np.zeros((1, 4))) == 0.0

    def test_duplicates_return_zero(self):
        data = np.ones((20, 3))
        assert estimate_nn_distance(data) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((500, 6))
        assert estimate_nn_distance(data) == estimate_nn_distance(data)

    def test_off_origin_cluster(self):
        # A tight cluster far from the origin: the vectorized expansion
        # must not cancel the tiny separations against the huge norms.
        rng = np.random.default_rng(3)
        data = rng.standard_normal((800, 12)) * 1e-3 + 1e5
        estimate = estimate_nn_distance(data)
        reference = np.sort(
            np.linalg.norm(data - data[0], axis=1)
        )[1]  # a same-scale separation, not an exactness target
        assert 0.1 * reference < estimate < 10.0 * reference

    def test_partial_duplicates_stay_exactly_zero(self):
        # When most sampled points have an exact duplicate, the median NN
        # distance must be exactly 0.0 (the degenerate-input contract),
        # not an ulp-scale expansion residual.
        rng = np.random.default_rng(5)
        data = rng.standard_normal((348, 25))
        data[: 174] = data[0]
        assert estimate_nn_distance(data) == 0.0


class TestEstimateInitialRadius:
    """The one radius anchor ``DBLSH`` and ``ShardedDBLSH`` both use."""

    def test_two_c_steps_below_the_nn_distance(self):
        data = np.stack([np.arange(50, dtype=float), np.zeros(50)], axis=1)
        assert estimate_initial_radius(data, 2.0, 7.0) == pytest.approx(0.25)

    def test_duplicates_keep_the_default(self):
        assert estimate_initial_radius(np.ones((20, 3)), 1.5, 0.7) == 0.7
