"""Tests for the generation-stamped seen masks of the query engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import scratch
from repro.utils.scratch import GenerationMask, MaskStack


def _ids(*values):
    return np.array(values, dtype=np.int64)


class TestGenerationMask:
    def test_fresh_reports_unseen_ids_once(self):
        mask = GenerationMask(10).begin()
        assert mask.fresh(_ids(3, 1, 7)).tolist() == [3, 1, 7]
        assert mask.fresh(_ids(7, 2, 3, 9)).tolist() == [2, 9]
        assert mask.fresh(_ids(1, 2)).tolist() == []

    def test_begin_forgets_the_previous_query(self):
        mask = GenerationMask(5).begin()
        mask.fresh(_ids(0, 1, 2, 3, 4))
        first = mask.generation
        assert mask.begin().generation == first + 1
        assert mask.fresh(_ids(4, 0)).tolist() == [4, 0]

    def test_mark_hides_ids_without_reporting_them(self):
        mask = GenerationMask(6).begin()
        mask.mark(_ids(1, 4))
        assert mask.fresh(_ids(0, 1, 2, 3, 4, 5)).tolist() == [0, 2, 3, 5]

    def test_negative_size_refused(self):
        with pytest.raises(ValueError, match="size"):
            GenerationMask(-1)

    def test_generation_limit_rezeroes_the_stamps(self, monkeypatch):
        monkeypatch.setattr(scratch, "_GEN_LIMIT", 4)
        mask = GenerationMask(4)
        for _ in range(3):
            mask.begin().fresh(_ids(0, 1))
        assert mask.generation == 3
        # The next begin would reach the limit: the stamps are zeroed and
        # counting restarts, so nothing stamped before counts as seen.
        mask.begin()
        assert mask.generation == 1
        assert mask.fresh(_ids(0, 1, 2)).tolist() == [0, 1, 2]
        assert mask.fresh(_ids(1)).tolist() == []


class TestMaskStack:
    def test_masks_are_rows_of_the_stamp_matrix(self):
        stack = MaskStack()
        masks = stack.grow(3, 8)
        assert stack.stamps.shape == (3, 8)
        masks[1].begin().mark(_ids(2, 5))
        assert stack.stamps[1].tolist() == [0, 0, 1, 0, 0, 1, 0, 0]
        assert not stack.stamps[[0, 2]].any()

    def test_rows_stay_independent(self):
        stack = MaskStack()
        a, b = stack.grow(2, 6)
        a.begin()
        b.begin()
        b.begin()
        assert a.fresh(_ids(0, 1, 2)).tolist() == [0, 1, 2]
        assert b.fresh(_ids(1, 2, 3)).tolist() == [1, 2, 3]
        assert a.fresh(_ids(3, 2)).tolist() == [3]
        assert b.fresh(_ids(0, 1)).tolist() == [0]
        # A reset of one row at the generation limit leaves the other.
        a._gen = scratch._GEN_LIMIT - 1
        a.begin()
        assert b.fresh(_ids(0, 1, 2, 3, 4)).tolist() == [4]
        assert a.fresh(_ids(0)).tolist() == [0]

    def test_grow_keeps_stamps_and_generations(self):
        stack = MaskStack()
        (a,) = stack.grow(1, 4)
        a.begin().fresh(_ids(1, 3))
        gen = a.generation
        a2, b = stack.grow(2, 9)
        assert a2 is a and a.generation == gen
        assert stack.stamps.shape == (2, 9)
        # The old stamps survived; new ids and the new row start unseen.
        assert a.fresh(_ids(0, 1, 3, 8)).tolist() == [0, 8]
        assert b.begin().fresh(_ids(1, 8)).tolist() == [1, 8]
        assert a._stamp.base is stack.stamps and b._stamp.base is stack.stamps

    def test_grow_never_shrinks(self):
        stack = MaskStack()
        stack.grow(4, 10)
        stamps = stack.stamps
        assert len(stack.grow(2, 5)) == 2
        assert stack.stamps is stamps  # no reallocation
        assert all(len(mask) == 10 for mask in stack.masks)
