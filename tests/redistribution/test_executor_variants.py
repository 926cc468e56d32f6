"""Tests for Fortran-order distributions."""

import numpy as np
import pytest

from repro.distributions import Block, Cyclic, Replicated, multidim_partition


class TestFortranOrder:
    def test_f_order_equals_reversed_c(self):
        shape = (6, 8)
        f = multidim_partition(
            shape, 1, (Block(), Replicated()), (2, 1), order="F"
        )
        c = multidim_partition(
            shape[::-1], 1, (Replicated(), Block()), (1, 2), order="C"
        )
        assert f.elements == c.elements

    def test_f_order_column_block_is_contiguous(self):
        # In Fortran order a *column* block of a matrix is contiguous.
        p = multidim_partition(
            (8, 8), 1, (Replicated(), Block()), (1, 4), order="F"
        )
        for e in p.elements:
            assert e.is_contiguous()

    def test_oracle(self):
        import itertools

        shape, grid = (4, 6), (2, 3)
        p = multidim_partition(
            shape, 2, (Cyclic(), Block()), grid, order="F"
        )
        # Oracle: element (i,j) owns rows i mod 2, column block j - in
        # F-order byte layout.
        arr = np.arange(4 * 6 * 2, dtype=np.int64).reshape(4, 6, 2)
        fbytes = np.ascontiguousarray(arr.transpose(1, 0, 2)).reshape(-1)
        from repro.core.indexset import falls_set_indices

        for rank, (i, j) in enumerate(itertools.product(range(2), range(3))):
            rows = [r for r in range(4) if r % 2 == i]
            cols = [c for c in range(6) if c // 2 == j]
            want = sorted(
                int(v)
                for r in rows
                for c in cols
                for v in arr[r, c]
            )
            got_positions = falls_set_indices(p.elements[rank].falls)
            got = sorted(int(fbytes[x]) for x in got_positions)
            assert got == want

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            multidim_partition((4, 4), 1, (Block(), Block()), (2, 2), order="X")
