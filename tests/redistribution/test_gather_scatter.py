"""Unit tests for GATHER/SCATTER across all execution strategies."""

import numpy as np
import pytest

from repro.core import Falls, FallsSet, PeriodicFallsSet
from repro.core.segments import segments_from_pairs
from repro.redistribution.gather_scatter import (
    copy_segments,
    gather,
    gather_segments,
    scatter,
    scatter_segments,
)

STRATEGIES = ["auto", "strided", "fancy", "slices"]


def reference_gather(src, segs):
    starts, lengths = segs
    out = []
    for a, ln in zip(starts.tolist(), lengths.tolist()):
        out.extend(src[a : a + ln].tolist())
    return np.array(out, dtype=src.dtype)


class TestGatherSegments:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_uniform_segments(self, strategy):
        src = np.arange(64, dtype=np.uint8)
        segs = segments_from_pairs([(0, 3), (16, 19), (32, 35), (48, 51)])
        got = gather_segments(src, segs, strategy=strategy)
        np.testing.assert_array_equal(got, reference_gather(src, segs))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_irregular_segments(self, strategy):
        src = np.arange(100, dtype=np.uint8)
        segs = segments_from_pairs([(0, 0), (5, 9), (20, 27), (99, 99)])
        got = gather_segments(src, segs, strategy=strategy)
        np.testing.assert_array_equal(got, reference_gather(src, segs))

    def test_strided_overread_falls_back(self):
        # Last segment ends exactly at the buffer end but an as_strided
        # view padded to the stride would over-read; must still be exact.
        src = np.arange(10, dtype=np.uint8)
        segs = segments_from_pairs([(0, 1), (4, 5), (8, 9)])
        got = gather_segments(src, segs, strategy="strided")
        np.testing.assert_array_equal(got, np.array([0, 1, 4, 5, 8, 9]))

    def test_empty(self):
        src = np.arange(4, dtype=np.uint8)
        segs = segments_from_pairs([])
        assert gather_segments(src, segs).size == 0

    def test_provided_destination(self):
        src = np.arange(16, dtype=np.uint8)
        segs = segments_from_pairs([(2, 5)])
        dst = np.zeros(10, dtype=np.uint8)
        out = gather_segments(src, segs, dst=dst)
        assert out.base is dst or out is dst[:4]
        np.testing.assert_array_equal(dst[:4], [2, 3, 4, 5])

    def test_destination_too_small(self):
        src = np.arange(16, dtype=np.uint8)
        segs = segments_from_pairs([(0, 7)])
        with pytest.raises(ValueError):
            gather_segments(src, segs, dst=np.zeros(4, dtype=np.uint8))


class TestScatterSegments:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_roundtrip(self, strategy):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 256, 128, dtype=np.uint8)
        segs = segments_from_pairs([(3, 10), (20, 20), (50, 69), (100, 127)])
        packed = gather_segments(src, segs)
        dst = np.zeros(128, dtype=np.uint8)
        scatter_segments(dst, segs, packed, strategy=strategy)
        # Scattered positions match, untouched positions stay zero.
        starts, lengths = segs
        mask = np.zeros(128, dtype=bool)
        for a, ln in zip(starts.tolist(), lengths.tolist()):
            mask[a : a + ln] = True
        np.testing.assert_array_equal(dst[mask], src[mask])
        assert not dst[~mask].any()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_uniform_scatter_writes_in_place(self, strategy):
        dst = np.zeros(32, dtype=np.uint8)
        segs = segments_from_pairs([(0, 1), (8, 9), (16, 17)])
        scatter_segments(dst, segs, np.array([1, 2, 3, 4, 5, 6], dtype=np.uint8),
                         strategy=strategy)
        np.testing.assert_array_equal(np.flatnonzero(dst), [0, 1, 8, 9, 16, 17])
        np.testing.assert_array_equal(dst[[0, 1, 8, 9, 16, 17]], [1, 2, 3, 4, 5, 6])

    def test_source_too_small(self):
        dst = np.zeros(16, dtype=np.uint8)
        segs = segments_from_pairs([(0, 7)])
        with pytest.raises(ValueError):
            scatter_segments(dst, segs, np.zeros(4, dtype=np.uint8))

    def test_empty_noop(self):
        dst = np.zeros(8, dtype=np.uint8)
        scatter_segments(dst, segments_from_pairs([]), np.empty(0, dtype=np.uint8))
        assert not dst.any()


def _falls(first, seg_len, stride, n):
    return segments_from_pairs(
        [(first + i * stride, first + i * stride + seg_len - 1) for i in range(n)]
    )


def _irregular(rng, space, n):
    """``n`` sorted disjoint segments of mixed lengths inside ``space``."""
    points = np.sort(rng.choice(space, size=2 * n, replace=False))
    return segments_from_pairs(
        [(int(points[2 * i]), int(points[2 * i + 1])) for i in range(n)]
    )


def _cut(segs, total):
    starts, lengths = segs
    keep = np.clip(total - (np.cumsum(lengths) - lengths), 0, lengths)
    return starts[keep > 0], keep[keep > 0]


class TestCopySegments:
    """One pass, same bytes as gather-then-scatter."""

    SIZE = 4096

    def _check(self, dst_segs, src_segs):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 256, self.SIZE, dtype=np.uint8)
        want = np.full(self.SIZE, 9, dtype=np.uint8)
        scatter_segments(want, dst_segs, gather_segments(src, src_segs))
        got = np.full(self.SIZE, 9, dtype=np.uint8)
        copy_segments(got, dst_segs, src, src_segs)
        # Equal everywhere: copied bytes match, the rest still reads 9.
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "src,dst",
        [
            # (first, seg_len, stride, n) on each side
            ((0, 16, 64, 32), (100, 512, 512, 1)),  # strided -> contiguous
            ((7, 512, 512, 1), (3, 16, 100, 32)),  # contiguous -> strided
            ((0, 4, 10, 24), (5, 12, 40, 8)),  # src length divides dst's
            ((1, 12, 50, 8), (0, 4, 9, 24)),  # dst length divides src's
            ((0, 8, 16, 10), (2, 8, 24, 10)),  # equal lengths
            ((0, 4, 9, 3), (20, 3, 7, 4)),  # 3 x 4 B onto 4 x 3 B
            ((0, 3, 5, 400), (1, 4, 6, 300)),  # non-dividing, many short
        ],
    )
    def test_strided_to_strided(self, src, dst):
        self._check(_falls(*dst), _falls(*src))

    # few long pieces -> slices, many short ones -> index arrays
    @pytest.mark.parametrize("pieces,seg_len", [(5, 256), (200, 8)])
    @pytest.mark.parametrize("irregular_side", ["src", "dst"])
    def test_strided_and_irregular(self, pieces, seg_len, irregular_side):
        irregular = _irregular(np.random.default_rng(pieces), self.SIZE, pieces)
        n = int(irregular[1].sum()) // seg_len
        sides = [_cut(irregular, n * seg_len), _falls(3, seg_len, seg_len + 3, n)]
        if irregular_side == "dst":
            sides.reverse()
        self._check(sides[1], sides[0])

    def test_irregular_to_irregular(self):
        rng = np.random.default_rng(2)
        a, b = _irregular(rng, self.SIZE, 40), _irregular(rng, self.SIZE, 7)
        total = min(int(a[1].sum()), int(b[1].sum()))
        self._check(_cut(a, total), _cut(b, total))
        self._check(_cut(b, total), _cut(a, total))

    def test_zero_length_segments_are_skipped(self):
        src_segs = (np.array([4, 10, 20]), np.array([0, 6, 2]))
        dst_segs = (np.array([0, 50, 60]), np.array([3, 0, 5]))
        self._check(dst_segs, src_segs)

    def test_one_segment(self):
        self._check(segments_from_pairs([(40, 99)]), segments_from_pairs([(7, 66)]))

    def test_zero_bytes(self):
        dst = np.full(8, 9, dtype=np.uint8)
        empty = segments_from_pairs([])
        copy_segments(dst, empty, np.arange(8, dtype=np.uint8), empty)
        assert (dst == 9).all()

    def test_unequal_totals_raise(self):
        buf = np.zeros(64, dtype=np.uint8)
        with pytest.raises(ValueError, match="bytes"):
            copy_segments(buf, _falls(0, 4, 8, 3), buf.copy(), _falls(0, 4, 8, 4))

    @pytest.mark.parametrize(
        "bad",
        [
            segments_from_pairs([(60, 67)]),  # one run past the end
            _falls(0, 4, 21, 4),  # a flat FALLS whose last row leaves
            (np.array([-2, 10]), np.array([4, 4])),  # starts before 0
        ],
    )
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_out_of_range_segments_raise(self, bad, side):
        total = int(bad[1].sum())
        ok = segments_from_pairs([(0, total - 1)])
        src, dst = np.zeros(64, dtype=np.uint8), np.zeros(64, dtype=np.uint8)
        src_segs, dst_segs = (bad, ok) if side == "src" else (ok, bad)
        with pytest.raises(ValueError, match="leave"):
            copy_segments(dst, dst_segs, src, src_segs)
        assert not dst.any()


class TestPaperStyleGatherScatter:
    """§8.1: gather between limits lo/hi from a view buffer via a FALLS set."""

    def test_figure5_gather(self):
        # PROJ^{V∩S}_V = (0,0,4,2): bytes 0 and 4 of the view interval.
        proj = PeriodicFallsSet(FallsSet([Falls(0, 0, 4, 2)]), 0, 8)
        view_buf = np.array([10, 11, 12, 13, 14, 15, 16, 17], dtype=np.uint8)
        out = np.empty(2, dtype=np.uint8)
        gather(out, view_buf, 0, 7, proj)
        np.testing.assert_array_equal(out, [10, 14])

    def test_figure5_scatter(self):
        proj = PeriodicFallsSet(FallsSet([Falls(0, 0, 4, 2)]), 0, 8)
        subfile = np.zeros(8, dtype=np.uint8)
        scatter(subfile, np.array([10, 14], dtype=np.uint8), 0, 7, proj)
        np.testing.assert_array_equal(subfile, [10, 0, 0, 0, 14, 0, 0, 0])

    def test_window_offsets(self):
        # Gather a window that does not start at 0: coordinates are
        # relative to lo.
        proj = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        buf = np.arange(100, 112, dtype=np.uint8)  # holds offsets 100..111
        out = np.empty(6, dtype=np.uint8)
        gather(out, buf, 100, 111, proj)
        np.testing.assert_array_equal(out, [100, 101, 104, 105, 108, 109])
