"""Unit tests for run compression and tree shaping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.falls import Falls, FallsSet
from repro.core.indexset import falls_indices, falls_set_indices
from repro.core.normalize import (
    coalesced_falls_set,
    compress_segments,
    equalize_set_heights,
    falls_set_from_segments,
    pad_to_height,
    trivial_inner,
)
from repro.core.segments import (
    leaf_segment_arrays,
    leaf_segment_arrays_set,
    merge_segment_arrays,
    segments_from_pairs,
)

from ..properties.strategies import nested_falls


class TestCompressSegments:
    def test_regular_run_single_falls(self):
        segs = segments_from_pairs([(0, 1), (4, 5), (8, 9), (12, 13)])
        out = compress_segments(segs)
        assert out == [Falls(0, 1, 4, 4)]

    def test_stride_change_splits(self):
        segs = segments_from_pairs([(0, 1), (4, 5), (10, 11), (16, 17)])
        out = compress_segments(segs)
        # Greedy: run (0,4) then run at stride 6.
        assert out[0] == Falls(0, 1, 4, 2)
        assert out[1] == Falls(10, 11, 6, 2)

    def test_length_change_splits(self):
        segs = segments_from_pairs([(0, 1), (4, 6), (8, 9)])
        out = compress_segments(segs)
        assert [f.block_length for f in out] == [2, 3, 2]

    def test_single_segment(self):
        out = compress_segments(segments_from_pairs([(5, 9)]))
        assert out == [Falls(5, 9, 5, 1)]

    def test_empty(self):
        assert compress_segments(segments_from_pairs([])) == []

    def test_bytes_preserved_randomised(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            points = np.sort(
                rng.choice(300, size=2 * int(rng.integers(1, 15)), replace=False)
            )
            pairs = [
                (int(points[2 * i]), int(points[2 * i + 1]))
                for i in range(points.size // 2)
            ]
            # Make strictly disjoint (drop touching pairs).
            pairs = [
                p
                for i, p in enumerate(pairs)
                if i == 0 or p[0] > pairs[i - 1][1] + 0
            ]
            segs = segments_from_pairs(pairs)
            out = compress_segments(segs)
            want = set()
            for a, b in pairs:
                want.update(range(a, b + 1))
            got = set(falls_set_indices(out).tolist())
            assert got == want


class TestFallsSetBuilders:
    def test_falls_set_from_segments(self):
        s = falls_set_from_segments(segments_from_pairs([(0, 0), (2, 2), (4, 4)]))
        assert isinstance(s, FallsSet)
        assert s.size() == 3

    def test_row_lattice_nests_instead_of_one_falls_per_row(self):
        # 3 rows of 4 two-byte segments, rows 40 bytes apart: the flat
        # greedy compressor needs one FALLS per row.
        segs = _lattice(5, ((3, 40), (4, 8)), 2)
        assert len(compress_segments(segs)) == 3
        assert falls_set_from_segments(segs).falls == (
            Falls(5, 30, 40, 3, (Falls(0, 1, 8, 4),)),
        )

    def test_period_of_several_segments(self):
        # Lengths alternate, so no arithmetic run is longer than one
        # segment; the repeating pair is the inner structure.
        segs = segments_from_pairs([(0, 1), (4, 6), (10, 11), (14, 16)])
        assert falls_set_from_segments(segs).falls == (
            Falls(0, 6, 10, 2, (Falls(0, 1, 2, 1), Falls(4, 6, 3, 1))),
        )

    def test_partial_last_block_falls_back_to_flat_runs(self):
        segs = segments_from_pairs([(0, 1), (4, 5), (10, 11), (14, 15), (20, 21)])
        out = falls_set_from_segments(segs)
        assert list(out.falls) == compress_segments(segs)

    def test_coalesced(self):
        s = coalesced_falls_set(segments_from_pairs([(0, 3), (4, 7)]))
        assert len(s) == 1
        assert s[0].is_contiguous


def _lattice(origin, dims, length):
    """Segments of an n-D lattice: ``dims`` is ``(count, stride)`` per
    level, outermost first; every leaf segment is ``length`` bytes."""
    starts = np.array([origin], dtype=np.int64)
    for count, stride in dims:
        steps = stride * np.arange(count, dtype=np.int64)
        starts = (starts[:, None] + steps[None, :]).reshape(-1)
    return starts, np.full(starts.size, length, dtype=np.int64)


@st.composite
def lattices(draw, max_dims=3):
    """A 1-, 2- or 3-D lattice whose blocks never overlap: each level's
    stride is at least the extent of one block of the level below."""
    length = draw(st.integers(1, 4))
    extent = length
    dims = []
    for _ in range(draw(st.integers(1, max_dims))):
        count = draw(st.integers(1, 5))
        stride = extent + draw(st.integers(0, 6))
        dims.append((count, stride))
        extent = (count - 1) * stride + extent
    return _lattice(draw(st.integers(0, 9)), dims[::-1], length)


@st.composite
def sorted_disjoint(draw):
    gaps = draw(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    lengths = draw(
        st.lists(st.integers(1, 5), min_size=len(gaps), max_size=len(gaps))
    )
    starts, cursor = [], 0
    for gap, length in zip(gaps, lengths):
        cursor += gap
        starts.append(cursor)
        cursor += length
    return np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64)


@st.composite
def lattices_with_tails(draw):
    """A lattice with trailing segments dropped (a partial last block) or
    an irregular segment appended past its end."""
    starts, lengths = draw(lattices())
    if draw(st.booleans()):
        keep = draw(st.integers(1, starts.size))
        return starts[:keep], lengths[:keep]
    start = int(starts[-1] + lengths[-1]) + draw(st.integers(0, 7))
    return (
        np.append(starts, start),
        np.append(lengths, draw(st.integers(1, 9))),
    )


class TestNestedCompressorRoundTrip:
    @given(st.one_of(sorted_disjoint(), lattices(), lattices_with_tails()))
    @settings(max_examples=300, deadline=None)
    def test_leaf_segments_give_back_the_merged_input(self, segs):
        out = falls_set_from_segments(segs)
        assert out.is_ordered()
        got = merge_segment_arrays(leaf_segment_arrays_set(out.falls))
        want = merge_segment_arrays(segs)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @given(lattices())
    @settings(max_examples=200, deadline=None)
    def test_lattice_of_one_falls_compresses_to_one_tree(self, segs):
        out = falls_set_from_segments(segs)
        assert len(out) == 1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_segments_of_a_nested_falls_compress_to_one_tree(self, data):
        f = data.draw(nested_falls())
        if f.n == 1:  # one block of several inner FALLS need not repeat
            gap = data.draw(st.integers(0, 4))
            f = Falls(f.l, f.r, f.block_length + gap, 2, f.inner)
        out = falls_set_from_segments(leaf_segment_arrays(f))
        assert len(out) == 1
        np.testing.assert_array_equal(
            falls_set_indices(out.falls), falls_indices(f)
        )


class TestTrivialInner:
    def test_height_one(self):
        t = trivial_inner(8, 1)
        assert t == Falls(0, 7, 8, 1)

    def test_height_three(self):
        t = trivial_inner(8, 3)
        assert t.height() == 3
        assert t.size() == 8
        np.testing.assert_array_equal(falls_indices(t), np.arange(8))

    def test_invalid_height(self):
        with pytest.raises(ValueError):
            trivial_inner(8, 0)


class TestPadToHeight:
    def test_noop_when_tall_enough(self):
        f = Falls(0, 3, 8, 2, (Falls(0, 0, 2, 2),))
        assert pad_to_height(f, 2) == f

    def test_leaf_padding(self):
        f = Falls(3, 5, 6, 4)
        padded = pad_to_height(f, 3)
        assert padded.height() == 3
        assert padded.has_uniform_depth()
        np.testing.assert_array_equal(falls_indices(padded), falls_indices(f))

    def test_mixed_depth_tree_uniformised(self):
        f = Falls(
            0,
            15,
            32,
            2,
            (Falls(0, 3, 8, 1, (Falls(0, 0, 2, 2),)), Falls(8, 11, 8, 1)),
        )
        assert not f.has_uniform_depth()
        padded = pad_to_height(f, 3)
        assert padded.has_uniform_depth()
        np.testing.assert_array_equal(falls_indices(padded), falls_indices(f))

    def test_cannot_shrink(self):
        f = Falls(0, 3, 8, 2, (Falls(0, 0, 2, 2),))
        with pytest.raises(ValueError):
            pad_to_height(f, 1)


class TestEqualizeSetHeights:
    def test_mixed(self):
        a = (Falls(0, 3, 8, 2, (Falls(0, 0, 2, 2),)),)
        b = (Falls(0, 5, 8, 2),)
        pa, pb, h = equalize_set_heights(a, b)
        assert h == 2
        assert all(f.height() == 2 for f in pa + pb)
        np.testing.assert_array_equal(
            falls_set_indices(pb), falls_set_indices(b)
        )

    def test_empty_sets(self):
        pa, pb, h = equalize_set_heights((), ())
        assert pa == () and pb == () and h == 0
