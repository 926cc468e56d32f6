"""Property tests for data movement: gather/scatter, redistribution,
and the Clusterfile write/read path.

The central invariant: however two partitions carve up a file, moving
data between them is a *permutation* — every byte lands exactly where
the destination partition says it belongs, nothing is lost, nothing is
fabricated.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import collect, distribute, execute_plan, build_plan
from repro.core.segments import segments_from_pairs
from repro.redistribution.gather_scatter import (
    copy_segments,
    gather_segments,
    scatter_segments,
)
from repro.redistribution.naive import redistribute_bytewise_vectorized

from .strategies import any_partition


@st.composite
def segment_lists(draw, space=200, max_segments=12):
    """Sorted disjoint segments within [0, space)."""
    count = draw(st.integers(0, max_segments))
    points = draw(
        st.lists(
            st.integers(0, space - 1),
            min_size=2 * count,
            max_size=2 * count,
            unique=True,
        )
    )
    points.sort()
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(count)]
    return segments_from_pairs(pairs)


class TestGatherScatterProperties:
    @given(segment_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_gather_scatter_roundtrip(self, segs, rng):
        src = np.arange(200, dtype=np.uint8)
        packed = gather_segments(src, segs)
        assert packed.size == int(segs[1].sum()) if segs[1].size else True
        dst = np.zeros(200, dtype=np.uint8)
        scatter_segments(dst, segs, packed)
        mask = np.zeros(200, dtype=bool)
        for a, ln in zip(segs[0].tolist(), segs[1].tolist()):
            mask[a : a + ln] = True
        np.testing.assert_array_equal(dst[mask], src[mask])
        assert not dst[~mask].any()

    @given(segment_lists())
    @settings(max_examples=100)
    def test_strategies_agree(self, segs):
        src = np.random.default_rng(0).integers(0, 256, 200, dtype=np.uint8)
        outs = [
            gather_segments(src, segs, strategy=s)
            for s in ("strided", "fancy", "slices")
        ]
        for o in outs[1:]:
            np.testing.assert_array_equal(outs[0], o)


def _first_bytes(segs, total):
    """A segment list cut after its first ``total`` bytes."""
    starts, lengths = segs
    before = np.cumsum(lengths) - lengths
    keep = np.clip(total - before, 0, lengths)
    return starts[keep > 0], keep[keep > 0]


class TestCopySegmentsProperties:
    """The one-pass kernel against the two-pass definition."""

    # 12 segments stay on the slice path; 60 short ones reach the
    # index-array path.
    @given(
        st.sampled_from([(200, 12), (600, 60)]).flatmap(
            lambda c: st.tuples(
                st.just(c[0]), segment_lists(*c), segment_lists(*c)
            )
        )
    )
    @settings(max_examples=150)
    def test_equals_gather_then_scatter(self, case):
        space, a, b = case
        total = min(int(a[1].sum()), int(b[1].sum()))
        src_segs, dst_segs = _first_bytes(a, total), _first_bytes(b, total)
        src = np.random.default_rng(0).integers(0, 256, space, dtype=np.uint8)
        want = np.full(space, 7, dtype=np.uint8)
        scatter_segments(want, dst_segs, gather_segments(src, src_segs))
        got = np.full(space, 7, dtype=np.uint8)
        copy_segments(got, dst_segs, src, src_segs)
        np.testing.assert_array_equal(got, want)


class TestDistributeCollectProperties:
    @given(any_partition(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_any_partition(self, p, periods):
        length = p.displacement + periods * p.size + (periods % 2) * 3
        data = np.random.default_rng(1).integers(0, 256, length, dtype=np.uint8)
        buffers = distribute(data, p)
        assert sum(b.size for b in buffers) == length - p.displacement
        back = collect(buffers, p, length)
        np.testing.assert_array_equal(back[p.displacement :], data[p.displacement :])


class TestRedistributionProperties:
    @given(any_partition(), any_partition(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_redistribution_is_a_permutation(self, src_p, dst_p, periods):
        import math

        start = max(src_p.displacement, dst_p.displacement)
        length = start + periods * math.lcm(src_p.size, dst_p.size)
        data = np.random.default_rng(2).integers(0, 256, length, dtype=np.uint8)
        src = distribute(data, src_p)
        out = execute_plan(build_plan(src_p, dst_p), src, length)
        back = collect(out, dst_p, length)
        # Bytes beyond both displacements must be moved exactly.
        np.testing.assert_array_equal(back[start:], data[start:])

    @given(any_partition(), any_partition())
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_baseline(self, src_p, dst_p):
        import math

        length = max(src_p.displacement, dst_p.displacement) + math.lcm(
            src_p.size, dst_p.size
        )
        data = np.random.default_rng(3).integers(0, 256, length, dtype=np.uint8)
        src = distribute(data, src_p)
        fast = execute_plan(build_plan(src_p, dst_p), src, length)
        slow = redistribute_bytewise_vectorized(src_p, dst_p, src, length)
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)


class TestClusterfileProperties:
    @given(any_partition(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_write_read_roundtrip(self, phys, data_strategy):
        """Any physical partition; a matching-size logical view; random
        write intervals round-trip byte-exactly."""
        from repro.clusterfile import Clusterfile
        from repro.simulation import ClusterConfig

        fs = Clusterfile(
            ClusterConfig(compute_nodes=1, io_nodes=min(4, phys.num_elements))
        )
        fs.create("f", phys)
        # A whole-file view (single element spanning the pattern).
        from repro import Falls, Partition

        whole = Partition(
            [Falls(0, phys.size - 1, phys.size, 1)],
            displacement=phys.displacement,
        )
        fs.set_view("f", 0, whole, element=0)
        length = 3 * phys.size
        lo = data_strategy.draw(st.integers(0, length - 1))
        hi = data_strategy.draw(st.integers(lo, length - 1))
        payload = np.random.default_rng(4).integers(
            0, 256, hi - lo + 1, dtype=np.uint8
        )
        fs.write("f", [(0, lo, payload)])
        got = fs.read("f", [(0, lo, hi - lo + 1)])[0]
        np.testing.assert_array_equal(got, payload)
