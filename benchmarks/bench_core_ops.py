"""Micro-benchmarks of the core operations behind the paper's phases.

These isolate the costs that the table columns aggregate: flat and
nested intersection (t_i), scalar and vectorised mapping (t_m),
gather/scatter strategies (t_g, t_sc).
"""

import numpy as np
import pytest

from repro.core import (
    ElementMapper,
    Falls,
    intersect_elements,
    intersect_falls,
    map_offset,
    project,
    unmap_offset,
)
from repro.core.periodic import PeriodicFallsSet
from repro.core.segments import segments_from_pairs
from repro.distributions import matrix_partition
from repro.redistribution.gather_scatter import (
    copy_segments,
    gather_segments,
    scatter_segments,
)

N = 1024


class TestIntersection:
    def test_flat_intersect(self, benchmark):
        f1 = Falls(0, 255, 1024, 256)
        f2 = Falls(0, 63, 256, 1024)
        benchmark.group = "intersect"
        out = benchmark(lambda: intersect_falls(f1, f2))
        assert out

    def test_nested_element_intersection(self, benchmark):
        rows = matrix_partition("r", N, N, 4)
        cols = matrix_partition("c", N, N, 4)
        benchmark.group = "intersect"
        inter = benchmark(lambda: intersect_elements(rows, 0, cols, 0))
        assert not inter.is_empty

    def test_projection(self, benchmark):
        rows = matrix_partition("r", N, N, 4)
        cols = matrix_partition("c", N, N, 4)
        inter = intersect_elements(rows, 0, cols, 0)
        mapper = ElementMapper(cols, 0)
        benchmark.group = "intersect"
        proj = benchmark(lambda: project(inter, cols, 0, mapper))
        assert proj.size_per_period == inter.size_per_period


class TestMapping:
    def test_scalar_map(self, benchmark):
        cols = matrix_partition("c", N, N, 4)
        benchmark.group = "mapping"
        benchmark(lambda: map_offset(cols, 1, 123_456, mode="next"))

    def test_scalar_unmap(self, benchmark):
        cols = matrix_partition("c", N, N, 4)
        benchmark.group = "mapping"
        benchmark(lambda: unmap_offset(cols, 1, 54_321))

    def test_vectorised_map_100k(self, benchmark):
        cols = matrix_partition("c", N, N, 4)
        mapper = ElementMapper(cols, 1)
        ranks = np.arange(100_000, dtype=np.int64)
        offsets = mapper.unmap_many(ranks)
        benchmark.group = "mapping"
        out = benchmark(lambda: mapper.map_many(offsets))
        np.testing.assert_array_equal(out, ranks)

    def test_mapper_construction(self, benchmark):
        cols = matrix_partition("c", N, N, 4)
        benchmark.group = "mapping"
        benchmark(lambda: ElementMapper(cols, 2))


class TestGatherScatter:
    def _segments(self, runs, run_len, stride):
        return segments_from_pairs(
            [(i * stride, i * stride + run_len - 1) for i in range(runs)]
        )

    @pytest.mark.parametrize("strategy", ["strided", "fancy", "slices"])
    def test_gather_uniform_1k_runs(self, benchmark, strategy):
        segs = self._segments(1024, 256, 1024)
        src = np.zeros(1024 * 1024 + 256, dtype=np.uint8)
        benchmark.group = "gather-uniform"
        out = benchmark(lambda: gather_segments(src, segs, strategy=strategy))
        assert out.size == 1024 * 256

    @pytest.mark.parametrize("strategy", ["strided", "fancy", "slices"])
    def test_scatter_uniform_1k_runs(self, benchmark, strategy):
        segs = self._segments(1024, 256, 1024)
        dst = np.zeros(1024 * 1024 + 256, dtype=np.uint8)
        src = np.arange(1024 * 256, dtype=np.uint8)
        benchmark.group = "scatter-uniform"
        benchmark(lambda: scatter_segments(dst, segs, src, strategy=strategy))

    def test_gather_contiguous_baseline(self, benchmark):
        """The copy cost floor: one memcpy of the same volume."""
        src = np.zeros(1024 * 256, dtype=np.uint8)
        benchmark.group = "gather-uniform"
        benchmark(lambda: src.copy())

    # copy-uniform: 1024 x 1 KiB at stride 4 KiB (one transfer of a
    # 4096 x 4096 r -> c redistribution) moved in one pass, beside the
    # same bytes through a packed intermediate and the memcpy floor.
    _COPY_SRC = (1024, 1024, 4096)
    _COPY_DST = {
        "to-contiguous": (1, 1024 * 1024, 1024 * 1024),
        "to-strided": (512, 2048, 4096),
    }

    def _copy_case(self, dst_kind):
        src = np.zeros(4 * 1024 * 1024, dtype=np.uint8)
        dst = np.zeros(4 * 1024 * 1024, dtype=np.uint8)
        return (
            dst, self._segments(*self._COPY_DST[dst_kind]),
            src, self._segments(*self._COPY_SRC),
        )

    @pytest.mark.parametrize("dst_kind", sorted(_COPY_DST))
    def test_copy_segments_1k_runs(self, benchmark, dst_kind):
        args = self._copy_case(dst_kind)
        benchmark.group = "copy-uniform"
        benchmark(lambda: copy_segments(*args))

    @pytest.mark.parametrize("dst_kind", sorted(_COPY_DST))
    def test_gather_then_scatter_1k_runs(self, benchmark, dst_kind):
        dst, dst_segs, src, src_segs = self._copy_case(dst_kind)
        benchmark.group = "copy-uniform"
        benchmark(
            lambda: scatter_segments(dst, dst_segs, gather_segments(src, src_segs))
        )

    def test_copy_contiguous_baseline(self, benchmark):
        src = np.zeros(1024 * 1024, dtype=np.uint8)
        benchmark.group = "copy-uniform"
        benchmark(lambda: src.copy())


class TestPeriodicCounting:
    """Closed-form ``count_in`` must not depend on the file length.

    The rows below grow the window from 16 KiB to a full 2048x2048
    matrix (4 MiB) over a fixed small-period striped intersection; with
    the closed form (full periods x size-per-period + prefix-summed edge
    periods) every row should take the same time, where the old tiling
    implementation scaled linearly with the window.
    """

    #: Stripe units 64 vs 48 over 4 elements each -> the intersection
    #: repeats every lcm(4*64, 4*48) = 768 bytes.
    def _intersection(self):
        from repro.core import Partition

        def striped(unit, p=4):
            return Partition(
                [
                    Falls(k * unit, (k + 1) * unit - 1, p * unit, 1)
                    for k in range(p)
                ]
            )

        return intersect_elements(striped(64), 0, striped(48), 1)

    @pytest.mark.parametrize("length", [2**14, 2**18, 2**22])
    def test_count_in_growing_file(self, benchmark, length):
        pfs = self._intersection()
        pfs.count_in(0, length - 1)  # warm the period prefix cache
        benchmark.group = "periodic-count"
        out = benchmark(lambda: pfs.count_in(0, length - 1))
        assert out > 0

    def test_count_in_uncached_instance(self, benchmark):
        """Including the one-off prefix construction (first query)."""
        length = 2**22
        benchmark.group = "periodic-count"

        def fresh():
            pfs = self._intersection()
            return pfs.count_in(0, length - 1)

        assert benchmark(fresh) > 0

    def test_segments_in_window_memo(self, benchmark):
        """Repeated same-extremity queries hit the per-instance memo."""
        pfs = self._intersection()
        length = 2**18
        pfs.segments_in(0, length - 1)
        benchmark.group = "periodic-count"
        starts, _ = benchmark(lambda: pfs.segments_in(0, length - 1))
        assert starts.size > 0
