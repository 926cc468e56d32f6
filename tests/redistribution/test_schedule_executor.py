"""Tests for redistribution plans and the memory-memory executor."""

import numpy as np
import pytest

from repro.clusterfile.engine import run_shuffle
from repro.core import Falls, Partition
from repro.distributions import matrix_partition, round_robin
from repro.redistribution import (
    build_plan,
    collect,
    distribute,
    execute_plan,
    redistribute,
    redistribute_bytewise,
    redistribute_bytewise_vectorized,
)

LAYOUTS = ["r", "c", "b"]


@pytest.fixture(scope="module")
def matrix_data():
    rng = np.random.default_rng(11)
    return rng.integers(0, 256, 32 * 32, dtype=np.uint8)


class TestDistributeCollect:
    def test_roundtrip(self, matrix_data):
        for layout in LAYOUTS:
            p = matrix_partition(layout, 32, 32, 4)
            buffers = distribute(matrix_data, p)
            assert sum(b.size for b in buffers) == matrix_data.size
            back = collect(buffers, p, matrix_data.size)
            np.testing.assert_array_equal(back, matrix_data)

    def test_displacement_bytes_dropped_and_filled(self):
        p = Partition([Falls(0, 1, 4, 1), Falls(2, 3, 4, 1)], displacement=3)
        data = np.arange(11, dtype=np.uint8)
        buffers = distribute(data, p)
        np.testing.assert_array_equal(buffers[0], [3, 4, 7, 8])
        np.testing.assert_array_equal(buffers[1], [5, 6, 9, 10])
        back = collect(buffers, p, 11, fill=255)
        np.testing.assert_array_equal(back[:3], [255, 255, 255])
        np.testing.assert_array_equal(back[3:], data[3:])

    def test_partial_period(self):
        p = round_robin(3, 2)  # period 6
        data = np.arange(8, dtype=np.uint8)
        buffers = distribute(data, p)
        np.testing.assert_array_equal(buffers[0], [0, 1, 6, 7])
        np.testing.assert_array_equal(buffers[1], [2, 3])
        back = collect(buffers, p, 8)
        np.testing.assert_array_equal(back, data)

    def test_non_uint8_array_rejected_not_cast(self):
        # Casting would wrap the values mod 256 and turn 16 bytes into 4.
        wide = np.array([256, 257, 513, 1000], dtype=np.int32)
        with pytest.raises(ValueError, match="must be uint8"):
            distribute(wide, round_robin(2, 2))
        for buffer_like in (wide.tobytes(), bytearray(wide), memoryview(wide)):
            pieces = distribute(buffer_like, round_robin(2, 2))
            assert sum(p.size for p in pieces) == 16
            back = collect(pieces, round_robin(2, 2), 16)
            assert back.tobytes() == wide.tobytes()

    def test_wrong_buffer_sizes_rejected(self):
        p = round_robin(2, 2)
        with pytest.raises(ValueError):
            collect([np.zeros(3, np.uint8)], p, 8)
        with pytest.raises(ValueError):
            collect([np.zeros(3, np.uint8), np.zeros(4, np.uint8)], p, 8)


class TestPlans:
    def test_matching_partitions_identity(self):
        p1 = matrix_partition("r", 16, 16, 4)
        p2 = matrix_partition("r", 16, 16, 4)
        plan = build_plan(p1, p2)
        assert plan.is_identity
        assert plan.message_count == 4
        # Every transfer is a single contiguous fragment.
        for t in plan.transfers:
            assert t.src_fragments_per_period == 1
            assert t.dst_fragments_per_period == 1

    def test_mismatched_partitions_not_identity(self):
        plan = build_plan(
            matrix_partition("c", 16, 16, 4), matrix_partition("r", 16, 16, 4)
        )
        assert not plan.is_identity
        assert plan.message_count == 16  # all-to-all

    def test_square_to_row_message_count(self):
        # A 2x2 block grid sends each block to the rows it spans: each of
        # the 4 block elements intersects exactly 2 row elements.
        plan = build_plan(
            matrix_partition("b", 16, 16, 4), matrix_partition("r", 16, 16, 4)
        )
        assert plan.message_count == 8
        for i in range(4):
            assert len(plan.transfers_from(i)) == 2

    def test_bytes_accounting(self, matrix_data):
        plan = build_plan(
            matrix_partition("c", 32, 32, 4), matrix_partition("r", 32, 32, 4)
        )
        assert plan.total_bytes(matrix_data.size) == matrix_data.size
        assert plan.total_bytes(100) == 100

    def test_fragment_statistics_track_mismatch(self):
        rr = build_plan(
            matrix_partition("r", 32, 32, 4), matrix_partition("r", 32, 32, 4)
        )
        cr = build_plan(
            matrix_partition("c", 32, 32, 4), matrix_partition("r", 32, 32, 4)
        )
        br = build_plan(
            matrix_partition("b", 32, 32, 4), matrix_partition("r", 32, 32, 4)
        )
        # The worse the match, the more fragments per byte (paper §8.2:
        # c-r repartitions into many small pieces, r-r into none).
        assert (
            rr.fragment_statistics()["mean_fragment_bytes"]
            > br.fragment_statistics()["mean_fragment_bytes"]
            > cr.fragment_statistics()["mean_fragment_bytes"]
        )


class TestExecution:
    @pytest.mark.parametrize("src_layout", LAYOUTS)
    @pytest.mark.parametrize("dst_layout", LAYOUTS)
    def test_all_layout_pairs_roundtrip(self, matrix_data, src_layout, dst_layout):
        ps = matrix_partition(src_layout, 32, 32, 4)
        pd = matrix_partition(dst_layout, 32, 32, 4)
        src = distribute(matrix_data, ps)
        dst = execute_plan(build_plan(ps, pd), src, matrix_data.size)
        back = collect(dst, pd, matrix_data.size)
        np.testing.assert_array_equal(back, matrix_data)

    def test_plan_reuse(self, matrix_data):
        ps = matrix_partition("c", 32, 32, 4)
        pd = matrix_partition("b", 32, 32, 4)
        plan = build_plan(ps, pd)
        for shift in range(3):
            data = np.roll(matrix_data, shift)
            dst = redistribute(ps, pd, distribute(data, ps), data.size, plan=plan)
            np.testing.assert_array_equal(collect(dst, pd, data.size), data)

    def test_plan_partition_mismatch_rejected(self, matrix_data):
        ps = matrix_partition("c", 32, 32, 4)
        pd = matrix_partition("b", 32, 32, 4)
        plan = build_plan(ps, pd)
        with pytest.raises(ValueError):
            redistribute(pd, ps, distribute(matrix_data, pd), matrix_data.size,
                         plan=plan)

    def test_different_pattern_sizes(self):
        # Stripe-unit change: 2-byte units to 3-byte units, lcm period 12.
        src_p = round_robin(2, 2)
        dst_p = round_robin(2, 3)
        data = np.arange(48, dtype=np.uint8)
        out = execute_plan(
            build_plan(src_p, dst_p), distribute(data, src_p), data.size
        )
        np.testing.assert_array_equal(collect(out, dst_p, data.size), data)

    def test_different_displacements(self):
        src_p = round_robin(2, 4, displacement=0)
        dst_p = round_robin(2, 4, displacement=6)
        data = np.arange(64, dtype=np.uint8)
        out = execute_plan(
            build_plan(src_p, dst_p), distribute(data, src_p), data.size
        )
        back = collect(out, dst_p, data.size)
        # Only bytes beyond the destination displacement are defined.
        np.testing.assert_array_equal(back[6:], data[6:])

    @pytest.mark.parametrize(
        "execute",
        [
            execute_plan,
            lambda *a: run_shuffle(*a).buffers,
        ],
        ids=["serial", "run_shuffle"],
    )
    def test_destination_bytes_without_a_source_read_zero(self, execute):
        # The source pattern starts later than the destination's: file
        # bytes 0..5 belong to destination elements but to no source
        # element, so no transfer writes them.
        src_p = round_robin(2, 4, displacement=6)
        dst_p = round_robin(2, 4, displacement=0)
        data = np.arange(1, 65, dtype=np.uint8)
        want = data.copy()
        want[:6] = 0
        plan = build_plan(src_p, dst_p)
        buffers = distribute(data, src_p)
        for _ in range(2):  # the second run rides the executor's memo
            # Leave recycled allocator blocks of the destination sizes
            # dirty, so an unzeroed destination would show.
            for e in range(dst_p.num_elements):
                np.full(dst_p.element_length(e, data.size), 0xFF, dtype=np.uint8)
            out = execute(plan, buffers, data.size)
            np.testing.assert_array_equal(collect(out, dst_p, data.size), want)

    def test_partial_trailing_period(self):
        src_p = round_robin(4, 4)  # period 16
        dst_p = round_robin(2, 8)  # period 16
        data = np.arange(41, dtype=np.uint8)  # 2.5625 periods
        out = execute_plan(
            build_plan(src_p, dst_p), distribute(data, src_p), data.size
        )
        np.testing.assert_array_equal(collect(out, dst_p, data.size), data)


class TestNaiveBaselines:
    def test_scalar_matches_executor(self):
        ps = matrix_partition("c", 8, 8, 2)
        pd = matrix_partition("b", 8, 8, 4)
        data = np.arange(64, dtype=np.uint8)
        src = distribute(data, ps)
        fast = execute_plan(build_plan(ps, pd), src, data.size)
        slow = redistribute_bytewise(ps, pd, src, data.size)
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)

    def test_vectorized_matches_executor(self, matrix_data):
        for src_layout in LAYOUTS:
            for dst_layout in LAYOUTS:
                ps = matrix_partition(src_layout, 32, 32, 4)
                pd = matrix_partition(dst_layout, 32, 32, 4)
                src = distribute(matrix_data, ps)
                fast = execute_plan(build_plan(ps, pd), src, matrix_data.size)
                slow = redistribute_bytewise_vectorized(
                    ps, pd, src, matrix_data.size
                )
                for a, b in zip(fast, slow):
                    np.testing.assert_array_equal(a, b)

    def test_naive_with_displacements(self):
        src_p = round_robin(2, 4, displacement=2)
        dst_p = round_robin(4, 2, displacement=5)
        data = np.arange(37, dtype=np.uint8)
        src = distribute(data, src_p)
        fast = execute_plan(build_plan(src_p, dst_p), src, data.size)
        slow = redistribute_bytewise(src_p, dst_p, src, data.size)
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)
