"""Unit tests for the network, disk and memory cost models."""

import sys
import threading

import pytest

from repro.simulation.cache import MemoryModel
from repro.simulation.disk import DiskHead, DiskModel, write_time_for_segments
from repro.simulation.network import Network, NetworkModel


class TestNetworkModel:
    def test_alpha_beta(self):
        m = NetworkModel(latency_s=10e-6, bandwidth_Bps=100e6)
        assert m.transfer_time(0) == pytest.approx(10e-6)
        assert m.transfer_time(100_000_000) == pytest.approx(1.0 + 10e-6)

    def test_message_aggregation_wins(self):
        # One big message beats many small ones - the paper's motivation
        # for gathering before sending.
        m = NetworkModel()
        total = 1 << 20
        assert m.transfer_time(total, messages=1) < m.transfer_time(
            total, messages=64
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_Bps=0)
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)

    def test_stats_accounting(self):
        net = Network()
        net.send_time("a", "b", 100)
        net.send_time("a", "b", 50)
        net.send_time("b", "c", 10)
        assert net.stats.messages == 3
        assert net.stats.bytes == 160
        assert net.stats.by_pair[("a", "b")] == 150
        net.reset_stats()
        assert net.stats.messages == 0

    def test_stats_record_is_thread_safe(self):
        """Service workers share one cluster's network: concurrent
        ``record`` calls must not lose updates."""
        net = Network()
        threads, calls = 4, 50_000
        start = threading.Barrier(threads)

        def hammer():
            start.wait()
            for _ in range(calls):
                net.stats.record("compute0", "io0", 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave as often as possible
        try:
            pool = [threading.Thread(target=hammer) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        total = threads * calls
        assert net.stats.messages == total
        assert net.stats.bytes == total
        assert net.stats.by_pair[("compute0", "io0")] == total


class TestDiskModel:
    def test_sequential_cheaper_than_random(self):
        head = DiskHead()
        t_seq = head.access_time(0, 4096)
        t_seq2 = head.access_time(4096, 4096)  # head is already there
        head2 = DiskHead()
        head2.access_time(0, 4096)
        t_rand = head2.access_time(100 * 1024 * 1024, 4096)
        assert t_seq2 < t_rand
        # Both writes are sequential: the head starts at 0, and the second
        # write begins exactly where the first ended.
        assert head.sequential_requests == 2
        assert t_seq > 0

    def test_seek_scales_with_distance(self):
        m = DiskModel()
        assert m.seek_time(0) == 0.0
        assert m.seek_time(1024) <= m.seek_time(m.full_seek_span)
        assert m.seek_time(m.full_seek_span) == pytest.approx(m.avg_seek_s)
        assert m.seek_time(10 * m.full_seek_span) == pytest.approx(m.avg_seek_s)

    def test_fragmented_write_slower(self):
        # Same bytes: one run vs 64 scattered runs.
        contiguous = write_time_for_segments(DiskHead(), [(0, 64 * 1024)])
        runs = [(i * 1024 * 1024, 1024) for i in range(64)]
        fragmented = write_time_for_segments(DiskHead(), runs)
        assert fragmented > 5 * contiguous

    def test_adjacent_runs_coalesce(self):
        head = DiskHead()
        t = write_time_for_segments(head, [(0, 1024), (1024, 1024), (2048, 1024)])
        head2 = DiskHead()
        t_single = write_time_for_segments(head2, [(0, 3072)])
        # Adjacent runs only pay the per-request overhead extra.
        assert t == pytest.approx(
            t_single + 2 * head.model.per_request_s, rel=1e-6
        )

    def test_stats(self):
        head = DiskHead()
        head.access_time(0, 100)
        head.access_time(100, 50)
        assert head.requests == 2
        assert head.bytes_written == 150
        assert head.position == 150

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskHead().access_time(-1, 10)


class TestMemoryModel:
    def test_per_run_penalty(self):
        m = MemoryModel()
        assert m.copy_time(4096, runs=64) > m.copy_time(4096, runs=1)

    def test_large_copies_bandwidth_bound(self):
        m = MemoryModel()
        big = 32 * 1024 * 1024
        # With few runs the per-run term is negligible.
        assert m.copy_time(big, runs=4) == pytest.approx(
            big / m.copy_Bps, rel=0.01
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryModel().copy_time(-1)
