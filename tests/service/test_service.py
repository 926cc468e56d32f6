"""FileService behaviour: determinism, batching, admission control,
failure propagation, relayout view re-establishment."""

import threading

import numpy as np
import pytest

from repro.clusterfile.fs import Clusterfile
from repro.distributions import round_robin
from repro.obs import metrics as obs_metrics
from repro.service import FileService, ServiceClosed, ServiceOverloaded
from repro.simulation import ClusterConfig

from .test_tenants import _StalledService


def _deployment(nprocs=4, chunk=16):
    fs = Clusterfile()
    fs.create("f", round_robin(nprocs, chunk))
    for node in range(nprocs):
        fs.set_view("f", node, round_robin(nprocs, chunk))
    return fs


def _payloads(seed, nprocs=4, nbytes=64):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, nbytes, dtype=np.uint8) for _ in range(nprocs)]


def _whole_file_deployment():
    """Files ``f0``..``f3`` seen by 8 nodes element-wise, ``whole`` seen
    by every node as the one linear file (so views overlap), and the
    stall machinery's ``blocked``."""
    fs = Clusterfile(ClusterConfig(compute_nodes=8, io_nodes=8))
    for name in ("blocked", "f0", "f1", "f2", "f3"):
        fs.create(name, round_robin(8, 16))
        for node in range(8):
            fs.set_view(name, node, round_robin(8, 16))
    fs.create("whole", round_robin(4, 16))
    for node in range(2):
        fs.set_view("whole", node, round_robin(1, 16), 0)
    return fs


@pytest.fixture
def stalled():
    """A one-worker service whose dispatcher is parked until
    ``release()``: whatever is submitted meanwhile is queued, so batch
    boundaries are exact."""
    svc = FileService(_whole_file_deployment(), workers=1, max_batch=8)
    stall = _StalledService(svc)
    yield stall
    stall.release()
    svc.close()


class TestSingleWorkerDeterminism:
    def test_byte_identical_to_serial_engine(self):
        """workers=1, max_batch=1: the service IS the serial engine."""
        data = _payloads(7)
        fs_serial = _deployment()
        for n, buf in enumerate(data):
            fs_serial.write("f", [(n, 0, buf)])

        fs_svc = _deployment()
        with FileService(fs_svc, workers=1, max_batch=1) as svc:
            for n, buf in enumerate(data):
                svc.submit_write("f", n, 0, buf)
            assert svc.drain(timeout=30)
        np.testing.assert_array_equal(
            fs_svc.linear_contents("f"), fs_serial.linear_contents("f")
        )

    def test_batched_equals_unbatched(self):
        data = _payloads(8)
        fs_a = _deployment()
        with FileService(fs_a, workers=1, max_batch=1) as svc:
            for n, buf in enumerate(data):
                svc.submit_write("f", n, 0, buf)
            assert svc.drain(timeout=30)
        fs_b = _deployment()
        with FileService(fs_b, workers=1, max_batch=8) as svc:
            tickets = [
                svc.submit_write("f", n, 0, buf)
                for n, buf in enumerate(data)
            ]
            assert svc.drain(timeout=30)
        np.testing.assert_array_equal(
            fs_a.linear_contents("f"), fs_b.linear_contents("f")
        )
        # At least some coalescing happened (all four were queued
        # before the worker got to them, or in the worst case the first
        # dispatched alone and the remaining three rode together).
        assert max(t.batched_with for t in tickets) >= 2

    def test_read_sees_admitted_writes(self):
        fs = _deployment()
        data = _payloads(9)
        with FileService(fs, workers=2, max_batch=4) as svc:
            for n, buf in enumerate(data):
                svc.submit_write("f", n, 0, buf)
            t = svc.submit_read("f", 2, 0, data[2].size)
            got = t.result(timeout=30)
        np.testing.assert_array_equal(got, data[2])


class TestBatching:
    def test_one_engine_call_for_a_coalesced_run(self):
        obs_metrics.reset_metrics("service")
        fs = _deployment()
        data = _payloads(10)
        with FileService(fs, workers=1, max_batch=4) as svc:
            # Stall the worker with a first op so the rest pile up.
            svc.submit_write("f", 0, 0, data[0])
            tickets = [
                svc.submit_write("f", n, 0, data[n]) for n in range(1, 4)
            ]
            assert svc.drain(timeout=30)
        assert all(t.result(timeout=5) is not None for t in tickets)
        counts = obs_metrics.snapshot("service")
        assert counts["service.completed"] == 4
        # 4 ops went through at most 4 (typically 2) engine calls.
        assert counts["service.batches"] <= 4
        sizes = obs_metrics.get_registry().gauges("service")[
            "service.batch_size"
        ]
        assert sizes["sum"] == 4  # every write counted exactly once

    def test_repeated_compute_node_rides_one_batch(self, stalled):
        """Adjacency in the file's order is the whole key: nodes
        0, 1, 1, 0 coalesce into one engine call, and overlapping bytes
        land as if the four had run one by one."""
        svc, fs = stalled.svc, stalled.svc.fs
        rng = np.random.default_rng(11)
        ops = [(0, 0, 64), (1, 32, 64), (1, 16, 64), (0, 48, 32)]
        ops = [
            (node, off, rng.integers(0, 256, n, dtype=np.uint8))
            for node, off, n in ops
        ]
        tickets = [svc.submit_write("whole", *op) for op in ops]
        stalled.release()
        assert svc.drain(timeout=30)
        assert [t.batched_with for t in tickets] == [4, 4, 4, 4]
        serial = _whole_file_deployment()
        for op in ops:
            serial.write("whole", [op])
        np.testing.assert_array_equal(
            fs.linear_contents("whole"), serial.linear_contents("whole")
        )
        # Last writer wins where all four overlap.
        np.testing.assert_array_equal(
            fs.linear_contents("whole")[48:80], ops[3][2]
        )

    def test_e2e_shape_fills_every_batch(self, stalled):
        """The benchmark's small_write shape — op i goes to file i % 4
        from node i % 8, 16 of them queued — offers each file four
        adjacent writes from two nodes; every batch takes all four."""
        svc = stalled.svc
        batches_before = obs_metrics.snapshot("service")["service.batches"]
        data = _payloads(14, nprocs=16, nbytes=32)
        tickets = [
            svc.submit_write(f"f{i % 4}", i % 8, 0, data[i])
            for i in range(16)
        ]
        stalled.release()
        assert svc.drain(timeout=30)
        assert {t.batched_with for t in tickets} == {4}
        # Four engine calls for the 16, one each for the two soak ops.
        batches = obs_metrics.snapshot("service")["service.batches"]
        assert batches - batches_before == 6
        for i in range(8):  # each node's later write to its file won
            [got] = svc.fs.read(f"f{i % 4}", [(i, 0, 32)])
            np.testing.assert_array_equal(got, data[i + 8])

    def test_adjacent_reads_coalesce_each_with_its_own_buffer(self, stalled):
        svc = stalled.svc
        data = _payloads(15, nprocs=8)
        for node in range(8):
            svc.fs.write("f0", [(node, 0, data[node])])
        # Two of the three come from node 0.
        reads = [(0, 0, 64), (0, 16, 32), (1, 8, 40)]
        tickets = [svc.submit_read("f0", *r) for r in reads]
        stalled.release()
        got = [t.result(timeout=30) for t in tickets]
        assert [t.batched_with for t in tickets] == [3, 3, 3]
        for (node, off, n), buf in zip(reads, got):
            np.testing.assert_array_equal(buf, data[node][off : off + n])
        assert not np.shares_memory(got[0], got[1])

    def test_write_between_reads_splits_the_run(self, stalled):
        svc = stalled.svc
        old, new = _payloads(16, nprocs=2)
        svc.fs.write("f0", [(3, 0, old)])
        before = svc.submit_read("f0", 3, 0, 64)
        svc.submit_write("f0", 3, 0, new)
        after = svc.submit_read("f0", 3, 0, 64)
        stalled.release()
        np.testing.assert_array_equal(after.result(timeout=30), new)
        np.testing.assert_array_equal(before.result(timeout=30), old)
        assert before.batched_with == after.batched_with == 1

    def test_batch_window_waits_for_stragglers(self):
        fs = _deployment()
        data = _payloads(12)
        with FileService(
            fs, workers=1, max_batch=4, batch_window_s=0.25
        ) as svc:
            t0 = svc.submit_write("f", 0, 0, data[0])

            def late():
                svc.submit_write("f", 1, 0, data[1])

            timer = threading.Timer(0.05, late)
            timer.start()
            assert svc.drain(timeout=30)
            timer.join()
        # The straggler landed in the lingering batch.
        assert t0.batched_with == 2


class TestAdmissionControl:
    def test_reject_when_full(self):
        obs_metrics.reset_metrics("service")
        fs = _deployment()
        data = _payloads(13)
        svc = FileService(
            fs, workers=1, max_queue=2, admission="reject", max_batch=1
        )
        try:
            # Pause the dispatcher by keeping the only worker busy.
            blocker = threading.Event()
            orig_write = fs.write

            def slow_write(*a, **k):
                blocker.wait(5)
                return orig_write(*a, **k)

            fs.write = slow_write
            svc.submit_write("f", 0, 0, data[0])  # occupies the worker
            import time

            time.sleep(0.05)  # let the dispatcher take it
            svc.submit_write("f", 1, 0, data[1])
            svc.submit_write("f", 2, 0, data[2])
            with pytest.raises(ServiceOverloaded):
                svc.submit_write("f", 3, 0, data[3])
            blocker.set()
            assert svc.drain(timeout=30)
        finally:
            blocker.set()
            svc.close()
            fs.write = orig_write
        assert obs_metrics.snapshot("service")["service.rejected"] == 1

    def test_park_blocks_then_admits(self):
        fs = _deployment()
        data = _payloads(14)
        with FileService(
            fs, workers=2, max_queue=2, admission="park", max_batch=1
        ) as svc:
            tickets = [
                svc.submit_write("f", n % 4, 0, data[n % 4])
                for n in range(12)
            ]
            assert svc.drain(timeout=30)
            assert all(t.done() for t in tickets)

    @staticmethod
    def _parked():
        return obs_metrics.snapshot("service").get(
            "service.parked_submits", 0
        )

    def _stalled_full(self, admission):
        """A stalled service whose ``max_queue`` of 4 is full."""
        svc = FileService(
            _whole_file_deployment(), workers=1, max_batch=8, max_queue=4,
            admission=admission,
        )
        stall = _StalledService(svc)
        for n, buf in enumerate(_payloads(15)):
            svc.submit_write("f0", n, 0, buf)
        assert svc.queue_depth == 4
        return svc, stall

    def test_parked_submit_counted_once(self):
        svc, stall = self._stalled_full("park")
        try:
            before = self._parked()
            parked = threading.Thread(
                target=svc.submit_write, args=("f1", 0, 0, _payloads(16)[0])
            )
            parked.start()
            for _ in range(1000):
                if self._parked() > before:
                    break
                threading.Event().wait(0.01)
            # Wakeups while the queue is still full park it again, but
            # the submit was counted when it first parked.
            for _ in range(3):
                with svc._qlock:
                    svc._not_full.notify_all()
                threading.Event().wait(0.01)
            assert parked.is_alive()
            assert self._parked() - before == 1
            stall.release()
            parked.join(timeout=30)
            assert not parked.is_alive()
            assert svc.drain(timeout=30)
            assert self._parked() - before == 1
        finally:
            stall.release()
            svc.close()

    def test_rejected_submit_never_parks(self):
        svc, stall = self._stalled_full("reject")
        try:
            before = self._parked()
            with pytest.raises(ServiceOverloaded):
                svc.submit_write("f1", 0, 0, _payloads(16)[0])
            assert self._parked() == before
        finally:
            stall.release()
            svc.close()

    def test_closed_service_rejects(self):
        fs = _deployment()
        svc = FileService(fs, workers=1)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit_read("f", 0, 0, 1)


class TestFailures:
    def test_missing_view_fails_only_that_ticket(self):
        fs = _deployment()
        data = _payloads(15)
        with FileService(fs, workers=1, max_batch=1) as svc:
            bad = svc.submit_write("f", 0, 0, data[0])
            fs.views.pop(("f", 0))
            good_node_data = data[1]
            good = svc.submit_write("f", 1, 0, good_node_data)
            assert svc.drain(timeout=30)
        # The bad ticket may or may not fail depending on whether the
        # dispatcher grabbed it before the view vanished; the good one
        # must always succeed.
        assert good.exception(timeout=5) is None

    def test_unknown_file_raises_via_ticket(self):
        fs = _deployment()
        with FileService(fs, workers=1) as svc:
            t = svc.submit_read("nope", 0, 0, 4)
            with pytest.raises(KeyError):
                t.result(timeout=30)


class TestRelayout:
    def test_relayout_preserves_bytes_and_views(self):
        fs = _deployment()
        data = _payloads(16)
        with FileService(fs, workers=2, max_batch=4) as svc:
            for n, buf in enumerate(data):
                svc.submit_write("f", n, 0, buf)
            before = None
            t = svc.submit_relayout("f", round_robin(2, 32))
            res = t.result(timeout=30)
            assert res.bytes_moved > 0
            # Views were re-established: a read through the old view
            # node still works and sees the same bytes.
            got = svc.submit_read("f", 3, 0, data[3].size).result(timeout=30)
            assert svc.drain(timeout=30)
        np.testing.assert_array_equal(got, data[3])
        assert fs.open("f").physical == round_robin(2, 32)
