"""Multi-tenant admission: per-tenant quotas and weighted fair queueing.

The tests pin the scheduler deterministically instead of sampling
throughput: the single dispatcher is stalled by parking one file's
lock (an externally held writer ticket blocks the worker, a second
dispatched operation soaks the only worker slot), a backlog is
admitted from one thread (so WFQ tags are fixed and reproducible), and
the dispatch order is recorded by wrapping the worker pool's
``submit``.  Releasing the lock then replays the backlog in exactly
the order the WFQ policy chose.
"""

import threading

import numpy as np
import pytest

from repro.clusterfile.fs import Clusterfile
from repro.distributions import round_robin
from repro.obs import metrics as obs_metrics
from repro.service import FileService, ServiceOverloaded

NPROCS = 2
CHUNK = 8


def _deployment(files):
    fs = Clusterfile()
    for name in files:
        fs.create(name, round_robin(NPROCS, CHUNK))
        for node in range(NPROCS):
            fs.set_view(name, node, round_robin(NPROCS, CHUNK))
    return fs


def _payload(i):
    return np.full(4, i % 256, dtype=np.uint8)


class _StalledService:
    """A FileService with its dispatcher deterministically parked.

    ``workers=1``: one operation on the blocked file occupies the
    worker (blocked on the externally held lock), a second occupies
    the dispatcher (blocked acquiring the worker slot) — a write and a
    read, which never share a batch whatever ``max_batch`` is.
    Everything admitted afterwards stays queued until :meth:`release`.
    """

    def __init__(self, svc, blocked_file="blocked"):
        self.svc = svc
        self.blocked_file = blocked_file
        self.dispatch_order = []
        self._guard = threading.Lock()
        # Prime the file state, then hold its write lock externally.
        svc.submit_write(blocked_file, 0, 0, _payload(0)).result(timeout=30)
        self._hold = svc._files[blocked_file].lock.acquire("w")
        # Record dispatch order from here on.
        self._orig_submit = svc._pool.submit

        def recording_submit(fn, fstate, batch, lticket):
            with self._guard:
                self.dispatch_order.extend(op.ticket for op in batch)
            return self._orig_submit(fn, fstate, batch, lticket)

        svc._pool.submit = recording_submit
        # Soak the worker and the dispatcher.
        self._soak = [
            svc.submit_write(blocked_file, 0, 0, _payload(1)),
            svc.submit_read(blocked_file, 0, 0, 4),
        ]
        self._wait_stalled()

    def _wait_stalled(self):
        deadline = 30.0
        step = 0.005
        waited = 0.0
        while self.svc.queue_depth > 0 and waited < deadline:
            threading.Event().wait(step)
            waited += step
        assert self.svc.queue_depth == 0, "dispatcher never stalled"

    def release(self):
        if self._hold is not None:
            self.svc._files[self.blocked_file].lock.release(self._hold)
            self._hold = None

    def backlog_order(self):
        """Dispatched tickets, excluding the blocked-file machinery."""
        return [t for t in self.dispatch_order if t.file != self.blocked_file]


@pytest.fixture
def stalled():
    files = ["blocked", "heavy-file", "light-file"]
    fs = _deployment(files)
    svc = FileService(
        fs,
        workers=1,
        max_queue=64,
        admission="park",
        max_batch=1,  # one dispatch per operation: order fully visible
        tenant_weights={"heavy": 3.0, "light": 1.0},
    )
    stall = _StalledService(svc)
    yield stall
    stall.release()
    svc.close()


class TestWeightedFairQueueing:
    def test_dispatch_share_tracks_weights(self, stalled):
        """Under a saturated backlog, a weight-3 tenant receives three
        dispatch slots for every one a weight-1 tenant gets."""
        svc = stalled.svc
        heavy = [
            svc.submit_write("heavy-file", 0, 0, _payload(i), tenant="heavy")
            for i in range(9)
        ]
        light = [
            svc.submit_write("light-file", 0, 0, _payload(i), tenant="light")
            for i in range(3)
        ]
        stalled.release()
        assert svc.drain(timeout=60)

        order = stalled.backlog_order()
        assert len(order) == 12
        first8 = [t.tenant for t in order[:8]]
        assert first8.count("heavy") == 6
        assert first8.count("light") == 2

        # Within each tenant, per-file admission order held.
        heavy_seqs = [t.seq for t in order if t.tenant == "heavy"]
        light_seqs = [t.seq for t in order if t.tenant == "light"]
        assert heavy_seqs == sorted(heavy_seqs)
        assert light_seqs == sorted(light_seqs)
        for t in heavy + light:
            assert t.exception(timeout=5) is None

    def test_equal_weights_interleave(self, stalled):
        """With the same weight, two saturating tenants alternate."""
        svc = stalled.svc
        svc.set_tenant("heavy", weight=1.0)
        a = [
            svc.submit_write("heavy-file", 0, 0, _payload(i), tenant="heavy")
            for i in range(4)
        ]
        b = [
            svc.submit_write("light-file", 0, 0, _payload(i), tenant="light")
            for i in range(4)
        ]
        stalled.release()
        assert svc.drain(timeout=60)

        tenants = [t.tenant for t in stalled.backlog_order()]
        assert len(tenants) == 8
        # No tenant ever gets two consecutive slots ahead of a queued
        # peer with an equal weight.
        for i in range(0, 8, 2):
            assert set(tenants[i:i + 2]) == {"heavy", "light"}
        for t in a + b:
            assert t.exception(timeout=5) is None


class TestTenantQuota:
    def test_quota_rejects_one_tenant_only(self):
        files = ["blocked", "heavy-file", "light-file"]
        fs = _deployment(files)
        obs_metrics.reset_metrics("service.tenant")
        svc = FileService(
            fs, workers=1, max_queue=64, admission="reject", max_batch=1
        )
        stall = _StalledService(svc)
        try:
            # Quota on the greedy tenant only — the stall machinery's
            # default-tenant ops and other tenants stay unconstrained.
            svc.set_tenant("greedy", quota=2)
            greedy = [
                svc.submit_write(
                    "heavy-file", 0, 0, _payload(i), tenant="greedy"
                )
                for i in range(2)
            ]
            with pytest.raises(ServiceOverloaded):
                svc.submit_write(
                    "heavy-file", 0, 0, _payload(9), tenant="greedy"
                )
            # The global queue has room: another tenant still admits.
            polite = svc.submit_write(
                "light-file", 0, 0, _payload(0), tenant="polite"
            )
            stats = svc.tenant_stats()
            assert stats["greedy"]["queued"] == 2
            assert stats["polite"]["queued"] == 1
            counts = obs_metrics.snapshot("service.tenant")
            assert counts["service.tenant.greedy.rejected"] == 1
            assert counts.get("service.tenant.polite.rejected", 0) == 0
        finally:
            stall.release()
            assert svc.drain(timeout=60)
            svc.close()
        for t in greedy + [polite]:
            assert t.exception(timeout=5) is None

    def test_set_tenant_raises_quota_live(self):
        files = ["blocked", "heavy-file"]
        fs = _deployment(files)
        svc = FileService(
            fs, workers=1, max_queue=64, admission="reject", max_batch=1
        )
        stall = _StalledService(svc)
        try:
            svc.set_tenant("t", quota=1)
            svc.submit_write("heavy-file", 0, 0, _payload(0), tenant="t")
            with pytest.raises(ServiceOverloaded):
                svc.submit_write("heavy-file", 0, 0, _payload(1), tenant="t")
            svc.set_tenant("t", quota=3)
            svc.submit_write("heavy-file", 0, 0, _payload(1), tenant="t")
            assert svc.tenant_stats()["t"]["queued"] == 2
        finally:
            stall.release()
            assert svc.drain(timeout=60)
            svc.close()

    def test_quota_validation(self):
        fs = _deployment(["f"])
        with pytest.raises(ValueError):
            FileService(fs, tenant_quota=0)
        svc = FileService(fs)
        try:
            with pytest.raises(ValueError):
                svc.set_tenant("t", weight=0.0)
            with pytest.raises(ValueError):
                svc.set_tenant("t", quota=0)
        finally:
            svc.close()
