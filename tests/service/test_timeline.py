"""Ticket-linked tracing: reconstructing one request's cross-thread
timeline (admission -> dispatcher -> worker -> engine) from its trace id."""

import numpy as np
import pytest

from repro.clusterfile.fs import Clusterfile
from repro.distributions import round_robin
from repro.service import FileService, render_timeline, request_timeline
from repro.service.tickets import Ticket
from repro.simulation.cluster import ClusterConfig

NPROCS = 4
CHUNK = 64


def _make_fs():
    fs = Clusterfile(ClusterConfig())
    fs.create("f", round_robin(NPROCS, CHUNK))
    for node in range(NPROCS):
        fs.set_view("f", node, round_robin(NPROCS, CHUNK))
    return fs


def _payload(seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, CHUNK, dtype=np.uint8
    )


class TestTraceIds:
    def test_every_ticket_gets_a_unique_trace_id(self):
        fs = _make_fs()
        with FileService(fs, workers=1, max_queue=8) as svc:
            t1 = svc.submit_write("f", 0, 0, _payload())
            t2 = svc.submit_write("f", 1, 0, _payload())
            svc.drain(timeout=30)
        assert t1.trace_id != t2.trace_id
        assert t1.trace_id.startswith("op-")

    def test_timeline_before_dispatch_raises(self):
        t = Ticket(kind="write", file="f", seq=0)
        with pytest.raises(ValueError, match="no trace"):
            request_timeline(t)


class TestCrossThreadTimeline:
    def test_threaded_run_reconstructs_full_timeline(self):
        """The acceptance criterion: submit from this thread, dispatch
        on the dispatcher thread, execute on a worker thread — then
        rebuild the whole request path from the ticket's trace id."""
        fs = _make_fs()
        tickets = []
        with FileService(
            fs, workers=3, max_queue=64, max_batch=4
        ) as svc:
            for i in range(24):
                tickets.append(
                    svc.submit_write("f", i % NPROCS, 0, _payload(i))
                )
            assert svc.drain(timeout=60)

        for ticket in tickets:
            tl = request_timeline(ticket)
            assert tl["trace_id"] == ticket.trace_id
            names = [st["stage"] for st in tl["stages"]]
            # The full causal chain, in order: service-side waits, then
            # the engine op, then its per-stage breakdown.
            assert names[0] == "queue_wait"
            assert names[1] == "lock_acquire"
            assert names[2] == "engine.write"
            assert set(names[3:]) == {
                "engine.write.map",
                "engine.write.gather",
                "engine.write.scatter",
            }
            assert all(st["wall_s"] >= 0.0 for st in tl["stages"])
            # The engine root was bound to the *head* ticket's trace id
            # (the batch rode one engine call), which is the batch id.
            engine = tl["stages"][2]
            assert engine["trace_id"] == tl["batch"]["trace_id"]
            assert tl["batch"]["size"] >= 1

    def test_batched_followers_keep_their_own_trace_ids(self):
        fs = _make_fs()
        with FileService(fs, workers=1, max_queue=64, max_batch=8) as svc:
            tickets = [
                svc.submit_write("f", i % NPROCS, 0, _payload(i))
                for i in range(8)
            ]
            assert svc.drain(timeout=60)
        batched = [t for t in tickets if t.batched_with > 0]
        assert batched, "expected at least one coalesced batch"
        for t in batched:
            tl = request_timeline(t)
            # Followers keep per-request queue_wait/lock_acquire records
            # under their own ids, inside the head's batch span.
            assert tl["trace_id"] == t.trace_id
            assert {"queue_wait", "lock_acquire"} <= {
                st["stage"] for st in tl["stages"]
            }

    def test_read_timeline_has_read_stages(self):
        fs = _make_fs()
        with FileService(fs, workers=2, max_queue=8) as svc:
            svc.submit_write("f", 0, 0, _payload()).result(timeout=30)
            t = svc.submit_read("f", 0, 0, CHUNK)
            t.result(timeout=30)
        names = [st["stage"] for st in request_timeline(t)["stages"]]
        assert "engine.read" in names
        assert "engine.read.map" in names

    def test_wait_s_matches_service_records(self):
        fs = _make_fs()
        with FileService(fs, workers=1, max_queue=8) as svc:
            t = svc.submit_write("f", 0, 0, _payload())
            assert svc.drain(timeout=30)
        tl = request_timeline(t)
        waits = {
            st["stage"]: st["wall_s"] for st in tl["stages"][:2]
        }
        # queue_wait + lock_acquire is the ticket's measured wait.
        assert waits["queue_wait"] + waits["lock_acquire"] == (
            pytest.approx(t.wait_s, abs=5e-3)
        )


class TestRendering:
    def test_render_timeline_mentions_every_stage(self):
        fs = _make_fs()
        with FileService(fs, workers=1, max_queue=8) as svc:
            t = svc.submit_write("f", 0, 0, _payload())
            assert svc.drain(timeout=30)
        text = render_timeline(request_timeline(t))
        assert t.trace_id in text
        for stage in ("queue_wait", "lock_acquire", "engine.write.map"):
            assert stage in text
