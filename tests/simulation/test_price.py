"""Modelled time is priced on demand, never by a production operation.

An engine write/read leaves a message log on its result; the paper's
Table 1/2 records are priced from it the first time ``per_compute`` /
``per_io`` is read.  These tests pin that the file service (thread and
process mode) never runs the stage schedule, that the op trace carries
no modelled time, and that pricing neither repeats nor counts traffic.
"""

import numpy as np
import pytest

import repro.clusterfile.engine as engine
from repro.bench import MatrixWorkload
from repro.clusterfile import Clusterfile
from repro.distributions import round_robin
from repro.obs.span import Span
from repro.service import FileService
from repro.simulation import ClusterConfig
from repro.simulation.price import SimulatedTransport, price

NPROCS = 4
CHUNK = 64


@pytest.fixture()
def counted(monkeypatch):
    """Count :meth:`SimulatedTransport.run` and :func:`price` calls."""
    calls = {"run": 0, "price": 0}
    run = SimulatedTransport.run

    def counting_run(self, *args, **kwargs):
        calls["run"] += 1
        return run(self, *args, **kwargs)

    def counting_price(*args, **kwargs):
        calls["price"] += 1
        return price(*args, **kwargs)

    monkeypatch.setattr(SimulatedTransport, "run", counting_run)
    monkeypatch.setattr(engine, "price", counting_price)
    return calls


def _modelled_spans(root):
    return [
        sp.name
        for sp in root.walk()
        if sp.name == "transport" or sp.sim_start_s is not None
    ]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_service_ops_do_not_price(counted, mode):
    fs = Clusterfile(ClusterConfig(), workers_mode=mode, workers=2)
    with fs:
        fs.create("f", round_robin(NPROCS, CHUNK))
        for node in range(NPROCS):
            fs.set_view("f", node, round_robin(NPROCS, CHUNK))
        data = np.arange(CHUNK, dtype=np.uint8)
        with FileService(fs, workers=2, max_queue=16) as svc:
            wt = svc.submit_write("f", 1, 0, data, to_disk=True)
            wt.result(timeout=60)
            rt = svc.submit_read("f", 1, 0, CHUNK, from_disk=True)
            assert bytes(rt.result(timeout=60)) == data.tobytes()
            assert svc.drain(timeout=60)
        assert counted == {"run": 0, "price": 0}
        for ticket in (wt, rt):
            assert ticket.trace is not None
            assert _modelled_spans(ticket.trace) == []

        res = wt.result()
        stats = fs.cluster.network.stats
        before = (stats.messages, stats.bytes, dict(stats.by_pair))
        bd = res.per_compute[1]
        assert counted["price"] == 1
        assert bd.t_w_disk > bd.t_w_bc > 0
        assert res.per_compute[1] is bd
        assert res.per_io
        assert counted["price"] == 1
        assert (stats.messages, stats.bytes, dict(stats.by_pair)) == before


def test_log_holds_plain_values():
    """The log snapshots each attempt: ints, floats, bools and tuples,
    no payload arrays kept alive."""
    w = MatrixWorkload(64, "c")
    fs = Clusterfile(ClusterConfig())
    fs.create("m", w.physical(), replication=2)
    for c in range(w.nprocs):
        fs.set_view("m", c, w.logical())
    res = fs.write("m", w.view_accesses(w.data()), to_disk=True)

    def plain(value):
        if isinstance(value, tuple):
            return all(plain(v) for v in value)
        return type(value) in (int, float, bool)

    assert len(res.log) == 1
    round_start_s, attempts = res.log[0]
    assert round_start_s == 0.0
    assert len(attempts) == 16
    assert plain(res.log)
    for compute, view_runs, size, delay_s, lost, nodes, costs in attempts:
        assert size == 64 * 64 // 16
        assert view_runs > 1 and delay_s == 0.0 and not lost
        assert len(nodes) == len(costs) == 2


def test_trace_span_draws_each_round():
    w = MatrixWorkload(64, "b")
    fs = Clusterfile(ClusterConfig())
    fs.create("m", w.physical())
    for c in range(w.nprocs):
        fs.set_view("m", c, w.logical())
    res = fs.write("m", w.view_accesses(w.data()), to_disk=True)
    lanes = Span("modelled_time")
    per_compute, per_io = price(res, fs.cluster, trace_span=lanes)
    (transport,) = lanes.children
    assert transport.name == "transport"
    assert transport.attrs == {"round": 0, "round_start_s": 0.0}
    assert {c.name for c in transport.children} == {
        f"io{n}.{dev}" for n in range(4) for dev in ("cpu", "disk")
    }
    ends = max(c.sim_end_s for c in transport.children)
    assert max(bd.t_w_disk for bd in per_compute.values()) > ends * 1e6
    assert {
        n: (b.t_w_bc, b.t_w_disk) for n, b in per_compute.items()
    } == {n: (b.t_w_bc, b.t_w_disk) for n, b in res.per_compute.items()}
