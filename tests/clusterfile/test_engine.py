"""Tests for the unified I/O engine: trace round-trips, breakdown
derivation, transports, and the engine-level metrics counters."""

import json

import numpy as np
import pytest

from repro.clusterfile import Clusterfile
from repro.clusterfile.engine import (
    DirectTransport,
    SimMessage,
    SimulatedTransport,
    breakdowns_from_trace,
    run_shuffle,
)
from repro.distributions import matrix_partition, row_blocks
from repro.obs import metrics
from repro.obs.export import trace_to_chrome, trace_to_dict
from repro.obs.span import Span
from repro.redistribution import distribute, get_plan
from repro.simulation import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel

N = 32


def make_fs():
    return Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))


def write_matrix(fs, name, phys_layout, data, n=N, to_disk=False):
    phys = matrix_partition(phys_layout, n, n, 4)
    logical = row_blocks(n, n, 4)
    fs.create(name, phys)
    for c in range(4):
        fs.set_view(name, c, logical)
    per = n * n // 4
    accesses = [(c, 0, data[c * per : (c + 1) * per]) for c in range(4)]
    return fs.write(name, accesses, to_disk=to_disk)


@pytest.fixture()
def matrix_data():
    rng = np.random.default_rng(42)
    return rng.integers(0, 256, N * N, dtype=np.uint8)


class TestTraceRoundTrip:
    """Acceptance: the exported trace contains every phase of a
    parallel write."""

    def test_write_trace_has_every_phase(self, matrix_data):
        fs = make_fs()
        res = write_matrix(fs, "m", "c", matrix_data, to_disk=True)
        names = res.trace.phase_names()
        for phase in (
            "parallel_write",
            "client.prepare",
            "map",
            "gather",
            "server.write",
            "transport",
        ):
            assert phase in names, f"missing {phase}"
        # The modelled device activity is in the same tree.
        transport = res.trace.find("transport")
        sim_lanes = {c.name for c in transport.children}
        assert any(n.endswith(".cpu") for n in sim_lanes)
        assert any(n.endswith(".disk") for n in sim_lanes)

    def test_phases_survive_export(self, matrix_data):
        fs = make_fs()
        res = write_matrix(fs, "m", "b", matrix_data, to_disk=True)
        dumped = json.loads(json.dumps(trace_to_dict(res.trace)))

        def names(node, acc):
            acc.add(node["name"])
            for c in node.get("children", ()):
                names(c, acc)
            return acc

        exported = names(dumped[0], set())
        assert set(res.trace.phase_names()) <= exported
        chrome = trace_to_chrome(res.trace)
        chrome_names = {e["name"] for e in chrome if e.get("ph") == "X"}
        for phase in ("parallel_write", "map", "gather", "transport"):
            assert phase in chrome_names

    def test_read_trace_phases(self, matrix_data):
        fs = make_fs()
        write_matrix(fs, "m", "c", matrix_data)
        per = N * N // 4
        _, res = fs.read_with_result(
            "m", [(c, 0, per) for c in range(4)], from_disk=True
        )
        names = res.trace.phase_names()
        for phase in ("parallel_read", "client.prepare", "server.read",
                      "scatter", "transport"):
            assert phase in names, f"missing {phase}"


class TestBreakdownDerivation:
    """The Table 1/2 records are a pure function of the span tree."""

    def test_result_matches_rederivation(self, matrix_data):
        fs = make_fs()
        res = write_matrix(fs, "m", "c", matrix_data, to_disk=True)
        per_compute, per_io = breakdowns_from_trace(res.trace)
        assert set(per_compute) == set(res.per_compute) == {0, 1, 2, 3}
        for node in per_compute:
            a, b = per_compute[node], res.per_compute[node]
            assert (a.t_i, a.t_m, a.t_g, a.t_w_bc, a.t_w_disk) == (
                b.t_i, b.t_m, b.t_g, b.t_w_bc, b.t_w_disk,
            )
        for node in per_io:
            a, b = per_io[node], res.per_io[node]
            assert (a.t_sc_bc, a.t_sc_disk) == (b.t_sc_bc, b.t_sc_disk)

    def test_fields_tie_to_named_spans(self, matrix_data):
        fs = make_fs()
        res = write_matrix(fs, "m", "c", matrix_data, to_disk=True)
        prep = [
            s for s in res.trace.children if s.name == "client.prepare"
        ]
        for sp in prep:
            node = sp.attrs["compute"]
            bd = res.per_compute[node]
            assert bd.t_i == sp.attrs["t_i_us"]
            assert bd.t_m == pytest.approx(
                sum(c.wall_us for c in sp.children if c.name == "map")
            )
            assert bd.t_g == pytest.approx(
                sum(c.wall_us for c in sp.children if c.name == "gather")
            )
        transport = res.trace.find("transport")
        for node, bd in res.per_compute.items():
            assert bd.t_w_bc == pytest.approx(
                transport.attrs["done_bc"][node] * 1e6
            )
            assert bd.t_w_disk == pytest.approx(
                transport.attrs["done_disk"][node] * 1e6
            )

    def test_repeated_compute_node_accumulates(self, matrix_data):
        """A node with two requests in one write has one entry: t_i
        once, t_m / t_g summed over both ``client.prepare`` spans."""
        fs = make_fs()
        write_matrix(fs, "m", "c", matrix_data)
        half = N * N // 8
        res = fs.write(
            "m",
            [
                (1, 0, matrix_data[:half]),
                (2, 0, matrix_data[:half]),
                (1, half, matrix_data[half : 2 * half]),
            ],
        )
        assert set(res.per_compute) == {1, 2}
        prep = [
            s
            for s in res.trace.children
            if s.name == "client.prepare" and s.attrs["compute"] == 1
        ]
        assert len(prep) == 2
        bd = res.per_compute[1]
        assert bd.t_i == prep[0].attrs["t_i_us"]
        for field, name in (("t_m", "map"), ("t_g", "gather")):
            per_span = [
                sum(c.wall_us for c in sp.children if c.name == name)
                for sp in prep
            ]
            assert all(t > 0 for t in per_span)
            assert getattr(bd, field) == pytest.approx(sum(per_span))

    def test_modelled_fields_deterministic(self, matrix_data):
        runs = []
        for _ in range(2):
            fs = make_fs()
            res = write_matrix(fs, "m", "b", matrix_data, to_disk=True)
            runs.append(res)
        for node in runs[0].per_compute:
            assert (
                runs[0].per_compute[node].t_w_bc
                == runs[1].per_compute[node].t_w_bc
            )
            assert (
                runs[0].per_compute[node].t_w_disk
                == runs[1].per_compute[node].t_w_disk
            )
        for node in runs[0].per_io:
            assert (
                runs[0].per_io[node].t_sc_disk
                == runs[1].per_io[node].t_sc_disk
            )


class TestHeaderBytesConfig:
    def test_default_and_validation(self):
        assert ClusterConfig().header_bytes == 16
        with pytest.raises(ValueError):
            ClusterConfig(header_bytes=-1)

    def test_header_cost_flows_from_config(self, matrix_data):
        small = Clusterfile(ClusterConfig(header_bytes=16))
        large = Clusterfile(ClusterConfig(header_bytes=1 << 20))
        t = {}
        for key, fs in (("small", small), ("large", large)):
            res = write_matrix(fs, "m", "c", matrix_data)
            t[key] = max(bd.t_w_bc for bd in res.per_compute.values())
        assert t["large"] > t["small"]


class TestSimulatedTransport:
    def test_lane_serialisation_and_stages(self):
        cluster = Cluster(ClusterConfig())
        transport = SimulatedTransport(cluster)
        node = cluster.io[0]
        msgs = [
            SimMessage(key="a", lane="nic", lane_s=1.0,
                       stages=((node.cpu, 0.5, "bc"),)),
            SimMessage(key="b", lane="nic", lane_s=1.0,
                       stages=((node.cpu, 0.5, "bc"),)),
        ]
        done = transport.run(msgs)
        # Same lane: second message leaves at t=2; same CPU: its service
        # starts only after the first one's finishes.
        assert done["bc"]["a"] == pytest.approx(1.5)
        assert done["bc"]["b"] == pytest.approx(2.5)

    def test_ack_and_post_lane(self):
        cluster = Cluster(ClusterConfig())
        transport = SimulatedTransport(cluster)
        node = cluster.io[1]
        done = transport.run([
            SimMessage(key="k", lane="l", lane_s=1.0, post_lane_s=0.25,
                       stages=((node.cpu, 0.5, "bc"),), ack_s=0.125),
        ])
        assert done["bc"]["k"] == pytest.approx(1.875)

    def test_trace_span_collects_resource_spans(self):
        cluster = Cluster(ClusterConfig())
        transport = SimulatedTransport(cluster)
        node = cluster.io[0]
        root = Span("transport")
        transport.run(
            [SimMessage(key="k", lane="l", lane_s=0.0,
                        stages=((node.cpu, 0.5, "bc"),))],
            trace_span=root,
        )
        (sp,) = root.children
        assert sp.name == "io0.cpu"
        assert sp.sim_s == pytest.approx(0.5)

    def test_stage_less_message_only_holds_lane(self):
        cluster = Cluster(ClusterConfig())
        done = SimulatedTransport(cluster).run(
            [SimMessage(key="k", lane="l", lane_s=3.0)]
        )
        assert done == {}

    @staticmethod
    def _sim_spans(root):
        return [(c.name, c.sim_start_s, c.sim_end_s) for c in root.children]

    def test_ties_served_in_submission_order(self):
        """Three arrivals at t=1 on one CPU: served as submitted, not
        by key or by service time."""
        cluster = Cluster(ClusterConfig())
        cpu = cluster.io[0].cpu
        root = Span("transport")
        done = SimulatedTransport(cluster).run(
            [
                SimMessage(key=k, lane=k, lane_s=1.0,
                           stages=((cpu, s, "bc"),))
                for k, s in (("z", 2.0), ("x", 1.0), ("y", 0.5))
            ],
            trace_span=root,
        )
        assert done["bc"] == {"z": 3.0, "x": 4.0, "y": 4.5}
        assert self._sim_spans(root) == [
            ("io0.cpu", 1.0, 3.0),
            ("io0.cpu", 3.0, 4.0),
            ("io0.cpu", 4.0, 4.5),
        ]

    def test_idle_resource_starts_at_arrival(self):
        cluster = Cluster(ClusterConfig())
        cpu = cluster.io[0].cpu
        done = SimulatedTransport(cluster).run([
            SimMessage(key="a", lane="l0", lane_s=0.0,
                       stages=((cpu, 1.0, "bc"),)),
            SimMessage(key="b", lane="l1", lane_s=10.0,
                       stages=((cpu, 1.0, "bc"),)),
        ])
        assert done["bc"] == {"a": 1.0, "b": 11.0}

    def test_chained_stage_starts_at_predecessor_end(self):
        """A message's disk stage is scheduled on its CPU stage's
        completion, with no gap."""
        cluster = Cluster(ClusterConfig())
        node = cluster.io[0]
        root = Span("transport")
        done = SimulatedTransport(cluster).run(
            [SimMessage(key="k", lane="l", lane_s=1.0,
                        stages=((node.cpu, 0.5, "bc"),
                                (node.disk_queue, 0.25, "disk")))],
            trace_span=root,
        )
        assert done == {"bc": {"k": 1.5}, "disk": {"k": 1.75}}
        assert self._sim_spans(root) == [
            ("io0.cpu", 1.0, 1.5),
            ("io0.disk", 1.5, 1.75),
        ]

    def test_busy_resource_serves_fifo(self):
        """b arrives while a holds the disk: it starts when a ends and
        the disk is busy back to back."""
        cluster = Cluster(ClusterConfig())
        disk = cluster.io[0].disk_queue
        root = Span("transport")
        done = SimulatedTransport(cluster).run(
            [
                SimMessage(key="a", lane="l0", lane_s=0.0,
                           stages=((disk, 2.0, "disk"),)),
                SimMessage(key="b", lane="l1", lane_s=1.0,
                           stages=((disk, 3.0, "disk"),)),
            ],
            trace_span=root,
        )
        assert done["disk"] == {"a": 2.0, "b": 5.0}
        assert self._sim_spans(root) == [
            ("io0.disk", 0.0, 2.0),
            ("io0.disk", 2.0, 5.0),
        ]

    def test_second_stage_overlaps_then_queues(self):
        """b's CPU stage runs while a's disk stage does; b's disk stage
        then waits for a's to finish."""
        cluster = Cluster(ClusterConfig())
        node = cluster.io[0]
        stages = ((node.cpu, 1.0, "bc"), (node.disk_queue, 4.0, "disk"))
        root = Span("transport")
        done = SimulatedTransport(cluster).run(
            [
                SimMessage(key="a", lane="l0", lane_s=0.0, stages=stages),
                SimMessage(key="b", lane="l1", lane_s=0.5, stages=stages),
            ],
            trace_span=root,
        )
        assert done == {"bc": {"a": 1.0, "b": 2.0},
                        "disk": {"a": 5.0, "b": 9.0}}
        assert self._sim_spans(root) == [
            ("io0.cpu", 0.0, 1.0),
            ("io0.cpu", 1.0, 2.0),
            ("io0.disk", 1.0, 5.0),
            ("io0.disk", 5.0, 9.0),
        ]

    def test_negative_service_time_rejected(self):
        cluster = Cluster(ClusterConfig())
        cpu = cluster.io[0].cpu
        with pytest.raises(ValueError, match="negative service time"):
            SimulatedTransport(cluster).run([
                SimMessage(key="k", lane="l", lane_s=0.0,
                           stages=((cpu, -0.1, "bc"),)),
            ])

    def test_sim_spans_in_service_order(self):
        """Spans follow the modelled clock, not submission order, and
        carry exact begin and end times."""
        cluster = Cluster(ClusterConfig())
        io0, io1 = cluster.io[0], cluster.io[1]
        root = Span("transport")
        SimulatedTransport(cluster).run(
            [
                SimMessage(key="a", lane="l0", lane_s=2.0,
                           stages=((io0.cpu, 0.5, "bc"),)),
                SimMessage(key="b", lane="l1", lane_s=1.0,
                           stages=((io1.disk_queue, 0.25, None),)),
                SimMessage(key="c", lane="l1", lane_s=0.75,
                           post_lane_s=0.5, stages=((io0.cpu, 0.5, "bc"),)),
            ],
            trace_span=root,
        )
        assert self._sim_spans(root) == [
            ("io1.disk", 1.0, 1.25),
            ("io0.cpu", 2.0, 2.5),
            ("io0.cpu", 2.5, 3.0),
        ]

    def test_concurrent_runs_match_serial(self):
        """Each run prices on its own clock: two threads sharing one
        transport get exactly the serial results."""
        import sys
        import threading

        cluster = Cluster(ClusterConfig())
        transport = SimulatedTransport(cluster)
        batch = [
            SimMessage(
                key=m % 4,
                lane=("nic", m % 4),
                lane_s=0.001 * (m + 1),
                post_lane_s=0.0005,
                stages=((cluster.io[m % 2].cpu, 0.003, "bc"),
                        (cluster.io[m % 2].disk_queue, 0.01 * m, "disk")),
                ack_s=0.0001,
            )
            for m in range(8)
        ]

        def priced():
            root = Span("transport")
            return transport.run(batch, trace_span=root), self._sim_spans(root)

        serial = priced()
        mismatches = []
        start = threading.Barrier(2, timeout=30)

        def worker():
            start.wait()
            for _ in range(200):
                if priced() != serial:
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


class TestDirectTransport:
    def test_counts_and_cost(self):
        net = NetworkModel(latency_s=0.01, bandwidth_Bps=1000.0)
        messages, off_node, time_s = DirectTransport(net).cost(
            [(0, 0, 100), (0, 1, 100), (1, 0, 200), (2, 2, 50), (1, 2, 0)]
        )
        assert messages == 2
        assert off_node == 300
        # Slowest sender: node 1 ships 200 B.
        assert time_s == pytest.approx(0.01 + 200 / 1000.0)

    def test_no_network_is_free_but_counted(self):
        messages, off_node, time_s = DirectTransport(None).cost(
            [(0, 1, 10)]
        )
        assert (messages, off_node, time_s) == (1, 10, 0.0)


class TestRunShuffle:
    def test_shuffle_moves_bytes_and_traces(self):
        src = matrix_partition("r", N, N, 4)
        dst = matrix_partition("c", N, N, 4)
        data = np.arange(N * N, dtype=np.uint8)
        plan = get_plan(src, dst)
        sh = run_shuffle(plan, distribute(data, src), N * N)
        assert sh.trace.find("move") is not None
        assert sh.time_s == 0.0  # no network model
        assert sh.off_node_bytes > 0
        from repro.redistribution import collect

        np.testing.assert_array_equal(
            collect(sh.buffers, dst, N * N), data
        )


class TestServersPerOperation:
    def test_servers_are_built_per_touched_subfile(self, monkeypatch):
        """An operation binds a server only to the subfiles it touches,
        once, however many subfiles the file has."""
        from repro.clusterfile.server import IOServer
        from repro.distributions import round_robin

        built = []
        init = IOServer.__init__

        def counting_init(self, node, store, config):
            built.append(store.subfile)
            init(self, node, store, config)

        monkeypatch.setattr(IOServer, "__init__", counting_init)
        fs = make_fs()
        fs.create("f", round_robin(4, 8))
        # The view matches the physical layout: node 1 talks to subfile 1.
        fs.set_view("f", 1, round_robin(4, 8), element=1)
        fs.write("f", [(1, 0, np.ones(16, np.uint8))], to_disk=True)
        assert built == [1]
        fs.read("f", [(1, 0, 16)], from_disk=True)
        assert built == [1, 1]

    def test_an_empty_operation_still_runs_one_round(self):
        fs = make_fs()
        fs.create("f", matrix_partition("r", N, N, 4))
        res = fs.write("f", [])
        assert res.messages == 0
        assert [sp.name for sp in res.trace.walk()] == [
            "parallel_write", "transport",
        ]


class TestEngineMetrics:
    def test_write_counters(self, matrix_data):
        before = metrics.snapshot("engine.write")
        fs = make_fs()
        res = write_matrix(fs, "m", "c", matrix_data)
        after = metrics.snapshot("engine.write")
        assert after["engine.write.ops"] == before.get("engine.write.ops", 0) + 1
        assert (
            after["engine.write.payload_bytes"]
            == before.get("engine.write.payload_bytes", 0) + res.payload_bytes
        )
        assert (
            after["engine.write.messages"]
            == before.get("engine.write.messages", 0) + res.messages
        )

    def test_plan_cache_counters_mirrored(self):
        from repro.redistribution import clear_plan_cache, get_plan

        clear_plan_cache()
        assert metrics.snapshot("plan_cache.global") == {}
        src = matrix_partition("r", N, N, 4)
        dst = matrix_partition("c", N, N, 4)
        get_plan(src, dst)
        get_plan(src, dst)
        snap = metrics.snapshot("plan_cache.global")
        assert snap["plan_cache.global.misses"] == 1
        assert snap["plan_cache.global.hits"] == 1
        clear_plan_cache()

    def test_build_plan_counters(self):
        from repro.redistribution import build_plan

        before = metrics.snapshot("build_plan")
        src = matrix_partition("r", N, N, 4)
        dst = matrix_partition("b", N, N, 4)
        plan = build_plan(src, dst)
        after = metrics.snapshot("build_plan")
        assert after["build_plan.calls"] == before.get("build_plan.calls", 0) + 1
        assert (
            after["build_plan.candidate_pairs"]
            - before.get("build_plan.candidate_pairs", 0)
            == plan.candidate_pairs
        )
        assert (
            after["build_plan.pruned_pairs"]
            - before.get("build_plan.pruned_pairs", 0)
            == plan.pruned_pairs
        )
