"""Byte-identity of the multiprocess engine against thread mode.

The differential contract: for every data path — parallel write/read,
two-phase collective, physical relayout, checkpoint store, the
concurrent service — process mode must hand back per-byte identical
contents to thread mode on the same workload.  On top of identity,
process mode must fold its telemetry home: worker spans appear under
the parent's operation root and worker counters land in the parent
registry.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.checkpoint import CheckpointStore
from repro.clusterfile.collective import two_phase_read, two_phase_write
from repro.clusterfile.fs import Clusterfile
from repro.clusterfile.relayout import relayout
from repro.core.falls import Falls
from repro.core.partition import Partition
from repro.distributions import matrix_partition, round_robin, row_blocks
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.mp.shm import shm_segments_alive
from repro.obs import metrics as obs_metrics
from repro.service import FileService
from repro.simulation.cluster import ClusterConfig


DROP_AND_CORRUPT = FaultPlan(
    seed=1,
    rules=(
        FaultRule(kind="drop", rate=0.25),
        FaultRule(kind="corrupt", rate=0.25),
    ),
)
CRASH = FaultPlan(seed=0, rules=(FaultRule(kind="crash", io_node=1),))


def _counter(name):
    return obs_metrics.snapshot(name).get(name, 0)


def _block(elements, block):
    total = elements * block
    return Partition(
        [Falls(e * block, (e + 1) * block - 1, total, 1)
         for e in range(elements)]
    )


def _striped_workload(seed, nprocs=4, chunk=64, periods=8):
    rng = np.random.default_rng(seed)
    n = chunk * periods
    data = {node: rng.integers(0, 256, n, dtype=np.uint8)
            for node in range(nprocs)}
    return data, n


def _roundtrip(mode, seed, to_disk, nprocs=4, chunk=64):
    data, n = _striped_workload(seed, nprocs, chunk)
    fs = Clusterfile(ClusterConfig(), workers_mode=mode)
    try:
        fs.create("f", round_robin(nprocs, chunk))
        for node in range(nprocs):
            fs.set_view("f", node, round_robin(nprocs, chunk), element=node)
        fs.write("f", [(node, 0, data[node]) for node in range(nprocs)],
                 to_disk=to_disk)
        out = fs.read("f", [(node, 0, n) for node in range(nprocs)],
                      from_disk=to_disk)
        return [bytes(b) for b in out]
    finally:
        fs.close()


class TestDifferentialByteIdentity:
    """Per-byte oracle: thread mode is the reference, process mode the
    candidate, compared over seeds and both cache/disk variants."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("to_disk", [False, True])
    def test_write_read_identical(self, seed, to_disk):
        assert _roundtrip("thread", seed, to_disk) == (
            _roundtrip("process", seed, to_disk)
        )

    @pytest.mark.parametrize("layout", ["r", "c", "b"])
    def test_matrix_views_identical(self, layout):
        n = 32
        rng = np.random.default_rng(5)
        flat = rng.integers(0, 256, n * n, dtype=np.uint8)
        per = n * n // 4
        outs = {}
        for mode in ("thread", "process"):
            fs = Clusterfile(ClusterConfig(), workers_mode=mode)
            try:
                fs.create("m", matrix_partition(layout, n, n, 4))
                for c in range(4):
                    fs.set_view("m", c, row_blocks(n, n, 4))
                fs.write(
                    "m",
                    [(c, 0, flat[c * per:(c + 1) * per]) for c in range(4)],
                    to_disk=True,
                )
                outs[mode] = [
                    bytes(b)
                    for b in fs.read(
                        "m", [(c, 0, per) for c in range(4)], from_disk=True
                    )
                ]
            finally:
                fs.close()
        assert outs["thread"] == outs["process"]

    def test_collective_and_relayout_identical(self):
        results = {}
        for mode in ("thread", "process"):
            data, n = _striped_workload(3)
            fs = Clusterfile(ClusterConfig(), workers_mode=mode)
            try:
                fs.create("c", _block(4, n))
                for node in range(4):
                    fs.set_view("c", node, round_robin(4, 64), element=node)
                two_phase_write(
                    fs, "c",
                    [(node, 0, data[node]) for node in range(4)],
                    to_disk=True,
                )
                bufs, _ = two_phase_read(
                    fs, "c", [(node, 0, n) for node in range(4)],
                    from_disk=True,
                )
                relayout(fs, "c", _block(2, 2 * n))
                for node in range(4):
                    fs.set_view("c", node, round_robin(4, 64), element=node)
                after = fs.read(
                    "c", [(node, 0, n) for node in range(4)], from_disk=True
                )
                results[mode] = (
                    [bytes(b) for b in bufs], [bytes(b) for b in after]
                )
            finally:
                fs.close()
        assert results["thread"] == results["process"]
        # And both equal the source.
        data, n = _striped_workload(3)
        assert results["thread"][0] == [bytes(data[i]) for i in range(4)]

    def test_service_identical(self):
        outs = {}
        for mode in ("thread", "process"):
            fs = Clusterfile(ClusterConfig(), workers_mode=mode)
            try:
                fs.create("s", round_robin(4, 64))
                for node in range(4):
                    fs.set_view("s", node, round_robin(4, 64), element=node)
                rng = np.random.default_rng(9)
                with FileService(fs, workers=3, max_batch=4) as svc:
                    for k in range(24):
                        svc.submit_write(
                            "s", k % 4, (k // 4) * 64,
                            rng.integers(0, 256, 64, dtype=np.uint8),
                        )
                    assert svc.drain(timeout=120)
                outs[mode] = [
                    bytes(b)
                    for b in fs.read(
                        "s", [(node, 0, 512) for node in range(4)]
                    )
                ]
            finally:
                fs.close()
        assert outs["thread"] == outs["process"]

    @pytest.mark.parametrize(
        "file_part, view_part, nbytes",
        [
            (round_robin(4, 64), round_robin(1, 64), 40 << 20),
            (round_robin(4, 2), round_robin(2, 3), 4 << 20),
        ],
        ids=["40MiB-contiguous", "4MiB-cyclic2x3-over-cyclic4x2"],
    )
    def test_single_large_request_identical(self, file_part, view_part,
                                            nbytes):
        """One request whose payload, or whose job segment lists, are
        larger than any fixed-size shared buffer the pool could hold."""
        data = np.random.default_rng(11).integers(0, 256, nbytes,
                                                  dtype=np.uint8)
        outs = {}
        for mode in ("thread", "process"):
            fs = Clusterfile(ClusterConfig(), workers_mode=mode)
            try:
                fs.create("big", file_part)
                fs.set_view("big", 0, view_part, element=0)
                fs.write("big", [(0, 0, data)], to_disk=True)
                (out,) = fs.read("big", [(0, 0, nbytes)], from_disk=True)
                outs[mode] = bytes(out)
            finally:
                fs.close()
        assert outs["process"] == outs["thread"] == bytes(data)

    def test_checkpoint_store_process_mode(self):
        rng = np.random.default_rng(13)
        arr = rng.integers(0, 256, 2048, dtype=np.uint8)
        store = CheckpointStore(workers_mode="process", workers=2)
        try:
            part = _block(4, 512)
            pieces = [arr[e * 512:(e + 1) * 512] for e in range(4)]
            store.save("ck", pieces, part, shape=(2048,))
            np.testing.assert_array_equal(store.load_array("ck"), arr)
        finally:
            store.close()


class TestTelemetryAcrossProcesses:
    def test_worker_spans_graft_under_parent_root(self):
        from repro.obs.span import Tracer

        fs = Clusterfile(ClusterConfig(), workers_mode="process")
        try:
            fs.create("t", round_robin(4, 64))
            for node in range(4):
                fs.set_view("t", node, round_robin(4, 64), element=node)
            tracer = Tracer("mp-test")
            with tracer.activate():
                fs.write(
                    "t", [(0, 0, np.zeros(256, dtype=np.uint8))],
                    to_disk=True,
                )
            (root,) = tracer.roots
            assert root.name == "parallel_write"
            workers = [c for c in root.children if c.name == "mp.worker"]
            assert workers, "worker spans must graft under the op root"
            assert all("pid" in w.attrs for w in workers)
            assert any(
                g.name == "server.write"
                for w in workers for g in w.children
            )
        finally:
            fs.close()

    def test_worker_counters_fold_into_parent_registry(self):
        obs_metrics.reset_metrics()
        _roundtrip("process", 0, True)
        snap = obs_metrics.snapshot()
        assert snap.get("mp.worker.batches", 0) > 0
        assert snap.get("mp.worker.jobs", 0) > 0

    def test_idle_workers_get_no_command(self):
        fs = Clusterfile(ClusterConfig(), workers_mode="process", workers=2)
        try:
            fs.create("t", round_robin(4, 64))
            fs.set_view("t", 0, round_robin(4, 64), element=0)
            batches = _counter("mp.worker.batches")
            # 64 bytes at view offset 0 all land in subfile 0, which
            # worker 0 of 2 owns.
            fs.write("t", [(0, 0, np.zeros(64, dtype=np.uint8))],
                     to_disk=True)
            assert _counter("mp.worker.batches") - batches == 1
        finally:
            fs.close()

    def test_trace_cli_round_trips_process_mode(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools", "trace", "r", "c",
             "32", "4", "--mode", "process", "--json", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        roots = json.loads(out.read_text())

        def names(node):
            yield node["name"]
            for c in node.get("children", []):
                yield from names(c)

        all_names = [n for r in roots for n in names(r)]
        assert "mp.worker" in all_names
        assert "server.write" in all_names


class TestChaosProcessMode:
    def test_chaos_run_byte_identical_in_process_mode(self):
        from repro.conformance import default_plan, run

        report = run({"mode": "process"}, 0, default_plan(seed=0))
        assert report["ok"], report
        assert all(p["ok"] for p in report["paths"].values())
        # Every deployment path ran its rounds inside the pool.
        for name in ("write_read", "relayout", "collective"):
            assert report["paths"][name]["worker_jobs"] > 0, name

    @pytest.mark.parametrize(
        "plan", [DROP_AND_CORRUPT, CRASH], ids=["drop+corrupt", "crash"]
    )
    def test_faults_are_handled_inside_the_workers(self, plan):
        """Retry rounds, replica fan-out, failover reads and degraded
        writes are served by the pool, with the recovery facts thread
        mode reports for the same seed."""
        data, n = _striped_workload(7)
        facts = {}
        for mode in ("thread", "process"):
            fs = Clusterfile(
                ClusterConfig(),
                fault_injector=FaultInjector(plan),
                workers_mode=mode,
            )
            try:
                fs.create("f", round_robin(4, 64), replication=2)
                for node in range(4):
                    fs.set_view("f", node, round_robin(4, 64), element=node)
                jobs = _counter("mp.worker.jobs")
                wres = fs.write(
                    "f", [(node, 0, data[node]) for node in range(4)],
                    to_disk=True,
                )
                bufs, rres = fs.read_with_result(
                    "f", [(node, 0, n) for node in range(4)], from_disk=True
                )
                assert (_counter("mp.worker.jobs") > jobs) == (
                    mode == "process"
                )
            finally:
                fs.close()
            assert [bytes(b) for b in bufs] == [
                bytes(data[node]) for node in range(4)
            ]
            facts[mode] = {
                "retries": wres.retries + rres.retries,
                "failed_over": rres.failed_over,
                "degraded": wres.degraded,
            }
        assert facts["process"] == facts["thread"]
        assert any(facts["thread"].values()), "the plan must bite"


class TestHygiene:
    def test_no_segments_leak_across_modes(self):
        before = set(shm_segments_alive())
        _roundtrip("process", 4, True)
        assert set(shm_segments_alive()) == before
