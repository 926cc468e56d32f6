"""End-to-end chaos: byte-exactness of all four data paths under
injected faults, reproducibility of the schedule, and the hard failure
modes (budget exhaustion, no live replica)."""

import numpy as np
import pytest

from repro import build_plan, distribute, round_robin
from repro.clusterfile import Clusterfile
from repro.clusterfile.engine import run_shuffle
from repro.clusterfile.relayout import relayout
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    NoLiveReplica,
    RetryBudgetExceeded,
    RetryPolicy,
)
from repro.faults.chaos import default_plan, run_chaos
from repro.simulation import ClusterConfig
from repro.simulation.network import NetworkModel


def _small_fs(plan, replication=1, policy=None):
    fs = Clusterfile(
        ClusterConfig(),
        fault_injector=FaultInjector(plan) if plan is not None else None,
        retry_policy=policy,
    )
    fs.create("f", round_robin(4, 8), replication=replication)
    for node in range(4):
        fs.set_view("f", node, round_robin(4, 8), element=node)
    return fs


class TestByteExactnessUnderChaos:
    def test_all_paths_survive_drop_and_corrupt(self):
        plan = default_plan(seed=0, drop=0.10, corrupt=0.10)
        report, ok = run_chaos(plan, n_bytes=2048, nprocs=4, replication=2)
        assert ok, report
        assert all(p["ok"] for p in report["paths"].values())

    def test_all_paths_survive_single_crash(self):
        plan = default_plan(
            seed=1, drop=0.05, corrupt=0.05, crash_node=1, slow_node=0,
            slow_factor=2.0,
        )
        report, ok = run_chaos(plan, n_bytes=2048, nprocs=4, replication=2)
        assert ok, report
        # A crashed primary forces the read path to fail over and the
        # write path to acknowledge degradation.
        assert report["paths"]["write_read"]["failed_over"] > 0
        assert report["paths"]["write_read"]["degraded"]

    def test_same_seed_reproduces_the_report(self):
        plan = default_plan(seed=5, drop=0.10, corrupt=0.10)
        a, _ = run_chaos(plan, n_bytes=1024, nprocs=4, replication=2)
        b, _ = run_chaos(plan, n_bytes=1024, nprocs=4, replication=2)
        # Global metrics differ (process-wide counters); the per-path
        # recovery facts and the plan must match exactly.
        assert a["paths"] == b["paths"]
        assert a["plan"] == b["plan"]

    @staticmethod
    def _one_path(path, plan):
        """Run one data path at ``replication=1``; returns its bytes,
        its modelled numbers and its span-name sequence."""
        if path == "shuffle":
            src, dst = round_robin(4, 8), round_robin(2, 16)
            linear = np.arange(320, dtype=np.uint8)
            sh = run_shuffle(
                build_plan(src, dst),
                distribute(linear, src),
                320,
                network=NetworkModel(),
                injector=FaultInjector(plan) if plan is not None else None,
            )
            return (
                [b.tobytes() for b in sh.buffers],
                (sh.time_s, sh.messages, sh.off_node_bytes),
                [sp.name for sp in sh.trace.walk()],
            )
        # Logical chunks of 2 over physical chunks of 8: every message
        # gathers on the client and scatters on the server.
        fs = Clusterfile(
            ClusterConfig(),
            fault_injector=FaultInjector(plan) if plan is not None else None,
        )
        fs.create("f", round_robin(4, 8))
        for node in range(4):
            fs.set_view("f", node, round_robin(4, 2), element=node)
        data = {n: np.arange(16, dtype=np.uint8) + 16 * n for n in range(4)}
        res = fs.write("f", [(n, 0, data[n]) for n in range(4)], to_disk=True)
        if path == "relayout":
            rl = relayout(fs, "f", round_robin(2, 16))
            return (
                fs.linear_contents("f", 64).tobytes(),
                (rl.makespan_s, rl.bytes_moved, rl.cross_node_messages),
                [sp.name for sp in rl.trace.walk()],
            )
        moved = fs.linear_contents("f", 64).tobytes()
        if path == "read":
            bufs, res = fs.read_with_result(
                "f", [(n, 0, 16) for n in range(4)], from_disk=True
            )
            moved = [b.tobytes() for b in bufs]
        modelled = (
            {n: (bd.t_w_bc, bd.t_w_disk) for n, bd in res.per_compute.items()},
            {n: (sb.t_sc_bc, sb.t_sc_disk) for n, sb in res.per_io.items()},
            res.messages,
            res.payload_bytes,
        )
        return moved, modelled, [sp.name for sp in res.trace.walk()]

    @pytest.mark.parametrize("path", ["write", "read", "relayout", "shuffle"])
    def test_empty_plan_is_invisible(self, path, monkeypatch):
        """No injector is the degenerate case of the one round loop: an
        injector with no rules takes the same path and leaves the same
        bytes, modelled times and spans — and neither ever hashes a
        payload (CRCs are stamped only when a fate is not ok)."""

        def no_checksum(_payload):
            raise AssertionError("checksum() on an op whose fates are all ok")

        for module in ("engine", "server"):
            monkeypatch.setattr(
                f"repro.clusterfile.{module}.checksum", no_checksum
            )
        plain = self._one_path(path, None)
        armed = self._one_path(path, FaultPlan())
        assert plain[0] == armed[0]  # bytes
        assert plain[1] == armed[1]  # modelled numbers, exactly
        assert plain[2] == armed[2]  # span-name sequence
        assert "retry" not in plain[2]

    def test_result_fields_quiet_without_faults(self):
        fs = _small_fs(FaultPlan())
        res = fs.write("f", [(0, 0, np.ones(16, np.uint8))])
        assert res.retries == 0
        assert not res.failed_over
        assert not res.degraded


class TestHardFailureModes:
    POLICY = RetryPolicy(max_retries=2)

    def test_certain_drop_exhausts_the_budget(self):
        plan = FaultPlan(seed=0, rules=(FaultRule(kind="drop", rate=1.0),))
        fs = _small_fs(plan, policy=self.POLICY)
        with pytest.raises(RetryBudgetExceeded):
            fs.write("f", [(0, 0, np.ones(16, np.uint8))])

    def test_certain_corruption_exhausts_the_budget(self):
        plan = FaultPlan(seed=0, rules=(FaultRule(kind="corrupt", rate=1.0),))
        fs = _small_fs(plan, policy=self.POLICY)
        with pytest.raises(RetryBudgetExceeded):
            fs.write("f", [(0, 0, np.ones(16, np.uint8))])

    def test_unreplicated_crash_means_no_live_replica(self):
        plan = FaultPlan(seed=0, rules=(FaultRule(kind="crash", io_node=0),))
        fs = _small_fs(plan, replication=1)
        with pytest.raises(NoLiveReplica):
            fs.write("f", [(0, 0, np.ones(16, np.uint8))])

    def test_replica_saves_the_same_write(self):
        plan = FaultPlan(seed=0, rules=(FaultRule(kind="crash", io_node=0),))
        fs = _small_fs(plan, replication=2)
        res = fs.write("f", [(0, 0, np.full(16, 9, np.uint8))], to_disk=True)
        assert res.degraded
        got, rres = fs.read_with_result("f", [(0, 0, 16)], from_disk=True)
        assert got[0].tolist() == [9] * 16
        assert rres.failed_over > 0


class TestExecutorVariantsUnderChaos:
    """The parallel and windowed (out-of-core) executors under fault
    injection: same bytes, same deterministic retry schedule, same
    budget failures as the serial robust path."""

    @staticmethod
    def _case(seed=3):
        src = round_robin(4, 8)
        dst = round_robin(2, 16)
        length = 320
        data = np.random.default_rng(seed).integers(
            0, 256, length, dtype=np.uint8
        )
        return build_plan(src, dst), distribute(data, src), length

    FAULTS = FaultPlan(
        seed=7,
        rules=(
            FaultRule(kind="drop", rate=0.25, op="shuffle"),
            FaultRule(kind="corrupt", rate=0.25, op="shuffle"),
        ),
    )

    def test_variants_byte_identical_under_drop_and_corrupt(self):
        plan, src_buffers, length = self._case()
        # Fresh injector per call: every run is operation id 0 of the
        # same fault plan, so all three draw identical fates.
        serial = run_shuffle(
            plan, src_buffers, length, injector=FaultInjector(self.FAULTS)
        )
        assert serial.retries > 0  # the plan actually bites
        threaded = run_shuffle(
            plan,
            src_buffers,
            length,
            parallel=True,
            injector=FaultInjector(self.FAULTS),
        )
        windowed = run_shuffle(
            plan,
            src_buffers,
            length,
            injector=FaultInjector(self.FAULTS),
            window_bytes=13,
        )
        for variant in (threaded, windowed):
            assert variant.retries == serial.retries
            for a, b in zip(serial.buffers, variant.buffers):
                np.testing.assert_array_equal(a, b)

    def test_budget_exhaustion_hits_every_variant(self):
        plan, src_buffers, length = self._case()
        certain = FaultPlan(
            seed=0, rules=(FaultRule(kind="drop", rate=1.0),)
        )
        policy = RetryPolicy(max_retries=2)
        for kwargs in (
            {},
            {"parallel": True},
            {"window_bytes": 17},
        ):
            with pytest.raises(RetryBudgetExceeded):
                run_shuffle(
                    plan,
                    src_buffers,
                    length,
                    injector=FaultInjector(certain),
                    retry_policy=policy,
                    **kwargs,
                )

    def test_fault_free_windowed_path_matches_plain(self):
        plan, src_buffers, length = self._case()
        plain = run_shuffle(plan, src_buffers, length)
        windowed = run_shuffle(plan, src_buffers, length, window_bytes=11)
        for a, b in zip(plain.buffers, windowed.buffers):
            np.testing.assert_array_equal(a, b)

    def test_parallel_and_windowed_are_mutually_exclusive(self):
        plan, src_buffers, length = self._case()
        with pytest.raises(ValueError):
            run_shuffle(
                plan, src_buffers, length, parallel=True, window_bytes=8
            )


class TestResultAccounting:
    def test_retries_counted_on_the_result(self):
        # Drop scoped to the write op at a rate low enough to always
        # recover within the default budget but high enough to fire.
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="drop", rate=0.4, op="write"),)
        )
        fs = _small_fs(plan, replication=2)
        data = {n: np.full(16, n + 1, np.uint8) for n in range(4)}
        res = fs.write("f", [(n, 0, data[n]) for n in range(4)], to_disk=True)
        assert res.retries > 0
        got, _ = fs.read_with_result(
            "f", [(n, 0, 16) for n in range(4)], from_disk=True
        )
        for n in range(4):
            np.testing.assert_array_equal(got[n], data[n])

    def test_fault_free_replication_is_not_degraded(self):
        fs = _small_fs(None, replication=2)
        res = fs.write("f", [(0, 0, np.ones(16, np.uint8))], to_disk=True)
        assert not res.degraded
        assert res.retries == 0
