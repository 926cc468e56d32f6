"""End-to-end chaos: byte-exactness of all four data paths under
injected faults, reproducibility of the schedule, the hard failure
modes (budget exhaustion, no live replica), and the fault counters."""

import numpy as np
import pytest

from repro import build_plan, distribute, round_robin
from repro.clusterfile import Clusterfile
from repro.clusterfile.engine import run_shuffle
from repro.clusterfile.relayout import relayout
from repro.conformance import default_plan, run
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    NoLiveReplica,
    RetryBudgetExceeded,
    RetryPolicy,
)
from repro.obs import metrics as obs_metrics
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


def _shuffle_case():
    """A 320-byte redistribution ``round_robin(4, 8) -> round_robin(2, 16)``:
    ``(plan, source buffers, file length)``."""
    src, dst = round_robin(4, 8), round_robin(2, 16)
    data = np.random.default_rng(3).integers(0, 256, 320, dtype=np.uint8)
    return build_plan(src, dst), distribute(data, src), 320


class TestByteExactnessUnderChaos:
    def test_all_paths_survive_drop_and_corrupt(self):
        plan = default_plan(seed=0, drop=0.10, corrupt=0.10)
        report = run(None, 0, plan)
        assert report["ok"], report
        assert set(report["paths"]) == {
            "write_read", "relayout", "collective", "reshard"
        }
        assert all(p["ok"] for p in report["paths"].values())

    def test_all_paths_survive_single_crash(self):
        plan = default_plan(
            seed=1, drop=0.05, corrupt=0.05, crash_node=1, slow_node=0,
            slow_factor=2.0,
        )
        report = run(None, 1, plan)
        assert report["ok"], report
        # A crashed primary forces the read path to fail over and the
        # write path to acknowledge degradation.
        assert report["paths"]["write_read"]["failed_over"] > 0
        assert report["paths"]["write_read"]["degraded"]

    def test_same_seed_reproduces_the_report(self):
        plan = default_plan(seed=5, drop=0.10, corrupt=0.10)
        a = run(None, 5, plan)
        b = run(None, 5, plan)
        # Counters are per-run deltas, so the whole report matches:
        # per-path recovery facts, the plan and the fault counters.
        assert a["paths"] == b["paths"]
        assert a["perturbation"] == b["perturbation"]
        assert a == b

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

    def test_certain_drop_exhausts_the_shuffle_budget(self):
        plan, src_buffers, length = _shuffle_case()
        certain = FaultPlan(seed=0, rules=(FaultRule(kind="drop", rate=1.0),))
        with pytest.raises(RetryBudgetExceeded):
            run_shuffle(
                plan,
                src_buffers,
                length,
                injector=FaultInjector(certain),
                retry_policy=self.POLICY,
            )

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

    def test_shuffle_retries_counted_on_the_result(self):
        plan, src_buffers, length = _shuffle_case()
        # Two destination elements, so two fates a round: seed 1 loses
        # some of them.
        faults = FaultPlan(
            seed=1,
            rules=(
                FaultRule(kind="drop", rate=0.25, op="shuffle"),
                FaultRule(kind="corrupt", rate=0.25, op="shuffle"),
            ),
        )
        plain = run_shuffle(plan, src_buffers, length)
        sh = run_shuffle(
            plan, src_buffers, length, injector=FaultInjector(faults)
        )
        assert sh.retries > 0
        for a, b in zip(plain.buffers, sh.buffers):
            np.testing.assert_array_equal(a, b)


class TestChecksumFailureCounter:
    """Under a corrupt-only plan with non-empty payloads every retry is
    one corruption a checksum caught, so ``faults.checksum_failures``
    moves by exactly the operation's retries — wherever the check runs."""

    CORRUPT = FaultPlan(seed=2, rules=(FaultRule(kind="corrupt", rate=0.3),))
    DATA = {n: np.arange(16, dtype=np.uint8) + 16 * n + 1 for n in range(4)}

    @staticmethod
    def _failures():
        name = "faults.checksum_failures"
        return obs_metrics.snapshot(name).get(name, 0)

    def _fs(self, mode):
        # Logical chunks of 2 over physical chunks of 8: sixteen messages.
        fs = Clusterfile(
            ClusterConfig(),
            fault_injector=FaultInjector(self.CORRUPT),
            workers_mode=mode,
        )
        fs.create("f", round_robin(4, 8))
        for node in range(4):
            fs.set_view("f", node, round_robin(4, 2), element=node)
        return fs

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_write_rejected_by_the_server(self, mode):
        fs = self._fs(mode)
        try:
            before = self._failures()
            res = fs.write("f", [(n, 0, self.DATA[n]) for n in range(4)])
            assert res.retries > 0
            assert self._failures() - before == res.retries
        finally:
            fs.close()

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_read_reply_rejected_by_the_client(self, mode):
        fs = self._fs(mode)
        try:
            fs.write("f", [(n, 0, self.DATA[n]) for n in range(4)])
            before = self._failures()
            bufs, res = fs.read_with_result(
                "f", [(n, 0, 16) for n in range(4)]
            )
            assert res.retries > 0
            assert self._failures() - before == res.retries
            for n in range(4):
                np.testing.assert_array_equal(bufs[n], self.DATA[n])
        finally:
            fs.close()

    def test_shuffle_transfer_rejected_before_the_copy(self):
        plan, src_buffers, length = _shuffle_case()
        before = self._failures()
        sh = run_shuffle(
            plan, src_buffers, length, injector=FaultInjector(self.CORRUPT)
        )
        assert sh.retries > 0
        assert self._failures() - before == sh.retries
