"""Kill-and-restart differential tests.

Two layers:

* **Real SIGKILL** — :func:`repro.conformance.run` with a ``sigkill``
  perturbation hosts the journaled service in a subprocess, kills it at a
  randomized point (mid-batch, mid-group-commit, mid-snapshot), and
  diffs recovery against a serial replay of the acknowledged-ticket
  prefix.  A few full runs here; the CI chaos job sweeps more seeds.
* **Crash simulation** — the same group-commit/recover protocol driven
  in-process over 100+ randomized nested-FALLS partitions (the
  existing ``nested_partitions()`` strategy), with the crash modeled
  as truncating a journal at an arbitrary drawn point.  Recovery must
  land on a committed prefix byte-identical to its serial replay for
  *every* partition shape and cut.
"""

import json
import os
import shutil
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusterfile.fs import Clusterfile
from repro.conformance import replay, run
from repro.durability import DurabilityManager, scan_journal
from repro.durability.journal import HEADER_SIZE
from repro.durability.manager import COMMIT_LOG
from repro.simulation.cluster import ClusterConfig

from ..properties.strategies import nested_partitions

NAME = "sim"


def _sigkill(by, after=None):
    return {"kind": "sigkill", "by": by, "after": after}


def _repro_segments():
    return {e for e in os.listdir("/dev/shm") if e.startswith("repro-")}


def _processes_running(marker):
    """Pids of live processes whose command line names ``marker``."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if marker.encode() in fh.read():
                    pids.append(int(pid))
        except OSError:  # exited meanwhile
            pass
    return pids


class TestRealSigkill:
    def test_time_mode_kill_recovers_acked_prefix(self):
        report = run(
            {"ops": 80, "replication": 1, "snapshot_every": 0},
            3,
            _sigkill("time"),
        )
        assert report["killed"]
        assert report["ok"], report

    def test_acks_mode_kill_with_snapshots_recovers_acked_prefix(self):
        """Ack-triggered kill with checkpoint boundaries sprinkled in:
        kills land mid-snapshot and right after acks — the case that
        once lost acked writes to an unflushed journal header."""
        report = run(
            {"ops": 80, "replication": 1, "snapshot_every": 10},
            5,
            _sigkill("acks"),
        )
        assert report["killed"]
        assert report["ok"], report

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_process_mode_kill_recovers_and_leaks_no_segment(self, tmp_path):
        """The victim honours ``mode``: its I/O nodes run on a worker
        pool over shared-memory stores, and a SIGKILL mid-stream leaves
        no segment behind (the driver reclaims the dead victim's), once
        the orphaned pool workers -- forked, so their command line is
        the victim's, naming its workdir -- have exited."""
        before = _repro_segments()
        workdir = str(tmp_path / "run")
        report = run(
            {"mode": "process", "ops": 80, "snapshot_every": 10},
            6,
            _sigkill("time"),
            workdir=workdir,
        )
        assert report["victim_mode"] == "process"
        assert report["killed"]
        assert report["ok"], report
        deadline = time.monotonic() + 10.0
        while _processes_running(workdir) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _processes_running(workdir)
        assert not _repro_segments() - before

    def test_dropped_commit_record_is_caught(self, monkeypatch, tmp_path):
        """The oracle can fail: a recovery that loses the last commit
        record covering an acked write leaves that ack uncovered, and
        the replayed artifact reaches the same verdicts."""

        class DropLastAckedCommit(DurabilityManager):
            def recover_into(self, fs):
                log = os.path.join(os.path.dirname(self.root), "acked.log")
                with open(log) as fh:
                    lines = fh.read().split("\n")[:-1]
                acks = [line.rsplit(",", 1) for line in lines]
                for name in {n for n, _ in acks}:
                    seqs = {int(s) for n, s in acks if n == name}
                    path = os.path.join(self.file_dir(name), COMMIT_LOG)
                    start, cut = HEADER_SIZE, None
                    for rec in scan_journal(path).records:
                        if seqs & set(json.loads(rec.payload)["seqs"]):
                            cut = start
                        start = rec.end
                    if cut is not None:
                        os.truncate(path, cut)
                return super().recover_into(fs)

        monkeypatch.setattr(
            "repro.conformance.DurabilityManager", DropLastAckedCommit
        )
        report = run(
            {"snapshot_every": 0}, 4, _sigkill("acks", 20),
            workdir=str(tmp_path / "run"),
        )
        again = replay(
            json.loads(json.dumps(report)), workdir=str(tmp_path / "replay")
        )
        for r in (report, again):
            assert r["total_acked"] >= 20
            assert not r["ok"]
            assert not any(f["acked_covered"] for f in r["files"].values())
        assert again["perturbation"] == report["perturbation"]


def _deployment(physical):
    nodes = max(1, physical.num_elements)
    fs = Clusterfile(
        ClusterConfig(compute_nodes=nodes, io_nodes=nodes)
    )
    fs.create(NAME, physical)
    for node in range(physical.num_elements):
        fs.set_view(NAME, node, physical, element=node)
    return fs


def _workload(physical, seed, n_ops=12):
    """Deterministic ``(seq, node, offset, payload)`` ops through the
    partition's own views (each node writes its element)."""
    rng = np.random.default_rng(seed)
    length = 2 * physical.size
    ops = []
    for seq in range(n_ops):
        node = int(rng.integers(physical.num_elements))
        elen = physical.element_length(node, length)
        if elen < 1:
            continue
        offset = int(rng.integers(0, elen))
        span = int(rng.integers(1, min(24, elen - offset) + 1))
        payload = rng.integers(1, 255, size=span, dtype=np.uint8)
        ops.append((seq, node, offset, payload))
    return ops


def _apply(fs, ops):
    for _seq, node, offset, payload in ops:
        fs.write(NAME, [(node, offset, payload)])


class TestCrashSimulationProperties:
    @given(
        physical=nested_partitions(max_displacement=0),
        seed=st.integers(0, 2**16),
        victim=st.integers(0, 10**6),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_truncated_journal_recovers_committed_prefix(
        self, physical, seed, victim, frac
    ):
        """Journal a batched workload under a random nested-FALLS
        partition, tear one journal at a random point, recover, and
        byte-compare against a serial replay of the recovered stamp's
        prefix on a journal-free deployment (the naive oracle)."""
        ops = _workload(physical, seed)
        if not ops:
            return
        root = tempfile.mkdtemp(prefix="crashsim-")
        try:
            fs = _deployment(physical)
            manager = DurabilityManager(os.path.join(root, "j"))
            manager.register_file(fs, NAME)
            for i in range(0, len(ops), 3):
                batch = ops[i : i + 3]
                _apply(fs, batch)
                manager.commit_write(
                    fs, NAME, [(s, n, o, p.size) for s, n, o, p in batch]
                )
            full_stamp = manager.last_stamp(NAME)
            manager.close()  # flush everything: the pre-crash image

            # The crash: tear one journal at an arbitrary point.
            d = manager.file_dir(NAME)
            wals = sorted(
                p for p in os.listdir(d) if p.endswith(".wal")
            )
            target = os.path.join(d, wals[victim % len(wals)])
            size = os.path.getsize(target)
            cut = int(frac * size)
            with open(target, "r+b") as fh:
                fh.truncate(cut)

            fs2 = _deployment(physical)
            fs2.unlink(NAME)
            m2 = DurabilityManager(os.path.join(root, "j"))
            report = m2.recover_into(fs2)
            m2.close()
            stamp = report[NAME]["stamp"]
            assert stamp <= full_stamp
            if cut == size:
                assert stamp == full_stamp  # no damage: nothing lost

            oracle = _deployment(physical)
            _apply(oracle, [op for op in ops if op[0] <= stamp])
            got = fs2.linear_contents(NAME)
            want = oracle.linear_contents(NAME)
            n = min(got.size, want.size)
            assert np.array_equal(got[:n], want[:n])
            assert not got[n:].any() and not want[n:].any()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @given(
        physical=nested_partitions(max_displacement=0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_clean_restart_is_lossless(self, physical, seed):
        """No damage at all: recovery must reproduce the full state and
        the full stamp for any nested partition."""
        ops = _workload(physical, seed)
        if not ops:
            return
        root = tempfile.mkdtemp(prefix="crashsim-")
        try:
            fs = _deployment(physical)
            manager = DurabilityManager(os.path.join(root, "j"))
            manager.register_file(fs, NAME)
            for i in range(0, len(ops), 2):
                batch = ops[i : i + 2]
                _apply(fs, batch)
                manager.commit_write(
                    fs, NAME, [(s, n, o, p.size) for s, n, o, p in batch]
                )
            full_stamp = manager.last_stamp(NAME)
            manager.close()

            fs2 = _deployment(physical)
            fs2.unlink(NAME)
            m2 = DurabilityManager(os.path.join(root, "j"))
            report = m2.recover_into(fs2)
            m2.close()
            assert report[NAME]["stamp"] == full_stamp
            got = fs2.linear_contents(NAME)
            want = fs.linear_contents(NAME)
            n = min(got.size, want.size)
            assert np.array_equal(got[:n], want[:n])
            assert not got[n:].any() and not want[n:].any()
        finally:
            shutil.rmtree(root, ignore_errors=True)
