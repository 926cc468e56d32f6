"""Torn-write and corruption recovery: a real journaled workload,
damaged at every record boundary, must recover to a *committed prefix*
of itself — never raise past :class:`RecoveryError`, and never
resurrect a write whose commit record did not survive."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.clusterfile.fs import Clusterfile
from repro.core.falls import Falls
from repro.core.partition import Partition
from repro.durability import DurabilityManager, RecoveryError
from repro.durability.journal import KIND_COMMIT, scan_journal
from repro.durability.manager import COMMIT_LOG, MANIFEST_NAME, SNAPSHOT_NAME
from repro.simulation.cluster import ClusterConfig

NPROCS = 4
CHUNK = 16
NAME = "torn"


def _cyclic(elements, chunk):
    period = elements * chunk
    return Partition(
        [Falls(e * chunk, (e + 1) * chunk - 1, period, 1)
         for e in range(elements)]
    )


def _ops(seed, n=24):
    """Deterministic ``(seq, node, offset, payload)`` ops, batched in
    threes (one group commit per batch, like the service's coalescing).
    Payloads never repeat a byte value, so a lost batch is visible."""
    rng = np.random.default_rng(seed)
    ops = []
    for seq in range(n):
        node = int(rng.integers(NPROCS))
        offset = int(rng.integers(0, 200))
        length = int(rng.integers(4, 40))
        payload = rng.integers(1, 255, size=length, dtype=np.uint8)
        ops.append((seq, node, offset, payload))
    return ops


def _fresh_fs():
    fs = Clusterfile(ClusterConfig())
    fs.create(NAME, _cyclic(NPROCS, 2 * CHUNK))
    for node in range(NPROCS):
        fs.set_view(NAME, node, _cyclic(NPROCS, CHUNK), element=node)
    return fs


def _apply(fs, ops):
    for _seq, node, offset, payload in ops:
        fs.write(NAME, [(node, offset, payload)])


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """One journaled run, closed cleanly: the pristine journal image
    every damage test mutates a copy of."""
    root = str(tmp_path_factory.mktemp("pristine") / "journal")
    fs = _fresh_fs()
    manager = DurabilityManager(root)
    manager.register_file(fs, NAME)
    ops = _ops(11)
    for i in range(0, len(ops), 3):
        batch = ops[i : i + 3]
        _apply(fs, batch)
        manager.commit_write(
            fs, NAME, [(s, n, o, p.size) for s, n, o, p in batch]
        )
    manager.close()
    return root, ops


def _recover(root):
    fs = Clusterfile(ClusterConfig())
    manager = DurabilityManager(root)
    report = manager.recover_into(fs)
    manager.close()
    return fs, report[NAME]


def _oracle(ops, stamp):
    """Serial replay of the seq-<=-stamp prefix on a journal-free
    deployment — the naive oracle recovery is diffed against."""
    fs = _fresh_fs()
    _apply(fs, [op for op in ops if op[0] <= stamp])
    return fs


def _assert_committed_prefix(root, ops, full_stamp=None):
    """Recover ``root`` and assert the one allowed outcome: a committed
    prefix, byte-identical to its serial replay."""
    fs, rep = _recover(root)
    stamp = rep["stamp"]
    if full_stamp is not None:
        assert stamp <= full_stamp
    want = _oracle(ops, stamp).linear_contents(NAME)
    got = fs.linear_contents(NAME)
    n = min(got.size, want.size)
    assert np.array_equal(got[:n], want[:n])
    assert not got[n:].any() and not want[n:].any()
    return stamp


class TestTornCommitLog:
    def test_truncation_at_every_record_boundary(self, workload, tmp_path):
        pristine, ops = workload
        commit_path = os.path.join(pristine, NAME, COMMIT_LOG)
        scan = scan_journal(commit_path, expect_kind=KIND_COMMIT)
        boundaries = [12] + [r.end for r in scan.records]
        full_stamp = max(r.stamp for r in scan.records)
        for i, cut in enumerate(boundaries):
            root = str(tmp_path / f"cut{i}")
            shutil.copytree(pristine, root)
            target = os.path.join(root, NAME, COMMIT_LOG)
            with open(target, "r+b") as fh:
                fh.truncate(cut)
            stamp = _assert_committed_prefix(root, ops, full_stamp)
            # Exactly the commits within the cut survive.
            expect = [r.stamp for r in scan.records if r.end <= cut]
            assert stamp == (max(expect) if expect else -1)

    def test_mid_record_truncation(self, workload, tmp_path):
        pristine, ops = workload
        commit_path = os.path.join(pristine, NAME, COMMIT_LOG)
        scan = scan_journal(commit_path, expect_kind=KIND_COMMIT)
        for i, rec in enumerate(scan.records):
            root = str(tmp_path / f"mid{i}")
            shutil.copytree(pristine, root)
            with open(os.path.join(root, NAME, COMMIT_LOG), "r+b") as fh:
                fh.truncate(rec.end - 3)  # tear inside record i
            stamp = _assert_committed_prefix(root, ops)
            prev = [r.stamp for r in scan.records[:i]]
            assert stamp == (max(prev) if prev else -1)

    def test_dropped_commit_never_resurrects_its_writes(
        self, workload, tmp_path
    ):
        """The data journals still hold the last batch's redo records —
        but with its commit record torn off, recovery must not apply
        them (they were never acknowledged)."""
        pristine, ops = workload
        commit_path = os.path.join(pristine, NAME, COMMIT_LOG)
        scan = scan_journal(commit_path, expect_kind=KIND_COMMIT)
        root = str(tmp_path / "drop-last")
        shutil.copytree(pristine, root)
        with open(os.path.join(root, NAME, COMMIT_LOG), "r+b") as fh:
            fh.truncate(scan.records[-2].end)
        fs, rep = _recover(root)
        assert rep["stamp"] == scan.records[-2].stamp
        # The full replay differs from the recovered bytes wherever the
        # dropped batch wrote — proving the writes were not resurrected.
        full = _oracle(ops, scan.records[-1].stamp).linear_contents(NAME)
        got = fs.linear_contents(NAME)
        n = min(got.size, full.size)
        assert not np.array_equal(got[:n], full[:n])

    def test_bit_flip_in_each_commit_record(self, workload, tmp_path):
        pristine, ops = workload
        commit_path = os.path.join(pristine, NAME, COMMIT_LOG)
        scan = scan_journal(commit_path, expect_kind=KIND_COMMIT)
        starts = [12] + [r.end for r in scan.records[:-1]]
        for i, (start, rec) in enumerate(zip(starts, scan.records)):
            root = str(tmp_path / f"flip{i}")
            shutil.copytree(pristine, root)
            target = os.path.join(root, NAME, COMMIT_LOG)
            with open(target, "r+b") as fh:
                fh.seek(start + 10)
                b = fh.read(1)
                fh.seek(start + 10)
                fh.write(bytes([b[0] ^ 0x40]))
            stamp = _assert_committed_prefix(root, ops)
            prev = [r.stamp for r in scan.records[:i]]
            assert stamp == (max(prev) if prev else -1)


class TestTornDataJournals:
    def test_truncating_a_data_journal_tears_its_commits(
        self, workload, tmp_path
    ):
        """A commit whose cut exceeds a data journal's surviving prefix
        is a torn group: recovery must stop *before* it — the committed
        prefix shrinks to the last fully covered commit."""
        pristine, ops = workload
        commit_scan = scan_journal(
            os.path.join(pristine, NAME, COMMIT_LOG),
            expect_kind=KIND_COMMIT,
        )
        full_stamp = max(r.stamp for r in commit_scan.records)
        d = os.path.join(pristine, NAME)
        for sf in sorted(
            p for p in os.listdir(d)
            if p.startswith("sf") and p.endswith(".wal")
        ):
            data_scan = scan_journal(os.path.join(d, sf))
            cuts = [12] + [r.end for r in data_scan.records] + [
                max(12, data_scan.valid_bytes - 5)
            ]
            for i, cut in enumerate(cuts):
                root = str(tmp_path / f"{sf}-{i}")
                shutil.copytree(pristine, root)
                with open(os.path.join(root, NAME, sf), "r+b") as fh:
                    fh.truncate(cut)
                _assert_committed_prefix(root, ops, full_stamp)

    def test_deleted_data_journal_recovers_snapshot_only(
        self, workload, tmp_path
    ):
        pristine, ops = workload
        root = str(tmp_path / "gone")
        shutil.copytree(pristine, root)
        os.remove(os.path.join(root, NAME, "sf0.wal"))
        # Any commit cutting sf0 above zero is torn; the survivors (if
        # any) must still be a consistent prefix.
        _assert_committed_prefix(root, ops)


class TestSnapshotAndManifestDamage:
    def test_corrupt_snapshot_raises_recovery_error_only(
        self, workload, tmp_path
    ):
        pristine, _ops = workload
        snap = os.path.join(pristine, NAME, SNAPSHOT_NAME)
        size = os.path.getsize(snap)
        for i, pos in enumerate({0, 1, 5, 12, size // 2, size - 1}):
            root = str(tmp_path / f"snap{i}")
            shutil.copytree(pristine, root)
            target = os.path.join(root, NAME, SNAPSHOT_NAME)
            with open(target, "r+b") as fh:
                fh.seek(pos)
                b = fh.read(1)
                fh.seek(pos)
                fh.write(bytes([b[0] ^ 0x01]))
            with pytest.raises(RecoveryError):
                _recover(root)

    def test_unreadable_manifest_raises_recovery_error(
        self, workload, tmp_path
    ):
        pristine, _ops = workload
        with open(os.path.join(pristine, NAME, MANIFEST_NAME)) as fh:
            whole = json.load(fh)
        # A complete manifest that lost its crc and had its epoch
        # bumped: read as valid, its journals would be skipped as stale.
        del whole["crc"]
        whole["epoch"] += 1
        junks = ["{not json", json.dumps({"epoch": 3}), json.dumps(whole)]
        for i, junk in enumerate(junks):
            root = str(tmp_path / f"man{i}")
            shutil.copytree(pristine, root)
            with open(
                os.path.join(root, NAME, MANIFEST_NAME), "w"
            ) as fh:
                fh.write(junk)
            with pytest.raises(RecoveryError):
                _recover(root)

    def test_nothing_but_recovery_error_escapes(self, workload, tmp_path):
        """Fuzz whole-directory damage: for a spread of single-byte
        flips across every file under the journal root, recovery either
        succeeds with a consistent prefix or raises RecoveryError —
        no other exception type is documented."""
        pristine, ops = workload
        rng = np.random.default_rng(0)
        d = os.path.join(pristine, NAME)
        files = sorted(os.listdir(d))
        case = 0
        for fname in files:
            size = os.path.getsize(os.path.join(d, fname))
            if size == 0:
                continue
            for pos in rng.integers(0, size, size=4):
                root = str(tmp_path / f"fuzz{case}")
                case += 1
                shutil.copytree(pristine, root)
                target = os.path.join(root, NAME, fname)
                with open(target, "r+b") as fh:
                    fh.seek(int(pos))
                    b = fh.read(1)
                    fh.seek(int(pos))
                    fh.write(bytes([b[0] ^ 0x10]))
                try:
                    _assert_committed_prefix(root, ops)
                except RecoveryError:
                    pass  # the documented failure mode
