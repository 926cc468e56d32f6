"""Serial-equivalence of snapshot bytes (the scda property).

The same logical file — whatever node count stored it, whatever
partition scattered it, thread or process workers —
must emit *byte-identical* snapshot files.  Every test here builds one
logical byte sequence many different ways and compares the raw
snapshot bytes with ``==``, no parsing involved.
"""

import os

import numpy as np
import pytest

from repro.clusterfile.fs import Clusterfile
from repro.core.falls import Falls
from repro.core.partition import Partition
from repro.durability import DurabilityManager
from repro.durability.manager import SNAPSHOT_NAME
from repro.redistribution.executor import execute_plan
from repro.redistribution.plan_cache import get_plan
from repro.simulation.cluster import ClusterConfig

LENGTH = 768


def _data():
    # All bytes nonzero: every configuration sees the same natural
    # file length (a zero tail would be indistinguishable from a hole).
    return (
        np.random.default_rng(42).integers(1, 255, LENGTH, dtype=np.uint8)
    )


def _cyclic(elements, chunk):
    period = elements * chunk
    return Partition(
        [Falls(e * chunk, (e + 1) * chunk - 1, period, 1)
         for e in range(elements)]
    )


def _linear():
    return Partition([Falls(0, LENGTH - 1, LENGTH, 1)])


def _pieces(physical):
    """The logical bytes distributed under ``physical``."""
    return execute_plan(get_plan(_linear(), physical), [_data()], LENGTH)


def _snapshot_via_manager(tmp_path, tag, physical, workers_mode="thread"):
    """Store the logical bytes under one configuration and checkpoint;
    returns the raw snapshot bytes."""
    fs = Clusterfile(
        ClusterConfig(
            compute_nodes=max(1, physical.num_elements),
            io_nodes=max(1, physical.num_elements),
        ),
        workers_mode=workers_mode,
        workers=2,
    )
    try:
        cfile = fs.create("f", physical)
        for s, piece in enumerate(_pieces(physical)):
            if piece.size:
                cfile.stores[s].view(0, piece.size - 1)[:] = piece
        manager = DurabilityManager(str(tmp_path / tag))
        manager.register_file(fs, "f")
        manager.close()
        with open(
            os.path.join(manager.file_dir("f"), SNAPSHOT_NAME), "rb"
        ) as fh:
            return fh.read()
    finally:
        fs.close()


class TestSnapshotSerialEquivalence:
    def test_identical_across_nodes_and_partitions(self, tmp_path):
        """1/2/4 nodes, four partitions: one snapshot byte sequence."""
        blobs = {}
        for nodes, chunk in ((1, LENGTH), (2, 32), (4, 16), (4, 48)):
            tag = f"n{nodes}-c{chunk}"
            blobs[tag] = _snapshot_via_manager(
                tmp_path, tag, _cyclic(nodes, chunk)
            )
        reference = next(iter(blobs.values()))
        for tag, blob in blobs.items():
            assert blob == reference, tag

    def test_identical_across_thread_and_process_executors(self, tmp_path):
        a = _snapshot_via_manager(
            tmp_path, "thr", _cyclic(2, 32), workers_mode="thread"
        )
        b = _snapshot_via_manager(
            tmp_path, "proc", _cyclic(4, 16), workers_mode="process"
        )
        assert a == b

    def test_view_writes_match_direct_store_fill(self, tmp_path):
        """Writing through per-node views (the service path) and filling
        stores directly (the restore path) snapshot identically."""
        data = _data()
        physical = _cyclic(4, 16)
        fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
        fs.create("f", physical)
        for node in range(4):
            fs.set_view("f", node, physical, element=node)
            elen = physical.element_length(node, LENGTH)
            piece = np.asarray(
                [data[i] for i in range(LENGTH)
                 if (i // 16) % 4 == node], dtype=np.uint8
            )
            assert piece.size == elen
            fs.write("f", [(node, 0, piece)])
        manager = DurabilityManager(str(tmp_path / "views"))
        manager.register_file(fs, "f")
        manager.close()
        via_views = open(
            os.path.join(manager.file_dir("f"), SNAPSHOT_NAME), "rb"
        ).read()
        direct = _snapshot_via_manager(tmp_path, "direct", _cyclic(2, 32))
        assert via_views == direct

    def test_snapshot_survives_relayout_unchanged(self, tmp_path):
        """A re-layout to a different physical partition must not change
        the snapshot bytes — the payload is logical, the partition only
        lives in the manifest."""
        from repro.clusterfile.relayout import relayout

        fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
        physical = _cyclic(4, 16)
        cfile = fs.create("f", physical)
        for s, piece in enumerate(_pieces(physical)):
            if piece.size:
                cfile.stores[s].view(0, piece.size - 1)[:] = piece
        manager = DurabilityManager(str(tmp_path / "rl"))
        manager.register_file(fs, "f")
        snap = os.path.join(manager.file_dir("f"), SNAPSHOT_NAME)
        before = open(snap, "rb").read()
        relayout(fs, "f", _cyclic(2, 48))
        manager.checkpoint(fs, "f")
        after = open(snap, "rb").read()
        manager.close()
        assert before == after


class TestCheckpointStoreSnapshots:
    def _store_blob(self, tmp_path, tag, partition, nodes,
                    workers_mode="thread"):
        from repro.apps.checkpoint import CheckpointStore
        from repro.redistribution.executor import distribute

        data = _data()
        store = CheckpointStore(
            ClusterConfig(compute_nodes=nodes, io_nodes=nodes),
            workers_mode=workers_mode,
            workers=2,
        )
        try:
            pieces = distribute(data, partition)
            store.save("ck", pieces, partition, (LENGTH,), np.uint8)
            path = str(tmp_path / f"{tag}.snap")
            store.export_snapshot("ck", path)
            return open(path, "rb").read()
        finally:
            store.close()

    def test_export_identical_across_writer_configs(self, tmp_path):
        blobs = [
            self._store_blob(tmp_path, "a", _cyclic(1, LENGTH), 1),
            self._store_blob(tmp_path, "b", _cyclic(2, 32), 2),
            self._store_blob(tmp_path, "c", _cyclic(4, 16), 4),
            self._store_blob(
                tmp_path, "d", _cyclic(4, 48), 4, workers_mode="process"
            ),
        ]
        assert all(b == blobs[0] for b in blobs)

    def test_import_round_trip(self, tmp_path):
        from repro.apps.checkpoint import CheckpointStore
        from repro.durability import RecoveryError
        from repro.redistribution.executor import distribute

        data = _data()
        src = CheckpointStore(ClusterConfig(compute_nodes=2, io_nodes=2))
        dst = CheckpointStore(ClusterConfig(compute_nodes=4, io_nodes=4))
        try:
            partition = _cyclic(2, 32)
            src.save(
                "ck", distribute(data, partition), partition,
                (LENGTH,), np.uint8,
            )
            path = str(tmp_path / "x.snap")
            src.export_snapshot("ck", path)
            arr = dst.import_snapshot(path, "ck2")
            np.testing.assert_array_equal(arr, data)
            np.testing.assert_array_equal(dst.load_array("ck2"), data)
            # A damaged portable snapshot raises the documented error.
            with open(path, "r+b") as fh:
                fh.seek(20)
                b = fh.read(1)
                fh.seek(20)
                fh.write(bytes([b[0] ^ 0x01]))
            with pytest.raises(RecoveryError):
                dst.import_snapshot(path, "ck3")
        finally:
            src.close()
            dst.close()
