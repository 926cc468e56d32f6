"""Tests for on-the-fly physical re-layout (Panda-style, paper §3)."""

import numpy as np
import pytest

from repro import matrix_partition, round_robin, row_blocks
from repro.clusterfile import Clusterfile
from repro.clusterfile.relayout import relayout
from repro.simulation import ClusterConfig

N = 64


def make_file(phys_layout="c", n=N, seed=1):
    data = np.random.default_rng(seed).integers(0, 256, n * n, dtype=np.uint8)
    fs = Clusterfile(ClusterConfig())
    fs.create("m", matrix_partition(phys_layout, n, n, 4))
    logical = row_blocks(n, n, 4)
    for c in range(4):
        fs.set_view("m", c, logical)
    per = n * n // 4
    fs.write("m", [(c, 0, data[c * per : (c + 1) * per]) for c in range(4)])
    return fs, data


class TestRelayout:
    @pytest.mark.parametrize("src", ["r", "c", "b"])
    @pytest.mark.parametrize("dst", ["r", "c", "b"])
    def test_contents_preserved(self, src, dst):
        fs, data = make_file(src)
        res = relayout(fs, "m", matrix_partition(dst, N, N, 4))
        np.testing.assert_array_equal(fs.linear_contents("m", data.size), data)
        assert res.bytes_moved == data.size

    def test_identity_relayout_stays_local(self):
        fs, data = make_file("r")
        res = relayout(fs, "m", matrix_partition("r", N, N, 4))
        assert res.was_identity
        assert res.cross_node_messages == 0
        np.testing.assert_array_equal(fs.linear_contents("m", data.size), data)

    def test_mismatch_crosses_nodes(self):
        fs, _ = make_file("c")
        res = relayout(fs, "m", matrix_partition("r", N, N, 4))
        assert not res.was_identity
        assert res.cross_node_messages == 12  # 16 transfers - 4 local
        assert res.makespan_s > 0

    def test_views_invalidated(self):
        fs, _ = make_file("c")
        assert ("m", 0) in fs.views
        relayout(fs, "m", matrix_partition("r", N, N, 4))
        assert ("m", 0) not in fs.views

    def test_io_continues_after_relayout(self):
        fs, data = make_file("c")
        relayout(fs, "m", matrix_partition("r", N, N, 4))
        logical = row_blocks(N, N, 4)
        for c in range(4):
            fs.set_view("m", c, logical)
        per = N * N // 4
        bufs = fs.read("m", [(c, 0, per) for c in range(4)])
        for c, buf in enumerate(bufs):
            np.testing.assert_array_equal(buf, data[c * per : (c + 1) * per])
        # Writes after re-layout land correctly too.
        newdata = data[::-1].copy()
        fs.write("m", [(c, 0, newdata[c * per : (c + 1) * per]) for c in range(4)])
        np.testing.assert_array_equal(
            fs.linear_contents("m", newdata.size), newdata
        )

    def test_relayout_changes_write_performance(self):
        """The §3 motivation: re-layout to suit the access pattern."""
        fs, data = make_file("c")
        logical = row_blocks(N, N, 4)
        per = N * N // 4
        accesses = [(0, 0, data[:per])]
        fs.set_view("m", 0, logical)
        before = fs.write("m", accesses)
        before_g = before.per_compute[0].t_g
        before_msgs = before.messages

        relayout(fs, "m", matrix_partition("r", N, N, 4))
        fs.set_view("m", 0, logical)
        after = fs.write("m", accesses)
        # Matched layout: no gather, single message pair.
        assert after.per_compute[0].t_g == 0.0
        assert after.messages < before_msgs
        assert before_g > 0

    def test_disk_busy_counts_only_this_relayout(self):
        """A prior to-disk write's disk stages are not the re-layout's."""
        fs, data = make_file("c")
        per = N * N // 4
        fs.write(
            "m",
            [(c, 0, data[c * per : (c + 1) * per]) for c in range(4)],
            to_disk=True,
        )
        res = relayout(fs, "m", matrix_partition("b", N, N, 4))
        assert set(res.disk_busy_s) == {0, 1, 2, 3}
        for n in range(4):
            assert res.disk_busy_s[n] == sum(
                sp.sim_s for sp in res.trace.find_all(f"io{n}.disk")
            )

    def test_disk_busy_lists_idle_nodes_at_zero(self):
        fs = Clusterfile(ClusterConfig())
        fs.create("m", round_robin(2, 8))
        fs.set_view("m", 0, round_robin(1, 64), element=0)
        fs.write("m", [(0, 0, np.ones(64, np.uint8))], to_disk=True)
        res = relayout(fs, "m", round_robin(2, 16))
        assert res.disk_busy_s[0] > 0.0 and res.disk_busy_s[1] > 0.0
        assert res.disk_busy_s[2] == res.disk_busy_s[3] == 0.0

    def test_pattern_size_change(self):
        n = 32
        data = np.random.default_rng(3).integers(0, 256, n * n, dtype=np.uint8)
        fs = Clusterfile(ClusterConfig())
        fs.create("m", round_robin(4, 8))
        fs.set_view("m", 0, round_robin(1, n * n), element=0)
        fs.write("m", [(0, 0, data)])
        relayout(fs, "m", round_robin(4, 12))
        np.testing.assert_array_equal(fs.linear_contents("m", data.size), data)


class TestRelayoutOnDiskStorage:
    def test_file_backed_stores_survive_relayout(self, tmp_path):
        from repro.clusterfile.storage import FileBackedStore, FileStorage

        data = np.random.default_rng(8).integers(0, 256, N * N, dtype=np.uint8)
        fs = Clusterfile(ClusterConfig(), storage=FileStorage(str(tmp_path)))
        fs.create("m", matrix_partition("c", N, N, 4))
        logical = row_blocks(N, N, 4)
        for c in range(4):
            fs.set_view("m", c, logical)
        per = N * N // 4
        fs.write("m", [(c, 0, data[c * per : (c + 1) * per]) for c in range(4)])

        relayout(fs, "m", matrix_partition("r", N, N, 4))
        np.testing.assert_array_equal(fs.linear_contents("m", data.size), data)
        # The new stores are file-backed too, and the old subfile files
        # were removed from disk.
        for store in fs.open("m").stores:
            assert isinstance(store, FileBackedStore)
        names = {p.name for p in tmp_path.iterdir()}
        assert not any(n.startswith("m.subfile") for n in names)
        # And I/O continues to work on the new on-disk stores.
        for c in range(4):
            fs.set_view("m", c, logical)
        buf = fs.read("m", [(0, 0, per)])[0]
        np.testing.assert_array_equal(buf, data[:per])
