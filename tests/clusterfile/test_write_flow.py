"""Clusterfile integration tests: the §8.1 write/read flow end to end."""

import numpy as np
import pytest

from repro.clusterfile import Clusterfile
from repro.core import Falls, FallsSet, Partition
from repro.distributions import matrix_partition, row_blocks
from repro.redistribution import clear_plan_cache
from repro.simulation import ClusterConfig

N = 32
LAYOUTS = ["r", "c", "b"]


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


class TestWriteReadRoundtrip:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_write_then_linear_contents(self, matrix_data, layout):
        fs = make_fs()
        write_matrix(fs, "m", layout, matrix_data)
        np.testing.assert_array_equal(
            fs.linear_contents("m", matrix_data.size), matrix_data
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_write_then_view_read(self, matrix_data, layout):
        fs = make_fs()
        write_matrix(fs, "m", layout, matrix_data)
        per = N * N // 4
        bufs = fs.read("m", [(c, 0, per) for c in range(4)])
        for c, buf in enumerate(bufs):
            np.testing.assert_array_equal(buf, matrix_data[c * per : (c + 1) * per])

    def test_cross_layout_views(self, matrix_data):
        """Write through row views, read back through column views."""
        fs = make_fs()
        write_matrix(fs, "m", "b", matrix_data)
        cols = matrix_partition("c", N, N, 4)
        for c in range(4):
            fs.set_view("m", c, cols)
        per = N * N // 4
        bufs = fs.read("m", [(c, 0, per) for c in range(4)])
        mat = matrix_data.reshape(N, N)
        for c, buf in enumerate(bufs):
            want = mat[:, c * (N // 4) : (c + 1) * (N // 4)].reshape(-1)
            np.testing.assert_array_equal(buf, want)

    def test_partial_interval_write(self, matrix_data):
        fs = make_fs()
        phys = matrix_partition("c", N, N, 4)
        fs.create("m", phys)
        logical = row_blocks(N, N, 4)
        fs.set_view("m", 1, logical)
        chunk = matrix_data[:100]
        fs.write("m", [(1, 37, chunk)])
        got = fs.read("m", [(1, 37, 100)])[0]
        np.testing.assert_array_equal(got, chunk)

    def test_repeated_writes_overwrite(self, matrix_data):
        fs = make_fs()
        write_matrix(fs, "m", "c", matrix_data)
        per = N * N // 4
        newdata = (matrix_data[::-1]).copy()
        fs.write(
            "m", [(c, 0, newdata[c * per : (c + 1) * per]) for c in range(4)]
        )
        np.testing.assert_array_equal(
            fs.linear_contents("m", newdata.size), newdata
        )


class TestViewState:
    def test_view_links_match_partitions(self):
        fs = make_fs()
        phys = matrix_partition("b", N, N, 4)
        fs.create("m", phys)
        v = fs.set_view("m", 0, row_blocks(N, N, 4))
        # Row block 0 spans the two top square blocks only.
        assert sorted(v.links) == [0, 1]
        assert v.set_time_s > 0

    def test_identity_view_is_single_contiguous_link(self):
        fs = make_fs()
        phys = matrix_partition("r", N, N, 4)
        fs.create("m", phys)
        v = fs.set_view("m", 2, row_blocks(N, N, 4))
        assert sorted(v.links) == [2]
        link = v.links[2]
        per = N * N // 4
        assert link.proj_view.is_contiguous_in(0, per - 1)
        assert link.proj_subfile.is_contiguous_in(0, per - 1)

    def test_view_for_unknown_node_rejected(self):
        fs = make_fs()
        fs.create("m", matrix_partition("r", N, N, 4))
        with pytest.raises(ValueError):
            fs.set_view("m", 99, row_blocks(N, N, 4))

    def test_displaced_file(self):
        """Views on a file whose partitioning starts at a displacement."""
        fs = make_fs()
        phys = Partition(
            [Falls(0, 3, 16, 1), Falls(4, 7, 16, 1), Falls(8, 11, 16, 1),
             Falls(12, 15, 16, 1)],
            displacement=8,
        )
        fs.create("d", phys)
        logical = Partition(
            [Falls(0, 15, 64, 1), Falls(16, 31, 64, 1), Falls(32, 47, 64, 1),
             Falls(48, 63, 64, 1)],
            displacement=8,
        )
        data = np.arange(64, dtype=np.uint8)
        for c in range(4):
            fs.set_view("d", c, logical)
        fs.write("d", [(c, 0, data[c * 16 : (c + 1) * 16]) for c in range(4)])
        got = fs.linear_contents("d", 72)
        np.testing.assert_array_equal(got[8:], data)
        assert not got[:8].any()


class TestTimingShapes:
    """The qualitative relations the paper reports (§8.2)."""

    def run_layouts(self, n, to_disk=False):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, n * n, dtype=np.uint8)
        out = {}
        for layout in LAYOUTS:
            fs = make_fs()
            res = write_matrix(fs, "m", layout, data, n=n, to_disk=to_disk)
            out[layout] = res
        return out

    def test_gather_time_zero_for_matching_layouts(self):
        res = self.run_layouts(N)
        bd_r = res["r"].per_compute[0]
        assert bd_r.t_g == 0.0

    def test_gather_time_ordering(self):
        # Measured wall time: warm up, take medians over several runs,
        # and use a size large enough for the copies to dominate noise.
        self.run_layouts(256)  # warmup
        samples = {k: [] for k in LAYOUTS}
        for _ in range(5):
            res = self.run_layouts(256)
            for k, v in res.items():
                samples[k].append(
                    np.mean([bd.t_g for bd in v.per_compute.values()])
                )
        med = {k: float(np.median(v)) for k, v in samples.items()}
        assert med["r"] == 0.0
        assert med["c"] > med["r"]
        assert med["b"] > med["r"]
        # c fragments finer than b; allow a noise margin on their order.
        assert med["c"] > 0.7 * med["b"]

    def test_intersection_time_ordering(self):
        # t_i is a measured wall time; take medians over several runs.
        # Each run starts from an empty plan cache: on a warm one every
        # view set is a hit and t_i times the lookup, which does not
        # depend on the layout.
        self.run_layouts(256)  # warmup
        samples = {k: [] for k in LAYOUTS}
        for _ in range(5):
            clear_plan_cache()
            res = self.run_layouts(256)
            for k, v in res.items():
                samples[k].append(v.per_compute[0].t_i)
        med = {k: float(np.median(v)) for k, v in samples.items()}
        assert med["c"] > med["r"]
        assert med["b"] > med["r"]

    def test_write_time_ordering_small_sizes(self):
        res = self.run_layouts(64, to_disk=True)
        t_bc = {
            k: max(bd.t_w_bc for bd in v.per_compute.values()) for k, v in res.items()
        }
        t_disk = {
            k: max(bd.t_w_disk for bd in v.per_compute.values())
            for k, v in res.items()
        }
        assert t_bc["c"] > t_bc["r"]
        assert t_disk["c"] > t_disk["r"]
        for k in LAYOUTS:
            assert t_disk[k] > t_bc[k]

    def test_message_counts(self):
        res = self.run_layouts(N)
        # r-r: one message pair per node; c-r: all-to-all.
        assert res["c"].payload_bytes == res["r"].payload_bytes == N * N
        assert res["c"].messages > res["b"].messages > res["r"].messages


class TestScatterBreakdowns:
    def test_per_io_node_times(self, matrix_data):
        fs = make_fs()
        res = write_matrix(fs, "m", "c", matrix_data, to_disk=True)
        assert set(res.per_io) == {0, 1, 2, 3}
        for sb in res.per_io.values():
            assert sb.t_sc_disk > sb.t_sc_bc > 0

    def test_matched_layout_scatters_cheaper(self, matrix_data):
        fs_r = make_fs()
        r = write_matrix(fs_r, "m", "r", matrix_data, to_disk=True)
        fs_c = make_fs()
        c = write_matrix(fs_c, "m", "c", matrix_data, to_disk=True)
        mean_r = np.mean([sb.t_sc_bc for sb in r.per_io.values()])
        mean_c = np.mean([sb.t_sc_bc for sb in c.per_io.values()])
        assert mean_c > mean_r
