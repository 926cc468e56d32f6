"""Tests for the applications layer: checkpoint, transpose, halo."""

import numpy as np
import pytest

from repro import matrix_partition, round_robin, row_blocks
from repro.apps import CheckpointStore, HaloExchange, reshard, transpose_out_of_core
from repro.clusterfile import Clusterfile
from repro.core.algebra import difference, union
from repro.core.falls import Falls, FallsSet
from repro.core.intersect_nested import intersect_nested_sets
from repro.core.segments import leaf_segment_arrays_set, merge_segment_arrays
from repro.redistribution import collect, distribute
from repro.simulation import ClusterConfig


class TestReshard:
    def test_process_count_change(self):
        """Checkpoint written by 4 ranks, restarted on 2 — and back."""
        n = 32
        data = np.random.default_rng(0).integers(0, 256, n * n, dtype=np.uint8)
        p4 = matrix_partition("r", n, n, 4)
        p2 = matrix_partition("r", n, n, 2)
        pieces4 = distribute(data, p4)
        pieces2 = reshard(pieces4, p4, p2)
        assert len(pieces2) == 2
        np.testing.assert_array_equal(collect(pieces2, p2, data.size), data)
        back = reshard(pieces2, p2, p4)
        for a, b in zip(back, pieces4):
            np.testing.assert_array_equal(a, b)

    def test_decomposition_change(self):
        n = 32
        data = np.random.default_rng(1).integers(0, 256, n * n, dtype=np.uint8)
        rows = matrix_partition("r", n, n, 4)
        blocks = matrix_partition("b", n, n, 4)
        out = reshard(distribute(data, rows), rows, blocks)
        np.testing.assert_array_equal(collect(out, blocks, data.size), data)


class TestCheckpointStore:
    def test_save_load_same_layout(self):
        n = 32
        store = CheckpointStore()
        data = np.random.default_rng(2).integers(0, 256, n * n, dtype=np.uint8)
        part = matrix_partition("r", n, n, 4)
        store.save("ck", distribute(data, part), part, (n, n))
        pieces = store.load("ck")
        np.testing.assert_array_equal(collect(pieces, part, data.size), data)

    def test_restart_on_different_count(self):
        n = 32
        store = CheckpointStore()
        data = np.random.default_rng(3).integers(0, 256, n * n, dtype=np.uint8)
        writer = matrix_partition("r", n, n, 4)
        store.save("ck", distribute(data, writer), writer, (n, n))
        reader = matrix_partition("b", n, n, 4)
        pieces = store.load("ck", reader)
        np.testing.assert_array_equal(collect(pieces, reader, data.size), data)

    def test_load_array_typed(self):
        store = CheckpointStore()
        arr = np.arange(64, dtype=np.float64).reshape(8, 8)
        part = row_blocks(8, 8 * 8, 4)  # bytes: 8 rows x 64 bytes
        store.save("f", distribute(arr.tobytes(), part), part, (8, 8), np.float64)
        out = store.load_array("f")
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.float64

    def test_overwrite_and_listing(self):
        store = CheckpointStore()
        part = round_robin(4, 4)
        data = np.arange(16, dtype=np.uint8)
        store.save("a", distribute(data, part), part, (16,))
        store.save("a", distribute(data[::-1].copy(), part), part, (16,))
        np.testing.assert_array_equal(store.load_array("a"), data[::-1])
        assert store.checkpoints() == ["a"]

    def test_misaligned_rejected(self):
        store = CheckpointStore()
        part = round_robin(4, 4)
        with pytest.raises(ValueError):
            store.save("x", [], part, (7,))


class TestTranspose:
    @pytest.mark.parametrize("itemsize", [1, 4])
    def test_transpose_matches_numpy(self, itemsize):
        rows, cols = 16, 32
        rng = np.random.default_rng(5)
        mat = rng.integers(0, 256, (rows, cols, itemsize), dtype=np.uint8)
        flat = mat.reshape(-1)

        fs = Clusterfile(ClusterConfig())
        src_phys = row_blocks(rows, cols, 4, itemsize)
        fs.create("src", src_phys)
        for c in range(4):
            fs.set_view("src", c, src_phys, element=c)
        per = flat.size // 4
        fs.write("src", [(c, 0, flat[c * per : (c + 1) * per]) for c in range(4)])

        transpose_out_of_core(fs, "src", "dst", rows, cols, itemsize)
        got = fs.linear_contents("dst", flat.size)
        want = np.ascontiguousarray(mat.transpose(1, 0, 2)).reshape(-1)
        np.testing.assert_array_equal(got, want)

    def test_double_transpose_is_identity(self):
        n = 16
        mat = np.random.default_rng(6).integers(0, 256, (n, n), dtype=np.uint8)
        fs = Clusterfile(ClusterConfig())
        phys = row_blocks(n, n, 4)
        fs.create("src", phys)
        for c in range(4):
            fs.set_view("src", c, phys, element=c)
        per = n * n // 4
        flat = mat.reshape(-1)
        fs.write("src", [(c, 0, flat[c * per : (c + 1) * per]) for c in range(4)])
        transpose_out_of_core(fs, "src", "t1", n, n)
        transpose_out_of_core(fs, "t1", "t2", n, n)
        np.testing.assert_array_equal(fs.linear_contents("t2", n * n), flat)

    def test_indivisible_rejected(self):
        fs = Clusterfile(ClusterConfig())
        with pytest.raises(ValueError):
            transpose_out_of_core(fs, "a", "b", 10, 10, nprocs=4)


class TestHaloExchange:
    def test_block_1d_exchange(self):
        n, nprocs, halo = 32, 4, 2
        ex = HaloExchange.block_1d(n, 1, nprocs, halo)
        data = np.arange(n, dtype=np.uint8)
        buffers = [ex.scatter_owned(p, data) for p in range(nprocs)]
        msgs, nbytes = ex.exchange(buffers)
        # Interior ranks exchange both sides, edges one: 2*(2*(n-2)/...)
        assert msgs == 2 * (nprocs - 1)
        assert nbytes == halo * 2 * (nprocs - 1)
        per = n // nprocs
        for p in range(nprocs):
            g_lo = max(0, p * per - halo)
            g_hi = min(n - 1, (p + 1) * per - 1 + halo)
            np.testing.assert_array_equal(buffers[p], data[g_lo : g_hi + 1])

    def test_multibyte_elements(self):
        n, nprocs, halo = 16, 2, 1
        ex = HaloExchange.block_1d(n, 4, nprocs, halo)
        data = np.arange(n * 4, dtype=np.uint8)
        buffers = [ex.scatter_owned(p, data) for p in range(nprocs)]
        ex.exchange(buffers)
        np.testing.assert_array_equal(buffers[0], data[: (n // 2 + 1) * 4])

    def test_schedule_reuse_over_iterations(self):
        n, nprocs, halo = 24, 3, 1
        ex = HaloExchange.block_1d(n, 1, nprocs, halo)
        for it in range(3):
            data = (np.arange(n, dtype=np.uint8) + it) % 251
            buffers = [ex.scatter_owned(p, data) for p in range(nprocs)]
            ex.exchange(buffers)
            per = n // nprocs
            for p in range(nprocs):
                g_lo = max(0, p * per - halo)
                g_hi = min(n - 1, (p + 1) * per - 1 + halo)
                np.testing.assert_array_equal(buffers[p], data[g_lo : g_hi + 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            HaloExchange.block_1d(10, 1, 4, 1)  # indivisible
        with pytest.raises(ValueError):
            HaloExchange.block_1d(8, 1, 4, 3)  # halo wider than block
        ex = HaloExchange.block_1d(8, 1, 2, 1)
        with pytest.raises(ValueError):
            ex.exchange([np.zeros(5, np.uint8)])  # wrong buffer count


class TestHalo2D:
    def _verify(self, rows, cols, grid, halo, itemsize=1):
        ex = HaloExchange.block_2d(rows, cols, grid, halo, itemsize)
        data = np.arange(rows * cols * itemsize, dtype=np.uint8)
        buffers = [ex.scatter_owned(p, data) for p in range(grid[0] * grid[1])]
        ex.exchange(buffers)
        mat = data.reshape(rows, cols, itemsize)
        br, bc = rows // grid[0], cols // grid[1]
        for p in range(grid[0] * grid[1]):
            r, c = divmod(p, grid[1])
            g_r0 = max(0, r * br - halo)
            g_r1 = min(rows, (r + 1) * br + halo)
            g_c0 = max(0, c * bc - halo)
            g_c1 = min(cols, (c + 1) * bc + halo)
            want = np.ascontiguousarray(
                mat[g_r0:g_r1, g_c0:g_c1]
            ).reshape(-1)
            np.testing.assert_array_equal(buffers[p], want)

    def test_2x2_grid(self):
        self._verify(8, 8, (2, 2), 1)

    def test_rectangular_grid_and_blocks(self):
        self._verify(12, 8, (3, 2), 2)

    def test_corner_ghosts_travel(self):
        # With a 2x2 grid and halo 1, rank 0's ghost includes the corner
        # element owned by the diagonal neighbour - the exchange must
        # carry it (9-point stencil support).
        ex = HaloExchange.block_2d(4, 4, (2, 2), 1)
        pairs = {(m.src, m.dst) for m in ex.messages}
        assert (3, 0) in pairs  # diagonal neighbour sends to rank 0

    def test_multibyte_elements(self):
        self._verify(8, 8, (2, 2), 1, itemsize=4)

    def test_validation(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            HaloExchange.block_2d(9, 8, (2, 2), 1)
        with _pytest.raises(ValueError):
            HaloExchange.block_2d(8, 8, (2, 2), 4)


def _intersect_aux_messages(ex):
    """The schedule INTERSECT-AUX derives for ``ex``'s regions: each
    ghost region intersected with every other rank's owned set as nested
    FALLS, leaf segments merged, localised on both sides."""
    out = []
    for p, need in enumerate(ex.needed):
        ghosts = difference(need, ex.owned[p])
        for q, owned_q in enumerate(ex.owned):
            if q == p or ghosts.is_empty:
                continue
            common = intersect_nested_sets(
                list(ghosts.falls), list(owned_q.falls)
            )
            if not common:
                continue
            segs = merge_segment_arrays(leaf_segment_arrays_set(common))
            nbytes = int(segs[1].sum())
            if nbytes:
                out.append(
                    (q, p, ex.index[q].localize(segs),
                     ex.index[p].localize(segs), nbytes)
                )
    return out


def _cyclic_columns(rows=8, cols=16, nprocs=4, block=2):
    """Column blocks dealt cyclically over the ranks of a ``rows x cols``
    byte matrix (nested FALLS), each rank also needing the column after
    each of its blocks and the one before its first (wrapping)."""

    def columns(cs):
        return FallsSet([
            Falls(0, cols - 1, cols, rows, inner=(Falls(c, c, cols, 1),))
            for c in sorted(cs)
        ])

    owned, needed = [], []
    for p in range(nprocs):
        mine = FallsSet([
            Falls(0, cols - 1, cols, rows,
                  inner=(Falls(block * p, block * p + block - 1,
                               block * nprocs, cols // (block * nprocs)),))
        ])
        firsts = range(block * p, cols, block * nprocs)
        ghosts = {(c + block) % cols for c in firsts} | {
            (block * p - 1) % cols
        }
        owned.append(mine)
        needed.append(union(mine, columns(ghosts)))
    return HaloExchange(owned, needed)


class TestHaloScheduleMatchesIntersectAux:
    """The production schedule intersects merged segment lists; every
    message must be the one INTERSECT-AUX derives."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HaloExchange.block_1d(32, 1, 4, 2),
            lambda: HaloExchange.block_1d(16, 4, 2, 1),
            lambda: HaloExchange.block_2d(12, 8, (3, 2), 2),
            lambda: HaloExchange.block_2d(8, 8, (2, 2), 1, itemsize=4),
            _cyclic_columns,
        ],
        ids=["block_1d", "block_1d_multibyte", "block_2d",
             "block_2d_multibyte", "cyclic_nested"],
    )
    def test_messages_equal_intersect_aux(self, build):
        ex = build()
        want = _intersect_aux_messages(ex)
        assert len(ex.messages) == len(want) > 0
        for m, (src, dst, src_local, dst_local, nbytes) in zip(
            ex.messages, want
        ):
            assert (m.src, m.dst, m.nbytes) == (src, dst, nbytes)
            for got, ref in zip(m.src_local + m.dst_local,
                                src_local + dst_local):
                np.testing.assert_array_equal(got, ref)

    def test_cyclic_exchange_fills_every_ghost(self):
        ex = _cyclic_columns()
        data = np.arange(8 * 16, dtype=np.uint8)
        buffers = [ex.scatter_owned(p, data) for p in range(4)]
        ex.exchange(buffers)
        for p, need in enumerate(ex.needed):
            starts, lengths = merge_segment_arrays(
                leaf_segment_arrays_set(need.falls)
            )
            want = np.concatenate(
                [data[a : a + n] for a, n in zip(starts, lengths)]
            )
            np.testing.assert_array_equal(buffers[p], want)


class TestOutOfCoreMatmul:
    def _setup(self, n, layout="b"):
        from repro.apps.matmul import load_matrix, matmul_out_of_core, store_matrix

        rng = np.random.default_rng(21)
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        fs = Clusterfile(ClusterConfig())
        phys = matrix_partition(layout, n, n * 8, 4)
        store_matrix(fs, "A", A, phys)
        store_matrix(fs, "B", B, matrix_partition(layout, n, n * 8, 4))
        return fs, A, B, load_matrix, matmul_out_of_core

    def test_matches_numpy(self):
        n, tile = 16, 4
        fs, A, B, load_matrix, matmul = self._setup(n)
        reads = matmul(fs, "A", "B", "C", n, tile)
        C = load_matrix(fs, "C", n)
        np.testing.assert_allclose(C, A @ B, rtol=1e-12)
        assert reads == 2 * (n // tile) ** 3

    def test_single_tile_degenerate(self):
        n = 8
        fs, A, B, load_matrix, matmul = self._setup(n, layout="r")
        matmul(fs, "A", "B", "C", n, tile=n)
        np.testing.assert_allclose(load_matrix(fs, "C", n), A @ B, rtol=1e-12)

    def test_tile_must_divide(self):
        from repro.apps.matmul import matmul_out_of_core

        fs = Clusterfile(ClusterConfig())
        with pytest.raises(ValueError):
            matmul_out_of_core(fs, "A", "B", "C", 10, 3)

    def test_custom_c_layout(self):
        n, tile = 8, 4
        fs, A, B, load_matrix, matmul = self._setup(n)
        matmul(fs, "A", "B", "C", n, tile,
               c_physical=matrix_partition("c", n, n * 8, 4))
        np.testing.assert_allclose(load_matrix(fs, "C", n), A @ B, rtol=1e-12)
