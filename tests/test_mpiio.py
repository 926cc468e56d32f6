"""Tests for the MPI-IO facade (paper §3: MPI-IO on the file model)."""

import numpy as np
import pytest

from repro import matrix_partition, round_robin
from repro.clusterfile import Clusterfile
from repro.distributions.mpi_types import contiguous, primitive, subarray, vector
from repro.mpiio import MPIFile, MPIIOError
from repro.simulation import ClusterConfig

NP = 4


def make_file(phys=None, n=64):
    fs = Clusterfile(ClusterConfig(compute_nodes=NP, io_nodes=NP))
    fs.create("f", phys or matrix_partition("b", n, n, NP))
    return fs, MPIFile(fs, "f", NP)


class TestDefaultView:
    def test_linear_bytes(self):
        fs, f = make_file()
        data = np.arange(100, dtype=np.uint8)
        f.write_at(0, 0, data)
        np.testing.assert_array_equal(f.read_at(0, 0, 100), data)
        np.testing.assert_array_equal(fs.linear_contents("f", 100), data)

    def test_different_ranks_interleave(self):
        fs, f = make_file()
        f.write_at(0, 0, np.full(10, 1, np.uint8))
        f.write_at(1, 10, np.full(10, 2, np.uint8))
        got = fs.linear_contents("f", 20)
        assert got[:10].tolist() == [1] * 10
        assert got[10:].tolist() == [2] * 10


class TestVectorViews:
    """The mpi4py tutorial's non-contiguous pattern: rank r sees every
    ``size``-th int starting at the r-th."""

    def test_interleaved_int_views(self):
        fs, f = make_file(round_robin(NP, 4), n=0)
        intt = primitive(4)
        for rank in range(NP):
            filetype = vector(count=1, blocklength=1, stride=NP, base=intt)
            filetype = filetype.resized(NP * 4)
            f.set_view(rank, rank * 4, intt, filetype)
        for rank in range(NP):
            vals = (np.arange(10, dtype=np.int32) + 100 * rank).view(np.uint8)
            f.write_at(rank, 0, vals)
        # The file interleaves the ranks' ints round-robin.
        raw = fs.linear_contents("f", NP * 4 * 10)
        ints = raw.view(np.int32).reshape(10, NP)
        for rank in range(NP):
            np.testing.assert_array_equal(
                ints[:, rank], np.arange(10, dtype=np.int32) + 100 * rank
            )
        # And each rank reads back only its own.
        for rank in range(NP):
            got = f.read_at(rank, 0, 40).view(np.int32)
            np.testing.assert_array_equal(
                got, np.arange(10, dtype=np.int32) + 100 * rank
            )


class TestSubarrayViews:
    def test_2d_block_decomposition(self):
        n = 16
        fs, f = make_file(n=n)
        # Each rank views its quadrant of an n x n byte matrix.
        for rank in range(NP):
            r, c = divmod(rank, 2)
            ft = subarray((n, n), (n // 2, n // 2), (r * n // 2, c * n // 2),
                          primitive(1))
            f.set_view(rank, 0, primitive(1), ft)
        for rank in range(NP):
            f.write_at(rank, 0, np.full((n // 2) ** 2, rank + 1, np.uint8))
        mat = fs.linear_contents("f", n * n).reshape(n, n)
        assert (mat[:8, :8] == 1).all()
        assert (mat[:8, 8:] == 2).all()
        assert (mat[8:, :8] == 3).all()
        assert (mat[8:, 8:] == 4).all()


class TestFilePointer:
    def test_sequential_writes_advance(self):
        fs, f = make_file()
        f.write(0, np.arange(10, dtype=np.uint8))
        f.write(0, np.arange(10, 20, dtype=np.uint8))
        np.testing.assert_array_equal(
            fs.linear_contents("f", 20), np.arange(20, dtype=np.uint8)
        )

    def test_seek_and_read(self):
        fs, f = make_file()
        f.write_at(0, 0, np.arange(30, dtype=np.uint8))
        f.seek(0, 10)
        np.testing.assert_array_equal(
            f.read(0, 5), np.arange(10, 15, dtype=np.uint8)
        )
        np.testing.assert_array_equal(
            f.read(0, 5), np.arange(15, 20, dtype=np.uint8)
        )

    def test_etype_units(self):
        fs, f = make_file()
        intt = primitive(4)
        f.set_view(0, 0, intt, contiguous(4, intt))
        vals = np.arange(8, dtype=np.int32)
        f.write_at(0, 0, vals.view(np.uint8))
        f.seek(0, 4)
        got = f.read(0, 4).view(np.int32)
        np.testing.assert_array_equal(got, vals[4:])

    def test_typed_buffer_is_its_bytes(self):
        # MPI-IO semantics: an int32 buffer is 16 bytes, not 4 values
        # cast (wrapped mod 256) to uint8.
        fs, f = make_file()
        intt = primitive(4)
        f.set_view(0, 0, intt, contiguous(4, intt))
        vals = np.array([256, 257, 513, 1000], dtype=np.int32)
        f.write_at(0, 0, vals)
        np.testing.assert_array_equal(f.read_at(0, 0, 16).view(np.int32), vals)
        f.seek(0, 4)
        f.write(0, vals)  # the pointer advances by 4 etypes, not by 1
        f.write(0, vals[::-1])
        np.testing.assert_array_equal(
            f.read_at(0, 4, 32).view(np.int32), np.r_[vals, vals[::-1]]
        )


class TestCollective:
    def test_write_at_all(self):
        fs, f = make_file()
        per = 16
        for rank in range(NP):
            ft = contiguous(per, primitive(1)).resized(NP * per)
            f.set_view(rank, rank * per, primitive(1), ft)
        bufs = [np.full(per, rank + 1, np.uint8) for rank in range(NP)]
        f.write_at_all([0] * NP, bufs)
        got = fs.linear_contents("f", NP * per).reshape(NP, per)
        for rank in range(NP):
            assert (got[rank] == rank + 1).all()


class TestErrors:
    def test_bad_rank(self):
        _, f = make_file()
        with pytest.raises(MPIIOError):
            f.set_view(9, 0, primitive(1), primitive(1))

    def test_partial_etype_rejected(self):
        _, f = make_file()
        f.set_view(0, 0, primitive(4), contiguous(2, primitive(4)))
        with pytest.raises(MPIIOError):
            f.write_at(0, 0, np.zeros(5, np.uint8))
        with pytest.raises(MPIIOError):
            f.read_at(0, 0, 6)

    def test_filetype_not_multiple_of_etype(self):
        _, f = make_file()
        with pytest.raises(MPIIOError):
            f.set_view(0, 0, primitive(4), primitive(6))

    def test_negative_displacement(self):
        _, f = make_file()
        with pytest.raises(MPIIOError):
            f.set_view(0, -1, primitive(1), primitive(1))

    def test_collective_arity(self):
        _, f = make_file()
        with pytest.raises(MPIIOError):
            f.write_at_all([0], [np.zeros(1, np.uint8)])
