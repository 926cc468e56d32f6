"""One input gate for caller bytes: every file-model entry point takes
uint8 arrays and buffers (viewed) and rejects other dtypes — a cast
would wrap values mod 256 and turn 16 bytes into 4."""

import numpy as np
import pytest

from repro import round_robin
from repro.apps import HaloExchange, reshard
from repro.clusterfile import Clusterfile
from repro.clusterfile.collective import two_phase_write
from repro.redistribution import distribute
from repro.service import FileService
from repro.simulation import ClusterConfig

WIDE = np.array([256, 257, 513, 1000], dtype=np.int32)
BUFFER_LIKES = (WIDE.tobytes(), bytearray(WIDE), memoryview(WIDE))


def make_fs(nodes=1):
    fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
    fs.create("f", round_robin(4, 4))
    for node in range(nodes):
        fs.set_view("f", node, round_robin(nodes, 8))
    return fs


def test_clusterfile_write():
    fs = make_fs()
    with pytest.raises(ValueError, match="must be uint8"):
        fs.write("f", [(0, 0, WIDE)])
    with pytest.raises(ValueError, match="must be uint8"):
        fs.write("f", [(0, 0, [1, 2, 3])])  # a list has no dtype to trust
    for buffer_like in BUFFER_LIKES:
        fs.write("f", [(0, 0, buffer_like)])
        assert fs.linear_contents("f", 16).tobytes() == WIDE.tobytes()
        fs.write("f", [(0, 0, np.zeros(16, np.uint8))])


def test_service_submit_write():
    fs = make_fs()
    with FileService(fs, workers=1) as svc:
        with pytest.raises(ValueError, match="must be uint8"):
            svc.submit_write("f", 0, 0, WIDE)
        # Admission still copies: the caller may reuse its buffer.
        mutable = bytearray(WIDE)
        ticket = svc.submit_write("f", 0, 0, mutable)
        mutable[:] = bytes(16)
        ticket.result(timeout=30)
    assert fs.linear_contents("f", 16).tobytes() == WIDE.tobytes()


def test_reshard():
    two, four = round_robin(2, 2), round_robin(4, 2)
    with pytest.raises(ValueError, match="must be uint8"):
        reshard([WIDE[:2], WIDE[2:]], two, four)
    pieces = distribute(WIDE.tobytes(), two)
    out = reshard([p.tobytes() for p in pieces], two, four)
    for got, want in zip(out, distribute(WIDE.tobytes(), four)):
        np.testing.assert_array_equal(got, want)


def test_two_phase_write():
    fs = make_fs(nodes=2)
    with pytest.raises(ValueError, match="must be uint8"):
        two_phase_write(fs, "f", [(0, 0, WIDE[:2]), (1, 0, WIDE[2:])])
    pieces = distribute(WIDE.tobytes(), round_robin(2, 8))
    two_phase_write(
        fs, "f", [(0, 0, pieces[0].tobytes()), (1, 0, bytearray(pieces[1]))]
    )
    assert fs.linear_contents("f", 16).tobytes() == WIDE.tobytes()


def test_halo_scatter_owned():
    ex = HaloExchange.block_1d(16, 1, 4, 1)
    with pytest.raises(ValueError, match="must be uint8"):
        ex.scatter_owned(0, np.arange(16, dtype=np.int32))
    want = ex.scatter_owned(1, np.frombuffer(WIDE.tobytes(), np.uint8))
    for buffer_like in BUFFER_LIKES:
        np.testing.assert_array_equal(ex.scatter_owned(1, buffer_like), want)
