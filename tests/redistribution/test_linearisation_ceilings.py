"""Time and memory ceilings for whole-file linearisation.

``distribute``, ``collect``, ``ClusterFile.linear_contents`` and the
snapshot/recovery path built on them move an element's bytes as the
file-space *segments* of its nested FALLS.  A per-byte MAP⁻¹ loop (one
offset evaluation and one 8-byte index per byte) costs 2–6 s and 17×
the file size on the 32 MiB inputs; the ceilings sit 6–20× above the
segment path's measured cost there (3–4× for the one-byte-segment
file) so they trip on the algorithm, not on a noisy host.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.clusterfile.file_model import ClusterFile
from repro.clusterfile.fs import Clusterfile
from repro.distributions import (
    BlockCyclic,
    matrix_partition,
    multidim_partition,
    round_robin,
)
from repro.durability import DurabilityManager
from repro.redistribution import build_plan, collect, distribute, execute_plan

ROWS, COLS = 4096, 8192  # 32 MiB
CEILING_S = 0.25


@pytest.fixture(scope="module")
def matrix_bytes():
    return np.random.default_rng(16).integers(
        1, 256, ROWS * COLS, dtype=np.uint8
    )


def _timed(fn):
    """Best of three, dropping each result before the next run: the
    first touch of fresh memory (32 MiB of page faults, slow on a
    virtualised host) is not what the ceiling is about."""
    best = None
    for _ in range(3):
        result = None
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _filled(partition, pieces):
    cfile = ClusterFile("f", partition)
    for store, piece in zip(cfile.stores, pieces):
        store.view(0, piece.size - 1)[:] = piece
    return cfile


def _layout(name):
    if name == "bc":
        # 2-D block-cyclic: nested FALLS whose 8192 segments per element
        # are *not* one arithmetic progression, so no strided view
        # applies — they must still move as segments, not as indices.
        cyclic = BlockCyclic(1024)
        return multidim_partition((ROWS, COLS), 1, (cyclic, cyclic), (2, 2))
    return matrix_partition(name, ROWS, COLS, 4)


@pytest.mark.parametrize("layout", ["r", "c", "b", "bc"])
def test_32mib_matrix_linearises_within_ceilings(layout, matrix_bytes):
    partition = _layout(layout)
    t_distribute, pieces = _timed(lambda: distribute(matrix_bytes, partition))
    assert t_distribute < CEILING_S
    cfile = _filled(partition, pieces)
    t_linear, linear = _timed(cfile.linear_contents)
    assert t_linear < CEILING_S
    np.testing.assert_array_equal(linear, matrix_bytes)

    tracemalloc.start()
    try:
        cfile.linear_contents()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix_bytes.size


def test_16mib_redistribution_allocates_only_its_result(matrix_bytes):
    """The plan executor copies source segments straight onto
    destination segments: the first run of a fresh plan allocates the
    destination buffers and little else, and the plan keeps nothing
    file-sized afterwards (a packed intermediate per transfer, kept for
    reuse, made that 2.03x and 1.03x)."""
    side = 4096
    size = side * side
    src, dst = (matrix_partition(c, side, side, 4) for c in "rc")
    pieces = distribute(matrix_bytes[:size], src)
    plan = build_plan(src, dst)
    tracemalloc.start()
    try:
        out = execute_plan(plan, pieces, size)
        _, peak = tracemalloc.get_traced_memory()
        np.testing.assert_array_equal(collect(out, dst, size), matrix_bytes[:size])
        del out
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size
    assert retained <= 0.1 * size


def test_4mib_unit_block_cyclic_file_within_ceiling(matrix_bytes):
    """``k = 1``: every segment is one byte long, a million per element
    — the worst case for a segment list, still bounded."""
    data = matrix_bytes[: 4 << 20]
    partition = round_robin(4, 1)
    t_distribute, pieces = _timed(lambda: distribute(data, partition))
    assert t_distribute < CEILING_S
    t_collect, back = _timed(lambda: collect(pieces, partition, data.size))
    assert t_collect < CEILING_S
    t_linear, linear = _timed(_filled(partition, pieces).linear_contents)
    assert t_linear < CEILING_S
    np.testing.assert_array_equal(back, data)
    np.testing.assert_array_equal(linear, data)


def _checkpoint_recover(root, matrix_bytes):
    partition = matrix_partition("c", ROWS, COLS, 4)
    fs = Clusterfile()
    restored = Clusterfile()
    try:
        cfile = fs.create("f", partition)
        for store, piece in zip(cfile.stores, distribute(matrix_bytes, partition)):
            store.view(0, piece.size - 1)[:] = piece
        manager = DurabilityManager(root)
        manager.register_file(fs, "f")
        t0 = time.perf_counter()
        manager.checkpoint(fs, "f")
        manager.close()
        recovering = DurabilityManager(root)
        report = recovering.recover_into(restored)
        elapsed = time.perf_counter() - t0
        recovering.close()
        assert report["f"]["snapshot_loaded"]
        np.testing.assert_array_equal(
            restored.linear_contents("f"), matrix_bytes
        )
        return elapsed
    finally:
        fs.close()
        restored.close()


def test_32mib_checkpoint_recover_round_trip(tmp_path, matrix_bytes):
    # Snapshot write, CRC, read back, restore and re-checkpoint; the
    # per-byte path took ~7 s.  Best of two for the same first-touch
    # reason as ``_timed``.
    assert min(
        _checkpoint_recover(str(tmp_path / tag), matrix_bytes)
        for tag in ("first", "second")
    ) < 1.5
