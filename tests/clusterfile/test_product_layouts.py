"""Access layouts of product views resolve from their factors.

A block-cyclic view of a row, column or block partitioned matrix is
rows x columns on both sides of every link (paper §5: a pattern
repeated through the linear space).  Its client and server copies are
resolved from the two factor lists (:meth:`PeriodicFallsSet.product_in`)
to one strided view, or to one slice when the bytes are one run: never
to a piece list (``slices``) or a byte index (``fancy``), whatever the
block size.  No segment list is expanded to build or run such a
layout in thread mode.
"""

import numpy as np
import pytest

from repro.clusterfile import Clusterfile
from repro.core import periodic, segments
from repro.distributions import BlockCyclic, matrix_partition, multidim_partition
from repro.redistribution import distribute
from repro.simulation import ClusterConfig

KS = (1, 8, 16, 32, 64, 128)
GRIDS = ((4, 1), (1, 4), (2, 2))


def _deployment(n, k, grid, physical):
    logical = multidim_partition((n, n), 1, (BlockCyclic(k),) * 2, grid)
    fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
    fs.create("m", matrix_partition(physical, n, n, 4))
    for e in range(4):
        fs.set_view("m", e, logical)
    data = np.random.default_rng(n + k).integers(0, 256, n * n, dtype=np.uint8)
    return fs, distribute(data, logical), data


def _one_run(copy):
    return copy.kind == "slices" and len(copy.extent) == 1


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("n", [256, 512])
def test_whole_matrix_copies_are_strided_or_one_run(n, grid):
    for k in KS:
        if max(grid) * k > n:  # a grid cell would own nothing
            continue
        for physical in "rcb":
            fs, pieces, data = _deployment(n, k, grid, physical)
            fs.write("m", [(e, 0, pieces[e]) for e in range(4)])
            np.testing.assert_array_equal(fs.linear_contents("m"), data)
            got = fs.read("m", [(e, 0, pieces[e].size) for e in range(4)])
            for e in range(4):
                np.testing.assert_array_equal(got[e], pieces[e])
                for write in (True, False):
                    layout = fs.view_of("m", e).layout(
                        write, 0, pieces[e].size - 1
                    )
                    for acc in layout:
                        where = (k, physical, e, write, acc.subfile)
                        assert isinstance(acc.client, int) or (
                            acc.client.kind == "strided"
                        ), where
                        assert acc.server.kind == "strided" or _one_run(
                            acc.server
                        ), where


@pytest.mark.parametrize("k", [1, 32])
@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_layout_build_expands_no_segment_list(physical, k, monkeypatch):
    """Thread mode, no journal, no disk: building the layouts of a
    whole-matrix write and running it neither broadcasts a product nor
    tiles a period."""
    fs, pieces, data = _deployment(512, k, (2, 2), physical)
    calls = []

    def counting(name, real):
        def wrapper(*args, **kw):
            calls.append(name)
            return real(*args, **kw)

        return wrapper

    for module in (segments, periodic):
        for name in ("product_segment_arrays", "tile_segment_arrays"):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counting(name, getattr(module, name))
                )
    fs.write("m", [(e, 0, pieces[e]) for e in range(4)])
    fs.read("m", [(e, 0, pieces[e].size) for e in range(4)])
    assert calls == []
    monkeypatch.undo()
    np.testing.assert_array_equal(fs.linear_contents("m"), data)
    # The arrays are there for a consumer that reads them, built once.
    acc = fs.view_of("m", 0).layout(True, 0, pieces[0].size - 1)[0]
    assert acc.segments[0] is acc.segments[0]
    want = fs.view_of("m", 0).links[acc.subfile].proj_subfile.segments_in(
        acc.l_s, acc.r_s
    )
    np.testing.assert_array_equal(acc.segments[0], want[0])
    np.testing.assert_array_equal(acc.segments[1], want[1])
    assert acc.segments.runs == want[0].size
