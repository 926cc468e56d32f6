"""What the benchmark's warm workloads copy per op, pinned.

``small_write``, ``large_write`` and ``mixed_rw`` read cached access
layouts in their timed loops, and ``reshard`` runs the copies its plans
resolve once.  Every access layout of those workloads (each node, each
offset slot, both directions) and every ``reshard`` transfer copy is
checked field for field against closed-form index arithmetic: the view,
subfile and element geometry of each layout tuple, written out here
with NumPy integers, never through ``repro``'s mapping.  Each client
copy is one run (a buffer offset) or one flat FALLS (a strided view of
shape ``(1, n, seg_len)``), and each server copy one slice; each
``reshard`` copy is one 2-D strided view.  The configurations are read
from ``benchmarks/e2e/workloads.py``'s ``SPECS``.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from repro.clusterfile import Clusterfile
from repro.redistribution.executor import _executor_for
from repro.redistribution.gather_scatter import ResolvedCopy
from repro.redistribution.plan_cache import get_plan
from repro.simulation import ClusterConfig

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _workloads():
    # workloads.py imports its oracle as a top-level module.
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location(
            "e2e_workloads", E2E / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(E2E))
    return module


WORKLOADS = _workloads()


# -- closed-form geometry of the layout tuples ------------------------------


def _grid(kind, nprocs):
    if kind == "r":
        return nprocs, 1
    if kind == "c":
        return 1, nprocs
    pr = int(np.sqrt(nprocs))
    while nprocs % pr:
        pr -= 1
    return pr, nprocs // pr


def _block(layout, e):
    """``(row0, nrows, col0, ncols)`` of matrix element ``e``."""
    kind, rows, cols, nprocs = layout
    pr, pc = _grid(kind, nprocs)
    rh, cw = -(-rows // pr), -(-cols // pc)
    a, b = divmod(e, pc)
    r0, c0 = a * rh, b * cw
    return r0, min(rows, r0 + rh) - r0, c0, min(cols, c0 + cw) - c0


def _file_offsets(layout, e, v):
    """File offsets of view offsets ``v`` of element ``e``."""
    if layout[0] == "rr":
        _, n, chunk = layout
        return (v // chunk * n + e) * chunk + v % chunk
    _, rows, cols, _ = layout
    r0, nr, c0, nc = _block(layout, e)
    k, rem = np.divmod(v, nr * nc)
    return k * rows * cols + (r0 + rem // nc) * cols + c0 + rem % nc


def _subfile_offsets(layout, x):
    """``(subfile, subfile offset)`` of file offsets ``x``."""
    if layout[0] == "rr":
        _, m, chunk = layout
        return x // chunk % m, x // (chunk * m) * chunk + x % chunk
    kind, rows, cols, nprocs = layout
    pr, pc = _grid(kind, nprocs)
    rh, cw = -(-rows // pr), -(-cols // pc)
    k, rem = np.divmod(x, rows * cols)
    row, col = np.divmod(rem, cols)
    a, b = row // rh, col // cw
    sub = a * pc + b
    offsets = np.empty_like(x)
    for s in np.flatnonzero(np.bincount(sub)).tolist():
        r0, nr, c0, nc = _block(layout, s)
        at = sub == s
        offsets[at] = k[at] * nr * nc + (row[at] - r0) * nc + col[at] - c0
    return sub, offsets


def _runs(offsets):
    """Maximal runs of consecutive offsets as ``(starts, lengths)``."""
    heads = np.flatnonzero(np.diff(offsets, prepend=offsets[0] - 2) != 1)
    ends = np.append(heads[1:], offsets.size)
    return offsets[heads], ends - heads


def _expected_client(positions, size, write):
    """The buffer offset of one run, else the strided copy of one flat
    FALLS between the ``size``-byte user buffer and the payload."""
    starts, lengths = _runs(positions)
    if starts.size == 1:
        return int(starts[0])
    n, seg_len, first = int(starts.size), int(lengths[0]), int(starts[0])
    stride = int(starts[1] - starts[0])
    assert (lengths == seg_len).all() and (np.diff(starts) == stride).all(), (
        "client pieces are not one flat FALLS"
    )
    nbytes = n * seg_len
    side = (first, (n * stride, stride, 1))
    payload = (0, (nbytes, seg_len, 1))
    if write:
        return ResolvedCopy(
            nbytes, size, nbytes, "strided", side, payload, (1, n, seg_len)
        )
    return ResolvedCopy(
        nbytes, nbytes, size, "strided", payload, side, (1, n, seg_len)
    )


SERVICE = ("small_write", "large_write", "mixed_rw")


@pytest.mark.parametrize("name", SERVICE)
def test_service_workload_layouts(name):
    spec = WORKLOADS.SPECS[name]
    nodes = WORKLOADS.CLUSTER["compute_nodes"]
    fs = Clusterfile(ClusterConfig(**WORKLOADS.CLUSTER))
    fs.create("f", WORKLOADS.partition(spec.physical))
    view_partition = WORKLOADS.partition(spec.view)
    checked = 0
    for node in range(nodes):
        view = fs.set_view("f", node, view_partition)
        for slot in range(spec.slots):
            lo = slot * spec.op_bytes
            hi = lo + spec.op_bytes - 1
            v = np.arange(lo, hi + 1, dtype=np.int64)
            sub, off = _subfile_offsets(
                spec.physical, _file_offsets(spec.view, node, v)
            )
            for write in (True, False):
                layout = view.layout(write, lo, hi)
                touched = np.flatnonzero(np.bincount(sub)).tolist()
                assert [acc.subfile for acc in layout] == touched
                for acc in layout:
                    at = sub == acc.subfile
                    positions, offsets = np.flatnonzero(at), off[at]
                    assert (np.diff(offsets) > 0).all()
                    l_s, r_s = int(offsets[0]), int(offsets[-1])
                    nbytes = int(positions.size)
                    assert (acc.l_s, acc.r_s) == (l_s, r_s)
                    assert acc.runs == _runs(positions)[0].size
                    assert acc.client == _expected_client(
                        positions, spec.op_bytes, write
                    )
                    starts, lengths = _runs(offsets)
                    assert starts.size == 1, "server pieces are not one run"
                    np.testing.assert_array_equal(acc.segments[0], starts)
                    np.testing.assert_array_equal(acc.segments[1], lengths)
                    assert acc.server == ResolvedCopy(
                        nbytes, nbytes, r_s - l_s + 1, "slices", (0,), (0,),
                        (nbytes,),
                    )
                    checked += 1
    assert checked >= 2 * nodes * spec.slots


def test_reshard_transfer_copies():
    """Each r->c, c->b and b->r transfer moves m rows of a column range
    as one strided view, each side stepping by its element's width."""
    spec = WORKLOADS.SPECS["reshard"]
    side, p = spec.side, spec.elements
    layouts = [(kind, side, side, p) for kind in spec.ring]
    steps = list(zip(layouts, layouts[1:] + layouts[:1]))
    assert [(a[0], b[0]) for a, b in steps] == [("r", "c"), ("c", "b"), ("b", "r")]
    for src, dst in steps:
        plan = get_plan(WORKLOADS.partition(src), WORKLOADS.partition(dst))
        pairs, _ = _executor_for(plan)._resolved(side * side)
        want = {}
        for i in range(p):
            for j in range(p):
                (r0, nr, c0, nc), (s0, ns, d0, nd) = _block(src, i), _block(dst, j)
                rows = max(r0, s0), min(r0 + nr, s0 + ns)
                cols = max(c0, d0), min(c0 + nc, d0 + nd)
                m, width = rows[1] - rows[0], cols[1] - cols[0]
                if m <= 0 or width <= 0:
                    continue
                src_first = (rows[0] - r0) * nc + cols[0] - c0
                dst_first = (rows[0] - s0) * nd + cols[0] - d0
                want[i, j] = ResolvedCopy(
                    m * width, nr * nc, ns * nd, "strided",
                    (src_first, (m * nc, nc, 1)),
                    (dst_first, (m * nd, nd, 1)),
                    (1, m, width),
                )
        got = {(t.src_element, t.dst_element): copy for t, copy in pairs}
        assert got == want
