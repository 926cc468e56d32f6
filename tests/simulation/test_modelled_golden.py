"""Golden modelled numbers.

The modelled columns of Tables 1-2 (``t_w^bc``, ``t_w^disk``,
``t_sc^bc``, ``t_sc^disk``) and a re-layout's makespan are pure
functions of the cost models and the FIFO stage schedule.  These are
their exact values for a 64 x 64 matrix written to disk through
row-block views on a fresh deployment, then re-laid out; any drift in
a device model or in the schedule's arithmetic fails here.  The same
holds for a from-disk read of each layout, for a replicated write and
read under seeded drop/corrupt/delay/slow-disk faults (retry rounds
offset on the modelled clock), and for a write served by a 2-process
I/O pool.
"""

import pytest

from repro.bench import MatrixWorkload
from repro.clusterfile import Clusterfile
from repro.clusterfile.relayout import relayout
from repro.distributions import matrix_partition
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import metrics
from repro.obs.span import Tracer
from repro.simulation import ClusterConfig

#: layout -> (per compute node (t_w_bc, t_w_disk) us, per I/O node
#: (t_sc_bc, t_sc_disk) us, makespan of the re-layout to NEXT[layout] s)
GOLDEN = {
    "r": (
        ((42.956190476190486, 283.9161904761905),) * 4,
        ((5.413333333333333, 246.37333333333336),) * 4,
        0.05339711999999997,
    ),
    "c": (
        (
            (232.15238095238095, 442.39238095238096),
            (235.00571428571428, 652.632380952381),
            (237.8590476190476, 862.872380952381),
            (240.71238095238093, 1073.112380952381),
        ),
        ((11.413333333333332, 852.3733333333334),) * 4,
        0.03313525714285714,
    ),
    "b": (
        (
            (128.77714285714285, 349.25714285714287),
            (132.4838095238095, 569.737142857143),
            (128.77714285714285, 349.25714285714287),
            (132.4838095238095, 569.737142857143),
        ),
        ((7.413333333333333, 448.37333333333333),) * 4,
        0.026720319999999985,
    ),
}
NEXT = {"r": "c", "c": "b", "b": "r"}


@pytest.mark.parametrize("layout", sorted(GOLDEN))
def test_modelled_numbers_are_pinned(layout):
    t_w, t_sc, makespan_s = GOLDEN[layout]
    w = MatrixWorkload(64, layout)
    fs = Clusterfile(ClusterConfig())
    fs.create("m", w.physical())
    for c in range(w.nprocs):
        fs.set_view("m", c, w.logical())
    res = fs.write("m", w.view_accesses(w.data()), to_disk=True)
    assert tuple(
        (b.t_w_bc, b.t_w_disk) for _, b in sorted(res.per_compute.items())
    ) == t_w
    assert tuple(
        (s.t_sc_bc, s.t_sc_disk) for _, s in sorted(res.per_io.items())
    ) == t_sc
    rl = relayout(fs, "m", matrix_partition(NEXT[layout], 64, 64, 4))
    assert rl.makespan_s == makespan_s


def _modelled(res):
    """``(per compute (t_w_bc, t_w_disk), per I/O node (t_sc_bc,
    t_sc_disk))`` in node order."""
    return (
        tuple(
            (b.t_w_bc, b.t_w_disk) for _, b in sorted(res.per_compute.items())
        ),
        tuple((s.t_sc_bc, s.t_sc_disk) for _, s in sorted(res.per_io.items())),
    )


def _matrix_fs(layout, replication=1, **fs_kwargs):
    w = MatrixWorkload(64, layout)
    fs = Clusterfile(ClusterConfig(), **fs_kwargs)
    fs.create("m", w.physical(), replication=replication)
    for c in range(w.nprocs):
        fs.set_view("m", c, w.logical())
    return w, fs


def _read_views(fs, w):
    per = w.bytes_per_process
    return fs.read_with_result(
        "m", [(c, 0, per) for c in range(w.nprocs)], from_disk=True
    )


#: layout -> modelled columns of a from-disk read of the whole matrix
#: through the row-block views, right after the to-disk write above.
READ_GOLDEN = {
    "r": (
        ((42.956190476190486, 6883.9161904761895),) * 4,
        ((5.413333333333333, 6846.373333333332),) * 4,
    ),
    "c": (
        (
            (232.15238095238095, 7042.39238095238),
            (235.00571428571428, 7252.632380952381),
            (237.8590476190476, 7462.872380952382),
            (240.71238095238093, 7673.1123809523815),
        ),
        ((11.413333333333332, 7452.373333333333),) * 4,
    ),
    "b": (
        (
            (128.77714285714285, 6949.257142857142),
            (132.4838095238095, 7169.737142857142),
            (128.77714285714285, 6949.257142857142),
            (132.4838095238095, 7169.737142857142),
        ),
        ((7.413333333333333, 7048.373333333332),) * 4,
    ),
}


@pytest.mark.parametrize("layout", sorted(READ_GOLDEN))
def test_from_disk_read_is_pinned(layout):
    w, fs = _matrix_fs(layout)
    data = w.data()
    fs.write("m", w.view_accesses(data), to_disk=True)
    bufs, res = _read_views(fs, w)
    assert b"".join(b.tobytes() for b in bufs) == data.tobytes()
    assert _modelled(res) == READ_GOLDEN[layout]


FAULT_PLAN = FaultPlan(
    seed=7,
    rules=(
        FaultRule(kind="drop", rate=0.25),
        FaultRule(kind="corrupt", rate=0.25),
        FaultRule(kind="delay", rate=0.5, delay_s=50e-6),
        FaultRule(kind="slow_disk", io_node=1, factor=3.0),
    ),
)

#: op -> (retries, ``faults.transport.dropped`` increment, modelled
#: columns) for a ``c`` matrix at replication 2 under FAULT_PLAN.
FAULTED_GOLDEN = {
    "write": (
        8,
        16,
        (
            (
                (22071.079329942393, 42501.79932994238),
                (6120.777582803884, 26551.49758280388),
                (6197.5166304229315, 23043.306666666667),
                (6170.777582803885, 43474.026666666665),
            ),
            (
                (22.82666666666666, 14914.986666666668),
                (22.82666666666666, 84268.58666666667),
                (22.82666666666666, 28104.74666666667),
                (22.82666666666666, 21525.226666666666),
            ),
        ),
    ),
    "read": (
        5,
        5,
        (
            (
                (13339.517585973328, 33770.23758597333),
                (6306.394290961013, 13332.318100484821),
                (232.15238095238095, 7197.8361904761905),
                (6301.598100484823, 7408.076190476191),
            ),
            (
                (11.413333333333332, 7452.373333333333),
                (17.119999999999997, 63201.44),
                (14.266666666666666, 14265.466666666667),
                (17.119999999999997, 14488.800000000001),
            ),
        ),
    ),
}


def test_faulted_replicated_write_and_read_are_pinned():
    """Retry rounds start later on the modelled clock, lost attempts
    hold the sender's lane, and every lost attempt-target pair counts
    once on ``faults.transport.dropped``."""

    def dropped():
        return metrics.snapshot().get("faults.transport.dropped", 0)

    w, fs = _matrix_fs("c", replication=2,
                       fault_injector=FaultInjector(FAULT_PLAN))
    data = w.data()
    before = dropped()
    res = fs.write("m", w.view_accesses(data), to_disk=True)
    got = {"write": (res.retries, dropped() - before, _modelled(res))}
    # Pricing is lazy and must not count the drops a second time.
    assert dropped() - before == got["write"][1]
    before = dropped()
    bufs, res = _read_views(fs, w)
    got["read"] = (res.retries, dropped() - before, _modelled(res))
    assert b"".join(b.tobytes() for b in bufs) == data.tobytes()
    for op in ("write", "read"):
        assert got[op][0] > 0, op
        assert got[op] == FAULTED_GOLDEN[op], op


#: A replicated ``b`` write to disk served by a 2-process I/O pool,
#: traced so the worker ``server.write`` spans graft into the op.
PROCESS_GOLDEN = (
    (
        (176.32, 7356.510476190476),
        (180.02666666666664, 14176.990476190475),
        (176.32, 7356.510476190476),
        (180.02666666666664, 14176.990476190475),
    ),
    (
        (14.826666666666666, 896.7466666666667),
        (14.826666666666666, 14096.746666666664),
        (14.826666666666666, 896.7466666666667),
        (14.826666666666666, 14096.746666666664),
    ),
)


def test_two_process_write_is_pinned():
    w, fs = _matrix_fs("b", replication=2, workers_mode="process", workers=2)
    with fs, Tracer("golden").activate():
        res = fs.write("m", w.view_accesses(w.data()), to_disk=True)
        assert _modelled(res) == PROCESS_GOLDEN
