"""Golden modelled numbers.

The modelled columns of Tables 1-2 (``t_w^bc``, ``t_w^disk``,
``t_sc^bc``, ``t_sc^disk``) and a re-layout's makespan are pure
functions of the cost models and the FIFO stage schedule.  These are
their exact values for a 64 x 64 matrix written to disk through
row-block views on a fresh deployment, then re-laid out; any drift in
a device model or in the schedule's arithmetic fails here.
"""

import pytest

from repro.bench import MatrixWorkload
from repro.clusterfile import Clusterfile
from repro.clusterfile.relayout import relayout
from repro.distributions import matrix_partition
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
