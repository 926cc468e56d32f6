"""Regenerates the paper's Table 1: write-time breakdown at the compute
node, for every (matrix size, physical layout) cell.

Each benchmark measures one full concurrent write operation (view set
excluded — it is amortised, which is the paper's point); the shape-check
test asserts the qualitative claims of §8.2 and writes the formatted
paper-vs-measured table to ``table1.txt`` in the benchmark output
directory (``--bench-output``; a temporary one by default).
"""

import os

import pytest

from repro.bench import (
    MatrixWorkload,
    PAPER_PHYSICAL_LAYOUTS,
    PAPER_SIZES,
    format_table1,
    shape_checks_table1,
    table1,
)
from repro.clusterfile import Clusterfile
from repro.simulation import ClusterConfig

CELLS = [(n, ph) for n in PAPER_SIZES for ph in PAPER_PHYSICAL_LAYOUTS]


def _prepared_write(n, layout):
    """Build the cluster and views once; return the write closure."""
    w = MatrixWorkload(n, layout)
    data = w.data()
    fs = Clusterfile(ClusterConfig())
    fs.create("m", w.physical())
    logical = w.logical()
    for c in range(w.nprocs):
        fs.set_view("m", c, logical)
    accesses = w.view_accesses(data)

    def do_write():
        return fs.write("m", accesses, to_disk=True)

    return do_write


@pytest.mark.parametrize("n,layout", CELLS, ids=[f"{n}-{ph}" for n, ph in CELLS])
def test_write_operation(benchmark, n, layout):
    """Wall time of one concurrent 4-process view write (real data
    movement + DES timing), per Table 1 cell."""
    do_write = _prepared_write(n, layout)
    benchmark.group = f"table1-write-{n}"
    result = benchmark.pedantic(do_write, rounds=3, iterations=1, warmup_rounds=1)
    assert result.payload_bytes == n * n


@pytest.mark.parametrize("layout", PAPER_PHYSICAL_LAYOUTS)
def test_view_set_cost(benchmark, layout):
    """The t_i column in isolation: intersection + projections for one
    view against all four subfiles (paid once, amortised)."""
    from repro.clusterfile.view import set_view

    w = MatrixWorkload(1024, layout)
    phys = w.physical()
    logical = w.logical()
    benchmark.group = "table1-view-set"
    view = benchmark.pedantic(
        lambda: set_view(0, logical, 0, phys), rounds=5, iterations=1
    )
    assert view.links


def test_table1_shapes(output_dir):
    """Regenerate the whole table and assert the paper's qualitative
    claims hold (§8.2)."""
    rows = table1(repeats=2)
    text = format_table1(rows)
    with open(os.path.join(output_dir, "table1.txt"), "w") as fh:
        fh.write(text + "\n")
    print("\n" + text)
    checks = shape_checks_table1(rows)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"shape checks failed: {failed}"
