"""Property tests for copies resolved from a product's factors.

* On ``product_partitions()`` pairs, view writes and reads of random
  windows (not only whole elements) move exactly the bytes the per-byte
  oracle (``tests/oracle/naive.py``) says.
* Every product window of a transfer's projections
  (:meth:`PeriodicFallsSet.product_in`) selects the segments
  :meth:`~PeriodicFallsSet.segments_in` does, with the run count read
  from the factors; its copy moves the same bytes as the segment list's
  and, when that list is one run or one flat FALLS, is the very same
  :class:`ResolvedCopy`.
* An element that reads as rows x columns (:meth:`Partition.element_set`)
  answers a window with the segments :meth:`Partition.element_segments`
  gives, and its copy moves their bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusterfile import Clusterfile
from repro.redistribution import build_plan
from repro.redistribution.gather_scatter import (
    resolve_packed,
    resolve_product,
    run_copy,
)
from repro.simulation import ClusterConfig

from ..oracle.naive import NaiveElement
from .strategies import array_shapes, nested_partitions, product_partitions


@st.composite
def product_pairs(draw):
    """A logical and a physical product partition of one array."""
    array = draw(array_shapes())
    return draw(product_partitions(array)), draw(product_partitions(array))


def _window(data, element, file_length):
    """A window of element ``element``'s linear space in a file of
    ``file_length`` bytes (empty elements draw none)."""
    size = element.length_for(file_length)
    if size == 0:
        return None
    lo = data.draw(st.integers(0, size - 1))
    return lo, data.draw(st.integers(lo, size - 1))


@given(product_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_random_windows_move_the_oracles_bytes(pair, data):
    logical, physical = pair
    file_length = max(logical.displacement, physical.displacement) + 2 * (
        logical.size * physical.size
    )
    fs = Clusterfile(
        ClusterConfig(compute_nodes=logical.num_elements, io_nodes=2)
    )
    fs.create("f", physical)
    elements = [NaiveElement(logical, e) for e in range(logical.num_elements)]
    for e in range(logical.num_elements):
        fs.set_view("f", e, logical)
    want = np.zeros(file_length, dtype=np.uint8)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    for _ in range(3):
        e = data.draw(st.integers(0, logical.num_elements - 1))
        window = _window(data, elements[e], file_length)
        if window is None:
            continue
        lo, hi = window
        buf = rng.integers(1, 256, hi - lo + 1, dtype=np.uint8)
        fs.write("f", [(e, lo, buf)])
        for i, b in enumerate(buf):
            x = elements[e].unmap(lo + i)
            if x >= physical.displacement:  # no subfile holds earlier bytes
                want[x] = b
    for _ in range(3):
        e = data.draw(st.integers(0, logical.num_elements - 1))
        window = _window(data, elements[e], file_length)
        if window is None:
            continue
        lo, hi = window
        [got] = fs.read("f", [(e, lo, hi - lo + 1)])
        expect = [want[elements[e].unmap(y)] for y in range(lo, hi + 1)]
        np.testing.assert_array_equal(got, np.array(expect, dtype=np.uint8))
    got = fs.linear_contents("f", file_length)
    np.testing.assert_array_equal(got, want)


@given(product_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_product_windows_resolve_as_their_segments(pair, data):
    plan = build_plan(*pair)
    rng = np.random.default_rng(3)
    for t in plan.transfers:
        for pfs in (t.src_projection, t.dst_projection):
            span = pfs.displacement + 2 * pfs.period
            if data.draw(st.booleans()):  # whole periods
                lo = pfs.displacement
                hi = lo + data.draw(st.integers(1, 2)) * pfs.period - 1
            else:
                lo = data.draw(st.integers(0, span - 1))
                hi = data.draw(st.integers(lo, span))
            product = pfs.product_in(lo, hi)
            if product is None:
                continue
            segs = pfs.segments_in(lo, hi)
            starts, lengths = product.arrays()
            np.testing.assert_array_equal(starts, segs[0])
            np.testing.assert_array_equal(lengths, segs[1])
            assert product.runs == segs[0].size
            if not segs[0].size:
                continue
            assert product.start == segs[0][0]
            size = hi - lo + 1
            rel = product._replace(first=product.first - lo)
            by_list = (segs[0] - lo, segs[1])
            for gather in (True, False):
                got = resolve_packed(size, rel, gather)
                want = resolve_packed(size, by_list, gather)
                one_run = want.kind == "slices" and len(want.extent) == 1
                if one_run or want.kind == "strided":  # or one flat FALLS
                    assert got == want
                assert got.nbytes == want.nbytes
                src = rng.integers(0, 256, got.src_size, dtype=np.uint8)
                a = np.zeros(got.dst_size, dtype=np.uint8)
                b = np.zeros(got.dst_size, dtype=np.uint8)
                run_copy(a, src, got)
                run_copy(b, src, want)
                np.testing.assert_array_equal(a, b)


@given(
    st.one_of(nested_partitions(), product_partitions()),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_element_sets_select_the_element_segments(partition, periods, data):
    """Where an element reads as rows x columns, a window of its set
    that cuts no selected row is its segments, and moves their bytes."""
    span = partition.displacement + periods * partition.size
    rng = np.random.default_rng(4)
    src = rng.integers(0, 256, span, dtype=np.uint8)
    for e in range(partition.num_elements):
        if data.draw(st.booleans()):
            lo, hi = 0, span - 1
        else:
            lo = data.draw(st.integers(0, span - 1))
            hi = data.draw(st.integers(lo, span - 1))
        product = partition.element_set(e).product_in(lo, hi)
        if product is None:
            continue
        starts, lengths = partition.element_segments(e, lo, hi)
        got_starts, got_lengths = product.arrays()
        np.testing.assert_array_equal(got_starts, starts)
        np.testing.assert_array_equal(got_lengths, lengths)
        if not starts.size:
            continue
        got = resolve_packed(span, product, True)
        want = resolve_packed(span, (starts, lengths), True)
        a = np.empty(got.nbytes, dtype=np.uint8)
        b = np.empty(want.nbytes, dtype=np.uint8)
        run_copy(a, src, got)
        run_copy(b, src, want)
        np.testing.assert_array_equal(a, b)


def test_matrix_elements_resolve_from_their_factors():
    from repro.distributions import matrix_partition

    for kind in "rcb":
        p = matrix_partition(kind, 64, 64, 4)
        for e in range(4):
            product = p.element_set(e).product_in(0, 2 * p.size - 1)
            assert resolve_product(2 * p.size, product, False) is not None
