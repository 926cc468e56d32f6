"""A plan's sets are their segments or factors; trees are built when read.

``build_plan`` keeps every set of a product plan as its merged row and
column lists (``PeriodicFallsSet.from_product``) and every set of a
flattened sweep as its merged segments (``from_segments``).  Sizes,
emptiness and windows read those; the nested-FALLS tree is built on the
first read of ``falls``, and equality still compares trees.  A product
set records whether each factor list is one flat FALLS, so a window
that keeps the set's own lists resolves its copy without re-testing
them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import periodic
from repro.core.periodic import PeriodicFallsSet
from repro.core.segments import flat_falls, relative_to
from repro.distributions import BlockCyclic, matrix_partition, multidim_partition
from repro.redistribution import build_plan, gather_scatter
from repro.redistribution.gather_scatter import resolve_product

from ..properties.strategies import array_shapes, product_partitions


def _sets(plan):
    for t in plan.transfers:
        yield from (t.intersection, t.src_projection, t.dst_projection)


def _pair(data):
    array = data.draw(array_shapes())
    return tuple(data.draw(product_partitions(array)) for _ in range(2))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sizes_read_without_the_tree_equal_the_trees(data):
    src, dst = _pair(data)
    plan = build_plan(src, dst)
    for pfs in _sets(plan):
        size, empty = pfs.size_per_period, pfs.is_empty
        assert "falls" not in pfs.__dict__
        tree = pfs.falls
        assert pfs.falls is tree
        forced = PeriodicFallsSet(tree, pfs.displacement, pfs.period)
        assert (size, empty) == (forced.size_per_period, forced.is_empty)
        assert pfs == forced and hash(pfs) == hash(forced)
    # Equality compares trees: a fresh plan's sets build theirs for it.
    again = build_plan(src, dst)
    for got, want in zip(_sets(again), _sets(plan)):
        assert "falls" not in got.__dict__
        assert got == want
        assert got.__dict__["falls"] == want.falls
    intersections = [t.intersection for t in plan.transfers]
    for a, b in zip(intersections, intersections[1:]):
        assert (a.displacement, a.period) == (b.displacement, b.period)
        assert a != b


def _windows(pfs, data):
    """The whole period, then a drawn window over up to two periods."""
    first = pfs.displacement
    yield first, first + pfs.period - 1
    lo = data.draw(st.integers(first, first + 2 * pfs.period - 1))
    yield lo, data.draw(st.integers(lo, first + 2 * pfs.period))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_recorded_flatness_resolves_the_same_copies(data):
    src, dst = _pair(data)
    for pfs in _sets(build_plan(src, dst)):
        for lo, hi in _windows(pfs, data):
            product = pfs.product_in(lo, hi)
            if product is None or not product.rows[0].size:
                continue
            assert product.flat == (
                flat_falls(*product.rows),
                flat_falls(*product.cols),
            )
            product = relative_to(product, lo)
            for gather in (True, False):
                unrecorded = product._replace(flat=None)
                assert resolve_product(hi - lo + 1, product, gather) == (
                    resolve_product(hi - lo + 1, unrecorded, gather)
                )


def test_whole_element_window_tests_no_list(monkeypatch):
    """A whole-period window keeps the set's own lists, so resolving it
    tests neither for flatness; a window that clips the rows re-tests the
    row list alone."""
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return flat_falls(*args)

    logical = multidim_partition(
        (96, 96), 1, (BlockCyclic(8), BlockCyclic(8)), (2, 2)
    )
    plan = build_plan(logical, matrix_partition("c", 96, 96, 4))
    for module in (periodic, gather_scatter):
        monkeypatch.setattr(module, "flat_falls", counting)
    projections = [
        p for t in plan.transfers for p in (t.src_projection, t.dst_projection)
    ]
    for pfs in projections:
        lo, hi = pfs.displacement, pfs.displacement + pfs.period - 1
        product = pfs.product_in(lo, hi)
        assert resolve_product(hi - lo + 1, relative_to(product, lo), True)
    assert calls == []
    # From the period's last row on: one row, its list re-tested.
    pfs = projections[0]
    (starts, lengths), width, _ = pfs.__dict__["_factors"]
    last = int(starts[-1] + lengths[-1]) - 1
    product = pfs.product_in(
        pfs.displacement + width * last, pfs.displacement + pfs.period - 1
    )
    assert (product.rows[0].tolist(), product.rows[1].tolist()) == ([last], [1])
    assert calls == [1]
