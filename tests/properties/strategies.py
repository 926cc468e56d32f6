"""Hypothesis strategies for FALLS structures and partitions.

Sizes are kept small so the byte-index oracles stay cheap; the structures
still cover the interesting shape space (nesting, stride gaps, ragged
last blocks, multi-FALLS sets, displacements).
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.core.algebra import partition_from_elements
from repro.core.falls import Falls, FallsSet
from repro.core.partition import Partition
from repro.distributions import Block, BlockCyclic, Replicated, multidim_partition
from repro.distributions.hpf import owned_count


@st.composite
def flat_falls(draw, max_l=8, max_block=10, max_gap=8, max_n=8):
    l = draw(st.integers(0, max_l))
    blen = draw(st.integers(1, max_block))
    gap = draw(st.integers(0, max_gap))
    n = draw(st.integers(1, max_n))
    return Falls(l, l + blen - 1, blen + gap, n)


@st.composite
def nested_falls(draw, depth=2):
    """A nested FALLS with up to ``depth`` levels."""
    l = draw(st.integers(0, 6))
    blen = draw(st.integers(1, 12))
    gap = draw(st.integers(0, 6))
    n = draw(st.integers(1, 4))
    outer = Falls(l, l + blen - 1, blen + gap, n)
    if depth <= 1 or blen < 2 or not draw(st.booleans()):
        return outer
    # One or two inner FALLS fitting in [0, blen).
    inner: list[Falls] = []
    cursor = 0
    for _ in range(draw(st.integers(1, 2))):
        if cursor >= blen:
            break
        il = draw(st.integers(cursor, blen - 1))
        iblen = draw(st.integers(1, blen - il))
        igap = draw(st.integers(0, 3))
        max_in = max(1, (blen - il - iblen) // (iblen + igap) + 1)
        in_n = draw(st.integers(1, min(3, max_in)))
        f = Falls(il, il + iblen - 1, iblen + igap, in_n)
        if f.extent_stop <= blen - 1:
            inner.append(f)
            cursor = f.extent_stop + 1
    if not inner:
        return outer
    return outer.with_inner(tuple(inner))


@st.composite
def falls_sets(draw, max_falls=3):
    """An ordered (non-interleaved) FallsSet suitable as a partition
    element."""
    count = draw(st.integers(1, max_falls))
    out: list[Falls] = []
    base = 0
    for _ in range(count):
        f = draw(nested_falls())
        shifted = f.shifted(base + draw(st.integers(0, 4)))
        out.append(shifted)
        base = shifted.extent_stop + 1
    return FallsSet(out)


@st.composite
def contiguous_partitions(draw, max_size=48, max_elements=4, max_displacement=10):
    """A valid partition built from random split points: each element is
    one contiguous chunk of the pattern (always a legal tiling)."""
    size = draw(st.integers(2, max_size))
    n_elements = draw(st.integers(1, min(max_elements, size)))
    if n_elements == 1:
        bounds = [0, size]
    else:
        cuts = draw(
            st.lists(
                st.integers(1, size - 1),
                min_size=n_elements - 1,
                max_size=n_elements - 1,
                unique=True,
            )
        )
        bounds = [0] + sorted(cuts) + [size]
    elements = [
        Falls(bounds[i], bounds[i + 1] - 1, size, 1) for i in range(len(bounds) - 1)
    ]
    disp = draw(st.integers(0, max_displacement))
    return Partition(elements, displacement=disp)


@st.composite
def striped_partitions(draw, max_unit=6, max_elements=4, max_displacement=8):
    """A cyclically striped partition: element k owns byte-chunks
    ``[k*u, (k+1)*u)`` of every ``p*u``-byte stripe — the classic
    round-robin file striping of parallel file systems."""
    unit = draw(st.integers(1, max_unit))
    p = draw(st.integers(1, max_elements))
    reps = draw(st.integers(1, 3))
    size = unit * p * reps
    elements = [
        Falls(k * unit, (k + 1) * unit - 1, unit * p, reps) for k in range(p)
    ]
    disp = draw(st.integers(0, max_displacement))
    return Partition(elements, displacement=disp)


@st.composite
def nested_partitions(draw, max_displacement=8):
    """A partition whose first element is a random (possibly nested)
    FallsSet and whose second element owns the complement of the
    pattern — "this view, and everything else"."""
    element = draw(falls_sets())
    disp = draw(st.integers(0, max_displacement))
    return partition_from_elements([element], displacement=disp, fill_last=True)


@st.composite
def array_shapes(draw):
    """A 2-D or 3-D array shape with uneven extents, and an itemsize."""
    ndim = draw(st.sampled_from([2, 3]))
    top = 9 if ndim == 2 else 5
    return tuple(draw(st.integers(2, top)) for _ in range(ndim)), draw(
        st.integers(1, 4)
    )


@st.composite
def product_partitions(draw, array=array_shapes()):
    """A ``multidim_partition`` of ``array`` (a drawn ``(shape,
    itemsize)`` or a strategy for one): Block, BlockCyclic(k) or
    Replicated per dimension over up to three processors, so blocks come
    out ragged, from a displacement that is mostly whole rows."""
    shape, itemsize = array if isinstance(array, tuple) else draw(array)
    dists, grid = [], []
    for extent in shape:
        dist = draw(
            st.sampled_from(
                [Block(), Replicated()] + [BlockCyclic(k) for k in (1, 2, 3)]
            )
        )
        procs = 1 if isinstance(dist, Replicated) else draw(st.integers(1, 3))
        # Shrink the grid until no processor is left without data.
        while procs > 1 and not owned_count(dist, extent, procs, procs - 1):
            procs -= 1
        dists.append(dist)
        grid.append(procs)
    row = itemsize * math.prod(shape[1:])
    disp = draw(st.integers(0, 3)) * row + draw(st.sampled_from([0, 0, 0, 1]))
    return multidim_partition(shape, itemsize, dists, grid, displacement=disp)


def any_partition():
    return st.one_of(
        contiguous_partitions(), striped_partitions(), nested_partitions()
    )
