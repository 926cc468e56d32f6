"""Property tests for the pieces of a cold access-layout build:

* ``Falls.size()`` and ``FallsSet.size()``, computed once at
  construction, equal the paper's recursive SIZE on every node of the
  tree, and survive a pickle round-trip with equality and hashing
  still structural;
* ``resolve_packed``'s direct paths (one segment, one flat FALLS) move
  the same bytes as ``resolve_copy``'s general merge against a one-run
  payload, for gathers and scatters alike.
"""

import dataclasses
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.falls import Falls
from repro.redistribution.gather_scatter import (
    resolve_copy,
    resolve_packed,
    run_copy,
)

from .strategies import nested_partitions, product_partitions

MAX_EXAMPLES = 150


def _recursive_size(f: Falls) -> int:
    """SIZE as the paper defines it, recursively from the leaves."""
    if not f.inner:
        return f.n * (f.r - f.l + 1)
    return f.n * sum(_recursive_size(g) for g in f.inner)


def _nodes(f: Falls):
    yield f
    for g in f.inner:
        yield from _nodes(g)


def _check_sizes(partition):
    for element in partition.elements:
        assert element.size() == sum(_recursive_size(f) for f in element)
        for top in element:
            for f in _nodes(top):
                assert f.size() == _recursive_size(f)


@given(st.one_of(nested_partitions(), product_partitions()))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_size_equals_recursive_size_before_and_after_pickle(partition):
    _check_sizes(partition)
    restored = pickle.loads(pickle.dumps(partition))
    _check_sizes(restored)
    for a, b in zip(partition.elements, restored.elements):
        assert a == b and hash(a) == hash(b)
        for f, g in zip(a, b):
            assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


def test_size_is_not_a_field():
    assert [f.name for f in dataclasses.fields(Falls)] == ["l", "r", "s", "n", "inner"]
    leaf = Falls(0, 3, 8, 2)
    assert Falls(0, 3, 8, 2, ()) == leaf and hash(Falls(0, 3, 8, 2)) == hash(leaf)


@st.composite
def packed_cases(draw):
    """A buffer size and a segment list inside it: one segment, one
    flat FALLS, or irregular segments."""
    kind = draw(st.sampled_from(["one", "flat", "irregular"]))
    first = draw(st.integers(0, 16))
    if kind == "one":
        starts, lengths = [first], [draw(st.integers(1, 64))]
    elif kind == "flat":
        n, seg = draw(st.integers(2, 40)), draw(st.integers(1, 9))
        stride = seg + draw(st.integers(0, 7))
        starts = [first + k * stride for k in range(n)]
        lengths = [seg] * n
    else:
        pairs = draw(
            st.lists(st.tuples(st.integers(0, 6), st.integers(1, 12)),
                     min_size=1, max_size=50)
        )
        starts, lengths, pos = [], [], first
        for gap, length in pairs:
            starts.append(pos + gap)
            lengths.append(length)
            pos += gap + length
    size = starts[-1] + lengths[-1] + draw(st.integers(0, 8))
    segs = (np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64))
    return size, segs


def _merged(size, segs, gather):
    nbytes = int(segs[1].sum())
    packed = (np.zeros(1, dtype=np.int64), np.full(1, nbytes, dtype=np.int64))
    if gather:
        return resolve_copy(nbytes, packed, size, segs)
    return resolve_copy(size, segs, nbytes, packed)


@given(packed_cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_resolve_packed_moves_the_bytes_resolve_copy_moves(case, seed):
    size, segs = case
    nbytes = int(segs[1].sum())
    rng = np.random.default_rng(seed)
    buffer = rng.integers(0, 256, size, dtype=np.uint8)
    payload = rng.integers(0, 256, nbytes, dtype=np.uint8)
    # Gather: the segments of the buffer, packed into the payload.
    got, want = np.zeros(nbytes, np.uint8), np.zeros(nbytes, np.uint8)
    run_copy(got, buffer, resolve_packed(size, segs, True))
    run_copy(want, buffer, _merged(size, segs, True))
    np.testing.assert_array_equal(got, want)
    # Scatter: the payload unpacked onto the segments.
    got, want = buffer.copy(), buffer.copy()
    run_copy(got, payload, resolve_packed(size, segs, False))
    run_copy(want, payload, _merged(size, segs, False))
    np.testing.assert_array_equal(got, want)
