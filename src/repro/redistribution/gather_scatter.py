"""GATHER and SCATTER (paper §8.1).

``GATHER`` copies the non-contiguous bytes selected by a FALLS family
between two limits out of a linear buffer into a contiguous buffer;
``SCATTER`` is the exact reverse.  The Clusterfile compute node gathers
view data into a send buffer; the I/O node scatters received data into
its subfile.  The same pair implements MPI-style pack/unpack.

Every byte movement is one kernel in two halves.  The resolve half
(:func:`resolve_copy` between two segment lists, :func:`resolve_packed`
between one list and a contiguous payload) looks at the segments once,
checks that they stay inside their buffers (``ValueError`` otherwise)
and returns an immutable :class:`ResolvedCopy`; :func:`run_copy` moves
the bytes, as often as the caller keeps it.  Only the resolve half
chooses how they move: a slice per piece for one run or a few long
pieces, one ``np.copyto`` between strided views when each side is one
flat FALLS (equal lengths, starts in arithmetic progression: array
partitions), and one fancy-index copy for many short pieces.  A product
of rows and columns (:class:`~repro.core.segments.ProductSegments`, the
window of a set a product plan built, paper §5's pattern repeated
through the linear space) is resolved from its two factor lists without
expanding them (:func:`resolve_product`): when each is one flat FALLS,
to one ``np.copyto`` between views of up to four dimensions (row
blocks, rows, column blocks, columns), or to the very copy its segment
list would resolve to when that list is one run or one flat FALLS.
:func:`gather_segments`, :func:`scatter_segments`, :func:`copy_segments`
and the paper's :func:`gather` and :func:`scatter` resolve and run in
one call.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..core.periodic import PeriodicFallsSet
from ..core.segments import ProductSegments, SegmentArrays, flat_falls

__all__ = [
    "gather",
    "scatter",
    "gather_segments",
    "scatter_segments",
    "copy_segments",
    "resolve_packed",
    "resolve_product",
]

#: Below this many segments, slice copies win over index construction.
_FANCY_THRESHOLD = 32
#: ... and so they do from this mean segment length up: the index costs
#: 8 bytes and ~10 ns per *byte*, a slice ~0.35 us per *segment*.
_FANCY_MEAN_BYTES = 32


def as_flat_bytes(data, what: str) -> np.ndarray:
    """``data`` as the flat uint8 array gather/scatter address: buffers
    (``bytes``, ``bytearray``, ``memoryview``) are viewed, uint8 arrays
    flattened.  Other dtypes are rejected, not cast — a cast wraps
    values mod 256 and shrinks the byte count to the item count."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(data, dtype=np.uint8)
    data = np.ascontiguousarray(data)
    if data.dtype != np.uint8:
        raise ValueError(
            f"{what} must be uint8 (the file model is bytes), "
            f"got dtype {data.dtype}"
        )
    return data.reshape(-1)


def _flat_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand segments into a flat element-index array: each start
    repeated ``length`` times plus a ramp that restarts per segment."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    first = int(lengths[0])
    if first * lengths.size == total and (lengths == first).all():
        # Equal segments (FALLS blocks): one broadcast add, not five passes.
        return (starts[:, None] + np.arange(first, dtype=np.int64)).reshape(-1)
    reps = np.repeat(starts, lengths)
    ramp = np.arange(total, dtype=np.int64)
    resets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return reps + (ramp - resets)


def _prefer_fancy(pieces: int, total: int) -> bool:
    """Many short pieces: one index assignment beats per-piece slices."""
    return pieces >= _FANCY_THRESHOLD and total < _FANCY_MEAN_BYTES * pieces


def gather_segments(
    src: np.ndarray, segs: SegmentArrays, dst: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pack the bytes of the 1-D uint8 ``src`` at the given segments into
    a contiguous buffer (``dst`` when given, else a fresh one)."""
    copy = resolve_packed(src.size, segs, True)
    total = copy.nbytes
    if dst is None:
        dst = np.empty(total, dtype=np.uint8)
    elif dst.size < total:
        raise ValueError(f"destination holds {dst.size} bytes, need {total}")
    out = dst[:total]
    run_copy(out, src, copy)
    return out


def scatter_segments(dst: np.ndarray, segs: SegmentArrays, src: np.ndarray) -> None:
    """Unpack a contiguous buffer into ``dst`` at the given segments —
    the exact reverse of :func:`gather_segments`."""
    copy = resolve_packed(dst.size, segs, False)
    if src.size < copy.nbytes:
        raise ValueError(f"source holds {src.size} bytes, need {copy.nbytes}")
    run_copy(dst, src[: copy.nbytes], copy)


class ResolvedCopy(NamedTuple):
    """What :func:`copy_segments` does for two segment lists and two
    buffer sizes, worked out once: immutable, so it can be kept and run
    again (from any thread) while the lists and sizes stay the same."""

    nbytes: int
    src_size: int
    dst_size: int
    #: ``"strided"``, ``"fancy"`` or ``"slices"``.
    kind: str
    #: strided: ``(first, strides)`` of the view; else the piece offsets
    #: (fancy: an int, the first offset, when the pieces are one run).
    src: tuple
    dst: tuple
    #: strided: the views' common shape; else the piece lengths.
    extent: tuple


def _check_inside(what: str, size: int, starts, lengths) -> None:
    if int(starts.min()) < 0 or int((starts + lengths).max()) > size:
        raise ValueError(f"{what} segments leave its {size}-byte buffer")


def _rows_view(flat, m: int, inner: int):
    """``(first, strides)`` showing a flat FALLS as ``(rows, m, inner)``:
    its segments are either the ``inner`` pieces themselves, ``m`` to a
    row, or the rows, each cut into ``m``."""
    first, stride, _n, seg_len = flat
    if seg_len == inner:
        return first, (m * stride, stride, 1)
    return first, (stride, inner, 1)


def resolve_copy(
    dst_size: int,
    dst_segs: SegmentArrays,
    src_size: int,
    src_segs: SegmentArrays,
) -> ResolvedCopy:
    """The buffer-independent half of :func:`copy_segments`; raises
    ``ValueError`` on unequal byte counts and on segments that leave a
    buffer of the given size."""
    (s_starts, s_lengths), (d_starts, d_lengths) = src_segs, dst_segs
    nbytes, dst_bytes = int(s_lengths.sum()), int(d_lengths.sum())
    if nbytes != dst_bytes:
        raise ValueError(
            f"source segments hold {nbytes} bytes, destination {dst_bytes}"
        )
    if nbytes == 0:
        return ResolvedCopy(0, src_size, dst_size, "slices", (), (), ())
    _check_inside("source", src_size, s_starts, s_lengths)
    _check_inside("destination", dst_size, d_starts, d_lengths)
    s_flat = flat_falls(s_starts, s_lengths)
    d_flat = flat_falls(d_starts, d_lengths)
    # One run onto one run is one slice assignment, cheaper than views.
    if s_flat and d_flat and s_starts.size + d_starts.size > 2:
        inner, outer = sorted((s_flat[3], d_flat[3]))
        if outer % inner == 0:
            m = outer // inner
            return ResolvedCopy(
                nbytes, src_size, dst_size, "strided",
                _rows_view(s_flat, m, inner),
                _rows_view(d_flat, m, inner),
                (nbytes // outer, m, inner),
            )
    if min(s_starts.size, d_starts.size) == 1:
        # One side is one run (a gather's payload, a scatter's source):
        # the pieces are the other side's non-empty segments.
        to_run = d_starts.size == 1
        starts, lengths = (s_starts, s_lengths) if to_run else (d_starts, d_lengths)
        starts, extent = starts[lengths > 0], lengths[lengths > 0]
        run = int((d_starts if to_run else s_starts)[0])
        if not _prefer_fancy(int(extent.size), nbytes):
            run = run + np.cumsum(extent) - extent
        pieces = (starts, run, extent) if to_run else (run, starts, extent)
    else:
        # Refine both lists to their common boundaries: piece k is the
        # bytes of rank [begins[k], cuts[k]) in either list's order (a
        # stable sort merges the sorted ends; np.union1d hashes, 25x slower).
        s_ends, d_ends = np.cumsum(s_lengths), np.cumsum(d_lengths)
        cuts = np.concatenate((s_ends, d_ends))
        cuts.sort(kind="stable")
        cuts = cuts[np.diff(cuts, prepend=0) > 0]
        begins = np.concatenate(([0], cuts[:-1]))
        i = np.searchsorted(s_ends, begins, side="right")
        j = np.searchsorted(d_ends, begins, side="right")
        pieces = (
            s_starts[i] + (begins - (s_ends[i] - s_lengths[i])),
            d_starts[j] + (begins - (d_ends[j] - d_lengths[j])),
            cuts - begins,
        )
    src, dst, extent = pieces
    if _prefer_fancy(int(extent.size), nbytes):
        extent.setflags(write=False)
        return ResolvedCopy(
            nbytes, src_size, dst_size, "fancy",
            _fancy_side(src, extent), _fancy_side(dst, extent), extent,
        )
    return ResolvedCopy(
        nbytes, src_size, dst_size, "slices",
        *(tuple(arr.tolist()) for arr in pieces),
    )


def _fancy_side(offsets, extent: np.ndarray):
    """One side's piece offsets, or its first offset alone (an int) when
    the pieces are one packed run (a gather's payload, a scatter's
    source): that side is then a slice, not a byte index."""
    if isinstance(offsets, np.ndarray):
        if not np.array_equal(offsets[1:], offsets[:-1] + extent[:-1]):
            offsets.setflags(write=False)
            return offsets
        offsets = int(offsets[0])
    return offsets


def _fancy_index(side, copy: ResolvedCopy):
    if isinstance(side, int):
        return slice(side, side + copy.nbytes)
    return _flat_indices(side, copy.extent)


def resolve_product(
    size: int, p: ProductSegments, gather: bool
) -> Optional[ResolvedCopy]:
    """:func:`resolve_packed` for a product of a ``size``-byte buffer,
    read from its two factor lists without expanding them (and their
    flatness from ``p.flat`` when the product carries it); None when a
    factor is not one flat FALLS or the product is empty (its segment
    list then takes :func:`resolve_packed`).  The bytes are four
    dimensions — row blocks, rows, column blocks, columns — of which
    unit ones are dropped and each pair that steps evenly from one to
    the next folded into one, so the copy is one slice when they are
    one run, the flat-FALLS view their segment list would resolve to
    when they are one flat FALLS, and one strided view of the remaining
    dimensions otherwise."""
    if not p.rows[0].size:
        return None
    rows, cols = p.flat or (flat_falls(*p.rows), flat_falls(*p.cols))
    if rows is None or cols is None:
        return None
    (r0, r_stride, r_n, r_len), (c0, c_stride, c_n, c_len) = rows, cols
    w = p.width
    shape, strides = [], []
    for n, step in ((r_n, r_stride * w), (r_len, w), (c_n, c_stride), (c_len, 1)):
        if n == 1:
            continue
        if strides and strides[-1] == n * step:
            shape[-1] *= n
            strides[-1] = step
        else:
            shape.append(n)
            strides.append(step)
    if not strides or strides[-1] != 1:
        shape.append(1)
        strides.append(1)
    return _packed_view(size, p.first + r0 * w + c0, shape, strides, gather)


def resolve_packed(size: int, segs, gather: bool) -> ResolvedCopy:
    """:func:`resolve_copy` between ``segs`` of a ``size``-byte buffer
    and a contiguous payload: packing them into it (``gather``) or
    unpacking it onto them.  One segment resolves to a slice and one
    flat FALLS to a strided view.  ``segs`` may also be a
    :class:`~repro.core.segments.ProductSegments`, resolved from its
    factors when :func:`resolve_product` can, else expanded.  Any other
    list is bounds-checked once and its pieces are the segments
    themselves, on the slice or the index path by :func:`_prefer_fancy`."""
    if isinstance(segs, ProductSegments):
        copy = resolve_product(size, segs, gather)
        if copy is not None:
            return copy
        segs = segs.arrays()
    starts, lengths = segs
    nbytes = int(lengths.sum())
    if nbytes == 0:
        side = payload = extent = ()
        kind = "slices"
    else:
        flat = flat_falls(starts, lengths)
        if flat is not None:
            first, stride, n, seg_len = flat
            if n == 1:
                return _packed_view(size, first, (seg_len,), (1,), gather)
            return _packed_view(size, first, (n, seg_len), (stride, 1), gather)
        _check_inside("source" if gather else "destination", size, starts, lengths)
        if _prefer_fancy(int(starts.size), nbytes):
            # The payload side is one run: a slice, not a byte index.
            side, payload, kind, extent = starts, 0, "fancy", lengths
        else:
            side, extent = tuple(starts.tolist()), tuple(lengths.tolist())
            payload = tuple((np.cumsum(lengths) - lengths).tolist())
            kind = "slices"
    if gather:
        return ResolvedCopy(nbytes, size, nbytes, kind, side, payload, extent)
    return ResolvedCopy(nbytes, nbytes, size, kind, payload, side, extent)


def _packed_view(size: int, first: int, shape, strides, gather: bool) -> ResolvedCopy:
    """The copy between a ``size``-byte buffer's view ``first, shape,
    strides`` (last stride 1) and a contiguous payload: one slice for
    one run, else one ``np.copyto`` (a flat FALLS keeps a leading unit
    dimension, as ``(1, n, seg_len)``)."""
    nbytes, last = 1, first
    for n, step in zip(shape, strides):
        nbytes *= n
        last += (n - 1) * step
    if first < 0 or last >= size:
        what = "source" if gather else "destination"
        raise ValueError(f"{what} segments leave its {size}-byte buffer")
    if len(shape) == 1:
        side, payload, kind, extent = (first,), (0,), "slices", (nbytes,)
    else:
        if len(shape) == 2:
            shape, strides = (1, *shape), (shape[0] * strides[0], *strides)
        packed = [1] * len(shape)
        for i in range(len(shape) - 1, 0, -1):
            packed[i - 1] = packed[i] * shape[i]
        side, payload = (first, tuple(strides)), (0, tuple(packed))
        kind, extent = "strided", tuple(shape)
    if gather:
        return ResolvedCopy(nbytes, size, nbytes, kind, side, payload, extent)
    return ResolvedCopy(nbytes, nbytes, size, kind, payload, side, extent)


def run_copy(dst: np.ndarray, src: np.ndarray, copy: ResolvedCopy) -> None:
    """Run a resolved copy on buffers of the sizes it was resolved for."""
    if src.size != copy.src_size or dst.size != copy.dst_size:
        raise ValueError(
            f"copy resolved for a {copy.src_size}-byte source and a "
            f"{copy.dst_size}-byte destination, got {src.size} and {dst.size}"
        )
    if copy.nbytes == 0:
        return
    if copy.kind == "strided":
        # The ndarray constructor checks shape and strides against the
        # buffer, which as_strided does not, and costs a tenth of it.
        (s_first, s_strides), (d_first, d_strides) = copy.src, copy.dst
        np.copyto(
            np.ndarray(copy.extent, np.uint8, dst, d_first, d_strides),
            np.ndarray(copy.extent, np.uint8, src, s_first, s_strides),
        )
    elif copy.kind == "fancy":
        dst[_fancy_index(copy.dst, copy)] = src[_fancy_index(copy.src, copy)]
    else:
        for s, d, ln in zip(copy.src, copy.dst, copy.extent):
            dst[d : d + ln] = src[s : s + ln]


def copy_segments(
    dst: np.ndarray,
    dst_segs: SegmentArrays,
    src: np.ndarray,
    src_segs: SegmentArrays,
) -> None:
    """Copy the bytes of ``src`` at ``src_segs`` onto ``dst`` at
    ``dst_segs``, in list order — ``scatter_segments(dst, dst_segs,
    gather_segments(src, src_segs))`` with no packed intermediate.  The
    buffers are 1-D uint8 arrays that share no memory; the lists must
    hold equally many bytes and stay inside their buffers."""
    run_copy(dst, src, resolve_copy(dst.size, dst_segs, src.size, src_segs))


def gather(
    dst: np.ndarray, src: np.ndarray, lo: int, hi: int, pfs: PeriodicFallsSet
) -> np.ndarray:
    """The paper's GATHER(dest, src, lo, hi, S): ``src`` holds the
    interval ``[lo, hi]`` of the space ``pfs`` selects from (``src[0]``
    is offset ``lo``); the bytes ``pfs`` selects in it are packed into
    ``dst``."""
    starts, lengths = pfs.segments_in(lo, hi)
    return gather_segments(src, (starts - lo, lengths), dst)


def scatter(
    dst: np.ndarray, src: np.ndarray, lo: int, hi: int, pfs: PeriodicFallsSet
) -> None:
    """The paper's SCATTER(dest, src, lo, hi, S): reverse of
    :func:`gather` — unpack contiguous ``src`` into the selected bytes of
    the interval ``[lo, hi]`` held in ``dst``."""
    starts, lengths = pfs.segments_in(lo, hi)
    scatter_segments(dst, (starts - lo, lengths), src)
