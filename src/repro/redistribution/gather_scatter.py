"""GATHER and SCATTER (paper §8.1).

``GATHER`` copies the non-contiguous bytes selected by a FALLS family
between two limits out of a linear buffer into a contiguous buffer;
``SCATTER`` is the exact reverse.  The Clusterfile compute node gathers
view data into a send buffer; the I/O node scatters received data into
its subfile.  The same pair implements MPI-style pack/unpack.

Three execution strategies, selected per call:

``strided``
    When every segment has the same length and the starts form an
    arithmetic progression (one flat FALLS — the overwhelmingly common
    case for array partitions), the copy is a single reshape of a
    ``numpy.lib.stride_tricks.as_strided`` view: no per-segment Python
    overhead at all.

``fancy``
    For many short irregular segments, build a flat index array once
    (``repeat + cumsum`` trick) and do one vectorised fancy-index copy.

``slices``
    For few segments, or long ones, plain per-segment slice copies
    (each one a memcpy) beat the per-byte index-array construction.

:func:`copy_segments` is the two-sided form for a copy that crosses no
wire: source segments onto destination segments in one pass, by the
same three strategies, without the packed buffer in between.
"""

from __future__ import annotations

from typing import Literal, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.periodic import PeriodicFallsSet
from ..core.segments import SegmentArrays

__all__ = [
    "gather",
    "scatter",
    "gather_segments",
    "scatter_segments",
    "copy_segments",
]

Strategy = Literal["auto", "strided", "fancy", "slices"]

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
    """Expand segments into a flat element-index array.

    Classic vectorised expansion: repeat each start ``length`` times and
    add a per-position ramp that restarts at every segment boundary.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(starts, lengths)
    ramp = np.arange(total, dtype=np.int64)
    resets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return reps + (ramp - resets)


def _flat_falls(
    size: int, starts: np.ndarray, lengths: np.ndarray
) -> Optional[Tuple[int, int, int, int]]:
    """``(first, stride, n, seg_len)`` when the segments are one flat
    FALLS — equal lengths, starts in arithmetic progression — inside a
    buffer of ``size`` bytes; None otherwise."""
    n = int(starts.size)
    first, seg_len = int(starts[0]), int(lengths[0])
    stride = seg_len
    if n > 1:
        stride = int(starts[1]) - first
        if (
            stride <= 0
            or np.any(lengths != seg_len)
            or np.any(np.diff(starts) != stride)
        ):
            return None
    if first < 0 or first + (n - 1) * stride + seg_len > size:
        return None
    return first, stride, n, seg_len


def _prefer_fancy(pieces: int, total: int) -> bool:
    """Many short pieces: one index assignment beats per-piece slices."""
    return pieces >= _FANCY_THRESHOLD and total < _FANCY_MEAN_BYTES * pieces


def _resolve(buf, starts, lengths, total: int, strategy: Strategy):
    """``(strategy, view)`` one copy over ``buf`` runs with; ``view`` is
    the ``(n_segments, seg_len)`` strided view when the strategy is
    ``"strided"``, else None."""
    if strategy in ("auto", "strided"):
        flat = _flat_falls(buf.size, starts, lengths)
        if flat is not None:
            first, stride, n, seg_len = flat
            view = as_strided(buf[first:], (n, seg_len), (stride, 1))
            return "strided", view
        if strategy == "strided":
            return "slices", None
    if strategy == "auto":
        fancy = _prefer_fancy(int(starts.size), total)
        return ("fancy" if fancy else "slices"), None
    return strategy, None


def gather_segments(
    src: np.ndarray,
    segs: SegmentArrays,
    dst: Optional[np.ndarray] = None,
    strategy: Strategy = "auto",
) -> np.ndarray:
    """Pack the bytes of ``src`` at the given segments into a contiguous
    buffer.  ``src`` must be a 1-D uint8 array; segment coordinates index
    directly into it."""
    starts, lengths = segs
    total = int(lengths.sum()) if lengths.size else 0
    if dst is None:
        dst = np.empty(total, dtype=src.dtype)
    elif dst.size < total:
        raise ValueError(f"destination holds {dst.size} bytes, need {total}")
    out = dst[:total]
    if total == 0:
        return out
    strategy, view = _resolve(src, starts, lengths, total, strategy)
    if strategy == "strided":
        # As in scatter_segments: reshape(-1) on the strided view would
        # make a full temporary; copy through the 2-D shape instead.
        np.copyto(out.reshape(view.shape), view)
        return out
    if strategy == "fancy":
        out[:] = src[_flat_indices(starts, lengths)]
        return out
    pos = 0
    for a, ln in zip(starts.tolist(), lengths.tolist()):
        out[pos : pos + ln] = src[a : a + ln]
        pos += ln
    return out


def scatter_segments(
    dst: np.ndarray,
    segs: SegmentArrays,
    src: np.ndarray,
    strategy: Strategy = "auto",
) -> None:
    """Unpack a contiguous buffer into ``dst`` at the given segments —
    the exact reverse of :func:`gather_segments`."""
    starts, lengths = segs
    total = int(lengths.sum()) if lengths.size else 0
    if total == 0:
        return
    if src.size < total:
        raise ValueError(f"source holds {src.size} bytes, need {total}")
    payload = src[:total]
    strategy, view = _resolve(dst, starts, lengths, total, strategy)
    if strategy == "strided":
        # NB: reshape(-1) on a non-contiguous strided view would
        # silently copy; assign through the 2-D view instead.
        view[:, :] = payload.reshape(view.shape)
        return
    if strategy == "fancy":
        dst[_flat_indices(starts, lengths)] = payload
        return
    pos = 0
    for a, ln in zip(starts.tolist(), lengths.tolist()):
        dst[a : a + ln] = payload[pos : pos + ln]
        pos += ln


class ResolvedCopy(NamedTuple):
    """What :func:`copy_segments` does for two segment lists and two
    buffer sizes, worked out once: immutable, so it can be kept and run
    again (from any thread) while the lists and sizes stay the same."""

    nbytes: int
    src_size: int
    dst_size: int
    #: ``"strided"``, ``"fancy"`` or ``"slices"``.
    kind: str
    #: strided: ``(first, strides)`` of the view; else the piece offsets.
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
    s_flat = _flat_falls(src_size, s_starts, s_lengths)
    d_flat = _flat_falls(dst_size, d_starts, d_lengths)
    if s_flat is not None and d_flat is not None:
        inner, outer = sorted((s_flat[3], d_flat[3]))
        if outer % inner == 0:
            m = outer // inner
            return ResolvedCopy(
                nbytes, src_size, dst_size, "strided",
                _rows_view(s_flat, m, inner),
                _rows_view(d_flat, m, inner),
                (nbytes // outer, m, inner),
            )
    _check_inside("source", src_size, s_starts, s_lengths)
    _check_inside("destination", dst_size, d_starts, d_lengths)
    # Refine both lists to their common boundaries: piece k is the bytes
    # of rank [begins[k], cuts[k]) in either list's order.
    s_ends, d_ends = np.cumsum(s_lengths), np.cumsum(d_lengths)
    cuts = np.union1d(s_ends, d_ends)
    cuts = cuts[cuts > 0]
    begins = np.concatenate(([0], cuts[:-1]))
    i = np.searchsorted(s_ends, begins, side="right")
    j = np.searchsorted(d_ends, begins, side="right")
    pieces = (
        s_starts[i] + (begins - (s_ends[i] - s_lengths[i])),
        d_starts[j] + (begins - (d_ends[j] - d_lengths[j])),
        cuts - begins,
    )
    if _prefer_fancy(int(cuts.size), nbytes):
        for arr in pieces:
            arr.setflags(write=False)
        return ResolvedCopy(nbytes, src_size, dst_size, "fancy", *pieces)
    return ResolvedCopy(
        nbytes, src_size, dst_size, "slices",
        *(tuple(arr.tolist()) for arr in pieces),
    )


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
        dst[_flat_indices(copy.dst, copy.extent)] = src[
            _flat_indices(copy.src, copy.extent)
        ]
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
    gather_segments(src, src_segs))`` in one pass, with no packed
    intermediate.  Both buffers are 1-D uint8 arrays that share no
    memory; the two lists must hold equally many bytes and stay inside
    their buffer (``ValueError`` otherwise)."""
    run_copy(dst, src, resolve_copy(dst.size, dst_segs, src.size, src_segs))


def _window_segments(
    pfs: PeriodicFallsSet, lo: int, hi: int, base: int
) -> SegmentArrays:
    starts, lengths = pfs.segments_in(lo, hi)
    return starts - base, lengths


def gather(
    dst: np.ndarray,
    src: np.ndarray,
    lo: int,
    hi: int,
    pfs: PeriodicFallsSet,
    strategy: Strategy = "auto",
) -> np.ndarray:
    """The paper's GATHER(dest, src, lo, hi, S).

    ``src`` holds the linear-space interval ``[lo, hi]`` of the space
    ``pfs`` selects from (``src[0]`` is linear offset ``lo``); the bytes
    ``pfs`` selects inside the interval are packed into ``dst``.
    """
    return gather_segments(src, _window_segments(pfs, lo, hi, lo), dst, strategy)


def scatter(
    dst: np.ndarray,
    src: np.ndarray,
    lo: int,
    hi: int,
    pfs: PeriodicFallsSet,
    strategy: Strategy = "auto",
) -> None:
    """The paper's SCATTER(dest, src, lo, hi, S): reverse of
    :func:`gather` — unpack contiguous ``src`` into the selected bytes of
    the interval ``[lo, hi]`` held in ``dst``."""
    scatter_segments(dst, _window_segments(pfs, lo, hi, lo), src, strategy)
