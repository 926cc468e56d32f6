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
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.periodic import PeriodicFallsSet
from ..core.segments import SegmentArrays

__all__ = ["gather", "scatter", "gather_segments", "scatter_segments"]

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


def _is_uniform(starts: np.ndarray, lengths: np.ndarray) -> bool:
    if starts.size <= 1:
        return True
    if np.any(lengths != lengths[0]):
        return False
    d = np.diff(starts)
    return bool(np.all(d == d[0]))


def _strided_view(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Optional[np.ndarray]:
    """A (n_segments, seg_len) strided view over ``buf``, or None when the
    view would read past the end of the buffer."""
    n = int(starts.size)
    seg_len = int(lengths[0])
    stride = int(starts[1] - starts[0]) if n > 1 else seg_len
    first = int(starts[0])
    last_needed = first + (n - 1) * stride + seg_len
    if stride <= 0 or last_needed > buf.size:
        return None
    base = buf[first:]
    return as_strided(base, shape=(n, seg_len), strides=(stride, 1))


def _resolve(buf, starts, lengths, total: int, strategy: Strategy):
    """``(strategy, view)`` one copy over ``buf`` runs with; ``view`` is
    the strided view when the strategy is ``"strided"``, else None."""
    if strategy in ("auto", "strided") and _is_uniform(starts, lengths):
        view = _strided_view(buf, starts, lengths)
        # No view: the last row would over-read the buffer.
        return ("strided", view) if view is not None else ("slices", None)
    if strategy == "strided":
        return "slices", None
    if strategy == "auto":
        short = total < _FANCY_MEAN_BYTES * starts.size
        many = starts.size >= _FANCY_THRESHOLD
        return ("fancy" if many and short else "slices"), None
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
