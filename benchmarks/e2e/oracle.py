"""The benchmark's oracle: expected bytes from closed-form index arithmetic.

Nothing here imports ``repro``.  A layout is a plain tuple — the same
tuple :mod:`workloads` turns into a ``repro`` partition — and every
function below answers "which file byte is byte ``v`` of element
``e``'s linear space" with NumPy integer arithmetic only:

``("rr", n, chunk)``
    ``chunk``-byte blocks dealt round-robin over ``n`` elements.
``("r" | "c" | "b", rows, cols, nprocs)``
    row blocks, column blocks or square blocks of a ``rows x cols``
    byte matrix (the paper's three layouts).
``("bc", n, k, pr, pc)``
    ``BlockCyclic(k) x BlockCyclic(k)`` of an ``n x n`` byte matrix on
    a ``pr x pc`` processor grid, elements in row-major grid order.

Every pattern tiles: a file longer than one period repeats it.
"""

from typing import Iterable, List, Sequence, Tuple

import numpy as np

Layout = Tuple


def period(layout: Layout) -> int:
    """Bytes after which the layout's pattern repeats."""
    kind = layout[0]
    if kind == "rr":
        return layout[1] * layout[2]
    if kind in ("r", "c", "b"):
        return layout[1] * layout[2]
    if kind == "bc":
        return layout[1] * layout[1]
    raise ValueError(f"unknown layout {layout!r}")


def _grid(nprocs: int) -> Tuple[int, int]:
    """Near-square processor grid, rows <= cols (as square blocks use)."""
    pr = int(np.sqrt(nprocs))
    while nprocs % pr:
        pr -= 1
    return pr, nprocs // pr


def _owner_2d(rows: int, cols: int, row_owner, col_owner, pc: int) -> np.ndarray:
    return (row_owner[:, None] * pc + col_owner[None, :]).reshape(rows * cols)


def owner_period(layout: Layout) -> np.ndarray:
    """Owning element of each byte of one pattern period."""
    kind = layout[0]
    if kind == "rr":
        _, n, chunk = layout
        return np.repeat(np.arange(n, dtype=np.int64), chunk)
    if kind in ("r", "c", "b"):
        _, rows, cols, nprocs = layout
        pr, pc = {"r": (nprocs, 1), "c": (1, nprocs), "b": _grid(nprocs)}[kind]
        rh = -(-rows // pr)
        cw = -(-cols // pc)
        return _owner_2d(
            rows, cols,
            np.arange(rows, dtype=np.int64) // rh,
            np.arange(cols, dtype=np.int64) // cw,
            pc,
        )
    if kind == "bc":
        _, n, k, pr, pc = layout
        idx = np.arange(n, dtype=np.int64)
        return _owner_2d(n, n, (idx // k) % pr, (idx // k) % pc, pc)
    raise ValueError(f"unknown layout {layout!r}")


def element_offsets(layout: Layout, element: int, length: int) -> np.ndarray:
    """File offsets of ``element``'s linear space, in order, for a file
    of ``length`` bytes."""
    per = period(layout)
    in_period = np.flatnonzero(owner_period(layout) == element)
    reps = -(-length // per)
    offsets = (
        in_period[None, :] + (np.arange(reps, dtype=np.int64) * per)[:, None]
    ).reshape(-1)
    return offsets[offsets < length]


def view_runs(
    layout: Layout, element: int, offset: int, nbytes: int
) -> List[Tuple[int, int]]:
    """``(file_start, run_length)`` pieces of the view interval
    ``[offset, offset + nbytes)`` of ``element``, in view order.

    Closed form for the layouts the service workloads use as views
    (round robin, row blocks): no per-byte index array is built, so
    replaying thousands of 1 MiB writes stays cheap.
    """
    kind = layout[0]
    if kind == "rr":
        _, n, chunk = layout
        runs = []
        v, end = offset, offset + nbytes
        while v < end:
            block, within = divmod(v, chunk)
            take = min(chunk - within, end - v)
            runs.append(((block * n + element) * chunk + within, take))
            v += take
        return runs
    if kind == "r":
        _, rows, cols, nprocs = layout
        per_element = -(-rows // nprocs) * cols
        runs = []
        v, end = offset, offset + nbytes
        while v < end:
            tile, within = divmod(v, per_element)
            take = min(per_element - within, end - v)
            runs.append(
                (tile * rows * cols + element * per_element + within, take)
            )
            v += take
        return runs
    raise ValueError(f"no closed-form view runs for layout {layout!r}")


class FileImage:
    """One file's expected linear bytes under a replay of its writes."""

    def __init__(self, view_layout: Layout):
        self.view_layout = view_layout
        self.data = np.zeros(0, dtype=np.uint8)

    def _grow(self, length: int) -> None:
        if length > self.data.size:
            grown = np.zeros(max(length, 2 * self.data.size), dtype=np.uint8)
            grown[: self.data.size] = self.data
            self.data = grown

    def write(self, element: int, offset: int, payload: np.ndarray) -> None:
        pos = 0
        for start, n in view_runs(
            self.view_layout, element, offset, payload.size
        ):
            self._grow(start + n)
            self.data[start:start + n] = payload[pos:pos + n]
            pos += n

    def read(self, element: int, offset: int, nbytes: int) -> np.ndarray:
        out = np.zeros(nbytes, dtype=np.uint8)
        pos = 0
        for start, n in view_runs(self.view_layout, element, offset, nbytes):
            have = max(0, min(n, self.data.size - start))
            out[pos:pos + have] = self.data[start:start + have]
            pos += n
        return out


def mismatched_bytes(expected: np.ndarray, got: np.ndarray) -> int:
    """Bytes at which two file images differ.  Either side may carry a
    longer zero tail (a sparse file's length is implementation-defined
    past the last written byte); any non-zero byte there counts."""
    expected = np.asarray(expected, dtype=np.uint8).reshape(-1)
    got = np.asarray(got, dtype=np.uint8).reshape(-1)
    n = min(expected.size, got.size)
    bad = int(np.count_nonzero(expected[:n] != got[:n]))
    bad += int(np.count_nonzero(expected[n:])) + int(np.count_nonzero(got[n:]))
    return bad


def replay(
    view_layout: Layout,
    ops: Iterable[Tuple[int, str, int, int, object]],
) -> Tuple[FileImage, int, int]:
    """Replay one file's operations in ticket-sequence order.

    ``ops`` yields ``(seq, kind, element, offset, data)``: for a write
    ``data`` is the payload written (or a zero-argument callable making
    it, so thousands of large payloads need not exist at once), for a
    read the bytes the program returned.  Returns ``(image,
    reads_checked, mismatched_reads)`` — each read is compared at its
    own position in the order, against exactly the writes sequenced
    before it.
    """
    image = FileImage(view_layout)
    checked = bad = 0
    for _seq, kind, element, offset, data in sorted(ops, key=lambda o: o[0]):
        if callable(data):
            data = data()
        buf = np.asarray(data, dtype=np.uint8).reshape(-1)
        if kind == "write":
            image.write(element, offset, buf)
        else:
            checked += 1
            if not np.array_equal(image.read(element, offset, buf.size), buf):
                bad += 1
    return image, checked, bad


def split(data: np.ndarray, layout: Layout, elements: int) -> List[np.ndarray]:
    """Per-element pieces of a linear array (what each rank holds)."""
    return [
        data[element_offsets(layout, e, data.size)] for e in range(elements)
    ]


def assemble(
    pieces: Sequence[np.ndarray], layout: Layout, length: int
) -> np.ndarray:
    """The linear array a list of per-element pieces stands for."""
    out = np.zeros(length, dtype=np.uint8)
    for e, piece in enumerate(pieces):
        out[element_offsets(layout, e, length)] = piece
    return out
