"""Redistribution schedules (paper §7).

Given two partitions of the same file — source and destination — the
redistribution algorithm intersects every source element with every
destination element and projects each non-empty intersection on both
sides; :func:`build_plan` gets all of them from labelled sweeps over a
period: one per dimension when both partitions are products of rows
and columns (every multidimensional array layout is), one over the
flattened period otherwise or when every element of both is one block.
The result is a
:class:`RedistributionPlan`: one :class:`Transfer` per communicating
element pair, carrying

* the intersection (file space) — what the pair has in common,
* the source projection — *where to gather* those bytes from the source
  element's linear space, and
* the destination projection — *where to scatter* them in the
  destination element's linear space.

The plan is data-independent: it depends only on the two partitioning
patterns, is periodic (everything repeats with the lcm of the two
pattern sizes), and can be computed once and reused for any file length
and any number of accesses — this is exactly the cost the paper's
``t_i`` column measures and amortises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..core.falls import Falls, FallsSet
from ..core.normalize import falls_set_from_segments, node_floor, product_falls
from ..core.partition import Partition
from ..core.periodic import PeriodicFallsSet
from ..core.segments import (
    flat_falls,
    merge_segment_arrays,
    product_segment_arrays,
    run_heads,
    unit_segments,
)
from ..obs import metrics as _metrics

__all__ = ["Transfer", "RedistributionPlan", "build_plan"]


@dataclass(frozen=True)
class Transfer:
    """One source-element -> destination-element data movement."""

    src_element: int
    dst_element: int
    intersection: PeriodicFallsSet
    src_projection: PeriodicFallsSet
    dst_projection: PeriodicFallsSet

    @property
    def bytes_per_period(self) -> int:
        return self.intersection.size_per_period

    @property
    def src_fragments_per_period(self) -> int:
        """Fragments to gather at the source per intersection period."""
        return self.src_projection.fragment_count_per_period

    @property
    def dst_fragments_per_period(self) -> int:
        return self.dst_projection.fragment_count_per_period

    def bytes_in_file(self, file_length: int) -> int:
        """Bytes this transfer moves for a file of ``file_length``."""
        return self.intersection.count_in(0, file_length - 1)


@dataclass
class RedistributionPlan:
    """The full pairwise schedule between two partitions."""

    src: Partition
    dst: Partition
    transfers: List[Transfer]
    #: Element pairs the schedule construction considered (``p * q``).
    candidate_pairs: int = 0
    #: Pairs with no common byte, which carry no transfer (see
    #: :func:`build_plan`).
    pruned_pairs: int = 0

    @cached_property
    def by_pair(self) -> Dict[Tuple[int, int], Transfer]:
        return {(t.src_element, t.dst_element): t for t in self.transfers}

    @cached_property
    def _by_src(self) -> Dict[int, List[Transfer]]:
        out: Dict[int, List[Transfer]] = {}
        for t in self.transfers:
            out.setdefault(t.src_element, []).append(t)
        return out

    @cached_property
    def _by_dst(self) -> Dict[int, List[Transfer]]:
        out: Dict[int, List[Transfer]] = {}
        for t in self.transfers:
            out.setdefault(t.dst_element, []).append(t)
        return out

    @property
    def message_count(self) -> int:
        """Element pairs that exchange data (network messages per write
        of one pattern period, in the paper's setting)."""
        return len(self.transfers)

    def transfers_from(self, src_element: int) -> List[Transfer]:
        """Transfers leaving one source element (cached index — plans are
        queried per element on every operation, so this must not rescan
        the whole transfer list)."""
        return self._by_src.get(src_element, [])

    def transfers_to(self, dst_element: int) -> List[Transfer]:
        """Transfers arriving at one destination element (cached index)."""
        return self._by_dst.get(dst_element, [])

    def total_bytes(self, file_length: int) -> int:
        return sum(t.bytes_in_file(file_length) for t in self.transfers)

    @property
    def is_identity(self) -> bool:
        """True when both partitions send every byte to the same element
        index at the same element offset — the optimal layout case where
        every view maps exactly on a subfile (paper §6.2).  A transfer's
        projections list its pieces in file order with shared lengths, so
        they are equal exactly when every piece lands at the same offset
        on both sides."""
        return all(
            t.src_element == t.dst_element
            and t.src_projection == t.dst_projection
            for t in self.transfers
        )

    def fragment_statistics(self) -> Dict[str, float]:
        """Aggregate fragmentation measures — the quantities that drive
        gather/scatter cost in the evaluation."""
        if not self.transfers:
            return {
                "transfers": 0,
                "bytes_per_period": 0,
                "src_fragments": 0,
                "dst_fragments": 0,
                "mean_fragment_bytes": 0.0,
            }
        src_frags = sum(t.src_fragments_per_period for t in self.transfers)
        dst_frags = sum(t.dst_fragments_per_period for t in self.transfers)
        total = sum(t.bytes_per_period for t in self.transfers)
        return {
            "transfers": len(self.transfers),
            "bytes_per_period": total,
            "src_fragments": src_frags,
            "dst_fragments": dst_frags,
            "mean_fragment_bytes": total / max(src_frags, 1),
        }


def _window_runs(
    p: Partition, lo: int, period: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``p``'s same-owner runs over ``[lo, lo + period)``: window-relative
    starts, owners, and per run the shift from a window position to its
    offset among the owner's bytes counted from the window start."""
    if p.num_elements == 1:  # one run: the whole window
        return (np.zeros(1, dtype=np.int64),) * 3
    starts, owners = p.runs
    phase = (lo - p.displacement) % p.size
    copies = period // p.size + (phase > 0)
    if copies > 1:
        starts = (p.size * np.arange(copies)[:, None] + starts).reshape(-1)
        owners = np.tile(owners, copies)
        if owners[0] == owners[-1]:  # runs continue across pattern copies
            heads = run_heads(owners)
            starts, owners = starts[heads], owners[heads]
    if phase:
        first = int(np.searchsorted(starts, phase, "right")) - 1
        last = int(np.searchsorted(starts, phase + period))
        starts, owners = starts[first:last] - phase, owners[first:last]
        starts[0] = 0
    if copies == 1 and not phase and owners.size == p.num_elements and all(
        map(p.element_size, range(p.num_elements))
    ):
        return starts, owners, -starts  # each element is one run
    # Grouped exclusive cumsum: each run's offset among its owner's bytes.
    lengths = np.diff(starts, append=period)
    order = np.argsort(owners, kind="stable")
    before = np.cumsum(lengths[order]) - lengths[order]
    heads = np.flatnonzero(run_heads(owners[order]))
    before -= np.repeat(before[heads], np.diff(heads, append=order.size))
    shift = np.empty_like(before)
    shift[order] = before
    return starts, owners, shift - starts


def _sweep(src: Partition, dst: Partition, src_lo: int, dst_lo: int, period: int):
    """Cut a window of ``period`` from ``src_lo`` in ``src`` and ``dst_lo``
    in ``dst`` at both sides' same-owner run starts, label each piece
    (source element, destination element) by ``searchsorted`` and group
    the pieces by pair with one stable argsort.  Yields, per non-empty
    pair in key order, ``(i, j, at, size, src_at, dst_at)``: the pieces'
    window-relative starts and lengths, and their offsets among ``i``'s
    and ``j``'s bytes counted from the window start."""
    q = dst.num_elements
    src_starts, src_owners, src_shift = _window_runs(src, src_lo, period)
    dst_starts, dst_owners, dst_shift = _window_runs(dst, dst_lo, period)
    # Piece k is [cuts[k], cuts[k + 1]); the last cut is the window end.
    cuts = np.concatenate((src_starts, dst_starts, [period]))
    cuts.sort(kind="stable")  # sorted runs: a linear merge
    cuts = cuts[run_heads(cuts)]
    src_run = np.searchsorted(src_starts, cuts[:-1], "right") - 1
    dst_run = np.searchsorted(dst_starts, cuts[:-1], "right") - 1
    pair = src_owners[src_run].astype(np.int64) * q + dst_owners[dst_run]
    order = np.argsort(pair, kind="stable")
    counts = np.bincount(pair, minlength=src.num_elements * q)
    del pair  # a k = 1 layout cuts one piece per byte: free what we can
    stop = 0
    for key in np.flatnonzero(counts).tolist():
        idx = order[stop : stop + counts[key]]
        stop += counts[key]
        at = cuts[idx]
        yield (*divmod(key, q), at, cuts[idx + 1] - at,
               at + src_shift[src_run[idx]], at + dst_shift[dst_run[idx]])


def _linear(p: Partition, e: int, lo: int, period: int) -> Tuple[int, int]:
    """Displacement and period of element ``e``'s share of the window
    ``[lo, lo + period)`` in the element's own linear space."""
    return p.element_length(e, lo), period // p.size * p.element_size(e)


def _swept_transfers(src, dst, lo, period) -> List[Transfer]:
    """Transfers from one sweep of the flattened window ``[lo, lo +
    period)``, each pair's byte lists kept and re-nested by period
    detection when a tree is read."""
    return [
        Transfer(
            i,
            j,
            PeriodicFallsSet.from_segments((at, size), lo, period),
            PeriodicFallsSet.from_segments(
                (src_at, size), *_linear(src, i, lo, period)
            ),
            PeriodicFallsSet.from_segments(
                (dst_at, size), *_linear(dst, j, lo, period)
            ),
        )
        for i, j, at, size, src_at, dst_at in _sweep(src, dst, lo, lo, period)
    ]


def _nodes(falls) -> int:
    """FALLS nodes in a tree."""
    return sum(1 + _nodes(f.inner) for f in falls)


def _chain(falls) -> bool:
    """True when every level of the tree is one FALLS."""
    return len(falls) < 2 and all(_chain(f.inner) for f in falls)


def _tree(starts, size, unit=False) -> tuple:
    """A 1-D list's tree; rows one by one if ``unit``."""
    if unit and size.size == 1:  # one block of rows
        return (Falls(int(starts[0]), int(starts[0]), 1, int(size[0])),)
    return falls_set_from_segments(
        unit_segments((starts, size)) if unit else (starts, size)
    ).falls


def _product_tree(rows, cols, width, w) -> FallsSet:
    """The tree of one set of a product plan at ``w`` bytes per row, from
    its row and column pairs' pieces (window positions, lengths and
    offsets on the set's side; rows of ``width`` window bytes).

    It is rows x columns (:func:`repro.core.normalize.product_falls`) of
    the two lists, each compressed once: the rows one by one unless the
    pair owns whole rows, as the flattened sweep cuts them, so period
    detection on the flattened list would find the row tree's levels
    again.  Where runs may also carry on from one row into the next
    (below a row level of several FALLS, or where the columns wrap
    round), the flattened sweep's list is built and its tree kept if
    smaller: no tree is larger than the sweep's."""
    (row_at, row_size, row_off), (col_at, col_size, col_off) = rows, cols
    unit = not (col_size.size == 1 and col_size[0] == width)
    wraps = unit and col_at[0] == 0 and col_at[-1] + col_size[-1] == width and (
        row_size.max() > 1
    )
    row_tree, col_tree = _tree(row_off, row_size, unit), _tree(col_off, col_size)
    falls = product_falls(row_tree, w, col_tree)
    chain = _chain(row_tree)
    if not chain:  # whole blocks of rows may nest better
        falls = min(
            falls, product_falls(_tree(row_off, row_size), w, col_tree), key=_nodes
        )
    one_segment = len(col_tree) == 1 and col_tree[0].n == 1 and not col_tree[0].inner
    if wraps or not (chain or one_segment):
        # One piece per merged segment of the intersection, at its
        # offset on this side.
        starts, size = product_segment_arrays(
            (row_at, row_size), width, (col_at, col_size)
        )
        offset = 0
        for (at, off), x, scale in zip(
            ((row_at, row_off), (col_at, col_off)), np.divmod(starts, width), (w, 1)
        ):
            run = np.searchsorted(at, x, "right") - 1
            offset = offset + (off[run] + x - at[run]) * scale
        if node_floor((offset, size)) < _nodes(falls):
            falls = min(
                falls, falls_set_from_segments((offset, size)).falls, key=_nodes
            )
    return FallsSet(falls)


def _product_transfers(src, dst, lo, period, width) -> List[Transfer]:
    """Transfers of two products at ``width`` bytes per row
    (:meth:`Partition.factors`), swept once per dimension.

    Every set is its factors (:meth:`PeriodicFallsSet.from_product`): the
    merged row and column lists of its row and column pairs, on its own
    side, with their flatness.  Its tree is built by
    :func:`_product_tree` from the two pairs' pieces only when something
    reads ``falls``."""
    (src_rows, src_cols, src_cells), (dst_rows, dst_cols, dst_cells) = (
        src.factors(width),
        dst.factors(width),
    )
    row_lo = [(lo - p.displacement) // width for p in (src, dst)]
    pieces = [
        {(a, b): x for a, b, *x in sweep}
        for sweep in (
            _sweep(src_rows, dst_rows, *row_lo, period // width),
            _sweep(src_cols, dst_cols, 0, 0, width),
        )
    ]

    @functools.cache
    def factor(dim, pair, k):
        """A row (``dim`` 0) or column pair's pieces (window positions,
        lengths and list ``k``'s starts: window positions, source or
        destination offsets), and list ``k`` merged, with its flatness."""
        at, size, *offsets = pieces[dim][pair]
        starts = (at, *offsets)[k]
        merged = (starts, size)
        if k and size.size > 1:  # pieces apart in the window may abut in an element
            merged = merge_segment_arrays(merged)
        return (at, size, starts), merged, flat_falls(*merged)

    def product_set(rp, cp, k, w, disp, per):
        (row_pieces, rows, row_flat), (col_pieces, cols, col_flat) = (
            factor(0, rp, k),
            factor(1, cp, k),
        )
        tree = functools.partial(_product_tree, row_pieces, col_pieces, width, w)
        return PeriodicFallsSet.from_product(
            tree, rows, w, cols, disp, per, (row_flat, col_flat)
        )

    src_of = {cell: e for e, cell in enumerate(src_cells)}
    dst_of = {cell: e for e, cell in enumerate(dst_cells)}
    transfers = []
    for i, j, rp, cp in sorted(
        (src_of[a, c], dst_of[b, d], (a, b), (c, d))
        for a, b in pieces[0]
        for c, d in pieces[1]
    ):
        sides = (
            (width, lo, period),
            (src_cols.element_size(src_cells[i][1]), *_linear(src, i, lo, period)),
            (dst_cols.element_size(dst_cells[j][1]), *_linear(dst, j, lo, period)),
        )
        transfers.append(Transfer(i, j, *(
            product_set(rp, cp, k, *side) for k, side in enumerate(sides)
        )))
    return transfers


def build_plan(src: Partition, dst: Partition) -> RedistributionPlan:
    """Compute the redistribution schedule between two partitions.

    Everything is periodic with the lcm of the two pattern sizes from
    the larger displacement (the paper's PREPROCESS).  Each non-empty
    (source element, destination element) pair of that window is one
    :class:`Transfer`: the bytes the pair shares and where they sit in
    each element's linear space.  No pair is intersected and no offset
    is MAPped; INTERSECT-AUX
    (:func:`repro.core.intersect_nested.intersect_elements`) + PROJ
    (:func:`repro.core.projection.project`) is the reference.

    When both partitions are products of rows and columns at one row
    width, read from their FALLS trees (:meth:`Partition.factors`), the
    window is swept once over the row factors and once over the column
    factors, and every set is its row and column lists
    (:func:`_product_transfers`): no list of the window's size is built,
    a set expands its segments only when a query first needs them, and
    builds its nested-FALLS tree only when ``falls`` is read.
    Any other pair sweeps the flattened window, cutting it at both
    sides' same-owner runs (:attr:`Partition.runs`), and keeps each
    pair's byte lists, re-nested by period detection when a tree is read
    (:func:`_swept_transfers`): the reference the product path matches
    segment for segment.  So do two partitions whose every element is
    one block (:attr:`Partition.contiguous`, such as row blocks against
    row blocks): their window is only P + Q pieces, cheaper than two
    factor sweeps.
    """
    candidates = src.num_elements * dst.num_elements
    lo = max(src.displacement, dst.displacement)
    period = math.lcm(src.size, dst.size)

    width = math.gcd(src.row_width, dst.row_width, src.displacement - dst.displacement)
    if (
        width > 1
        and not (src.contiguous and dst.contiguous)
        and src.factors(width)
        and dst.factors(width)
    ):
        transfers = _product_transfers(src, dst, lo, period, width)
    else:
        transfers = _swept_transfers(src, dst, lo, period)
    pruned = candidates - len(transfers)
    _metrics.inc("build_plan.calls")
    _metrics.inc("build_plan.candidate_pairs", candidates)
    _metrics.inc("build_plan.pruned_pairs", pruned)
    return RedistributionPlan(src, dst, transfers, candidates, pruned)
