"""The I/O server side of Clusterfile data operations (paper §8.1).

Each I/O node runs one server owning one subfile.  A write request
carries the subfile window ``[l_S, r_S]`` and the payload; the server
either writes it contiguously (when ``PROJ_S(V ∩ S)`` is contiguous in
the window) or scatters it through the projection — the second
pseudocode fragment of §8.1.  Reads are the mirror image.

Two things happen per request:

* the **real** bytes move into/out of the :class:`SubfileStore`
  (verified byte-exactly by the tests), and
* the **modelled** cost is computed from the era device models: a
  buffer-cache copy with a per-run penalty, plus — in write-through
  mode — a disk write of the request's runs with seek/rotation
  accounting.

:func:`serve_request` is the one server-side loop: the engine calls it
in-process and the pool worker calls it on attached shared-memory
stores, so both produce the same bytes, costs and ``server.*`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.periodic import PeriodicFallsSet
from ..faults import ChecksumError, checksum
from ..obs import metrics as obs_metrics
from ..obs.span import open_span
from ..redistribution.gather_scatter import gather_segments, scatter_segments
from ..simulation.cluster import ClusterConfig, IONode
from ..simulation.disk import write_time_for_segments
from .file_model import SubfileStore

__all__ = ["RequestCost", "IOServer", "serve_request"]

#: ``(starts, lengths)`` of the subfile bytes a request selects.
Segments = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class RequestCost:
    """Modelled device cost of one server request (seconds)."""

    cache_s: float
    disk_s: float
    nbytes: int
    runs: int


class IOServer:
    """One subfile's server, bound to an I/O node's devices.

    ``proj_subfile`` in :meth:`write` / :meth:`read` is either the
    projection itself or its precomputed ``segments_in(l_s, r_s)``
    arrays — what a request carries once it has crossed a process
    boundary, where the projection object does not travel.
    """

    def __init__(self, node: IONode, store: SubfileStore, config: ClusterConfig):
        self.node = node
        self.store = store
        self.config = config

    @staticmethod
    def _segments(
        l_s: int, r_s: int, proj_subfile: Union[PeriodicFallsSet, Segments]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        if r_s < l_s:
            raise ValueError(f"bad subfile window [{l_s}, {r_s}]")
        if isinstance(proj_subfile, tuple):
            starts, lengths = proj_subfile
        else:
            starts, lengths = proj_subfile.segments_in(l_s, r_s)
        return starts, lengths, int(lengths.sum()) if lengths.size else 0

    # -- write ---------------------------------------------------------------

    def write(
        self,
        l_s: int,
        r_s: int,
        payload: np.ndarray,
        proj_subfile: Union[PeriodicFallsSet, Segments],
        to_disk: bool,
        crc: int | None = None,
    ) -> RequestCost:
        """Handle one write request (§8.1, second pseudocode fragment).

        When the message carries a checksum (``crc``, the CRC32 the
        sender computed at gather time) it is verified here, *before*
        the scatter: a corrupt payload raises
        :class:`~repro.faults.errors.ChecksumError` and leaves the
        subfile store untouched, so the engine's retransmit is
        idempotent.
        """
        starts, lengths, nbytes = self._segments(l_s, r_s, proj_subfile)
        if nbytes != payload.size:
            raise ValueError(
                f"payload holds {payload.size} bytes but the projection "
                f"selects {nbytes} in [{l_s}, {r_s}]"
            )
        if crc is not None and checksum(payload) != crc:
            raise ChecksumError(
                f"subfile {self.store.subfile}: payload checksum mismatch "
                f"in [{l_s}, {r_s}]"
            )
        if nbytes == 0:
            return RequestCost(0.0, 0.0, 0, 0)
        window = self.store.view(l_s, r_s)
        contiguous = starts.size == 1 and lengths[0] == r_s - l_s + 1
        if contiguous:
            window[:] = payload
            runs = 1
            if self.config.contiguous_write_optimized:
                cache_s = 0.0  # straight from the NIC into the cache
            else:
                cache_s = self.config.memory.copy_time(nbytes, runs=1)
        else:
            scatter_segments(window, (starts - l_s, lengths), payload)
            runs = int(starts.size)
            cache_s = self.config.memory.copy_time(nbytes, runs=runs)
        disk_s = 0.0
        if to_disk:
            disk_s = write_time_for_segments(
                self.node.disk, zip(starts.tolist(), lengths.tolist())
            )
        return RequestCost(cache_s, disk_s, nbytes, runs)

    # -- read ----------------------------------------------------------------

    def read(
        self,
        l_s: int,
        r_s: int,
        proj_subfile: Union[PeriodicFallsSet, Segments],
        from_disk: bool,
    ) -> Tuple[np.ndarray, RequestCost]:
        """Handle one read request: gather the projected bytes of the
        window into a reply payload."""
        starts, lengths, nbytes = self._segments(l_s, r_s, proj_subfile)
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8), RequestCost(0.0, 0.0, 0, 0)
        window = self.store.read(l_s, r_s)
        payload = gather_segments(window, (starts - l_s, lengths))
        runs = int(starts.size)
        contiguous = runs == 1 and lengths[0] == r_s - l_s + 1
        if contiguous and self.config.contiguous_write_optimized:
            cache_s = 0.0
        else:
            cache_s = self.config.memory.copy_time(nbytes, runs=runs)
        disk_s = 0.0
        if from_disk:
            disk_s = write_time_for_segments(
                self.node.disk, zip(starts.tolist(), lengths.tolist())
            )
        return payload, RequestCost(cache_s, disk_s, nbytes, runs)


def serve_request(
    op: str,
    replicas: Sequence[Tuple[int, IOServer, float]],
    l_s: int,
    r_s: int,
    segments: Segments,
    payload: Optional[np.ndarray],
    disk: bool,
    crc: Optional[int] = None,
    attempt: int = 0,
) -> Tuple[List[Tuple[float, float]], Optional[np.ndarray]]:
    """Serve one request attempt on each replica it is addressed to.

    ``replicas`` holds ``(replica_index, server, disk_factor)``; every
    one gets a ``server.<op>`` span carrying the priced ``cache_s`` /
    ``disk_s`` (the slow-disk factor is applied here, where the cost is
    produced).  A write whose payload fails its checksum is rejected by
    the first replica — the span is annotated ``error="checksum"``, no
    store is touched, and the remaining replicas are not tried (they
    would reject the same bytes).

    Returns ``(costs, reply)``: one ``(cache_s, disk_s)`` per replica
    that served the request (fewer than ``len(replicas)`` means it was
    rejected) and, for reads, the gathered reply payload.
    """
    costs: List[Tuple[float, float]] = []
    reply = None
    for r, server, disk_factor in replicas:
        with open_span(
            f"server.{op}",
            subfile=server.store.subfile,
            io_node=server.node.index,
        ) as sp:
            if r or attempt:
                sp.annotate(replica=r, attempt=attempt)
            if op == "write":
                try:
                    cost = server.write(
                        l_s, r_s, payload, segments, to_disk=disk, crc=crc
                    )
                except ChecksumError:
                    obs_metrics.inc("faults.checksum_failures")
                    sp.annotate(error="checksum")
                    break
            else:
                reply, cost = server.read(l_s, r_s, segments, from_disk=disk)
        disk_s = cost.disk_s * disk_factor
        sp.annotate(
            bytes=cost.nbytes,
            runs=cost.runs,
            cache_s=cost.cache_s,
            disk_s=disk_s,
        )
        costs.append((cost.cache_s, disk_s))
    return costs, reply
