"""The compute-node side of Clusterfile data operations (paper §8.1).

The actual pipeline — map the access extremities (``t_m``), decide
between the contiguous fast path and GATHER (``t_g``), issue the
requests and drive the exchange through the discrete-event simulation
(``t_w``) — lives in the unified I/O engine
(:mod:`repro.clusterfile.engine`); this module keeps the historical
entry points.  ``t_i`` (paid at view set), ``t_m`` and ``t_g`` are
*measured* wall times of the real algorithms; message and device times
are *modelled* (see DESIGN.md §3).  All timings are recorded as spans
(:mod:`repro.obs`) and the Table 1/2 breakdowns are derived from the
span tree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..faults import FaultInjector, RetryPolicy
from ..simulation.cluster import Cluster
from .engine import IOEngine, OperationResult, WriteRequest
from .file_model import ClusterFile

__all__ = ["WriteRequest", "OperationResult", "parallel_write", "parallel_read"]


def parallel_write(
    cluster: Cluster,
    cfile: ClusterFile,
    requests: Sequence[WriteRequest],
    to_disk: bool = False,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    backend=None,
) -> OperationResult:
    """All compute nodes write their view intervals concurrently.

    Returns per-compute-node :class:`WriteBreakdown` (Table 1 columns)
    and per-I/O-node :class:`ScatterBreakdown` (Table 2 columns), both
    derived from the operation's span tree (``result.trace``).

    ``backend`` (a :class:`~repro.mp.pool.ProcessPoolExecutorBackend`)
    moves the server-side work into worker processes.
    """
    return IOEngine(cluster, injector, retry_policy, backend=backend).write(
        cfile, requests, to_disk=to_disk
    )


def parallel_read(
    cluster: Cluster,
    cfile: ClusterFile,
    requests: Sequence[WriteRequest],
    from_disk: bool = False,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    backend=None,
) -> OperationResult:
    """The reverse-symmetric read operation (§8.1: "the write and read
    are reverse symmetrical").  Request buffers are filled in place."""
    return IOEngine(cluster, injector, retry_policy, backend=backend).read(
        cfile, requests, from_disk=from_disk
    )
