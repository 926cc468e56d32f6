"""The multi-file, multi-tenant file service: admission, WFQ, batching.

:class:`FileService` fronts a *namespace* of files on one
:class:`Clusterfile` deployment.  It accepts many simultaneous client
operations — for many files, from many tenants — and runs them on a
bounded worker pool while preserving per-file serial semantics:

* **Admission** — one shared bounded budget (``max_queue``) with
  per-tenant quotas on top: a tenant at its quota parks
  (``admission="park"`` — backpressure) or is rejected
  (``admission="reject"`` → :class:`ServiceOverloaded`) even while the
  global budget has room, so one tenant cannot starve the rest of the
  queue.  Each admitted operation is stamped with a **per-file
  sequence number**: the order is total within a file and deliberately
  unordered across files — independent files share no counter, no
  queue position, and no lock, so they never serialise.
* **Scheduling** — operations land in per-file FIFO queues.  A single
  dispatcher picks the next *file head* by weighted fair queueing over
  tenants (start-time fair queueing: each operation carries a virtual
  finish tag ``start + cost/weight``; the eligible head with the
  smallest tag runs).  Because only queue heads are dispatched and
  each file's queue is FIFO, per-file admission order is preserved no
  matter how tenants interleave.
* **Ordering** — the dispatcher registers each dispatched operation on
  its file's :class:`FairRWLock` before handing it to the pool.
  Registration order equals per-file admission order, so same-file
  writes always apply in the order clients were admitted; reads share;
  operations on different files proceed concurrently.  Locks are
  tagged with the file id: whenever a worker actually blocks, the
  active holders' tags are compared with the blocked operation's —
  ``service.lock.cross_file_conflicts`` counts mismatches and the
  stress suite pins it at exactly zero (per-file locks make it
  structurally impossible; the counter proves it).
* **Batching** — an adjacent run of writes, or of reads, *within one
  file's queue* (same disk flag) coalesces into a single engine call,
  up to ``max_batch`` requests: coalescing is keyed by ``(file id,
  kind, adjacency in that file's order)`` and nothing else — a compute
  node may appear any number of times — so traffic on other files can
  never break a file's batch.  With ``batch_window_s`` > 0 the
  dispatcher lingers for late write arrivals on the same file.  The
  engine applies a multi-request write's payloads in request order, so
  a coalesced batch is byte-identical to executing its members
  serially in per-file admission order.
* **Dispatch** — at most ``workers`` operations are in flight; the
  dispatcher blocks on a worker slot before submitting, so queue depth
  reflects the true backlog.

With one worker, no faults and batching disabled the service is
byte-for-byte the serial engine.  With any worker count, each file's
operations still apply in that file's admission order, so every file's
bytes equal a per-file serial replay of its admitted sequence.

Everything the service does is measured: ``service.*`` counters
(enqueued/rejected/completed/failed/batches, lock blocking and the
cross-file conflict invariant) and bounded histograms — global
(``queue_depth``/``batch_size``/``wait_s``), per tenant
(``service.tenant.<t>.queue_depth``/``.wait_s`` + admission/rejection
counters) and per file (``service.file.<name>.wait_s``) — live in the
process-wide metrics registry.  Every ticket carries a trace id, file
id and tenant, and the worker publishes a ``service.batch`` span tree
on each ticket so :func:`repro.service.request_timeline` reconstructs
a request's queue_wait → lock_acquire → engine phases across threads.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..clusterfile.fs import Clusterfile
from ..clusterfile.relayout import relayout
from ..core.partition import Partition
from ..obs import flightrec
from ..obs import metrics as obs_metrics
from ..obs.context import trace_context
from ..obs.span import open_span
from ..redistribution.gather_scatter import as_flat_bytes
from .locks import FairRWLock, LockTicket
from .tickets import ServiceClosed, ServiceOverloaded, Ticket

__all__ = ["FileService", "DEFAULT_TENANT"]

#: Tenant used when the caller does not name one.
DEFAULT_TENANT = "default"


@dataclass
class _Op:
    """One admitted operation, queued for dispatch."""

    kind: str  # "write" | "read" | "relayout"
    name: str
    ticket: Ticket
    admitted_at: float
    tenant: str = DEFAULT_TENANT
    #: Start-time-fair-queueing tags, fixed at admission.
    wfq_start: float = 0.0
    wfq_finish: float = 0.0
    #: When the dispatcher registered the op on its file lock (queue
    #: wait ends here; lock wait begins).
    registered_at: float = 0.0
    node: int = -1
    offset: int = 0
    data: Optional[np.ndarray] = None  # write payload
    length: int = 0  # bytes written / to read
    disk: bool = False  # write's to_disk / read's from_disk
    new_physical: Optional[Partition] = None
    extra: Dict[str, Any] = field(default_factory=dict)


class _TenantState:
    """Per-tenant scheduling state: quota accounting + WFQ tags."""

    __slots__ = (
        "name", "weight", "quota", "queued", "last_finish",
        "m_enqueued", "m_rejected", "h_queue_depth", "h_wait_s",
    )

    def __init__(self, name: str, weight: float, quota: int):
        self.name = name
        self.weight = weight
        self.quota = quota
        self.queued = 0  # admitted, not yet dispatched
        self.last_finish = 0.0
        self.m_enqueued = obs_metrics.counter(
            f"service.tenant.{name}.enqueued"
        )
        self.m_rejected = obs_metrics.counter(
            f"service.tenant.{name}.rejected"
        )
        self.h_queue_depth = obs_metrics.histogram(
            f"service.tenant.{name}.queue_depth"
        )
        self.h_wait_s = obs_metrics.histogram(f"service.tenant.{name}.wait_s")


class _FileState:
    """Per-file service state: its own lock, queue, and sequence."""

    __slots__ = (
        "file_id", "name", "lock", "queue", "next_seq", "ready", "h_wait_s",
    )

    def __init__(self, file_id: int, name: str):
        self.file_id = file_id
        self.name = name
        self.lock = FairRWLock()
        self.queue: Deque[_Op] = deque()
        self.next_seq = 0
        #: Whether this file currently sits in the dispatcher's ready
        #: list (kept as a flag so membership checks are O(1)).
        self.ready = False
        self.h_wait_s = obs_metrics.histogram(f"service.file.{name}.wait_s")


def _batch_compatible(op: _Op, head: _Op) -> bool:
    """Whether ``op`` can extend the batch ``head`` opened: same kind
    (a run of writes or a run of reads — a relayout runs alone), same
    disk flag (one engine call has one).  The file is implied —
    candidates come off the same per-file queue, so adjacency *in that
    file's order* is the rest of the batching key.  Order alone keeps
    a batch serial-equivalent: the engine applies requests in list
    order."""
    return (
        op.kind == head.kind
        and head.kind != "relayout"
        and op.disk == head.disk
    )


class FileService:
    """A concurrent, batching, multi-tenant front end over a namespace
    of files on one :class:`Clusterfile` deployment.

    Parameters
    ----------
    fs:
        The deployment to serve.  The service assumes exclusive use of
        the deployment's data operations while it is open (views may be
        set up front; use :meth:`submit_relayout` for layout changes —
        it re-establishes existing views against the new layout).
    workers:
        Worker threads; also the in-flight operation cap.
    max_queue:
        Shared bound on admitted-but-undispatched operations across
        every file and tenant.
    admission:
        ``"park"`` blocks submitters while the queue (or their tenant's
        quota) is full (backpressure); ``"reject"`` raises
        :class:`ServiceOverloaded`.
    max_batch:
        Largest number of adjacent same-file writes (or reads)
        coalesced into one engine call.  ``1`` disables batching.
    batch_window_s:
        How long the dispatcher lingers for late write arrivals on the
        same file that extend a batch.  ``0`` coalesces only what is
        already queued.
    namespace:
        An optional :class:`~repro.namespace.cluster.ClusterNamespace`.
        When given, ``submit_*`` also accept absolute *paths*
        (``"/logs/a"``): the namespace's cached lookup resolves them to
        ``(backing name, file id)`` and per-file state is keyed by the
        stable id — renames never move queues or locks.
    tenant_weights:
        ``{tenant: weight}`` for weighted fair queueing.  Unlisted
        tenants get weight 1.0.  An operation's virtual cost is 1.0, so
        under saturation tenants receive dispatch slots proportional to
        their weights.
    tenant_quota:
        Per-tenant cap on queued (undispatched) operations; defaults to
        ``max_queue`` (no per-tenant throttling).  Override per tenant
        with :meth:`set_tenant`.
    workers_mode / io_processes:
        As before: ``"process"`` fans each engine call's server-side
        work out across a worker-process pool (see
        :class:`~repro.mp.pool.ProcessPoolExecutorBackend`).
    durability:
        An optional :class:`~repro.durability.DurabilityManager`.  When
        given, every executed write batch is group-committed to the
        file's write-ahead journal (journal stamp = ticket seq) *before
        its tickets resolve* — an acknowledged write survives a
        SIGKILL of this process — and a re-layout checkpoints the file
        (snapshot + fresh journals at a bumped epoch) before its ticket
        resolves.  ``None`` (the default) journals nothing and adds no
        overhead.
    """

    def __init__(
        self,
        fs: Clusterfile,
        workers: int = 4,
        max_queue: int = 64,
        admission: str = "park",
        max_batch: int = 8,
        batch_window_s: float = 0.0,
        namespace: object = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        tenant_quota: Optional[int] = None,
        workers_mode: str = "thread",
        io_processes: Optional[int] = None,
        durability: object = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if admission not in ("park", "reject"):
            raise ValueError(
                f"admission must be 'park' or 'reject', got {admission!r}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if workers_mode not in ("thread", "process"):
            raise ValueError(
                f"workers_mode must be 'thread' or 'process', "
                f"got {workers_mode!r}"
            )
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {tenant_quota}")
        self.fs = fs
        self.namespace = namespace
        self.durability = durability
        self.workers_mode = workers_mode
        self._owned_backend = None
        if workers_mode == "process" and fs.backend is None:
            from ..clusterfile.storage import SharedMemoryStorage
            from ..mp import ProcessPoolExecutorBackend

            if not isinstance(fs.storage, SharedMemoryStorage):
                raise ValueError(
                    "workers_mode='process' needs subfile stores in "
                    "shared memory; build the deployment with "
                    "Clusterfile(storage=SharedMemoryStorage()) or "
                    "Clusterfile(workers_mode='process')"
                )
            self._owned_backend = ProcessPoolExecutorBackend(
                processes=io_processes or workers, config=fs.config
            )
            fs.backend = self._owned_backend
        self.workers = workers
        self.max_queue = max_queue
        self.admission = admission
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s
        self.default_tenant_quota = (
            tenant_quota if tenant_quota is not None else max_queue
        )
        self._tenant_weights = dict(tenant_weights or {})

        self._qlock = threading.Lock()
        self._not_empty = threading.Condition(self._qlock)
        self._not_full = threading.Condition(self._qlock)
        self._idle = threading.Condition(self._qlock)
        #: Files with a non-empty queue, as a lazy min-heap of
        #: ``(wfq_finish, wfq_start, file_id, fstate)`` entries keyed
        #: by each file's *head* operation — the dispatcher pops the
        #: minimum in O(log n) instead of scanning every ready file.
        #: Entries whose key went stale (the head changed under them —
        #: linger drains, or dispatch of the old head) are detected and
        #: refreshed at pop time; ``fstate.ready`` means "has a live
        #: heap entry", keeping membership O(1) and at most one entry
        #: per file.
        self._ready_heap: List[Tuple[float, float, int, _FileState]] = []
        self._queued = 0  # admitted, not yet dispatched (all files)
        self._pending = 0  # admitted, not yet resolved
        self._vtime = 0.0  # WFQ virtual time
        self._closed = False

        # Hot-path metric handles, resolved once (a registry lookup per
        # admission is measurable at small-operation rates).
        self._m_enqueued = obs_metrics.counter("service.enqueued")
        self._m_rejected = obs_metrics.counter("service.rejected")
        self._m_parked = obs_metrics.counter("service.parked_submits")
        self._m_completed = obs_metrics.counter("service.completed")
        self._m_failed = obs_metrics.counter("service.failed")
        self._m_batches = obs_metrics.counter("service.batches")
        # The ordering invariants, measured: lock waits that actually
        # blocked (same-file contention — expected under load) vs
        # blocked waits whose active holder belonged to a *different*
        # file (structurally impossible with per-file locks; pinned at
        # zero by the stress suite).
        self._m_lock_blocked = obs_metrics.counter("service.lock.blocked")
        self._m_cross_file = obs_metrics.counter(
            "service.lock.cross_file_conflicts"
        )
        # Bounded log-bucket histograms, not gauges: a long-running
        # service keeps quantiles and slow-op exemplars at fixed
        # footprint (the summary keys stay gauge-compatible).
        self._m_queue_depth = obs_metrics.histogram("service.queue_depth")
        self._m_batch_size = obs_metrics.histogram("service.batch_size")
        self._m_wait_s = obs_metrics.histogram("service.wait_s")

        self._files: Dict[str, _FileState] = {}
        self._tenants: Dict[str, _TenantState] = {}
        self._next_file_id = 1
        self._slots = threading.Semaphore(workers)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="svc-worker"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="svc-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- tenant / file registries --------------------------------------------

    def set_tenant(
        self,
        name: str,
        weight: Optional[float] = None,
        quota: Optional[int] = None,
    ) -> None:
        """Configure (or reconfigure) one tenant's WFQ weight and
        admission quota.  Safe at any time; affects operations admitted
        afterwards."""
        if weight is not None and weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        if quota is not None and quota < 1:
            raise ValueError(f"quota must be >= 1, got {quota}")
        with self._qlock:
            t = self._tenant_locked(name)
            if weight is not None:
                t.weight = weight
                self._tenant_weights[name] = weight
            if quota is not None:
                t.quota = quota
            # A raised quota may unpark waiting submitters.
            self._not_full.notify_all()

    def _tenant_locked(self, name: str) -> _TenantState:
        t = self._tenants.get(name)
        if t is None:
            t = self._tenants[name] = _TenantState(
                name,
                weight=float(self._tenant_weights.get(name, 1.0)),
                quota=self.default_tenant_quota,
            )
        return t

    def _file_locked(self, name: str, file_id: Optional[int]) -> _FileState:
        fstate = self._files.get(name)
        if fstate is None:
            if file_id is None:
                file_id = self._next_file_id
                self._next_file_id += 1
            fstate = self._files[name] = _FileState(file_id, name)
        return fstate

    def _locate(self, file: str) -> Tuple[str, Optional[int]]:
        """Resolve a client-facing file reference to ``(backing name,
        file id)``: through the namespace when one is attached and the
        reference is a path, else as a bare Clusterfile name."""
        ns = self.namespace
        if ns is not None and file.startswith("/"):
            return ns.locate(file)
        return file, None

    # -- client API ----------------------------------------------------------

    def submit_write(
        self,
        name: str,
        node: int,
        offset: int,
        data,
        to_disk: bool = False,
        tenant: str = DEFAULT_TENANT,
    ) -> Ticket:
        """Admit one view write (the payload is copied at admission, so
        the caller may reuse its buffer immediately)."""
        payload = as_flat_bytes(data, "data").copy()
        return self._admit(
            _Op(
                kind="write",
                name=name,
                ticket=None,  # type: ignore[arg-type]  # stamped in _admit
                admitted_at=0.0,
                tenant=tenant,
                node=node,
                offset=offset,
                data=payload,
                length=payload.size,
                disk=to_disk,
            )
        )

    def submit_read(
        self,
        name: str,
        node: int,
        offset: int,
        length: int,
        from_disk: bool = False,
        tenant: str = DEFAULT_TENANT,
    ) -> Ticket:
        """Admit one view read; the ticket resolves to the bytes read."""
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        return self._admit(
            _Op(
                kind="read",
                name=name,
                ticket=None,  # type: ignore[arg-type]
                admitted_at=0.0,
                tenant=tenant,
                node=node,
                offset=offset,
                length=length,
                disk=from_disk,
            )
        )

    def submit_relayout(
        self,
        name: str,
        new_physical: Partition,
        tenant: str = DEFAULT_TENANT,
    ) -> Ticket:
        """Admit a physical re-layout.  Exclusive on the file; views set
        on the file are re-established against the new layout before the
        ticket resolves."""
        return self._admit(
            _Op(
                kind="relayout",
                name=name,
                ticket=None,  # type: ignore[arg-type]
                admitted_at=0.0,
                tenant=tenant,
                new_physical=new_physical,
            )
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted operation has resolved; returns
        False on timeout."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._qlock:
            while self._pending:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self, drain: bool = True) -> None:
        """Stop admitting; by default finish queued work, then join the
        dispatcher and the pool."""
        with self._qlock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for fstate in self._files.values():
                    fstate.ready = False
                    for op in fstate.queue:
                        op.ticket._fail(ServiceClosed("service closed"))
                        op_tenant = self._tenants.get(op.tenant)
                        if op_tenant is not None:
                            op_tenant.queued -= 1
                        self._pending -= 1
                    fstate.queue.clear()
                self._ready_heap.clear()
                self._queued = 0
                if not self._pending:
                    self._idle.notify_all()
            self._not_empty.notify_all()
            self._not_full.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)
        if self._owned_backend is not None:
            self._owned_backend.close()
            if self.fs.backend is self._owned_backend:
                self.fs.backend = None
            self._owned_backend = None

    def __enter__(self) -> "FileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        """Admitted-but-undispatched operations across all files."""
        with self._qlock:
            return self._queued

    @property
    def pending(self) -> int:
        with self._qlock:
            return self._pending

    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant scheduling snapshot (tests, operators)."""
        with self._qlock:
            return {
                t.name: {
                    "weight": t.weight,
                    "quota": t.quota,
                    "queued": t.queued,
                    "virtual_finish": t.last_finish,
                }
                for t in self._tenants.values()
            }

    def file_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-file service snapshot: id, backlog, next sequence."""
        with self._qlock:
            return {
                f.name: {
                    "file_id": f.file_id,
                    "queued": len(f.queue),
                    "next_seq": f.next_seq,
                }
                for f in self._files.values()
            }

    # -- admission -----------------------------------------------------------

    def _admit(self, op: _Op) -> Ticket:
        name, file_id = self._locate(op.name)
        op.name = name
        with self._qlock:
            if self._closed:
                raise ServiceClosed("service closed")
            tstate = self._tenant_locked(op.tenant)
            parked = False
            while (
                self._queued >= self.max_queue
                or tstate.queued >= tstate.quota
            ):
                if self.admission == "reject":
                    self._m_rejected.inc()
                    tstate.m_rejected.inc()
                    if tstate.queued >= tstate.quota:
                        raise ServiceOverloaded(
                            f"tenant {op.tenant!r} at quota "
                            f"({tstate.quota})"
                        )
                    raise ServiceOverloaded(
                        f"admission queue full ({self.max_queue})"
                    )
                if not parked:  # once per submit, not per wakeup
                    parked = True
                    self._m_parked.inc()
                self._not_full.wait()
                if self._closed:
                    raise ServiceClosed("service closed")
            fstate = self._file_locked(name, file_id)
            op.ticket = Ticket(
                fstate.next_seq,
                op.kind,
                name,
                file_id=fstate.file_id,
                tenant=op.tenant,
            )
            fstate.next_seq += 1
            # Start-time fair queueing: the operation's virtual finish
            # tag orders it against every other tenant's backlog.  Unit
            # cost per operation — dispatch slots, not bytes, are the
            # contended resource at this layer.
            start = max(self._vtime, tstate.last_finish)
            op.wfq_start = start
            op.wfq_finish = start + 1.0 / tstate.weight
            tstate.last_finish = op.wfq_finish
            op.admitted_at = time.perf_counter()
            fstate.queue.append(op)
            if not fstate.ready:
                fstate.ready = True
                heapq.heappush(
                    self._ready_heap, (*self._head_key(fstate), fstate)
                )
            self._queued += 1
            tstate.queued += 1
            self._pending += 1
            self._m_enqueued.inc()
            tstate.m_enqueued.inc()
            self._m_queue_depth.observe(self._queued)
            tstate.h_queue_depth.observe(tstate.queued)
            self._not_empty.notify()
        return op.ticket

    # -- dispatch ------------------------------------------------------------

    def _account_dispatch_locked(self, ops: List[_Op]) -> None:
        """Move ops from 'queued' to 'in flight' (caller holds _qlock)."""
        for op in ops:
            self._queued -= 1
            self._tenants[op.tenant].queued -= 1
        self._not_full.notify_all()

    @staticmethod
    def _head_key(fstate: _FileState) -> Tuple[float, float, int]:
        head = fstate.queue[0]
        return (head.wfq_finish, head.wfq_start, fstate.file_id)

    def _requeue_if_ready_locked(self, fstate: _FileState) -> None:
        """Give a file with remaining backlog a fresh heap entry."""
        if fstate.queue and not fstate.ready:
            fstate.ready = True
            heapq.heappush(
                self._ready_heap, (*self._head_key(fstate), fstate)
            )

    def _pop_ready_locked(self) -> Optional[_FileState]:
        """Pop the ready file whose head has the smallest WFQ key.

        Lazy invalidation: an entry for a drained queue is discarded;
        an entry whose key no longer matches the current head (ops
        lingered away or were admitted since the push) is refreshed in
        place.  Each entry is refreshed at most once per call — only
        this (single) dispatcher mutates heads, so a refreshed key
        cannot go stale again before it is re-examined.
        """
        while self._ready_heap:
            finish, start, fid, fstate = heapq.heappop(self._ready_heap)
            if not fstate.queue:
                fstate.ready = False
                continue
            key = self._head_key(fstate)
            if (finish, start, fid) != key:
                heapq.heappush(self._ready_heap, (*key, fstate))
                continue
            fstate.ready = False
            return fstate
        return None

    def _dispatch_loop(self) -> None:
        while True:
            with self._qlock:
                # WFQ across tenants: of every file's head operation,
                # run the one with the smallest virtual finish tag.
                # Only heads are eligible, so per-file FIFO order is
                # preserved no matter how the tags interleave.
                while True:
                    fstate = self._pop_ready_locked()
                    if fstate is not None or self._closed:
                        break
                    self._not_empty.wait()
                if fstate is None:
                    return  # closed and drained
                head = fstate.queue.popleft()
                self._vtime = max(self._vtime, head.wfq_start)
                batch = [head]
                while (
                    len(batch) < self.max_batch
                    and fstate.queue
                    and _batch_compatible(fstate.queue[0], head)
                ):
                    batch.append(fstate.queue.popleft())
                self._account_dispatch_locked(batch)
                self._requeue_if_ready_locked(fstate)
            if (
                head.kind == "write"
                and self.batch_window_s > 0
                and len(batch) < self.max_batch
            ):
                self._linger(fstate, batch)
            # Lock registration in per-file admission order fixes
            # same-file ordering *before* workers race to execute.
            mode = "r" if head.kind == "read" else "w"
            lticket = fstate.lock.register(mode, tag=fstate.file_id)
            registered = time.perf_counter()
            for op in batch:
                op.registered_at = registered
            self._slots.acquire()
            self._pool.submit(self._run_batch, fstate, batch, lticket)

    def _linger(self, fstate: _FileState, batch: List[_Op]) -> None:
        """Hold a short write batch open for late arrivals *on the same
        file* that extend it."""
        deadline = time.perf_counter() + self.batch_window_s
        with self._qlock:
            while len(batch) < self.max_batch:
                if fstate.queue:
                    if _batch_compatible(fstate.queue[0], batch[0]):
                        op = fstate.queue.popleft()
                        batch.append(op)
                        self._account_dispatch_locked([op])
                        continue
                    break  # incompatible head: dispatch what we have
                if self._closed:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._not_empty.wait(remaining)
            # Any heap entry this file gained from admissions during
            # the linger now points at a drained (or changed) head; the
            # pop-time lazy check discards or refreshes it.

    # -- execution -----------------------------------------------------------

    def _run_batch(
        self, fstate: _FileState, batch: List[_Op], lticket: LockTicket
    ) -> None:
        lock = fstate.lock
        # Flight recorder: when armed, the batch's dispatch, lock grant
        # and release land in the crash-surviving ring (one 64-byte
        # store each).  Unarmed cost: one global read per batch.
        rec = flightrec.active()
        fkey = rec.file_key(fstate.name) if rec is not None else 0
        lock_recorded = False
        try:
            if rec is not None and len(batch) > 1:
                # Singleton batches skip the dispatch event — their
                # op_start says the same thing for half the hot-path
                # cost on unbatched workloads.
                head0 = batch[0]
                rec.record(
                    flightrec.EV_BATCH,
                    trace=flightrec.trace_num(head0.ticket.trace_id),
                    tseq=head0.ticket.seq,
                    tenant=rec.tenant_key(head0.tenant),
                    file=fkey,
                    a=len(batch),
                )
            blocked = not lticket.granted
            if blocked:
                # Blocked: same-file contention by construction.  The
                # cross-file counter verifies that construction — any
                # active holder tagged with another file id would be a
                # serialization bug, and the stress suite pins it at 0.
                self._m_lock_blocked.inc()
                if any(
                    tag != fstate.file_id for tag in lock.active_tags()
                ):
                    self._m_cross_file.inc()
            lock.wait(lticket)
            if rec is not None and (blocked or len(batch) > 1):
                # Grant/release are recorded for contended grants and
                # multi-op batches — the holds forensics cannot infer.
                # An uncontended singleton's hold is exactly its op
                # window, so op_start-without-finish already names it
                # as the holder at death; skipping its two lock events
                # halves the recorder's cost on unbatched workloads
                # and stretches the ring's retention horizon.
                lock_recorded = True
                rec.record(
                    flightrec.EV_LOCK_GRANT,
                    file=fkey,
                    a=0 if batch[0].kind == "read" else 1,
                )
            started = time.perf_counter()
            head = batch[0]
            with open_span(
                "service.batch",
                kind=head.kind,
                file=head.name,
                file_id=fstate.file_id,
                tenant=head.tenant,
                size=len(batch),
                trace_id=head.ticket.trace_id,
            ) as root:
                for op in batch:
                    op.ticket.wait_s = started - op.admitted_at
                    op.ticket.batched_with = len(batch)
                    registered = op.registered_at or started
                    root.record(
                        "queue_wait",
                        max(0.0, registered - op.admitted_at),
                        trace_id=op.ticket.trace_id,
                        seq=op.ticket.seq,
                    )
                    root.record(
                        "lock_acquire",
                        max(0.0, started - registered),
                        trace_id=op.ticket.trace_id,
                        seq=op.ticket.seq,
                    )
                    self._m_wait_s.observe(
                        op.ticket.wait_s,
                        trace_id=op.ticket.trace_id,
                        seq=op.ticket.seq,
                    )
                    fstate.h_wait_s.observe(op.ticket.wait_s)
                    tstate = self._tenants.get(op.tenant)
                    if tstate is not None:
                        tstate.h_wait_s.observe(op.ticket.wait_s)
                    # Publish the tree before execution: tickets resolve
                    # inside _execute, and a client may ask for its
                    # timeline the instant result() returns.
                    op.ticket.trace = root
                try:
                    # The engine tags its operation root with the bound
                    # trace id, tying the whole batch (head's id names
                    # the engine call; per-op records carry their own).
                    with trace_context(head.ticket.trace_id):
                        self._execute(batch)
                    self._m_completed.inc(len(batch))
                except BaseException as exc:
                    for op in batch:
                        if not op.ticket.done():
                            op.ticket._fail(exc)
                    self._m_failed.inc(len(batch))
        finally:
            if lock_recorded:
                rec.record(flightrec.EV_LOCK_RELEASE, file=fkey)
            lock.release(lticket)
            self._slots.release()
            with self._qlock:
                self._pending -= len(batch)
                if not self._pending:
                    self._idle.notify_all()

    def _execute(self, batch: List[_Op]) -> None:
        head = batch[0]
        if head.kind == "relayout":
            # Capture the file's views: relayout invalidates them (their
            # projections referred to the old subfiles) and the service
            # re-establishes each against the new layout.
            saved = [
                (node, v.logical, v.element)
                for (n, node), v in list(self.fs.views.items())
                if n == head.name
            ]
            result = relayout(self.fs, head.name, head.new_physical)
            for node, logical, element in saved:
                self.fs.set_view(head.name, node, logical, element)
            if self.durability is not None:
                # A re-layout changes the physical partition the redo
                # records' subfile offsets refer to, so it is a
                # checkpoint boundary: snapshot the (logically
                # unchanged) contents and restart the journals against
                # the new partition before acknowledging.
                self.durability.checkpoint(self.fs, head.name)
            head.ticket._resolve(result)
            return
        # A coalesced run of writes or of reads: one engine call.
        self._m_batches.inc()
        self._m_batch_size.observe(len(batch), trace_id=head.ticket.trace_id)
        rec = flightrec.active()
        if rec is not None:
            fkey = rec.file_key(head.name)
            # trace/tenant keys computed once per op, shared with the
            # finish records below.
            fmeta = [
                (
                    flightrec.trace_num(op.ticket.trace_id),
                    rec.tenant_key(op.tenant),
                )
                for op in batch
            ]
            for op, (tnum, tkey) in zip(batch, fmeta):
                rec.record(
                    flightrec.EV_OP_START,
                    trace=tnum,
                    tseq=op.ticket.seq,
                    tenant=tkey,
                    file=fkey,
                    a=op.offset,
                    b=op.length,
                )
        if head.kind == "write":
            accesses = [(op.node, op.offset, op.data) for op in batch]
            result = self.fs.write(head.name, accesses, to_disk=head.disk)
            results = [result] * len(batch)
            if self.durability is not None:
                # Group commit rides the batch: one commit record per
                # engine call, stamped with the batch's ticket seqs,
                # flushed *before* any ticket resolves — the ack is the
                # commit point.  The file lock is still held here, so
                # the redo payloads read back from the stores are
                # exactly this batch's post-state.
                self.durability.commit_write(
                    self.fs,
                    head.name,
                    [
                        (op.ticket.seq, op.node, op.offset, op.length)
                        for op in batch
                    ],
                )
        else:
            # One buffer per request, in request order.
            results = self.fs.read(
                head.name,
                [(op.node, op.offset, op.length) for op in batch],
                from_disk=head.disk,
            )
        for i, op in enumerate(batch):
            # Finish lands in the ring *before* the ticket resolves:
            # every acknowledged write is provably present in the
            # recorder's event stream (the forensics ack-coverage
            # check in the chaos harness relies on this ordering).
            if rec is not None:
                tnum, tkey = fmeta[i]
                rec.record(
                    flightrec.EV_OP_FINISH,
                    trace=tnum,
                    tseq=op.ticket.seq,
                    tenant=tkey,
                    file=fkey,
                    a=op.offset,
                    b=0,
                )
            op.ticket._resolve(results[i])
