"""The unified I/O engine: one map→gather→transport→scatter pipeline.

Before this module, the four data-movement paths — independent parallel
write/read (§8.1), two-phase collective I/O, on-the-fly physical
re-layout, and checkpoint resharding — each re-implemented the same
per-subfile request loop: *map* the access extremities, *gather* the
non-contiguous source bytes, move them over a *transport*, and
*scatter* them into the destination.  ViPIOS (PAPERS.md) demonstrates
the value of funnelling every request through one I/O-engine layer;
this module is ours.

A write or read does not price itself: each round appends a snapshot of
its message attempts to :attr:`OperationResult.log`, and the Table 1/2
records are priced from that log and the span tree by
:func:`repro.simulation.price.price` when someone first reads them.
Re-layout returns its modelled makespan, so it runs the FIFO stage
schedule eagerly; the memory-memory paths (collective shuffle,
checkpoint resharding) price their exchange with the alpha-beta
:class:`DirectTransport`.

Because every data path crosses this one seam, cross-cutting failure
handling lives here too (:mod:`repro.faults`).  Writes, reads,
re-layout and the shuffle all send through :func:`_deliver`, the one
fate model: one fate per (operation, subfile, round), and lost rounds
re-sent in request order under a :class:`~repro.faults.RetryPolicy`.
Corrupted payloads are caught by CRC32 checksums verified before any
scatter (taken lazily: intact messages never pay the hash), reads fail
over to replica subfiles when a node is crashed, and writes degrade to
the live replicas.  No injector and replication 1 is the degenerate
case of the same loop: one round, one replica per message, every fate
ok, no checksum.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import Partition
from ..faults import (
    FaultInjector,
    NoLiveReplica,
    RetryBudgetExceeded,
    RetryPolicy,
    checksum,
    replica_nodes,
)
from ..obs import metrics as obs_metrics
from ..obs.context import current_trace_id, new_trace_id
from ..obs.span import Span, current_span, open_span
from ..redistribution.executor import execute_plan
from ..redistribution.gather_scatter import gather_segments, resolve_copy, run_copy
from ..redistribution.schedule import RedistributionPlan, Transfer
from ..simulation.cluster import Cluster
from ..simulation.disk import write_time_for_segments
from ..simulation.network import NetworkModel
from ..simulation.price import Attempt, Log, SimMessage, SimulatedTransport, price
from .file_model import ClusterFile
from .server import IOServer, serve_request
from .view import LinkAccess, View

__all__ = [
    "WriteRequest",
    "OperationResult",
    "DirectTransport",
    "IOEngine",
    "ShuffleResult",
    "run_shuffle",
]


@dataclass(frozen=True)
class WriteRequest:
    """One compute node's access: a view interval plus its buffer."""

    view: View
    lo: int
    hi: int
    buf: np.ndarray  # for writes: data; for reads: destination

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"bad view interval [{self.lo}, {self.hi}]")
        if self.buf.dtype != np.uint8:
            raise ValueError(
                f"request buffer must be uint8 (the file model is bytes), "
                f"got dtype {self.buf.dtype}"
            )
        if not self.buf.flags.c_contiguous:
            raise ValueError(
                "request buffer must be C-contiguous: gather/scatter "
                "address it by flat byte offset"
            )
        if self.buf.size != self.hi - self.lo + 1:
            raise ValueError(
                f"buffer holds {self.buf.size} bytes for interval of "
                f"{self.hi - self.lo + 1}"
            )


@dataclass
class OperationResult:
    """Outcome of one parallel operation.

    ``per_compute`` / ``per_io`` carry the paper's Table 1/2 records,
    priced from :attr:`log` and :attr:`trace` by
    :func:`~repro.simulation.price.price` on first read and cached.
    """

    messages: int = 0
    payload_bytes: int = 0
    #: The operation's span tree (wall clock; modelled time is priced
    #: from :attr:`log`).
    trace: Optional[Span] = None
    #: Message attempts beyond the first (rounds after the first).
    retries: int = 0
    #: Reads served by a non-primary replica (``failover`` span count).
    failed_over: int = 0
    #: True when a write reached fewer than ``replication`` replicas.
    degraded: bool = False
    #: The message log (:data:`~repro.simulation.price.Log`).
    log: Log = ()
    #: The cluster whose device models price :attr:`log`.
    cluster: Optional[Cluster] = field(default=None, repr=False)

    @cached_property
    def _priced(self):
        return price(self, self.cluster)

    per_compute = property(lambda self: self._priced[0])
    per_io = property(lambda self: self._priced[1])


@dataclass
class _Message:
    """One logical request of an operation, plus the state of its
    current attempt (rewritten every retry round)."""

    req: WriteRequest
    access: LinkAccess
    compute: int
    subfile: int
    payload: np.ndarray
    #: CRC32 of ``payload``, stamped lazily the first time the message
    #: meets injected corruption; verified by the receiver before any
    #: scatter (``None`` = never corrupted, nothing to verify).
    crc: Optional[int] = None
    #: ``(replica, io_node, disk_factor)`` this attempt is addressed to.
    targets: Sequence[Tuple[int, int, float]] = ()
    #: ``"ok"``, ``"drop"`` or ``"corrupt"``, and any injected delay.
    fate: str = "ok"
    delay_s: float = 0.0
    #: The bytes in flight: the request payload (or the injector's
    #: corrupted copy of it) on writes, the server's reply on reads.
    wire: Optional[np.ndarray] = None
    #: ``(cache_s, disk_s)`` per target that served this attempt.
    costs: Sequence[Tuple[float, float]] = ()


@dataclass
class _Transfer:
    """A re-layout or shuffle transfer in flight: its fate's ``subfile``
    is the destination element, and each round re-sends the same
    source bytes."""

    subfile: int
    t: Transfer
    src: np.ndarray
    src_segs: Tuple[np.ndarray, np.ndarray]
    fate: str = "ok"
    delay_s: float = 0.0
    #: The delivered attempt's round start plus its injected delay.
    sent_s: float = 0.0


def _op_trace_id() -> str:
    """The trace id for an operation root span: the caller's bound id
    (a service worker executing a batch binds the head ticket's) or a
    fresh one for direct engine use."""
    return current_trace_id() or new_trace_id()


def _begin_op(injector: Optional[FaultInjector], op: str, /, **attrs):
    """Start one operation: ``(op_id, root span attributes)``.

    The operation id — and the ``begin_op`` lock behind it — exists
    only under an injector; fates and crashed sets are functions of it.
    """
    op_id = None
    if injector is not None:
        op_id = attrs["op_id"] = injector.begin_op(op)
    attrs["trace_id"] = _op_trace_id()
    return op_id, attrs


def _deliver(
    injector: Optional[FaultInjector],
    policy: RetryPolicy,
    op: str,
    op_id,
    pending: list,
    attempt,
) -> int:
    """Run ``attempt(pending, round_idx, round_start_s) -> lost`` until
    nothing is lost; returns the retransmissions.

    The one fate model: a fate is a function of ``(op_id, op, subfile,
    round)``, drawn once per subfile and round and set on each message
    to that subfile, so its messages are delivered or lost together and
    re-sent in request order.  No injector draws nothing.  Round
    ``r > 0`` runs in a ``retry`` span and starts ``timeout_s +
    backoff_s(r - 1)`` after the last on the modelled clock.
    """
    round_idx = retries = 0
    round_start = 0.0
    while True:
        if injector is not None:
            fates: Dict[int, Tuple[str, float]] = {}
            for msg in pending:
                fate = fates.get(msg.subfile)
                if fate is None:
                    fate = fates[msg.subfile] = injector.message_fate(
                        op_id, op, msg.subfile, round_idx
                    )
                msg.fate, msg.delay_s = fate
        with (
            open_span("retry", round=round_idx, messages=len(pending))
            if round_idx else contextlib.nullcontext()
        ):
            lost = attempt(pending, round_idx, round_start)
        if not lost:
            return retries
        # Only an injector loses a message, so one exists here.
        round_start += policy.timeout_s + policy.backoff_s(
            round_idx, seed=injector.plan.seed, token=(op, op_id)
        )
        round_idx += 1
        if round_idx > policy.max_retries:
            raise RetryBudgetExceeded(
                f"{op} op {op_id}: {len(lost)} message(s) still failing "
                f"after {policy.max_retries} retries"
            )
        obs_metrics.inc("faults.retry.rounds")
        obs_metrics.inc("faults.retry.messages", len(lost))
        retries += len(lost)
        pending = lost


def _caught(injector: FaultInjector, payload: np.ndarray, *token) -> bool:
    """Whether a corrupt attempt's copy of ``payload`` fails its CRC
    (taken lazily, here); an empty payload has no byte to flip."""
    received = injector.corrupt_payload(payload, *token)
    if checksum(received) == checksum(payload):
        return False
    obs_metrics.inc("faults.checksum_failures")
    return True


def _deliver_transfers(
    injector: Optional[FaultInjector],
    policy: RetryPolicy,
    op: str,
    op_id,
    transfers: List[_Transfer],
) -> int:
    """:func:`_deliver` for re-layout and shuffle transfers: settles
    each fate and stamps ``sent_s``, moving no byte."""

    def attempt(pending, round_idx, round_start):
        lost = []
        for x in pending:
            if x.fate == "corrupt" and not _caught(
                injector, gather_segments(x.src, x.src_segs), op_id, op,
                x.t.src_element, x.subfile, round_idx,
            ):
                x.fate = "ok"
            if x.fate == "ok":
                x.sent_s = round_start + x.delay_s
            else:
                lost.append(x)
        return lost

    return _deliver(injector, policy, op, op_id, transfers, attempt)


#: Histogram handles per op, cached because the registry lookup (name
#: f-string + dict probe, four per operation) is measurable on the
#: telemetry-overhead benchmark.  Keyed by op; invalidated whenever the
#: registry generation changes (a reset replaced the instruments).
_HIST_CACHE: Dict[str, Tuple] = {}
_HIST_CACHE_GEN = -1


def _stage_hists(op: str) -> Tuple:
    """``(map_s, gather_s, scatter_s, op_s)`` histogram
    handles for one operation kind, cached across calls."""
    global _HIST_CACHE_GEN
    gen = obs_metrics.get_registry().generation
    if gen != _HIST_CACHE_GEN:
        _HIST_CACHE.clear()
        _HIST_CACHE_GEN = gen
    hists = _HIST_CACHE.get(op)
    if hists is None:
        hists = tuple(
            obs_metrics.histogram(f"engine.{op}.{stage}")
            for stage in ("map_s", "gather_s", "scatter_s", "op_s")
        )
        _HIST_CACHE[op] = hists
    return hists


def _observe_op(root: Span, op: str, nbytes: int) -> None:
    """Record a closed operation root's wall time on its
    ``engine.<op>.op_s`` histogram, with the trace id and byte count as
    the exemplar."""
    if not obs_metrics.stage_histograms_enabled():
        return
    _stage_hists(op)[3].observe(
        root.wall_end_s - root.wall_start_s,
        trace_id=root.attrs.get("trace_id"),
        bytes=nbytes,
    )


class DirectTransport:
    """In-process transport cost: the alpha-beta model of an irregular
    exchange.

    Data moves synchronously (the caller's gather/scatter has already
    placed the bytes); this transport prices it — each sender ships its
    cross-element payloads serially on its own NIC, senders run in
    parallel.  With no network model the move is free (pure
    memory-memory resharding) but traffic is still counted.
    """

    def __init__(self, network: Optional[NetworkModel] = None):
        self.network = network

    def cost(self, moves) -> Tuple[int, int, float]:
        """``moves`` yields ``(src_element, dst_element, nbytes)``;
        returns ``(messages, off_node_bytes, time_s)``."""
        per_sender: Dict[int, float] = {}
        messages = 0
        off_node_bytes = 0
        for src, dst, nbytes in moves:
            if nbytes == 0:
                continue
            if src == dst:
                continue  # stays in the process's own memory
            messages += 1
            off_node_bytes += nbytes
            if self.network is not None:
                per_sender[src] = per_sender.get(
                    src, 0.0
                ) + self.network.transfer_time(nbytes)
        return messages, off_node_bytes, max(per_sender.values(), default=0.0)


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


class IOEngine:
    """Owns the map→gather→transport→scatter pipeline for one cluster.

    The client paths (:meth:`write` / :meth:`read`) implement the §8.1
    pseudocode fragments; :meth:`relayout_transfers` runs the same
    pipeline between I/O nodes for physical re-layout.  Memory-memory
    shuffles go through the module-level :func:`run_shuffle` (no
    cluster needed).

    A :class:`~repro.faults.FaultInjector` (retried under
    ``retry_policy``) and a replicated file add work to the same
    :func:`_deliver` rounds; they select no other path.
    """

    def __init__(
        self,
        cluster: Cluster,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        backend=None,
    ):
        self.cluster = cluster
        self.injector = injector
        self.retry_policy = retry_policy or RetryPolicy()
        #: Optional :class:`~repro.mp.pool.ProcessPoolExecutorBackend`.
        #: When set, every round's server-side work runs in the worker
        #: processes (stores must live in shared memory).
        self.backend = backend

    # -- client-side phases --------------------------------------------------

    def _prepare(
        self, requests: Sequence[WriteRequest], write: bool
    ) -> List[_Message]:
        """Client-side phase: each request's cached access layout
        (:meth:`View.layout`; building one opens the ``map`` spans) and,
        for writes, the gather, one ``client.prepare`` span per request.

        Gather destinations come from the view's per-subfile scratch
        buffers (:meth:`View.gather_buffer`), so a view issuing many
        accesses does not re-allocate its send buffers every time.  A
        buffer is only reused when its (view, subfile) pair appears once
        in this batch — messages outlive the loop, so aliasing two
        payloads would corrupt the first.
        """
        messages: List[_Message] = []
        seen_buffers: set = set()
        empty = np.empty(0, dtype=np.uint8)
        for req in requests:
            view = req.view
            with open_span(
                "client.prepare",
                compute=view.compute_node,
                t_i_us=view.set_time_s * 1e6,
            ):
                for acc in view.layout(write, req.lo, req.hi):
                    payload = empty
                    if write and acc.runs == 1:
                        # Line 7: one contiguous run - send it straight
                        # out of the user buffer, no copy, no gather time.
                        payload = req.buf[acc.client : acc.client + acc.nbytes]
                    elif write:
                        # Line 9: GATHER the non-contiguous regions.
                        buf_key = (id(view), acc.subfile)
                        payload = (
                            view.gather_buffer(acc.subfile, acc.nbytes)
                            if buf_key not in seen_buffers
                            else np.empty(acc.nbytes, dtype=np.uint8)
                        )[: acc.nbytes]
                        seen_buffers.add(buf_key)
                        with open_span(
                            "gather",
                            subfile=acc.subfile,
                            bytes=acc.nbytes,
                            runs=acc.runs,
                        ):
                            run_copy(payload, req.buf, acc.client)
                    messages.append(
                        _Message(
                            req, acc, view.compute_node, acc.subfile, payload
                        )
                    )
        return messages

    # -- parallel write / read ----------------------------------------------

    def write(
        self,
        cfile: ClusterFile,
        requests: Sequence[WriteRequest],
        to_disk: bool = False,
    ) -> OperationResult:
        """All compute nodes write their view intervals concurrently.

        Each message fans out to every *live* replica of its subfile
        (fewer than ``replication`` marks the operation degraded);
        checksum verification precedes any store scatter, so
        retransmitting a message is idempotent.
        """
        return self._run("write", cfile, requests, to_disk)

    def read(
        self,
        cfile: ClusterFile,
        requests: Sequence[WriteRequest],
        from_disk: bool = False,
    ) -> OperationResult:
        """The reverse-symmetric read operation (§8.1: "the write and
        read are reverse symmetrical").  Request buffers are filled in
        place.

        Each message is served by the lowest-index *live* replica of
        its subfile; when that is not the primary, a ``failover`` span
        marks the switch.  A reply dropped or corrupted in flight is
        re-requested next round — reads have no side effects — and the
        user buffer is only ever written with a checksum-verified reply.
        """
        return self._run("read", cfile, requests, from_disk)

    def _run(
        self,
        op: str,
        cfile: ClusterFile,
        requests: Sequence[WriteRequest],
        disk: bool,
    ) -> OperationResult:
        """The round loop behind :meth:`write` and :meth:`read`: each
        :func:`_deliver` round sends the pending messages with their
        subfile's fate, serves them and logs the attempts.  With no
        injector and ``replication=1`` this is one round, one replica
        per message, every fate ok.
        """
        write = op == "write"
        k = cfile.replication
        op_id, attrs = _begin_op(
            self.injector, op, op=op,
            **{"to_disk" if write else "from_disk": disk},
        )
        with open_span(f"parallel_{op}", **attrs) as root:
            messages = self._prepare(requests, write)
            # Replica liveness is a function of (subfile, op_id) only, so
            # every message keeps its targets through the retry rounds:
            # all live replicas on writes, the first on reads.
            live_by_subfile: Dict[int, Sequence[Tuple[int, int, float]]] = {}
            for msg in messages:
                live = live_by_subfile.get(msg.subfile)
                if live is None:
                    live = live_by_subfile[msg.subfile] = (
                        self._live_replicas(msg.subfile, k, op_id)
                    )
                msg.targets = live if write else live[:1]
                if not write and live[0][0]:
                    self._fail_over(root, msg.subfile, live[0])
            servers: Dict[Tuple[int, int], IOServer] = {}
            log: List[Tuple[float, Tuple[Attempt, ...]]] = []
            stats = self.cluster.network.stats
            header = self.cluster.config.header_bytes
            n_messages = payload_bytes = 0

            def attempt(pending, round_idx, round_start):
                nonlocal n_messages, payload_bytes
                if write:
                    for msg in pending:
                        self._send_request(msg, op_id, round_idx)
                # A dropped request never reaches a server; a read
                # request always does — it is the *reply* that meets
                # the fate.
                shipped = (
                    [m for m in pending if m.fate != "drop"] if write
                    else pending
                )
                self._serve(op, cfile, shipped, disk, round_idx, servers)
                lost: List[_Message] = []
                attempts: List[Attempt] = []
                for msg in pending:
                    if not write:
                        self._receive_reply(root, msg, op_id, round_idx)
                    failed = msg.fate != "ok"
                    if failed:
                        lost.append(msg)
                    size = int(msg.payload.size)
                    nodes = tuple(node for _r, node, _f in msg.targets)
                    # A header and a payload message per target.
                    src = f"compute{msg.compute}"
                    for node in nodes:
                        dst = self.cluster.io[node].name
                        stats.record(src, dst, header)
                        stats.record(src, dst, size)
                    n_messages += (2 if size else 1) * len(nodes)
                    payload_bytes += size * len(nodes)
                    # Snapshot the attempt: ``msg`` is rewritten next
                    # round.
                    attempts.append((
                        msg.compute, msg.access.runs, size, msg.delay_s,
                        failed, nodes, () if failed else tuple(msg.costs),
                    ))
                log.append((round_start, tuple(attempts)))
                dropped = sum(len(msg.targets) for msg in lost)
                if dropped:
                    obs_metrics.inc("faults.transport.dropped", dropped)
                return lost

            _deliver(
                self.injector, self.retry_policy, op, op_id, messages, attempt
            )
            if write:
                degraded = any(len(v) < k for v in live_by_subfile.values())
                root.annotate(degraded=degraded)
                if degraded:
                    obs_metrics.inc("faults.degraded.writes")
        return self._finish(root, op, n_messages, payload_bytes, tuple(log))

    # -- per-message direction hooks ------------------------------------------

    def _send_request(self, msg: _Message, op_id, round_idx: int) -> None:
        """Write direction: put the payload on the wire, corrupted when
        the attempt's fate says so; the CRC the server verifies is
        stamped lazily, as in :func:`_caught`."""
        msg.wire = msg.payload
        if msg.fate != "corrupt":
            return
        if msg.crc is None:
            msg.crc = checksum(msg.payload)
        msg.wire = self.injector.corrupt_payload(
            msg.payload, op_id, "write", msg.compute, msg.subfile, round_idx
        )
        if checksum(msg.wire) == msg.crc:
            msg.fate = "ok"  # empty payload: nothing to flip

    def _receive_reply(
        self, root: Span, msg: _Message, op_id, round_idx: int
    ) -> None:
        """Read direction: verify the reply the attempt's fate left on
        the wire and scatter it into the user buffer (measured, the
        mirror of the write-side gather)."""
        payload = msg.payload = msg.wire
        if msg.fate == "corrupt" and not _caught(
            self.injector, payload, op_id, "read", msg.compute, msg.subfile,
            round_idx,
        ):
            msg.fate = "ok"
        if msg.fate != "ok":
            return
        req, acc = msg.req, msg.access
        if acc.runs == 1:
            req.buf[acc.client : acc.client + acc.nbytes] = payload
        else:
            t0 = time.perf_counter()
            run_copy(req.buf, payload, acc.client)
            root.record(
                "scatter",
                time.perf_counter() - t0,
                compute=msg.compute,
                subfile=msg.subfile,
                bytes=acc.nbytes,
                runs=acc.runs,
            )

    def _fail_over(self, root: Span, subfile: int, serving) -> None:
        """Mark a read served by a non-primary replica."""
        replica, node_idx, _factor = serving
        obs_metrics.inc("faults.failover.reads")
        root.child(
            "failover",
            subfile=subfile,
            from_node=self.cluster.io_node_for(subfile).index,
            to_node=node_idx,
            replica=replica,
        )

    # -- replicas, servers, pricing ------------------------------------------

    def _live_replicas(
        self, subfile: int, k: int, op_id, role: str = ""
    ) -> Tuple[Tuple[int, int, float], ...]:
        """``(replica, io_node, disk_factor)`` for every replica of a
        subfile whose node is up for this operation (at least one, or
        :class:`~repro.faults.NoLiveReplica`)."""
        n_io = len(self.cluster.io)
        nodes = replica_nodes(subfile, k, n_io) if k > 1 else (subfile % n_io,)
        injector = self.injector
        if injector is None:
            return tuple((r, n, 1.0) for r, n in enumerate(nodes))
        crashed = injector.crashed_nodes(op_id)
        live = tuple(
            (r, n, injector.disk_factor(n))
            for r, n in enumerate(nodes)
            if n not in crashed
        )
        if not live:
            raise NoLiveReplica(
                f"all {k} replica(s) of {role}subfile {subfile} are down"
            )
        return live

    def _serve(
        self,
        op: str,
        cfile: ClusterFile,
        shipped: List[_Message],
        disk: bool,
        attempt: int,
        servers: Dict[Tuple[int, int], IOServer],
    ) -> None:
        """Hand one round's messages to their I/O servers, leaving each
        message's ``costs`` (and, for reads, the reply on its ``wire``).

        The only step that knows where servers live: in this process,
        or in the worker pool (one command per busy worker per round;
        worker span trees graft under the round's span).
        """
        if self.backend is not None:
            self._serve_in_pool(op, cfile, shipped, disk, attempt)
            return
        for msg in shipped:
            replicas = []
            for r, node_idx, disk_factor in msg.targets:
                server = servers.get((msg.subfile, r))
                if server is None:
                    server = servers[msg.subfile, r] = IOServer(
                        self.cluster.io[node_idx],
                        cfile.replica_stores(msg.subfile)[r],
                        self.cluster.config,
                    )
                replicas.append((r, server, disk_factor))
            acc = msg.access
            msg.costs, reply = serve_request(
                op,
                replicas,
                acc.l_s,
                acc.r_s,
                acc.segments,
                msg.wire,
                disk,
                msg.crc,
                attempt,
                acc.server,
            )
            if reply is not None:
                msg.wire = reply

    def _serve_in_pool(
        self,
        op: str,
        cfile: ClusterFile,
        shipped: List[_Message],
        disk: bool,
        attempt: int,
    ) -> None:
        """Group the round's server jobs by owning worker and run them
        in one pool round.

        A job carries the message's cached access layout — the
        subfile segments and the server's resolved copy, plain arrays
        and ints — so a worker maps and resolves nothing: one bulk
        pickle, no View/plan objects crossing the boundary.
        """
        backend = self.backend
        jobs: List[List[dict]] = [[] for _ in range(backend.processes)]
        routed: List[List[_Message]] = [[] for _ in range(backend.processes)]
        for msg in shipped:
            stores = cfile.replica_stores(msg.subfile)
            replicas = []
            for r, node_idx, disk_factor in msg.targets:
                shm_name = getattr(stores[r], "shm_name", None)
                if shm_name is None:
                    raise ValueError(
                        "multiprocess execution needs shared-memory subfile "
                        "stores; build the Clusterfile with "
                        "SharedMemoryStorage (or workers_mode='process')"
                    )
                replicas.append(
                    (r, node_idx, disk_factor, shm_name, stores[r].capacity)
                )
            acc = msg.access
            w = backend.worker_for(msg.subfile, cfile.num_subfiles)
            jobs[w].append(
                {
                    "subfile": msg.subfile,
                    "l_s": acc.l_s,
                    "r_s": acc.r_s,
                    "segments": acc.segments,
                    "copy": acc.server,
                    "nbytes": acc.nbytes,
                    "replicas": replicas,
                    "crc": msg.crc,
                    "attempt": attempt,
                }
            )
            routed[w].append(msg)
        parent_span = current_span()
        with backend.lock:
            if op == "write":
                costs = backend.exchange_write(
                    jobs, [[msg.wire for msg in batch] for batch in routed],
                    disk, parent_span,
                )
            else:
                costs, replies = backend.exchange_read(jobs, disk, parent_span)
        for w, batch in enumerate(routed):
            for i, msg in enumerate(batch):
                msg.costs = costs[w][i]
                if op == "read":
                    msg.wire = replies[w][i]

    def _finish(
        self, root: Span, op: str, n_messages: int, payload_bytes: int, log: Log
    ) -> OperationResult:
        # Failovers and per-stage latencies are derived from the span
        # tree in one walk; retries are the log's rounds after the first.
        stage_s = {"map": 0.0, "gather": 0.0, "scatter": 0.0}
        failed_over = 0
        for sp in root.walk():
            if sp.name in stage_s:
                stage_s[sp.name] += sp.wall_end_s - sp.wall_start_s
            elif sp.name == "failover":
                failed_over += 1
        obs_metrics.inc(f"engine.{op}.ops")
        obs_metrics.inc(f"engine.{op}.messages", n_messages)
        obs_metrics.inc(f"engine.{op}.payload_bytes", payload_bytes)
        if obs_metrics.stage_histograms_enabled():
            h_map, h_gather, h_scatter, _ = _stage_hists(op)
            h_map.observe(stage_s["map"])
            h_gather.observe(stage_s["gather"])
            h_scatter.observe(stage_s["scatter"])
            _observe_op(root, op, payload_bytes)
        return OperationResult(
            messages=n_messages,
            payload_bytes=payload_bytes,
            trace=root,
            retries=sum(len(attempts) for _, attempts in log[1:]),
            failed_over=failed_over,
            degraded=bool(root.attrs.get("degraded", False)),
            log=log,
            cluster=self.cluster,
        )

    # -- physical re-layout --------------------------------------------------

    def relayout_transfers(
        self,
        plan: RedistributionPlan,
        old: Partition,
        new_physical: Partition,
        length: int,
        src_replicas: Sequence[Sequence],
        dst_replicas: Sequence[Sequence],
    ) -> Tuple[int, int, float, Span]:
        """The per-transfer loop of a physical re-layout: copy from the
        source subfile into the destination subfile, priced as a read at
        the source, a wire between distinct I/O nodes and a write at the
        destination — data movement real, timing simulated.

        ``src_replicas[e]`` / ``dst_replicas[e]`` hold element ``e``'s
        stores, primary first.  Each transfer reads from the first live
        source replica and is copied store to store, one resolved copy,
        into every live destination replica once its fate is delivered
        (:func:`_deliver_transfers`); it is sent when its delivered
        round starts.

        Returns ``(bytes_moved, cross_node_messages, makespan_s,
        trace)``.
        """
        op_id, attrs = _begin_op(
            self.injector, "relayout", transfers=len(plan.transfers),
            length=length,
        )
        with open_span("relayout", **attrs) as root:
            moves = []
            for t in plan.transfers:
                src_len = old.element_length(t.src_element, length)
                src_segs = t.src_projection.segments_in(0, src_len - 1)
                if not src_segs[1].sum():
                    continue
                # The first live source replica serves the copy.
                replicas = src_replicas[t.src_element]
                src = self._live_replicas(
                    t.src_element, len(replicas), op_id, "source "
                )[0]
                if src[0]:
                    self._fail_over(root, t.src_element, src)
                view = replicas[src[0]].view(0, src_len - 1)
                x = _Transfer(t.dst_element, t, view, src_segs)
                moves.append((x, src))
            _deliver_transfers(
                self.injector, self.retry_policy, "relayout", op_id,
                [x for x, _src in moves],
            )

            sim_msgs: List[SimMessage] = []
            bytes_moved = cross = 0
            degraded = False
            for x, (_r, src_node_idx, src_factor) in moves:
                t, src_segs = x.t, x.src_segs
                nbytes = int(src_segs[1].sum())
                # A transfer carrying bytes has a non-empty destination.
                dst_len = new_physical.element_length(t.dst_element, length)
                dst_segs = t.dst_projection.segments_in(0, dst_len - 1)
                # Every live destination replica gets the bytes.
                replicas = dst_replicas[t.dst_element]
                dst_live = self._live_replicas(
                    t.dst_element, len(replicas), op_id, "destination "
                )
                degraded |= len(dst_live) < len(replicas)
                # Real data movement: store to store, one copy per live
                # destination replica (fresh stores never alias the source).
                with open_span(
                    "move", src=t.src_element, dst=t.dst_element, bytes=nbytes
                ):
                    copy = resolve_copy(
                        dst_len, dst_segs, x.src.size, src_segs
                    )
                    for r_dst, _node, _factor in dst_live:
                        dst = replicas[r_dst].view(0, dst_len - 1)
                        run_copy(dst, x.src, copy)
                bytes_moved += nbytes

                # Simulated timing: read once at the live source, wire
                # to each live destination replica, write there, sent
                # when the delivered round started.
                src_node = self.cluster.io[src_node_idx]
                read_s = src_factor * write_time_for_segments(
                    src_node.disk,
                    zip(src_segs[0].tolist(), src_segs[1].tolist()),
                )
                for j, (_r_dst, dst_node_idx, dst_factor) in enumerate(dst_live):
                    dst_node = self.cluster.io[dst_node_idx]
                    if src_node_idx != dst_node_idx:
                        wire_s = self.cluster.network.send_time(
                            src_node.name, dst_node.name, nbytes
                        )
                        cross += 1
                    else:
                        wire_s = 0.0
                    write_s = dst_factor * write_time_for_segments(
                        dst_node.disk,
                        zip(dst_segs[0].tolist(), dst_segs[1].tolist()),
                    )
                    sim_msgs.append(
                        SimMessage(
                            key=t.dst_element,
                            lane=("disk-read", src_node_idx),
                            lane_s=read_s if j == 0 else 0.0,
                            post_lane_s=wire_s + x.sent_s,
                            stages=((dst_node.disk_queue, write_s, "disk"),),
                        )
                    )

            with open_span("transport", messages=cross) as tspan:
                done = SimulatedTransport(self.cluster).run(sim_msgs, tspan)
            makespan_s = max(done.get("disk", {}).values(), default=0.0)
            root.annotate(
                bytes_moved=bytes_moved,
                makespan_s=makespan_s,
                degraded=degraded,
            )
            if degraded:
                obs_metrics.inc("faults.degraded.writes")
        obs_metrics.inc("engine.relayout.ops")
        obs_metrics.inc("engine.relayout.bytes_moved", bytes_moved)
        obs_metrics.inc("engine.relayout.cross_node_messages", cross)
        _observe_op(root, "relayout", bytes_moved)
        return bytes_moved, cross, makespan_s, root


# --------------------------------------------------------------------------
# Memory-memory shuffle (collective phase 1, checkpoint resharding)
# --------------------------------------------------------------------------


@dataclass
class ShuffleResult:
    """One memory-memory redistribution through the direct transport."""

    buffers: List[np.ndarray]
    messages: int
    off_node_bytes: int
    #: Modelled parallel alpha-beta exchange time (0.0 with no network).
    time_s: float
    trace: Optional[Span] = None
    #: Transfer retransmissions forced by injected faults.
    retries: int = 0


def run_shuffle(
    plan: RedistributionPlan,
    src_buffers: Sequence[np.ndarray],
    file_length: int,
    network: Optional[NetworkModel] = None,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> ShuffleResult:
    """Execute a redistribution plan in memory through the engine.

    The byte movement is the plan executor's (segment-to-segment
    copies, resolved once per plan and file length); the
    :class:`DirectTransport` prices the exchange when a network model
    is supplied.  Used by two-phase collective I/O
    (phase-1 shuffle) and by checkpoint resharding (no network — ranks
    convert their own pieces).  The copy runs in this process in every
    worker mode: with no wire between source and destination, a pool
    would only add passes over the bytes.

    With an injector, every transfer's fate is settled before any byte
    moves (:func:`_deliver_transfers`).
    """
    op_id, attrs = _begin_op(
        injector,
        "shuffle",
        transfers=len(plan.transfers),
        file_length=file_length,
    )
    retries = 0
    with open_span("shuffle", **attrs) as root:
        if injector is not None:
            transfers = []
            for t in plan.transfers:
                src = src_buffers[t.src_element]
                segs = t.src_projection.segments_in(0, src.size - 1)
                if segs[1].sum():
                    transfers.append(_Transfer(t.dst_element, t, src, segs))
            retries = _deliver_transfers(
                injector, retry_policy or RetryPolicy(), "shuffle", op_id,
                transfers,
            )
        with open_span("move"):
            buffers = execute_plan(plan, src_buffers, file_length)
        messages, off_node_bytes, time_s = DirectTransport(network).cost(
            (t.src_element, t.dst_element, t.bytes_in_file(file_length))
            for t in plan.transfers
        )
        root.annotate(
            messages=messages,
            off_node_bytes=off_node_bytes,
            time_us=time_s * 1e6,
            retries=retries,
        )
    obs_metrics.inc("engine.shuffle.ops")
    obs_metrics.inc("engine.shuffle.messages", messages)
    obs_metrics.inc("engine.shuffle.off_node_bytes", off_node_bytes)
    _observe_op(root, "shuffle", off_node_bytes)
    return ShuffleResult(
        buffers, messages, off_node_bytes, time_s, root, retries
    )
