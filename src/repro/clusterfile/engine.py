"""The unified I/O engine: one map→gather→transport→scatter pipeline.

Before this module, the four data-movement paths — independent parallel
write/read (§8.1), two-phase collective I/O, on-the-fly physical
re-layout, and checkpoint resharding — each re-implemented the same
per-subfile request loop: *map* the access extremities, *gather* the
non-contiguous source bytes, move them over a *transport*, and
*scatter* them into the destination.  ViPIOS (PAPERS.md) demonstrates
the value of funnelling every request through one I/O-engine layer;
this module is ours.

Two transports plug into the pipeline:

* :class:`SimulatedTransport` — the discrete-event exchange on the
  simulated cluster (sender-NIC serialisation, I/O-node CPU and disk
  FIFOs, header/ack pricing), used by the client write/read paths and
  by re-layout's disk-to-disk moves;
* :class:`DirectTransport` — synchronous in-process movement with an
  alpha-beta cost model, used by the memory-memory paths (collective
  shuffle, checkpoint resharding).

Every operation builds a span tree (:mod:`repro.obs`): measured
wall-clock phases (``t_m`` mapping, ``t_g`` gather/scatter) interleaved
with modelled simulation-clock events (NIC, CPU, disk), and the Table
1/2 breakdown records are **derived from that tree** by
:func:`breakdowns_from_trace` — the table numbers and the trace are
provably the same measurements.

Because every data path crosses this one seam, cross-cutting failure
handling lives here too (:mod:`repro.faults`).  Every operation is one
round-based loop: resolve each message's live replicas, draw its fate,
serve it, price it, run the transport, and retransmit what was lost
under a :class:`~repro.faults.RetryPolicy` (timeout + capped, jittered
exponential backoff, per-message budget).  Corrupted payloads are caught
by CRC32 checksums verified before any scatter (stamped lazily — the
injector is the simulation's only corruption source, so intact messages
never pay the hash), reads fail over to replica subfiles when a node is
crashed, and writes degrade gracefully to the live replicas.  No
injector and replication 1 is not a separate path but the degenerate
case of the same loop: one round, one replica per message, every fate
ok, no checksum.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

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
from ..obs.span import Span, open_span
from ..redistribution.executor import execute_plan, execute_plan_windowed
from ..redistribution.gather_scatter import gather_segments, scatter_segments
from ..redistribution.schedule import RedistributionPlan
from ..simulation.cluster import Cluster
from ..simulation.disk import write_time_for_segments
from ..simulation.metrics import ScatterBreakdown, WriteBreakdown
from ..simulation.network import NetworkModel
from .file_model import ClusterFile
from .server import IOServer, serve_request
from .view import View

__all__ = [
    "WriteRequest",
    "OperationResult",
    "SimMessage",
    "SimulatedTransport",
    "DirectTransport",
    "IOEngine",
    "ShuffleResult",
    "run_shuffle",
    "breakdowns_from_trace",
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
    """Timings of one parallel operation.

    ``per_compute`` / ``per_io`` carry the paper's Table 1/2 records;
    both are derived from :attr:`trace` by
    :func:`breakdowns_from_trace`, never accumulated separately.
    """

    per_compute: Dict[int, WriteBreakdown] = field(default_factory=dict)
    per_io: Dict[int, ScatterBreakdown] = field(default_factory=dict)
    messages: int = 0
    payload_bytes: int = 0
    #: The operation's span tree (wall + simulation clocks).
    trace: Optional[Span] = None
    #: Message attempts beyond the first (sum over ``retry`` spans).
    retries: int = 0
    #: Reads served by a non-primary replica (``failover`` span count).
    failed_over: int = 0
    #: True when a write reached fewer than ``replication`` replicas.
    degraded: bool = False


@dataclass
class _Message:
    """One logical request of an operation, plus the state of its
    current attempt (rewritten every retry round)."""

    req: WriteRequest
    link: object
    compute: int
    subfile: int
    l_s: int
    r_s: int
    payload: np.ndarray
    #: Fragments gathered on the view side (1 = contiguous fast path).
    #: The §8.1 loop gathers per subfile *between* sends, so this cost
    #: sits on the client's critical path inside t_w.
    view_runs: int = 1
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


#: Histogram handles per op, cached because the registry lookup (name
#: f-string + dict probe, five per operation) is measurable on the
#: telemetry-overhead benchmark.  Keyed by op; invalidated whenever the
#: registry generation changes (a reset replaced the instruments).
_HIST_CACHE: Dict[str, Tuple] = {}
_HIST_CACHE_GEN = -1


def _stage_hists(op: str) -> Tuple:
    """``(map_s, gather_s, scatter_s, transport_s, op_s)`` histogram
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
            for stage in ("map_s", "gather_s", "scatter_s", "transport_s", "op_s")
        )
        _HIST_CACHE[op] = hists
    return hists


def _observe_op(root: Span, op: str, nbytes: int) -> None:
    """Record an operation's wall time on its ``engine.<op>.op_s``
    histogram, with the trace id and byte count as the exemplar.

    A root still open (a return from inside its ``with`` block) is
    measured up to now — the close happens microseconds later."""
    if not obs_metrics.stage_histograms_enabled():
        return
    if root.wall_start_s is None:
        return
    end = root.wall_end_s if root.wall_end_s is not None else time.perf_counter()
    _stage_hists(op)[4].observe(
        end - root.wall_start_s,
        trace_id=root.attrs.get("trace_id"),
        bytes=nbytes,
    )


# --------------------------------------------------------------------------
# Transports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimMessage:
    """One message on the simulated cluster, transport-agnostic form.

    ``lane`` serialises the sender side (a NIC, a source disk);
    ``stages`` are destination resources acquired in order, each
    optionally recording its completion (plus ``ack_s``) into the named
    timeline bucket keyed by ``key``.
    """

    key: Hashable
    lane: Hashable
    lane_s: float
    post_lane_s: float = 0.0
    stages: Tuple[Tuple[object, float, Optional[str]], ...] = ()
    ack_s: float = 0.0
    #: A message lost (or rejected) in flight: the sender still burns
    #: its lane time, but no destination stage runs and no completion
    #: is recorded — the retry layer notices via its timeout.
    dropped: bool = False


class SimulatedTransport:
    """Event-queue transport: lanes, wire latency, destination FIFOs.

    Runs one batch of :class:`SimMessage` through a fresh operation
    timeline and returns per-label completion maps, e.g. ``{"bc":
    {compute: t}, "disk": {compute: t}}`` — "limited by the slowest I/O
    server" falls out of the max-merge per key.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def run(
        self,
        messages: Sequence[SimMessage],
        trace_span: Optional[Span] = None,
    ) -> Dict[str, Dict[Hashable, float]]:
        queue = self.cluster.new_operation()
        queue.trace_span = trace_span
        lane_free: Dict[Hashable, float] = {}
        done: Dict[str, Dict[Hashable, float]] = {}

        def chain(msg: SimMessage, stage_idx: int) -> None:
            resource, service_s, label = msg.stages[stage_idx]

            def after(_start: float, stage_end: float) -> None:
                if label is not None:
                    bucket = done.setdefault(label, {})
                    t = stage_end + msg.ack_s
                    bucket[msg.key] = max(bucket.get(msg.key, 0.0), t)
                if stage_idx + 1 < len(msg.stages):
                    chain(msg, stage_idx + 1)

            resource.acquire(queue, service_s, after)

        n_dropped = 0
        for msg in messages:
            start = lane_free.get(msg.lane, 0.0)
            lane_end = start + msg.lane_s
            lane_free[msg.lane] = lane_end
            if msg.dropped:
                n_dropped += 1
                continue
            if not msg.stages:
                continue
            queue.at(lane_end + msg.post_lane_s, lambda msg=msg: chain(msg, 0))
        queue.run()
        if n_dropped and trace_span is not None:
            trace_span.annotate(dropped=n_dropped)
        if n_dropped:
            obs_metrics.inc("faults.transport.dropped", n_dropped)
        return done


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
# Breakdown derivation
# --------------------------------------------------------------------------


def breakdowns_from_trace(
    root: Span,
) -> Tuple[Dict[int, WriteBreakdown], Dict[int, ScatterBreakdown]]:
    """Derive the paper's Table 1/2 records from an operation span tree.

    * ``t_i`` — the ``t_i_us`` attribute of each ``client.prepare``
      span (measured at view set);
    * ``t_m`` / ``t_g`` — sums of the ``map`` and ``gather``/``scatter``
      span wall durations;
    * ``t_w^bc`` / ``t_w^disk`` — the transport spans' per-compute
      completion timelines, max-merged across retry rounds with each
      round's ``round_start_s`` offset applied (a message acked in a
      retransmission round completes that much later on the modelled
      clock);
    * ``t_sc`` — the modelled cache/disk seconds on the ``server.*``
      spans (every replica write and every retransmission attempt
      counts — the work was really done).

    The whole tree is walked, so spans nested under ``retry`` groups
    (or grafted from pool workers) contribute exactly like round 0's
    flat layout.
    """
    per_compute: Dict[int, WriteBreakdown] = {}
    per_io: Dict[int, ScatterBreakdown] = {}
    done_bc: Dict = {}
    done_disk: Dict = {}
    for sp in root.walk():
        if sp.name == "client.prepare":
            # One entry per compute node: a node that issues several
            # requests in one operation accumulates their t_m / t_g
            # (t_i is the view's, paid once at view set).
            node = sp.attrs["compute"]
            bd = per_compute.get(node)
            if bd is None:
                bd = per_compute[node] = WriteBreakdown(
                    t_i=sp.attrs.get("t_i_us", 0.0)
                )
            for c in sp.children:
                if c.name == "map":
                    bd.t_m += c.wall_us
                elif c.name == "gather":
                    bd.t_g += c.wall_us
        elif sp.name == "scatter":
            per_compute[sp.attrs["compute"]].t_g += sp.wall_us
        elif sp.name in ("server.write", "server.read"):
            if "cache_s" not in sp.attrs:
                continue  # request rejected (checksum) before costing
            sb = per_io.setdefault(sp.attrs["io_node"], ScatterBreakdown())
            cache_s = sp.attrs["cache_s"]
            disk_s = sp.attrs["disk_s"]
            sb.t_sc_bc += cache_s * 1e6
            sb.t_sc_disk += (cache_s + disk_s) * 1e6
        elif sp.name == "transport":
            offset = float(sp.attrs.get("round_start_s", 0.0))
            for bucket, total in (
                ("done_bc", done_bc),
                ("done_disk", done_disk),
            ):
                for key, t in sp.attrs.get(bucket, {}).items():
                    total[key] = max(total.get(key, 0.0), offset + t)
    for node, bd in per_compute.items():
        bd.t_w_bc = done_bc.get(node, 0.0) * 1e6
        bd.t_w_disk = done_disk.get(node, 0.0) * 1e6
    return per_compute, per_io


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

    A :class:`~repro.faults.FaultInjector` and/or a replicated file
    add work to the one round loop — payload CRC32s, retransmission
    rounds under ``retry_policy`` (default
    :class:`~repro.faults.RetryPolicy`), replica fan-out on writes and
    failover on reads — they do not select a different one.
    """

    def __init__(
        self,
        cluster: Cluster,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        backend=None,
    ):
        self.cluster = cluster
        self.transport = SimulatedTransport(cluster)
        self.injector = injector
        self.retry_policy = retry_policy or RetryPolicy()
        #: Optional :class:`~repro.mp.pool.ProcessPoolExecutorBackend`.
        #: When set, every round's server-side work runs in the worker
        #: processes (stores must live in shared memory).
        self.backend = backend

    # -- client-side phases --------------------------------------------------

    @staticmethod
    def _map_extremities(view: View, link, lo: int, hi: int) -> Tuple[int, int]:
        """Lines 3-4 of the first §8.1 fragment: l_S and r_S via MAP
        composition with next/prev rounding.

        When the view and the subfile perfectly overlap the mapping is
        the identity and costs nothing (the paper's t_m = 0 case).
        Otherwise the scalar recursive MAP functions are used — a few
        binary searches, matching the paper's observation that t_m "is
        very small".
        """
        if link.is_identity:
            return lo, hi
        from ..core.mapping import map_offset, unmap_offset

        x0 = unmap_offset(view.logical, view.element, lo)
        x1 = unmap_offset(view.logical, view.element, hi)
        phys = link.subfile_mapper.partition
        l_s = map_offset(phys, link.subfile, x0, mode="next")
        r_s = map_offset(phys, link.subfile, x1, mode="prev")
        return l_s, r_s

    def _prepare(
        self, requests: Sequence[WriteRequest], gather_payload: bool
    ) -> List[_Message]:
        """Client-side phase: extremity mapping and (for writes)
        gathering, one ``client.prepare`` span per request.

        Gather destinations come from the view's per-subfile scratch
        buffers (:meth:`View.gather_buffer`), so a view issuing many
        accesses does not re-allocate its send buffers every time.  A
        buffer is only reused when its (view, subfile) pair appears once
        in this batch — messages outlive the loop, so aliasing two
        payloads would corrupt the first.
        """
        messages: List[_Message] = []
        seen_buffers: set = set()
        for req in requests:
            view = req.view
            with open_span(
                "client.prepare",
                compute=view.compute_node,
                t_i_us=view.set_time_s * 1e6,
            ):
                for link in view.links.values():
                    # Which view-space bytes of this link fall in the
                    # window (line 2's emptiness test, and the gather
                    # index set).
                    starts, lengths = link.proj_view.segments_in(
                        req.lo, req.hi
                    )
                    if starts.size == 0:
                        continue

                    # Lines 3-4: map the access extremities.
                    with open_span("map", subfile=link.subfile):
                        l_s, r_s = self._map_extremities(
                            view, link, req.lo, req.hi
                        )

                    payload = np.empty(0, dtype=np.uint8)
                    runs = int(starts.size)
                    if gather_payload:
                        nbytes = int(lengths.sum())
                        if runs == 1:
                            # Line 7: one contiguous run - send it
                            # straight out of the user buffer, no copy,
                            # no gather time.
                            a = int(starts[0]) - req.lo
                            payload = req.buf[a : a + nbytes]
                        else:
                            # Line 9: GATHER the non-contiguous regions.
                            buf_key = (id(view), link.subfile)
                            scratch = (
                                view.gather_buffer(link.subfile, nbytes)
                                if buf_key not in seen_buffers
                                else None
                            )
                            seen_buffers.add(buf_key)
                            with open_span(
                                "gather",
                                subfile=link.subfile,
                                bytes=nbytes,
                                runs=runs,
                            ):
                                payload = gather_segments(
                                    req.buf, (starts - req.lo, lengths), scratch
                                )
                    messages.append(
                        _Message(
                            req,
                            link,
                            view.compute_node,
                            link.subfile,
                            l_s,
                            r_s,
                            payload,
                            runs,
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
        """The round loop behind :meth:`write` and :meth:`read`.

        Round 0 sends every message; a round's drops/corruptions are
        retransmitted in the next round, which starts ``timeout_s +
        backoff_s(round)`` later on the modelled clock.  With no
        injector and ``replication=1`` this is one round, one replica
        per message, every fate ok.
        """
        write = op == "write"
        injector = self.injector
        policy = self.retry_policy
        k = cfile.replication
        op_id, attrs = _begin_op(
            injector, op, op=op, **{"to_disk" if write else "from_disk": disk}
        )
        with open_span(f"parallel_{op}", **attrs) as root:
            pending = self._prepare(requests, gather_payload=write)
            n_messages = 0
            payload_bytes = 0
            degraded = False
            # Replica liveness and server bindings are functions of
            # (subfile, op_id) only — constant across messages and retry
            # rounds of one operation — so resolve each subfile once.
            live_by_subfile: Dict[int, Sequence[Tuple[int, int, float]]] = {}
            servers: Dict[Tuple[int, int], IOServer] = {}
            round_start = 0.0
            round_idx = 0
            while True:
                if round_idx > policy.max_retries:
                    raise RetryBudgetExceeded(
                        f"{op} op {op_id}: {len(pending)} message(s) still "
                        f"failing after {policy.max_retries} retries"
                    )
                group = (
                    open_span("retry", round=round_idx, messages=len(pending))
                    if round_idx
                    else contextlib.nullcontext(root)
                )
                with group as group_span:
                    if round_idx:
                        obs_metrics.inc("faults.retry.rounds")
                        obs_metrics.inc("faults.retry.messages", len(pending))
                    for msg in pending:
                        live = live_by_subfile.get(msg.subfile)
                        if live is None:
                            live = live_by_subfile[msg.subfile] = (
                                self._live_replicas(msg.subfile, k, op_id)
                            )
                        msg.fate, msg.delay_s = (
                            injector.message_fate(
                                op_id, op, msg.compute, msg.subfile, round_idx
                            )
                            if injector is not None
                            else ("ok", 0.0)
                        )
                        if write:
                            msg.targets = live
                            if len(live) < k:
                                degraded = True
                            self._send_request(msg, op_id, round_idx)
                        else:
                            msg.targets = live[:1]
                            if live[0][0] and round_idx == 0:
                                self._fail_over(root, msg.subfile, live[0])
                    # A dropped request never reaches a server; a read
                    # request always does — it is the *reply* that
                    # meets the fate.
                    shipped = (
                        [m for m in pending if m.fate != "drop"]
                        if write
                        else pending
                    )
                    self._serve(
                        op, cfile, shipped, disk, round_idx, servers,
                        group_span,
                    )
                    failed: List[_Message] = []
                    sim_msgs: List[SimMessage] = []
                    for msg in pending:
                        if not write:
                            self._receive_reply(root, msg, op_id, round_idx)
                        if msg.fate != "ok":
                            failed.append(msg)
                        sim_msgs.extend(self._fanout_messages(msg))
                        size = int(msg.payload.size)
                        copies = len(msg.targets)
                        n_messages += (2 if size else 1) * copies
                        payload_bytes += size * copies
                    with open_span(
                        "transport", messages=len(sim_msgs), round=round_idx
                    ) as tspan:
                        done = self.transport.run(sim_msgs, trace_span=tspan)
                    tspan.annotate(
                        done_bc=done.get("bc", {}),
                        done_disk=done.get("disk", {}),
                        round_start_s=round_start,
                    )
                if not failed:
                    break
                # Only an injector fails a message, so one exists here.
                round_start += policy.timeout_s + policy.backoff_s(
                    round_idx, seed=injector.plan.seed, token=(op, op_id)
                )
                pending = failed
                round_idx += 1
            if write:
                root.annotate(degraded=degraded)
                if degraded:
                    obs_metrics.inc("faults.degraded.writes")
        return self._finish(root, op, n_messages, payload_bytes)

    # -- per-message direction hooks ------------------------------------------

    def _send_request(self, msg: _Message, op_id, round_idx: int) -> None:
        """Write direction: put the payload on the wire, corrupted when
        the attempt's fate says so.

        CRCs are stamped lazily, only once a message actually meets
        corruption: for intact payloads the verify is a tautology (the
        injector is the sole corruption source), so hashing them would
        tax every fault-free run.
        """
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
        if msg.fate == "corrupt":
            # Lazy CRC, as in _send_request: only a corrupted reply
            # needs the reference checksum.
            received = self.injector.corrupt_payload(
                payload, op_id, "read", msg.compute, msg.subfile, round_idx
            )
            if checksum(received) != checksum(payload):
                obs_metrics.inc("faults.checksum_failures")
            else:
                msg.fate = "ok"  # empty reply: nothing to flip
        if msg.fate != "ok":
            return
        req, proj = msg.req, msg.link.proj_view
        t0 = time.perf_counter()
        starts, lengths = proj.segments_in(req.lo, req.hi)
        run = proj.contiguous_run_in(req.lo, req.hi)
        if run is not None:
            req.buf[run[0] - req.lo : run[1] - req.lo + 1] = payload
        else:
            scatter_segments(req.buf, (starts - req.lo, lengths), payload)
            root.record(
                "scatter",
                time.perf_counter() - t0,
                compute=msg.compute,
                subfile=msg.subfile,
                bytes=int(payload.size),
                runs=int(starts.size),
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
        parent_span: Span,
    ) -> None:
        """Hand one round's messages to their I/O servers, leaving each
        message's ``costs`` (and, for reads, the reply on its ``wire``).

        The only step that knows where servers live: in this process,
        or in the worker pool (one packed exchange per round; worker
        span trees graft under ``parent_span``).
        """
        if self.backend is not None:
            self._serve_in_pool(op, cfile, shipped, disk, attempt, parent_span)
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
            msg.costs, reply = serve_request(
                op,
                replicas,
                msg.l_s,
                msg.r_s,
                msg.link.proj_subfile.segments_in(msg.l_s, msg.r_s),
                msg.wire,
                disk,
                msg.crc,
                attempt,
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
        parent_span: Span,
    ) -> None:
        """Group the round's server jobs by owning worker and run them
        in one packed exchange.

        The parent resolves everything a worker cannot cheaply (or
        picklably) compute itself — the projection's segment arrays come
        from the view's mapping-function machinery, which carries
        thread-local scratch state — so a job is plain arrays and ints:
        one bulk pickle, no View/plan objects crossing the boundary.
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
            starts, lengths = msg.link.proj_subfile.segments_in(
                msg.l_s, msg.r_s
            )
            nbytes = int(lengths.sum()) if lengths.size else 0
            if op == "write" and nbytes != int(msg.wire.size):
                # The worker slices its packed block by ``nbytes``: a
                # mismatch would misalign every later payload.
                raise ValueError(
                    f"subfile {msg.subfile}: payload of "
                    f"{int(msg.wire.size)} bytes does not match the "
                    f"projection's {nbytes}"
                )
            w = backend.worker_for(msg.subfile, cfile.num_subfiles)
            jobs[w].append(
                {
                    "subfile": msg.subfile,
                    "l_s": msg.l_s,
                    "r_s": msg.r_s,
                    "starts": starts,
                    "lengths": lengths,
                    "nbytes": nbytes,
                    "replicas": replicas,
                    "crc": msg.crc,
                    "attempt": attempt,
                }
            )
            routed[w].append(msg)
        with backend.lock:
            if op == "write":
                outbox = [
                    (w + 1, msg.wire)
                    for w in range(backend.processes)
                    for msg in routed[w]
                ]
                results = backend.exchange_write(
                    jobs, outbox, disk, parent_span
                )
            else:
                results, inbox = backend.exchange_read(jobs, disk, parent_span)
        for w, res in enumerate(results):
            off = 0
            for msg, job, costs in zip(routed[w], jobs[w], res["costs"]):
                msg.costs = costs
                if op == "read":
                    msg.wire = inbox[w + 1][off : off + job["nbytes"]]
                    off += job["nbytes"]

    def _fanout_messages(self, msg: _Message) -> List[SimMessage]:
        """Price one logical message attempt as :class:`SimMessage` s.

        The sender's NIC serialises one copy per destination replica
        (the gather prep cost is paid once, on the first copy).  A
        dropped or corrupted attempt still holds the lane — the bytes
        travelled — but runs no destination stage and records no
        completion, so the retry layer's timeout is what ends it.
        """
        net = self.cluster.network
        header = self.cluster.config.header_bytes
        size = int(msg.payload.size)
        # The §8.1 loop runs per subfile: the gather for this message
        # happens after the previous message went out, so its
        # (modelled) copy cost sits on the client's critical path.
        prep_s = (
            self.cluster.config.memory.copy_time(size, msg.view_runs)
            if msg.view_runs > 1
            else 0.0
        )
        compute_name = f"compute{msg.compute}"
        ack_s = net.model.latency_s + header / net.model.bandwidth_Bps
        lost = msg.fate != "ok"
        out: List[SimMessage] = []
        for j, (_r, node_idx, _factor) in enumerate(msg.targets):
            io_node = self.cluster.io[node_idx]
            # Sender NIC serialises this node's outgoing messages.
            send_s = net.send_time(compute_name, io_node.name, header) + (
                net.send_time(compute_name, io_node.name, size)
            )
            stages = ()
            if not lost:
                cache_s, disk_s = msg.costs[j]
                stages = (
                    (io_node.cpu, cache_s, "bc"),
                    (io_node.disk_queue, disk_s, "disk"),
                )
            out.append(
                SimMessage(
                    key=msg.compute,
                    lane=("nic", msg.compute),
                    lane_s=(prep_s if j == 0 else 0.0) + send_s,
                    post_lane_s=msg.delay_s,
                    stages=stages,
                    ack_s=ack_s,
                    dropped=lost,
                )
            )
        return out

    def _finish(
        self, root: Span, op: str, n_messages: int, payload_bytes: int
    ) -> OperationResult:
        per_compute, per_io = breakdowns_from_trace(root)
        # Fault-handling outcomes and per-stage latencies are derived
        # from the span tree in one walk, like the breakdowns — the
        # trace is the single source of truth.
        retries = 0
        failed_over = 0
        map_s = gather_s = scatter_s = transport_s = 0.0
        for sp in root.walk():
            name = sp.name
            if name == "map":
                map_s += sp.wall_end_s - sp.wall_start_s
            elif name == "gather":
                gather_s += sp.wall_end_s - sp.wall_start_s
            elif name == "scatter":
                scatter_s += sp.wall_end_s - sp.wall_start_s
            elif name == "transport":
                transport_s += sp.wall_end_s - sp.wall_start_s
            elif name == "retry":
                retries += int(sp.attrs.get("messages", 0))
            elif name == "failover":
                failed_over += 1
        degraded = bool(root.attrs.get("degraded", False))
        obs_metrics.inc(f"engine.{op}.ops")
        obs_metrics.inc(f"engine.{op}.messages", n_messages)
        obs_metrics.inc(f"engine.{op}.payload_bytes", payload_bytes)
        if obs_metrics.stage_histograms_enabled():
            h_map, h_gather, h_scatter, h_transport, _ = _stage_hists(op)
            h_map.observe(map_s)
            h_gather.observe(gather_s)
            h_scatter.observe(scatter_s)
            h_transport.observe(transport_s)
            _observe_op(root, op, payload_bytes)
        return OperationResult(
            per_compute=per_compute,
            per_io=per_io,
            messages=n_messages,
            payload_bytes=payload_bytes,
            trace=root,
            retries=retries,
            failed_over=failed_over,
            degraded=degraded,
        )

    # -- physical re-layout --------------------------------------------------

    def relayout_transfers(
        self,
        plan: RedistributionPlan,
        old: Partition,
        new_physical: Partition,
        length: int,
        src_stores: Sequence,
        dst_stores: Sequence,
        src_mirrors: Optional[Sequence[Sequence]] = None,
        dst_mirrors: Optional[Sequence[Sequence]] = None,
    ) -> Tuple[int, int, float, Span]:
        """The per-transfer loop of a physical re-layout: gather at the
        source subfile, wire between distinct I/O nodes, scatter into
        the destination subfile — data movement real, timing simulated.

        Each transfer reads from the first live source replica, retries
        dropped/corrupt attempts under the retry policy, and writes
        every live destination replica.  The gather happens once — the
        source bytes never change mid-relayout, so a retried transfer
        re-sends the same verified payload; only the *wire* fate is
        re-drawn per attempt.  No injector and no mirrors is the case of
        one source, one destination, zero retries.

        Returns ``(bytes_moved, cross_node_messages, makespan_s,
        trace)``.
        """
        injector = self.injector
        op_id, attrs = _begin_op(
            injector, "relayout", transfers=len(plan.transfers), length=length
        )
        with open_span("relayout", **attrs) as root:
            sim_msgs: List[SimMessage] = []
            bytes_moved = 0
            cross = 0
            degraded = False
            for t in plan.transfers:
                src_len = old.element_length(t.src_element, length)
                dst_len = new_physical.element_length(t.dst_element, length)
                if src_len == 0 or dst_len == 0:
                    continue
                src_segs = t.src_projection.segments_in(0, src_len - 1)
                dst_segs = t.dst_projection.segments_in(0, dst_len - 1)
                nbytes = int(src_segs[1].sum()) if src_segs[1].size else 0
                if nbytes == 0:
                    continue

                # Source side: first live replica serves the gather.
                src_replicas = [src_stores[t.src_element]]
                if src_mirrors:
                    src_replicas += src_mirrors[t.src_element]
                src_live = self._live_replicas(
                    t.src_element, len(src_replicas), op_id, "source "
                )
                r_src, src_node_idx, src_factor = src_live[0]
                src_node = self.cluster.io[src_node_idx]
                if r_src != 0:
                    self._fail_over(root, t.src_element, src_live[0])

                # Destination side: every live replica gets the bytes.
                dst_replicas = [dst_stores[t.dst_element]]
                if dst_mirrors:
                    dst_replicas += dst_mirrors[t.dst_element]
                dst_live = self._live_replicas(
                    t.dst_element, len(dst_replicas), op_id, "destination "
                )
                if len(dst_live) < len(dst_replicas):
                    degraded = True

                # Real data movement.
                with open_span(
                    "move",
                    src=t.src_element,
                    dst=t.dst_element,
                    bytes=nbytes,
                ) as mv:
                    payload = gather_segments(
                        src_replicas[r_src].view(0, src_len - 1), src_segs
                    )
                    retries, delay_s, backoff_s = _transfer_retries(
                        injector,
                        self.retry_policy,
                        op_id,
                        "relayout",
                        t.src_element,
                        t.dst_element,
                        lambda: payload,
                    )
                    if retries:
                        obs_metrics.inc("faults.retry.rounds", retries)
                        mv.child("retry", messages=retries, rounds=retries)
                    for r_dst, _node, _factor in dst_live:
                        scatter_segments(
                            dst_replicas[r_dst].view(0, dst_len - 1),
                            dst_segs,
                            payload,
                        )
                bytes_moved += nbytes

                # Simulated timing: read once at the live source, wire
                # to each live destination replica, write there.
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
                            post_lane_s=wire_s + delay_s + backoff_s,
                            stages=((dst_node.disk_queue, write_s, "disk"),),
                        )
                    )

            with open_span("transport", messages=cross) as tspan:
                done = self.transport.run(sim_msgs, trace_span=tspan)
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


def _transfer_retries(
    injector: Optional[FaultInjector],
    policy: RetryPolicy,
    op_id,
    op: str,
    src: int,
    dst: int,
    packed,
) -> Tuple[int, float, float]:
    """Draw one transfer's wire fates until an attempt is delivered.

    A re-layout or shuffle transfer re-sends the same packed bytes (its
    source is never modified mid-operation), so only the fate is
    re-drawn per attempt; ``packed()`` yields those bytes and is called
    only if an attempt is corrupted (the CRC is stamped lazily).  Fates
    are a pure function of ``(seed, op_id, transfer, attempt)``.

    Returns ``(retries, delay_s, backoff_s)``: retransmissions needed,
    the injected delay of the delivered attempt, and the modelled
    timeout + backoff the failed ones cost.  No injector: ``(0, 0, 0)``.
    """
    if injector is None:
        return 0, 0.0, 0.0
    payload = crc = None
    attempt = 0
    backoff_s = 0.0
    while True:
        fate, delay_s = injector.message_fate(op_id, op, src, dst, attempt)
        if fate == "corrupt":
            if crc is None:
                payload = packed()
                crc = checksum(payload)
            received = injector.corrupt_payload(
                payload, op_id, op, src, dst, attempt
            )
            if checksum(received) == crc:
                fate = "ok"  # empty: nothing to flip
            else:
                obs_metrics.inc("faults.checksum_failures")
        if fate == "ok":
            return attempt, delay_s, backoff_s
        attempt += 1
        if attempt > policy.max_retries:
            raise RetryBudgetExceeded(
                f"{op} transfer {src}->{dst} still failing after "
                f"{policy.max_retries} retries"
            )
        obs_metrics.inc("faults.retry.messages")
        backoff_s += policy.timeout_s + policy.backoff_s(
            attempt - 1, seed=injector.plan.seed, token=(op, op_id, src, dst)
        )


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


def _shuffle_fate_accounting(
    plan: RedistributionPlan,
    src_buffers: Sequence[np.ndarray],
    injector: FaultInjector,
    policy: RetryPolicy,
    op_id: int,
    root,
) -> int:
    """Draw each transfer's wire fates without moving any bytes.

    Fates are a pure function of ``(seed, op_id, transfer, attempt)``,
    so retry counts and budget failures are identical whichever executor
    later moves the data; a transfer's packed payload is gathered only
    to answer a corrupt attempt's checksum question."""
    retries = 0
    for t in plan.transfers:
        src = src_buffers[t.src_element]
        if src.size == 0:
            continue
        src_segs = t.src_projection.segments_in(0, src.size - 1)
        if not (src_segs[1].size and int(src_segs[1].sum())):
            continue
        attempts, _delay_s, _backoff_s = _transfer_retries(
            injector,
            policy,
            op_id,
            "shuffle",
            t.src_element,
            t.dst_element,
            lambda: gather_segments(src, src_segs),
        )
        if attempts:
            retries += attempts
            root.child("retry", messages=attempts)
    return retries


def _execute_plan_mp(
    plan: RedistributionPlan,
    src_buffers: Sequence[np.ndarray],
    file_length: int,
    backend,
    root: Span,
) -> List[np.ndarray]:
    """Execute a redistribution plan across the worker pool.

    Destination elements are partitioned into contiguous blocks, one
    block per worker; the parent gathers every transfer's packed
    payload (sources are read-only, so gather order is free) and ships
    all of a worker's payloads in one packed round; workers scatter in
    the plan's transfer order per destination element — the only order
    that matters for bytes — and a second round brings the finished
    destination buffers back.  Byte-identical to :func:`execute_plan`.
    """
    nproc = backend.processes
    n_dst = plan.dst.num_elements
    jobs: List[List[dict]] = [[] for _ in range(nproc)]
    owned: List[List[int]] = [[] for _ in range(nproc)]
    job_index: Dict[int, Tuple[int, int]] = {}
    for j in range(n_dst):
        w = min(j * nproc // n_dst, nproc - 1)
        job_index[j] = (w, len(jobs[w]))
        owned[w].append(j)
        jobs[w].append(
            {
                "dst_len": plan.dst.element_length(j, file_length),
                "transfers": [],
            }
        )
    gathers: List[List[List[tuple]]] = [
        [[] for _ in jobs[w]] for w in range(nproc)
    ]
    for t in plan.transfers:
        src_len = src_buffers[t.src_element].size
        dst_len = plan.dst.element_length(t.dst_element, file_length)
        if src_len == 0 or dst_len == 0:
            continue
        src_segs = t.src_projection.segments_in(0, src_len - 1)
        dst_segs = t.dst_projection.segments_in(0, dst_len - 1)
        nbytes = int(src_segs[1].sum()) if src_segs[1].size else 0
        if nbytes == 0:
            continue
        w, jpos = job_index[t.dst_element]
        jobs[w][jpos]["transfers"].append(
            {"starts": dst_segs[0], "lengths": dst_segs[1], "nbytes": nbytes}
        )
        gathers[w][jpos].append((t.src_element, src_segs))
    # Pack payloads in exactly the order a worker will slice its block:
    # job by job, transfer by transfer.
    outbox = [
        (w + 1, gather_segments(src_buffers[src], segs))
        for w in range(nproc)
        for per_job in gathers[w]
        for src, segs in per_job
    ]
    with backend.lock:
        _results, inbox = backend.exchange_shuffle(jobs, outbox, root)
    buffers: List[np.ndarray] = [
        np.zeros(0, dtype=np.uint8) for _ in range(n_dst)
    ]
    for w in range(nproc):
        block, off = inbox[w + 1], 0
        for j in owned[w]:
            dst_len = plan.dst.element_length(j, file_length)
            buffers[j] = block[off : off + dst_len]
            off += dst_len
    return buffers


def run_shuffle(
    plan: RedistributionPlan,
    src_buffers: Sequence[np.ndarray],
    file_length: int,
    network: Optional[NetworkModel] = None,
    parallel: bool = False,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    window_bytes: Optional[int] = None,
    backend=None,
) -> ShuffleResult:
    """Execute a redistribution plan in memory through the engine.

    The byte movement is the plan executor's (segment-to-segment
    copies, resolved once per plan and file length); the
    :class:`DirectTransport` prices the exchange when a network model
    is supplied.  Used by two-phase collective I/O
    (phase-1 shuffle) and by checkpoint resharding (no network — ranks
    convert their own pieces).  ``window_bytes`` selects the out-of-core
    executor (fixed file windows),
    ``parallel`` the thread-pool executor, ``backend`` the worker pool
    — all byte-identical to the serial executor, with or without
    faults.

    With an injector, each transfer's wire fate is drawn per attempt
    before any byte moves; dropped/corrupt transfers re-send the same
    packed bytes (source buffers are never modified by the shuffle, so
    the re-gather is idempotent) until the retry budget runs out.  Fate
    draws depend only on the plan seed, the operation id and the
    transfer identity — never on the executor — so retry counts are
    reproducible across executors.
    """
    if window_bytes is not None and parallel:
        raise ValueError("window_bytes and parallel are mutually exclusive")
    if backend is not None and (parallel or window_bytes is not None):
        raise ValueError(
            "backend is mutually exclusive with parallel/window_bytes"
        )
    op_id, attrs = _begin_op(
        injector,
        "shuffle",
        transfers=len(plan.transfers),
        file_length=file_length,
    )
    retries = 0
    with open_span("shuffle", **attrs) as root:
        with open_span("move"):
            if injector is not None:
                retries = _shuffle_fate_accounting(
                    plan,
                    src_buffers,
                    injector,
                    retry_policy or RetryPolicy(),
                    op_id,
                    root,
                )
            if backend is not None:
                buffers = _execute_plan_mp(
                    plan, src_buffers, file_length, backend, root
                )
            elif window_bytes is not None:
                buffers = execute_plan_windowed(
                    plan, src_buffers, file_length, window_bytes
                )
            else:
                buffers = execute_plan(
                    plan, src_buffers, file_length, parallel=parallel
                )
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
