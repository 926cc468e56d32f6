"""Modelled time of a parallel write/read: the paper's Tables 1-2 priced
from the operation's message log, on demand.

The I/O engine executes an operation and logs what every message attempt
did (:attr:`~repro.clusterfile.engine.OperationResult.log`); it never
prices it.  ``OperationResult.per_compute`` / ``per_io`` call
:func:`price` on first read.  ViPIOS (PAPERS.md) keeps its I/O engine's
execution apart from its cost model the same way.  Physical re-layout
runs the FIFO stage schedule, :class:`SimulatedTransport`, eagerly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..obs.span import Span
from .cluster import Cluster
from .metrics import ScatterBreakdown, WriteBreakdown

__all__ = ["SimMessage", "SimulatedTransport", "Attempt", "Log", "fanout", "price"]


@dataclass(frozen=True)
class SimMessage:
    """One message on the simulated cluster.

    ``lane`` serialises the sender side (a NIC, a source disk);
    ``stages`` are ``(resource, service_s, label)`` triples served in
    order on FIFO destination devices (an ``IONode``'s ``cpu`` or
    ``disk_queue``); a non-``None`` ``label`` records the stage's
    completion (plus ``ack_s``) into that timeline bucket under ``key``.
    A message without stages (lost in flight) only holds its lane.
    """

    key: Hashable
    lane: Hashable
    lane_s: float
    post_lane_s: float = 0.0
    stages: Tuple[Tuple[str, float, Optional[str]], ...] = ()
    ack_s: float = 0.0


class SimulatedTransport:
    """FIFO stage schedule: sender lanes, wire latency, destination
    resources that serve one stage at a time.

    Each call prices one batch of :class:`SimMessage` on its own clock
    starting at 0 with every lane and resource free.  Stages are served
    in arrival order; arrivals at the same instant in submission order
    (first stages in message order, later stages in the order their
    predecessors were served).  Returns per-label completion maps —
    "limited by the slowest I/O server" is the max-merge per key.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def run(
        self,
        messages: Sequence[SimMessage],
        trace_span: Optional[Span] = None,
    ) -> Dict[str, Dict[Hashable, float]]:
        lane_free: Dict[Hashable, float] = {}
        free: Dict[str, float] = {}
        done: Dict[str, Dict[Hashable, float]] = {}
        # (arrival time, submission seq, message, stage index)
        heap: List[Tuple[float, int, SimMessage, int]] = []
        for msg in messages:
            lane_end = lane_free.get(msg.lane, 0.0) + msg.lane_s
            lane_free[msg.lane] = lane_end
            if msg.stages:
                heap.append((lane_end + msg.post_lane_s, len(heap), msg, 0))
        heapq.heapify(heap)
        seq = len(heap)
        while heap:
            now, _, msg, i = heapq.heappop(heap)
            resource, service_s, label = msg.stages[i]
            if service_s < 0:
                raise ValueError(f"negative service time {service_s}")
            start = max(now, free.get(resource, 0.0))
            end = free[resource] = start + service_s
            if trace_span is not None:
                trace_span.record_sim(resource, start, end)
            if label is not None:
                bucket = done.setdefault(label, {})
                t = end + msg.ack_s
                bucket[msg.key] = max(bucket.get(msg.key, 0.0), t)
            if i + 1 < len(msg.stages):
                # ``now + (end - now)``, not ``end``: it can differ in
                # the last bit, and the modelled columns are pinned to
                # this expression.
                heapq.heappush(heap, (now + (end - now), seq, msg, i + 1))
                seq += 1
        return done


#: One logged message attempt: ``(compute, view_runs, size, delay_s,
#: lost, io_nodes, costs)`` — ``view_runs`` fragments gathered, ``lost``
#: when dropped or corrupted, the I/O node of every replica addressed,
#: ``(cache_s, disk_s)`` per replica that served it (empty when lost).
#: Plain values only: a log never keeps a payload alive.
Attempt = Tuple[
    int, int, int, float, bool, Tuple[int, ...], Tuple[Tuple[float, float], ...]
]
#: An operation's message log: one ``(round_start_s, attempts)`` per
#: retry round.
Log = Tuple[Tuple[float, Tuple[Attempt, ...]], ...]


def fanout(attempt: Attempt, cluster: Cluster) -> List[SimMessage]:
    """One logged attempt as :class:`SimMessage` s: the sender's NIC
    serialises one copy per replica (the gather prep cost is paid on the
    first).  A lost attempt holds the lane but runs no destination
    stage and records no completion — the retry timeout ends it."""
    compute, view_runs, size, delay_s, lost, io_nodes, costs = attempt
    model = cluster.network.model
    header = cluster.config.header_bytes
    # The §8.1 loop runs per subfile: the gather for this message
    # happens after the previous message went out, so its (modelled)
    # copy cost sits on the client's critical path.
    prep_s = (
        cluster.config.memory.copy_time(size, view_runs) if view_runs > 1 else 0.0
    )
    send_s = model.transfer_time(header) + model.transfer_time(size)
    ack_s = model.latency_s + header / model.bandwidth_Bps
    out: List[SimMessage] = []
    for j, node_idx in enumerate(io_nodes):
        io_node = cluster.io[node_idx]
        stages = () if lost else (
            (io_node.cpu, costs[j][0], "bc"),
            (io_node.disk_queue, costs[j][1], "disk"),
        )
        out.append(SimMessage(
            key=compute, lane=("nic", compute),
            lane_s=(prep_s if j == 0 else 0.0) + send_s,
            post_lane_s=delay_s, stages=stages, ack_s=ack_s,
        ))
    return out


def price(
    result, cluster: Cluster, trace_span: Optional[Span] = None
) -> Tuple[Dict[int, WriteBreakdown], Dict[int, ScatterBreakdown]]:
    """The Table 1/2 records of one write/read ``OperationResult``.

    * ``t_i`` / ``t_m`` / ``t_g`` — measured: each ``client.prepare``
      span's ``t_i_us``, and its ``map`` and ``gather`` (plus the op's
      ``scatter``) span wall times;
    * ``t_sc`` — the ``server.*`` spans' modelled cache/disk seconds,
      every replica and retransmission included (the work was done);
    * ``t_w`` — each compute node's last completion on the stage
      schedule of the log, one schedule per retry round, offset by its
      ``round_start_s``.

    Spans under ``retry`` groups or grafted from pool workers count like
    round 0's.  With ``trace_span``, each round's schedule is drawn as
    simulation-clock spans under a ``transport`` child of it.  Pricing
    never touches the network's traffic counters.
    """
    per_compute: Dict[int, WriteBreakdown] = {}
    per_io: Dict[int, ScatterBreakdown] = {}
    for sp in result.trace.walk():
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
            cache_s, disk_s = sp.attrs["cache_s"], sp.attrs["disk_s"]
            sb.t_sc_bc += cache_s * 1e6
            sb.t_sc_disk += (cache_s + disk_s) * 1e6
    transport = SimulatedTransport(cluster)
    done_bc: Dict[int, float] = {}
    done_disk: Dict[int, float] = {}
    for round_idx, (round_start_s, attempts) in enumerate(result.log):
        lanes = None
        if trace_span is not None:
            lanes = trace_span.child(
                "transport", round=round_idx, round_start_s=round_start_s
            )
        done = transport.run(
            [m for a in attempts for m in fanout(a, cluster)], trace_span=lanes
        )
        for bucket, total in (("bc", done_bc), ("disk", done_disk)):
            for key, t in done.get(bucket, {}).items():
                total[key] = max(total.get(key, 0.0), round_start_s + t)
    for node, bd in per_compute.items():
        bd.t_w_bc = done_bc.get(node, 0.0) * 1e6
        bd.t_w_disk = done_disk.get(node, 0.0) * 1e6
    return per_compute, per_io
