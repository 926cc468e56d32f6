"""Per-layer metrics and the stacked per-op budget of a traced repetition.

Everything here is read from outside the program: the probe spans of
:mod:`probes`, what ``repro`` already publishes (``Ticket.trace`` — the
``service.batch`` span tree with the engine operation under it —
``request_timeline(ticket)``, ``Ticket.wait_s``, counter deltas,
``plan_cache_stats()``) and the client loop's own timestamps.

Two denominators are kept apart.  A *cost* metric (``*_us``, per timed
op) is a layer's total busy time divided by the timed ops: what the op
costs the machine, batches amortised.  The *stacked budget* follows one
op's latency instead: submit, waits, then the whole batch it rode in —
an op waits for its entire batch, not for 1/n of it.
"""

import os
import statistics
import tempfile
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

import probes
from repro.obs import flightrec
from repro.obs.histogram import Histogram
from repro.service import request_timeline

MiB = 1 << 20

#: Stages of the stacked per-op budget, in causal order.
STACK = (
    "submit", "queue_wait", "lock_wait", "engine_self", "map", "gather",
    "transport_model", "server", "commit", "worker_self", "result_wait",
    "unattributed",
)

#: The same for the workloads that call the library directly: probe
#: self times in call order.
DIRECT_STACK = (
    "clusterfile.create", "clusterfile.set_view", "redistribution.get_plan",
    "redistribution.build_plan", "core.intersect", "core.project",
    "clusterfile.engine_write", "redistribution.execute_plan",
    "redistribution.gather", "redistribution.scatter",
    "simulation.transport", "clusterfile.linear_contents",
)

ZERO = probes.Totals(0, 0, 0)


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def _ns(tot: Dict[str, probes.Totals], *names: str) -> int:
    """Total nanoseconds of the named probes."""
    return sum(tot.get(name, ZERO).total_ns for name in names)


def _batch_facts(root, engine_ns: int, commit_ns: int, exchange_ns: int) -> dict:
    """What one ``service.batch`` span tree says, plus the probe times
    joined to it by trace id (seconds)."""
    sums = defaultdict(float)
    runs = nspans = messages = 0
    for sp in root.walk():
        nspans += 1
        name = sp.name
        if name in ("map", "gather", "scatter", "transport"):
            sums[name] += sp.wall_s
        elif name in ("server.write", "server.read"):
            sums[name] += sp.wall_s
            messages += 1
        if name in ("gather", "scatter", "server.write", "server.read"):
            runs += int(sp.attrs.get("runs", 0))
    engine = engine_ns / 1e9
    commit = commit_ns / 1e9
    exchange = exchange_ns / 1e9
    server = sums["server.write"] + sums["server.read"]
    gather = sums["gather"] + sums["scatter"]
    # In process mode the server spans are worker-side wall time, running
    # in parallel inside the exchange the parent waits on: the parent's
    # covered child is the exchange, not their sum.
    covered_server = exchange if exchange else server
    return {
        "end": root.wall_end_s,
        "commit": commit,
        "map": sums["map"],
        "gather": gather,
        "transport": sums["transport"],
        "server": covered_server,
        "server_write": sums["server.write"],
        "server_read": sums["server.read"],
        "engine_self": engine - sums["map"] - gather - sums["transport"]
        - covered_server,
        "worker_self": root.wall_s - engine - commit,
        "runs": runs,
        "spans": nspans,
        "messages": messages,
    }


def service_layers(rep: dict, spans: List[probes.ProbeSpan]) -> Dict[str, object]:
    """Layer metrics and the stacked budget of one traced service rep."""
    lo, hi = rep["mark"]
    timed = spans[lo:hi]
    tot = probes.totals(timed)
    whole = probes.totals(spans)
    engine_by = defaultdict(int)
    for name in ("clusterfile.engine_write", "clusterfile.engine_read"):
        for k, v in probes.by_trace(timed, name).items():
            engine_by[k] += v
    commit_by = probes.by_trace(timed, "durability.commit")
    exchange_by = defaultdict(int)
    for name in ("mp.exchange_write", "mp.exchange_read"):
        for k, v in probes.by_trace(timed, name).items():
            exchange_by[k] += v

    ops, warm = rep["ops"], rep["warm"]
    batches: Dict[int, dict] = {}
    stack = defaultdict(float)
    waits, locks, lat_sum = [], [], 0.0
    for st in rep["streams"]:
        for i in range(warm, len(st)):
            tk = st.ticket[i]
            if isinstance(st.result[i], BaseException) or tk.trace is None:
                continue
            root = tk.trace
            facts = batches.get(id(root))
            if facts is None:
                head = root.attrs.get("trace_id")
                facts = batches[id(root)] = _batch_facts(
                    root, engine_by.get(head, 0), commit_by.get(head, 0),
                    exchange_by.get(head, 0),
                )
            stages = {
                s["stage"]: float(s["wall_s"])
                for s in request_timeline(tk)["stages"]
            }
            latency = st.t_done[i] - st.t_submit[i]
            parts = {
                "submit": st.t_admitted[i] - st.t_submit[i],
                "queue_wait": stages.get("queue_wait", 0.0),
                "lock_wait": stages.get("lock_acquire", 0.0),
                "engine_self": facts["engine_self"],
                "map": facts["map"],
                "gather": facts["gather"],
                "transport_model": facts["transport"],
                "server": facts["server"],
                "commit": facts["commit"],
                "worker_self": facts["worker_self"],
                "result_wait": max(0.0, st.t_done[i] - facts["end"]),
            }
            parts["unattributed"] = latency - sum(parts.values())
            for k, v in parts.items():
                stack[k] += v
            lat_sum += latency
            waits.append(tk.wait_s)
            locks.append(stages.get("lock_acquire", 0.0))

    n = max(1, len(waits))
    b = list(batches.values())
    total = {k: sum(f[k] for f in b) for k in (
        "engine_self", "worker_self", "map", "server_write", "server_read",
        "runs", "spans", "messages",
    )}
    c = rep["counters"]
    engine_calls = c.get("engine.write.ops", 0) + c.get("engine.read.ops", 0)
    commits = c.get("durability.journal.commits", 0)
    us = 1e6 / ops
    m: Dict[str, float] = {
        "core.map_us": total["map"] * us,
        "core.runs_per_op": total["runs"] / ops,
        "redistribution.gather_us": _ns(tot, "redistribution.gather") / 1e3 / ops,
        "redistribution.scatter_us": _ns(tot, "redistribution.scatter") / 1e3 / ops,
        "clusterfile.engine_self_us": total["engine_self"] * us,
        "clusterfile.server_write_us": total["server_write"] * us,
        "clusterfile.server_read_us": total["server_read"] * us,
        "clusterfile.ioserver_ctor_per_op": rep["ioserver_ctor"] / ops,
        "clusterfile.spans_per_op": total["spans"] / ops,
        "clusterfile.messages_per_op": (
            c.get("engine.write.messages", 0) + c.get("engine.read.messages", 0)
        ) / ops,
        "clusterfile.payload_bytes_per_op": (
            c.get("engine.write.payload_bytes", 0)
            + c.get("engine.read.payload_bytes", 0)
        ) / ops,
        "simulation.transport_us": _ns(tot, "simulation.transport") / 1e3 / ops,
        "simulation.sim_messages_per_op": total["messages"] / ops,
        "namespace.locate_us": _ns(tot, "namespace.locate") / 1e3 / ops,
        "namespace.lookup_hit_rate": _per(
            c.get("namespace.lookup_cache.hits", 0),
            c.get("namespace.lookup_cache.hits", 0)
            + c.get("namespace.lookup_cache.misses", 0),
        ),
        "service.submit_us": _ns(
            tot, "service.submit_write", "service.submit_read") / 1e3 / ops,
        "service.queue_wait_us_p50": float(np.percentile(waits, 50)) * 1e6,
        "service.queue_wait_us_p95": float(np.percentile(waits, 95)) * 1e6,
        "service.lock_wait_us": float(np.mean(locks)) * 1e6,
        "service.batch_size_mean": _per(ops, engine_calls),
        "service.batches_per_op": _per(engine_calls, ops),
        "service.worker_self_us": total["worker_self"] * us,
        "service.parked_submits": 0.0,
        "service.cross_file_conflicts": float(
            c.get("service.lock.cross_file_conflicts", 0)
        ),
        "service.lat_p99_us": float(np.percentile(rep["lat_us"], 99)),
        "obs.flightrec_events_per_op": rep["flightrec_events"] / ops,
        "obs.hist_observes_per_op": rep["hist_observes"] / ops,
        "bench.unattributed_share": _per(stack["unattributed"], lat_sum),
        "bench.plan_build_share": _per(
            _ns(tot, "redistribution.build_plan") / 1e9, rep["wall_s"]),
    }
    if "journal_amp" in rep:
        m.update({
            "durability.journal_amp": rep["journal_amp"],
            "durability.commit_us": _per(
                _ns(tot, "durability.commit") / 1e3, commits),
            "durability.commit_us_per_op": _ns(tot, "durability.commit") / 1e3 / ops,
            "durability.write_calls_per_batch": _per(
                _journal_writes(timed), commits),
            "durability.journal_bytes_per_op":
                c.get("durability.journal.bytes", 0) / ops,
            "durability.fsyncs": float(rep["journal_flushes"])
            if rep["fsync"] else 0.0,
            "durability.redo_read_us": _ns(tot, "durability.redo_read") / 1e3 / ops,
        })
    if "recover_s" in rep:
        m.update({
            "durability.recover_s": rep["recover_s"],
            "durability.records_replayed": float(rep["records_replayed"]),
            "durability.recover_us_per_record": _per(
                rep["recover_s"] * 1e6, rep["records_replayed"]),
        })
    if "mp.pool_spawn" in whole:
        calls = sum(
            tot.get(k, ZERO).calls
            for k in ("mp.exchange_write", "mp.exchange_read")
        )
        m.update({
            "mp.exchange_us": _per(
                _ns(tot, "mp.exchange_write", "mp.exchange_read") / 1e3, calls),
            # every payload byte of the engine crosses the packed exchange
            "mp.exchange_bytes_per_op":
                m["clusterfile.payload_bytes_per_op"],
            "mp.worker_jobs_per_op": c.get("mp.worker.jobs", 0) / ops,
            "mp.pool_spawn_s": whole["mp.pool_spawn"].total_ns / 1e9,
        })
    m.update(plan_layers(rep, spans, timed_only=False))
    out_stack = {k: stack[k] / n * 1e6 for k in STACK}
    out_stack["latency"] = lat_sum / n * 1e6
    return {"metrics": m, "stack_us": out_stack}


def _journal_writes(spans: List[probes.ProbeSpan]) -> int:
    """``write(2)`` calls the journal made: every ``append`` is one, and
    so is every ``append_many`` that did not delegate to ``append``."""
    delegating = {
        sp.parent for sp in spans if sp.name == "durability.journal_append"
    }
    return sum(
        1 for sp in spans
        if sp.name == "durability.journal_append"
        or (sp.name == "durability.journal_append_many"
            and sp.id not in delegating)
    )


def plan_layers(rep: dict, spans: List[probes.ProbeSpan],
                timed_only: bool) -> Dict[str, float]:
    """``core`` / ``redistribution`` / ``set_view`` metrics.  Plans are
    built wherever views are set: in set-up for the service workloads
    (whole repetition), inside the timed op for ``cold_views``."""
    if timed_only:
        lo, hi = rep["mark"]
        spans = spans[lo:hi]
    tot = probes.totals(spans)
    builds = tot.get("redistribution.build_plan", ZERO)
    building = {
        sp.parent for sp in spans if sp.name == "redistribution.build_plan"
    }
    warm_gets = [
        sp.end_ns - sp.start_ns for sp in spans
        if sp.name == "redistribution.get_plan" and sp.id not in building
    ]
    c, pc = rep["counters"], rep["plan_cache"]
    m = {
        "redistribution.plan_cache_hit_rate": _per(
            pc["hits"], pc["hits"] + pc["misses"]),
    }
    if builds.calls:
        m.update({
            "core.intersect_ms": _ns(tot, "core.intersect") / 1e6 / builds.calls,
            "core.project_ms": _ns(tot, "core.project") / 1e6 / builds.calls,
            "redistribution.build_plan_ms": builds.total_ns / 1e6 / builds.calls,
        })
    if c.get("build_plan.calls"):
        m["core.pairs_intersected_per_plan"] = (
            c.get("build_plan.candidate_pairs", 0)
            - c.get("build_plan.pruned_pairs", 0)
        ) / c["build_plan.calls"]
    if warm_gets:
        m["redistribution.get_plan_us"] = statistics.fmean(warm_gets) / 1e3
    views = tot.get("clusterfile.set_view", ZERO)
    if views.calls:
        m["clusterfile.set_view_ms"] = views.total_ns / 1e6 / views.calls
    return m


def direct_layers(rep: dict, spans: List[probes.ProbeSpan]) -> Dict[str, object]:
    """Layer metrics of a traced ``cold_views`` or ``reshard`` rep."""
    lo, hi = rep["mark"]
    timed = spans[lo:hi]
    tot = probes.totals(timed)
    ops = rep["ops"]
    op_ns = rep["wall_s"] * 1e9
    gather = tot.get("redistribution.gather", ZERO)
    scatter = tot.get("redistribution.scatter", ZERO)
    engine = tot.get("clusterfile.engine_write", ZERO)
    m = {
        "redistribution.gather_us": gather.total_ns / 1e3 / ops,
        "redistribution.scatter_us": scatter.total_ns / 1e3 / ops,
        "bench.plan_build_share": _per(
            _ns(tot, "redistribution.build_plan"), op_ns),
    }
    m.update(plan_layers(rep, spans, timed_only=True))
    top = sum(
        sp.end_ns - sp.start_ns for sp in timed if not sp.parent
    )
    m["bench.unattributed_share"] = 1.0 - _per(top, op_ns)
    hops = tot.get("redistribution.execute_plan", ZERO)
    if hops.calls:
        moved = rep["payload_bytes"] * hops.calls
        m.update({
            "redistribution.execute_plan_ms": hops.total_ns / 1e6 / hops.calls,
            # bytes computed from the array size, not counted by a device
            "redistribution.copy_mib_per_s": _per(
                moved / MiB, (gather.total_ns + scatter.total_ns) / 1e9),
            "core.runs_per_op": (gather.calls + scatter.calls) / ops,
        })
    if engine.calls:
        c = rep["counters"]
        m.update({
            "clusterfile.engine_self_us": engine.self_ns / 1e3 / ops,
            "clusterfile.ioserver_ctor_per_op": rep.get("ioserver_ctor", 0) / ops,
            "clusterfile.messages_per_op": c.get("engine.write.messages", 0) / ops,
            "clusterfile.payload_bytes_per_op":
                c.get("engine.write.payload_bytes", 0) / ops,
            "simulation.transport_us":
                _ns(tot, "simulation.transport") / 1e3 / ops,
        })
    stack = {
        name.split(".", 1)[1]: tot[name].self_ns / 1e3 / ops
        for name in DIRECT_STACK if name in tot
    }
    stack["unattributed"] = (op_ns - top) / 1e3 / ops
    stack["latency"] = op_ns / 1e3 / ops
    return {"metrics": m, "stack_us": stack}


def primitive_costs(tmp_root: str) -> Dict[str, float]:
    """Direct timing of the two telemetry primitives on a scratch ring
    and a scratch histogram, not the armed ring or a live instrument."""
    n = 50_000
    with tempfile.TemporaryDirectory(dir=tmp_root) as d:
        ring = flightrec.FlightRecorder(os.path.join(d, "scratch.ring"))
        try:
            t0 = time.perf_counter_ns()
            for i in range(n):
                ring.record(flightrec.EV_OP_FINISH, trace=i, tseq=i, a=i)
            record_ns = (time.perf_counter_ns() - t0) / n
        finally:
            ring.close()
    hist = Histogram("scratch")
    t0 = time.perf_counter_ns()
    for i in range(n):
        hist.observe(1e-4 + i * 1e-9)
    observe_ns = (time.perf_counter_ns() - t0) / n
    return {
        "obs.flightrec_record_ns": record_ns,
        "obs.hist_observe_ns": observe_ns,
    }
