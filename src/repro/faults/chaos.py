"""Seeded chaos sweeps over the four engine data paths.

One chaos run drives the same workload the correctness tests use —
independent parallel write/read, two-phase collective I/O, physical
re-layout, checkpoint resharding — through a fault-injected, replicated
deployment, and asserts **byte-exactness**: whenever a live replica
exists, every path must hand back bit-identical contents despite
drops, corruption, node crashes, and slow disks.

The fault schedule is a pure function of the :class:`FaultPlan` seed,
so a failing sweep is replayed exactly by re-running the same plan
(the CLI saves it as JSON; CI uploads it as an artifact).  The run
also measures *recovery latency*: the modelled completion time of the
faulty write/read against a fault-free twin of the same replicated
workload, isolating what the retries and failovers cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.checkpoint import reshard
from ..clusterfile.collective import two_phase_read, two_phase_write
from ..clusterfile.fs import Clusterfile
from ..clusterfile.relayout import relayout
from ..core.falls import Falls
from ..core.partition import Partition
from ..obs import metrics as obs_metrics
from ..redistribution.executor import collect, distribute
from ..simulation.cluster import ClusterConfig
from .injector import FaultInjector
from .plan import FaultPlan, FaultRule
from .retry import RetryPolicy

__all__ = ["default_plan", "run_chaos", "run_sweep"]


def default_plan(
    seed: int = 0,
    drop: float = 0.05,
    corrupt: float = 0.05,
    delay_s: float = 0.0,
    crash_node: Optional[int] = None,
    crash_after: int = 0,
    slow_node: Optional[int] = None,
    slow_factor: float = 1.0,
) -> FaultPlan:
    """The standard chaos schedule: unscoped drop/corrupt/delay rules
    plus optional single-node crash and slow-disk rules."""
    rules: List[FaultRule] = []
    if drop:
        rules.append(FaultRule(kind="drop", rate=drop))
    if corrupt:
        rules.append(FaultRule(kind="corrupt", rate=corrupt))
    if delay_s:
        rules.append(FaultRule(kind="delay", rate=1.0, delay_s=delay_s))
    if crash_node is not None:
        rules.append(
            FaultRule(kind="crash", io_node=crash_node, after_ops=crash_after)
        )
    if slow_node is not None and slow_factor > 1.0:
        rules.append(
            FaultRule(kind="slow_disk", io_node=slow_node, factor=slow_factor)
        )
    return FaultPlan(seed=seed, rules=tuple(rules))


def _block_partition(elements: int, block: int) -> Partition:
    total = elements * block
    return Partition(
        [Falls(e * block, (e + 1) * block - 1, total, 1) for e in range(elements)]
    )


def _cyclic_partition(elements: int, chunk: int) -> Partition:
    period = elements * chunk
    return Partition(
        [
            Falls(e * chunk, (e + 1) * chunk - 1, period, 1)
            for e in range(elements)
        ]
    )


def _workload(
    seed: int, n_bytes: int, nprocs: int
) -> Tuple[Partition, Partition, Dict[int, np.ndarray], int]:
    """A deterministic cyclic-over-block workload: per-node data, the
    shared logical (cyclic) partition and the physical (block) one."""
    chunk = 16
    period = nprocs * chunk
    n_bytes = max(period, (n_bytes // period) * period)
    periods = n_bytes // period
    logical = _cyclic_partition(nprocs, chunk)
    physical = _block_partition(nprocs, n_bytes // nprocs)
    rng = np.random.default_rng(seed)
    data = {
        node: rng.integers(0, 256, periods * chunk, dtype=np.uint8)
        for node in range(nprocs)
    }
    return logical, physical, data, n_bytes


def _t_w_disk(result) -> float:
    return max(
        (bd.t_w_disk for bd in result.per_compute.values()), default=0.0
    )


def _path_write_read(
    plan: Optional[FaultPlan],
    n_bytes: int,
    nprocs: int,
    replication: int,
    policy: RetryPolicy,
    mode: str = "thread",
) -> Dict[str, object]:
    """Parallel write + read; returns ok/retry/failover/latency facts."""
    logical, physical, data, _ = _workload(
        plan.seed if plan else 0, n_bytes, nprocs
    )
    fs = Clusterfile(
        ClusterConfig(),
        fault_injector=FaultInjector(plan) if plan is not None else None,
        retry_policy=policy,
        workers_mode=mode,
    )
    try:
        fs.create("chaos", physical, replication=replication)
        for node in range(nprocs):
            fs.set_view("chaos", node, logical, element=node)
        wres = fs.write(
            "chaos",
            [(node, 0, data[node]) for node in range(nprocs)],
            to_disk=True,
        )
        bufs, rres = fs.read_with_result(
            "chaos",
            [(node, 0, data[node].size) for node in range(nprocs)],
            from_disk=True,
        )
        ok = all(
            np.array_equal(bufs[node], data[node]) for node in range(nprocs)
        )
        return {
            "ok": bool(ok),
            "retries": wres.retries + rres.retries,
            "failed_over": rres.failed_over,
            "degraded": wres.degraded,
            "t_w_disk_us": _t_w_disk(wres) + _t_w_disk(rres),
        }
    finally:
        if mode == "process":
            fs.close()


def _path_collective(
    plan: FaultPlan,
    n_bytes: int,
    nprocs: int,
    replication: int,
    policy: RetryPolicy,
    mode: str = "thread",
) -> Dict[str, object]:
    """Two-phase collective write + read, byte-compared to the source."""
    logical, physical, data, _ = _workload(plan.seed, n_bytes, nprocs)
    fs = Clusterfile(
        ClusterConfig(),
        fault_injector=FaultInjector(plan),
        retry_policy=policy,
        workers_mode=mode,
    )
    try:
        fs.create("chaos", physical, replication=replication)
        for node in range(nprocs):
            fs.set_view("chaos", node, logical, element=node)
        accesses = [(node, 0, data[node]) for node in range(nprocs)]
        cw = two_phase_write(fs, "chaos", accesses, to_disk=True)
        bufs, cr = two_phase_read(
            fs,
            "chaos",
            [(node, 0, data[node].size) for node in range(nprocs)],
            from_disk=True,
        )
        ok = all(
            np.array_equal(bufs[i], data[node])
            for i, node in enumerate(range(nprocs))
        )
        return {
            "ok": bool(ok),
            "retries": cw.write.retries + cr.write.retries,
            "failed_over": cr.write.failed_over,
            "degraded": cw.write.degraded,
        }
    finally:
        if mode == "process":
            fs.close()


def _path_relayout(
    plan: FaultPlan,
    n_bytes: int,
    nprocs: int,
    replication: int,
    policy: RetryPolicy,
    mode: str = "thread",
) -> Dict[str, object]:
    """Write, physically re-lay out, read back through fresh views."""
    logical, physical, data, total = _workload(plan.seed, n_bytes, nprocs)
    fs = Clusterfile(
        ClusterConfig(),
        fault_injector=FaultInjector(plan),
        retry_policy=policy,
        workers_mode=mode,
    )
    try:
        fs.create("chaos", physical, replication=replication)
        for node in range(nprocs):
            fs.set_view("chaos", node, logical, element=node)
        fs.write(
            "chaos",
            [(node, 0, data[node]) for node in range(nprocs)],
            to_disk=True,
        )
        new_elements = max(2, nprocs // 2)
        rl = relayout(
            fs, "chaos", _block_partition(new_elements, total // new_elements)
        )
        for node in range(nprocs):
            fs.set_view("chaos", node, logical, element=node)
        bufs, rres = fs.read_with_result(
            "chaos",
            [(node, 0, data[node].size) for node in range(nprocs)],
            from_disk=True,
        )
        ok = all(
            np.array_equal(bufs[node], data[node]) for node in range(nprocs)
        )
        return {
            "ok": bool(ok),
            "retries": rl.retries + rres.retries,
            "failed_over": rl.failed_over + rres.failed_over,
            "degraded": False,
        }
    finally:
        if mode == "process":
            fs.close()


def _path_reshard(
    plan: FaultPlan, n_bytes: int, nprocs: int, policy: RetryPolicy
) -> Dict[str, object]:
    """Memory-memory reshard between decompositions under faults."""
    logical, _physical, _data, total = _workload(plan.seed, n_bytes, nprocs)
    rng = np.random.default_rng(plan.seed + 1)
    linear = rng.integers(0, 256, total, dtype=np.uint8)
    pieces = distribute(linear, logical)
    new_parts = _block_partition(max(2, nprocs // 2), total // max(2, nprocs // 2))
    injector = FaultInjector(plan)
    before = obs_metrics.snapshot("faults.retry").get("faults.retry.messages", 0)
    out = reshard(
        pieces, logical, new_parts, total, injector=injector, retry_policy=policy
    )
    after = obs_metrics.snapshot("faults.retry").get("faults.retry.messages", 0)
    back = collect(out, new_parts, total)
    return {
        "ok": bool(np.array_equal(back, linear)),
        "retries": int(after - before),
        "failed_over": 0,
        "degraded": False,
    }


def run_chaos(
    plan: FaultPlan,
    n_bytes: int = 4096,
    nprocs: int = 4,
    replication: int = 2,
    retry_policy: Optional[RetryPolicy] = None,
    mode: str = "thread",
) -> Tuple[Dict[str, object], bool]:
    """One chaos run: all four data paths under one fault plan.

    Returns ``(report, all_ok)``.  The report carries, per path, the
    byte-exactness verdict and the recovery facts (retries, failovers,
    degradation), plus the modelled recovery-latency overhead of the
    faulty write/read against its fault-free twin (same replication, no
    injector — isolating what the faults cost, not what replication
    costs).

    ``mode`` selects the deployments' execution mode (``"thread"`` or
    ``"process"``); byte-exactness and the recovery facts must hold
    identically in both.  In process mode every round of a faulty
    write/read — retransmissions, replica fan-out, failover reads,
    checksum rejections — is served inside the worker pool, and each
    deployment path's report gains ``worker_jobs``: the ``mp.worker.jobs``
    it ran there.
    """
    policy = retry_policy or RetryPolicy()

    def deployed(path, plan_) -> Dict[str, object]:
        before = obs_metrics.snapshot("mp.worker").get("mp.worker.jobs", 0)
        facts = path(plan_, n_bytes, nprocs, replication, policy, mode=mode)
        if mode == "process":
            after = obs_metrics.snapshot("mp.worker").get("mp.worker.jobs", 0)
            facts["worker_jobs"] = int(after - before)
        return facts

    paths: Dict[str, Dict[str, object]] = {}
    paths["write_read"] = deployed(_path_write_read, plan)
    clean = deployed(_path_write_read, None)
    faulty_t = paths["write_read"]["t_w_disk_us"]
    clean_t = clean["t_w_disk_us"]
    recovery_overhead = (faulty_t / clean_t - 1.0) if clean_t else 0.0
    paths["collective"] = deployed(_path_collective, plan)
    paths["relayout"] = deployed(_path_relayout, plan)
    paths["reshard"] = _path_reshard(plan, n_bytes, nprocs, policy)
    all_ok = all(p["ok"] for p in paths.values())
    report: Dict[str, object] = {
        "seed": plan.seed,
        "plan": plan.to_json(),
        "n_bytes": n_bytes,
        "nprocs": nprocs,
        "replication": replication,
        "paths": paths,
        "recovery_latency_overhead": recovery_overhead,
        "faults": obs_metrics.snapshot("faults"),
        "ok": all_ok,
    }
    return report, all_ok


def run_sweep(
    seeds: Sequence[int],
    n_bytes: int = 4096,
    nprocs: int = 4,
    replication: int = 2,
    drop: float = 0.05,
    corrupt: float = 0.05,
    delay_s: float = 0.0,
    crash_node: Optional[int] = None,
    crash_after: int = 0,
    slow_node: Optional[int] = None,
    slow_factor: float = 1.0,
    retry_policy: Optional[RetryPolicy] = None,
    mode: str = "thread",
) -> Tuple[List[Dict[str, object]], bool]:
    """A multi-seed chaos sweep; returns per-seed reports + verdict."""
    reports = []
    all_ok = True
    for seed in seeds:
        plan = default_plan(
            seed=seed,
            drop=drop,
            corrupt=corrupt,
            delay_s=delay_s,
            crash_node=crash_node,
            crash_after=crash_after,
            slow_node=slow_node,
            slow_factor=slow_factor,
        )
        report, ok = run_chaos(
            plan,
            n_bytes=n_bytes,
            nprocs=nprocs,
            replication=replication,
            retry_policy=retry_policy,
            mode=mode,
        )
        reports.append(report)
        all_ok = all_ok and ok
    return reports, all_ok
