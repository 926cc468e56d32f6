"""One conformance driver: a seeded op stream, one serial oracle.

The paper's file model is right when the bytes views write through
``MAP``/``MAP^-1`` land where a serial write of the linear file would
put them, whatever happens in between.  :func:`run` checks that for one
``(config, seed, perturbation)`` with one seeded op stream
(:func:`stream`), one deployment (:func:`deploy`), one oracle -- the
ops written one by one on a twin with no journal and no injector,
compared on ``linear_contents`` and every view's read-back -- and one
report headed ``{config, seed, perturbation}`` that :func:`replay`
re-runs.

* ``"none"`` or a :class:`~repro.faults.FaultPlan`: the stream runs in
  process through every data path (write/read with each checkpoint a
  same-layout re-layout, re-layout, two-phase collective, reshard);
  every op is acknowledged, so each path must equal the replay of the
  whole stream.  Fates are a pure function of
  the plan, so a replay reproduces every verdict and recovery fact.
* ``{"kind": "sigkill", "by": "time" | "acks", "after": ...}``: a victim
  (``python -m repro.conformance SPEC``) serves the stream through a
  journaled :class:`~repro.service.FileService`, logs every resolved
  ticket, and is SIGKILLed after ``after`` seconds or acks (drawn from
  the seed when ``None``).  Recovery must cover every ack and equal the
  replay of the recovered prefix; the flight ring must hold an
  ``op_finish`` per ack and no torn slot.  A replay reproduces the
  stream and kill target, not the batch timing (nor recovered bytes).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from dataclasses import replace
from queue import Queue
from typing import Dict, List, Optional

import numpy as np

from .apps.checkpoint import reshard
from .clusterfile.collective import two_phase_read, two_phase_write
from .clusterfile.fs import Clusterfile
from .clusterfile.relayout import relayout
from .core.falls import Falls
from .core.partition import Partition
from .durability.manager import DurabilityManager
from .faults import FaultError, FaultInjector, FaultPlan, FaultRule
from .faults import replica_nodes
from .mp.shm import unlink_segments_of
from .obs import flightrec
from .obs import metrics as obs_metrics
from .obs.forensics import decode_ring, finished_ops, reconstruct
from .redistribution.executor import collect, distribute
from .service.service import FileService
from .simulation.cluster import ClusterConfig

__all__ = ["DEFAULT_CONFIG", "default_plan", "deploy", "replay", "run",
           "stream"]

DEFAULT_CONFIG = dict(nprocs=4, files=2, ops=48, replication=2,
                      mode="thread", snapshot_every=10, views="disjoint")
#: View offsets are drawn below DOMAIN, lengths up to MAX_LEN; every
#: view is read back over its first SPAN bytes (whole logical periods).
DOMAIN, MAX_LEN, CHUNK = 2048, 96, 16
SPAN = -(-(DOMAIN + MAX_LEN) // CHUNK) * CHUNK
#: The victim's pacing and batching.
OP_DELAY_S, MAX_BATCH, BATCH_WINDOW_S = 0.0015, 4, 0.002

Op = namedtuple("Op", "file seq node offset payload snapshot")


def _cyclic(elements: int, chunk: int) -> Partition:
    period = elements * chunk
    return Partition(
        [Falls(e * chunk, (e + 1) * chunk - 1, period, 1)
         for e in range(elements)]
    )


def _config(config: Optional[dict]) -> dict:
    """Defaults filled in; an axis no perturbation can honour raises."""
    out = dict(DEFAULT_CONFIG, **(config or {}))
    unknown = sorted(set(out) - set(DEFAULT_CONFIG))
    if unknown:
        raise ValueError(f"unknown config axes {unknown}")
    cluster = ClusterConfig()
    if not (
        out["mode"] in ("thread", "process")
        and out["views"] in ("disjoint", "shared")
        and 1 <= out["nprocs"] <= cluster.compute_nodes
        and 1 <= out["replication"] <= cluster.io_nodes
        and min(out["files"], out["ops"]) >= 1
        and out["snapshot_every"] >= 0
    ):
        raise ValueError(f"config out of range: {out}")
    return out


def _names(config: dict) -> List[str]:
    return [f"c{f}" for f in range(config["files"])]


def stream(config: dict, seed: int) -> List[Op]:
    """The seeded op stream.  ``seq`` is the op's per-file ticket seq in
    the service: a checkpoint (``snapshot``) before an op takes a seq of
    its own, so write seqs are not simply ``0..n-1``."""
    rng, names = np.random.default_rng(seed), _names(config)
    next_seq, ops = dict.fromkeys(names, 0), []
    every = config["snapshot_every"]
    for i in range(config["ops"]):
        name = names[i % len(names)]
        node = int(rng.integers(config["nprocs"]))
        offset = int(rng.integers(DOMAIN))
        length = int(rng.integers(1, MAX_LEN + 1))
        payload = rng.integers(0, 256, length, dtype=np.uint8)
        snapshot = bool(every and i and i % every == 0)
        next_seq[name] += snapshot
        ops.append(Op(name, next_seq[name], node, offset, payload, snapshot))
        next_seq[name] += 1
    return ops


def _set_views(fs: Clusterfile, name: str, config: dict) -> None:
    """Each node views its element of one cyclic-CHUNK partition
    (``disjoint``), or every node views the whole file (``shared``)."""
    nprocs, shared = config["nprocs"], config["views"] == "shared"
    logical = _cyclic(1 if shared else nprocs, CHUNK)
    for node in range(nprocs):
        fs.set_view(name, node, logical, element=0 if shared else node)


def deploy(config: dict, injector=None, journal=None) -> Clusterfile:
    """The one deployment: every file created and viewed, journaled
    when ``journal`` is given."""
    fs = Clusterfile(
        ClusterConfig(), fault_injector=injector, workers_mode=config["mode"]
    )
    for name in _names(config):
        physical = _cyclic(config["nprocs"], 2 * CHUNK)
        fs.create(name, physical, replication=config["replication"])
        _set_views(fs, name, config)
        if journal is not None:
            journal.register_file(fs, name)
    return fs


# -- the oracle ---------------------------------------------------------------


def _replay(config: dict, ops: List[Op], stamps=None) -> dict:
    """Serial replay of the ops (of each file's ``seq <= stamp`` prefix)
    on an unreplicated thread-mode twin with no injector or journal;
    returns ``{file: (linear bytes, view read-backs)}``."""
    twin = deploy(dict(config, mode="thread", replication=1))
    for op in ops:
        if stamps is None or op.seq <= stamps[op.file]:
            twin.write(op.file, [(op.node, op.offset, op.payload)])
    reads = [(n, 0, SPAN) for n in range(config["nprocs"])]
    return {
        name: (twin.linear_contents(name), twin.read(name, reads))
        for name in _names(config)
    }


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bytes, a longer side's tail all zero (file lengths differ
    by holes, never by data)."""
    n = min(got.size, want.size)
    tails = got[n:].any() or want[n:].any()
    return bool(np.array_equal(got[:n], want[:n]) and not tails)


def _matches(fs, name, views, want, crashed=frozenset()) -> bool:
    """The oracle's verdict on one file: its linear bytes, read from
    each subfile's first replica on a node that never crashed (a
    crashed primary missed later writes), and every view's read-back."""
    f, io_nodes = fs.open(name), fs.config.io_nodes
    live = [
        next(st for r, st in enumerate(f.replica_stores(s))
             if replica_nodes(s, f.replication, io_nodes)[r] not in crashed)
        for s in range(f.num_subfiles)
    ]
    linear = replace(f, stores=live).linear_contents()
    return _same(linear, want[0]) and all(
        np.array_equal(g, w) for g, w in zip(views, want[1])
    )


# -- none / faults: every data path in process --------------------------------


def default_plan(
    seed=0, drop=0.05, corrupt=0.05, delay_s=0.0, crash_node=None,
    crash_after=0, slow_node=None, slow_factor=1.0,
) -> FaultPlan:
    """Unscoped drop/corrupt/delay rules, optional crash/slow node."""
    wanted = (
        (drop, dict(kind="drop", rate=drop)),
        (corrupt, dict(kind="corrupt", rate=corrupt)),
        (delay_s, dict(kind="delay", delay_s=delay_s)),
        (crash_node is not None,
         dict(kind="crash", io_node=crash_node, after_ops=crash_after)),
        (slow_node is not None and slow_factor > 1.0,
         dict(kind="slow_disk", io_node=slow_node, factor=slow_factor)),
    )
    rules = tuple(FaultRule(**rule) for on, rule in wanted if on)
    return FaultPlan(seed=seed, rules=rules)


def _rounds(ops: List[Op]):
    """Each file's ops cut into write calls of distinct compute nodes
    and at each checkpoint, which is yielded as ``(file, None)``.  A
    call's requests land in list order, so it equals the serial replay
    even where shared views make them overlap."""
    pending: Dict[str, list] = {}
    for op in ops:
        calls = pending.setdefault(op.file, [])
        if op.snapshot or any(node == op.node for node, _, _ in calls):
            if calls:
                yield op.file, calls
            if op.snapshot:
                yield op.file, None
            calls = pending[op.file] = []
        calls.append((op.node, op.offset, op.payload))
    yield from ((name, calls) for name, calls in pending.items() if calls)


def _counter(name: str) -> int:
    return obs_metrics.snapshot(name).get(name, 0)


def _in_process(config: dict, ops: List[Op], plan: Optional[FaultPlan]):
    """Every data path under the plan (``None``: no injector)."""
    nprocs, names = config["nprocs"], _names(config)
    want = _replay(config, ops)
    crashed = plan.crashed_nodes(1 << 62) if plan else frozenset()
    reads = [(n, 0, SPAN) for n in range(nprocs)]
    logical, total = _cyclic(nprocs, CHUNK), nprocs * SPAN
    target = _cyclic(max(2, nprocs // 2), total // max(2, nprocs // 2))
    paths: Dict[str, dict] = {}

    def injector():
        return FaultInjector(plan) if plan is not None else None

    def path(name, fs, body):
        """``body(fs) -> (op results, {file: view reads})``, judged."""
        jobs = _counter("mp.worker.jobs")
        try:
            results, views = body(fs)
            ok = [_matches(fs, f, views[f], want[f], crashed) for f in names]
            facts = {
                "ok": all(ok),
                "retries": sum(r.retries for r in results),
                "failed_over": sum(r.failed_over for r in results),
                "degraded": any(getattr(r, "degraded", 0) for r in results),
            }
        except FaultError as exc:
            facts = {"ok": False, "error": repr(exc)}
        if config["mode"] == "process":
            facts["worker_jobs"] = _counter("mp.worker.jobs") - jobs
        paths[name] = facts

    def read_back(fs, results):
        views = {}
        for f in names:
            views[f], res = fs.read_with_result(f, reads, from_disk=True)
            results.append(res)
        return results, views

    def write_read(fs):
        results = []
        for f, calls in _rounds(ops):
            if calls is None:  # a checkpoint: a same-layout re-layout
                results.append(relayout(fs, f, fs.open(f).physical))
                _set_views(fs, f, config)
            else:
                results.append(fs.write(f, calls, to_disk=True))
        return read_back(fs, results)

    def relayouts(fs):
        results = []
        for f in names:
            results.append(relayout(fs, f, target))
            _set_views(fs, f, config)
        return read_back(fs, results)

    def collective(fs):
        results, views = [], {}
        for f in names:
            images = list(zip(range(nprocs), [0] * nprocs, want[f][1]))
            results.append(two_phase_write(fs, f, images, to_disk=True).write)
            views[f], cr = two_phase_read(fs, f, reads, from_disk=True)
            results.append(cr.write)
        return results, views

    with deploy(config, injector()) as fs:
        path("write_read", fs, write_read)
        path("relayout", fs, relayouts)
    with deploy(config, injector()) as fs:
        path("collective", fs, collective)
    retries, ok = _counter("faults.retry.messages"), True
    for f in names:
        linear = np.pad(want[f][0], (0, total - want[f][0].size))
        pieces = distribute(linear, logical)
        out = reshard(pieces, logical, target, total, injector=injector())
        ok = ok and _same(collect(out, target, total), want[f][0])
    paths["reshard"] = {
        "ok": ok, "retries": _counter("faults.retry.messages") - retries,
        "failed_over": 0, "degraded": False,
    }
    return {"paths": paths, "ok": all(p["ok"] for p in paths.values())}


# -- sigkill: a journaled victim, killed and recovered ------------------------


def _read_acks(path: str, names: List[str]) -> Dict[str, List[int]]:
    """The ack log as ``{file: [seq, ...]}``; a torn last line (the
    victim died mid-append) is ignored, like any torn tail."""
    acked: Dict[str, List[int]] = {name: [] for name in names}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")[:-1]
    for line in lines:
        name, _, seq = line.rpartition(",")
        if name in acked and seq.isdigit():
            acked[name].append(int(seq))
    return acked


def _blackbox(ring: str, acked: Dict[str, List[int]]):
    """Decode the victim's flight ring into its last words.  Every acked
    seq must have an ``op_finish`` (only the newest once the ring has
    wrapped), and a SIGKILL may leave no torn slot."""
    try:
        dump = decode_ring(ring)
    except (OSError, ValueError) as exc:
        return {"error": str(exc)}, False
    box = reconstruct(dump)
    finished = finished_ops(dump)
    missing = {}
    for name, seqs in acked.items():
        required = seqs[-1:] if dump.wrapped else seqs
        gone = [s for s in required if s not in finished.get(name, set())]
        if gone:
            missing[name] = gone
    if missing:
        box["missing_acks"] = missing
    return box, not missing and dump.torn == 0


def _sigkill(config, seed, ops, pert, workdir) -> dict:
    """Start the victim, kill it, recover its journals, check them."""
    names, nprocs = _names(config), config["nprocs"]
    root, acks, ring, spec = (
        os.path.join(workdir, leaf)
        for leaf in ("journal", "acked.log", "flight.ring", "spec.json")
    )
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(dict(config=config, seed=seed, root=root, acked=acks,
                       ring=ring), fh)
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = filter(None, (src, os.environ.get("PYTHONPATH")))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.conformance", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    killed = False
    try:
        # Kill timing starts at READY, so start-up noise never skews it.
        line = proc.stdout.readline()
        if "READY" not in line:
            out, err = proc.communicate(timeout=60)
            raise RuntimeError(f"victim failed: {line!r} {out!r} {err!r}")
        if pert["by"] == "time":
            time.sleep(pert["after"])
        else:
            deadline = time.monotonic() + 60
            while (
                proc.poll() is None
                and time.monotonic() < deadline
                and sum(map(len, _read_acks(acks, names).values()))
                < pert["after"]
            ):
                time.sleep(0.0005)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            killed = True
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - timeout safety net
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        unlink_segments_of(proc.pid)

    acked = _read_acks(acks, names)
    box, box_ok = _blackbox(ring, acked)
    manager = DurabilityManager(root)
    fs = Clusterfile(ClusterConfig())
    recovered = manager.recover_into(fs)
    manager.close()
    stamps = {n: int(recovered.get(n, {}).get("stamp", -1)) for n in names}
    want = _replay(config, ops, stamps)
    files = {}
    for name in names:
        if name not in fs.files:  # nothing was ever committed
            fs.create(name, _cyclic(nprocs, 2 * CHUNK))
        _set_views(fs, name, config)
        views = fs.read(name, [(n, 0, SPAN) for n in range(nprocs)])
        covered = all(a <= stamps[name] for a in acked[name])
        same = _matches(fs, name, views, want[name])
        rec = recovered.get(name, {})
        files[name] = {
            "ok": covered and same, "acked": len(acked[name]),
            "stamp": stamps[name], "writes_in_prefix": sum(
                op.file == name and op.seq <= stamps[name] for op in ops
            ),
            "acked_covered": covered, "byte_identical": same,
            "records_replayed": rec.get("records_replayed", 0),
            "tail_bytes_discarded": rec.get("tail_bytes_discarded", 0),
            "recovery_time_s": rec.get("time_s", 0.0),
        }
    return {
        "victim_mode": line.split()[-1], "killed": killed,
        "acked": {name: len(seqs) for name, seqs in acked.items()},
        "total_acked": sum(map(len, acked.values())), "files": files,
        "blackbox": box, "blackbox_ok": box_ok,
        "ok": box_ok and all(f["ok"] for f in files.values()),
    }


def _victim(spec_path: str) -> int:
    """The victim: serve the stream through a journaled service, log
    every ack, never handle a signal -- the parent's SIGKILL is the
    point.  One waiter thread logs tickets in submission order, each
    only after it resolved (after the group commit covering it), so a
    torn last line is the only artifact a kill leaves in the ack log."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    flightrec.arm(spec["ring"], capacity=4096)
    config = spec["config"]
    manager = DurabilityManager(spec["root"])
    fs = deploy(config, journal=manager)
    svc = FileService(
        fs, workers=2, max_batch=MAX_BATCH, batch_window_s=BATCH_WINDOW_S,
        durability=manager,
    )
    ack_fh = open(spec["acked"], "w", encoding="utf-8")  # before READY
    tickets: Queue = Queue()

    def acker() -> None:
        for ticket in iter(tickets.get, None):
            ticket.result()
            ack_fh.write(f"{ticket.file},{ticket.seq}\n")
            ack_fh.flush()

    waiter = threading.Thread(target=acker, daemon=True)
    waiter.start()
    print("READY", "process" if fs.backend else "thread", flush=True)
    physical = _cyclic(config["nprocs"], 2 * CHUNK)
    for op in stream(config, spec["seed"]):
        if op.snapshot:  # a same-layout re-layout: a checkpoint boundary
            svc.submit_relayout(op.file, physical)
        tickets.put(svc.submit_write(op.file, op.node, op.offset, op.payload))
        time.sleep(OP_DELAY_S)
    svc.drain()
    tickets.put(None)
    waiter.join()
    svc.close()
    manager.close()
    fs.close()
    ack_fh.close()
    print("DONE", flush=True)
    return 0


# -- the driver ---------------------------------------------------------------


def _perturbation(perturbation, config: dict, seed: int) -> dict:
    """The perturbation as JSON, a sigkill target drawn from the seed."""
    if perturbation is None or perturbation == "none":
        return {"kind": "none"}
    if isinstance(perturbation, FaultPlan):
        return {"kind": "faults", "plan": json.loads(perturbation.to_json())}
    pert = dict(perturbation)
    if pert["kind"] not in ("none", "faults", "sigkill"):
        raise ValueError(f"unknown perturbation {pert['kind']!r}")
    if pert["kind"] == "sigkill" and pert.get("after") is None:
        rng = np.random.default_rng(seed ^ 0x5EED)
        pert.setdefault("by", "time")
        if pert["by"] == "acks":
            pert["after"] = int(rng.integers(1, max(2, config["ops"])))
        else:
            expected = config["ops"] * OP_DELAY_S
            pert["after"] = float(rng.uniform(0.02, max(0.05, expected)))
    return pert


def run(config: Optional[dict] = None, seed: int = 0, perturbation=None,
        workdir: Optional[str] = None) -> dict:
    """One conformance run; the report's ``ok`` is the verdict.

    ``perturbation``: ``"none"``, a :class:`FaultPlan`, or a sigkill
    dict (see the module docstring).  A sigkill run works in
    ``workdir`` (a fresh temporary directory when ``None``, removed if
    the run passes; a failing run's report names it as ``workdir``).
    ``metrics`` holds this run's ``faults.*`` and ``durability.*``
    counter deltas, never the process's running totals.
    """
    config = _config(config)
    pert = _perturbation(perturbation, config, seed)
    ops = stream(config, seed)
    before = obs_metrics.snapshot()
    report = {"config": config, "seed": seed, "perturbation": pert}
    if pert["kind"] == "sigkill":
        owned = workdir is None
        workdir = workdir or tempfile.mkdtemp(prefix="repro-conformance-")
        os.makedirs(workdir, exist_ok=True)
        report.update(_sigkill(config, seed, ops, pert, workdir))
        if owned and report["ok"]:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            report["workdir"] = workdir
    else:
        plan = None
        if pert["kind"] == "faults":
            plan = FaultPlan.from_json(json.dumps(pert["plan"]))
        report.update(_in_process(config, ops, plan))
    after = obs_metrics.snapshot()
    report["metrics"] = {
        k: v - before.get(k, 0)
        for k, v in after.items()
        if k.startswith(("faults.", "durability.")) and v != before.get(k, 0)
    }
    return report


def replay(report: dict, workdir: Optional[str] = None) -> dict:
    """Re-run a report (or a failing-run artifact) from its header."""
    return run(
        report["config"], report["seed"], report["perturbation"], workdir
    )


if __name__ == "__main__":
    sys.exit(_victim(sys.argv[1]))
