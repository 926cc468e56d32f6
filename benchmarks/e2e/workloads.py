"""The six workloads: inputs from a seed, one repetition each, byte-checked.

A repetition builds a fresh deployment in a fresh directory, warms it,
runs a fixed number of timed operations and checks every output byte
against :mod:`oracle`.  Service workloads are **closed loops**: each
client thread submits a burst of ``window`` operations, then awaits
those tickets in submission order (a compute-node process blocks on its
own I/O); an operation's latency runs from the start of its
``submit_*`` call to the return of ``ticket.result()``.

Layouts are the plain tuples :mod:`oracle` defines; :func:`partition`
turns one into the ``repro`` partition the program is given.  The
program only ever sees generated inputs, never the seed.
"""

import gc
import os
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracle
from repro.apps.checkpoint import reshard
from repro.clusterfile.fs import Clusterfile
from repro.clusterfile.storage import SharedMemoryStorage
from repro.distributions import (
    BlockCyclic,
    matrix_partition,
    multidim_partition,
    round_robin,
)
from repro.durability import DurabilityManager
from repro.namespace import ClusterNamespace
from repro.obs import flightrec
from repro.obs import metrics as obs_metrics
from repro.redistribution import clear_plan_cache, plan_cache_stats
from repro.service import FileService
from repro.simulation.cluster import ClusterConfig

#: ``--seconds`` at which the op counts below apply unscaled; equals
#: ``run_seconds`` in BENCHMARK.json (checked by the test).
NOMINAL_SECONDS = 10

#: The shared "production" deployment of the service workloads.
CLUSTER = {"compute_nodes": 8, "io_nodes": 4}
SERVICE = {"workers": 2, "max_queue": 64, "max_batch": 8, "admission": "park"}
IO_PROCESSES = 2
#: Shared-memory subfile capacity in process mode: the largest subfile
#: any workload grows is 4 MiB, so 8 MiB leaves headroom without
#: reserving the 64 MiB default sixteen times over in /dev/shm.
SHM_CAPACITY = 8 << 20
FLUSH_POLICY = "DurabilityManager(sync=False): write(2) per commit, no fsync"

KiB, MiB = 1 << 10, 1 << 20


def partition(layout: oracle.Layout):
    """The ``repro`` partition a layout tuple stands for."""
    kind = layout[0]
    if kind == "rr":
        return round_robin(layout[1], layout[2])
    if kind in ("r", "c", "b"):
        return matrix_partition(kind, layout[1], layout[2], layout[3])
    if kind == "bc":
        _, n, k, pr, pc = layout
        return multidim_partition(
            (n, n), 1, (BlockCyclic(k), BlockCyclic(k)), (pr, pc)
        )
    raise ValueError(f"unknown layout {layout!r}")


# --------------------------------------------------------------------------
# Specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    files: int
    physical: oracle.Layout
    view: oracle.Layout
    op_bytes: int
    slots: int  # distinct op-aligned view offsets an op may land on
    clients: Tuple[Tuple[str, float], ...]  # (tenant, WFQ weight)
    window: int  # per client
    warm_ops: int  # per repetition, all clients together
    timed_ops: int
    read_share: float = 0.0
    drawn_targets: bool = False  # file and node from the seed, not i % n
    prefill: bool = False
    process: bool = False
    journaled: bool = True
    kind: str = "service"


@dataclass(frozen=True)
class ColdViewsSpec:
    name: str = "cold_views"
    grids: Tuple[Tuple[int, int], ...] = ((4, 1), (1, 4), (2, 2))
    ks: Tuple[int, ...] = (8, 16, 32, 64)
    ns: Tuple[int, ...] = (256, 320, 384, 448, 512, 576, 640, 768)
    physicals: Tuple[str, ...] = ("r", "c", "b")
    elements: int = 4
    #: Every ``stride``-th pair of the committed list is timed in a
    #: repetition; the pairs one position later warm the process.
    stride: int = 8
    warm_ops: int = 4
    journaled: bool = False
    kind: str = "cold_views"

    def pairs(self) -> List[Tuple[oracle.Layout, oracle.Layout]]:
        """The committed list: 288 structurally distinct (logical,
        physical) pairs, more than the 256-entry plan cache holds."""
        return [
            (("bc", n, k, pr, pc), (ph, n, n, self.elements))
            for (pr, pc) in self.grids
            for k in self.ks
            for n in self.ns
            for ph in self.physicals
        ]


@dataclass(frozen=True)
class ReshardSpec:
    name: str = "reshard"
    side: int = 4096  # a side x side byte matrix: 16 MiB
    elements: int = 4
    ring: Tuple[str, ...] = ("r", "c", "b")
    warm_ops: int = 8
    timed_ops: int = 210
    journaled: bool = False
    kind: str = "reshard"


_LARGE = dict(
    files=2,
    physical=("rr", 8, 64 * KiB),
    view=("rr", 8, MiB),
    op_bytes=MiB,
    slots=4,
    clients=(("default", 1.0),),
    window=8,
    warm_ops=32,
    timed_ops=256,
)

SPECS = {
    "small_write": ServiceSpec(
        name="small_write",
        files=4,
        physical=("rr", 8, 256),
        view=("rr", 8, 256),
        op_bytes=512,
        slots=8,
        clients=(("default", 1.0),),
        window=16,
        warm_ops=256,
        timed_ops=4096,
    ),
    "large_write": ServiceSpec(name="large_write", **_LARGE),
    "large_write_proc": ServiceSpec(
        name="large_write_proc", process=True, **_LARGE
    ),
    "mixed_rw": ServiceSpec(
        name="mixed_rw",
        files=4,
        physical=("c", 1024, 1024, 4),
        view=("r", 1024, 1024, 8),
        op_bytes=16 * KiB,
        slots=8,
        clients=(("t0", 3.0), ("t1", 1.0)),
        window=8,
        warm_ops=128,
        timed_ops=1024,
        read_share=0.7,
        drawn_targets=True,
        prefill=True,
    ),
    "cold_views": ColdViewsSpec(),
    "reshard": ReshardSpec(),
}

WORKLOADS = tuple(SPECS)


def scaled(count: int, scale: float, multiple: int = 1) -> int:
    """An op count under ``--scale``: at least one ``multiple``."""
    n = int(round(count * scale))
    return max(multiple, n - n % multiple)


def _rng(seed: int, name: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *extra])


# --------------------------------------------------------------------------
# Service workloads
# --------------------------------------------------------------------------

_POOL = 8  # distinct payload buffers per client


def _path(j: int) -> str:
    return f"/bench/f{j}"


@dataclass
class Stream:
    """One client's operations, generated up front."""

    tenant: str
    client: int
    path: List[str]
    node: List[int]
    offset: List[int]
    is_read: List[bool]
    pool: List[np.ndarray]  # pre-allocated payload buffers
    pick: List[int]  # pool index per op
    nbytes: int
    # filled by the drive loop
    t_submit: List[float] = field(default_factory=list)
    t_admitted: List[float] = field(default_factory=list)
    t_done: List[float] = field(default_factory=list)
    ticket: List[object] = field(default_factory=list)
    result: List[object] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.node)

    def stamp(self, i: int) -> np.ndarray:
        """Eight bytes unique to op ``i``, written over the head of its
        payload so two writes never carry equal bytes: a reordered or
        lost write cannot hide behind an identical neighbour."""
        return np.frombuffer(
            ((self.client << 40) | (i + 1)).to_bytes(8, "little"), np.uint8
        )

    def payload(self, i: int) -> np.ndarray:
        """The bytes op ``i`` wrote (oracle side)."""
        buf = self.pool[self.pick[i]].copy()
        buf[:8] = self.stamp(i)
        return buf


def make_streams(
    spec: ServiceSpec, seed: int, rep: int, scale: float
) -> Tuple[List[Stream], int, int]:
    """Per-client op streams for one repetition, and the per-client
    warm-up and timed op counts."""
    nclients = len(spec.clients)
    warm = scaled(spec.warm_ops // nclients, scale, spec.window)
    timed = scaled(spec.timed_ops // nclients, scale, spec.window)
    total = warm + timed
    streams = []
    for c, (tenant, _weight) in enumerate(spec.clients):
        rng = _rng(seed, spec.name, rep, c)
        idx = np.arange(total)
        if spec.drawn_targets:
            file = rng.integers(0, spec.files, total)
            node = rng.integers(0, CLUSTER["compute_nodes"], total)
        else:
            file = idx % spec.files
            node = idx % CLUSTER["compute_nodes"]
        offset = rng.integers(0, spec.slots, total) * spec.op_bytes
        is_read = rng.random(total) < spec.read_share
        streams.append(Stream(
            tenant=tenant,
            client=c,
            path=[_path(j) for j in file.tolist()],
            node=node.tolist(),
            offset=offset.tolist(),
            is_read=is_read.tolist(),
            pool=[
                rng.integers(0, 256, spec.op_bytes, dtype=np.uint8)
                for _ in range(_POOL)
            ],
            pick=rng.integers(0, _POOL, total).tolist(),
            nbytes=spec.op_bytes,
        ))
    return streams, warm, timed


def drive(svc: FileService, st: Stream, lo: int, hi: int, window: int) -> None:
    """The closed loop for ops ``[lo, hi)`` of one client."""
    now = time.perf_counter
    submit_write, submit_read = svc.submit_write, svc.submit_read
    for base in range(lo, hi, window):
        top = min(hi, base + window)
        for i in range(base, top):
            if st.is_read[i]:
                t0 = now()
                tk = submit_read(
                    st.path[i], st.node[i], st.offset[i], st.nbytes,
                    tenant=st.tenant,
                )
            else:
                buf = st.pool[st.pick[i]]
                buf[:8] = st.stamp(i)
                t0 = now()
                tk = submit_write(
                    st.path[i], st.node[i], st.offset[i], buf,
                    tenant=st.tenant,
                )
            st.t_admitted.append(now())
            st.t_submit.append(t0)
            st.ticket.append(tk)
        for i in range(base, top):
            try:
                value = st.ticket[i].result(timeout=120)
            except Exception as exc:  # a failed op is counted, not fatal
                value = exc
            st.t_done.append(now())
            st.result.append(value)


def run_clients(svc: FileService, streams: List[Stream], lo: int, hi: int,
                window: int) -> float:
    """Run every client's closed loop over ``[lo, hi)``; returns the
    wall time from the common start to the last client's finish."""
    if len(streams) == 1:
        t0 = time.perf_counter()
        drive(svc, streams[0], lo, hi, window)
        return time.perf_counter() - t0
    start = threading.Barrier(len(streams) + 1)
    errors: List[BaseException] = []

    def client(st: Stream) -> None:
        start.wait()
        try:
            drive(svc, st, lo, hi, window)
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(st,), name=f"client-{st.client}")
        for st in streams
    ]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall


@dataclass
class Deployment:
    fs: Clusterfile
    cns: ClusterNamespace
    svc: FileService
    dm: Optional[DurabilityManager]
    paths: List[str]
    backing: List[str]  # Clusterfile name behind each path


def build_deployment(spec: ServiceSpec, root: str, durability: bool,
                     obs: bool) -> Deployment:
    if obs:
        flightrec.arm(os.path.join(root, "flight.ring"))
    obs_metrics.set_stage_histograms(obs)
    dm = (
        DurabilityManager(os.path.join(root, "journal"), sync=False)
        if durability else None
    )
    fs = Clusterfile(
        ClusterConfig(**CLUSTER),
        storage=SharedMemoryStorage(SHM_CAPACITY) if spec.process else None,
    )
    cns = ClusterNamespace(fs, durability=dm)
    physical, view = partition(spec.physical), partition(spec.view)
    paths = [_path(j) for j in range(spec.files)]
    for path in paths:
        cns.create(path, physical, parents=True)
        for node in range(CLUSTER["compute_nodes"]):
            cns.set_view(path, node, view)
    svc = FileService(
        fs,
        namespace=cns,
        durability=dm,
        tenant_weights=dict(spec.clients),
        workers_mode="process" if spec.process else "thread",
        io_processes=IO_PROCESSES if spec.process else None,
        **SERVICE,
    )
    backing = [cns.locate(p)[0] for p in paths]
    return Deployment(fs, cns, svc, dm, paths, backing)


def close_deployment(dep: Deployment) -> None:
    dep.svc.close()
    if dep.dm is not None:
        dep.dm.close()
    if dep.cns.nslog is not None:
        dep.cns.nslog.close()
    dep.fs.close()
    flightrec.disarm()
    obs_metrics.set_stage_histograms(True)


def _prefill(dep: Deployment, spec: ServiceSpec, seed: int, rep: int):
    """Fill every file completely through the service (journaled like
    any other write); returns oracle ops per file."""
    rng = _rng(seed, spec.name, rep, 99)
    per_view = oracle.period(spec.view) // CLUSTER["compute_nodes"]
    ops: Dict[int, list] = {j: [] for j in range(spec.files)}
    for j, path in enumerate(dep.paths):
        for node in range(CLUSTER["compute_nodes"]):
            data = rng.integers(0, 256, per_view, dtype=np.uint8)
            tk = dep.svc.submit_write(path, node, 0, data,
                                      tenant=spec.clients[0][0])
            tk.result(timeout=120)
            ops[j].append((tk.seq, "write", node, 0, data))
    return ops


def _disk_bytes(root: str) -> int:
    total = 0
    for base, _dirs, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(base, name))
    return total


#: Files with a larger expected image are checked through view reads
#: instead of ``linear_contents``, which costs ~1.6 s per 32 MiB file
#: per call on the reference box and would quadruple ``large_write``.
LINEAR_CHECK_MAX = 4 * MiB


def _check_files(spec: ServiceSpec, fs: Clusterfile, backing: List[str],
                 images, failures: List[str], when: str) -> int:
    """Compare every file's stored bytes with its expected image;
    returns the number of files that differ.

    Small files: ``linear_contents`` against the whole image.  Large
    files: every view range an op can touch, read back through the
    engine's read path and compared run by run."""
    bad = 0
    nodes = range(CLUSTER["compute_nodes"])
    for j, image in images.items():
        name = backing[j]
        if image.data.size <= LINEAR_CHECK_MAX:
            n = oracle.mismatched_bytes(image.data, fs.linear_contents(name))
        else:
            n = 0
            for slot in range(spec.slots):
                off = slot * spec.op_bytes
                got = fs.read(name, [(e, off, spec.op_bytes) for e in nodes])
                n += sum(
                    oracle.mismatched_bytes(
                        image.read(e, off, spec.op_bytes), got[e]
                    )
                    for e in nodes
                )
        if n:
            bad += 1
            failures.append(f"{spec.name}: file {j} {when}: {n} bytes differ")
    return bad


_COUNT_PROBES = {
    "ioserver_ctor": "clusterfile.ioserver_ctor",
    "journal_flushes": "durability.journal_flush",
}


def _open_window(recorder) -> dict:
    """Where the probe log stands as the timed loop starts."""
    if recorder is None:
        return {}
    return {
        "mark": recorder.mark(),
        **{k: recorder.count(p) for k, p in _COUNT_PROBES.items()},
    }


def _close_window(recorder, opened: dict) -> dict:
    """What the probes saw during the timed loop."""
    if recorder is None:
        return {}
    return {
        "mark": (opened["mark"], recorder.mark()),
        **{k: recorder.count(p) - opened[k] for k, p in _COUNT_PROBES.items()},
    }


def run_service_rep(
    spec: ServiceSpec,
    seed: int,
    rep: int,
    scale: float,
    root: str,
    durability: bool = True,
    obs: bool = True,
    recover: bool = False,
    recorder=None,
    corrupt: bool = False,
) -> dict:
    """One repetition of a service workload.

    ``recover`` adds the restart: after the last ack and the shutdown, a
    fresh deployment recovers the journal (timed, then byte-checked).
    ``recorder`` (a :class:`probes.Recorder`, already installed) marks a
    traced repetition; its probes are removed before the restart.
    ``corrupt`` flips one stored byte before the checks (the test of the
    oracle itself)."""
    t_setup = time.perf_counter()
    clear_plan_cache()
    obs_metrics.reset_metrics()
    os.makedirs(root)
    dep = build_deployment(spec, root, durability, obs)
    out: dict = {"failures": []}
    try:
        streams, warm, timed = make_streams(spec, seed, rep, scale)
        file_ops = (
            _prefill(dep, spec, seed, rep) if spec.prefill
            else {j: [] for j in range(spec.files)}
        )
        run_clients(dep.svc, streams, 0, warm, spec.window)
        out["setup_s"] = time.perf_counter() - t_setup

        rec = flightrec.active()
        registry = obs_metrics.get_registry()

        def observes() -> int:
            return sum(h.count for h in registry.histograms().values())

        counters0 = obs_metrics.snapshot()
        events0 = rec.events if rec is not None else 0
        observes0 = observes()
        window = _open_window(recorder)
        gc.collect()
        gc.disable()
        try:
            wall = run_clients(dep.svc, streams, warm, warm + timed,
                               spec.window)
        finally:
            gc.enable()
        out["counters"] = {
            k: v - counters0.get(k, 0)
            for k, v in obs_metrics.snapshot().items()
        }
        out["flightrec_events"] = (
            rec.events - events0 if rec is not None else 0
        )
        out["hist_observes"] = observes() - observes0
        out.update(_close_window(recorder, window))
        if (registry.histogram("service.queue_depth").max
                >= SERVICE["max_queue"]):
            # the closed loops never have max_queue ops outstanding, so
            # no submit can have parked; say so if that stops being true
            out["failures"].append(
                f"{spec.name}: queue depth reached max_queue: a submit "
                f"may have parked"
            )
        if not dep.svc.drain(timeout=120):
            out["failures"].append(f"{spec.name}: service did not drain")

        nclients = len(streams)
        ops = timed * nclients
        out.update(
            ops=ops, wall_s=wall, warm=warm, streams=streams,
            payload_bytes=spec.op_bytes, plan_cache=plan_cache_stats(),
        )
        lat = np.concatenate([
            np.subtract(st.t_done[warm:], st.t_submit[warm:]) for st in streams
        ]) * 1e6
        out["lat_us"] = lat

        # -- oracle: replay per file in ticket order, check every read ------
        failed = 0
        prefilled = sum(len(per_file) for per_file in file_ops.values())
        user_bytes = sum(
            o[4].size for per_file in file_ops.values() for o in per_file
        )
        file_of = {name: j for j, name in enumerate(dep.backing)}
        for st in streams:
            for i in range(len(st)):
                value, tk = st.result[i], st.ticket[i]
                if isinstance(value, BaseException):
                    failed += 1
                    out["failures"].append(
                        f"{spec.name}: op {st.client}/{i} failed: {value!r}"
                    )
                    continue
                j = file_of[tk.file]
                if st.is_read[i]:
                    file_ops[j].append(
                        (tk.seq, "read", st.node[i], st.offset[i], value)
                    )
                else:
                    user_bytes += st.nbytes
                    file_ops[j].append((
                        tk.seq, "write", st.node[i], st.offset[i],
                        (lambda st=st, i=i: st.payload(i)),
                    ))
        images, reads_checked = {}, 0
        for j, per_file in file_ops.items():
            images[j], checked, bad = oracle.replay(spec.view, per_file)
            reads_checked += checked
            if bad:
                failed += bad
                out["failures"].append(
                    f"{spec.name}: file {j}: {bad} reads returned wrong bytes"
                )
        if corrupt:
            store = dep.fs.open(dep.backing[0]).stores[0]
            store.view(0, 0)[0] ^= 0xFF
        failed += _check_files(
            spec, dep.fs, dep.backing, images, out["failures"], "after the run"
        )
        out["attempted"] = (warm + timed) * nclients + prefilled
        if durability:
            out["journal_amp"] = _disk_bytes(dep.dm.root) / user_bytes
        out["fsync"] = bool(dep.dm.sync) if dep.dm is not None else False
    finally:
        close_deployment(dep)

    if recorder is not None:
        recorder.remove()
    checks = 1
    if durability and recover:
        # -- restart: recover the journal into a fresh deployment ------------
        fs2 = Clusterfile(ClusterConfig(**CLUSTER))
        dm2 = DurabilityManager(os.path.join(root, "journal"), sync=False)
        try:
            t0 = time.perf_counter()
            cns2, report = ClusterNamespace.recover(fs2, dm2)
            out["recover_s"] = time.perf_counter() - t0
            out["records_replayed"] = sum(
                int(r["records_replayed"]) for r in report["files"].values()
            )
            view = partition(spec.view)
            for path in dep.paths:  # views are not durable state
                for node in range(CLUSTER["compute_nodes"]):
                    cns2.set_view(path, node, view)
            failed += _check_files(
                spec, fs2, dep.backing, images, out["failures"],
                "after recovery",
            )
            checks = 2
            cns2.nslog.close()
        finally:
            dm2.close()
            fs2.close()
    shutil.rmtree(root)
    out["failed"] = failed
    out["oracle_checks"] = reads_checked + len(images) * checks
    return out


# --------------------------------------------------------------------------
# cold_views
# --------------------------------------------------------------------------


def run_cold_views_rep(spec: ColdViewsSpec, seed: int, rep: int, scale: float,
                       recorder=None, corrupt: bool = False) -> dict:
    t_setup = time.perf_counter()
    clear_plan_cache()
    obs_metrics.reset_metrics()
    pairs = spec.pairs()
    stride = max(1, int(round(spec.stride / scale)))
    timed_pairs = pairs[0::stride]
    warm_pairs = pairs[1::stride][: spec.warm_ops]
    rng = _rng(seed, spec.name, rep)
    data = rng.integers(0, 256, max(spec.ns) ** 2, dtype=np.uint8)

    def prepare(pair):
        logical, physical = pair
        size = oracle.period(logical)
        return (
            partition(logical), partition(physical), size,
            oracle.split(data[:size], logical, spec.elements),
        )

    def op(lg, ph, size, pieces):
        fs = Clusterfile(ClusterConfig(**CLUSTER))
        fs.create("m", ph)
        for e in range(spec.elements):
            fs.set_view("m", e, lg)
        fs.write("m", [(e, 0, pieces[e]) for e in range(spec.elements)])
        return fs.linear_contents("m")

    prepared = [prepare(p) for p in timed_pairs]
    for p in warm_pairs:
        op(*prepare(p))
    out: dict = {"failures": [], "setup_s": time.perf_counter() - t_setup}
    window = _open_window(recorder)
    before = obs_metrics.snapshot()
    stats0 = plan_cache_stats()
    lat, results = [], []
    gc.collect()
    gc.disable()
    try:
        t_loop = time.perf_counter()
        for args in prepared:
            t0 = time.perf_counter()
            results.append(op(*args))
            lat.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_loop
    finally:
        gc.enable()
    after, stats1 = obs_metrics.snapshot(), plan_cache_stats()
    out.update(_close_window(recorder, window))
    if corrupt:
        results[0][0] ^= 0xFF
    failed = 0
    for (_lg, _ph, size, _pieces), got, pair in zip(
        prepared, results, timed_pairs
    ):
        n = oracle.mismatched_bytes(data[:size], got)
        if n:
            failed += 1
            out["failures"].append(f"cold_views {pair}: {n} bytes differ")
    ops = len(prepared)
    out.update(
        ops=ops, wall_s=wall, lat_us=np.asarray(lat) * 1e6, failed=failed,
        attempted=ops, oracle_checks=ops,
        payload_bytes=int(np.mean([p[2] for p in prepared])),
        counters={k: v - before.get(k, 0) for k, v in after.items()},
        plan_cache={k: stats1[k] - stats0[k] for k in ("hits", "misses")},
        pairs_in_list=len(pairs),
        plan_cache_capacity=stats1["capacity"],
    )
    # Cold by construction and checked: every op built its own plan, and
    # the only hits are its three sibling views.
    if out["plan_cache"]["misses"] != ops:
        out["failures"].append(
            f"cold_views: {out['plan_cache']['misses']} plan builds for "
            f"{ops} ops — a plan was served from cache across ops"
        )
        out["failed"] += 1
    return out


# --------------------------------------------------------------------------
# reshard
# --------------------------------------------------------------------------


def run_reshard_rep(spec: ReshardSpec, seed: int, rep: int, scale: float,
                    recorder=None, corrupt: bool = False) -> dict:
    t_setup = time.perf_counter()
    clear_plan_cache()
    obs_metrics.reset_metrics()
    size = spec.side * spec.side
    layouts = [(c, spec.side, spec.side, spec.elements) for c in spec.ring]
    parts = [partition(layout) for layout in layouts]
    data = _rng(seed, spec.name, rep).integers(0, 256, size, dtype=np.uint8)
    pieces = oracle.split(data, layouts[0], spec.elements)
    warm = scaled(spec.warm_ops, scale)
    timed = scaled(spec.timed_ops, scale)
    hop = 0

    def step():
        nonlocal pieces, hop
        src, dst = parts[hop % len(parts)], parts[(hop + 1) % len(parts)]
        pieces = reshard(pieces, src, dst, size)
        hop += 1

    for _ in range(warm):
        step()
    out: dict = {"failures": [], "setup_s": time.perf_counter() - t_setup}
    window = _open_window(recorder)
    before, stats0 = obs_metrics.snapshot(), plan_cache_stats()
    lat = []
    gc.collect()
    gc.disable()
    try:
        t_loop = time.perf_counter()
        for _ in range(timed):
            t0 = time.perf_counter()
            step()
            lat.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_loop
    finally:
        gc.enable()
    after, stats1 = obs_metrics.snapshot(), plan_cache_stats()
    out.update(_close_window(recorder, window))
    if corrupt:
        pieces[0][0] ^= 0xFF
    got = oracle.assemble(pieces, layouts[hop % len(layouts)], size)
    n = oracle.mismatched_bytes(data, got)
    if n:
        out["failures"].append(f"reshard: {n} bytes differ after {hop} hops")
    out.update(
        ops=timed, wall_s=wall, lat_us=np.asarray(lat) * 1e6,
        failed=1 if n else 0, attempted=warm + timed, oracle_checks=1,
        payload_bytes=size,
        counters={k: v - before.get(k, 0) for k, v in after.items()},
        plan_cache={k: stats1[k] - stats0[k] for k in ("hits", "misses")},
    )
    return out


def run_rep(name: str, seed: int, rep: int, scale: float, root: str,
            **kwargs) -> dict:
    """One repetition of the named workload."""
    spec = SPECS[name]
    if spec.kind == "service":
        return run_service_rep(spec, seed, rep, scale, root, **kwargs)
    for service_only in ("durability", "obs", "recover"):
        kwargs.pop(service_only, None)
    if spec.kind == "cold_views":
        return run_cold_views_rep(spec, seed, rep, scale, **kwargs)
    return run_reshard_rep(spec, seed, rep, scale, **kwargs)
