"""A persistent pool of I/O-node worker processes.

:class:`ProcessPoolExecutorBackend` turns the engine's server-side work
— the projection scatters/gathers, checksum verification and disk-head
cost modelling of :class:`~repro.clusterfile.server.IOServer` — into
real multi-core execution.  Each worker process owns a **contiguous
range of subfiles** (``worker_for``), attaches their shared-memory
stores (primaries and mirrors) by name, and keeps its own
:class:`~repro.simulation.cluster.Cluster` replica for the device cost
models, so device state (disk-head position) evolves deterministically
inside the owning worker — per subfile owner, not per cluster: a mirror
is served by the worker that owns its subfile, so under replication two
workers can each track a head for the same I/O node.  Workers run the same
:func:`~repro.clusterfile.server.serve_request` loop the engine runs
in-process; fault decisions stay with the parent, which ships each
job's payload (already corrupted, if that is its fate), checksum and
slow-disk factors.  Memory-to-memory redistributions (collective
shuffles, resharding) never reach the pool: no subfile store is
involved, and the parent's plan executor already moves each byte with
one read and one write, which shipping it to a worker could only add
to.

Plumbing per worker: one command ring (parent -> worker) and one result
ring (worker -> parent), both :class:`~repro.mp.shm.ShmRing`, carrying
small pickles only.  Bulk payloads move through the pool-wide
:class:`~repro.mp.transport.SharedMemoryTransport` — parent is rank 0,
worker ``w`` is rank ``w + 1`` — as packed all-to-all rounds: the
parent packs every message payload for a worker contiguously (counts ->
displacements), the worker does one bulk copy per round, and read
replies travel the same way in reverse.  No per-segment message objects
cross a process boundary.

Observability crosses the boundary too: every batch runs under a
worker-local span tree (``mp.worker`` root, ``server.write`` /
``server.read`` children carrying the usual ``cache_s`` / ``disk_s``
attributes) serialized back with the results, and the worker's counter
*deltas* are folded into the parent registry — ``tools trace`` and the
``/stats`` endpoint see one coherent picture.

Crash semantics: the parent owns every shared-memory segment (workers
only attach), so cleanup never depends on a worker exiting gracefully.
A worker death mid-exchange surfaces as :class:`WorkerCrashed` via the
transport's liveness checks; :meth:`close` (idempotent, also run at
interpreter exit) terminates survivors and unlinks all segments.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .shm import ShmRing, TransportError
from .transport import DEFAULT_REGION_BYTES, SharedMemoryTransport

__all__ = ["ProcessPoolExecutorBackend", "WorkerCrashed"]

DEFAULT_RING_BYTES = 4 << 20


class WorkerCrashed(TransportError):
    """A pool worker died while the parent was waiting on it."""


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _attach_store(cache: Dict[str, object], name: str, subfile: int,
                  capacity: int):
    store = cache.get(name)
    if store is None:
        from ..clusterfile.storage import SharedMemoryStore

        store = cache[name] = SharedMemoryStore.attach(name, subfile, capacity)
        if len(cache) > 1024:  # relayout churns store names; bound the map
            oldest = next(iter(cache))
            cache.pop(oldest).close()  # type: ignore[union-attr]
    return store


def _worker_main(worker_id: int, cfg_bytes: bytes, transport_handle,
                 cmd_name: str, res_name: str,
                 flight_path: Optional[str] = None) -> None:
    """The worker process entry point: a command loop until shutdown."""
    from contextlib import nullcontext

    from ..clusterfile.server import IOServer, serve_request
    from ..obs import flightrec
    from ..obs import metrics as obs_metrics
    from ..obs.export import span_to_dict
    from ..obs.span import Tracer, open_span
    from ..simulation.cluster import Cluster
    from . import shm as shm_mod

    # A forked child inherits the parent's segment-ownership registry;
    # drop it so this process never unlinks segments it does not own.
    shm_mod._OWNED.clear()
    shm_mod._ATTACHED.clear()

    # Same for the flight recorder: the inherited mapping belongs to the
    # parent (two writers with independent sequence counters would
    # corrupt one ring).  Each worker gets its *own* per-process ring —
    # a worker SIGKILL leaves its own decodable last words.
    if flight_path is not None:
        flightrec.arm(flight_path, capacity=1024)
    else:
        flightrec.disarm()

    rank = worker_id + 1
    parent = multiprocessing.parent_process()

    def parent_alive() -> bool:
        return parent is None or parent.is_alive()

    cmd_ring = ShmRing.attach(cmd_name)
    res_ring = ShmRing.attach(res_name)
    transport = SharedMemoryTransport.from_handle(transport_handle)
    cluster = Cluster(pickle.loads(cfg_bytes))
    stores: Dict[str, object] = {}

    def payload_slices(jobs, block: np.ndarray) -> List[np.ndarray]:
        """Split the packed per-worker block back into per-job payloads
        (one bulk copy already happened inside the transport)."""
        out, off = [], 0
        for job in jobs:
            n = int(job["nbytes"])
            out.append(block[off : off + n])
            off += n
        return out

    def serve(op, job, payload, disk):
        """One job through the engine's own server loop
        (:func:`~repro.clusterfile.server.serve_request`) on the
        replica stores the job names — primary or mirror."""
        replicas = [
            (
                r,
                IOServer(
                    cluster.io[io_node],
                    _attach_store(stores, name, job["subfile"], capacity),
                    cluster.config,
                ),
                disk_factor,
            )
            for r, io_node, disk_factor, name, capacity in job["replicas"]
        ]
        return serve_request(
            op, replicas, job["l_s"], job["r_s"],
            (job["starts"], job["lengths"]), payload, disk,
            job["crc"], job["attempt"],
        )

    while True:
        try:
            cmd = pickle.loads(
                cmd_ring.recv(timeout=None, liveness=parent_alive)
            )
        except TransportError:
            break  # parent died or tore the ring down: exit quietly
        op = cmd["op"]
        if op == "shutdown":
            break
        if op == "ping":
            res_ring.send(pickle.dumps({"ok": True, "pid": os.getpid()}))
            continue

        jobs = cmd.get("jobs", ())
        # Span trees are only built (and shipped home) when the parent
        # actually has a trace open; otherwise the batch runs span-free
        # and the result frame stays small.
        tracer = Tracer()
        ctx = tracer.activate() if cmd.get("trace") else nullcontext()
        before = obs_metrics.snapshot()
        result: dict = {"ok": True}
        try:
            with ctx:
                with open_span(
                    "mp.worker", worker=worker_id, pid=os.getpid(), op=op,
                    jobs=len(jobs),
                ):
                    if op == "write":
                        inbox = transport.alltoallv(rank, [],
                                                    liveness=parent_alive)
                        payloads = payload_slices(jobs, inbox[0])
                        result["costs"] = [
                            serve(op, job, payload, cmd["to_disk"])[0]
                            for job, payload in zip(jobs, payloads)
                        ]
                    elif op == "read":
                        # The exchange round comes *after* the per-job
                        # work, so a failing job must not abort the
                        # batch early: capture the error, keep the frame
                        # alignment with a zero-length payload, and join
                        # the round — peers are spinning in the barrier.
                        outbox = []
                        costs = []
                        job_error = None
                        for job in jobs:
                            try:
                                cost, payload = serve(
                                    op, job, None, cmd["from_disk"]
                                )
                            except Exception:
                                job_error = traceback.format_exc()
                                payload = np.empty(0, dtype=np.uint8)
                                cost = []
                            outbox.append((0, payload))
                            costs.append(cost)
                        transport.alltoallv(rank, outbox,
                                            liveness=parent_alive)
                        if job_error is not None:
                            raise TransportError(job_error)
                        result["costs"] = costs
                    else:  # pragma: no cover - protocol guard
                        raise TransportError(f"unknown command {op!r}")
            obs_metrics.inc("mp.worker.batches")
            obs_metrics.inc("mp.worker.jobs", len(jobs))
        except Exception:
            result = {"ok": False, "error": traceback.format_exc()}
        after = obs_metrics.snapshot()
        result["counters"] = {
            k: after[k] - before.get(k, 0)
            for k in after
            if after[k] != before.get(k, 0)
        }
        if tracer.roots:
            result["span"] = span_to_dict(tracer.roots[0])
        try:
            res_ring.send(pickle.dumps(result), liveness=parent_alive)
        except TransportError:
            break
    cmd_ring.close()
    res_ring.close()
    transport.close()
    for store in stores.values():
        store.close()  # type: ignore[union-attr]


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


class ProcessPoolExecutorBackend:
    """A persistent process pool executing the engine's I/O-node work.

    Construct once (workers fork at construction; keep it early in the
    program's life), attach to a :class:`~repro.clusterfile.fs.
    Clusterfile` built on :class:`~repro.clusterfile.storage.
    SharedMemoryStorage`, and the engine serves every round of its
    write/read operations on the workers.  ``lock``
    serialises operations through the pool — the parallelism is *within*
    an operation, across subfiles.
    """

    def __init__(
        self,
        processes: int = 4,
        config=None,
        region_bytes: int = DEFAULT_REGION_BYTES,
        ring_bytes: int = DEFAULT_RING_BYTES,
        start_method: Optional[str] = None,
        flightrec_base: Optional[str] = None,
    ):
        if processes < 1:
            raise ValueError(f"need >= 1 worker process, got {processes}")
        if config is None:
            from ..simulation.cluster import ClusterConfig

            config = ClusterConfig()
        self.processes = processes
        self.config = config
        self.lock = threading.Lock()
        self.closed = False
        self._broken: Optional[str] = None
        self.transport = SharedMemoryTransport(processes + 1, region_bytes)
        self._cmd_rings: List[ShmRing] = []
        self._res_rings: List[ShmRing] = []
        self._procs: List[multiprocessing.process.BaseProcess] = []
        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START", "fork")
        if start_method not in multiprocessing.get_all_start_methods():
            start_method = "spawn"
        ctx = multiprocessing.get_context(start_method)
        cfg_bytes = pickle.dumps(config)
        handle = self.transport.handle()
        # Workers record into sibling rings of the parent's: a pool
        # built in a process with an armed flight recorder at
        # ``ring.bin`` gives worker ``w`` its own ``ring.bin.w<w>``.
        if flightrec_base is None:
            from ..obs import flightrec as _flightrec

            armed = _flightrec.active()
            flightrec_base = armed.path if armed is not None else None
        try:
            for w in range(processes):
                cmd = ShmRing.create(ring_bytes, f"c{w}")
                res = ShmRing.create(ring_bytes, f"r{w}")
                self._cmd_rings.append(cmd)
                self._res_rings.append(res)
                wring = (
                    f"{flightrec_base}.w{w}"
                    if flightrec_base is not None
                    else None
                )
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, cfg_bytes, handle, cmd.name, res.name, wring),
                    daemon=True,
                    name=f"repro-io-worker-{w}",
                )
                proc.start()
                self._procs.append(proc)
            for w in range(processes):  # handshake: workers are up
                self._send(w, {"op": "ping"})
                self._recv(w, timeout=30.0)
        except BaseException:
            self.close()
            raise

    # -- topology ------------------------------------------------------------

    def worker_for(self, subfile: int, num_subfiles: int) -> int:
        """The worker owning a subfile: contiguous balanced blocks."""
        if num_subfiles <= 0:
            return 0
        return min(
            subfile * self.processes // num_subfiles, self.processes - 1
        )

    def _alive(self) -> bool:
        return all(p.is_alive() for p in self._procs)

    # -- control plane -------------------------------------------------------

    def _check_usable(self) -> None:
        if self._broken:  # before the closed check: breaking closes too
            raise WorkerCrashed(self._broken)
        if self.closed:
            raise TransportError("process pool is closed")

    def _send(self, w: int, cmd: dict) -> None:
        self._cmd_rings[w].send(pickle.dumps(cmd), liveness=self._alive)

    def _recv(self, w: int, timeout: float = 60.0) -> dict:
        try:
            raw = self._res_rings[w].recv(timeout=timeout,
                                          liveness=self._alive)
        except TransportError:
            self._mark_broken(w)
            raise
        return pickle.loads(raw)

    def _mark_broken(self, w: int) -> None:
        dead = [i for i, p in enumerate(self._procs) if not p.is_alive()]
        from ..obs import flightrec

        rec = flightrec.active()
        if rec is not None:
            for i in dead or [w]:
                rec.record(
                    flightrec.EV_WORKER_CRASH,
                    a=i if i >= 0 else 0xFFFFFFFF,
                )
        self._broken = (
            f"worker(s) {dead or [w]} died; pool shut down and all "
            f"shared-memory segments unlinked"
        )
        self.close()

    @staticmethod
    def _tracing(root) -> bool:
        """Whether worker span trees are worth building and shipping:
        only when the parent op span is actually being collected."""
        from ..obs.span import span_retained

        return root is not None and span_retained()

    def _collect(self, root=None) -> List[dict]:
        """Gather one result per worker; fold spans and counter deltas
        into the parent's trace/registry; surface worker errors."""
        from ..obs import metrics as obs_metrics
        from ..obs.export import span_from_dict

        results = [self._recv(w) for w in range(self.processes)]
        errors = [r["error"] for r in results if not r.get("ok")]
        for r in results:
            for name, delta in r.get("counters", {}).items():
                if delta > 0:
                    obs_metrics.inc(name, delta)
            if root is not None and "span" in r:
                root.children.append(span_from_dict(r["span"]))
        if errors:
            raise TransportError(
                "worker batch failed:\n" + "\n".join(errors)
            )
        return results

    # -- exchanges (caller holds ``self.lock``) -------------------------------

    def exchange_write(
        self,
        jobs: Sequence[Sequence[dict]],
        outbox: Sequence[Tuple[int, np.ndarray]],
        to_disk: bool,
        root=None,
    ) -> List[dict]:
        """Dispatch per-worker write batches; payloads go out in one
        packed all-to-all round; per-job costs come back on the rings."""
        self._check_usable()
        try:
            trace = self._tracing(root)
            for w in range(self.processes):
                self._send(w, {"op": "write", "jobs": list(jobs[w]),
                               "to_disk": to_disk, "trace": trace})
            self.transport.alltoallv(0, outbox, liveness=self._alive)
            return self._collect(root)
        except WorkerCrashed:
            raise
        except TransportError:
            if not self._alive():
                self._mark_broken(-1)
                self._check_usable()
            raise

    def exchange_read(
        self,
        jobs: Sequence[Sequence[dict]],
        from_disk: bool,
        root=None,
    ) -> Tuple[List[dict], List[np.ndarray]]:
        """Dispatch read batches; reply payloads arrive packed, one
        contiguous block per worker (``inbox[w + 1]``)."""
        self._check_usable()
        try:
            trace = self._tracing(root)
            for w in range(self.processes):
                self._send(w, {"op": "read", "jobs": list(jobs[w]),
                               "from_disk": from_disk, "trace": trace})
            inbox = self.transport.alltoallv(0, [], liveness=self._alive)
            return self._collect(root), inbox
        except WorkerCrashed:
            raise
        except TransportError:
            if not self._alive():
                self._mark_broken(-1)
                self._check_usable()
            raise

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and unlink every pool segment.  Idempotent;
        also reached from the shm module's exit hook via segment
        ownership, so a crash cannot leak shared memory."""
        if self.closed:
            return
        self.closed = True
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._cmd_rings[w].send(
                        pickle.dumps({"op": "shutdown"}), timeout=0.5
                    )
                except TransportError:
                    pass
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for ring in self._cmd_rings + self._res_rings:
            ring.close()
        self.transport.close()

    def __enter__(self) -> "ProcessPoolExecutorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(timeout=0.5)
        except Exception:
            pass
