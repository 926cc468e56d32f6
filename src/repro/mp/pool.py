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

Plumbing per worker: one duplex pipe and one shared-memory **slab**,
both owned by the parent.  A round sends one pickled command, only to
the workers that have jobs in it; every job names its ``off`` and
``nbytes`` in that worker's slab (counts -> displacements).  A write
round's payloads are packed into the slab by the parent and scattered
by the worker straight from slab views; a read round's replies are
written at the job offsets by the worker and copied out by the parent.
A slab grows (never shrinks) to the next power of two when a round
needs more than it holds; its name travels in the command, so the
worker re-attaches only when it changes.

Observability crosses the boundary too: every batch runs under a
worker-local span tree (``mp.worker`` root, ``server.write`` /
``server.read`` children carrying the usual ``cache_s`` / ``disk_s``
attributes) pickled back with the results, and the worker's counter
*deltas* are folded into the parent registry — ``tools trace`` and the
``/stats`` endpoint see one coherent picture.

Crash semantics: the parent owns every shared-memory segment (workers
only attach), so cleanup never depends on a worker exiting gracefully.
The parent waits on a worker's pipe and its process sentinel together:
a dead worker is :class:`WorkerCrashed` at once, a silent one a
:class:`TransportError` at the timeout, and either shuts the pool down.
A worker whose parent dies sees the parent's sentinel and exits.
:meth:`close` (idempotent, also run at interpreter exit) terminates
survivors and unlinks all segments.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .shm import TransportError, attach_segment, create_segment, release_segment

__all__ = ["ProcessPoolExecutorBackend", "WorkerCrashed"]

#: A slab's size before any round has grown it.
_SLAB_BYTES = 1 << 20


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


def _worker_main(worker_id: int, cfg_bytes: bytes, conn,
                 flight_path: Optional[str]) -> None:
    """The worker process entry point: a command loop until shutdown,
    a closed pipe, or the parent's death."""
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

    watched = [conn, multiprocessing.parent_process().sentinel]
    cluster = Cluster(pickle.loads(cfg_bytes))
    stores: Dict[str, object] = {}

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
            op, replicas, job["l_s"], job["r_s"], job["segments"], payload,
            disk, job["crc"], job["attempt"], job["copy"],
        )

    def run_batch(cmd: dict, slab) -> dict:
        """Serve one command's jobs against the slab.  Slab views live
        only in this frame, so the slab can be released after it."""
        op, jobs = cmd["op"], cmd["jobs"]
        buf = np.ndarray((slab.size,), dtype=np.uint8, buffer=slab.buf)
        # Span trees are only built (and shipped home) when the parent
        # actually has a trace open; otherwise the batch runs span-free
        # and the reply stays small.
        tracer = Tracer()
        ctx = tracer.activate() if cmd["trace"] else nullcontext()
        before = obs_metrics.snapshot()
        result: dict = {"ok": True}
        try:
            with ctx, open_span(
                "mp.worker", worker=worker_id, pid=os.getpid(), op=op,
                jobs=len(jobs),
            ):
                costs = []
                for job in jobs:
                    region = buf[job["off"] : job["off"] + job["nbytes"]]
                    if op == "write":
                        cost, _ = serve(op, job, region, cmd["disk"])
                    else:
                        cost, reply = serve(op, job, None, cmd["disk"])
                        region[:] = reply
                    costs.append(cost)
                result["costs"] = costs
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
        return result

    slab = None
    try:
        while conn in wait(watched):  # else the parent died
            cmd = conn.recv()
            if cmd["op"] == "shutdown":
                break
            if cmd["op"] == "ping":
                conn.send({"ok": True, "pid": os.getpid()})
                continue
            if slab is None or slab.name != cmd["slab"]:
                if slab is not None:
                    release_segment(slab)
                slab = attach_segment(cmd["slab"])
            conn.send(run_batch(cmd, slab))
    except (EOFError, ConnectionError):
        pass  # the parent closed its end of the pipe
    finally:
        conn.close()
        if slab is not None:
            release_segment(slab)
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
    an operation, across subfiles.  Workers fork where the platform
    can, and spawn elsewhere.
    """

    def __init__(self, processes: int = 4, config=None):
        if processes < 1:
            raise ValueError(f"need >= 1 worker process, got {processes}")
        if config is None:
            from ..simulation.cluster import ClusterConfig

            config = ClusterConfig()
        from ..obs import flightrec

        self.processes = processes
        self.config = config
        self.lock = threading.Lock()
        self.closed = False
        self._broken: Optional[str] = None
        self._conns: list = []
        self._slabs: list = []
        self._procs: List[multiprocessing.process.BaseProcess] = []
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        cfg_bytes = pickle.dumps(config)
        # Workers record into sibling rings of the parent's: a pool
        # built in a process with an armed flight recorder at
        # ``ring.bin`` gives worker ``w`` its own ``ring.bin.w<w>``.
        armed = flightrec.active()
        try:
            for w in range(processes):
                self._slabs.append(create_segment(_SLAB_BYTES, f"slab{w}"))
                conn, child_conn = ctx.Pipe()
                self._conns.append(conn)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, cfg_bytes, child_conn,
                          None if armed is None else f"{armed.path}.w{w}"),
                    daemon=True,
                    name=f"repro-io-worker-{w}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
            for w in range(processes):  # handshake: workers are up
                self._send(w, {"op": "ping"})
            for w in range(processes):
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

    # -- control plane -------------------------------------------------------

    def _check_usable(self) -> None:
        if self._broken:  # before the closed check: breaking closes too
            raise WorkerCrashed(self._broken)
        if self.closed:
            raise TransportError("process pool is closed")

    def _send(self, w: int, cmd: dict) -> None:
        try:
            self._conns[w].send(cmd)
        except ConnectionError:
            self._mark_broken(w)

    def _recv(self, w: int, timeout: float = 60.0) -> dict:
        conn = self._conns[w]
        ready = wait([conn, self._procs[w].sentinel], timeout)
        if conn in ready:  # a reply sent just before dying still counts
            try:
                return conn.recv()
            except (EOFError, ConnectionError):
                pass
        elif not ready:
            self._mark_broken(
                w, f"worker {w} sent no reply within {timeout}s",
                TransportError,
            )
        self._mark_broken(w)

    def _mark_broken(self, w: int, reason: Optional[str] = None,
                     error: type = WorkerCrashed) -> None:
        """Record the failure (by default: worker ``w`` or whichever
        workers are dead died), shut the pool down and raise ``error``."""
        from ..obs import flightrec

        dead = [i for i, p in enumerate(self._procs) if not p.is_alive()]
        rec = flightrec.active()
        if rec is not None:
            for i in dead or [w]:
                rec.record(flightrec.EV_WORKER_CRASH, a=i)
        if reason is None:
            reason = f"worker(s) {dead or [w]} died"
        self._broken = (
            f"{reason}; pool shut down and all shared-memory segments "
            f"unlinked"
        )
        self.close()
        raise error(self._broken)

    @staticmethod
    def _tracing(root) -> bool:
        """Whether worker span trees are worth building and shipping:
        only when the parent op span is actually being collected."""
        from ..obs.span import span_retained

        return root is not None and span_retained()

    def _slab(self, w: int, jobs: Sequence[dict]) -> np.ndarray:
        """Give each job its ``off`` in worker ``w``'s slab, grow the
        slab to hold them all, and return it as a byte array."""
        off = 0
        for job in jobs:
            job["off"] = off
            off += job["nbytes"]
        slab = self._slabs[w]
        if slab.size < off:
            release_segment(slab)
            slab = self._slabs[w] = create_segment(
                1 << (off - 1).bit_length(), f"slab{w}"
            )
        return np.ndarray((slab.size,), dtype=np.uint8, buffer=slab.buf)

    def _round(
        self,
        op: str,
        jobs: Sequence[Sequence[dict]],
        disk: bool,
        root,
        payloads: Optional[Sequence[Sequence[np.ndarray]]] = None,
    ) -> List[list]:
        """One command to every worker that has jobs, then one reply
        from each; returns per-worker job costs (empty for idle ones).
        Worker spans graft under ``root`` and counter deltas fold into
        the parent registry; a failed batch raises once every reply is
        in, so the pipes stay in step."""
        from ..obs import metrics as obs_metrics
        from ..obs.export import span_from_dict

        self._check_usable()
        trace = self._tracing(root)
        busy = [w for w, batch in enumerate(jobs) if batch]
        sent = 0
        try:
            for w in busy:
                slab = self._slab(w, jobs[w])
                if payloads is not None:
                    for job, payload in zip(jobs[w], payloads[w]):
                        slab[job["off"] : job["off"] + job["nbytes"]] = payload
                self._send(w, {"op": op, "jobs": jobs[w], "disk": disk,
                               "trace": trace, "slab": self._slabs[w].name})
                sent += 1
            results = [self._recv(w) for w in busy]
        except BaseException:
            if sent:  # replies may still be owed: the pipes are out of step
                self.close()
            raise
        costs: List[list] = [[] for _ in jobs]
        errors = []
        for w, r in zip(busy, results):
            for name, delta in r["counters"].items():
                if delta > 0:
                    obs_metrics.inc(name, delta)
            if root is not None and "span" in r:
                root.children.append(span_from_dict(r["span"]))
            if r["ok"]:
                costs[w] = r["costs"]
            else:
                errors.append(r["error"])
        if errors:
            raise TransportError(
                "worker batch failed:\n" + "\n".join(errors)
            )
        return costs

    # -- exchanges (caller holds ``self.lock``) -------------------------------

    def exchange_write(
        self,
        jobs: Sequence[Sequence[dict]],
        payloads: Sequence[Sequence[np.ndarray]],
        to_disk: bool,
        root=None,
    ) -> List[list]:
        """Run one write round: ``payloads[w][i]`` is the payload of
        ``jobs[w][i]``, packed into worker ``w``'s slab.  Returns the
        per-worker job costs."""
        return self._round("write", jobs, to_disk, root, payloads)

    def exchange_read(
        self,
        jobs: Sequence[Sequence[dict]],
        from_disk: bool,
        root=None,
    ) -> Tuple[List[list], List[List[np.ndarray]]]:
        """Run one read round.  Returns the per-worker job costs and
        replies; ``replies[w][i]`` answers ``jobs[w][i]`` and is copied
        out of the slab, so it outlives the next round."""
        costs = self._round("read", jobs, from_disk, root)
        replies: List[List[np.ndarray]] = []
        for w, batch in enumerate(jobs):
            nbytes = sum(job["nbytes"] for job in batch)
            block = np.ndarray((nbytes,), dtype=np.uint8,
                               buffer=self._slabs[w].buf).copy()
            replies.append(
                [block[job["off"] : job["off"] + job["nbytes"]]
                 for job in batch]
            )
        return costs, replies

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and unlink every pool segment.  Idempotent;
        also reached from the shm module's exit hook via segment
        ownership, so a crash cannot leak shared memory."""
        if self.closed:
            return
        self.closed = True
        for conn in self._conns:
            try:
                conn.send({"op": "shutdown"})
            except ConnectionError:
                pass
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        for slab in self._slabs:
            release_segment(slab)

    def __enter__(self) -> "ProcessPoolExecutorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(timeout=0.5)
        except Exception:
            pass
