"""Outside-in layer probes: timing shims around public functions.

The traced pass wraps the callables named in :data:`PROBES` — a class
attribute is patched on its class, a module-level function in every
loaded ``repro`` module that imported it by name — and removes the
wrappers afterwards.  Nothing under ``src/`` is edited.

A probe call is kept in memory as one tuple
``(id, name, thread, start_ns, end_ns, parent_id, trace_id)``: ``parent``
is the probe call enclosing it on the same thread (0 for none) and
``trace_id`` is ``repro.obs.context.current_trace_id()``, which a
service worker binds to the head ticket of the batch it executes — the
join key between a client's ticket and the worker-side calls made on
its behalf.  Timestamps are ``time.perf_counter_ns``, the clock
``repro``'s own spans use, so both kinds of span share one time axis.
"""

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple

from repro.obs.context import current_trace_id

#: ``(layer, probe, "module:qualname", kind)``.  ``kind`` is ``"span"``
#: (time every call) or ``"count"`` (count calls only — for callables hit
#: so often per op that timing them would distort what they measure).
PROBES: List[Tuple[str, str, str, str]] = [
    ("core", "core.intersect",
     "repro.core.intersect_nested:intersect_elements", "span"),
    ("core", "core.project", "repro.core.projection:project", "span"),
    ("redistribution", "redistribution.build_plan",
     "repro.redistribution.schedule:build_plan", "span"),
    ("redistribution", "redistribution.get_plan",
     "repro.redistribution.plan_cache:get_plan", "span"),
    ("redistribution", "redistribution.gather",
     "repro.redistribution.gather_scatter:gather_segments", "span"),
    ("redistribution", "redistribution.scatter",
     "repro.redistribution.gather_scatter:scatter_segments", "span"),
    ("redistribution", "redistribution.execute_plan",
     "repro.clusterfile.engine:run_shuffle", "span"),
    ("clusterfile", "clusterfile.create",
     "repro.clusterfile.fs:Clusterfile.create", "span"),
    ("clusterfile", "clusterfile.linear_contents",
     "repro.clusterfile.fs:Clusterfile.linear_contents", "span"),
    ("clusterfile", "clusterfile.set_view",
     "repro.clusterfile.fs:Clusterfile.set_view", "span"),
    ("clusterfile", "clusterfile.engine_write",
     "repro.clusterfile.engine:IOEngine.write", "span"),
    ("clusterfile", "clusterfile.engine_read",
     "repro.clusterfile.engine:IOEngine.read", "span"),
    ("clusterfile", "clusterfile.ioserver_ctor",
     "repro.clusterfile.server:IOServer.__init__", "count"),
    ("simulation", "simulation.transport",
     "repro.clusterfile.engine:SimulatedTransport.run", "span"),
    ("mp", "mp.exchange_write",
     "repro.mp.pool:ProcessPoolExecutorBackend.exchange_write", "span"),
    ("mp", "mp.exchange_read",
     "repro.mp.pool:ProcessPoolExecutorBackend.exchange_read", "span"),
    ("mp", "mp.pool_spawn",
     "repro.mp.pool:ProcessPoolExecutorBackend.__init__", "span"),
    ("namespace", "namespace.locate",
     "repro.namespace.cluster:ClusterNamespace.locate", "span"),
    ("service", "service.submit_write",
     "repro.service.service:FileService.submit_write", "span"),
    ("service", "service.submit_read",
     "repro.service.service:FileService.submit_read", "span"),
    ("durability", "durability.commit",
     "repro.durability.manager:DurabilityManager.commit_write", "span"),
    ("durability", "durability.journal_append",
     "repro.durability.journal:JournalWriter.append", "span"),
    ("durability", "durability.journal_append_many",
     "repro.durability.journal:JournalWriter.append_many", "span"),
    ("durability", "durability.journal_flush",
     "repro.durability.journal:JournalWriter.flush", "count"),
    ("durability", "durability.redo_read",
     "repro.clusterfile.file_model:SubfileStore.read_bytes", "span"),
]


class ProbeSpan(NamedTuple):
    id: int
    name: str
    thread: int
    start_ns: int
    end_ns: int
    parent: int
    trace_id: object


class Recorder:
    """Installs the probe table and keeps what the probes saw."""

    def __init__(self) -> None:
        self.spans: List[ProbeSpan] = []
        self.counts: Dict[str, "itertools.count"] = {}
        self._count_reads: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- shims ---------------------------------------------------------------

    def _span_shim(self, name: str, fn):
        spans, tls, ids = self.spans, self._tls, self._ids
        now, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = tls.__dict__.get("stack")
            if stack is None:
                stack = tls.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                # list.append is atomic under the GIL: no lock on the hot path
                spans.append(ProbeSpan(
                    sid, name, ident(), t0, t1, parent, current_trace_id()
                ))

        return shim

    def _count_shim(self, name: str, fn):
        counter = self.counts[name] = itertools.count()

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            next(counter)  # a single C call: atomic under the GIL
            return fn(*args, **kwargs)

        return shim

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for _layer, name, target, kind in PROBES:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
            make = self._span_shim if kind == "span" else self._count_shim
            shim = make(name, original)
            if path:  # a method: patch it on its class
                self._undo.append((owner, attr, original))
                setattr(owner, attr, shim)
                continue
            # a function: patch every namespace that bound it by name
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, shim)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- reading -------------------------------------------------------------

    def count(self, name: str) -> int:
        """Calls a ``count`` probe has seen so far."""
        counter = self.counts.get(name)
        if counter is None:
            return 0
        # itertools.count has no peek; next() returns how often it was
        # advanced before, by probe calls and by earlier reads alike
        reads = self._count_reads[name]
        self._count_reads[name] = reads + 1
        return next(counter) - reads

    def mark(self) -> int:
        """A position in the span log (for windows: setup vs timed)."""
        return len(self.spans)


class Totals(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int


def totals(spans: List[ProbeSpan]) -> Dict[str, Totals]:
    """Per probe: calls, total time, and self time (total minus what the
    probe calls nested directly inside it cover)."""
    child_ns: Dict[int, int] = defaultdict(int)
    for sp in spans:
        if sp.parent:
            child_ns[sp.parent] += sp.end_ns - sp.start_ns
    out: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for sp in spans:
        dur = sp.end_ns - sp.start_ns
        acc = out[sp.name]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child_ns.get(sp.id, 0)
    return {name: Totals(*acc) for name, acc in out.items()}


def by_trace(spans: List[ProbeSpan], name: str) -> Dict[object, int]:
    """Total nanoseconds of one probe per bound trace id."""
    out: Dict[object, int] = defaultdict(int)
    for sp in spans:
        if sp.name == name:
            out[sp.trace_id] += sp.end_ns - sp.start_ns
    return out
