"""Hierarchical spans over two clocks.

A :class:`Span` is one named phase of work.  It can carry

* a **wall-clock** duration — real ``perf_counter`` time of our
  algorithms (the paper's *measured* numbers: ``t_i``, ``t_m``,
  ``t_g``), and/or
* a **simulation-clock** interval — modelled time on an operation's
  FIFO stage schedule (the paper's *modelled* numbers: network serialisation, I/O
  node CPU queueing, disk positioning),

plus free-form attributes and child spans.  One span tree therefore
shows compute-node phases interleaved with the modelled network/disk
events they trigger — exactly the shape of the paper's §8 evaluation.

Two ways to build trees:

* **explicit** — ``parent.measure("phase")`` / ``parent.record(...)`` /
  ``parent.record_sim(...)`` attach children to a span you hold;
* **implicit** — :func:`open_span` nests under the thread's current
  span (or becomes a root of the thread's active :class:`Tracer`), so
  layers that never see each other's objects — the I/O engine, the
  redistribution executor, the simulated transport — still land in one
  tree.

Spans are plain data; exporters live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "open_span",
    "tracked_span",
    "current_span",
    "active_tracer",
    "span_retained",
]


@dataclass
class Span:
    """One named phase: wall and/or simulated time, attributes, children."""

    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    #: ``perf_counter`` timestamps (seconds); ``None`` until started/ended.
    wall_start_s: Optional[float] = None
    wall_end_s: Optional[float] = None
    #: Simulation-clock interval (seconds on the event-queue timeline).
    sim_start_s: Optional[float] = None
    sim_end_s: Optional[float] = None
    children: List["Span"] = field(default_factory=list)

    # -- clock properties ----------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Wall-clock duration in seconds (0.0 while incomplete)."""
        if self.wall_start_s is None or self.wall_end_s is None:
            return 0.0
        return self.wall_end_s - self.wall_start_s

    @property
    def wall_us(self) -> float:
        """Wall-clock duration in microseconds."""
        return self.wall_s * 1e6

    @property
    def sim_s(self) -> float:
        """Simulated duration in seconds (0.0 when not a sim span)."""
        if self.sim_start_s is None or self.sim_end_s is None:
            return 0.0
        return self.sim_end_s - self.sim_start_s

    # -- tree construction ---------------------------------------------------

    def annotate(self, **attrs: object) -> "Span":
        """Merge attributes into this span (chainable)."""
        self.attrs.update(attrs)
        return self

    def child(self, name: str, **attrs: object) -> "Span":
        """Attach and return an un-clocked child span."""
        sp = Span(name, attrs=dict(attrs))
        self.children.append(sp)
        return sp

    @contextmanager
    def measure(self, name: str, **attrs: object) -> Iterator["Span"]:
        """Time a child span with the wall clock (exception-safe)."""
        sp = self.child(name, **attrs)
        sp.wall_start_s = time.perf_counter()
        try:
            yield sp
        finally:
            sp.wall_end_s = time.perf_counter()

    def record(self, name: str, wall_s: float, **attrs: object) -> "Span":
        """Attach a child with an externally measured wall duration.

        The end timestamp is "now", so exported timelines stay roughly
        ordered; the *duration* is exactly ``wall_s``.
        """
        sp = self.child(name, **attrs)
        sp.wall_end_s = time.perf_counter()
        sp.wall_start_s = sp.wall_end_s - wall_s
        return sp

    def record_sim(
        self, name: str, sim_start_s: float, sim_end_s: float, **attrs: object
    ) -> "Span":
        """Attach a child living purely on the simulation clock."""
        sp = self.child(name, **attrs)
        sp.sim_start_s = sim_start_s
        sp.sim_end_s = sim_end_s
        return sp

    # -- queries -------------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, pre-order."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find_all(self, name: str) -> List["Span"]:
        """Every descendant (or self) with the given name, in tree order."""
        return [s for s in self.walk() if s.name == name]

    def find(self, name: str) -> Optional["Span"]:
        """The first span named ``name``, or ``None``."""
        for s in self.walk():
            if s.name == name:
                return s
        return None

    def phase_names(self) -> List[str]:
        """Distinct span names in the tree, in first-appearance order."""
        seen: Dict[str, None] = {}
        for s in self.walk():
            seen.setdefault(s.name)
        return list(seen)


class _Context(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.tracer: Optional["Tracer"] = None


_CTX = _Context()


def current_span() -> Optional[Span]:
    """The innermost span opened by :func:`open_span` on this thread."""
    return _CTX.stack[-1] if _CTX.stack else None


def active_tracer() -> Optional["Tracer"]:
    """The tracer activated on this thread, if any."""
    return _CTX.tracer


def span_retained() -> bool:
    """Whether the innermost open span will outlive its ``with`` block.

    True when a tracer is active or the innermost span has an enclosing
    parent; False for a standalone root nobody is collecting.  Expensive
    observability (serializing worker span trees across the process
    boundary) keys off this so untraced operations don't pay for it.
    """
    return _CTX.tracer is not None or len(_CTX.stack) > 1


@contextmanager
def open_span(name: str, **attrs: object) -> Iterator[Span]:
    """Open a wall-clocked span in the thread's trace context.

    Nesting: under the current span when one is open; otherwise as a
    new root of the active tracer; otherwise standalone (the caller
    keeps the returned span — nothing is lost, nothing accumulates).
    """
    sp = Span(name, attrs=dict(attrs))
    parent = current_span()
    if parent is not None:
        parent.children.append(sp)
    elif _CTX.tracer is not None:
        _CTX.tracer.roots.append(sp)
    _CTX.stack.append(sp)
    sp.wall_start_s = time.perf_counter()
    try:
        yield sp
    finally:
        sp.wall_end_s = time.perf_counter()
        _CTX.stack.pop()


@contextmanager
def tracked_span(name: str, **attrs: object) -> Iterator[Optional[Span]]:
    """Like :func:`open_span`, but a no-op when nobody is listening.

    Hot paths (the redistribution executor's per-transfer loop) use this
    so they only pay for span bookkeeping inside a traced operation.
    Yields ``None`` when no span is open and no tracer is active.
    """
    if current_span() is None and _CTX.tracer is None:
        yield None
        return
    with open_span(name, **attrs) as sp:
        yield sp


class Tracer:
    """A collection point for root spans plus activation scoping.

    Activating a tracer makes every :func:`open_span` root on this
    thread land in :attr:`roots`, so a tool can capture one end-to-end
    trace across layers without threading a span through every call:

    .. code-block:: python

        tracer = Tracer("write-trace")
        with tracer.activate():
            fs.write("m", accesses)          # spans collect themselves
        print(tracer.roots[0].phase_names())
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self.roots: List[Span] = []

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install as the thread's active tracer for the duration."""
        prev = _CTX.tracer
        _CTX.tracer = self
        try:
            yield self
        finally:
            _CTX.tracer = prev

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Activate and open one root span in a single step."""
        with self.activate():
            with open_span(name, **attrs) as sp:
                yield sp

    def clear(self) -> None:
        self.roots.clear()
