"""The flight recorder: a crash-surviving mmap ring of binary events.

PR 8 made acknowledged *data* survive SIGKILL; this module does the
same for *telemetry*.  A :class:`FlightRecorder` is an always-on,
bounded ring of fixed-width binary event records — op start/finish,
batch dispatch, group commit, lock grant, worker crash — written from
hot paths into a ``MAP_SHARED`` memory mapping of a plain file.  Like
the PR 8 journals, the mapping's bytes reach the OS page cache the
moment they are stored, so the ring survives process death with **no
fsync and no flush on the hot path**: after a SIGKILL, the file holds
the victim's last words, decodable by :mod:`repro.obs.forensics`
(``python -m repro.tools blackbox``) with no cooperation from the dead
process.

Design constraints, in order:

* **hot-path cost** — one lock acquire, one ``struct`` pack, one
  64-byte store into the mapping.  No syscall, no allocation beyond
  the packed slot, no formatting.  When no recorder is armed, the cost
  at every instrumented site is a single module-global read.
* **crash consistency** — every slot carries a CRC-32 over its body
  and a never-repeating sequence number.  A decoder scans all slots
  and keeps exactly those whose CRC verifies: a slot torn by a kill
  mid-store fails its CRC and is *counted, never misparsed*; ordering
  is recovered from the sequence numbers, not file position, so ring
  wrap needs no head pointer that could itself tear.
* **self-description** — tenants and file names are interned once into
  a small string table inside the same file, so a post-mortem decode
  needs the ring file *alone* (no journal, no namespace, no process).

Layout (all little-endian)::

    file    := header[64] | intern[64 * 32] | slot[capacity * 64]
    header  := magic "RFR1" | version u16 | slot u16 | capacity u32
               | pid u32 | created_ns u64
    intern  := kind u8 | key u32 | len u8 | name[26]
    slot    := crc u32 | body[60]
    body    := seq u64 | etype u8 | pad[3] | t_ns u64 | trace u64
               | tseq i64 | tenant u32 | file u32 | a u64 | b u64

``seq`` starts at 1 and only grows; slot position is ``seq %
capacity``, so the ring wraps by overwriting the oldest slot.  ``crc =
crc32(body)``.  An all-zero slot was never written.
"""

from __future__ import annotations

import itertools
import mmap
import os
import struct
import threading
import time
import zlib
from typing import Dict, Optional, Tuple

from ..codec import CRC, Header, crc32
from . import metrics as obs_metrics

__all__ = [
    "EVENT_NAMES",
    "EV_OP_START",
    "EV_OP_FINISH",
    "EV_BATCH",
    "EV_COMMIT_START",
    "EV_COMMIT",
    "EV_LOCK_GRANT",
    "EV_LOCK_RELEASE",
    "EV_WORKER_CRASH",
    "EV_CHECKPOINT",
    "EV_RECOVERY",
    "FlightRecorder",
    "active",
    "arm",
    "disarm",
    "trace_num",
]

#: Event types.  ``a``/``b`` are two event-specific u64 arguments.
EV_OP_START = 1  # a=view offset, b=payload/read bytes
EV_OP_FINISH = 2  # a=view offset, b=0 ok / 1 failed
EV_BATCH = 3  # a=batch size, b=0 — dispatch of one *multi-op* coalesced
#               batch (a singleton batch is implied by its op_start)
EV_COMMIT_START = 4  # a=commit stamp, b=ops in the group
EV_COMMIT = 5  # a=commit stamp, b=redo records appended
EV_LOCK_GRANT = 6  # a=1 write / 0 read — contended grants and multi-op
#                    batches (an uncontended singleton's hold is exactly
#                    its op window, so op_start already names it)
EV_LOCK_RELEASE = 7  # paired with a recorded grant
EV_WORKER_CRASH = 8  # a=worker index (or 2**32-1: unknown)
EV_CHECKPOINT = 9  # a=new epoch
EV_RECOVERY = 10  # a=records replayed, b=tail bytes discarded

EVENT_NAMES = {
    EV_OP_START: "op_start",
    EV_OP_FINISH: "op_finish",
    EV_BATCH: "batch",
    EV_COMMIT_START: "commit_start",
    EV_COMMIT: "commit",
    EV_LOCK_GRANT: "lock_grant",
    EV_LOCK_RELEASE: "lock_release",
    EV_WORKER_CRASH: "worker_crash",
    EV_CHECKPOINT: "checkpoint",
    EV_RECOVERY: "recovery",
}

#: Intern-entry kinds (what the key names).
INTERN_TENANT = 1
INTERN_FILE = 2

SLOT_BYTES = 64
HEADER = Header("flight ring", "<4sHHIIQ",
                "magic version slot capacity pid created_ns",
                magic=b"RFR1", version=1, slot=SLOT_BYTES)
HEADER_BYTES = 64
INTERN_ENTRY = struct.Struct("<BIB26s")
INTERN_SLOTS = 64
INTERN_BYTES = INTERN_SLOTS * 32
BODY = struct.Struct("<QB3xQQqIIQQ")
BODY_FIELDS = "seq etype t_ns trace tseq tenant file a b"  # BODY, in order
SLOT = struct.Struct("<I60s")  # crc + body, packed in one allocation
SLOTS_OFFSET = HEADER_BYTES + INTERN_BYTES

assert CRC.size + BODY.size == SLOT.size == SLOT_BYTES
assert INTERN_ENTRY.size == 32

#: ``flightrec.events`` counter updates are batched this many records
#: at a time (flushed on close): the metrics counter is diagnostic,
#: and a per-record inc would be a third of the hot path's cost.
_EVENTS_FLUSH = 256


def trace_num(trace_id: Optional[str]) -> int:
    """The numeric payload of a trace id (``"op-00000042"`` -> 42).

    Non-numeric ids hash stably instead, and ``None`` is 0 — the
    recorder stores a u64 either way and forensics renders it back
    with the standard ``op-`` prefix when it fits."""
    if not trace_id:
        return 0
    tail = trace_id.rsplit("-", 1)[-1]
    if tail.isdigit():
        return int(tail)
    return crc32(trace_id.encode("utf-8"))


class FlightRecorder:
    """One mmap-backed event ring, owned by this process.

    ``capacity`` is the slot count; the ring retains the last
    ``capacity`` events (64 bytes each — the default 4096 slots cost
    256 KiB of page cache).  All methods are thread-safe; the write
    path takes no lock at all and performs no I/O syscalls.
    """

    def __init__(self, path: str, capacity: int = 4096):
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.path = path
        self.capacity = capacity
        size = SLOTS_OFFSET + capacity * SLOT_BYTES
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.ftruncate(fd, size)
            self._mm: Optional[mmap.mmap] = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        header = HEADER.pack(
            capacity=capacity, pid=os.getpid() & 0xFFFFFFFF,
            created_ns=time.monotonic_ns(),
        )
        self._mm[:len(header)] = header
        self._lock = threading.Lock()  # intern table + close; NOT record()
        # The hot path is lock-free: itertools.count.__next__ is a
        # single C call — atomic under the GIL — so concurrent record()
        # calls draw distinct seqs and therefore store distinct slots
        # (same slot needs seqs a full `capacity` apart, impossible in
        # one scheduling window).  A threading.Lock here measurably
        # stalls the service: every acquire/release is a GIL handoff
        # point on the worker/submitter critical path.
        self._count = itertools.count(1)
        self._seq = 0  # last sequence number written (0: none yet)
        self._interned: Dict[Tuple[int, str], int] = {}
        self._next_intern = 0
        self._m_events = obs_metrics.counter("flightrec.events")
        self._m_rings = obs_metrics.counter("flightrec.rings")
        self._m_dropped_interns = obs_metrics.counter(
            "flightrec.interns_dropped"
        )
        self._m_rings.inc()
        # record() is installed per instance as a closure with every
        # hot value prebound: on a ~1 us operation budget, even the
        # handful of attribute loads a method body would do are
        # measurable on the service's worker critical path.
        self.record = self._bind_record()

    # -- interning -----------------------------------------------------------

    def _intern(self, kind: int, name: str) -> int:
        """The u32 key for a name, writing it into the ring's string
        table on first sight (so a decode of the dead file can resolve
        it).  A full table drops the entry — the key still identifies
        the name across events, it just renders as hex."""
        memo = self._interned
        k = memo.get((kind, name))
        if k is not None:
            return k
        k = crc32(name.encode("utf-8"))
        with self._lock:
            if (kind, name) not in memo:
                if self._next_intern < INTERN_SLOTS and self._mm is not None:
                    raw = name.encode("utf-8")[:26]
                    off = HEADER_BYTES + self._next_intern * 32
                    self._mm[off:off + 32] = INTERN_ENTRY.pack(
                        kind, k, len(raw), raw
                    )
                    self._next_intern += 1
                else:
                    self._m_dropped_interns.inc()
                memo[(kind, name)] = k
        return k

    def tenant_key(self, name: str) -> int:
        return self._intern(INTERN_TENANT, name)

    def file_key(self, name: str) -> int:
        return self._intern(INTERN_FILE, name)

    # -- recording -----------------------------------------------------------

    def _bind_record(self):
        """Build the hot-path ``record(etype, trace=0, tseq=-1,
        tenant=0, file=0, a=0, b=0) -> seq`` closure.

        The slot write is a single 64-byte slice store into the shared
        mapping — kill-durable the moment it lands, with no syscall and
        **no lock** (see ``_count`` in ``__init__``).  Returns the
        event's sequence number, or 0 once the recorder is closed
        (``close()`` unmaps the ring, so the store raises and the
        event is dropped, exactly like any other post-close record).
        """
        mm = self._mm

        def record(
            etype: int,
            trace: int = 0,
            tseq: int = -1,
            tenant: int = 0,
            file: int = 0,
            a: int = 0,
            b: int = 0,
            _now=time.monotonic_ns,
            _pack=BODY.pack,
            _spack=SLOT.pack,
            _crc32=zlib.crc32,
            _next=self._count.__next__,
            _cap=self.capacity,
            _inc=self._m_events.inc,
        ) -> int:
            seq = _next()
            body = _pack(seq, etype, _now(), trace, tseq, tenant, file, a, b)
            off = SLOTS_OFFSET + (seq % _cap) * SLOT_BYTES
            try:
                mm[off:off + SLOT_BYTES] = _spack(_crc32(body), body)
            except ValueError:  # closed: dropped, ring already sealed
                return 0
            self._seq = seq
            if not seq % _EVENTS_FLUSH:
                # Exactly one thread draws each seq, so each flush
                # boundary is credited exactly once.
                _inc(_EVENTS_FLUSH)
            return seq

        return record

    @property
    def events(self) -> int:
        """Events recorded so far (monotonic; the ring retains the
        last ``capacity`` of them)."""
        return self._seq

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unmap the ring.  The file stays behind — that is the point:
        it is the post-mortem artifact."""
        with self._lock:
            mm = self._mm
            self._mm = None
        if mm is not None:
            # Credit the tail the periodic flush has not covered yet.
            self._m_events.inc(self._seq % _EVENTS_FLUSH)
            mm.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the process-wide recorder ------------------------------------------------
#
# Hot paths read the module global directly (``flightrec.active()`` or
# the _RECORDER attribute): when nothing is armed the per-site cost is
# one global load and a None check.

_RECORDER: Optional[FlightRecorder] = None
_ARM_LOCK = threading.Lock()


def active() -> Optional[FlightRecorder]:
    """The armed process-wide recorder, or ``None``."""
    return _RECORDER


def arm(path: str, capacity: int = 4096) -> FlightRecorder:
    """Arm the process-wide recorder on ``path`` (replacing and closing
    any previous one)."""
    global _RECORDER
    rec = FlightRecorder(path, capacity=capacity)
    with _ARM_LOCK:
        prev, _RECORDER = _RECORDER, rec
    if prev is not None:
        prev.close()
    return rec


def disarm() -> Optional[FlightRecorder]:
    """Disarm and close the process-wide recorder; returns it (closed)
    so callers can read ``path``/``events``."""
    global _RECORDER
    with _ARM_LOCK:
        prev, _RECORDER = _RECORDER, None
    if prev is not None:
        prev.close()
    return prev
