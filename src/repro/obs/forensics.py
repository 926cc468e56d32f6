"""Post-mortem forensics: decode a dead process's flight-recorder ring.

The counterpart of :mod:`repro.obs.flightrec` that runs in the
*survivor*: given the ring file a killed process left behind, rebuild
the story of its final operations from the mmap ring **alone** — no
journal access, no namespace, no cooperation from the dead process.

Three layers:

* :func:`decode_ring` — scan every slot, keep exactly the records
  whose CRC verifies, order them by sequence number, and count torn
  slots (a kill mid-store) separately from never-written ones.  Torn
  records are detected, never misparsed — the same discipline the
  write-ahead journals apply to data.
* :func:`reconstruct` — fold the event stream into the "last words":
  the operations that were in flight (started, never finished), the
  locks that were granted and never released, the group commit the
  victim was cutting when it died, and the final N events as a
  relative-time timeline.
* :func:`render_blackbox` — the human-readable report
  (``python -m repro.tools blackbox`` prints it; the conformance
  driver's sigkill runs attach the JSON form to every report).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..codec import frame_crc
from .flightrec import (
    BODY,
    BODY_FIELDS,
    CRC,
    EVENT_NAMES,
    EV_BATCH,
    EV_COMMIT,
    EV_COMMIT_START,
    EV_LOCK_GRANT,
    EV_LOCK_RELEASE,
    EV_OP_FINISH,
    EV_OP_START,
    EV_WORKER_CRASH,
    HEADER,
    HEADER_BYTES,
    INTERN_ENTRY,
    INTERN_FILE,
    INTERN_SLOTS,
    INTERN_TENANT,
    SLOT_BYTES,
    SLOTS_OFFSET,
)

__all__ = [
    "RingEvent",
    "RingDump",
    "decode_ring",
    "finished_ops",
    "reconstruct",
    "render_blackbox",
]


class RingEvent(namedtuple("RingEvent", BODY_FIELDS)):
    """One CRC-verified event, as stored."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return EVENT_NAMES.get(self.etype, f"etype{self.etype}")

    @property
    def trace_id(self) -> str:
        """The trace id rendered back in the standard ``op-`` form."""
        return f"op-{self.trace:08d}" if self.trace else ""


@dataclass
class RingDump:
    """Everything a ring file yields to a post-mortem scan."""

    path: str
    pid: int = 0
    created_ns: int = 0
    capacity: int = 0
    events: List[RingEvent] = field(default_factory=list)
    #: Slots holding bytes that fail their CRC — a store torn by the
    #: kill (or bit rot).  Detected and counted, never parsed.
    torn: int = 0
    #: Slots never written (all zero).
    empty: int = 0
    #: Whether the ring overwrote old events (events lost to wrap).
    wrapped: bool = False
    names: Dict[Tuple[int, int], str] = field(default_factory=dict)

    def tenant_name(self, key: int) -> str:
        return self.names.get((INTERN_TENANT, key), f"tenant#{key:08x}")

    def file_name(self, key: int) -> str:
        return self.names.get((INTERN_FILE, key), f"file#{key:08x}")


def decode_ring(path: str) -> RingDump:
    """Decode a ring file into its verified event sequence.

    Raises ``ValueError`` only when the file is not a flight-recorder
    ring at all (bad magic/version/slot size, or too short); damage
    *inside* a valid ring degrades to counts, never an exception.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < SLOTS_OFFSET:
        raise ValueError(f"{path!r} is too short to be a flight ring")
    capacity, pid, created_ns = HEADER.unpack(raw)
    dump = RingDump(
        path=path, pid=pid, created_ns=created_ns, capacity=capacity
    )
    for i in range(INTERN_SLOTS):
        off = HEADER_BYTES + i * 32
        kind, key, length, name = INTERN_ENTRY.unpack_from(raw, off)
        if kind:
            dump.names[(kind, key)] = name[:length].decode(
                "utf-8", errors="replace"
            )
    end = min(len(raw), SLOTS_OFFSET + capacity * SLOT_BYTES)
    for off in range(SLOTS_OFFSET, end - SLOT_BYTES + 1, SLOT_BYTES):
        cell = raw[off:off + SLOT_BYTES]
        if not any(cell):
            dump.empty += 1
            continue
        if frame_crc(cell) is None:
            dump.torn += 1
            continue
        dump.events.append(RingEvent(*BODY.unpack_from(cell, CRC.size)))
    dump.events.sort(key=lambda e: e.seq)
    if dump.events:
        dump.wrapped = dump.events[-1].seq > capacity
    return dump


def finished_ops(dump: RingDump) -> Dict[str, Set[int]]:
    """Per file name, the ticket seqs whose ``op_finish`` (success)
    made it into the retained window — what the ring proves the dead
    process completed."""
    out: Dict[str, Set[int]] = {}
    for e in dump.events:
        if e.etype == EV_OP_FINISH and e.b == 0:
            out.setdefault(dump.file_name(e.file), set()).add(e.tseq)
    return out


def _event_dict(e: RingEvent, dump: RingDump, t_end: int) -> dict:
    d = {
        "seq": e.seq,
        "event": e.name,
        "t_rel_s": (e.t_ns - t_end) / 1e9,
        "a": e.a,
        "b": e.b,
    }
    if e.trace:
        d["trace_id"] = e.trace_id
    if e.tseq >= 0:
        d["ticket_seq"] = e.tseq
    if e.file:
        d["file"] = dump.file_name(e.file)
    if e.tenant:
        d["tenant"] = dump.tenant_name(e.tenant)
    return d


def reconstruct(dump: RingDump, last: int = 32) -> dict:
    """The dead process's last words, folded from the event stream.

    Returns a JSON-ready dict: the final ``last`` events as a
    relative-time timeline (t=0 at the newest event, negative seconds
    before it), the in-flight operations (``op_start`` without a
    matching ``op_finish``), the batch being executed, the locks still
    held (grants minus releases per file), the commit being cut
    (``commit_start`` without its ``commit``), the last durable commit
    per file, and any worker-crash events.
    """
    events = dump.events
    t_end = events[-1].t_ns if events else 0
    in_flight: Dict[Tuple[int, int, int], RingEvent] = {}
    lock_depth: Dict[int, int] = {}
    lock_mode: Dict[int, int] = {}
    cutting: Dict[int, RingEvent] = {}
    last_commit: Dict[int, RingEvent] = {}
    last_batch: Optional[RingEvent] = None
    crashes: List[RingEvent] = []
    for e in events:
        key = (e.trace, e.tseq, e.file)
        if e.etype == EV_OP_START:
            in_flight[key] = e
        elif e.etype == EV_OP_FINISH:
            in_flight.pop(key, None)
        elif e.etype == EV_BATCH:
            last_batch = e
        elif e.etype == EV_LOCK_GRANT:
            lock_depth[e.file] = lock_depth.get(e.file, 0) + 1
            lock_mode[e.file] = e.a
        elif e.etype == EV_LOCK_RELEASE:
            lock_depth[e.file] = lock_depth.get(e.file, 0) - 1
        elif e.etype == EV_COMMIT_START:
            cutting[e.file] = e
        elif e.etype == EV_COMMIT:
            cutting.pop(e.file, None)
            last_commit[e.file] = e
        elif e.etype == EV_WORKER_CRASH:
            crashes.append(e)
    return {
        "path": dump.path,
        "pid": dump.pid,
        "capacity": dump.capacity,
        "events": len(events),
        "torn": dump.torn,
        "wrapped": dump.wrapped,
        "timeline": [
            _event_dict(e, dump, t_end) for e in events[-last:]
        ],
        "in_flight": [
            _event_dict(e, dump, t_end) for e in in_flight.values()
        ],
        "batch_in_progress": (
            _event_dict(last_batch, dump, t_end)
            if last_batch is not None
            and any(s.seq > last_batch.seq for s in in_flight.values())
            else None
        ),
        "held_locks": [
            {
                "file": dump.file_name(f),
                "mode": "w" if lock_mode.get(f) else "r",
                "depth": depth,
            }
            for f, depth in sorted(lock_depth.items())
            if depth > 0
        ],
        "commit_in_progress": [
            _event_dict(e, dump, t_end) for e in cutting.values()
        ],
        "last_commit": {
            dump.file_name(f): _event_dict(e, dump, t_end)
            for f, e in sorted(last_commit.items())
        },
        "worker_crashes": [
            _event_dict(e, dump, t_end) for e in crashes
        ],
    }


def _fmt_event(d: dict) -> str:
    parts = [f"[{d['t_rel_s']:+10.6f}s]", f"{d['event']:<13}"]
    for k in ("file", "ticket_seq", "trace_id", "tenant"):
        if k in d:
            parts.append(f"{k.replace('ticket_seq', 'seq')}={d[k]}")
    if d.get("a") or d.get("b"):
        parts.append(f"a={d['a']} b={d['b']}")
    return " ".join(parts)


def render_blackbox(recon: dict) -> str:
    """The human-readable blackbox report for one reconstruction."""
    lines = [
        f"flight ring {recon['path']} (pid {recon['pid']})",
        f"  {recon['events']} event(s) decoded, {recon['torn']} torn, "
        f"wrapped={recon['wrapped']}",
    ]
    if recon["worker_crashes"]:
        lines.append("  worker crashes:")
        for d in recon["worker_crashes"]:
            lines.append("    " + _fmt_event(d))
    lines.append("  last words:")
    for d in recon["in_flight"]:
        lines.append("    in-flight   " + _fmt_event(d))
    for d in recon["commit_in_progress"]:
        lines.append("    mid-commit  " + _fmt_event(d))
    for h in recon["held_locks"]:
        lines.append(
            f"    held lock   file={h['file']} mode={h['mode']} "
            f"depth={h['depth']}"
        )
    if not (
        recon["in_flight"]
        or recon["commit_in_progress"]
        or recon["held_locks"]
    ):
        lines.append("    (idle at death: no in-flight state)")
    if recon["last_commit"]:
        lines.append("  last durable commit per file:")
        for name, d in recon["last_commit"].items():
            lines.append(
                f"    {name}: stamp={d['a']} records={d['b']} "
                f"at {d['t_rel_s']:+.6f}s"
            )
    lines.append(f"  final {len(recon['timeline'])} events:")
    for d in recon["timeline"]:
        lines.append("    " + _fmt_event(d))
    return "\n".join(lines)
