"""Request timelines: one admitted operation, end to end, across threads.

A service request touches three threads — the client's (admission), the
dispatcher's (lock registration, batching) and a worker's (engine
execution) — and its ticket links them: the ticket's ``trace_id`` is
stamped at admission, the worker publishes the ``service.batch`` span
tree on ``ticket.trace`` before executing, and the engine annotates its
operation root with the bound trace id.  :func:`request_timeline` folds
all of that into one ordered record:

``queue_wait`` (admission → lock registration) → ``lock_acquire``
(registration → execution start) → ``batch`` (what the op rode in) →
the engine operation with its per-stage wall sums (map, gather,
scatter).

The function is read-only over plain span data, so it can be called
from any thread the moment ``Ticket.result()`` returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.span import Span
from .tickets import Ticket

__all__ = ["request_timeline", "render_timeline"]

#: Engine operation root span names (one per engine entry point).
_ENGINE_ROOTS = ("parallel_write", "parallel_read", "relayout", "shuffle")
#: Per-stage spans summed into the engine entry of a timeline.
_ENGINE_STAGES = ("map", "gather", "scatter")


def _per_op_record(root: Span, name: str, trace_id: str) -> Optional[Span]:
    for sp in root.children:
        if sp.name == name and sp.attrs.get("trace_id") == trace_id:
            return sp
    return None


def request_timeline(ticket: Ticket) -> Dict[str, object]:
    """The full cross-thread timeline of one service request.

    Returns ``{"trace_id", "seq", "kind", "file", "file_id", "tenant",
    "wait_s", "batched_with", "batch": {...}, "stages": [{"stage",
    "wall_s", ...}, ...]}`` with stages in causal order.  ``seq`` is
    the *per-file* sequence number (total within the ticket's file,
    unordered across files).  Raises ``ValueError`` if the ticket has
    not been dispatched yet (no trace published).
    """
    root = ticket.trace
    if root is None:
        raise ValueError(
            f"ticket {ticket.kind}#{ticket.seq} has no trace yet — the "
            f"operation has not been dispatched (wait on result() first)"
        )

    stages: List[Dict[str, object]] = []
    for stage in ("queue_wait", "lock_acquire"):
        sp = _per_op_record(root, stage, ticket.trace_id)
        if sp is not None:
            stages.append({"stage": stage, "wall_s": sp.wall_s})

    engine_root: Optional[Span] = None
    for sp in root.walk():
        if sp.name in _ENGINE_ROOTS:
            engine_root = sp
            break
    if engine_root is not None:
        op = str(engine_root.attrs.get("op", engine_root.name))
        stage_s = {s: 0.0 for s in _ENGINE_STAGES}
        for sp in engine_root.walk():
            if sp.name in stage_s:
                stage_s[sp.name] += sp.wall_s
        entry: Dict[str, object] = {
            "stage": f"engine.{op}",
            "wall_s": engine_root.wall_s,
            "trace_id": engine_root.attrs.get("trace_id"),
        }
        stages.append(entry)
        for s in _ENGINE_STAGES:
            stages.append({"stage": f"engine.{op}.{s}", "wall_s": stage_s[s]})

    return {
        "trace_id": ticket.trace_id,
        "seq": ticket.seq,
        "kind": ticket.kind,
        "file": ticket.file,
        "file_id": ticket.file_id,
        "tenant": ticket.tenant,
        "wait_s": ticket.wait_s,
        "batched_with": ticket.batched_with,
        "batch": {
            "trace_id": root.attrs.get("trace_id"),
            "kind": root.attrs.get("kind"),
            "file": root.attrs.get("file"),
            "file_id": root.attrs.get("file_id"),
            "size": root.attrs.get("size"),
            "wall_s": root.wall_s,
        },
        "stages": stages,
    }


def render_timeline(timeline: Dict[str, object]) -> str:
    """A terminal-friendly rendering of :func:`request_timeline`."""
    batch = timeline["batch"]
    lines = [
        f"{timeline['trace_id']}  {timeline['kind']}#{timeline['seq']} "
        f"on {timeline['file']!r}  (batch of {batch['size']}, "
        f"batch trace {batch['trace_id']})"
    ]
    for st in timeline["stages"]:
        wall_us = float(st["wall_s"]) * 1e6
        lines.append(f"  {st['stage']:<28} {wall_us:12.1f} us")
    return "\n".join(lines)
