"""The fault injector: deterministic fault decisions from a plan.

The injector is consulted by the I/O engine on every message attempt
and answers three questions:

* **message fate** — delivered intact, dropped, or corrupted (plus any
  injected delay);
* **node state** — is this I/O node crashed for the current operation,
  and how slow is its disk;
* **how exactly** to corrupt a payload (always a *copy* — the sender's
  buffer is never touched, which is what makes retransmission
  idempotent).

Every answer is a pure function of ``(plan.seed, rule index, operation
id, message identity, attempt)`` through BLAKE2b, so a fault schedule
is reproducible across processes and machines; there is no hidden RNG
state.  Injected faults are counted in the process-wide metrics
registry under ``faults.injected.*``.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
import zlib

import numpy as np

from ..obs import metrics as obs_metrics
from .plan import MESSAGE_KINDS, FaultPlan

__all__ = ["checksum", "FaultInjector"]


def checksum(payload) -> int:
    """CRC32 of a contiguous uint8 buffer (the wire checksum)."""
    return zlib.crc32(memoryview(np.ascontiguousarray(payload)))


def _unit(seed: int, *token) -> float:
    """A deterministic uniform draw in [0, 1) from a hashed token."""
    digest = hashlib.blake2b(
        repr((seed,) + token).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class FaultInjector:
    """Evaluates a :class:`~repro.faults.plan.FaultPlan` per message.

    The only mutable state is the operation counter: each engine
    operation calls :meth:`begin_op` once and threads the returned id
    through its fate queries, so decisions depend on *when* in the
    run an operation happens (crash rules key off it) but never on
    wall-clock time.  Operations may *interleave* (the service layer
    runs many concurrently): id assignment is lock-guarded, and once an
    operation holds its id every fate it draws is a pure function of
    that id — interleaved operations each replay their own schedule
    deterministically.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self._ops = 0
        self._op_lock = threading.Lock()
        # The plan is frozen, so its derived node state is memoised:
        # these queries run once per message per replica on the engine's
        # hot loop and must not re-scan the rule list every time.  The
        # crashed set of an op depends only on *which* crash rules have
        # started by then, so the memo is keyed by that — at most one
        # entry per crash rule plus one — not by operation id.
        self._crash_starts = sorted(
            {r.after_ops for r in self.plan.rules if r.kind == "crash"}
        )
        self._crash_cache: dict = {}
        self._disk_factors: dict = {}
        self._message_rules = tuple(
            (i, r) for i, r in enumerate(self.plan.rules)
            if r.kind in MESSAGE_KINDS
        )

    # -- operation lifecycle -------------------------------------------------

    def begin_op(self, op: str) -> int:
        """Register the start of one engine operation; returns its id."""
        with self._op_lock:
            op_id = self._ops
            self._ops += 1
        return op_id

    @property
    def ops_started(self) -> int:
        return self._ops

    # -- node state ----------------------------------------------------------

    def crashed_nodes(self, op_id: int):
        """The set of I/O nodes down for one op."""
        started = bisect_right(self._crash_starts, op_id)
        nodes = self._crash_cache.get(started)
        if nodes is None:
            # Pure function of the frozen plan + op_id: a racing double
            # compute stores the same value, so no lock is needed.
            nodes = self._crash_cache[started] = self.plan.crashed_nodes(
                op_id
            )
        return nodes

    def node_crashed(self, io_node: int, op_id: int | None = None) -> bool:
        """Whether an I/O node is down for the given (or latest) op."""
        if op_id is None:
            op_id = max(self._ops - 1, 0)
        return io_node in self.crashed_nodes(op_id)

    def disk_factor(self, io_node: int) -> float:
        """Slow-disk multiplier for one node's disk service times."""
        factor = self._disk_factors.get(io_node)
        if factor is None:
            factor = self._disk_factors[io_node] = self.plan.disk_factor(
                io_node
            )
        return factor

    # -- message fate --------------------------------------------------------

    def message_fate(
        self, op_id: int, op: str, compute: int, subfile: int, attempt: int
    ) -> tuple:
        """Decide one message attempt's fate.

        Returns ``(fate, delay_s)`` with ``fate`` one of ``"ok"``,
        ``"drop"``, ``"corrupt"``.  Delay rules are additive and
        independent of the drop/corrupt outcome (a message can be both
        delayed and corrupted).  When several drop/corrupt rules fire
        for one attempt the first in plan order wins.
        """
        if not self._message_rules:  # armed-but-idle: nothing to draw
            return "ok", 0.0
        fate = "ok"
        delay_s = 0.0
        for index, rule in self._message_rules:
            if rule.op is not None and rule.op != op:
                continue
            if rule.compute is not None and rule.compute != compute:
                continue
            if rule.subfile is not None and rule.subfile != subfile:
                continue
            draw = _unit(
                self.plan.seed, index, op_id, op, compute, subfile, attempt
            )
            if draw >= rule.rate:
                continue
            obs_metrics.inc(f"faults.injected.{rule.kind}")
            if rule.kind == "delay":
                delay_s += rule.delay_s
            elif fate == "ok":
                fate = rule.kind
        return fate, delay_s

    def corrupt_payload(self, payload: np.ndarray, *token) -> np.ndarray:
        """A corrupted *copy* of a payload (one byte flipped).

        The flip position is derived from the token, so the same seed
        corrupts the same byte; the original buffer is never modified —
        retransmission re-reads intact data.
        """
        out = np.array(payload, dtype=np.uint8, copy=True)
        if out.size:
            pos = int(_unit(self.plan.seed, "corrupt-pos", *token) * out.size)
            out[pos % out.size] ^= 0xFF
        return out
