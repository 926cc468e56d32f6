"""Fault plans: declarative, seed-driven failure schedules.

A :class:`FaultPlan` is pure data — a seed plus a tuple of
:class:`FaultRule` — and is the *entire* source of nondeterminism in a
chaos run: the injector derives every decision (do this round's
messages to a subfile drop? where does the corrupt bit land? how long
is the jitter?) from a cryptographic hash of the seed and the
decision's identity, for a fate ``(rule index, operation id, operation
kind, subfile, round)``.  The same plan therefore reproduces the same
fault schedule on any machine, in any process, in any test order —
which is what lets CI upload a failing plan as an artifact and a
developer replay it locally byte for byte.

Rule kinds and their fields:

=============  ==============================================================
``drop``       message lost in flight with probability ``rate``
``delay``      message delayed by ``delay_s`` with probability ``rate``
``corrupt``    payload corrupted in flight with probability ``rate``
``crash``      I/O node ``io_node`` is down for operations ``>= after_ops``
``slow_disk``  I/O node ``io_node``'s disk service times scaled by ``factor``
=============  ==============================================================

``op`` / ``subfile`` optionally scope a message rule to one operation
kind (``write``/``read``/``shuffle``/``relayout``) or one subfile (the
destination element for ``shuffle`` and ``relayout``).  A rule has no
sender scope: every message to one subfile in one round shares its
fate, whichever compute node sent it, so a plan JSON that names
``compute`` does not load.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

__all__ = ["FaultRule", "FaultPlan", "MESSAGE_KINDS", "NODE_KINDS"]

#: Rule kinds decided per message attempt.
MESSAGE_KINDS = ("drop", "delay", "corrupt")
#: Rule kinds that describe static I/O-node state.
NODE_KINDS = ("crash", "slow_disk")


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault source; see the module docstring table."""

    kind: str
    #: Probability per subfile and round (message kinds only).
    rate: float = 1.0
    #: Scope filters for message kinds; ``None`` matches everything.
    op: Optional[str] = None
    subfile: Optional[int] = None
    #: Target for node kinds.
    io_node: Optional[int] = None
    #: Added latency for ``delay`` rules, seconds.
    delay_s: float = 0.0
    #: Disk service-time multiplier for ``slow_disk`` rules.
    factor: float = 1.0
    #: First engine operation index for which a ``crash`` rule holds.
    after_ops: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS + NODE_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.kind in NODE_KINDS and self.io_node is None:
            raise ValueError(f"{self.kind} rule needs io_node")
        if self.kind == "delay" and self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.kind == "slow_disk" and self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.after_ops < 0:
            raise ValueError(f"after_ops must be >= 0, got {self.after_ops}")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules it drives.  Immutable, JSON round-trippable."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- queries -------------------------------------------------------------

    def crashed_nodes(self, op_id: int) -> frozenset:
        """I/O-node indices down for operation ``op_id``."""
        return frozenset(
            r.io_node
            for r in self.rules
            if r.kind == "crash" and op_id >= r.after_ops
        )

    def disk_factor(self, io_node: int) -> float:
        """Combined slow-disk multiplier for one node (1.0 = healthy)."""
        factor = 1.0
        for r in self.rules:
            if r.kind == "slow_disk" and r.io_node == io_node:
                factor *= r.factor
        return factor

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "rules": [asdict(r) for r in self.rules]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        raw = json.loads(text)
        return cls(
            seed=int(raw["seed"]),
            rules=tuple(FaultRule(**r) for r in raw["rules"]),
        )
