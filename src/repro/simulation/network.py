"""Network cost model (Myrinet-class interconnect, circa 2001).

The paper's cluster used Myrinet.  We model a message-passing network
with the standard alpha-beta cost: a fixed per-message latency plus a
bandwidth term, full-duplex links, and no topology contention (Myrinet's
Clos fabric was close to non-blocking at this node count).  Default
constants are era-appropriate:

* latency ``alpha`` = 10 microseconds (GM user-level messaging),
* bandwidth ``beta`` = 140 MB/s sustained node-to-node.

The model also counts messages and bytes so benchmarks can report the
message-aggregation effects the paper discusses (§1: "the fragmentation
of data results in sending lots of small messages over the network
instead of a few large ones").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["NetworkModel", "NetworkStats", "Network"]

MB = 1_000_000


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta point-to-point cost model."""

    latency_s: float = 10e-6
    bandwidth_Bps: float = 140 * MB

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.bandwidth_Bps <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")

    def transfer_time(self, nbytes: int, messages: int = 1) -> float:
        """Wire time for ``nbytes`` split over ``messages`` messages."""
        if nbytes < 0 or messages < 1:
            raise ValueError("need nbytes >= 0 and messages >= 1")
        return messages * self.latency_s + nbytes / self.bandwidth_Bps


@dataclass
class NetworkStats:
    """Cumulative traffic counters, including a per-(src, dst) byte map;
    :meth:`record` takes a lock, since service workers share a cluster."""

    messages: int = 0
    bytes: int = 0
    by_pair: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, src: str, dst: str, nbytes: int) -> None:
        """Account one message."""
        key = (src, dst)
        with self._lock:
            self.messages += 1
            self.bytes += nbytes
            self.by_pair[key] = self.by_pair.get(key, 0) + nbytes


class Network:
    """A network instance: cost model plus traffic accounting."""

    def __init__(self, model: NetworkModel | None = None) -> None:
        self.model = model or NetworkModel()
        self.stats = NetworkStats()

    def send_time(self, src: str, dst: str, nbytes: int) -> float:
        """Time for one message; the transfer is recorded in the stats."""
        self.stats.record(src, dst, nbytes)
        return self.model.transfer_time(nbytes)

    def reset_stats(self) -> None:
        """Zero the traffic counters (the cost model is unaffected)."""
        self.stats = NetworkStats()
