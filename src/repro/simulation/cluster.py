"""The simulated cluster: nodes, devices, and configuration.

Stands in for the paper's testbed — "a cluster of 16 Pentium III
800 MHz ... interconnected by Myrinet.  Each machine is equipped with
IDE disks ... Eight nodes were used: four compute nodes and four I/O
nodes" (§8.2).  Compute nodes run the application and the view-side
mapping code; each I/O node owns one subfile on its own disk behind a
buffer cache, with a FIFO CPU and a FIFO disk (requests from different
compute nodes queue — the contention the paper lists as inefficiency
source number three).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .cache import MemoryModel
from .disk import DiskHead, DiskModel
from .events import EventQueue, Resource
from .network import Network, NetworkModel

__all__ = ["ClusterConfig", "ComputeNode", "IONode", "Cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster shape and device models (defaults mirror the paper)."""

    compute_nodes: int = 4
    io_nodes: int = 4
    network: NetworkModel = field(default_factory=NetworkModel)
    disk: DiskModel = field(default_factory=DiskModel)
    memory: MemoryModel = field(default_factory=MemoryModel)
    #: Control-message size for (l_S, r_S) request headers and acks,
    #: bytes.  Every request path — independent writes/reads, two-phase
    #: collectives, relayout — prices headers from here.
    header_bytes: int = 16
    #: The paper notes: "We didn't optimize the contiguous write case to
    #: write directly from the network card to buffer cache.  Therefore,
    #: we perform an additional copy."  Keeping the extra copy (False)
    #: reproduces their convergence of all three layouts at large sizes;
    #: setting True models the optimisation they forgo.
    contiguous_write_optimized: bool = False

    def __post_init__(self) -> None:
        if self.compute_nodes < 1 or self.io_nodes < 1:
            raise ValueError("need at least one compute node and one I/O node")
        if self.header_bytes < 0:
            raise ValueError(f"header_bytes must be >= 0, got {self.header_bytes}")


class ComputeNode:
    """An application host: issues view I/O."""

    def __init__(self, index: int):
        self.index = index
        self.name = f"compute{index}"


class IONode:
    """An I/O server host: one subfile store and one disk behind a
    FIFO CPU and a FIFO disk queue.  The buffer cache holds no state:
    it is the ``config.memory`` cost model.

    ``disk_model`` overrides the cluster-wide disk model for this node —
    heterogeneous clusters (one aging drive) are how the paper's
    observation that "t_w is limited by the slowest I/O server" is
    tested directly.
    """

    def __init__(
        self,
        index: int,
        config: ClusterConfig,
        disk_model: DiskModel | None = None,
    ):
        self.index = index
        self.name = f"io{index}"
        self.disk = DiskHead(disk_model or config.disk)
        self.cpu = Resource(f"{self.name}.cpu")
        self.disk_queue = Resource(f"{self.name}.disk")


class Cluster:
    """Simulation container: nodes plus a shared network and event queue.

    A fresh :class:`EventQueue` is created per operation via
    :meth:`new_operation` so operation timings are independent, while
    device state (disk head position, traffic stats)
    persists across operations like on a real cluster.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        disk_models: List[DiskModel] | None = None,
    ):
        self.config = config or ClusterConfig()
        if disk_models is not None and len(disk_models) != self.config.io_nodes:
            raise ValueError(
                f"need one disk model per I/O node "
                f"({self.config.io_nodes}), got {len(disk_models)}"
            )
        self.network = Network(self.config.network)
        self.compute: List[ComputeNode] = [
            ComputeNode(i) for i in range(self.config.compute_nodes)
        ]
        self.io: List[IONode] = [
            IONode(i, self.config, disk_models[i] if disk_models else None)
            for i in range(self.config.io_nodes)
        ]

    def new_operation(self) -> EventQueue:
        """Start a fresh operation timeline.

        The returned queue *is* the operation context: it owns the
        resource schedule clocks (every timeline starts at 0 with all
        resources free), so concurrent operations on separate queues
        are fully re-entrant.  Physical device state — disk head
        positions, traffic statistics — persists
        across operations, like on a real cluster.
        """
        return EventQueue()

    def io_node_for(self, subfile: int) -> IONode:
        """Subfiles are assigned to I/O nodes round-robin, one subfile per
        node in the paper's configuration."""
        return self.io[subfile % len(self.io)]
