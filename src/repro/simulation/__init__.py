"""Simulated cluster substrate: network, disk and cache cost models,
the node layout, and the Table 1/2 breakdown records.  The FIFO stage
schedule that prices an operation's message log on these models is
:mod:`repro.simulation.price`."""

from .cache import MemoryModel
from .cluster import Cluster, ClusterConfig, IONode
from .disk import DiskHead, DiskModel, write_time_for_segments
from .metrics import ScatterBreakdown, WriteBreakdown
from .network import Network, NetworkModel, NetworkStats

__all__ = [
    "Cluster",
    "ClusterConfig",
    "DiskHead",
    "DiskModel",
    "IONode",
    "MemoryModel",
    "Network",
    "NetworkModel",
    "NetworkStats",
    "ScatterBreakdown",
    "WriteBreakdown",
    "write_time_for_segments",
]
