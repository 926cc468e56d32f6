"""Simulated cluster substrate: events, network, disk, cache, metrics."""

from .cache import MemoryModel
from .cluster import Cluster, ClusterConfig, ComputeNode, IONode
from .disk import DiskHead, DiskModel, write_time_for_segments
from .events import EventQueue, Resource
from .metrics import ScatterBreakdown, Stopwatch, WriteBreakdown, mean_breakdown
from .network import Network, NetworkModel, NetworkStats

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ComputeNode",
    "DiskHead",
    "DiskModel",
    "EventQueue",
    "IONode",
    "MemoryModel",
    "Network",
    "NetworkModel",
    "NetworkStats",
    "Resource",
    "ScatterBreakdown",
    "Stopwatch",
    "WriteBreakdown",
    "mean_breakdown",
    "write_time_for_segments",
]
