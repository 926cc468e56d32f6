"""Clusterfile: the paper's case-study parallel file system (simulated)."""

from .collective import (
    CollectiveResult,
    file_domain_partition,
    two_phase_read,
    two_phase_write,
)
from .engine import OperationResult, WriteRequest
from .file_model import ClusterFile, SubfileStore
from .fs import Clusterfile
from .relayout import RelayoutResult, relayout
from .server import IOServer, RequestCost
from .view import LinkAccess, SubfileLink, View, set_view

__all__ = [
    "ClusterFile",
    "CollectiveResult",
    "RelayoutResult",
    "Clusterfile",
    "IOServer",
    "LinkAccess",
    "OperationResult",
    "RequestCost",
    "SubfileLink",
    "SubfileStore",
    "View",
    "WriteRequest",
    "file_domain_partition",
    "relayout",
    "set_view",
    "two_phase_read",
    "two_phase_write",
]
