"""Multiprocess execution: shared-memory segments and worker pool.

The paper's redistribution pipeline is embarrassingly parallel across
I/O nodes, but CPython threads share one GIL, so the thread-based
service tops out well under core count on data-heavy paths.  ViPIOS
runs its I/O servers as independent *processes* below the API for
exactly this reason; this package does the same for the Clusterfile
engine:

* :mod:`repro.mp.shm` — named ``multiprocessing.shared_memory``
  segments with a cleanup registry that guarantees the creator unlinks
  them on exit, and :class:`TransportError`;
* :mod:`repro.mp.pool` — :class:`ProcessPoolExecutorBackend`, a
  persistent pool of worker processes, each owning a contiguous range
  of subfiles, that executes the engine's server-side work on real
  cores.  Each worker has one pipe for commands and replies and one
  shared-memory slab for payloads.

Exports resolve lazily: ``repro.mp.pool`` pulls in the clusterfile
server models, which themselves use :mod:`repro.mp.shm` for storage —
eager imports here would cycle.
"""

from typing import TYPE_CHECKING

__all__ = [
    "TransportError",
    "ProcessPoolExecutorBackend",
    "WorkerCrashed",
    "shm_segments_alive",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import ProcessPoolExecutorBackend, WorkerCrashed
    from .shm import TransportError, shm_segments_alive

_HOMES = {
    "TransportError": "shm",
    "shm_segments_alive": "shm",
    "ProcessPoolExecutorBackend": "pool",
    "WorkerCrashed": "pool",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{home}", __name__), name)
