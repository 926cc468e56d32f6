"""Named POSIX shared-memory segments with an owner.

The multiprocess engine keeps everything it shares in segments made
here: the subfile stores of
:class:`~repro.clusterfile.storage.SharedMemoryStorage` and the
per-worker slabs of :class:`~repro.mp.pool.ProcessPoolExecutorBackend`.

Cleanup: every segment created through :func:`create_segment` is
recorded in a process-local registry and unlinked by an ``atexit``
hook, so segments cannot outlive the parent even on an unhandled
exception.  Attachers (worker processes) only ever *close* their
mapping; the creator owns the name.
"""

from __future__ import annotations

import atexit
import os
import threading
from multiprocessing import shared_memory
from typing import Dict

__all__ = [
    "TransportError",
    "create_segment",
    "attach_segment",
    "release_segment",
    "shm_segments_alive",
    "unlink_segments_of",
]


class TransportError(RuntimeError):
    """A pool protocol failure (a worker that stops replying, a failed
    worker batch, a closed pool) — never silently swallowed, never a
    hang."""


#: Segments created (and therefore owned) by this process.
_OWNED: Dict[str, shared_memory.SharedMemory] = {}
#: Segments merely attached (owned by another process).
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_SEQ = 0


_ATTACH_LOCK = threading.Lock()


class _suppress_tracker_register:
    """Keep the resource tracker out of attach-only mappings.

    CPython < 3.13 registers *every* ``SharedMemory(name=...)`` with the
    resource tracker, which (a) makes a spawn-context attacher's tracker
    unlink a segment the parent still owns when the attacher exits, and
    (b) under fork — where parent and children share one tracker — makes
    an ``unregister``-after-attach workaround delete the parent's own
    registration, so the parent's later unlink raises in the tracker.
    Suppressing the registration during attach avoids both: ownership
    stays exactly where :func:`create_segment` put it.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker

        _ATTACH_LOCK.acquire()
        self._mod = resource_tracker
        self._orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        return self

    def __exit__(self, *exc):
        self._mod.register = self._orig
        _ATTACH_LOCK.release()


def _prefix(pid: int) -> str:
    return f"repro-{pid}-"


def create_segment(size: int, hint: str = "seg") -> shared_memory.SharedMemory:
    """A fresh uniquely named shared-memory segment, registered for
    unlink-at-exit."""
    global _SEQ
    _SEQ += 1
    name = f"{_prefix(os.getpid())}{_SEQ}-{hint}"[:30]
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    _OWNED[shm.name] = shm
    return shm


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking ownership."""
    with _suppress_tracker_register():
        shm = shared_memory.SharedMemory(name=name)
    _ATTACHED[shm.name] = shm
    return shm


def release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close (and, if owned here, unlink) one segment.  Idempotent.

    Registrations are matched by *instance*, not by name: a same-process
    attacher closing its mapping must not disturb (let alone unlink) the
    creator's registration for the same name.
    """
    owned = _OWNED.get(shm.name) is shm
    if owned:
        del _OWNED[shm.name]
    if _ATTACHED.get(shm.name) is shm:
        del _ATTACHED[shm.name]
    try:
        shm.close()
    except Exception:
        pass
    if owned:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def shm_segments_alive() -> list[str]:
    """Names of segments this process still owns (diagnostics/tests)."""
    return sorted(_OWNED)


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - exit hook
    for shm in list(_ATTACHED.values()):
        try:
            shm.close()
        except Exception:
            pass
    _ATTACHED.clear()
    for shm in list(_OWNED.values()):
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
    _OWNED.clear()


def unlink_segments_of(pid: int) -> None:
    """Unlink every segment a SIGKILLed process created (the names carry
    its pid).  Its resource tracker would unlink only the ones it had
    registered; a kill between ``shm_open`` and that registration,
    inside ``SharedMemory``, leaves the segment to whoever killed the
    process.  Linux only (``/dev/shm``); elsewhere a no-op."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return
    for name in names:
        if name.startswith(_prefix(pid)):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except FileNotFoundError:  # its tracker got there first
                pass
