"""The worker-process pool: lifecycle, ownership mapping, crash
semantics, and shared-memory hygiene.  A dead worker must surface as
:class:`WorkerCrashed` and tear the whole pool (and every one of its
segments) down — never a hang, never a leak."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.clusterfile.fs import Clusterfile
from repro.distributions import round_robin
from repro.mp.pool import ProcessPoolExecutorBackend, WorkerCrashed
from repro.mp.shm import (
    create_segment,
    release_segment,
    shm_segments_alive,
    unlink_segments_of,
)
from repro.simulation.cluster import ClusterConfig


def _write_read_roundtrip(fs, n_bytes=1024, nprocs=4, chunk=64):
    fs.create("f", round_robin(nprocs, chunk))
    rng = np.random.default_rng(7)
    data = {n: rng.integers(0, 256, n_bytes, dtype=np.uint8)
            for n in range(nprocs)}
    for n in range(nprocs):
        fs.set_view("f", n, round_robin(nprocs, chunk), element=n)
    fs.write("f", [(n, 0, data[n]) for n in range(nprocs)], to_disk=True)
    out = fs.read("f", [(n, 0, n_bytes) for n in range(nprocs)],
                  from_disk=True)
    return data, out


class TestLifecycle:
    def test_pool_starts_workers_and_closes_clean(self):
        before = set(shm_segments_alive())
        with ProcessPoolExecutorBackend(
            processes=2, config=ClusterConfig()
        ) as backend:
            assert len(backend._procs) == 2
            assert all(p.is_alive() for p in backend._procs)
            assert set(shm_segments_alive()) > before
        assert backend.closed
        assert set(shm_segments_alive()) == before
        assert all(not p.is_alive() for p in backend._procs)

    def test_close_is_idempotent(self):
        backend = ProcessPoolExecutorBackend(
            processes=1, config=ClusterConfig()
        )
        backend.close()
        backend.close()
        assert backend.closed

    def test_use_after_close_raises(self):
        backend = ProcessPoolExecutorBackend(
            processes=1, config=ClusterConfig()
        )
        backend.close()
        with pytest.raises(RuntimeError):
            backend.exchange_write([[]], [], True, None)

    def test_worker_for_partitions_contiguously(self):
        backend = ProcessPoolExecutorBackend(
            processes=3, config=ClusterConfig()
        )
        try:
            owners = [backend.worker_for(s, 8) for s in range(8)]
            assert owners == sorted(owners)  # contiguous blocks
            assert set(owners) <= {0, 1, 2}
            assert owners[0] == 0 and owners[-1] == 2
        finally:
            backend.close()


class TestCrashSemantics:
    def test_killed_worker_raises_worker_crashed_and_unlinks(self):
        before = set(shm_segments_alive())
        fs = Clusterfile(ClusterConfig(), workers_mode="process", workers=2)
        backend = fs.backend
        backend._procs[0].kill()
        backend._procs[0].join(timeout=10)
        nprocs, chunk = 4, 64
        fs.create("f", round_robin(nprocs, chunk))
        for n in range(nprocs):
            fs.set_view("f", n, round_robin(nprocs, chunk), element=n)
        data = np.arange(256, dtype=np.uint8)
        with pytest.raises(WorkerCrashed, match="died"):
            fs.write("f", [(0, 0, data)], to_disk=True)
        # The crash shut the whole pool down and unlinked its segments.
        assert backend.closed
        assert all(not p.is_alive() for p in backend._procs)
        fs.close()  # store segments go with the deployment
        assert set(shm_segments_alive()) == before

    def test_fs_close_unlinks_everything(self):
        before = set(shm_segments_alive())
        fs = Clusterfile(ClusterConfig(), workers_mode="process", workers=2)
        data, out = _write_read_roundtrip(fs)
        for n, buf in zip(sorted(data), out):
            np.testing.assert_array_equal(buf, data[n])
        assert set(shm_segments_alive()) > before
        fs.close()
        assert set(shm_segments_alive()) == before

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_segments_of_a_killed_process_are_unlinked(self):
        """A segment a SIGKILLed process created but never registered
        with its resource tracker is reclaimed by pid; other processes'
        segments are left alone."""
        script = (
            "import os, sys; sys.path.insert(0, %r)\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.mp.shm import create_segment\n"
            "seg = create_segment(64, 'x')\n"
            "resource_tracker.unregister(seg._name, 'shared_memory')\n"
            "print(seg.name, flush=True)\n"
            "os.kill(os.getpid(), 9)\n"
        ) % os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
        )
        name = proc.stdout.readline().split()[0]
        proc.wait(timeout=60)
        proc.stdout.close()
        assert os.path.exists(os.path.join("/dev/shm", name))
        mine = create_segment(64, "keep")
        try:
            unlink_segments_of(proc.pid)
            assert not os.path.exists(os.path.join("/dev/shm", name))
            assert os.path.exists(os.path.join("/dev/shm", mine.name))
        finally:
            release_segment(mine)


class TestModeValidation:
    def test_bad_workers_mode_rejected(self):
        with pytest.raises(ValueError, match="workers_mode"):
            Clusterfile(ClusterConfig(), workers_mode="fibers")

    def test_process_mode_without_shm_storage_rejected_by_service(self):
        from repro.service import FileService

        fs = Clusterfile(ClusterConfig())  # thread mode, MemoryStorage
        with pytest.raises(ValueError, match="shared memory"):
            FileService(fs, workers_mode="process")
