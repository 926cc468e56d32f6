"""Transport edge cases: the simulated and direct transports, and the
process pool's pipe and segment registry.

Every transport must take the degenerate shapes in stride: zero-byte
messages, a node sending only to itself, and single-node exchanges.
The process pool must turn a worker that dies while the parent waits
on it into a clean :class:`WorkerCrashed` instead of a hang, and the
segment registry must unlink what this process created.
"""

import os
import signal
import threading
import time

import pytest

from repro.clusterfile.engine import (
    DirectTransport,
    SimMessage,
    SimulatedTransport,
)
from repro.mp.pool import ProcessPoolExecutorBackend, WorkerCrashed
from repro.mp.shm import create_segment, release_segment, shm_segments_alive
from repro.simulation import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel


class TestSimulatedTransportEdges:
    def _msg(self, cluster, compute, io_node, nbytes):
        node = cluster.io[io_node]
        return SimMessage(
            key=compute,
            lane=("nic", compute),
            lane_s=0.0,
            stages=((node.cpu, nbytes * 1e-9, "bc"),),
        )

    def test_zero_byte_messages_complete(self):
        cluster = Cluster(ClusterConfig(compute_nodes=2, io_nodes=2))
        t = SimulatedTransport(cluster)
        done = t.run([self._msg(cluster, 0, 0, 0)])
        assert 0 in done.get("bc", {})

    def test_single_node_exchange(self):
        cluster = Cluster(ClusterConfig(compute_nodes=1, io_nodes=1))
        t = SimulatedTransport(cluster)
        done = t.run([self._msg(cluster, 0, 0, 256)])
        assert done["bc"][0] >= 0.0

    def test_empty_batch_is_fine(self):
        cluster = Cluster(ClusterConfig(compute_nodes=2, io_nodes=2))
        assert SimulatedTransport(cluster).run([]) == {}


class TestDirectTransportEdges:
    def test_zero_byte_moves_are_free(self):
        t = DirectTransport(NetworkModel())
        messages, off_node, time_s = t.cost([(0, 1, 0), (1, 2, 0)])
        assert (messages, off_node, time_s) == (0, 0, 0.0)

    def test_self_sends_stay_local(self):
        t = DirectTransport(NetworkModel())
        messages, off_node, time_s = t.cost([(3, 3, 4096)])
        assert messages == 0 and off_node == 0 and time_s == 0.0

    def test_single_element_exchange(self):
        t = DirectTransport(NetworkModel())
        messages, off_node, time_s = t.cost([(0, 1, 4096)])
        assert messages == 1 and off_node == 4096 and time_s > 0.0

    def test_no_network_model_moves_free_but_counted(self):
        messages, off_node, time_s = DirectTransport(None).cost([(0, 1, 64)])
        assert messages == 1 and off_node == 64 and time_s == 0.0


class TestPoolWaits:
    def test_worker_killed_while_parent_waits_raises_worker_crashed(self):
        before = set(shm_segments_alive())
        backend = ProcessPoolExecutorBackend(processes=2)
        victim = backend._procs[1]
        killer = threading.Timer(0.2, os.kill, (victim.pid, signal.SIGKILL))
        t0 = time.monotonic()
        killer.start()
        try:
            # No command was sent, so only the worker's death ends the
            # wait; the 60 s timeout must not be what does.
            with pytest.raises(WorkerCrashed, match="died"):
                backend._recv(1, timeout=60.0)
        finally:
            killer.join()
        assert time.monotonic() - t0 < 5.0
        assert backend.closed
        assert set(shm_segments_alive()) == before


class TestSegmentRegistry:
    def test_close_unlinks_owned_segment(self):
        seg = create_segment(2048, "gone")
        name = seg.name
        assert name in shm_segments_alive()
        release_segment(seg)
        assert name not in shm_segments_alive()
