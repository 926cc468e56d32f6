"""Concurrency stress: many client threads against one deployment.

The service's contract is that concurrency never changes *what* is
computed, only *when*: operations on one file execute in that file's
admission order, so every file's final bytes — and every individual
read result — must equal a *per-file* serial replay of its admitted
sequence on a fresh deployment.  Sequence numbers are total per file
and deliberately unordered across files, so the tests key every record
by ``(file, seq)`` and assert contiguity file by file.

Two workloads here:

* a mixed write/read/relayout storm over two files sharing clients
  (contention mode — exercises same-file ordering under cross-file
  interleaving);
* 8 client threads over 8 *independent* files (sharding mode — proves
  the no-serialization invariant: the cross-file lock-conflict counter
  stays exactly 0 while every file still matches its serial replay).

Both reconcile the ``service.*`` metrics totals against per-operation
sums from the tickets.  A third drives overlapping writes and reads
from two compute nodes only — so coalesced batches repeat a node —
with the journal on, in thread and process mode, and ends with a
recovery that must reproduce the same bytes.
"""

import threading
from collections import defaultdict

import numpy as np
import pytest

from repro.clusterfile.fs import Clusterfile
from repro.clusterfile.relayout import relayout
from repro.distributions import round_robin
from repro.durability import DurabilityManager
from repro.obs import metrics as obs_metrics
from repro.service import FileService

NPROCS = 4
CHUNK = 16
FILES = ("alpha", "beta")
LAYOUTS = (round_robin(NPROCS, CHUNK), round_robin(2, 2 * CHUNK))


def _deployment(files=FILES, workers_mode="thread"):
    fs = Clusterfile(workers_mode=workers_mode, workers=2)
    for name in files:
        fs.create(name, LAYOUTS[0])
        for node in range(NPROCS):
            fs.set_view(name, node, round_robin(NPROCS, CHUNK))
    return fs


def _client_ops(seed, n_ops, files=FILES, relayouts=True, nodes=NPROCS):
    """One client's operation stream (generated, not yet submitted)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        name = files[int(rng.integers(len(files)))]
        node = int(rng.integers(nodes))
        roll = rng.random()
        if roll < 0.62 or (not relayouts and roll >= 0.92):
            off = int(rng.integers(0, 160))
            data = rng.integers(0, 256, int(rng.integers(1, 48)), dtype=np.uint8)
            ops.append(("write", name, node, off, data))
        elif roll < 0.92:
            off = int(rng.integers(0, 160))
            length = int(rng.integers(1, 48))
            ops.append(("read", name, node, off, length))
        else:
            layout = LAYOUTS[int(rng.integers(len(LAYOUTS)))]
            ops.append(("relayout", name, layout))
    return ops


def _replay_serially(records, files=FILES):
    """Apply each file's admitted sequence, in per-file seq order, on a
    fresh deployment (files are independent, so replay order across
    files is immaterial), mimicking the service's relayout view
    re-establishment."""
    fs = _deployment(files)
    read_results = {}
    by_file = defaultdict(list)
    for (name, seq), op in records.items():
        by_file[name].append((seq, op))
    for name, seq_ops in by_file.items():
        for seq, op in sorted(seq_ops):
            kind = op[0]
            if kind == "write":
                _, name, node, off, data = op
                fs.write(name, [(node, off, data)])
            elif kind == "read":
                _, name, node, off, length = op
                [buf] = fs.read(name, [(node, off, length)])
                read_results[(name, seq)] = buf
            else:
                _, name, layout = op
                saved = [
                    (node, v.logical, v.element)
                    for (n, node), v in list(fs.views.items())
                    if n == name
                ]
                relayout(fs, name, layout)
                for node, logical, element in saved:
                    fs.set_view(name, node, logical, element)
    return fs, read_results


def _run_storm(
    fs, svc, n_threads, ops_per_thread, seed, files, relayouts=True,
    nodes=NPROCS,
):
    """Drive the workload; returns records/tickets keyed by (file, seq)."""
    records = {}
    tickets = {}
    guard = threading.Lock()
    start = threading.Barrier(n_threads)

    def client(i):
        start.wait()
        client_files = files if relayouts else (files[i % len(files)],)
        for op in _client_ops(
            1000 * seed + i, ops_per_thread, client_files, relayouts, nodes
        ):
            if op[0] == "write":
                _, name, node, off, data = op
                t = svc.submit_write(name, node, off, data)
            elif op[0] == "read":
                _, name, node, off, length = op
                t = svc.submit_read(name, node, off, length)
            else:
                _, name, layout = op
                t = svc.submit_relayout(name, layout)
            with guard:
                records[(t.file, t.seq)] = op
                tickets[(t.file, t.seq)] = t

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert svc.drain(timeout=120)
    return records, tickets


def _assert_per_file_contiguity(records, total):
    assert len(records) == total
    # Per file, sequence numbers are a total order: exactly 0..n-1 with
    # no gaps or duplicates.  (Across files they are incomparable.)
    per_file = defaultdict(list)
    for name, seq in records:
        per_file[name].append(seq)
    for name, seqs in per_file.items():
        assert sorted(seqs) == list(range(len(seqs))), (
            f"per-file sequence of {name!r} is not contiguous"
        )
    assert sum(len(s) for s in per_file.values()) == total


def _assert_replay_identical(fs, records, tickets, files):
    replay_fs, replay_reads = _replay_serially(records, files)
    for name in files:
        np.testing.assert_array_equal(
            fs.linear_contents(name),
            replay_fs.linear_contents(name),
            err_msg=f"final bytes of {name!r} diverge from serial replay",
        )
    for key, want in replay_reads.items():
        got = tickets[key].result(timeout=5)
        np.testing.assert_array_equal(
            got, want, err_msg=f"read {key} diverges from serial replay"
        )


def _assert_metrics_reconcile(records, tickets, total, max_queue):
    counts = obs_metrics.snapshot("service")
    gauges = obs_metrics.get_registry().gauges("service")
    # Writes and reads coalesce; a relayout runs alone, uncounted.
    batched = [key for key, op in records.items() if op[0] != "relayout"]
    assert counts["service.enqueued"] == total
    assert counts["service.completed"] == total
    assert counts.get("service.failed", 0) == 0
    assert counts.get("service.rejected", 0) == 0
    # Every write and read rode in exactly one engine batch.
    assert gauges["service.batch_size"]["sum"] == len(batched)
    assert counts["service.batches"] == gauges["service.batch_size"]["count"]
    # Wait time and queue depth were sampled once per operation.
    assert gauges["service.wait_s"]["count"] == total
    assert gauges["service.queue_depth"]["count"] == total
    assert gauges["service.queue_depth"]["max"] <= max_queue
    # Ticket-side per-op facts agree with the registry aggregates.
    assert sum(
        1.0 / tickets[key].batched_with for key in batched
    ) == pytest.approx(counts["service.batches"])
    assert sum(t.wait_s for t in tickets.values()) == pytest.approx(
        gauges["service.wait_s"]["sum"]
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_stress_mixed_workload_equals_serial_replay(seed):
    obs_metrics.reset_metrics("service")
    n_threads = 8
    ops_per_thread = 20
    fs = _deployment()

    with FileService(
        fs, workers=8, max_queue=32, admission="park", max_batch=8
    ) as svc:
        records, tickets = _run_storm(
            fs, svc, n_threads, ops_per_thread, seed, FILES
        )

    total = n_threads * ops_per_thread
    _assert_per_file_contiguity(records, total)

    failures = {
        key: t.exception(timeout=5)
        for key, t in tickets.items()
        if t.exception(timeout=5) is not None
    }
    assert not failures, f"operations failed: {failures}"

    _assert_replay_identical(fs, records, tickets, FILES)
    _assert_metrics_reconcile(records, tickets, total, max_queue=32)


@pytest.mark.parametrize("seed", [0, 1])
def test_stress_independent_files_no_cross_file_conflicts(seed):
    """8 threads over 8 independent files: every file byte-identical to
    its own serial replay, and the cross-file lock-conflict counter —
    incremented whenever a blocked worker finds an active holder tagged
    with a *different* file — stays exactly 0.  Per-file locks make
    cross-file blocking structurally impossible; this pins it."""
    obs_metrics.reset_metrics("service")
    n_threads = 8
    ops_per_thread = 12
    files = tuple(f"shard{i}" for i in range(8))
    fs = _deployment(files)

    with FileService(
        fs, workers=8, max_queue=64, admission="park", max_batch=8
    ) as svc:
        # relayouts=False also pins each thread to one file, making the
        # workload genuinely independent across threads.
        records, tickets = _run_storm(
            fs, svc, n_threads, ops_per_thread, seed, files, relayouts=False
        )
        file_ids = {t.file_id for t in tickets.values()}
        assert len(file_ids) == len(files)

    total = n_threads * ops_per_thread
    _assert_per_file_contiguity(records, total)
    for key, t in tickets.items():
        assert t.exception(timeout=5) is None, f"operation {key} failed"

    _assert_replay_identical(fs, records, tickets, files)

    counts = obs_metrics.snapshot("service")
    assert counts.get("service.lock.cross_file_conflicts", 0) == 0
    assert counts["service.completed"] == total


@pytest.mark.parametrize("workers_mode", ["thread", "process"])
def test_stress_same_node_bursts_equal_serial_replay_and_recover(
    workers_mode, tmp_path
):
    """Two compute nodes, eight clients, offsets within 160 bytes: the
    queues fill with overlapping same-node writes (and reads of them),
    so coalesced batches carry a node several times.  Bytes and read
    results must equal the per-file serial replay, in both executor
    modes, and the journal those batches were committed to must
    recover to the same bytes."""
    obs_metrics.reset_metrics("service")
    n_threads = 8
    ops_per_thread = 16
    fs = _deployment(workers_mode=workers_mode)
    try:
        with DurabilityManager(str(tmp_path)) as dm:
            for name in FILES:
                dm.register_file(fs, name)
            with FileService(
                fs, workers=2, max_queue=32, max_batch=8, durability=dm
            ) as svc:
                records, tickets = _run_storm(
                    fs, svc, n_threads, ops_per_thread, 7, FILES,
                    relayouts=False, nodes=2,
                )
        total = n_threads * ops_per_thread
        _assert_per_file_contiguity(records, total)
        for key, t in tickets.items():
            assert t.exception(timeout=5) is None, f"operation {key} failed"
        # With two nodes, any batch of three repeats one.
        assert max(t.batched_with for t in tickets.values()) > 2
        _assert_replay_identical(fs, records, tickets, FILES)
        _assert_metrics_reconcile(records, tickets, total, max_queue=32)

        recovered = Clusterfile()
        with DurabilityManager(str(tmp_path)) as dm:
            dm.recover_into(recovered)
        for name in FILES:
            np.testing.assert_array_equal(
                recovered.linear_contents(name),
                fs.linear_contents(name),
                err_msg=f"recovered bytes of {name!r} diverge",
            )
    finally:
        fs.close()
