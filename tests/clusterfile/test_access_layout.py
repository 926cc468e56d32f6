"""Cached access layouts: each access resolved once per (view,
direction, interval) and read by the engine, the I/O servers and the
journal commit.

Byte contents are checked against the per-byte oracle
(``tests/oracle/naive.py``): a view write puts byte ``i`` of its buffer
at file offset ``MAP_V^{-1}(offset + i)``, one byte at a time.

The memory ceiling guards the one-shot case.  A whole-matrix
``bc(768, k = 8, 2 x 2)`` write builds four layouts that are used once
(the ``cold_views`` shape), whose server copies are piece lists.  Its
tracemalloc peak is 4.6-5.7 MiB with the layouts kept (r, b, c
physical), against 4.2-5.3 MiB when every copy was resolved per call
and dropped; the ceiling fails a layout that doubles it.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.clusterfile import Clusterfile
from repro.clusterfile import engine as engine_mod
from repro.clusterfile import view as view_mod
from repro.clusterfile.relayout import relayout
from repro.clusterfile.server import IOServer
from repro.distributions import (
    BlockCyclic,
    matrix_partition,
    multidim_partition,
    round_robin,
    row_blocks,
)
from repro.durability.journal import KIND_DATA, scan_journal
from repro.durability.manager import DurabilityManager
from repro.redistribution import distribute
from repro.redistribution.plan_cache import clear_plan_cache
from repro.simulation import ClusterConfig

from ..oracle.naive import NaiveElement

N = 32
ROWS = row_blocks(N, N, 4)
LAYOUT_PEAK_CEILING_MIB = 8


class _Oracle:
    """The file image a sequence of view writes predicts."""

    def __init__(self, length):
        self.data = np.zeros(length, dtype=np.uint8)

    def write(self, logical, element, offset, buf):
        el = NaiveElement(logical, element)
        for i, b in enumerate(buf):
            self.data[el.unmap(offset + i)] = b

    def read(self, logical, element, offset, n):
        el = NaiveElement(logical, element)
        return np.array(
            [self.data[el.unmap(offset + i)] for i in range(n)],
            dtype=np.uint8,
        )


def _fs(physical="c", **kw):
    fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4), **kw)
    fs.create("m", matrix_partition(physical, N, N, 4))
    return fs


def _bytes(seed, n):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def _assert_file(fs, oracle):
    np.testing.assert_array_equal(fs.linear_contents("m", N * N), oracle.data)


class TestInvalidation:
    def test_view_reset_with_another_logical_partition(self):
        """Two writes of one interval from one node, its view re-set to
        another logical partition in between: the second write maps
        through the new view, not the first view's layout."""
        fs, oracle = _fs(), _Oracle(N * N)
        for seed, logical in enumerate((ROWS, round_robin(4, 8))):
            fs.set_view("m", 0, logical)
            data = _bytes(seed, 100)
            fs.write("m", [(0, 20, data)])
            oracle.write(logical, 0, 20, data)
        _assert_file(fs, oracle)

    def test_relayout_between_identical_accesses(self):
        fs, oracle = _fs(), _Oracle(N * N)
        for seed in range(2):
            for node in range(4):
                fs.set_view("m", node, ROWS)
            data = _bytes(seed, 90)
            fs.write("m", [(1, 10, data)])
            oracle.write(ROWS, 1, 10, data)
            _assert_file(fs, oracle)
            [got] = fs.read("m", [(1, 10, 90)])
            np.testing.assert_array_equal(got, data)
            if not seed:
                relayout(fs, "m", matrix_partition("b", N, N, 4))


class TestMappedOnce:
    def test_read_after_write_on_one_interval_records_a_map_span(self):
        """Reads and writes are keyed apart: the first read of an
        interval a write already mapped still measures its t_m, and a
        repeated read reports t_m = 0."""
        fs = _fs()
        fs.set_view("m", 0, ROWS)
        data = _bytes(3, 64)
        first = fs.write("m", [(0, 8, data)])
        again = fs.write("m", [(0, 8, data)])
        got, read = fs.read_with_result("m", [(0, 8, 64)])
        _, reread = fs.read_with_result("m", [(0, 8, 64)])
        np.testing.assert_array_equal(got[0], data)
        assert "map" in first.trace.phase_names()
        assert "map" in read.trace.phase_names()
        assert read.per_compute[0].t_m > 0
        for repeated in (again, reread):
            assert "map" not in repeated.trace.phase_names()
            assert repeated.per_compute[0].t_m == 0

    def test_extremities_are_mapped_once_per_link(self, monkeypatch):
        real = view_mod._map_extremities
        calls = []

        def counting(view, link, lo, hi):
            calls.append(link.subfile)
            return real(view, link, lo, hi)

        monkeypatch.setattr(view_mod, "_map_extremities", counting)
        fs, oracle = _fs(), _Oracle(N * N)
        view = fs.set_view("m", 0, ROWS)
        for seed in range(100):
            data = _bytes(seed, 200)
            fs.write("m", [(0, 30, data)])
        oracle.write(ROWS, 0, 30, data)
        links = view.layout(True, 30, 229)
        assert len(links) > 1
        assert sorted(calls) == sorted(acc.subfile for acc in links)
        _assert_file(fs, oracle)

    def test_cache_stays_within_its_bound(self):
        bound = view_mod._LAYOUT_CACHE_CAPACITY
        fs, oracle = _fs(), _Oracle(N * N)
        view = fs.set_view("m", 0, ROWS)
        for i in range(bound + 1):
            data = _bytes(i, 2)
            fs.write("m", [(0, i, data)])
            oracle.write(ROWS, 0, i, data)
            assert len(view._layouts) <= bound
        _assert_file(fs, oracle)


def test_four_threads_reading_one_view_get_identical_bytes():
    """Four threads (more than the cores) race to build and read one
    view's layouts, with a short switch interval to interleave them."""
    fs, oracle = _fs(), _Oracle(N * N)
    fs.set_view("m", 0, ROWS)
    data = _bytes(5, 256)
    fs.write("m", [(0, 0, data)])
    oracle.write(ROWS, 0, 0, data)
    windows = [(0, 256), (3, 200), (64, 100)]
    want = [oracle.read(ROWS, 0, off, n) for off, n in windows]
    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def reader(k):
        barrier.wait()
        for _ in range(30):
            results[k].append(fs.read("m", [(0, off, n) for off, n in windows]))

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == 30
        for bufs in got:
            for buf, w in zip(bufs, want):
                np.testing.assert_array_equal(buf, w)


def test_commit_records_equal_the_engine_messages(tmp_path, monkeypatch):
    """A batch from two nodes whose intervals overlap: the redo records
    cover exactly the subfile bytes the servers were sent, and carry the
    post-batch bytes."""
    fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
    fs.create("w", round_robin(4, 16))
    whole = round_robin(1, 16)
    for node in range(2):
        fs.set_view("w", node, whole, 0)
    sent = {s: set() for s in range(4)}
    real_write = IOServer.write

    def spying_write(server, l_s, r_s, payload, segments, *args):
        for a, n in zip(*segments):
            sent[server.store.subfile].update(range(int(a), int(a + n)))
        return real_write(server, l_s, r_s, payload, segments, *args)

    monkeypatch.setattr(IOServer, "write", spying_write)
    a, b = _bytes(6, 100), _bytes(7, 100)
    oracle = np.zeros(150, dtype=np.uint8)
    oracle[0:100], oracle[50:150] = a, b
    with DurabilityManager(str(tmp_path)) as dm:
        dm.register_file(fs, "w")
        fs.write("w", [(0, 0, a), (1, 50, b)])
        dm.commit_write(fs, "w", [(0, 0, 0, 100), (1, 1, 50, 100)])
        d = dm.file_dir("w")
        stores = fs.open("w").stores
        for s in range(4):
            scan = scan_journal(
                os.path.join(d, f"sf{s}.wal"), expect_kind=KIND_DATA
            )
            recorded = set()
            for rec in scan.records:
                payload = np.frombuffer(rec.payload, dtype=np.uint8)
                recorded.update(range(rec.offset, rec.offset + payload.size))
                np.testing.assert_array_equal(
                    payload, stores[s].data[rec.offset : rec.offset + payload.size]
                )
            assert recorded == sent[s]
    np.testing.assert_array_equal(fs.linear_contents("w", 150), oracle)


def test_process_mode_write_and_read_are_byte_identical():
    """The pool serves each job from the cached layout's segments and
    server copy, not from a re-mapping of its own."""
    oracle = _Oracle(N * N)
    outputs = {}
    for mode in ("thread", "process"):
        with _fs(workers_mode=mode, workers=2) as fs:
            for node in range(4):
                fs.set_view("m", node, ROWS)
            jobs = []
            if fs.backend is not None:
                real = fs.backend.exchange_write

                def spying(job_lists, *args, real=real):
                    jobs.extend(job for batch in job_lists for job in batch)
                    return real(job_lists, *args)

                fs.backend.exchange_write = spying
            reads = []
            for seed in range(3):  # the later rounds hit the layouts
                data = [_bytes(10 * seed + node, 200) for node in range(4)]
                fs.write("m", [(node, 17, data[node]) for node in range(4)])
                reads.append(fs.read("m", [(node, 17, 200) for node in range(4)]))
                for node in range(4):
                    np.testing.assert_array_equal(reads[-1][node], data[node])
                    if mode == "thread":
                        oracle.write(ROWS, node, 17, data[node])
            _assert_file(fs, oracle)
            outputs[mode] = reads
            if mode == "process":
                cached = [
                    acc
                    for node in range(4)
                    for acc in fs.view_of("m", node).layout(True, 17, 216)
                ]
                assert len(jobs) == 3 * len(cached)
                for job in jobs:
                    assert any(
                        job["segments"] is acc.segments
                        and job["copy"] is acc.server
                        for acc in cached
                    )
    for a, b in zip(outputs["thread"], outputs["process"]):
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("mode", ["thread", "process"])
class TestServerRead:
    def _capture_replies(self, fs, monkeypatch):
        """Every read reply the servers hand back, as sent."""
        replies = []
        if fs.backend is None:
            real = engine_mod.serve_request

            def spying(op, *args):
                costs, reply = real(op, *args)
                if reply is not None:
                    replies.append((reply, reply.copy()))
                return costs, reply

            monkeypatch.setattr(engine_mod, "serve_request", spying)
        else:
            real_read = fs.backend.exchange_read

            def spying_read(*args):
                costs, got = real_read(*args)
                replies.extend((r, r.copy()) for batch in got for r in batch)
                return costs, got

            fs.backend.exchange_read = spying_read
        return replies

    def test_reply_does_not_alias_the_store(self, mode, monkeypatch):
        with _fs(workers_mode=mode, workers=2) as fs:
            for node in range(4):
                fs.set_view("m", node, ROWS)
            old = [_bytes(node, 256) for node in range(4)]
            fs.write("m", [(node, 0, old[node]) for node in range(4)])
            replies = self._capture_replies(fs, monkeypatch)
            got = fs.read("m", [(node, 0, 256) for node in range(4)])
            fs.write("m", [(node, 0, ~old[node]) for node in range(4)])
            assert replies
            for reply, as_sent in replies:
                np.testing.assert_array_equal(reply, as_sent)
            for node in range(4):
                np.testing.assert_array_equal(got[node], old[node])

    def test_read_past_eof_returns_zeros(self, mode):
        with _fs(workers_mode=mode, workers=2) as fs:
            fs.set_view("m", 0, ROWS)
            data = _bytes(9, 10)
            fs.write("m", [(0, 0, data)])
            [head, tail] = fs.read("m", [(0, 0, 256), (0, 100, 50)])
            np.testing.assert_array_equal(head[:10], data)
            assert not head[10:].any()
            assert not tail.any()


class TestEmptyAccess:
    def test_empty_write_and_read_are_no_ops(self):
        fs, oracle = _fs(), _Oracle(N * N)
        fs.set_view("m", 0, ROWS)
        data = _bytes(11, 16)
        res = fs.write("m", [(0, 0, data), (0, 16, data[:0]), (0, 16, data)])
        oracle.write(ROWS, 0, 0, data)
        oracle.write(ROWS, 0, 16, data)
        _assert_file(fs, oracle)
        alone = fs.write("m", [(0, 5, data[:0])])
        assert alone.messages == 0
        got = fs.read("m", [(0, 0, 16), (0, 3, 0), (0, 16, 16)])
        assert [buf.size for buf in got] == [16, 0, 16]
        np.testing.assert_array_equal(np.concatenate(got), np.tile(data, 2))
        assert res.messages == fs.write("m", [(0, 0, data), (0, 16, data)]).messages


@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_one_shot_block_cyclic_layout_peak_memory(physical):
    n = 768
    cyclic = BlockCyclic(8)
    logical = multidim_partition((n, n), 1, (cyclic, cyclic), (2, 2))
    data = np.random.default_rng(12).integers(0, 256, n * n, dtype=np.uint8)
    pieces = distribute(data, logical)
    clear_plan_cache()
    fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
    fs.create("m", matrix_partition(physical, n, n, 4))
    for e in range(4):
        fs.set_view("m", e, logical)
    tracemalloc.start()
    try:
        fs.write("m", [(e, 0, pieces[e]) for e in range(4)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LAYOUT_PEAK_CEILING_MIB << 20
    np.testing.assert_array_equal(fs.linear_contents("m"), data)
