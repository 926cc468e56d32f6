"""Cached access layouts: each access resolved once per (layout table,
direction, interval) and read by the engine, the I/O servers and the
journal commit.  A deployment shares one table among the views of one
(logical, element, physical) triple, whatever file they are set on.

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


# -- layout tables shared by the views of one deployment ---------------------


def _files(fs, names, physical="c"):
    for name in names:
        fs.create(name, matrix_partition(physical, N, N, 4))
        for node in range(4):
            fs.set_view(name, node, ROWS)


def _count_builds(monkeypatch):
    """Record every layout build as ``(write, lo, hi)`` and every
    extremity mapping as its subfile."""
    builds, maps = [], []
    real_build, real_map = view_mod.View._link_accesses, view_mod._map_extremities

    def building(view, write, lo, hi):
        builds.append((view.element, write, lo, hi))
        return real_build(view, write, lo, hi)

    def mapping(view, link, x0, x1):
        maps.append(link.subfile)
        return real_map(view, link, x0, x1)

    monkeypatch.setattr(view_mod.View, "_link_accesses", building)
    monkeypatch.setattr(view_mod, "_map_extremities", mapping)
    return builds, maps


#: ``(node, offset, length)`` of the accesses every file gets.
WINDOWS = ((0, 20, 100), (3, 7, 90))


def _write_all(fs, names, oracles, seed):
    for j, name in enumerate(names):
        for node, off, n in WINDOWS:
            data = _bytes(1000 * seed + 10 * j + node, n)
            fs.write(name, [(node, off, data)])
            oracles[name].write(ROWS, node, off, data)


def _assert_files(fs, oracles):
    for name, oracle in oracles.items():
        np.testing.assert_array_equal(fs.linear_contents(name, N * N), oracle.data)


class TestSharedTables:
    def test_files_with_one_pattern_pair_build_each_layout_once(
        self, monkeypatch
    ):
        fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
        names = [f"f{j}" for j in range(4)]
        _files(fs, names)
        builds, maps = _count_builds(monkeypatch)
        oracles = {name: _Oracle(N * N) for name in names}
        for seed in range(3):
            _write_all(fs, names, oracles, seed)
            for name in names:
                for node, off, n in WINDOWS:
                    [got] = fs.read(name, [(node, off, n)])
                    np.testing.assert_array_equal(
                        got, oracles[name].read(ROWS, node, off, n)
                    )
        _assert_files(fs, oracles)
        assert sorted(builds) == sorted(
            (node, w, off, off + n - 1) for node, off, n in WINDOWS
            for w in (True, False)
        )
        tables = {
            id(fs.view_of(name, node)._layouts)
            for name in names
            for node in range(4)
        }
        assert len(tables) == len(fs._layout_tables) == 4
        linked = [
            acc.subfile
            for node, off, n in WINDOWS
            for w in (True, False)
            for acc in fs.view_of("f0", node).layout(w, off, off + n - 1)
        ]
        assert sorted(maps) == sorted(linked)

    def test_different_physical_partitions_do_not_share(self):
        fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
        _files(fs, ["c0", "c1"], "c")
        _files(fs, ["b0"], "b")
        assert fs.view_of("c0", 0)._layouts is fs.view_of("c1", 0)._layouts
        assert fs.view_of("c0", 0)._layouts is not fs.view_of("b0", 0)._layouts
        assert fs.view_of("c0", 0)._layouts is not fs.view_of("c0", 1)._layouts
        oracles = {name: _Oracle(N * N) for name in ("c0", "c1", "b0")}
        _write_all(fs, list(oracles), oracles, 0)
        _assert_files(fs, oracles)

    def test_relayout_gives_the_file_a_new_table(self, monkeypatch):
        fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
        names = ["f0", "f1", "f2"]
        _files(fs, names)
        oracles = {name: _Oracle(N * N) for name in names}
        _write_all(fs, names, oracles, 0)
        shared = fs.view_of("f1", 0)._layouts
        relayout(fs, "f0", matrix_partition("b", N, N, 4))
        for node in range(4):
            fs.set_view("f0", node, ROWS)
        assert fs.view_of("f0", 0)._layouts is not shared
        builds, _ = _count_builds(monkeypatch)
        _write_all(fs, ["f1", "f2"], oracles, 1)
        assert builds == []  # the other files' layouts survived
        _write_all(fs, ["f0"], oracles, 2)
        assert len(builds) == 2  # one per (node, interval), for the new table
        _assert_files(fs, oracles)
        # A same-layout re-layout finds the table the other file holds.
        relayout(fs, "f1", fs.open("f1").physical)
        for node in range(4):
            fs.set_view("f1", node, ROWS)
        assert fs.view_of("f1", 0)._layouts is shared
        _write_all(fs, ["f1"], oracles, 3)
        assert len(builds) == 2
        _assert_files(fs, oracles)

    def test_two_deployments_do_not_share(self):
        runs = []
        for _ in range(2):
            fs = _fs()
            fs.set_view("m", 0, ROWS)
            data = _bytes(4, 64)
            runs.append((fs, fs.write("m", [(0, 8, data)])))
        (fs_a, first), (fs_b, second) = runs
        assert fs_a.view_of("m", 0)._layouts is not fs_b.view_of("m", 0)._layouts
        for res in (first, second):
            assert "map" in res.trace.phase_names()
            assert res.per_compute[0].t_m > 0

    def test_table_count_stays_bounded(self):
        fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
        _files(fs, ["keep"])
        oracles = {"keep": _Oracle(N * N)}
        for i in range(12):
            physical = ("c", "b", "r")[i % 3]
            relayout(fs, "keep", matrix_partition(physical, N, N, 4))
            for node in range(4):
                fs.set_view("keep", node, ROWS)
            _write_all(fs, ["keep"], oracles, i)
            assert len(fs._layout_tables) == 4
            # Unlink and re-create a file under a pattern of its own.
            fs.create("temp", round_robin(4, i + 1))
            fs.set_view("temp", 0, round_robin(2, i + 3), 0)
            fs.write("temp", [(0, 0, _bytes(i, 40))])
            assert len(fs._layout_tables) == 5
            fs.unlink("temp")
            assert len(fs._layout_tables) == 4
        _assert_files(fs, oracles)
        for name in list(fs.files):
            fs.unlink(name)
        assert fs._layout_tables == {}

    def test_view_reset_drops_the_table_no_view_holds(self):
        fs = _fs()
        fs.set_view("m", 0, ROWS)
        fs.set_view("m", 0, round_robin(4, 8))
        assert len(fs._layout_tables) == 1
        assert fs._layout_tables[next(iter(fs._layout_tables))] is (
            fs.view_of("m", 0)._layouts
        )


def test_four_threads_on_two_files_sharing_a_table_read_the_same_bytes():
    fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
    names = ["a", "b"]
    _files(fs, names)
    assert fs.view_of("a", 0)._layouts is fs.view_of("b", 0)._layouts
    oracles = {name: _Oracle(N * N) for name in names}
    for j, name in enumerate(names):
        data = _bytes(20 + j, 256)
        fs.write(name, [(0, 0, data)])
        oracles[name].write(ROWS, 0, 0, data)
    windows = [(0, 256), (3, 200), (64, 100)]
    want = {
        name: [oracles[name].read(ROWS, 0, off, n) for off, n in windows]
        for name in names
    }
    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def reader(k):
        barrier.wait()
        for i in range(30):
            name = names[(k + i) % 2]
            bufs = fs.read(name, [(0, off, n) for off, n in windows])
            results[k].append((name, bufs))

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
        for name, bufs in got:
            for buf, w in zip(bufs, want[name]):
                np.testing.assert_array_equal(buf, w)


class TestUnlinkForgetsViews:
    def test_recreated_file_does_not_write_through_old_links(self):
        fs = Clusterfile(ClusterConfig(compute_nodes=4, io_nodes=4))
        fs.create("f", matrix_partition("r", N, N, 4))
        for node in range(4):
            fs.set_view("f", node, ROWS)
        fs.unlink("f")
        fs.create("f", matrix_partition("c", N, N, 4))
        with pytest.raises(KeyError):
            fs.write("f", [(0, 0, _bytes(30, 1024))])
        oracle = _Oracle(N * N)
        fs.set_view("f", 0, ROWS)
        data = _bytes(31, 256)
        fs.write("f", [(0, 0, data)])
        oracle.write(ROWS, 0, 0, data)
        np.testing.assert_array_equal(fs.linear_contents("f", N * N), oracle.data)

    def test_recovery_over_a_file_of_another_layout_drops_its_views(
        self, tmp_path
    ):
        """Recovery unlinks and re-creates every manifested name: views
        on the replaced file referred to its old subfiles."""
        source, oracle = _fs(), _Oracle(N * N)
        source.set_view("m", 0, ROWS)
        data = _bytes(32, 256)
        with DurabilityManager(str(tmp_path)) as dm:
            dm.register_file(source, "m")
            source.write("m", [(0, 0, data)])
            dm.commit_write(source, "m", [(0, 0, 0, data.size)])
        oracle.write(ROWS, 0, 0, data)
        target = _fs(physical="r")
        for node in range(4):
            target.set_view("m", node, ROWS)
        with DurabilityManager(str(tmp_path)) as dm:
            dm.recover_into(target)
        np.testing.assert_array_equal(target.linear_contents("m", N * N), oracle.data)
        with pytest.raises(KeyError):
            target.write("m", [(0, 0, _bytes(33, 1024))])
        target.set_view("m", 1, ROWS)
        more = _bytes(34, 100)
        target.write("m", [(1, 5, more)])
        oracle.write(ROWS, 1, 5, more)
        np.testing.assert_array_equal(target.linear_contents("m", N * N), oracle.data)
