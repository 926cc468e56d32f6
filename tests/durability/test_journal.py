"""Unit tests for the journal framing and the snapshot format."""

import os
import stat

import numpy as np
import pytest

from repro.clusterfile.fs import Clusterfile
from repro.distributions import round_robin
from repro.durability import DurabilityManager
from repro.durability.journal import (
    HEADER_SIZE,
    JOURNAL_MAGIC,
    KIND_COMMIT,
    KIND_DATA,
    RECORD_OVERHEAD,
    REC_COMMIT,
    REC_WRITE,
    JournalWriter,
    RecoveryError,
    scan_journal,
)
from repro.durability.snapshot import (
    parse_snapshot,
    read_snapshot_file,
    snapshot_bytes,
    write_snapshot_file,
)


class TestJournalRoundTrip:
    def test_records_round_trip(self, tmp_path):
        path = str(tmp_path / "j.wal")
        w = JournalWriter(path, KIND_DATA, subfile=3, epoch=7)
        ends = []
        for i in range(5):
            ends.append(w.append(REC_WRITE, stamp=i, offset=i * 10,
                                 payload=bytes([i]) * (i + 1)))
        w.close()
        scan = scan_journal(path, expect_kind=KIND_DATA, expect_epoch=7)
        assert scan.header_ok
        assert scan.subfile == 3 and scan.epoch == 7
        assert [r.stamp for r in scan.records] == list(range(5))
        assert [r.offset for r in scan.records] == [0, 10, 20, 30, 40]
        assert [r.payload for r in scan.records] == [
            bytes([i]) * (i + 1) for i in range(5)
        ]
        assert [r.end for r in scan.records] == ends
        assert scan.valid_bytes == ends[-1]
        assert scan.tail_discarded == 0

    def test_header_is_durable_at_birth(self, tmp_path):
        """Regression: a journal that never receives a record must
        still have its 12-byte header on disk immediately — commit
        records cut *every* data journal at its current length, so an
        unflushed header makes every later commit look torn after a
        kill."""
        path = str(tmp_path / "empty.wal")
        w = JournalWriter(path, KIND_DATA, subfile=0, epoch=2)
        # No flush, no close — as a SIGKILL would leave it.
        assert os.path.getsize(path) == HEADER_SIZE
        scan = scan_journal(path, expect_kind=KIND_DATA, expect_epoch=2)
        assert scan.header_ok and scan.valid_bytes == HEADER_SIZE
        w.close()

    def test_records_until_cut(self, tmp_path):
        path = str(tmp_path / "j.wal")
        w = JournalWriter(path, KIND_DATA)
        e1 = w.append(REC_WRITE, 1, 0, b"aa")
        e2 = w.append(REC_WRITE, 2, 2, b"bb")
        w.close()
        scan = scan_journal(path)
        assert len(scan.records_until(e2)) == 2
        assert len(scan.records_until(e1)) == 1
        assert len(scan.records_until(e1 + 1)) == 1
        assert len(scan.records_until(HEADER_SIZE)) == 0

    def test_writer_truncates_previous_file(self, tmp_path):
        path = str(tmp_path / "j.wal")
        w = JournalWriter(path, KIND_DATA, epoch=1)
        w.append(REC_WRITE, 1, 0, b"x" * 100)
        w.close()
        w2 = JournalWriter(path, KIND_DATA, epoch=2)
        w2.close()
        scan = scan_journal(path)
        assert scan.epoch == 2 and not scan.records


#: Journal bytes recorded at the commit before appends became
#: ``writev`` of unjoined buffers; the format must not notice.
GOLDEN_DATA = bytes.fromhex(
    "524a4c31010102000500000032b00c013b2a753201070000000000000040000000"
    "0000000010000000000102030405060708090a0b0c0d0e0f1cf69c8932b00c0101"
    "0900000000000000000000000000000003000000010203377b1a9b1cf69c890109"
    "00000000000000001000000000000020000000fffefdfcfbfaf9f8f7f6f5f4f3f2"
    "f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e001025289377b1a9b01090000000000"
    "00000020000000000000000000005e2bbd1d01025289010b000000000000008000"
    "00000000000005000000aaaaaaaaaa"
)
GOLDEN_COMMIT = bytes.fromhex(
    "524a4c3102010000050000008f7cbc70d38c32f102090000000000000000000000"
    "00000000260000007b2263757473223a7b2230223a31322c2232223a3138307d2c"
    "2273657173223a5b372c395d7dd864905d8f7cbc70020b00000000000000000000"
    "0000000000250000007b2263757473223a7b2230223a31322c2232223a3231347d"
    "2c2273657173223a5b31315d7d"
)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write_golden_data(path, wrap=bytes):
    """The appends behind GOLDEN_DATA; ``wrap`` picks the payload type."""
    w = JournalWriter(path, KIND_DATA, subfile=2, epoch=5)
    w.append(REC_WRITE, 7, 64, wrap(bytes(range(16))))
    w.append_many(
        REC_WRITE,
        [
            (9, 0, wrap(b"\x01\x02\x03")),
            (9, 4096, wrap(bytes(range(255, 223, -1)))),
            (9, 8192, wrap(b"")),
        ],
    )
    w.append_many(REC_WRITE, [(11, 128, wrap(b"\xaa" * 5))])
    w.close()
    return w


def _as_store_window(payload):
    """A window into a larger array, as ``SubfileStore.read_bytes``
    hands the commit path."""
    backing = np.frombuffer(b"\xee" + payload + b"\xee", dtype=np.uint8)
    return backing[1 : 1 + len(payload)]


class TestJournalGoldenBytes:
    @pytest.mark.parametrize("wrap", [bytes, _as_store_window])
    def test_data_journal(self, tmp_path, wrap):
        path = str(tmp_path / "sf2.wal")
        w = _write_golden_data(path, wrap)
        assert _read(path) == GOLDEN_DATA
        assert w.length == len(GOLDEN_DATA)

    def test_commit_journal(self, tmp_path):
        path = str(tmp_path / "commit.wal")
        w = JournalWriter(path, KIND_COMMIT, epoch=5)
        w.append(REC_COMMIT, 9, 0, b'{"cuts":{"0":12,"2":180},"seqs":[7,9]}')
        w.append(REC_COMMIT, 11, 0, b'{"cuts":{"0":12,"2":214},"seqs":[11]}')
        w.close()
        assert _read(path) == GOLDEN_COMMIT

    def test_manager_commit_of_a_strided_write(self, tmp_path):
        """One view write landing on two subfiles in 8-byte pieces:
        the three journals, byte for byte."""
        fs = Clusterfile()
        fs.create("g", round_robin(2, 8))
        fs.set_view("g", 0, round_robin(2, 16))
        with DurabilityManager(str(tmp_path)) as dm:
            dm.register_file(fs, "g")
            data = np.arange(40, dtype=np.uint8)
            fs.write("g", [(0, 3, data)])
            dm.commit_write(fs, "g", [(0, 0, 3, data.size)])
            d = dm.file_dir("g")
        golden = {
            "commit.wal": (
                "524a4c31020100000100000092f323bc841b507e02000000000000000000"
                "00000000000000230000007b2263757473223a7b2230223a37382c223122"
                "3a37367d2c2273657173223a5b305d7d"
            ),
            "sf0.wal": (
                "524a4c3101010000010000003c31835b671cdff001000000000000000003"
                "0000000000000025000000000102030400000000000000000d0e0f101112"
                "131400000000000000001d1e1f2021222324"
            ),
            "sf1.wal": (
                "524a4c3101010100010000005e10060ec2cf833b01000000000000000000"
                "000000000000002300000005060708090a0b0c0000000000000000151617"
                "18191a1b1c0000000000000000252627"
            ),
        }
        for name, want in golden.items():
            assert _read(os.path.join(d, name)).hex() == want, name


class TestCommitCoalescing:
    """Redo segments of one batch in one subfile merge only when the
    gap costs no more than the record header it saves."""

    @pytest.mark.parametrize(
        "second_offset, lengths",
        [
            (0, [16]),  # same range twice: dedupes to one record
            (16 + RECORD_OVERHEAD, [32 + RECORD_OVERHEAD]),  # gap == overhead
            (16 + RECORD_OVERHEAD + 1, [16, 16]),  # one byte more: two records
            (2000, [16, 16]),  # was one 2016-byte record under the 4 KiB gap
        ],
    )
    def test_two_same_node_ops_in_one_batch(
        self, tmp_path, second_offset, lengths
    ):
        fs = Clusterfile()
        fs.create("g", round_robin(2, 4096))
        fs.set_view("g", 0, round_robin(2, 4096))
        a = np.full(16, 0xA1, dtype=np.uint8)
        b = np.full(16, 0xB2, dtype=np.uint8)
        with DurabilityManager(str(tmp_path)) as dm:
            dm.register_file(fs, "g")
            fs.write("g", [(0, 0, a), (0, second_offset, b)])
            dm.commit_write(
                fs, "g", [(0, 0, 0, 16), (1, 0, second_offset, 16)]
            )
            scan = scan_journal(os.path.join(dm.file_dir("g"), "sf0.wal"))
        assert [len(r.payload) for r in scan.records] == lengths
        merged = scan.records[-1]
        assert merged.payload[-16:] == b.tobytes()
        assert merged.offset + len(merged.payload) == second_offset + 16


def test_empty_ops_journal_nothing(tmp_path):
    """A batch of zero-length writes appends no data and no commit
    record; one beside a real write adds no record of its own."""
    fs = Clusterfile()
    fs.create("g", round_robin(2, 8))
    fs.set_view("g", 0, round_robin(2, 16))
    with DurabilityManager(str(tmp_path)) as dm:
        dm.register_file(fs, "g")
        d = dm.file_dir("g")
        names = ("commit.wal", "sf0.wal", "sf1.wal")
        before = [_read(os.path.join(d, n)) for n in names]
        fs.write("g", [(0, 5, b"")])
        dm.commit_write(fs, "g", [(0, 0, 5, 0), (1, 0, 9, 0)])
        assert [_read(os.path.join(d, n)) for n in names] == before
        fs.write("g", [(0, 0, np.ones(4, np.uint8)), (0, 20, b"")])
        dm.commit_write(fs, "g", [(2, 0, 0, 4), (3, 0, 20, 0)])
        scan = scan_journal(os.path.join(d, "sf0.wal"))
    assert [(r.offset, r.payload) for r in scan.records] == [(0, b"\1" * 4)]


class TestShortAndLongWritev:
    def test_short_writes_still_yield_a_scannable_journal(
        self, tmp_path, monkeypatch
    ):
        """``writev`` / ``write`` that take a few bytes at a time: the
        journal retries the remainder and the bytes come out the same."""
        real_writev, real_write = os.writev, os.write
        calls = {"writev": 0, "write": 0}

        def short_writev(fd, bufs):
            calls["writev"] += 1
            whole = b"".join(bytes(b) for b in bufs)
            return real_write(fd, whole[: max(1, len(whole) // 3)])

        def short_write(fd, data):
            calls["write"] += 1
            return real_write(fd, bytes(data[:7]))

        monkeypatch.setattr(os, "writev", short_writev)
        monkeypatch.setattr(os, "write", short_write)
        path = str(tmp_path / "sf2.wal")
        _write_golden_data(path, _as_store_window)
        monkeypatch.undo()
        assert calls["write"] > calls["writev"] > 0
        assert _read(path) == GOLDEN_DATA
        scan = scan_journal(path, expect_kind=KIND_DATA, expect_epoch=5)
        assert [r.stamp for r in scan.records] == [7, 9, 9, 9, 11]
        assert scan.tail_discarded == 0

    def test_more_records_than_one_writev_takes(self, tmp_path):
        n = os.sysconf("SC_IOV_MAX")  # 2 buffers per record: 2 calls
        items = [(i, 8 * i, bytes([i % 256]) * 3) for i in range(n)]
        many = str(tmp_path / "many.wal")
        w = JournalWriter(many, KIND_DATA)
        end = w.append_many(REC_WRITE, items)
        w.close()
        one = str(tmp_path / "one.wal")
        w = JournalWriter(one, KIND_DATA)
        for stamp, offset, payload in items:
            w.append(REC_WRITE, stamp, offset, payload)
        w.close()
        assert end == os.path.getsize(many)
        assert _read(many) == _read(one)
        assert len(scan_journal(many).records) == n


class TestJournalDamage:
    def _journal(self, tmp_path, n=4):
        path = str(tmp_path / "j.wal")
        w = JournalWriter(path, KIND_DATA, epoch=1)
        ends = [w.append(REC_WRITE, i, 0, bytes([i + 1]) * 8)
                for i in range(n)]
        w.close()
        return path, w, ends

    def test_truncation_at_every_byte_drops_only_the_tail(self, tmp_path):
        pristine_path, _, ends = self._journal(tmp_path)
        pristine = open(pristine_path, "rb").read()
        path = str(tmp_path / "torn.wal")
        for cut in range(HEADER_SIZE, len(pristine) + 1):
            with open(path, "wb") as fh:
                fh.write(pristine[:cut])
            scan = scan_journal(path, expect_kind=KIND_DATA, expect_epoch=1)
            intact = [e for e in ends if e <= cut]
            assert scan.header_ok
            assert scan.valid_bytes == (intact[-1] if intact else HEADER_SIZE)
            assert len(scan.records) == len(intact)
            assert scan.tail_discarded == cut - scan.valid_bytes

    def test_bit_flip_breaks_chain_from_there(self, tmp_path):
        path, _, ends = self._journal(tmp_path)
        # Flip one byte inside the second record's payload.
        pos = ends[0] + RECORD_OVERHEAD + 3
        with open(path, "r+b") as fh:
            fh.seek(pos)
            b = fh.read(1)
            fh.seek(pos)
            fh.write(bytes([b[0] ^ 0xFF]))
        scan = scan_journal(path)
        assert len(scan.records) == 1  # everything after the flip is gone
        assert scan.valid_bytes == ends[0]
        assert scan.tail_discarded == os.path.getsize(path) - ends[0]

    def test_kind_and_epoch_mismatch_invalidate_whole_file(self, tmp_path):
        path, _, _ends = self._journal(tmp_path)
        wrong_kind = scan_journal(path, expect_kind=KIND_COMMIT)
        assert not wrong_kind.header_ok and not wrong_kind.records
        assert wrong_kind.tail_discarded == os.path.getsize(path)
        wrong_epoch = scan_journal(path, expect_kind=KIND_DATA, expect_epoch=9)
        assert not wrong_epoch.header_ok and not wrong_epoch.records

    def test_bad_magic_and_short_file(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + bytes(HEADER_SIZE - 4))
        assert not scan_journal(path).header_ok
        with open(path, "wb") as fh:
            fh.write(JOURNAL_MAGIC[:2])
        scan = scan_journal(path)
        assert not scan.header_ok and scan.tail_discarded == 2
        assert not scan_journal(str(tmp_path / "absent.wal")).header_ok


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path):
        payload = np.arange(257, dtype=np.uint8) % 255
        meta = {"length": 257, "z": [1, 2]}
        blob = snapshot_bytes(payload, meta)
        got, gmeta = parse_snapshot(blob)
        np.testing.assert_array_equal(got, payload)
        assert gmeta == {"length": 257, "z": [1, 2]}
        path = str(tmp_path / "s.bin")
        write_snapshot_file(path, payload, meta)
        got2, gmeta2 = read_snapshot_file(path)
        np.testing.assert_array_equal(got2, payload)
        assert gmeta2 == gmeta

    def test_golden_bytes(self, tmp_path):
        """The format is pinned byte for byte (recorded before the
        writer stopped concatenating): in memory and on disk."""
        golden = bytes.fromhex(
            "52534e5001000000" "14000000" "0600000000000000"
            "7b2261223a5b315d2c226c656e677468223a367d"
            "7363646100ff" "f707fbc2"
        )
        payload = np.frombuffer(b"scda\x00\xff", dtype=np.uint8)
        meta = {"length": 6, "a": [1]}
        assert snapshot_bytes(payload, meta) == golden
        assert snapshot_bytes(b"scda\x00\xff", meta) == golden
        path = str(tmp_path / "s.bin")
        assert write_snapshot_file(path, payload, meta) == len(golden)
        with open(path, "rb") as fh:
            assert fh.read() == golden
        assert snapshot_bytes(b"", None) == bytes.fromhex(
            "52534e5001000000" "02000000" "0000000000000000" "7b7d" "bb2fd2bf"
        )

    def test_non_uint8_payload_rejected_not_cast(self):
        wide = np.array([256, 257, 513, 1000], dtype=np.int32)
        with pytest.raises(ValueError, match="must be uint8"):
            snapshot_bytes(wide)
        # The same 16 bytes handed over as a buffer are taken as bytes.
        got, _ = parse_snapshot(snapshot_bytes(memoryview(wide)))
        assert got.tobytes() == wide.tobytes()

    def test_bytes_depend_only_on_payload_and_meta(self):
        payload = np.arange(64, dtype=np.uint8)
        a = snapshot_bytes(payload, {"b": 1, "a": 2})
        b = snapshot_bytes(payload.copy(), {"a": 2, "b": 1})
        assert a == b  # canonical meta JSON: key order is irrelevant

    def test_every_header_byte_flip_raises_recovery_error(self):
        payload = np.arange(64, dtype=np.uint8)
        blob = bytearray(snapshot_bytes(payload, {"length": 64}))
        for pos in range(len(blob)):
            damaged = bytearray(blob)
            damaged[pos] ^= 0x01
            with pytest.raises(RecoveryError):
                parse_snapshot(bytes(damaged))

    def test_truncation_raises_recovery_error(self):
        blob = snapshot_bytes(np.arange(64, dtype=np.uint8), {})
        for cut in (0, 4, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(RecoveryError):
                parse_snapshot(blob[:cut])

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "s.bin")
        write_snapshot_file(path, np.zeros(8, dtype=np.uint8), {})
        assert os.listdir(str(tmp_path)) == ["s.bin"]


class TestSyncMode:
    def test_directory_is_fsynced_after_each_rename_and_create(
        self, tmp_path, monkeypatch
    ):
        """``sync=True`` makes new names durable, not just new bytes:
        after every rename into place (snapshot, manifest, the
        namespace's ``tree.bin``) and every journal created, the
        directory holding it is fsynced before the next such step."""
        from repro.namespace import ClusterNamespace

        events = []
        real_fsync, real_replace, real_open = os.fsync, os.replace, os.open

        def fsync(fd):
            st = os.fstat(fd)
            if stat.S_ISDIR(st.st_mode):
                events.append(("dir", st.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            real_replace(src, dst)
            events.append(("name", dst))

        def open_(path, flags, *args):
            fd = real_open(path, flags, *args)
            if flags & os.O_CREAT:
                events.append(("name", path))
            return fd

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "open", open_)
        manager = DurabilityManager(str(tmp_path / "journal"), sync=True)
        ns = ClusterNamespace(Clusterfile(), durability=manager)
        ns.create("/g", round_robin(2, 8))
        manager.close()
        ns.nslog.close()
        monkeypatch.undo()
        names = [i for i, (kind, _) in enumerate(events) if kind == "name"]
        leaves = sorted({os.path.basename(events[i][1]) for i in names})
        assert leaves == [
            "commit.wal", "manifest.json", "meta.wal", "sf0.wal", "sf1.wal",
            "snapshot.bin", "tree.bin",
        ]
        for i, j in zip(names, names[1:] + [len(events)]):
            parent = os.stat(os.path.dirname(events[i][1])).st_ino
            assert ("dir", parent) in events[i + 1 : j], events[i][1]
