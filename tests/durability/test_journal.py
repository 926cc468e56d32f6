"""Unit tests for the journal framing and the snapshot format."""

import os

import numpy as np
import pytest

from repro.durability.journal import (
    HEADER_SIZE,
    JOURNAL_MAGIC,
    KIND_COMMIT,
    KIND_DATA,
    RECORD_OVERHEAD,
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
