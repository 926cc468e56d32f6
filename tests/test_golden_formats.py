"""Golden bytes of the snapshot, manifest and flight-ring formats.

The journal's bytes are pinned in ``tests/durability/test_journal.py``
(``GOLDEN_DATA``/``GOLDEN_COMMIT``); these pin the other three on-disk
formats, written and read back, so a change to how they are framed
cannot change what is on disk.
"""

import os
import time

import numpy as np

from repro.clusterfile.fs import Clusterfile
from repro.distributions import round_robin
from repro.durability import DurabilityManager
from repro.durability.manager import MANIFEST_NAME
from repro.durability.snapshot import parse_snapshot, snapshot_bytes
from repro.obs import flightrec as fr
from repro.obs import forensics as fx

SNAPSHOT = bytes.fromhex(
    "52534e5001000000" "22000000" "0c00000000000000"
    "7b226b696e64223a2267222c226c656e677468223a31322c227a223a5b322c315d7d"
    "000102030405060708090a0b" "c01630dc"
)

MANIFEST = (
    b'{"crc":169309425,"epoch":1,"name":"g","partition":{"displacement":0,'
    b'"elements":[[[0,7,8,1]],[[8,15,8,1]]],"format":1},"replication":1,'
    b'"stamp":-1,"version":1}'
)

#: A capacity-4 ring holding one interned file name and one event,
#: written by pid 4242 with the monotonic clock stuck at 1 000 000 007.
RING_HEADER = bytes.fromhex(
    "52465231" "0100" "4000" "04000000" "92100000" "07ca9a3b00000000"
) + bytes(40)
RING_INTERN = bytes.fromhex("02" "bca47bc0" "06" "6c6564676572") + bytes(20)
RING_SLOT = bytes.fromhex(
    "9ce01640" "0100000000000000" "01000000" "07ca9a3b00000000"
    "2a00000000000000" "0700000000000000" "00000000" "bca47bc0"
    "0002000000000000" "4000000000000000"
)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_snapshot_bytes():
    payload = np.arange(12, dtype=np.uint8)
    meta = {"z": [2, 1], "length": 12, "kind": "g"}
    assert snapshot_bytes(payload, meta) == SNAPSHOT
    got, got_meta = parse_snapshot(SNAPSHOT)
    np.testing.assert_array_equal(got, payload)
    assert got_meta == meta


def test_manifest_a_checkpoint_writes(tmp_path):
    fs = Clusterfile()
    fs.create("g", round_robin(2, 8))
    with DurabilityManager(str(tmp_path)) as dm:
        dm.register_file(fs, "g")
        path = os.path.join(dm.file_dir("g"), MANIFEST_NAME)
        assert _read(path) == MANIFEST
    with DurabilityManager(str(tmp_path)) as dm:
        report = dm.recover_into(Clusterfile())
    assert report["g"]["stamp"] == -1


def test_ring_with_one_name_and_one_event(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    monkeypatch.setattr(time, "monotonic_ns", lambda: 1_000_000_007)
    path = str(tmp_path / "flight.ring")
    with fr.FlightRecorder(path, capacity=4) as rec:
        key = rec.file_key("ledger")
        rec.record(fr.EV_OP_START, trace=42, tseq=7, file=key, a=512, b=64)
    monkeypatch.undo()
    want = (
        RING_HEADER
        + RING_INTERN + bytes(63 * 32)
        + bytes(64) + RING_SLOT + bytes(2 * 64)
    )
    assert _read(path) == want
    dump = fx.decode_ring(path)
    assert (dump.pid, dump.created_ns, dump.capacity) == (4242, 1_000_000_007, 4)
    assert (dump.torn, dump.empty) == (0, 3)
    (event,) = dump.events
    assert (event.seq, event.name, event.t_ns, event.trace, event.tseq) == (
        1, "op_start", 1_000_000_007, 42, 7
    )
    assert (dump.file_name(event.file), event.a, event.b) == ("ledger", 512, 64)
