"""Append-only, CRC-chained journal files (the write-ahead log).

One journal file is a 12-byte header followed by a sequence of records.
Every record's checksum covers its body *and* chains to the previous
record's checksum (the first record chains to the CRC of the header),
so a scan can tell three failure modes apart without any out-of-band
state:

* a **torn tail** — the process died mid-append: the last record is
  short or its CRC does not match.  The scan stops at the last intact
  record and reports how many tail bytes it discarded;
* **bit rot / overwrite** — a record's bytes changed after commit: its
  CRC breaks, and (because of chaining) so does every record after it;
* **cross-file confusion** — a journal replayed against the wrong
  subfile or epoch: the header carries both, and the scan refuses to
  yield records from a header that does not match what the reader
  expects.

The format is deliberately dumb: fixed little-endian framing,
``zlib.crc32`` (ubiquitous, fast, good enough for torn-write
detection — this is not a cryptographic log), and no compaction.
Compaction is the checkpoint's job: a snapshot plus *empty* journals at
a bumped epoch supersedes any journal content from earlier epochs.

Layout::

    header  := magic "RJL1" | kind u8 | version u8 | subfile u16 | epoch u32
    record  := crc u32 | body
    body    := prev_crc u32 | rtype u8 | stamp u64 | offset u64
               | length u32 | payload[length]

``crc = crc32(body)`` and ``prev_crc`` is the previous record's ``crc``
(the header's CRC for the first record) — the chain.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "KIND_DATA",
    "KIND_COMMIT",
    "KIND_META",
    "REC_WRITE",
    "REC_COMMIT",
    "REC_META",
    "RecoveryError",
    "JournalRecord",
    "JournalScan",
    "JournalWriter",
    "scan_journal",
]

JOURNAL_MAGIC = b"RJL1"
JOURNAL_VERSION = 1

#: Journal *file* kinds (what stream this file is).
KIND_DATA = 1  # per-subfile redo data
KIND_COMMIT = 2  # per-file commit records (group-commit boundaries)
KIND_META = 3  # namespace metadata operations

#: Record types within a stream.
REC_WRITE = 1  # redo bytes at a subfile offset
REC_COMMIT = 2  # a group commit (payload: canonical JSON)
REC_META = 3  # one namespace operation (payload: canonical JSON)

_HEADER = struct.Struct("<4sBBHI")  # magic, kind, version, subfile, epoch
_BODY = struct.Struct("<IBQQI")  # prev_crc, rtype, stamp, offset, length
_CRC = struct.Struct("<I")

HEADER_SIZE = _HEADER.size  # 12
RECORD_OVERHEAD = _CRC.size + _BODY.size  # 4 + 25 = 29 bytes per record

#: Buffers one ``writev(2)`` takes (1024 on Linux).  A longer list goes
#: out in several calls.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class RecoveryError(RuntimeError):
    """Recovery found damage it must not silently repair.

    Torn journal *tails* are expected crash debris and are dropped
    silently (counted, not raised).  ``RecoveryError`` is reserved for
    damage that makes the recovered state untrustworthy: a corrupt
    snapshot body, an unreadable manifest, a journal whose header
    belongs to a different file or kind.  This is the only exception
    the durability layer raises past its API.
    """


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def pack_header(kind: int, subfile: int, epoch: int) -> bytes:
    return _HEADER.pack(JOURNAL_MAGIC, kind, JOURNAL_VERSION, subfile, epoch)


@dataclass
class JournalRecord:
    """One intact record, as yielded by :func:`scan_journal`."""

    rtype: int
    stamp: int
    offset: int
    payload: bytes
    #: Byte offset *one past* this record in the journal file — the
    #: value a commit record's ``cuts`` refer to.
    end: int


@dataclass
class JournalScan:
    """What a journal scan found: the intact prefix, and the damage."""

    kind: int = 0
    subfile: int = 0
    epoch: int = 0
    header_ok: bool = False
    records: List[JournalRecord] = field(default_factory=list)
    #: Length in bytes of the valid prefix (header included).
    valid_bytes: int = 0
    #: Bytes after the valid prefix (torn/corrupt tail), discarded.
    tail_discarded: int = 0

    def records_until(self, cut: int) -> List[JournalRecord]:
        """The records whose bytes lie entirely within ``[0, cut)``."""
        return [r for r in self.records if r.end <= cut]


class JournalWriter:
    """Appends CRC-chained records to one journal file.

    A writer always starts a *fresh* journal (truncating any previous
    file): the recovery protocol never appends to a journal it did not
    write — it replays old epochs into a snapshot and starts new, empty
    journals at a bumped epoch.

    The file is a raw descriptor: every append is one ``writev(2)``
    straight into the OS page cache — record heads and payload buffers
    go to the kernel as they are, never joined in user space — so a
    record is kill-durable the moment :meth:`append`/:meth:`append_many`
    returns — including the header written at construction, which must
    be durable from birth (a commit record's cuts name *every* data
    journal at its current length, so an untouched journal whose header
    never reached the OS would make every later commit look torn after
    a kill).  This also keeps the group-commit hot path at one syscall
    per touched journal with no separate flush step.  :meth:`flush`
    therefore only matters with ``sync=True``, where it fsyncs for
    power-loss durability.

    A payload is any contiguous bytes-like object (``bytes``, or a
    ``uint8`` array over a subfile store); it must not change before
    the append returns.
    """

    def __init__(self, path: str, kind: int, subfile: int = 0,
                 epoch: int = 0, sync: bool = False):
        self.path = path
        self.kind = kind
        self.subfile = subfile
        self.epoch = epoch
        self.sync = sync
        header = pack_header(kind, subfile, epoch)
        self._fd: Optional[int] = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666
        )
        self._chain = _crc(header)
        self._length = 0
        self._writev([header], len(header))
        if sync:
            os.fsync(self._fd)

    @property
    def length(self) -> int:
        """Bytes written so far (header included) — the journal length a
        commit record's cut refers to after a :meth:`flush`."""
        return self._length

    def _writev(self, bufs: list, nbytes: int) -> None:
        """Write ``bufs`` (``nbytes`` in all) at the journal's end."""
        fd = self._fd
        if len(bufs) > _IOV_MAX:
            for i in range(0, len(bufs), _IOV_MAX):
                part = bufs[i : i + _IOV_MAX]
                self._writev(part, sum(len(b) for b in part))
            return
        done = os.writev(fd, bufs)
        if done < nbytes:
            # Short write (signal, quota edge): rare enough that one
            # copy of the remainder is the simplest correct retry.
            rest = memoryview(b"".join(bufs))[done:]
            while rest:
                rest = rest[os.write(fd, rest) :]
        self._length += nbytes

    def append(self, rtype: int, stamp: int, offset: int, payload) -> int:
        """Append one record; returns the journal length after it.

        The write goes straight to the OS, so the record is
        kill-durable on return; write ordering across journals follows
        call ordering.
        """
        if self._fd is None:
            raise ValueError(f"journal {self.path} is closed")
        n = len(payload)
        prefix = _BODY.pack(self._chain, rtype, stamp, offset, n)
        crc = zlib.crc32(payload, zlib.crc32(prefix)) & 0xFFFFFFFF
        self._writev([_CRC.pack(crc) + prefix, payload], RECORD_OVERHEAD + n)
        self._chain = crc
        return self._length

    def append_many(
        self, rtype: int, items: "Sequence[Tuple[int, int, bytes]]"
    ) -> int:
        """Append ``(stamp, offset, payload)`` records in one write;
        returns the journal length after the last one.

        Identical on-disk bytes to repeated :meth:`append` calls — the
        CRC chain threads through every record — but the group commit
        path calls this once per touched subfile, not once per record,
        which keeps the per-record interpreter cost off the hot path.
        """
        if self._fd is None:
            raise ValueError(f"journal {self.path} is closed")
        if len(items) == 1:  # the common case once segments coalesce
            stamp, offset, payload = items[0]
            return self.append(rtype, stamp, offset, payload)
        chain = self._chain
        nbytes = 0
        bufs = []
        for stamp, offset, payload in items:
            n = len(payload)
            prefix = _BODY.pack(chain, rtype, stamp, offset, n)
            chain = zlib.crc32(payload, zlib.crc32(prefix)) & 0xFFFFFFFF
            bufs.append(_CRC.pack(chain) + prefix)
            bufs.append(payload)
            nbytes += RECORD_OVERHEAD + n
        self._writev(bufs, nbytes)
        self._chain = chain
        return self._length

    def flush(self) -> None:
        """No-op for kill-durability (writes are unbuffered); fsyncs
        when the writer was opened with ``sync=True``."""
        if self._fd is not None and self.sync:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is None:
            return
        self.flush()
        os.close(self._fd)
        self._fd = None


def scan_journal(path: str, expect_kind: Optional[int] = None,
                 expect_epoch: Optional[int] = None) -> JournalScan:
    """Scan a journal file, returning its intact record prefix.

    Never raises on damage: a missing file, bad header, torn tail or
    broken CRC chain all degrade to a (possibly empty) valid prefix
    plus a ``tail_discarded`` count.  ``expect_kind`` / ``expect_epoch``
    mismatches invalidate the whole file (its records belong to another
    stream or a superseded epoch, so replaying them would corrupt
    state).
    """
    scan = JournalScan()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return scan
    total = len(raw)
    if total < HEADER_SIZE:
        scan.tail_discarded = total
        return scan
    try:
        magic, kind, version, subfile, epoch = _HEADER.unpack_from(raw, 0)
    except struct.error:  # pragma: no cover - length checked above
        scan.tail_discarded = total
        return scan
    if (
        magic != JOURNAL_MAGIC
        or version != JOURNAL_VERSION
        or (expect_kind is not None and kind != expect_kind)
        or (expect_epoch is not None and epoch != expect_epoch)
    ):
        scan.tail_discarded = total
        return scan
    scan.kind, scan.subfile, scan.epoch = kind, subfile, epoch
    scan.header_ok = True
    chain = _crc(raw[:HEADER_SIZE])
    pos = HEADER_SIZE
    while pos + RECORD_OVERHEAD <= total:
        (crc,) = _CRC.unpack_from(raw, pos)
        prev_crc, rtype, stamp, offset, length = _BODY.unpack_from(
            raw, pos + _CRC.size
        )
        end = pos + RECORD_OVERHEAD + length
        if end > total:
            break  # torn: payload truncated
        body = raw[pos + _CRC.size : end]
        if prev_crc != chain or _crc(body) != crc:
            break  # torn or corrupt: stop at the last intact record
        scan.records.append(
            JournalRecord(
                rtype=rtype,
                stamp=stamp,
                offset=offset,
                payload=body[_BODY.size :],
                end=end,
            )
        )
        chain = crc
        pos = end
    scan.valid_bytes = pos
    scan.tail_discarded = total - pos
    return scan
