"""Portable, serial-equivalent snapshots of a file's logical bytes.

The format reproduces the scda property (Griesbach & Burstedde — see
PAPERS.md): the on-disk bytes are a pure function of the file's
*logical* contents, independent of how many writers produced them, what
partition the file is physically stored under, or which executor mode
(serial, parallel, windowed; thread or process pool) moved the bytes.
Two runs that wrote the same logical file — one rank serially or eight
ranks through nested-FALLS views — emit byte-identical snapshots, so
any snapshot can be verified against the naive per-byte oracle and
diffed across configurations with ``cmp``.

That property falls out of two rules:

* the payload is the file's **linear** byte sequence (holes and bytes
  before the displacement read as zero) — partition-free by
  construction;
* the metadata is canonical JSON (sorted keys, no whitespace) and
  carries only logical facts (length, shape, dtype...) — never writer
  count, partition, epoch or sequence stamps.  Recovery bookkeeping
  lives in the per-file manifest *next to* the snapshot, not in it.

Layout (little-endian)::

    magic "RSNP" | version u8 | pad[3] | meta_len u32 | payload_len u64
    | meta (canonical JSON, UTF-8) | payload | crc u32

``crc = crc32`` of everything before it.  Snapshot files are written to
a temporary sibling and atomically renamed into place, so a crash
mid-snapshot leaves either the old snapshot or the new one — never a
torn hybrid (a torn temporary is ignored by recovery).  Unlike journal
tails, a *named* snapshot that fails its CRC is not crash debris — it
is data loss, and reading it raises :class:`RecoveryError`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from ..redistribution.gather_scatter import as_flat_bytes
from .journal import RecoveryError

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "snapshot_bytes",
    "parse_snapshot",
    "write_snapshot_file",
    "read_snapshot_file",
]

SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 1

_FIXED = struct.Struct("<4sB3xIQ")  # magic, version, pad, meta_len, payload_len
_CRC = struct.Struct("<I")


def _snapshot_pieces(payload, meta: Optional[Dict[str, object]]):
    """The on-disk pieces: header + metadata, the payload's own buffer
    (not a copy), and the CRC of both."""
    data = as_flat_bytes(payload, "snapshot payload")
    mblob = json.dumps(
        meta or {}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    head = _FIXED.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(mblob), int(data.size)
    ) + mblob
    crc = zlib.crc32(data, zlib.crc32(head))
    return head, data, _CRC.pack(crc & 0xFFFFFFFF)


def snapshot_bytes(payload, meta: Optional[Dict[str, object]] = None) -> bytes:
    """Serialise logical ``payload`` bytes into the snapshot format.

    ``payload`` is a uint8 array or anything buffer-like (``bytes``,
    ``bytearray``, ``memoryview``); other dtypes are rejected.
    """
    return b"".join(_snapshot_pieces(payload, meta))


def parse_snapshot(blob: bytes) -> Tuple[np.ndarray, Dict[str, object]]:
    """Parse and verify snapshot bytes -> ``(payload, meta)``.

    Raises :class:`RecoveryError` on any structural or checksum damage —
    a snapshot is all-or-nothing (there is no meaningful prefix to
    salvage the way a journal scan salvages records).
    """
    if len(blob) < _FIXED.size + _CRC.size:
        raise RecoveryError(f"snapshot truncated ({len(blob)} bytes)")
    magic, version, meta_len, payload_len = _FIXED.unpack_from(blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise RecoveryError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise RecoveryError(f"unsupported snapshot version {version}")
    end = _FIXED.size + meta_len + payload_len
    if end + _CRC.size != len(blob):
        raise RecoveryError(
            f"snapshot length mismatch: header implies {end + _CRC.size} "
            f"bytes, file has {len(blob)}"
        )
    (crc,) = _CRC.unpack_from(blob, end)
    if zlib.crc32(memoryview(blob)[:end]) & 0xFFFFFFFF != crc:
        raise RecoveryError("snapshot checksum mismatch")
    try:
        meta = json.loads(blob[_FIXED.size : _FIXED.size + meta_len])
    except ValueError as exc:
        raise RecoveryError(f"snapshot metadata unreadable: {exc}") from exc
    payload = np.frombuffer(
        blob, dtype=np.uint8, count=payload_len, offset=_FIXED.size + meta_len
    ).copy()
    return payload, meta


def write_snapshot_file(path: str, payload,
                        meta: Optional[Dict[str, object]] = None,
                        sync: bool = False) -> int:
    """Atomically write a snapshot (piece by piece, the payload never
    copied); returns its size in bytes."""
    pieces = _snapshot_pieces(payload, meta)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(pieces)
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    return sum(len(piece) for piece in pieces)


def read_snapshot_file(path: str) -> Tuple[np.ndarray, Dict[str, object]]:
    """Read and verify a snapshot file -> ``(payload, meta)``.

    ``FileNotFoundError`` when absent; :class:`RecoveryError` on damage.
    """
    with open(path, "rb") as fh:
        return parse_snapshot(fh.read())
