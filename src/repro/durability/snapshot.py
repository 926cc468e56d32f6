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
from typing import Dict, Optional, Tuple

import numpy as np

from ..codec import CRC, Header, canonical_json, crc32, write_atomic
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

_HEADER = Header("header", "<4sB3xIQ", "magic version meta_len payload_len",
                 magic=SNAPSHOT_MAGIC, version=SNAPSHOT_VERSION)


def _snapshot_pieces(payload, meta: Optional[Dict[str, object]]):
    """The on-disk pieces: header + metadata, the payload's own buffer
    (not a copy), and the CRC of both."""
    data = as_flat_bytes(payload, "snapshot payload")
    mblob = canonical_json(meta or {})
    head = _HEADER.pack(meta_len=len(mblob), payload_len=data.size) + mblob
    return head, data, CRC.pack(crc32(data, crc32(head)))


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
    try:
        meta_len, payload_len = _HEADER.unpack(blob)
        end = _HEADER.size + meta_len + payload_len
        if end + CRC.size != len(blob):
            raise ValueError(
                f"header implies {end + CRC.size} bytes, file has {len(blob)}"
            )
        (crc,) = CRC.unpack_from(blob, end)
        if crc32(memoryview(blob)[:end]) != crc:
            raise ValueError("checksum mismatch")
        meta = json.loads(blob[_HEADER.size : _HEADER.size + meta_len])
    except ValueError as exc:  # the JSON decoder's errors are ValueErrors
        raise RecoveryError(f"snapshot unreadable: {exc}") from exc
    payload = np.frombuffer(
        blob, dtype=np.uint8, count=payload_len, offset=_HEADER.size + meta_len
    ).copy()
    return payload, meta


def write_snapshot_file(path: str, payload,
                        meta: Optional[Dict[str, object]] = None,
                        sync: bool = False) -> int:
    """Atomically write a snapshot (piece by piece, the payload never
    copied); returns its size in bytes."""
    return write_atomic(path, _snapshot_pieces(payload, meta), sync=sync)


def read_snapshot_file(path: str) -> Tuple[np.ndarray, Dict[str, object]]:
    """Read and verify a snapshot file -> ``(payload, meta)``.

    ``FileNotFoundError`` when absent; :class:`RecoveryError` on damage.
    """
    with open(path, "rb") as fh:
        return parse_snapshot(fh.read())
