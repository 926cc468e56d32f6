"""How every on-disk format is framed, defined once: the journal,
snapshot, manifest and flight ring are declarations over this module.

Standard library only, so ``obs`` and ``durability`` share it without a
cycle.  Hot paths pack inline with its constants: nothing here runs
once per journal record or ring event.
"""

import json
import os
import struct
import zlib
from typing import Optional, Sequence

#: A stored CRC-32: one little-endian u32.
CRC = struct.Struct("<I")


def crc32(data, chain: int = 0) -> int:
    """Unsigned CRC-32 of ``data``, continuing from ``chain``."""
    return zlib.crc32(data, chain) & 0xFFFFFFFF


def frame_crc(buf, start: int = 0, end: Optional[int] = None):
    """The stored CRC of the ``crc u32 | body`` frame ``buf[start:end]``
    if it is ``crc32(body)``, else ``None`` (torn or corrupt)."""
    frame = memoryview(buf)[start:end]
    (crc,) = CRC.unpack_from(frame)
    return crc if crc32(frame[CRC.size :]) == crc else None


class Header:
    """A fixed-size header, declared once for a format's writer and
    reader: ``fields`` names the struct's fields in order (pad bytes
    have none), ``fixed`` the only value allowed for some of them (at
    least ``magic`` and ``version``).  :meth:`pack` takes the others by
    name and :meth:`unpack` returns them in order."""

    def __init__(self, what: str, fmt: str, fields: str, **fixed):
        self.what = what
        self.struct = struct.Struct(fmt)
        self.size = self.struct.size
        self._names = fields.split()
        self._fixed = fixed

    def pack(self, **free) -> bytes:
        fields = {**free, **self._fixed}
        return self.struct.pack(*(fields[name] for name in self._names))

    def unpack(self, buf, **expect) -> tuple:
        """The free fields of the header at the start of ``buf``;
        ``ValueError`` if it is short or a fixed field, or one named in
        ``expect`` (``None`` there accepts any), differs."""
        if len(buf) < self.size:
            raise ValueError(f"{self.what} truncated ({len(buf)} bytes)")
        got = dict(zip(self._names, self.struct.unpack_from(buf)))
        for name, want in {**expect, **self._fixed}.items():
            if want is not None and got[name] != want:
                raise ValueError(
                    f"{self.what} {name} is {got[name]!r}, not {want!r}"
                )
        return tuple(v for k, v in got.items() if k not in self._fixed)


def canonical_json(obj) -> bytes:
    """UTF-8 JSON with sorted keys and no whitespace: equal objects give
    equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def write_document(path: str, doc: dict, sync: bool = False) -> None:
    """Write ``doc`` atomically as canonical JSON plus ``crc``, the
    CRC-32 of the canonical JSON without it, so a flip that stays valid
    JSON is still caught."""
    crc = crc32(canonical_json(doc))
    write_atomic(path, [canonical_json({**doc, "crc": crc})], sync=sync)


def read_document(path: str) -> dict:
    """Read and verify a :func:`write_document` file: ``OSError`` if it
    cannot be read, ``ValueError`` if it is not JSON, has no ``crc`` or
    fails it."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.read())
    crc = doc.pop("crc", None) if isinstance(doc, dict) else None
    if crc is None or crc32(canonical_json(doc)) != crc:
        raise ValueError(f"{path!r} lacks or fails its crc")
    return doc


def fsync_dir(path: str) -> None:
    """Make a new or renamed entry durable: fsync its directory."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: str, pieces: Sequence, sync: bool = False) -> int:
    """Replace ``path`` by the concatenated buffers ``pieces`` (written
    uncopied) through a ``.tmp`` sibling and a rename, so a crash leaves
    the old file or the new one (readers ignore a torn temporary).
    ``sync`` fsyncs the file before the rename and its directory after.
    Returns the bytes written."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(pieces)
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if sync:
        fsync_dir(path)
    return sum(len(piece) for piece in pieces)
