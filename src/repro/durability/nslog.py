"""Durable namespace metadata: journaled ops + fold-to-snapshot.

The inode tree (:class:`repro.namespace.tree.Namespace`) lives in
memory; this module makes it outlive its process with the same
redo-journal + checkpoint discipline the data path uses:

* every metadata mutation (`mkdir`, `create`, `unlink`, `rmdir`,
  `rename`) appends one canonical-JSON op record to ``meta.wal``
  (kind :data:`~repro.durability.journal.KIND_META`) and flushes it
  *before* the call returns — an acknowledged metadata change is
  always on disk;
* a checkpoint folds the whole tree into one canonical snapshot
  (:mod:`repro.durability.snapshot` framing, JSON payload: inodes
  sorted by id plus the id allocator and change stamp) and restarts
  the journal empty at a bumped epoch;
* recovery loads the snapshot, replays the journal's intact record
  prefix through the ordinary ``Namespace`` methods, and checkpoints.

Replay reproduces **identical inode ids**: the snapshot restores the
``_next_id`` allocator, ids are allocated sequentially, and the journal
preserves op order — so every id-keyed structure downstream (service
queues, locks, ``fid-<id>`` backing names) binds to exactly the same
files after a restart.  Rename continuity is the same argument: a
rename record re-links the same id, so the backing name never changes.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from ..codec import canonical_json
from ..core.partition import Partition
from ..core.serialize import partition_from_obj, partition_to_obj
from ..obs import metrics as obs_metrics
from .journal import (
    KIND_META,
    JournalWriter,
    REC_META,
    RecoveryError,
    scan_journal,
)
from .snapshot import read_snapshot_file, write_snapshot_file

__all__ = ["NamespaceJournal"]

SNAPSHOT_FILE = "tree.bin"
JOURNAL_FILE = "meta.wal"

#: Inode-meta values that are library objects get tagged encodings so
#: the snapshot stays plain JSON a foreign tool can parse.
_PARTITION_TAG = "__partition__"


def _encode_meta(meta: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for k, v in meta.items():
        if isinstance(v, Partition):
            out[k] = {_PARTITION_TAG: partition_to_obj(v)}
        else:
            out[k] = v
    return out


def _decode_meta(meta: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for k, v in meta.items():
        if isinstance(v, dict) and _PARTITION_TAG in v:
            out[k] = partition_from_obj(v[_PARTITION_TAG])
        else:
            out[k] = v
    return out


class NamespaceJournal:
    """Journal + snapshot persistence for one :class:`Namespace` tree.

    Construct via :meth:`open` (fresh start: checkpoints the given tree
    and journals from there) or :meth:`recover` (rebuild the tree from
    disk, then checkpoint).  Direct construction only sets up paths.
    """

    def __init__(self, root: str, sync: bool = False):
        self.root = root
        self.sync = sync
        os.makedirs(root, exist_ok=True)
        self.epoch = 0
        self._writer: Optional[JournalWriter] = None
        self._seq = 0
        self._m_records = obs_metrics.counter(
            "durability.journal.meta_records"
        )
        self._m_replayed = obs_metrics.counter(
            "durability.recovery.meta_ops_replayed"
        )

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.root, SNAPSHOT_FILE)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, JOURNAL_FILE)

    # -- construction ---------------------------------------------------------

    @classmethod
    def open(cls, root: str, tree, sync: bool = False) -> "NamespaceJournal":
        """Start journaling ``tree`` (superseding any prior on-disk
        state — see :meth:`recover` to load it instead)."""
        nj = cls(root, sync=sync)
        if os.path.exists(nj.snapshot_path):
            try:
                _payload, meta = read_snapshot_file(nj.snapshot_path)
                nj.epoch = int(meta.get("epoch", 0))
            except RecoveryError:
                pass  # superseded by the checkpoint below anyway
        nj.checkpoint(tree)
        return nj

    @classmethod
    def recover(
        cls, root: str, cache_capacity: int = 1024, sync: bool = False
    ) -> Tuple[object, "NamespaceJournal", Dict[str, object]]:
        """Rebuild the tree from disk: ``(tree, journal, report)``.

        Missing state yields a fresh empty tree; a corrupt *snapshot*
        raises :class:`RecoveryError`; a torn journal tail is dropped
        and counted.  Ends with a checkpoint, so the returned journal
        is live and empty.
        """
        from ..namespace.tree import Namespace

        nj = cls(root, sync=sync)
        tree = Namespace(cache_capacity=cache_capacity)
        replayed = 0
        tail = 0
        if os.path.exists(nj.snapshot_path):
            payload, meta = read_snapshot_file(nj.snapshot_path)
            nj.epoch = int(meta.get("epoch", 0))
            cls._load_tree(tree, bytes(payload))
        scan = scan_journal(
            nj.journal_path, expect_kind=KIND_META, expect_epoch=nj.epoch
        )
        tail += scan.tail_discarded
        for rec in scan.records:
            if rec.rtype != REC_META:
                continue
            try:
                op = json.loads(rec.payload.decode("utf-8"))
            except ValueError:
                break  # treat like a torn tail: stop replaying
            cls._apply(tree, op)
            replayed += 1
        nj._m_replayed.inc(replayed)
        nj.checkpoint(tree)
        report = {"ops_replayed": replayed, "tail_bytes_discarded": tail}
        return tree, nj, report

    # -- journaling -----------------------------------------------------------

    def record(self, op: Dict[str, object]) -> None:
        """Durably append one metadata op (flushed before returning)."""
        if self._writer is None:
            raise ValueError("namespace journal not open; use open()/recover()")
        self._writer.append(REC_META, self._seq, 0, canonical_json(op))
        self._writer.flush()
        self._seq += 1
        self._m_records.inc()

    def checkpoint(self, tree) -> None:
        """Fold the tree to a snapshot and restart the journal empty."""
        payload = self._dump_tree(tree)
        self.epoch += 1
        write_snapshot_file(
            self.snapshot_path,
            payload,
            {"kind": "namespace", "epoch": self.epoch},
            sync=self.sync,
        )
        if self._writer is not None:
            self._writer.close()
        self._writer = JournalWriter(
            self.journal_path, KIND_META, epoch=self.epoch, sync=self.sync
        )
        self._seq = 0

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- tree <-> bytes -------------------------------------------------------

    @staticmethod
    def _dump_tree(tree) -> bytes:
        """The canonical JSON fold of the whole tree (ids sorted)."""
        with tree._lock:
            inodes = [
                {
                    "id": n.id,
                    "kind": n.kind,
                    "name": n.name,
                    "parent": n.parent,
                    "created": n.created,
                    "changed": n.changed,
                    "meta": _encode_meta(n.meta),
                }
                for _fid, n in sorted(tree._inodes.items())
            ]
            obj = {
                "version": 1,
                "next_id": tree._next_id,
                "stamp": tree._stamp,
                "inodes": inodes,
            }
        return canonical_json(obj)

    @staticmethod
    def _load_tree(tree, payload: bytes) -> None:
        from ..namespace.tree import ROOT_ID, Inode

        try:
            obj = json.loads(payload.decode("utf-8"))
        except ValueError as exc:
            raise RecoveryError(
                f"namespace snapshot payload unreadable: {exc}"
            ) from exc
        if obj.get("version") != 1:
            raise RecoveryError(
                f"unsupported namespace snapshot version {obj.get('version')}"
            )
        with tree._lock:
            inodes: Dict[int, Inode] = {}
            children: Dict[int, Dict[str, int]] = {}
            for rec in obj["inodes"]:
                node = Inode(
                    id=int(rec["id"]),
                    kind=str(rec["kind"]),
                    name=str(rec["name"]),
                    parent=int(rec["parent"]),
                    created=int(rec["created"]),
                    changed=int(rec["changed"]),
                    meta=_decode_meta(rec.get("meta", {})),
                )
                inodes[node.id] = node
                if node.kind == "dir":
                    children[node.id] = {}
            if ROOT_ID not in inodes:
                raise RecoveryError("namespace snapshot has no root inode")
            for node in inodes.values():
                if node.id == ROOT_ID:
                    continue
                parent = children.get(node.parent)
                if parent is None:
                    raise RecoveryError(
                        f"inode {node.id} has non-directory parent "
                        f"{node.parent}"
                    )
                parent[node.name] = node.id
            tree._inodes = inodes
            tree._children = children
            tree._next_id = int(obj["next_id"])
            tree._stamp = int(obj["stamp"])
            tree.cache.clear()

    # -- op replay ------------------------------------------------------------

    @staticmethod
    def _apply(tree, op: Dict[str, object]) -> None:
        kind = op.get("op")
        if kind == "mkdir":
            tree.mkdir(str(op["path"]), parents=bool(op.get("parents")))
        elif kind == "create":
            meta = _decode_meta(op.get("meta", {}))
            tree.create(
                str(op["path"]), parents=bool(op.get("parents")), **meta
            )
        elif kind == "unlink":
            tree.unlink(str(op["path"]))
        elif kind == "rmdir":
            tree.rmdir(str(op["path"]))
        elif kind == "rename":
            tree.rename(str(op["src"]), str(op["dst"]))
        else:
            raise RecoveryError(f"unknown namespace journal op {kind!r}")
