"""The durability manager: group commit, checkpoints, recovery.

:class:`DurabilityManager` owns one directory tree of per-file journal
state::

    <root>/<quoted file name>/
        manifest.json   # partition, replication, epoch, last stamp
        snapshot.bin    # serial-equivalent logical snapshot (atomic)
        sf<k>.wal       # per-subfile redo journals (CRC-chained)
        commit.wal      # per-file commit log (group-commit boundaries)

The protocol is redo-only write-ahead logging with the *ack* as the
commit point:

* **Group commit** — :meth:`commit_write` is called once per executed
  service batch (riding the service's existing batch coalescing), with
  the per-file lock still held.  It appends one redo record per touched
  subfile segment (stamp = the operation's ticket seq, payload = the
  subfile bytes after the batch), flushes the touched data journals,
  then appends a single commit record naming every data journal's
  length (its *cut*) and the batch's seqs, and flushes that.  Only
  after both flushes does the service resolve the batch's tickets — so
  an acknowledged write is always covered by a commit record whose data
  records reached the OS first.
* **Recovery** — :meth:`recover_into` rebuilds every manifested file:
  load the snapshot (if any), scan the commit log, pick the **latest
  commit whose cuts are fully satisfied** by the intact prefixes of
  the data journals, and replay exactly the records inside those cuts,
  in order.  Torn tails beyond the chosen cuts are crash debris —
  counted (``durability.recovery.tail_bytes_discarded``) and dropped,
  never an error.  A corrupt *snapshot* or unreadable manifest raises
  :class:`RecoveryError` — that is data loss, not debris.  Recovery
  ends by checkpointing the recovered state, so the journals restart
  empty at a bumped epoch.
* **Checkpoint** — write the snapshot (atomic rename), then the
  manifest at ``epoch + 1``, then fresh journals stamped with the new
  epoch.  A kill between any two steps recovers consistently: a new
  snapshot with an old manifest replays old-epoch records that are
  idempotent over it (redo payloads capture post-state), and a new
  manifest with old journals invalidates them by epoch mismatch.

Because redo payloads are captured *after* the batch applied (from the
subfile stores, under the file lock), replaying a prefix of commits
reproduces exactly the store state after that prefix's last batch —
byte-identical to a serial re-execution of the acknowledged operations,
which is what the differential chaos suite asserts.
"""

from __future__ import annotations

import json
import os
import time
import urllib.parse
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clusterfile.engine import IOEngine
from ..core.serialize import partition_from_obj, partition_to_obj
from ..obs import flightrec
from ..obs import metrics as obs_metrics
from .journal import (
    HEADER_SIZE,
    KIND_COMMIT,
    KIND_DATA,
    JournalWriter,
    REC_COMMIT,
    REC_WRITE,
    RECORD_OVERHEAD,
    RecoveryError,
    scan_journal,
)
from .snapshot import read_snapshot_file, write_snapshot_file

__all__ = ["DurabilityManager", "MANIFEST_NAME", "SNAPSHOT_NAME"]

MANIFEST_NAME = "manifest.json"
SNAPSHOT_NAME = "snapshot.bin"
COMMIT_LOG = "commit.wal"

#: Directory reserved for namespace metadata state (no file manifest).
NAMESPACE_DIR = "_namespace"

#: Entries kept in the (view, offset, nbytes) -> touched-segments cache.
#: Real workloads revisit a small set of access shapes (fixed record
#: sizes at strided offsets), so the mapping math that turns a view
#: write into subfile segments — the dominant per-record commit cost —
#: hits this cache almost always; 4096 shapes outlasts any plausible
#: working set while bounding memory.
_SEGMENT_CACHE_CAPACITY = 4096


def _quote(name: str) -> str:
    """A filesystem-safe, collision-free directory name."""
    return urllib.parse.quote(name, safe="-_.")


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _manifest_text(manifest: Dict[str, object]) -> str:
    """Canonical manifest JSON with a self-checksum: ``crc`` is the
    CRC-32 of the canonical body without it, so a bit flip that happens
    to stay valid JSON is still detected at recovery."""
    import zlib

    body = _canonical_json(manifest)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return _canonical_json({**manifest, "crc": crc})


def _parse_manifest(text: str) -> Dict[str, object]:
    """Parse + verify a manifest; raises ``ValueError`` on damage."""
    import zlib

    m = json.loads(text)
    if not isinstance(m, dict):
        raise ValueError("manifest is not an object")
    if "crc" in m:
        crc = int(m.pop("crc"))
        body = _canonical_json(m)
        if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
            raise ValueError("manifest checksum mismatch")
    return m


def _atomic_write_text(path: str, text: str, sync: bool = False) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)


class _FileJournal:
    """Open journal state for one file (writers + manifest facts)."""

    __slots__ = ("name", "dir", "epoch", "stamp", "data", "commit")

    def __init__(self, name: str, directory: str, epoch: int, stamp: int):
        self.name = name
        self.dir = directory
        self.epoch = epoch
        self.stamp = stamp  # highest committed seq (-1: none)
        self.data: Dict[int, JournalWriter] = {}
        self.commit: Optional[JournalWriter] = None

    def data_path(self, subfile: int) -> str:
        return os.path.join(self.dir, f"sf{subfile}.wal")

    def commit_path(self) -> str:
        return os.path.join(self.dir, COMMIT_LOG)

    def open_fresh(self, num_subfiles: int, sync: bool) -> None:
        """Truncate every journal to an empty file at self.epoch."""
        self.close_writers()
        for path in os.listdir(self.dir):
            # Journals from a previous partition (more subfiles) would
            # otherwise survive as stale epoch-mismatched files.
            if path.endswith(".wal") and path.startswith("sf"):
                os.remove(os.path.join(self.dir, path))
        self.data = {
            s: JournalWriter(self.data_path(s), KIND_DATA, subfile=s,
                             epoch=self.epoch, sync=sync)
            for s in range(num_subfiles)
        }
        self.commit = JournalWriter(self.commit_path(), KIND_COMMIT,
                                    epoch=self.epoch, sync=sync)

    def close_writers(self) -> None:
        for w in self.data.values():
            w.close()
        self.data = {}
        if self.commit is not None:
            self.commit.close()
            self.commit = None


class DurabilityManager:
    """Write-ahead journaling and crash recovery for one deployment.

    Parameters
    ----------
    root:
        Directory holding all journal state (created if absent).
    sync:
        ``False`` (default) flushes to the OS page cache on commit —
        sufficient for process-kill durability, which is the failure
        domain the chaos suite exercises.  ``True`` additionally fsyncs
        every commit (power-loss durability) at a large latency cost.
    """

    def __init__(self, root: str, sync: bool = False):
        self.root = root
        self.sync = sync
        os.makedirs(root, exist_ok=True)
        self._files: Dict[str, _FileJournal] = {}
        #: LRU of (id(view), offset, nbytes) -> (view, segments).  The
        #: stored view reference both validates the entry (same object,
        #: not a recycled id) and pins the id against reuse; a re-set
        #: view is a new object, so its stale entries simply age out.
        self._segments: "OrderedDict[Tuple[int, int, int], tuple]" = (
            OrderedDict()
        )
        self._m_records = obs_metrics.counter("durability.journal.records")
        self._m_bytes = obs_metrics.counter("durability.journal.bytes")
        self._m_commits = obs_metrics.counter("durability.journal.commits")
        self._m_snapshots = obs_metrics.counter("durability.snapshots")
        self._m_snap_bytes = obs_metrics.counter("durability.snapshot.bytes")
        self._m_rec_files = obs_metrics.counter("durability.recovery.files")
        self._m_rec_records = obs_metrics.counter(
            "durability.recovery.records_replayed"
        )
        self._m_rec_tail = obs_metrics.counter(
            "durability.recovery.tail_bytes_discarded"
        )
        self._h_commit_s = obs_metrics.histogram("durability.commit_s")
        self._h_commit_records = obs_metrics.histogram(
            "durability.commit.records"
        )
        self._h_recovery_s = obs_metrics.histogram(
            "durability.recovery.time_s"
        )

    # -- paths ----------------------------------------------------------------

    def file_dir(self, name: str) -> str:
        return os.path.join(self.root, _quote(name))

    def namespace_dir(self) -> str:
        return os.path.join(self.root, NAMESPACE_DIR)

    def last_stamp(self, name: str) -> int:
        """Highest committed seq for a file (-1 when none)."""
        fj = self._files.get(name)
        return -1 if fj is None else fj.stamp

    def journaled_files(self) -> List[str]:
        return sorted(self._files)

    # -- registration ---------------------------------------------------------

    def register_file(self, fs, name: str) -> _FileJournal:
        """Start journaling a file (idempotent).

        Registration *is* a checkpoint: the file's current logical
        state becomes the base snapshot and journaling starts from
        empty journals.  If the directory holds state from a previous
        process that was never recovered, its epoch is superseded — the
        old journals describe a history this process did not replay,
        and appending to them would interleave two incarnations.
        """
        fj = self._files.get(name)
        if fj is not None:
            return fj
        d = self.file_dir(name)
        os.makedirs(d, exist_ok=True)
        epoch, stamp = 0, -1
        manifest = os.path.join(d, MANIFEST_NAME)
        if os.path.exists(manifest):
            try:
                with open(manifest, "r", encoding="utf-8") as fh:
                    prev = _parse_manifest(fh.read())
                epoch = int(prev.get("epoch", 0)) + 1
                stamp = int(prev.get("stamp", -1))
            except (ValueError, OSError):
                epoch = 1  # unreadable: supersede whatever was there
        fj = _FileJournal(name, d, epoch, stamp)
        self._files[name] = fj
        self.checkpoint(fs, name)
        return fj

    def drop_file(self, name: str) -> None:
        """Forget a file and delete its journal directory (unlink)."""
        fj = self._files.pop(name, None)
        if fj is not None:
            fj.close_writers()
        d = self.file_dir(name)
        if os.path.isdir(d):
            for entry in os.listdir(d):
                os.remove(os.path.join(d, entry))
            os.rmdir(d)

    # -- group commit ---------------------------------------------------------

    def _touched_segments(
        self, fs, name: str, node: int, offset: int, nbytes: int
    ) -> List[Tuple[int, int, int]]:
        """The subfile byte segments one view write lands on, computed
        from the mapping functions exactly as the engine computes them
        (mode-independent: thread or process pool, batched or not).

        Cached per (view, offset, nbytes): the mapping math dominates
        the per-record commit cost, and workloads revisit a small set
        of access shapes, so the hit rate is effectively 100% in steady
        state — this is what keeps group commit inside its overhead
        budget on the coalesced write path."""
        view = fs.views[(name, node)]
        key = (id(view), offset, nbytes)
        hit = self._segments.get(key)
        if hit is not None and hit[0] is view:
            self._segments.move_to_end(key)
            return hit[1]
        lo, hi = offset, offset + nbytes - 1
        out: List[Tuple[int, int, int]] = []
        for link in view.links.values():
            starts, _lengths = link.proj_view.segments_in(lo, hi)
            if starts.size == 0:
                continue
            l_s, r_s = IOEngine._map_extremities(view, link, lo, hi)
            s_starts, s_lens = link.proj_subfile.segments_in(l_s, r_s)
            for a, n in zip(s_starts, s_lens):
                if n > 0:
                    out.append((link.subfile, int(a), int(n)))
        self._segments[key] = (view, out)
        if len(self._segments) > _SEGMENT_CACHE_CAPACITY:
            self._segments.popitem(last=False)
        return out

    def commit_write(
        self, fs, name: str, ops: Sequence[Tuple[int, int, int, int]]
    ) -> int:
        """Durably journal one executed write batch; returns the commit
        stamp.

        ``ops`` is ``[(seq, node, offset, nbytes), ...]`` in batch
        order.  Must be called *after* the batch applied to the stores
        and *before* its tickets resolve, with the file's lock held —
        the redo payloads are read back from the subfile stores, so
        every journaled byte carries the post-batch state.

        Because payloads are post-state and recovery replays whole
        commit groups in order, the batch's segments within a subfile
        can be *coalesced*: overlapping segments dedupe, and two
        segments merge into one spanning record, stamped with the
        batch's commit stamp, when the gap between them is no larger
        than the ``RECORD_OVERHEAD`` a second record would cost — the
        interior bytes also read back post-batch state, so replaying
        the span is exactly as correct as replaying each piece, and
        merging never journals more bytes than not merging.
        """
        t0 = time.perf_counter()
        fj = self._files.get(name)
        if fj is None:
            fj = self.register_file(fs, name)
        if not ops:
            return fj.stamp
        stamp = max(op[0] for op in ops)
        # The commit being cut is itself an event: a SIGKILL between
        # commit_start and commit leaves a mid-commit marker in the
        # flight ring that forensics surfaces as "last words".
        rec = flightrec.active()
        fkey = rec.file_key(name) if rec is not None else 0
        if rec is not None:
            rec.record(
                flightrec.EV_COMMIT_START, file=fkey, a=stamp, b=len(ops)
            )
        stores = fs.open(name).stores
        writers = fj.data
        seg_of = self._touched_segments
        # Segment intervals per subfile, then coalesce and emit one
        # record per merged run — and one write syscall per touched
        # journal (append_many goes straight to the OS); flush() only
        # matters in sync (fsync) mode.
        per_subfile: Dict[int, list] = {}
        for seq, node, offset, nbytes in ops:
            if nbytes <= 0:
                continue
            for subfile, start, n in seg_of(fs, name, node, offset, nbytes):
                per_subfile.setdefault(subfile, []).append(
                    (start, start + n)
                )
        records = 0
        payload_bytes = 0
        for subfile, intervals in per_subfile.items():
            intervals.sort()
            merged = [list(intervals[0])]
            for a, b in intervals[1:]:
                last = merged[-1]
                if a - last[1] <= RECORD_OVERHEAD:
                    if b > last[1]:
                        last[1] = b
                else:
                    merged.append([a, b])
            store = stores[subfile]
            items = [
                (stamp, a, store.read_bytes(a, b - 1)) for a, b in merged
            ]
            writer = writers[subfile]
            writer.append_many(REC_WRITE, items)
            writer.flush()
            records += len(items)
            payload_bytes += sum(b - a for a, b in merged)
        # The commit body is compact JSON built by hand (keys in
        # subfile order, no whitespace): recovery only json.loads it,
        # and the string build costs a fraction of the encoder.
        cuts = ",".join(
            f'"{s}":{w.length}' for s, w in sorted(fj.data.items())
        )
        seqs = ",".join(str(s) for s in sorted(op[0] for op in ops))
        body = f'{{"cuts":{{{cuts}}},"seqs":[{seqs}]}}'
        fj.commit.append(REC_COMMIT, stamp, 0, body.encode("utf-8"))
        fj.commit.flush()
        fj.stamp = max(fj.stamp, stamp)
        if rec is not None:
            rec.record(flightrec.EV_COMMIT, file=fkey, a=stamp, b=records)
        self._m_records.inc(records)
        self._m_bytes.inc(payload_bytes)
        self._m_commits.inc()
        self._h_commit_records.observe(records)
        self._h_commit_s.observe(time.perf_counter() - t0)
        return stamp

    # -- checkpoint -----------------------------------------------------------

    def checkpoint(self, fs, name: str,
                   extra_meta: Optional[Dict[str, object]] = None) -> str:
        """Snapshot a file's logical state and restart its journals.

        The snapshot is serial-equivalent (see
        :mod:`repro.durability.snapshot`): its bytes depend only on the
        logical contents, never on the partition or writer layout —
        recovery bookkeeping (epoch, stamp, partition) lives in the
        manifest beside it.  Returns the snapshot path.
        """
        fj = self._files.get(name)
        if fj is None:
            fj = self.register_file(fs, name)
            return os.path.join(fj.dir, SNAPSHOT_NAME)
        cfile = fs.open(name)
        payload = cfile.linear_contents()
        meta = {"length": int(payload.size)}
        if extra_meta:
            meta.update(extra_meta)
        snap_path = os.path.join(fj.dir, SNAPSHOT_NAME)
        size = write_snapshot_file(snap_path, payload, meta, sync=self.sync)
        fj.epoch += 1
        _atomic_write_text(
            os.path.join(fj.dir, MANIFEST_NAME),
            _manifest_text(
                {
                    "version": 1,
                    "name": name,
                    "partition": partition_to_obj(cfile.physical),
                    "replication": cfile.replication,
                    "epoch": fj.epoch,
                    "stamp": fj.stamp,
                }
            ),
            sync=self.sync,
        )
        fj.open_fresh(cfile.num_subfiles, self.sync)
        self._m_snapshots.inc()
        self._m_snap_bytes.inc(size)
        rec = flightrec.active()
        if rec is not None:
            rec.record(
                flightrec.EV_CHECKPOINT, file=rec.file_key(name), a=fj.epoch
            )
        return snap_path

    # -- recovery -------------------------------------------------------------

    def recover_into(self, fs) -> Dict[str, Dict[str, object]]:
        """Rebuild every manifested file into ``fs``; returns a per-file
        report (``stamp``, ``seqs`` replayed, records/tail counts).

        After recovery each file is checkpointed (snapshot of the
        recovered state, empty journals at a bumped epoch), so the
        manager is immediately ready to journal new writes.
        """
        report: Dict[str, Dict[str, object]] = {}
        if not os.path.isdir(self.root):
            return report
        for entry in sorted(os.listdir(self.root)):
            d = os.path.join(self.root, entry)
            manifest = os.path.join(d, MANIFEST_NAME)
            if not os.path.isdir(d) or not os.path.exists(manifest):
                continue
            t0 = time.perf_counter()
            try:
                with open(manifest, "r", encoding="utf-8") as fh:
                    m = _parse_manifest(fh.read())
                name = str(m["name"])
                partition = partition_from_obj(m["partition"])
                replication = int(m.get("replication", 1))
                epoch = int(m.get("epoch", 0))
            except (KeyError, TypeError, ValueError, OSError) as exc:
                raise RecoveryError(
                    f"manifest unreadable under {d!r}: {exc}"
                ) from exc
            if name in fs.files:
                fs.unlink(name)
            cfile = fs.create(name, partition, replication=replication)
            stamp = int(m.get("stamp", -1))
            snap_path = os.path.join(d, SNAPSHOT_NAME)
            loaded_snapshot = False
            if os.path.exists(snap_path):
                payload, _smeta = read_snapshot_file(snap_path)
                self._load_linear(cfile, payload)
                loaded_snapshot = True
            replayed, seqs, tail = self._replay_journals(
                cfile, d, epoch, partition.num_elements
            )
            if seqs:
                stamp = max(stamp, max(seqs))
            fj = _FileJournal(name, d, epoch, stamp)
            self._files[name] = fj
            self.checkpoint(fs, name)
            elapsed = time.perf_counter() - t0
            self._m_rec_files.inc()
            self._m_rec_records.inc(replayed)
            self._m_rec_tail.inc(tail)
            self._h_recovery_s.observe(elapsed)
            rec = flightrec.active()
            if rec is not None:
                rec.record(
                    flightrec.EV_RECOVERY,
                    file=rec.file_key(name),
                    a=replayed,
                    b=tail,
                )
            report[name] = {
                "stamp": stamp,
                "seqs": seqs,
                "records_replayed": replayed,
                "tail_bytes_discarded": tail,
                "snapshot_loaded": loaded_snapshot,
                "time_s": elapsed,
            }
        return report

    @staticmethod
    def _load_linear(cfile, payload: np.ndarray) -> None:
        """Distribute a linear snapshot payload into the subfile stores
        (mirrors included)."""
        from ..redistribution.executor import distribute

        pieces = distribute(payload, cfile.physical)
        for s, piece in enumerate(pieces):
            if piece.size == 0:
                continue
            for store in cfile.replica_stores(s):
                store.view(0, piece.size - 1)[:] = piece

    def _replay_journals(
        self, cfile, d: str, epoch: int, num_subfiles: int
    ) -> Tuple[int, List[int], int]:
        """Replay the journals under ``d`` into ``cfile``'s stores.

        Returns ``(records_replayed, committed_seqs, tail_discarded)``.
        """
        commit_scan = scan_journal(
            os.path.join(d, COMMIT_LOG),
            expect_kind=KIND_COMMIT,
            expect_epoch=epoch,
        )
        data_scans = {}
        for s in range(num_subfiles):
            data_scans[s] = scan_journal(
                os.path.join(d, f"sf{s}.wal"),
                expect_kind=KIND_DATA,
                expect_epoch=epoch,
            )
        # The latest commit whose cuts every data journal's intact
        # prefix satisfies.  Satisfiability is monotone (cuts only
        # grow), so the last satisfied commit covers all before it.
        chosen = None
        seqs: List[int] = []
        for rec in commit_scan.records:
            try:
                body = json.loads(rec.payload.decode("utf-8"))
                cuts = {int(k): int(v) for k, v in body["cuts"].items()}
                commit_seqs = [int(x) for x in body.get("seqs", [])]
            except (ValueError, KeyError, UnicodeDecodeError):
                break  # an unparsable commit ends the trusted prefix
            if any(
                data_scans.get(s) is None
                or data_scans[s].valid_bytes < cut
                for s, cut in cuts.items()
            ):
                break  # its data never fully reached the OS: torn group
            chosen = cuts
            seqs.extend(commit_seqs)
        replayed = 0
        tail = commit_scan.tail_discarded
        for s, scan in data_scans.items():
            cut = 0 if chosen is None else chosen.get(s, 0)
            stores = cfile.replica_stores(s)
            for rec in scan.records_until(cut):
                if rec.rtype != REC_WRITE:
                    continue
                buf = np.frombuffer(rec.payload, dtype=np.uint8)
                if buf.size == 0:
                    continue
                for store in stores:
                    store.view(
                        rec.offset, rec.offset + buf.size - 1
                    )[:] = buf
                replayed += 1
            # Everything beyond the chosen cut is uncommitted debris
            # (the 12-byte header is structure, not data).
            journal_total = scan.valid_bytes + scan.tail_discarded
            base = max(cut, HEADER_SIZE if scan.header_ok else 0)
            tail += max(0, journal_total - base)
        return replayed, sorted(set(seqs)), tail

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        for fj in self._files.values():
            fj.close_writers()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
