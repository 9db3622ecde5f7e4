"""Checkpointing and crash recovery for WAL-backed indexes.

A *snapshot* is a normal PR-2 bundle (see
:mod:`repro.serve.persistence`) of the wrapped index, written atomically
under ``<wal_dir>/snapshots/snap-<seq>`` and tagged in its manifest
``extra`` with ``wal_seq`` — the number of WAL ops the snapshotted state
reflects.  :class:`SnapshotManager` takes them on demand or
automatically every N ops / M logged bytes and retains the newest ``K``.

:func:`recover` rebuilds an index from a WAL directory::

    newest readable snapshot  +  replay of WAL records with seq >= tag

Corrupt snapshots are skipped (newest to oldest); when none is readable
the whole log is replayed onto a fresh index built from the recorded
:class:`~repro.serve.registry.IndexSpec` (``durable.json``, or the
``spec`` argument).  The result is byte-identical to serially replaying
the acknowledged op prefix — the property
``tests/test_durability.py`` pins down at arbitrary crash offsets.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.serve.durability.wal import CONFIG_NAME, WALError, iter_ops, replay
from repro.serve.persistence import (
    BundleError,
    load_index,
    read_manifest,
    save_index,
)

__all__ = [
    "SnapshotManager",
    "RecoveryError",
    "RecoveryResult",
    "recover",
    "list_snapshots",
]

SNAP_DIR = "snapshots"
SNAP_PREFIX = "snap-"


class RecoveryError(RuntimeError):
    """No combination of snapshots and log suffices to rebuild the index."""


def _snap_root(wal_dir: str) -> str:
    return os.path.join(wal_dir, SNAP_DIR)


def list_snapshots(wal_dir: str) -> List[Tuple[int, str]]:
    """Sorted ``(wal_seq, path)`` of every snapshot directory (ascending)."""
    root = _snap_root(wal_dir)
    out: List[Tuple[int, str]] = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return out
    for name in names:
        if name.startswith(SNAP_PREFIX):
            try:
                seq = int(name[len(SNAP_PREFIX):])
            except ValueError:
                continue
            out.append((seq, os.path.join(root, name)))
    return sorted(out)


class SnapshotManager:
    """Take, retain, and prune bundle snapshots of a WAL-wrapped index.

    Args:
        wal_dir: the WAL directory (snapshots live in its ``snapshots/``
            subdirectory, so log and checkpoints travel together).
        keep: how many snapshots to retain (oldest pruned first).
        every_ops: auto-snapshot once this many ops were applied since
            the latest snapshot (``None`` disables the op trigger).
        every_bytes: auto-snapshot once this many WAL bytes were written
            since the latest snapshot (``None`` disables it).
        prune_wal: when True, :meth:`repro.serve.durability.wal.DurableIndex.checkpoint`
            also deletes WAL segments older than the *oldest retained*
            snapshot.  Default False: keeping the whole log preserves
            the full-log-replay fallback even if every snapshot rots.

    Writes are atomic: the bundle is assembled in a dot-prefixed temp
    directory and ``os.rename``d into place, so a crash mid-snapshot
    never leaves a half-readable ``snap-*`` entry.
    """

    def __init__(
        self,
        wal_dir: str,
        keep: int = 3,
        every_ops: Optional[int] = None,
        every_bytes: Optional[int] = None,
        prune_wal: bool = False,
    ):
        if keep <= 0:
            raise ValueError("keep must be positive")
        if every_ops is not None and every_ops <= 0:
            raise ValueError("every_ops must be positive (or None)")
        if every_bytes is not None and every_bytes <= 0:
            raise ValueError("every_bytes must be positive (or None)")
        self.wal_dir = wal_dir
        self.keep = int(keep)
        self.every_ops = every_ops
        self.every_bytes = every_bytes
        self.prune_wal = bool(prune_wal)
        self.taken = 0
        os.makedirs(_snap_root(wal_dir), exist_ok=True)
        existing = list_snapshots(wal_dir)
        #: seq of the newest snapshot (None when there is none yet)
        self.latest_seq: Optional[int] = existing[-1][0] if existing else None
        #: WAL bytes_written at the time of the latest snapshot
        self._bytes_at_last: Optional[float] = None

    # ------------------------------------------------------------------

    def list(self) -> List[Tuple[int, str]]:
        return list_snapshots(self.wal_dir)

    @property
    def oldest_retained_seq(self) -> Optional[int]:
        snaps = self.list()
        return snaps[0][0] if snaps else None

    def notify(
        self, index, seq: int, wal_bytes: float, barrier=None
    ) -> Optional[str]:
        """Called after every applied op; takes a snapshot if due.

        Args:
            index: the index to snapshot when a trigger fires.
            seq: ops applied so far (``DurableIndex.applied_seq``).
            wal_bytes: cumulative WAL bytes written so far.
            barrier: optional callable invoked just before a due
                snapshot is written — ``DurableIndex`` passes
                ``wal.sync`` so a snapshot never becomes visible ahead
                of the durable log.

        Returns the new snapshot path, or ``None``.
        """
        due = False
        if self.every_ops is not None:
            since = seq - (self.latest_seq or 0)
            due = due or since >= self.every_ops
        if self.every_bytes is not None:
            if self._bytes_at_last is None:
                self._bytes_at_last = 0.0
            due = due or (wal_bytes - self._bytes_at_last) >= self.every_bytes
        if not due:
            return None
        if barrier is not None:
            barrier()
        path = self.take(index, seq)
        self._bytes_at_last = float(wal_bytes)
        return path

    def take(self, index, seq: int) -> str:
        """Snapshot ``index`` as the state after ``seq`` ops (atomic)."""
        root = _snap_root(self.wal_dir)
        os.makedirs(root, exist_ok=True)
        final = os.path.join(root, f"{SNAP_PREFIX}{seq:012d}")
        tmp = os.path.join(root, f".tmp-{seq:012d}")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        extra: dict = {"wal_seq": int(seq)}
        # Record the LSM tier shape alongside the position — cheap
        # provenance for `inspect` when debugging compaction histories.
        tier = getattr(index, "tier_stats", None)
        if callable(tier):
            shape = tier()
            extra["tier_segments"] = int(shape.get("segments", 0))
            extra["tier_memtable"] = int(shape.get("memtable", 0))
        save_index(index, tmp, extra=extra)
        if os.path.exists(final):  # re-snapshot at the same seq: replace
            shutil.rmtree(final)
        os.rename(tmp, final)
        self.taken += 1
        self.latest_seq = int(seq)
        self._prune_snapshots()
        return final

    def _prune_snapshots(self) -> None:
        snaps = self.list()
        for seq, path in snaps[: max(0, len(snaps) - self.keep)]:
            shutil.rmtree(path, ignore_errors=True)

    def stats(self) -> Dict[str, float]:
        return {
            "snapshots": float(len(self.list())),
            "snapshots_taken": float(self.taken),
            "latest_snapshot_seq": float(
                -1 if self.latest_seq is None else self.latest_seq
            ),
        }


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------

class RecoveryResult(NamedTuple):
    """What :func:`recover` did: the index plus provenance."""

    index: object
    #: ops reflected by the recovered state (== acknowledged prefix length)
    applied_seq: int
    #: wal_seq of the snapshot used (None = full-log replay)
    snapshot_seq: Optional[int]
    #: WAL records replayed on top of the snapshot
    replayed: int
    #: snapshots skipped as unreadable: (path, error message)
    corrupt: List[Tuple[str, str]]


def _refuse_background(source: str, recorded) -> None:
    """Refuse a log written by the removed background compactor.

    ``recorded`` is the recipe's kwargs or the snapshot's state.  Thread
    timing chose that log's ``compact`` ranges, and an inline replay
    also merges on its own, so the replayed tiers would diverge.
    """
    if isinstance(recorded, dict) and recorded.get("compaction") == "background":
        raise RecoveryError(
            f"{source}: written by the removed background compaction "
            "mode; its log cannot be replayed"
        )


def _load_spec(wal_dir: str):
    from repro.serve.registry import IndexSpec

    config_path = os.path.join(wal_dir, CONFIG_NAME)
    try:
        with open(config_path, "r", encoding="utf-8") as f:
            config = json.load(f)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RecoveryError(f"{config_path}: corrupt recipe sidecar: {exc}")
    if not isinstance(config, dict):
        raise RecoveryError(f"{config_path}: recipe sidecar is not an object")
    manifest = config.get("spec")
    if manifest is None:
        return None
    if isinstance(manifest, dict):
        _refuse_background(config_path, manifest.get("kwargs"))
    try:
        return IndexSpec.from_manifest(manifest)
    except (KeyError, TypeError) as exc:
        name = manifest.get("class") if isinstance(manifest, dict) else None
        raise RecoveryError(
            f"{config_path}: cannot rebuild recipe for class {name!r}: {exc}"
        ) from None


def recover(wal_dir: str, spec=None, mmap: bool = False) -> RecoveryResult:
    """Rebuild the acknowledged index state from ``wal_dir``.

    Tries snapshots newest-first; each readable one is loaded and the
    WAL suffix (``seq >= wal_seq``) replayed on top.  Unreadable
    snapshots (:class:`~repro.serve.persistence.BundleError`, or a
    manifest whose ``wal_seq`` tag is missing) are skipped and reported
    in ``RecoveryResult.corrupt``.  With no usable snapshot the whole
    log is replayed onto a fresh index built from ``spec`` (argument,
    or the ``durable.json`` sidecar a
    :class:`~repro.serve.durability.wal.DurableIndex` records).

    With ``mmap=True`` the snapshot opens as read-only memory maps
    (see :func:`repro.serve.persistence.load_index`): recovery time
    stops scaling with snapshot size — only the replayed WAL suffix
    costs time — and the recovered index's resident memory is just the
    pages its queries touch.  Replayed writes promote state
    copy-on-write exactly as live writes do.

    Raises :class:`RecoveryError` when nothing can produce an index —
    no readable snapshot and no spec for a full replay — and, before
    any replay, when the starting snapshot or the recipe was written
    by the removed background compaction mode.
    """
    if not os.path.isdir(wal_dir):
        raise RecoveryError(f"{wal_dir}: no such WAL directory")
    corrupt: List[Tuple[str, str]] = []
    for seq, path in reversed(list_snapshots(wal_dir)):
        try:
            manifest = read_manifest(path)
            tagged = manifest.get("extra", {}).get("wal_seq")
            if tagged is None:
                raise BundleError(f"{path}: snapshot lacks a wal_seq tag")
            if int(tagged) != seq:
                raise BundleError(
                    f"{path}: wal_seq tag {tagged} contradicts its name"
                )
            _refuse_background(path, manifest.get("state"))
            index = load_index(path, mmap=mmap)
        except BundleError as exc:
            corrupt.append((path, str(exc)))
            continue
        replayed = replay(index, iter_ops(wal_dir, start_seq=seq))
        return RecoveryResult(
            index=index,
            applied_seq=seq + replayed,
            snapshot_seq=seq,
            replayed=replayed,
            corrupt=corrupt,
        )
    # Full-log replay from a fresh index.
    if spec is None:
        spec = _load_spec(wal_dir)
    if spec is None:
        raise RecoveryError(
            f"{wal_dir}: no readable snapshot and no index recipe "
            f"({CONFIG_NAME} or spec=...) for a full-log replay"
        )
    index = spec.build()
    try:
        replayed = replay(index, iter_ops(wal_dir, start_seq=0))
    except WALError as exc:
        # Typically: segments pruned after a snapshot that is now
        # unreadable — the surviving suffix alone cannot rebuild state.
        raise RecoveryError(
            f"{wal_dir}: full-log replay impossible ({exc}); corrupt "
            f"snapshots skipped: {[p for p, _ in corrupt]}"
        ) from exc
    return RecoveryResult(
        index=index,
        applied_seq=replayed,
        snapshot_seq=None,
        replayed=replayed,
        corrupt=corrupt,
    )
