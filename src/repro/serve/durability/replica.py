"""The log follower: a read-serving copy of the index fed by the WAL.

The primary is a :class:`~repro.serve.durability.wal.DurableIndex`:
every acknowledged write is already on disk in its WAL.  A
:class:`Replica` bootstraps its own private copy of the index via
:func:`~repro.serve.durability.snapshots.recover` and then **tails the
log**: ``catch_up`` reads the records past its ``applied_seq`` and
applies them.  Because the WAL reader tolerates the in-flight tail (it
stops in front of a record still being written), a replica can follow a
live log safely — this is classic file-based log shipping.

There is one follower.  A library caller polls it (``catch_up``) or
asks for **read-your-writes** per read (``min_version=seq``, the ``seq``
a primary write returned; :class:`StaleReadError` if the log does not
reach that far — e.g. the primary died before flushing).  The prefork
server's workers (``serve --workers N --wal-dir``) each hold one and add
only what is server-shaped: the tail task, a bounded wait, and write
forwarding (:class:`repro.serve.server.ReplicaBackend`).

A caught-up replica is state-identical to the primary (same snapshot
format, same deterministic replay), so its query results are
byte-identical — the contract ``tests/test_replica.py`` pins down.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.serve.concurrency import ConcurrentIndex
from repro.serve.durability.snapshots import recover
from repro.serve.durability.wal import WALReader, apply_op

__all__ = ["Replica", "StaleReadError"]


class StaleReadError(RuntimeError):
    """A ``min_version`` read could not be satisfied from the log."""


class Replica:
    """One read-serving copy of the index, fed by tailing the WAL.

    Args:
        wal_dir: the primary's WAL directory.
        spec: optional index recipe forwarded to
            :func:`~repro.serve.durability.snapshots.recover` (needed
            only when the directory has neither snapshots nor a
            ``durable.json`` sidecar).
        mmap: bootstrap from the snapshot as read-only memory maps.
            Every replica on the machine then shares one physical copy
            of the snapshotted arrays (the page cache's), so replica
            RSS stops scaling with index size; replayed writes promote
            state copy-on-write.

    ``index`` is a :class:`~repro.serve.concurrency.ConcurrentIndex`:
    reads from any number of threads run in parallel under its shared
    lock, and a catch-up applies its whole batch of records in one
    exclusive section.
    """

    def __init__(self, wal_dir: str, spec=None, mmap: bool = False):
        self.wal_dir = wal_dir
        result = recover(wal_dir, spec=spec, mmap=mmap)
        self.index = ConcurrentIndex(result.index)
        #: ops reflected by this replica's state
        self.applied_seq = int(result.applied_seq)
        # Incremental tail reader: each poll costs O(new bytes), not
        # O(active segment), so frequent polling of a large log is cheap.
        self._reader = WALReader(wal_dir, start_seq=self.applied_seq)
        self.catch_ups = 0
        self._tail_lock = threading.Lock()  # one poller at a time

    def catch_up(self) -> int:
        """Apply every newly shipped record; returns ``applied_seq``."""
        with self._tail_lock:
            ops = self._reader.poll()
            if ops:

                def apply_all(index):
                    for _, op in ops:
                        apply_op(index, op)

                # One exclusive section for the whole batch: one version
                # bump, so version-keyed cache entries from before the
                # catch-up are unreachable afterwards.
                self.index.apply_exclusive(apply_all)
                self.applied_seq = int(ops[-1][0]) + 1
                self.catch_ups += 1
            return self.applied_seq

    def ensure(self, min_version: Optional[int]) -> None:
        """Read-your-writes: reflect ``min_version`` ops or raise.

        Polls the log once if this replica is behind;
        :class:`StaleReadError` when the log does not reach that far.
        """
        if min_version is None or self.applied_seq >= min_version:
            return
        if self.catch_up() < min_version:
            raise StaleReadError(
                f"replica is at seq {self.applied_seq}, the log does not "
                f"(yet) reach min_version={min_version}"
            )

    def query(
        self,
        q: np.ndarray,
        k: int = 1,
        min_version: Optional[int] = None,
        **kwargs,
    ) -> Tuple[np.ndarray, np.ndarray]:
        self.ensure(min_version)
        return self.index.query(q, k=k, **kwargs)

    def batch_query(
        self,
        queries: np.ndarray,
        k: int = 1,
        min_version: Optional[int] = None,
        **kwargs,
    ) -> Tuple[np.ndarray, np.ndarray]:
        self.ensure(min_version)
        return self.index.batch_query(queries, k=k, **kwargs)

    def stats(self) -> Dict[str, float]:
        out = {
            "applied_seq": float(self.applied_seq),
            "catch_ups": float(self.catch_ups),
        }
        # Tier shape confirms replayed seal/compact records landed: a
        # replica's segment count tracks the primary's exactly.
        tier = getattr(self.index.inner, "tier_stats", None)
        if callable(tier):
            shape = tier()
            out["segments"] = float(shape.get("segments", 0))
            out["memtable"] = float(shape.get("memtable", 0))
            out["compactions"] = float(shape.get("compactions", 0))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Replica(seq={self.applied_seq}, wal={self.wal_dir!r})"
