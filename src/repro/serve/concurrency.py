"""Thread-safe serving primitives: a reader-writer lock and a locked facade.

The library's indexes are written for single-threaded use: ``query``
mutates ``last_stats``, ``insert``/``delete`` rewrite internal arrays,
and a :class:`~repro.core.dynamic.DynamicLCCSLSH` rebuild replaces whole
structures.  :class:`ConcurrentIndex` makes any
:class:`~repro.base.ANNIndex` safe to share across threads:

* ``query`` / ``batch_query`` take a *shared* (read) lock, so any number
  of them proceed in parallel;
* ``insert`` / ``delete`` / ``fit`` take an *exclusive* (write) lock;
* the lock is **writer-preference** (a write-intent queue): as soon as a
  writer is waiting, newly arriving readers block behind it, so a steady
  read stream cannot starve updates;
* every write bumps a monotonically increasing **version** counter, read
  under the same locks — the key the query cache uses to know a cached
  answer is still current.

Per-query ``last_stats`` on the wrapped index are *not* meaningful under
concurrent readers (every reader resets them); use
:meth:`ConcurrentIndex.stats` for exact aggregate read/write counters
instead.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from repro.base import ANNIndex
from repro.obs.metrics import get_registry

__all__ = ["RWLock", "ConcurrentIndex"]

#: kernel-stage timings the traced batch read lifts out of the
#: wrapped index's ``last_stats`` (measured by the index itself)
_STAGE_KEYS = (
    "stage_hash_s",
    "stage_search_s",
    "stage_merge_s",
    "stage_verify_s",
)


class RWLock:
    """Reader-writer lock with writer preference.

    Any number of readers hold the lock together; a writer holds it
    alone.  While at least one writer is *waiting*, new readers queue
    behind it (the write-intent rule), so writers are never starved by a
    continuous stream of reads; once no writer is waiting, all queued
    readers are released together.

    Not reentrant: a thread holding the read lock must not acquire the
    write lock (it would deadlock with itself).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    @contextmanager
    def read_locked_timed(self) -> Iterator[float]:
        """Like :meth:`read_locked`, but yields the acquisition wait
        (seconds) — how long this reader queued behind writers."""
        t0 = time.perf_counter()
        self.acquire_read()
        try:
            yield time.perf_counter() - t0
        finally:
            self.release_read()

    @contextmanager
    def write_locked_timed(self) -> Iterator[float]:
        """Like :meth:`write_locked`, but yields the acquisition wait
        (seconds) — how long this writer queued behind readers."""
        t0 = time.perf_counter()
        self.acquire_write()
        try:
            yield time.perf_counter() - t0
        finally:
            self.release_write()


class ConcurrentIndex:
    """Thread-safe facade over any :class:`~repro.base.ANNIndex`.

    Reads (``query``/``batch_query``) run under a shared lock and so
    proceed in parallel with each other; writes (``insert``/``delete``/
    ``fit``) run under an exclusive lock, fully serialized with every
    read and write.  The ``_versioned`` variants additionally return the
    index **version** observed *under the same lock* as the operation —
    so a reader knows exactly which write-state its answer reflects, and
    a writer knows the version its write produced.

    Thread-safety guarantees:

    * results returned by a read reflect exactly one version — no torn
      reads across a concurrent write;
    * handles returned by ``insert`` are assigned in version order
      (writes are serialized), so replaying the write log serially on a
      fresh index reproduces the final state byte-for-byte;
    * writers cannot starve (writer-preference lock).

    Args:
        index: the index to wrap (fitted or not).
    """

    def __init__(self, index: ANNIndex):
        if not isinstance(index, ANNIndex):
            raise TypeError(f"{index!r} is not an ANNIndex")
        self._index = index
        self._lock = RWLock()
        # Counters are guarded by their own tiny mutex so readers (which
        # only share the RW lock) still update them exactly.
        self._stats_lock = threading.Lock()
        self._version = 0
        self._reads = 0
        self._writes = 0
        # Process-wide lock-contention histogram (shared by every
        # ConcurrentIndex in the process; the registry dedupes by name).
        self._lock_wait = get_registry().histogram(
            "repro_lock_wait_seconds",
            "RW-lock acquisition wait by mode (seconds)",
        )

    # ------------------------------------------------------------------
    # Introspection (lock-free reads of immutable / atomic attributes)
    # ------------------------------------------------------------------

    @property
    def inner(self) -> ANNIndex:
        """The wrapped index.  Touch it directly only while no other
        thread is using this facade."""
        return self._index

    @property
    def version(self) -> int:
        """Number of completed writes (``insert``/``delete``/``fit``)."""
        return self._version

    @property
    def dim(self) -> int:
        return self._index.dim

    @property
    def metric(self) -> str:
        return self._index.metric

    @property
    def name(self) -> str:
        return f"Concurrent[{self._index.name}]"

    @property
    def n(self) -> int:
        with self._lock.read_locked():
            return self._index.n

    @property
    def is_fitted(self) -> bool:
        with self._lock.read_locked():
            return self._index.is_fitted

    # ------------------------------------------------------------------
    # Reads (shared lock)
    # ------------------------------------------------------------------

    def query(
        self, q: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        ids, dists, _ = self.query_versioned(q, k, **kwargs)
        return ids, dists

    def query_versioned(
        self, q: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(ids, dists, version)`` — the version the answer reflects."""
        with self._lock.read_locked():
            ids, dists = self._index.query(q, k=k, **kwargs)
            version = self._version
        self._count_read()
        return ids, dists, version

    def batch_query(
        self, queries: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        ids, dists, _ = self.batch_query_versioned(queries, k, **kwargs)
        return ids, dists

    def batch_query_versioned(
        self, queries: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(ids, dists, version)`` for a whole batch under one lock."""
        with self._lock.read_locked():
            ids, dists = self._index.batch_query(queries, k=k, **kwargs)
            version = self._version
        self._count_read()
        return ids, dists, version

    # ------------------------------------------------------------------
    # Traced read: same semantics, plus an ``info`` dict of timings
    # ------------------------------------------------------------------

    def batch_query_traced(
        self, queries: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray, int, dict]:
        """``(ids, dists, version, info)`` — timings for the trace plane.

        ``info`` carries ``lock_wait_s``, ``query_s`` and whatever
        ``stage_*_s`` kernel timings the wrapped index recorded in
        ``last_stats``.  The stage timings are best-effort under
        concurrent readers (readers share the lock and each resets
        ``last_stats``); the lock wait and query wall time are exact.
        """
        with self._lock.read_locked_timed() as wait_s:
            t0 = time.perf_counter()
            ids, dists = self._index.batch_query(queries, k=k, **kwargs)
            info = self._read_info(wait_s, time.perf_counter() - t0)
            version = self._version
        self._count_read()
        self._lock_wait.observe(wait_s, mode="read")
        return ids, dists, version, info

    def _read_info(self, wait_s: float, query_s: float) -> dict:
        """Called under the read lock: lift stage timings out of the
        wrapped index's ``last_stats`` while they are still ours."""
        info = {"lock_wait_s": wait_s, "query_s": query_s}
        stats = getattr(self._index, "last_stats", None)
        if stats:
            for key in _STAGE_KEYS:
                val = stats.get(key)
                if val is not None:
                    info[key] = float(val)
        return info

    # ------------------------------------------------------------------
    # Writes (exclusive lock)
    # ------------------------------------------------------------------

    def fit(self, data: np.ndarray) -> "ConcurrentIndex":
        with self._lock.write_locked():
            self._index.fit(data)
            self._bump_version()
        return self

    def insert(self, vector: np.ndarray) -> int:
        handle, _ = self.insert_versioned(vector)
        return handle

    def insert_versioned(self, vector: np.ndarray) -> Tuple[int, int]:
        """``(handle, version)`` — the version this insert produced."""
        self._require_dynamic("insert")
        with self._lock.write_locked_timed() as wait_s:
            handle = self._index.insert(vector)
            version = self._bump_version()
        self._lock_wait.observe(wait_s, mode="write")
        return int(handle), version

    def delete(self, handle: int) -> None:
        self.delete_versioned(handle)

    def delete_versioned(self, handle: int) -> int:
        """Delete ``handle``; returns the version this delete produced."""
        self._require_dynamic("delete")
        with self._lock.write_locked_timed() as wait_s:
            self._index.delete(handle)
            version = self._bump_version()
        self._lock_wait.observe(wait_s, mode="write")
        return version

    def apply_exclusive(self, fn) -> Tuple[object, int]:
        """Run ``fn(inner_index)`` under the exclusive write lock.

        Escape hatch for writes that are not plain insert/delete/fit —
        e.g. a replica applying a batch of shipped WAL records in one
        critical section.  The version is bumped exactly once (so
        version-keyed caches drop entries that predate the batch) and
        ``(fn's result, new version)`` is returned.
        """
        with self._lock.write_locked():
            result = fn(self._index)
            version = self._bump_version()
        return result, version

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Exact aggregate counters: completed reads, writes, version."""
        with self._stats_lock:
            return {
                "reads": self._reads,
                "writes": self._writes,
                "version": self._version,
            }

    def _require_dynamic(self, op: str) -> None:
        if not hasattr(self._index, op):
            raise TypeError(
                f"wrapped index {type(self._index).__name__} does not "
                f"support {op}; wrap a dynamic index (e.g. DynamicLCCSLSH)"
            )

    def _bump_version(self) -> int:
        """Called with the write lock held."""
        with self._stats_lock:
            self._version += 1
            self._writes += 1
            return self._version

    def _count_read(self) -> None:
        with self._stats_lock:
            self._reads += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConcurrentIndex({self._index!r}, version={self._version})"
