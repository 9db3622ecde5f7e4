"""In-process ANN service: locking, caching, and query micro-batching.

:class:`ANNService` is the top of the serving stack built across PRs
1-3: it wraps any :class:`~repro.base.ANNIndex` (including a
:class:`~repro.serve.sharding.ShardedIndex`) in a
:class:`~repro.serve.concurrency.ConcurrentIndex` and serves requests
from many threads at once with two throughput levers on top of the
locks:

* **query-result cache** — an LRU keyed on ``(query bytes, k, kwargs,
  index version)`` (:mod:`repro.serve.cache`).  Hits skip the index
  entirely; any ``insert``/``delete`` bumps the version, making every
  cached entry unreachable (and eagerly dropped), so a cached answer is
  always byte-identical to a fresh query at the same version.
* **micro-batching** — concurrent single queries are coalesced by a
  dedicated executor thread into one ``batch_query`` call (PR 1's
  vectorised engine).  Batching is work-conserving: an idle executor
  takes whatever is queued the moment a request arrives (a lone query
  never waits), and requests arriving while a batch runs queue up and
  form the next one — compatible requests (same ``k`` and query kwargs),
  up to ``max_batch_size``.  Batch size therefore follows the load.
  Every micro-batch goes through ``batch_query``; whether a batch of one
  is worth vectorising is the engine's call (it can see its kernel
  backend), not the service's.  Per request the answer is
  *byte-identical* to what a direct ``batch_query`` (and therefore a
  direct ``query``) would return — the contract
  ``tests/test_service_equivalence.py`` pins down.

Thread-safety summary (see README "Serving"):

=====================  ====================================================
class                  guarantee
=====================  ====================================================
``ANNIndex`` family    none — single thread only
``ConcurrentIndex``    many parallel readers XOR one writer; no starvation
``QueryCache``         fully thread-safe; version-keyed (never stale)
``ANNService``         fully thread-safe; results versioned and cached
=====================  ====================================================
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, Tuple

import numpy as np

from repro.base import ANNIndex
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.serve.cache import QueryCache, freeze_kwargs, query_key
from repro.serve.concurrency import ConcurrentIndex
from repro.serve.durability.wal import DurableIndex

__all__ = ["ANNService", "families_from_stats"]

#: kernel stage keys in execution order, for synthesized trace spans
_STAGE_ORDER = (
    ("stage_hash_s", "kernel.hash"),
    ("stage_search_s", "kernel.search"),
    ("stage_merge_s", "kernel.merge"),
    ("stage_verify_s", "kernel.verify"),
)

#: service ``stats()`` keys -> counter families for the registry
_COUNTER_FAMILIES = {
    "reads": ("repro_index_reads_total", "completed concurrent-index reads"),
    "writes": ("repro_index_writes_total", "completed concurrent-index writes"),
    "cache_hits": ("repro_cache_hits_total", "query cache hits"),
    "cache_misses": ("repro_cache_misses_total", "query cache misses"),
    "cache_evictions": ("repro_cache_evictions_total", "query cache LRU evictions"),
    "cache_invalidations": (
        "repro_cache_invalidations_total",
        "query cache invalidations (version bumps)",
    ),
    "batches": ("repro_batch_batches_total", "micro-batches executed"),
    "batched_queries": (
        "repro_batch_queries_total",
        "queries served through micro-batches",
    ),
    "wal_appends": ("repro_wal_appends_total", "WAL records appended"),
    "wal_syncs": ("repro_wal_fsyncs_total", "WAL fsync calls"),
    "wal_rotations": ("repro_wal_rotations_total", "WAL segment rotations"),
    "wal_bytes_written": (
        "repro_wal_appended_bytes_total",
        "bytes appended to the WAL",
    ),
    "wal_snapshots": ("repro_wal_snapshots_total", "snapshot checkpoints written"),
    "tier_seals": ("repro_tier_seals_total", "memtable seals"),
    "tier_compactions": ("repro_tier_compactions_total", "completed compactions"),
    "tier_compaction_errors": (
        "repro_tier_compaction_errors_total",
        "failed compactions",
    ),
    "tier_rebuilds": ("repro_tier_rebuilds_total", "full index rebuilds"),
    "tier_compaction_time_s": (
        "repro_tier_compaction_seconds_total",
        "write-path seconds spent in structural ops",
    ),
}

#: service ``stats()`` keys -> gauge families.  Merge mode matters for
#: prefork fan-in: every worker replica mirrors the same index, so tier
#: shape and version take ``max`` (identical everywhere, modulo lag)
#: while per-process caches genuinely add up.
_GAUGE_FAMILIES = {
    "version": ("repro_index_version", "index version (completed writes)", "max"),
    "cache_size": ("repro_cache_entries", "live query cache entries", "sum"),
    "largest_batch": ("repro_batch_largest", "largest micro-batch seen", "max"),
    "tier_segments": ("repro_tier_segments", "sealed LCCS segments", "max"),
    "tier_memtable": ("repro_tier_memtable_rows", "writable memtable rows", "max"),
    "tier_segment_rows": (
        "repro_tier_segment_rows",
        "rows across sealed segments",
        "max",
    ),
    "tier_tombstones": ("repro_tier_tombstones", "tombstoned rows", "max"),
    "wal_segments": ("repro_wal_segments", "live WAL segments", "max"),
    "wal_next_seq": ("repro_wal_next_seq", "next WAL sequence number", "max"),
}


def families_from_stats(stats: dict) -> dict:
    """Map a flat serving ``stats()`` dict onto registry metric families.

    Shared by the service's registry collector and the prefork
    primary's (whose stats dict uses the same ``wal_*``/``tier_*``
    keys).  Unknown keys are simply skipped, so every layer can use it
    with whatever subset it has.
    """
    families: dict = {}
    for key, (name, help_text) in _COUNTER_FAMILIES.items():
        val = stats.get(key)
        if val is not None:
            families[name] = {
                "kind": "counter",
                "help": help_text,
                "samples": [{"labels": {}, "value": float(val)}],
            }
    for key, (name, help_text, merge) in _GAUGE_FAMILIES.items():
        val = stats.get(key)
        if isinstance(val, (list, tuple)):
            val = sum(val)  # e.g. tier_segment_rows: per-segment counts
        if val is not None:
            families[name] = {
                "kind": "gauge",
                "help": help_text,
                "merge": merge,
                "samples": [{"labels": {}, "value": float(val)}],
            }
    hit_ratio = stats.get("cache_hit_ratio")
    if hit_ratio is not None:
        families["repro_cache_hit_ratio"] = {
            "kind": "gauge",
            "help": "query cache hit ratio since start",
            "merge": "last",
            "samples": [{"labels": {}, "value": float(hit_ratio)}],
        }
    return families


class _Request:
    """One pending single-query request inside the micro-batcher."""

    __slots__ = ("q", "k", "kwargs", "group", "future", "trace", "enqueue_s")

    def __init__(self, q: np.ndarray, k: int, kwargs: dict, trace=None):
        self.q = q
        self.k = k
        self.kwargs = kwargs
        #: requests batch together only when k and kwargs agree; frozen
        #: so ndarray/list-valued kwargs neither break the ``==`` group
        #: comparison nor diverge from the cache's keying
        self.group = (k, freeze_kwargs(kwargs))
        self.future: "Future[Tuple[np.ndarray, np.ndarray]]" = Future()
        #: sampled request's trace (or None) — carried across the thread
        #: hop into the micro-batch executor, which grafts batch/kernel
        #: spans onto it
        self.trace = trace
        self.enqueue_s = time.perf_counter()


class ANNService:
    """Serve an index to many threads: locks + cache + micro-batching.

    Args:
        index: any :class:`ANNIndex`, or an already-wrapped
            :class:`ConcurrentIndex` (shared locking with other users).
        cache_size: LRU capacity for the query-result cache; ``0``
            disables caching entirely.
        max_batch_size: micro-batch size cap.  There is no batching
            window: the executor never sleeps on a non-empty queue, so a
            batch is whatever queued up while the previous one ran.

    ``query`` returns ``(ids, dists)`` exactly like ``ANNIndex.query``
    (unpadded, ascending distance, ties by id); ``query_async`` returns
    a :class:`~concurrent.futures.Future` resolving to the same.  Use
    the service as a context manager, or call :meth:`close`, to stop the
    executor thread.
    """

    def __init__(
        self,
        index,
        cache_size: int = 1024,
        max_batch_size: int = 64,
    ):
        if isinstance(index, ConcurrentIndex):
            self._ci = index
        elif isinstance(index, ANNIndex):
            self._ci = ConcurrentIndex(index)
        else:
            raise TypeError(
                f"{index!r} is neither an ANNIndex nor a ConcurrentIndex"
            )
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        # A durable wrapper under the lock layer: surface its WAL
        # counters in stats() and make close() force its log to disk.
        inner = self._ci.inner
        self._durable = inner if isinstance(inner, DurableIndex) else None
        self._cache = QueryCache(cache_size) if cache_size > 0 else None
        self._max_batch = int(max_batch_size)
        self._queue: Deque[_Request] = deque()
        self._cond = threading.Condition()
        self._stop = False
        self._batches = 0
        self._batched_queries = 0
        self._largest_batch = 0
        self._executor = threading.Thread(
            target=self._run, name="ANNService-batcher", daemon=True
        )
        self._executor.start()
        # Publish this service's stats() into the unified registry.  The
        # fixed key means the newest service instance in a process wins
        # (one serving stack per process in practice; short-lived test
        # services replace instead of leaking).
        get_registry().register_collector("service", self._metric_families)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def query(
        self, q: np.ndarray, k: int = 1, trace=None, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Single query through cache + micro-batcher (blocking)."""
        return self.query_async(q, k, trace=trace, **kwargs).result()

    def query_async(
        self, q: np.ndarray, k: int = 1, trace=None, **kwargs
    ) -> "Future[Tuple[np.ndarray, np.ndarray]]":
        """Submit a single query; the future resolves to ``(ids, dists)``.

        Cache hits resolve immediately without touching the index; on a
        miss the request joins the micro-batch queue and executes inside
        the next coalesced ``batch_query`` call.

        ``trace`` (a sampled :class:`repro.obs.tracing.Trace`, or None)
        is deliberately a named parameter rather than part of
        ``**kwargs``: the kwargs feed both the cache key and the
        batch-compatibility group, and a trace must affect neither.
        """
        q = np.asarray(q)
        if q.shape != (self._ci.dim,):
            raise ValueError(
                f"query must have shape ({self._ci.dim},), got {q.shape}"
            )
        if k <= 0:
            raise ValueError("k must be positive")
        # Closed-service behavior must be uniform: check before the
        # cache probe, or a closed service would still answer whatever
        # happened to be cached while raising on everything else.
        with self._cond:
            if self._stop:
                raise RuntimeError("ANNService is closed")
        fut: "Future[Tuple[np.ndarray, np.ndarray]]" = Future()
        if self._cache is not None:
            t0 = time.perf_counter()
            hit = self._cache.get(query_key(q, k, self._ci.version, kwargs))
            if trace is not None:
                trace.add_span(
                    "cache.probe", t0, time.perf_counter(),
                    hit=hit is not None,
                )
            if hit is not None:
                fut.set_result(hit)
                return fut
        request = _Request(q.copy(), int(k), dict(kwargs), trace=trace)
        with self._cond:
            if self._stop:
                raise RuntimeError("ANNService is closed")
            self._queue.append(request)
            self._cond.notify_all()
        return request.future

    def batch_query(
        self, queries: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch passthrough: one locked ``batch_query`` on the index.

        Already-batched callers skip the micro-batcher.
        Returns the padded ``(n, k)`` matrices exactly as
        ``ANNIndex.batch_query`` would; rows are written into the cache
        so later single queries can hit.
        """
        ids, dists, version = self._ci.batch_query_versioned(
            queries, k=k, **kwargs
        )
        if self._cache is not None:
            queries = np.asarray(queries)
            for i in range(len(queries)):
                valid = ids[i] >= 0
                self._cache.put(
                    query_key(queries[i], k, version, kwargs),
                    ids[i][valid],
                    dists[i][valid],
                )
        return ids, dists

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, vector: np.ndarray, trace=None) -> int:
        """Insert under the exclusive lock; invalidates the cache."""
        if trace is None:
            handle, _ = self._ci.insert_versioned(vector)
        else:
            # Attach the trace on this thread so the WAL's append/fsync
            # spans (repro.obs.span calls inside DurableIndex) nest
            # under this request instead of vanishing.
            tracer = get_tracer()
            with tracer.attach(trace.root):
                with tracer.span("index.insert"):
                    handle, _ = self._ci.insert_versioned(vector)
        if self._cache is not None:
            self._cache.invalidate()
        return handle

    def delete(self, handle: int, trace=None) -> None:
        """Delete under the exclusive lock; invalidates the cache."""
        if trace is None:
            self._ci.delete_versioned(handle)
        else:
            tracer = get_tracer()
            with tracer.attach(trace.root):
                with tracer.span("index.delete"):
                    self._ci.delete_versioned(handle)
        if self._cache is not None:
            self._cache.invalidate()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def index(self) -> ConcurrentIndex:
        """The underlying :class:`ConcurrentIndex`."""
        return self._ci

    @property
    def dim(self) -> int:
        return self._ci.dim

    @property
    def version(self) -> int:
        return self._ci.version

    def stats(self) -> dict:
        """Aggregate service counters.

        ``reads``/``writes``/``version`` from the lock layer,
        ``cache_*`` from the LRU (hits, misses, hit_ratio, ...), and the
        micro-batcher's ``batches`` / ``batched_queries`` /
        ``largest_batch`` / ``avg_batch_size``.
        """
        out = self._ci.stats()
        if self._cache is not None:
            out.update(
                {f"cache_{key}": val for key, val in self._cache.stats().items()}
            )
        if self._durable is not None:
            out.update(
                {
                    f"wal_{key}": val
                    for key, val in self._durable.wal_stats().items()
                }
            )
        with self._cond:
            batches, batched = self._batches, self._batched_queries
            out["batches"] = batches
            out["batched_queries"] = batched
            out["largest_batch"] = self._largest_batch
        out["avg_batch_size"] = batched / batches if batches else 0.0
        # Surface the kernel backend and LSM tier shape of the
        # underlying index (walk the wrapper chain:
        # ConcurrentIndex -> DurableIndex -> index).
        inner = self._ci.inner
        for _ in range(4):
            backend = getattr(inner, "kernel_backend", None)
            if backend is not None:
                out["kernel_backend"] = backend
                tier = getattr(inner, "tier_stats", None)
                if callable(tier):
                    out.update(
                        {f"tier_{key}": val for key, val in tier().items()}
                    )
                break
            nxt = getattr(inner, "inner", None)
            if nxt is None:
                break
            inner = nxt
        return out

    def _metric_families(self) -> dict:
        """Map :meth:`stats` onto registry families (collector hook).

        Only runs at snapshot time, so the cost of walking the stats
        tree is paid by scrapes, never by requests.
        """
        return families_from_stats(self.stats())

    def close(self) -> None:
        """Stop the executor thread; pending requests still complete.

        A :class:`~repro.serve.durability.wal.DurableIndex` under the
        service is fsynced on the way out, so every acknowledged write
        is durable once ``close`` returns (the wrapper itself stays
        open — the index remains usable outside the service).
        """
        with self._cond:
            if self._stop:
                return
            self._stop = True
            self._cond.notify_all()
        self._executor.join()
        if self._durable is not None:
            self._durable.sync()
        # Only drop the collector if it is still ours — a newer service
        # may have replaced it already.
        get_registry().unregister_collector("service", self._metric_families)

    def __enter__(self) -> "ANNService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Micro-batch executor
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if not self._queue:  # stopped and drained
                    return
                # Work-conserving: never sleep on a non-empty queue.
                # Whatever arrived while the last batch ran is the batch.
                batch = self._take_group_locked()
            self._execute(batch)

    def _take_group_locked(self) -> list:
        """Pop up to ``max_batch_size`` queued requests sharing the head
        request's (k, kwargs) group; others keep their queue order."""
        group = self._queue[0].group
        batch: list = []
        rest: Deque[_Request] = deque()
        while self._queue and len(batch) < self._max_batch:
            request = self._queue.popleft()
            if request.group == group:
                batch.append(request)
            else:
                rest.append(request)
        rest.extend(self._queue)
        self._queue = rest
        return batch

    def _execute(self, batch: list) -> None:
        # Claim every future before touching the index: a request whose
        # caller already cancelled it is dropped here, and a claimed
        # (RUNNING) future can no longer be cancelled, so the
        # set_result/set_exception calls below cannot raise
        # InvalidStateError and kill the executor thread.
        batch = [
            request
            for request in batch
            if request.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        k, kwargs = batch[0].k, batch[0].kwargs
        # Trace bookkeeping only when at least one request in the batch
        # was sampled; the untraced path takes the exact pre-obs route.
        traced = any(request.trace is not None for request in batch)
        try:
            stacked = np.stack([request.q for request in batch])
            if traced:
                t_start = time.perf_counter()
                ids, dists, version, info = self._ci.batch_query_traced(
                    stacked, k=k, **kwargs
                )
                info["exec_start_s"] = t_start
                info["exec_end_s"] = time.perf_counter()
            else:
                ids, dists, version = self._ci.batch_query_versioned(
                    stacked, k=k, **kwargs
                )
                info = None
        except BaseException as exc:  # propagate to every waiter
            for request in batch:
                request.future.set_exception(exc)
            return
        with self._cond:
            self._batches += 1
            self._batched_queries += len(batch)
            self._largest_batch = max(self._largest_batch, len(batch))
        for i, request in enumerate(batch):
            valid = ids[i] >= 0  # strip the -1 / inf padding
            row_ids, row_dists = ids[i][valid], dists[i][valid]
            if request.trace is not None:
                self._graft_batch_spans(request, len(batch), info)
            if self._cache is not None:
                self._cache.put(
                    query_key(request.q, k, version, kwargs),
                    row_ids,
                    row_dists,
                )
            request.future.set_result((row_ids, row_dists))

    @staticmethod
    def _graft_batch_spans(request: _Request, batch_size: int, info: dict) -> None:
        """Attach this batch's measured intervals to a sampled request.

        The micro-batcher runs on its own thread and times things
        itself, so spans are synthesized from captured wall-clock
        intervals rather than opened live: a ``batch`` span from
        enqueue to completion, with the queue wait, the index call, the
        RW-lock wait, and the per-stage kernel timings as children.
        Kernel stages run back-to-back inside the index, so their spans
        are laid out sequentially after the lock wait.
        """
        trace = request.trace
        exec_start = info["exec_start_s"]
        exec_end = info["exec_end_s"]
        batch_span = trace.add_span(
            "batch", request.enqueue_s, exec_end,
            size=batch_size, group_k=request.k,
        )
        if exec_start > request.enqueue_s:
            trace.add_span(
                "batch.wait", request.enqueue_s, exec_start, parent=batch_span
            )
        query_span = trace.add_span(
            "index.query", exec_start, exec_end, parent=batch_span
        )
        cursor = exec_start
        lock_wait = info.get("lock_wait_s")
        if lock_wait:
            trace.add_span(
                "lock.wait", cursor, cursor + lock_wait, parent=query_span
            )
            cursor += lock_wait
        for key, name in _STAGE_ORDER:
            dur = info.get(key)
            if dur:
                trace.add_span(name, cursor, cursor + dur, parent=query_span)
                cursor += dur
