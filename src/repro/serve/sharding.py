"""Sharded index serving: partition, build in parallel, fan out, merge.

``ShardedIndex`` splits the dataset into ``S`` contiguous shards, builds
one inner index per shard (in a process pool by default, with thread and
serial fallbacks), fans every ``query``/``batch_query`` out to the
shards, and merges the per-shard top-k into global ids.

**Merge tie-order contract.**  Every index in this library ranks results
by ``np.lexsort((ids, dists))`` — ascending true distance, ties broken
by ascending id (PR 1's canonical order).  The shard merge applies the
*same* lexsort to the concatenated per-shard candidate pool after
mapping local ids to global ids, and local id order is monotone in
global id order within a shard (contiguous partitioning; inserts append
in global order).  Together with row-wise bit-identical distance
kernels, this makes a sharded exact (or candidate-saturated) query
byte-identical to the unsharded one — the invariant
``tests/test_sharded_equivalence.py`` pins down.

**Dynamic workloads.**  When the shard indexes support ``insert`` /
``delete`` (e.g. :class:`~repro.core.dynamic.DynamicLCCSLSH`), the
sharded index routes inserts round-robin and deletes by handle lookup,
preserving the unsharded handle sequence: the i-th insert returns handle
``n + i`` exactly like a single ``DynamicLCCSLSH`` would.

**Bundle-backed process fan-out.**  A ``ShardedIndex`` loaded from a
bundle **with** ``mmap=True`` (``load_index`` records path and mode via
:meth:`ShardedIndex.attach_bundle`) and configured with
``parallel="process"`` answers ``batch_query`` by shipping each worker
process the *bundle path and shard number* — never a pickled index.  Workers open their shard with
:func:`repro.serve.persistence.load_shard` (mmapped when the bundle was
loaded mmapped) and cache it, so the dataset exists once in the page
cache no matter how many worker processes serve it.  Any write detaches
the bundle (the on-disk copy is stale) and fan-out falls back to the
in-process thread pool, preserving correctness.

**Thread safety.**  Like every :class:`~repro.base.ANNIndex`, a
``ShardedIndex`` is a single-threaded object (``insert`` mutates the
round-robin cursor and handle maps without locks).  For concurrent
serving wrap it — ``index.concurrent()`` or
:class:`repro.serve.ANNService` — which serializes writers against the
fan-out reads.  The internal query fan-out pool is reused across calls
(thread creation off the hot path); call :meth:`ShardedIndex.close` (or
use the index as a context manager) to release its threads eagerly.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.base import ANNIndex

__all__ = ["IndexSpec", "ShardedIndex", "merge_topk"]


def merge_topk(
    ids_per_shard: Sequence[np.ndarray],
    dists_per_shard: Sequence[np.ndarray],
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(ids, dists)`` lists into one global top-``k``.

    Ids must already be global and unique across shards.  The result is
    ordered by ``np.lexsort((ids, dists))`` — ascending distance, ties by
    ascending id — i.e. exactly the order a single index's ``_verify``
    would produce over the concatenated candidate pool.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if len(ids_per_shard) != len(dists_per_shard):
        raise ValueError("ids and dists lists must align")
    if not ids_per_shard:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ids = np.concatenate(
        [np.asarray(i, dtype=np.int64).ravel() for i in ids_per_shard]
    )
    dists = np.concatenate(
        [np.asarray(d, dtype=np.float64).ravel() for d in dists_per_shard]
    )
    if len(ids) != len(dists):
        raise ValueError("each shard's ids and dists must have equal length")
    order = np.lexsort((ids, dists))[: min(k, len(ids))]
    return ids[order], dists[order]


class IndexSpec:
    """A picklable recipe for constructing an unfitted index.

    Process-pool shard builds ship the *recipe* to workers rather than a
    closure, and bundle manifests record it as JSON, so shard indexes can
    be rebuilt anywhere.  The class may be given directly or as a
    registry name (see :mod:`repro.serve.registry`).

    Example:
        >>> spec = IndexSpec("LCCSLSH", dim=32, m=64, seed=0)
        >>> index = spec.build()
    """

    def __init__(self, index_cls: Union[str, type], **kwargs):
        from repro.serve.registry import registry_name, resolve_index_class

        if isinstance(index_cls, str):
            index_cls = resolve_index_class(index_cls)
        if not (isinstance(index_cls, type) and issubclass(index_cls, ANNIndex)):
            raise TypeError(f"{index_cls!r} is not an ANNIndex subclass")
        self.class_name = registry_name(index_cls)
        self.kwargs = dict(kwargs)

    def build(self) -> ANNIndex:
        """Construct a fresh, unfitted index from the recipe."""
        from repro.serve.registry import resolve_index_class

        return resolve_index_class(self.class_name)(**self.kwargs)

    def to_manifest(self) -> dict:
        return {"class": self.class_name, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_manifest(cls, manifest: dict) -> "IndexSpec":
        return cls(manifest["class"], **manifest["kwargs"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs.items())
        return f"IndexSpec({self.class_name}{', ' if args else ''}{args})"


def _build_one_shard(spec: IndexSpec, chunk: np.ndarray) -> ANNIndex:
    """Worker function for parallel shard builds (must be module-level
    so process pools can pickle it)."""
    return spec.build().fit(chunk)


#: per-worker-process cache of shards opened from a bundle path, keyed
#: ``(bundle_path, shard, mmap)`` — one load per worker, reused across
#: every fan-out call routed to that worker
_WORKER_SHARDS: Dict[Tuple[str, int, bool], ANNIndex] = {}


def _query_shard_from_bundle(
    bundle_path: str,
    shard: int,
    mmap: bool,
    queries: np.ndarray,
    k: int,
    kwargs: dict,
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Process-pool fan-out worker: answer a batch from one shard.

    The shard is identified by ``(bundle_path, shard)`` rather than
    shipped as a pickled index, so the parent never serializes the
    dataset.  With ``mmap`` each worker opens only
    its own shard's arrays as read-only maps — every worker on the
    machine shares the same physical page-cache copy of the index.
    Loaded shards are cached per process, so only the first call pays
    the open.
    """
    from repro.serve.persistence import load_shard

    key = (bundle_path, int(shard), bool(mmap))
    index = _WORKER_SHARDS.get(key)
    if index is None:
        index = load_shard(bundle_path, shard, mmap=mmap)
        _WORKER_SHARDS[key] = index
    ids, dists = index.batch_query(queries, k=k, **kwargs)
    return ids, dists, dict(index.last_stats)


class ShardedIndex(ANNIndex):
    """Partition data across ``num_shards`` inner indexes built from one spec.

    Args:
        spec: :class:`IndexSpec` describing the per-shard index.
        num_shards: number of shards ``S``; ``fit`` splits the rows into
            ``S`` contiguous blocks (``np.array_split`` boundaries), so
            global id = shard offset + local id.
        parallel: ``"process"`` (default; falls back automatically when a
            pool cannot be used), ``"thread"``, or ``"serial"`` — how
            shard builds and query fan-out run.
        max_workers: worker cap for the pools (default
            ``min(num_shards, cpu_count)``).

    Query-time kwargs (``num_candidates``, ``n_probes``) are forwarded
    verbatim to every shard; each shard clamps them to its own size, so
    passing ``num_candidates >= n`` makes every shard — and therefore the
    merged result — exact.
    """

    name = "Sharded"

    def __init__(
        self,
        spec: IndexSpec,
        num_shards: int,
        parallel: str = "process",
        max_workers: Optional[int] = None,
    ):
        if not isinstance(spec, IndexSpec):
            raise TypeError("spec must be an IndexSpec")
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if parallel not in ("process", "thread", "serial"):
            raise ValueError("parallel must be 'process', 'thread' or 'serial'")
        template = spec.build()  # validates the recipe, donates metadata
        super().__init__(template.dim, template.metric, template.seed)
        self.spec = spec
        self.num_shards = int(num_shards)
        self.parallel = parallel
        self.max_workers = max_workers
        self.name = f"Sharded[{template.name}]x{num_shards}"
        self.shards: List[ANNIndex] = []
        #: shard start offsets in the original row numbering
        self._offsets = np.zeros(self.num_shards, dtype=np.int64)
        #: per shard: local id -> global id (monotone increasing); the
        #: arrays over-allocate by doubling so inserts are amortised O(1)
        #: (only the first ``_global_sizes[s]`` entries are meaningful)
        self._global_ids: List[np.ndarray] = []
        self._global_sizes: List[int] = []
        #: global handle -> (shard, local handle) for post-fit inserts
        self._inserted_loc: Dict[int, Tuple[int, int]] = {}
        self._next_handle = 0
        self._next_shard = 0
        #: how the last build actually ran ("process"/"thread"/"serial")
        self.build_mode: Optional[str] = None
        #: lazily created, reused across batch_query calls (pool spin-up
        #: is milliseconds — too slow to pay per query when serving);
        #: creation guarded so parallel readers share one pool
        self._fanout_pool = None
        self._pool_lock = threading.Lock()
        #: bundle provenance (set by ``load_index`` via `attach_bundle`):
        #: with ``parallel="process"`` batch queries fan out to a process
        #: pool whose workers open their shard from this path instead of
        #: receiving a pickled index
        self._bundle_path: Optional[str] = None
        self._bundle_mmap = False
        #: writes since load invalidate the on-disk copy the workers see
        self._bundle_stale = False
        self._process_pool = None

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _workers(self) -> int:
        cores = os.cpu_count() or 1
        cap = self.max_workers if self.max_workers else min(self.num_shards, cores)
        return max(1, cap)

    def attach_bundle(self, path: str, mmap: bool = False) -> None:
        """Record the bundle this index was loaded from.

        Called by :func:`repro.serve.persistence.load_index`.  With
        ``parallel="process"`` **and** ``mmap=True`` subsequent
        ``batch_query`` calls fan out to a process pool whose workers
        open their shard straight from ``path`` as read-only maps,
        sharing page-cache pages instead of receiving a pickled copy of
        the dataset.  Eager loads keep the in-process thread fan-out
        (bundle workers would each materialise a private shard copy —
        the duplication this feature exists to avoid).  Any write
        (``fit``/``insert``/``delete``) detaches the bundle — the
        on-disk copy no longer matches — and fan-out falls back to the
        in-process thread pool.
        """
        self._bundle_path = path
        self._bundle_mmap = bool(mmap)
        self._bundle_stale = False

    def _mark_bundle_stale(self) -> None:
        if self._bundle_path is not None:
            self._bundle_stale = True

    def _fit(self, data: np.ndarray) -> None:
        self._mark_bundle_stale()
        chunks = np.array_split(data, self.num_shards)
        sizes = np.array([len(c) for c in chunks], dtype=np.int64)
        if np.any(sizes == 0):
            raise ValueError(
                f"cannot split {len(data)} rows into {self.num_shards} "
                "non-empty shards; lower num_shards"
            )
        self._offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.shards = self._build_shards(chunks)
        self._global_ids = [
            np.arange(off, off + size, dtype=np.int64)
            for off, size in zip(self._offsets, sizes)
        ]
        self._global_sizes = [int(size) for size in sizes]
        self._inserted_loc = {}
        self._next_handle = int(len(data))
        self._next_shard = 0

    def _build_shards(self, chunks: List[np.ndarray]) -> List[ANNIndex]:
        # Only *pool infrastructure* failures (unpicklable payloads,
        # sandboxed fork, broken/unavailable pools) trigger a degraded
        # retry; a genuine error raised inside a shard's fit propagates
        # with its original type instead of re-running the whole build.
        import pickle as _pickle
        from concurrent.futures.process import BrokenProcessPool

        mode = self.parallel if len(chunks) > 1 else "serial"
        if mode == "process":
            try:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=self._workers()) as pool:
                    shards = list(
                        pool.map(_build_one_shard, [self.spec] * len(chunks), chunks)
                    )
                self.build_mode = "process"
                return shards
            except (BrokenProcessPool, _pickle.PicklingError, OSError, ImportError):
                mode = "thread"
        if mode == "thread":
            try:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=self._workers()) as pool:
                    shards = list(
                        pool.map(_build_one_shard, [self.spec] * len(chunks), chunks)
                    )
                self.build_mode = "thread"
                return shards
            except RuntimeError:  # e.g. "can't start new thread"
                mode = "serial"
        self.build_mode = "serial"
        return [_build_one_shard(self.spec, chunk) for chunk in chunks]

    # ------------------------------------------------------------------
    # Queries: fan out, map to global ids, merge
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return sum(shard.n for shard in self.shards) if self.shards else 0

    @property
    def is_fitted(self) -> bool:
        # Shards own the rows; no concatenated copy is kept (``_data``
        # holds the caller's array after ``fit`` but is absent after a
        # bundle load, where duplicating every shard would double RSS).
        return bool(self.shards)

    def _accumulate_shard_stats(self) -> None:
        for shard in self.shards:
            # best-effort under parallel readers, see ANNIndex._stats_items
            for key, val in self._stats_items(shard.last_stats):
                self.last_stats[key] = self.last_stats.get(key, 0.0) + float(val)
        self.last_stats["shards"] = float(self.num_shards)

    def _query(self, q: np.ndarray, k: int, **kwargs) -> Tuple[np.ndarray, np.ndarray]:
        per_ids: List[np.ndarray] = []
        per_dists: List[np.ndarray] = []
        for s, shard in enumerate(self.shards):
            ids, dists = shard.query(q, k=k, **kwargs)
            per_ids.append(self._global_ids[s][ids])
            per_dists.append(dists)
        self._accumulate_shard_stats()
        return merge_topk(per_ids, per_dists, k)

    def _batch_query(
        self, queries: np.ndarray, k: int, **kwargs
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fan the whole batch out shard by shard, merge per query.

        Each shard answers through its own vectorised ``batch_query``
        engine; with ``parallel != 'serial'`` the shard calls run on a
        thread pool (numpy kernels release the GIL for large batches).
        """

        shard_results = None
        if (
            self.parallel == "process"
            and self._bundle_path is not None
            and self._bundle_mmap  # eager workers would duplicate RAM
            and not self._bundle_stale
            and len(self.shards) > 1
        ):
            shard_results = self._bundle_fanout(queries, k, kwargs)
        if shard_results is None:

            def run(args: Tuple[int, ANNIndex]) -> Tuple[np.ndarray, np.ndarray]:
                _, shard = args
                return shard.batch_query(queries, k=k, **kwargs)

            jobs = list(enumerate(self.shards))
            pool = self._query_pool() if len(jobs) > 1 else None
            if pool is not None:
                shard_results = list(pool.map(run, jobs))
            else:
                shard_results = [run(job) for job in jobs]
            self._accumulate_shard_stats()
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for qi in range(len(queries)):
            per_ids: List[np.ndarray] = []
            per_dists: List[np.ndarray] = []
            for s, (ids_mat, dists_mat) in enumerate(shard_results):
                valid = ids_mat[qi] >= 0  # strip per-shard padding
                per_ids.append(self._global_ids[s][ids_mat[qi][valid]])
                per_dists.append(dists_mat[qi][valid])
            out.append(merge_topk(per_ids, per_dists, k))
        return out

    def _bundle_fanout(
        self, queries: np.ndarray, k: int, kwargs: dict
    ) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
        """Fan a batch out to bundle-backed worker processes.

        Workers answer from their own (cached, typically mmapped) copy
        of the shard loaded from ``self._bundle_path`` — byte-identical
        to the in-process shards by the save/load round-trip contract.
        Returns ``None`` when the pool cannot run (the caller then uses
        the in-process thread fan-out).
        """
        import pickle as _pickle
        from concurrent.futures.process import BrokenProcessPool

        from repro.serve.persistence import BundleError

        pool = self._process_fanout_pool()
        if pool is None:
            return None
        try:
            futures = [
                pool.submit(
                    _query_shard_from_bundle,
                    self._bundle_path,
                    s,
                    self._bundle_mmap,
                    queries,
                    k,
                    kwargs,
                )
                for s in range(len(self.shards))
            ]
            results = [f.result() for f in futures]
        except (BundleError, BrokenProcessPool, _pickle.PicklingError, OSError):
            # Unreadable bundle (e.g. deleted/rotated underneath us) or
            # pool infrastructure failure: detach and degrade to the
            # in-process thread fan-out for good — the parent's own
            # shards stay valid (their maps hold the old inodes open).
            self._close_process_pool()
            self._bundle_path = None
            return None
        for _, _, stats in results:
            for key, val in stats.items():
                self.last_stats[key] = self.last_stats.get(key, 0.0) + float(val)
        self.last_stats["shards"] = float(self.num_shards)
        return [(ids, dists) for ids, dists, _ in results]

    def _process_fanout_pool(self):
        """The reused bundle fan-out process pool, or ``None``."""
        with self._pool_lock:
            if self._process_pool is None:
                try:
                    from concurrent.futures import ProcessPoolExecutor

                    self._process_pool = ProcessPoolExecutor(
                        max_workers=self._workers()
                    )
                except (OSError, ImportError, RuntimeError):
                    self._bundle_path = None  # don't retry every call
                    return None
            return self._process_pool

    def _close_process_pool(self) -> None:
        with self._pool_lock:
            pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Dynamic routing (shards must support insert/delete themselves)
    # ------------------------------------------------------------------

    def _require_dynamic(self) -> None:
        if not self.shards:
            raise RuntimeError("fit the index before inserting/deleting")
        for shard in self.shards:
            if not (hasattr(shard, "insert") and hasattr(shard, "delete")):
                raise TypeError(
                    f"shard index {type(shard).__name__} does not support "
                    "insert/delete; use a dynamic spec (e.g. DynamicLCCSLSH)"
                )

    def insert(self, vector: np.ndarray) -> int:
        """Insert one vector into the next shard (round-robin).

        Returns a global handle following the same sequence an unsharded
        dynamic index would produce (``n``, ``n+1``, ...).
        """
        self._require_dynamic()
        self._mark_bundle_stale()
        s = self._next_shard
        self._next_shard = (s + 1) % self.num_shards
        local = self.shards[s].insert(vector)
        handle = self._next_handle
        self._next_handle += 1
        self._append_global(s, handle)
        self._inserted_loc[handle] = (s, int(local))
        return handle

    def _append_global(self, s: int, handle: int) -> None:
        """Amortised O(1) append to the shard's local->global map."""
        size = self._global_sizes[s]
        arr = self._global_ids[s]
        if size == len(arr):
            grown = np.empty(max(4, 2 * len(arr)), dtype=np.int64)
            grown[:size] = arr[:size]
            self._global_ids[s] = arr = grown
        arr[size] = handle
        self._global_sizes[s] = size + 1

    def delete(self, handle: int) -> None:
        """Delete by global handle; raises ``KeyError`` if unknown/dead."""
        self._require_dynamic()
        self._mark_bundle_stale()
        shard, local = self._locate(int(handle))
        self.shards[shard].delete(local)

    def _locate(self, handle: int) -> Tuple[int, int]:
        if handle in self._inserted_loc:
            return self._inserted_loc[handle]
        # Handles from the initial fit resolve arithmetically: shard by
        # offset bisection, local id by offset subtraction.
        if 0 <= handle < self._next_handle:
            s = int(np.searchsorted(self._offsets, handle, side="right") - 1)
            local = handle - int(self._offsets[s])
            # Guard against handles past the initial block of shard s
            # that were not inserts (i.e. beyond the fitted rows).
            if local < self._global_sizes[s] and int(
                self._global_ids[s][local]
            ) == handle:
                return s, local
        raise KeyError(f"unknown handle {handle}")

    # ------------------------------------------------------------------

    def _query_pool(self):
        """The reused fan-out thread pool, or ``None`` for serial mode.

        Created on first use and kept for the life of the index; falls
        back to ``None`` (serial fan-out) if threads cannot be started.
        """
        if self.parallel == "serial":
            return None
        with self._pool_lock:
            if self._fanout_pool is None:
                try:
                    from concurrent.futures import ThreadPoolExecutor

                    self._fanout_pool = ThreadPoolExecutor(
                        max_workers=self._workers(),
                        thread_name_prefix="shard-fanout",
                    )
                except RuntimeError:  # e.g. "can't start new thread"
                    self.parallel = "serial"
                    return None
            return self._fanout_pool

    def close(self) -> None:
        """Shut down the reused fan-out pools (idempotent).

        The index stays usable — the next parallel ``batch_query``
        simply spins a fresh pool up.
        """
        with self._pool_lock:
            pool, self._fanout_pool = self._fanout_pool, None
            ppool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if ppool is not None:
            ppool.shutdown(wait=True)

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def index_size_bytes(self) -> int:
        return sum(shard.index_size_bytes() for shard in self.shards)

    # ------------------------------------------------------------------
    # Native persistence: spec + bookkeeping + one nested payload per
    # shard under a ``shard<i>.`` array prefix.
    # ------------------------------------------------------------------

    def _export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        from repro.serve.persistence import export_index, json_safe, pack_nested

        spec_manifest = self.spec.to_manifest()
        if not json_safe(spec_manifest):
            raise NotImplementedError(
                "ShardedIndex spec kwargs are not JSON-safe"
            )
        state: dict = {
            "spec": spec_manifest,
            "num_shards": self.num_shards,
            "parallel": self.parallel,
            "max_workers": self.max_workers,
            "next_handle": self._next_handle,
            "next_shard": self._next_shard,
            "inserted_loc": {
                str(h): [s, l] for h, (s, l) in self._inserted_loc.items()
            },
            "shards": [],
        }
        arrays: Dict[str, np.ndarray] = {}
        if self.shards:
            arrays["offsets"] = self._offsets
            for i, shard in enumerate(self.shards):
                manifest, shard_arrays = export_index(shard)
                state["shards"].append(manifest)
                arrays.update(pack_nested(shard_arrays, f"shard{i}"))
                arrays[f"global_ids{i}"] = self._global_ids[i][
                    : self._global_sizes[i]
                ]
        return state, arrays

    @classmethod
    def _import_state(
        cls, manifest: dict, arrays: Dict[str, np.ndarray]
    ) -> "ShardedIndex":
        from repro.serve.persistence import import_index, unpack_nested

        state = manifest["state"]
        index = cls(
            IndexSpec.from_manifest(state["spec"]),
            num_shards=int(state["num_shards"]),
            parallel=state["parallel"],
            max_workers=state["max_workers"],
        )
        shard_manifests = state["shards"]
        if shard_manifests:
            index.shards = [
                import_index(
                    m, unpack_nested(arrays, f"shard{i}"), source=f"<shard {i}>"
                )
                for i, m in enumerate(shard_manifests)
            ]
            index._offsets = np.asarray(arrays["offsets"], dtype=np.int64)
            index._global_ids = [
                np.asarray(arrays[f"global_ids{i}"], dtype=np.int64)
                for i in range(len(shard_manifests))
            ]
            index._global_sizes = [len(g) for g in index._global_ids]
        index._next_handle = int(state["next_handle"])
        index._next_shard = int(state["next_shard"])
        index._inserted_loc = {
            int(h): (int(s), int(l))
            for h, (s, l) in state["inserted_loc"].items()
        }
        return index
