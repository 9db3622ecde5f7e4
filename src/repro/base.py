"""Common interface shared by LCCS-LSH and every baseline index.

All approximate (and exact) nearest-neighbour indexes in this library
implement :class:`ANNIndex`: ``fit(data)`` then ``query(q, k)`` returning
``(ids, distances)`` sorted by ascending true distance.  The base class
owns input validation, candidate verification against the raw vectors,
wall-clock accounting, and machine-independent work counters (candidates
verified, hash evaluations) that the benchmark harness reports alongside
times.

**Thread safety:** indexes are single-threaded objects — ``query``
mutates ``last_stats`` and dynamic indexes rewrite internal structures.
To share one across threads, wrap it via :meth:`ANNIndex.concurrent`
(many parallel readers, exclusive writers, no writer starvation) or
serve it through :class:`repro.serve.ANNService` (adds a version-keyed
query cache and micro-batching on top of the locks).
"""

from __future__ import annotations

import abc
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distances import pairwise, pairwise_rows

__all__ = ["ANNIndex"]


class ANNIndex(abc.ABC):
    """Abstract nearest-neighbour index.

    Subclasses implement ``_fit`` and ``_query``; the public ``fit`` /
    ``query`` wrappers validate inputs, keep the raw data for candidate
    verification, and record ``build_time`` and per-query statistics in
    ``last_stats``.

    Args:
        dim: vector dimensionality the index accepts.
        metric: distance metric name (see :mod:`repro.distances`).
        seed: RNG seed for any randomised components.
    """

    #: human-readable method name, overridden by subclasses
    name: str = "ann-index"

    def __init__(self, dim: int, metric: str = "euclidean", seed: Optional[int] = None):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.metric = metric
        self.seed = seed
        self.build_time: float = 0.0
        self.last_stats: Dict[str, float] = {}
        self._data: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of indexed points (0 before ``fit``)."""
        return 0 if self._data is None else len(self._data)

    @property
    def is_fitted(self) -> bool:
        return self._data is not None

    def fit(self, data: np.ndarray) -> "ANNIndex":
        """Build the index over ``data`` of shape ``(n, dim)``."""
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-d, got shape {data.shape}")
        if data.shape[0] == 0:
            raise ValueError("cannot index an empty dataset")
        if data.shape[1] != self.dim:
            raise ValueError(
                f"data has dim {data.shape[1]}, index expects {self.dim}"
            )
        self._data = data
        start = time.perf_counter()
        self._fit(data)
        self.build_time = time.perf_counter() - start
        return self

    def query(
        self, q: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k``: returns ``(ids, distances)``.

        Both arrays are sorted by ascending distance and may be shorter
        than ``k`` if the index surfaced fewer candidates.
        """
        if not self.is_fitted:
            raise RuntimeError("index must be fitted before querying")
        q = np.asarray(q)
        if q.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {q.shape}")
        if k <= 0:
            raise ValueError("k must be positive")
        self.last_stats = {}
        return self._query(q, k, **kwargs)

    def batch_query(
        self, queries: np.ndarray, k: int = 1, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query every row; results padded with ``-1`` / ``inf`` to ``k``.

        Dispatches to the subclass :meth:`_batch_query` hook — vectorised
        top-to-bottom for the LCCS family, a per-query loop elsewhere —
        and always returns the same ids and distances as calling
        :meth:`query` row by row.  After the call ``last_stats`` holds
        work counters summed over the whole batch.
        """
        if not self.is_fitted:
            raise RuntimeError("index must be fitted before querying")
        queries = np.asarray(queries)
        if queries.ndim != 2:
            raise ValueError("queries must be 2-d")
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"queries have dim {queries.shape[1]}, index expects {self.dim}"
            )
        if k <= 0:
            raise ValueError("k must be positive")
        self.last_stats = {}
        results = self._batch_query(queries, k, **kwargs)
        ids = np.full((len(queries), k), -1, dtype=np.int64)
        dists = np.full((len(queries), k), np.inf)
        for i, (qi, qd) in enumerate(results):
            ids[i, : len(qi)] = qi
            dists[i, : len(qd)] = qd
        return ids, dists

    def index_size_bytes(self) -> int:
        """Memory used by the *index structures* (excludes the raw data)."""
        return 0

    def save(self, path: str) -> None:
        """Persist the index (including the raw data) as a bundle at ``path``.

        The bundle is a directory holding ``manifest.json`` plus one raw
        ``.npy`` file per array (see
        :mod:`repro.serve.persistence`), so it can be reopened with
        ``load(path, mmap=True)`` without reading the payload.  Indexes
        implementing the :meth:`_export_state` / :meth:`_import_state`
        hooks are written natively (no pickle anywhere); the rest go
        through the documented pickle fallback inside the same bundle
        layout.
        """
        from repro.serve.persistence import save_index

        save_index(self, path)

    @staticmethod
    def load(path: str, mmap: bool = False) -> "ANNIndex":
        """Load an index previously written by :meth:`save`.

        Accepts a bundle directory only, raising
        :class:`repro.serve.persistence.BundleError` on anything else
        (a regular file, a corrupt or wrong-version bundle).  With
        ``mmap=True`` the bundle opens as read-only memory maps —
        servable in milliseconds, with the OS page cache holding the
        only copy of the arrays — and answers queries byte-identically
        to an eager load.
        """
        from repro.serve.persistence import load_index

        return load_index(path, mmap=mmap)

    def concurrent(self) -> "repro.serve.concurrency.ConcurrentIndex":
        """Wrap this index in a thread-safe reader-writer facade.

        The returned :class:`~repro.serve.concurrency.ConcurrentIndex`
        runs ``query``/``batch_query`` under a shared lock (parallel
        readers) and ``insert``/``delete``/``fit`` under an exclusive
        lock with writer preference, and versions every write.  Use the
        wrapper exclusively afterwards — touching this index directly
        from another thread bypasses the locks.
        """
        from repro.serve.concurrency import ConcurrentIndex

        return ConcurrentIndex(self)

    # ------------------------------------------------------------------
    # Hooks and helpers for subclasses
    # ------------------------------------------------------------------

    def _export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Split the index into JSON-safe metadata and named arrays.

        Native-persistence hook: return ``(state, arrays)`` where
        ``state`` survives a JSON round trip and ``arrays`` maps names to
        numpy arrays; common fields (``dim``, ``metric``, ``seed``,
        ``build_time``, ``last_stats``) are recorded by the caller and
        must not be duplicated here.  The default raises
        ``NotImplementedError``, which makes ``save`` fall back to the
        documented pickle serializer.
        """
        raise NotImplementedError

    @classmethod
    def _import_state(
        cls, manifest: dict, arrays: Dict[str, np.ndarray]
    ) -> "ANNIndex":
        """Rebuild an index from a bundle's manifest and arrays.

        Counterpart of :meth:`_export_state`; ``manifest["state"]`` holds
        the subclass metadata and ``manifest`` itself the common fields.
        Implementations must reproduce an index whose queries are
        byte-identical to the saved one's.
        """
        raise NotImplementedError

    @abc.abstractmethod
    def _fit(self, data: np.ndarray) -> None:
        """Build index structures; ``data`` is already validated."""

    @abc.abstractmethod
    def _query(
        self, q: np.ndarray, k: int, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer one validated query."""

    @staticmethod
    def _stats_items(stats: Dict[str, float]) -> List[Tuple[str, float]]:
        """Best-effort snapshot of a possibly-racing ``last_stats`` dict.

        ``last_stats`` is per-query scratch and inherently racy under
        parallel readers (e.g. behind
        :class:`~repro.serve.concurrency.ConcurrentIndex`); a concurrent
        reset mid-iteration must degrade the *counters*, never fail the
        query.  Exact aggregate counters for concurrent serving live in
        ``ConcurrentIndex.stats()``.
        """
        try:
            return list(stats.items())
        except RuntimeError:  # dict mutated by a parallel reader
            return []

    def _batch_query(
        self, queries: np.ndarray, k: int, **kwargs
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Answer a validated query batch: one ``(ids, dists)`` per row.

        The default loops :meth:`_query`; indexes with a vectorised path
        override it.  Implementations must return exactly what the
        single-query path would (the equivalence the test suite pins
        down) and accumulate work counters into ``last_stats`` as batch
        totals.
        """
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        acc: Dict[str, float] = {}
        for q in queries:
            # Single-query implementations overwrite last_stats per call;
            # reset before each and sum after so the batch contract
            # (counters are batch totals) holds for every index.
            self.last_stats = {}
            out.append(self._query(np.asarray(q), k, **kwargs))
            for key, val in self._stats_items(self.last_stats):
                acc[key] = acc.get(key, 0.0) + float(val)
        self.last_stats = acc
        return out

    def _verify(
        self, candidate_ids: np.ndarray, q: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank candidates by true distance and keep the best ``k``.

        Updates ``last_stats['candidates']``; deduplicates ids; ties are
        broken by id for determinism.
        """
        candidate_ids = np.unique(np.asarray(candidate_ids, dtype=np.int64))
        self.last_stats["candidates"] = self.last_stats.get("candidates", 0.0) + len(
            candidate_ids
        )
        if len(candidate_ids) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dists = pairwise(self._data[candidate_ids], q, self.metric)
        order = np.lexsort((candidate_ids, dists))[: min(k, len(candidate_ids))]
        return candidate_ids[order], dists[order]

    def _verify_batch(
        self,
        candidate_ids_per_query: Sequence[np.ndarray],
        queries: np.ndarray,
        k: int,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Rank every query's candidates with one fused distance kernel.

        The candidates of all queries are gathered into a single matrix
        and ranked via one :func:`pairwise_rows` call per batch instead
        of one :func:`pairwise` call per query.  Per query the output
        (ids, distances, tie-breaks) is identical to :meth:`_verify`.
        """
        uniq = [
            np.unique(np.asarray(c, dtype=np.int64))
            for c in candidate_ids_per_query
        ]
        counts = np.array([len(u) for u in uniq], dtype=np.int64)
        self.last_stats["candidates"] = self.last_stats.get(
            "candidates", 0.0
        ) + float(counts.sum())
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        if counts.sum() == 0:
            return [empty for _ in uniq]
        flat_ids = np.concatenate(uniq)
        rep_queries = np.repeat(np.asarray(queries), counts, axis=0)
        flat_dists = pairwise_rows(
            self._data[flat_ids], rep_queries, self.metric
        )
        offsets = np.concatenate([[0], np.cumsum(counts)])
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for i, u in enumerate(uniq):
            if len(u) == 0:
                out.append(empty)
                continue
            d = flat_dists[offsets[i] : offsets[i + 1]]
            order = np.lexsort((u, d))[: min(k, len(u))]
            out.append((u[order], d[order]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"n={self.n}" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}(dim={self.dim}, metric={self.metric!r}, {state})"
