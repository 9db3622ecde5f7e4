"""Phase-level profiling of LCCS-LSH queries.

Breaks one query into the paper's cost components (§5.2):

* ``hash`` — computing the query's m hash values, ``O(m * eta(d))``;
* ``search`` — the binary searches over the CSA, ``O(log n)`` amortised;
* ``merge`` — the 2m-way heap merge emitting candidates,
  ``O((m + lambda) log m)``;
* ``verify`` — true-distance computation over candidates, ``O(lambda*d)``.

Useful for diagnosing which regime a configuration is in (e.g. Table 1's
``alpha`` settings trade ``verify`` against ``search``/``merge``).

Two entry points:

* :func:`profile_query` replays one single-probe query phase by phase;
* :func:`profile_batch_query` runs the vectorised batch path once and
  reads the per-stage wall-clock the engine itself records in
  ``last_stats`` (``stage_{hash,search,merge,verify}_s``) — the same
  numbers ``evaluate(...)`` surfaces, which is what makes engine
  speedups attributable per stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.lccs_lsh import LCCSLSH

__all__ = [
    "QueryProfile",
    "profile_query",
    "BatchQueryProfile",
    "profile_batch_query",
]


@dataclass(frozen=True)
class QueryProfile:
    """Wall-clock (ms) per query phase plus result metadata."""

    hash_ms: float
    search_ms: float
    merge_ms: float
    verify_ms: float
    candidates: int
    max_lccs: int

    @property
    def total_ms(self) -> float:
        return self.hash_ms + self.search_ms + self.merge_ms + self.verify_ms

    def as_dict(self) -> Dict[str, float]:
        return {
            "hash_ms": self.hash_ms,
            "search_ms": self.search_ms,
            "merge_ms": self.merge_ms,
            "verify_ms": self.verify_ms,
            "total_ms": self.total_ms,
            "candidates": float(self.candidates),
            "max_lccs": float(self.max_lccs),
        }


def profile_query(
    index: LCCSLSH,
    q: np.ndarray,
    k: int = 10,
    num_candidates: Optional[int] = None,
) -> QueryProfile:
    """Run one LCCS-LSH query, timing each phase separately.

    Replays the exact single-probe query path (hash -> per-shift search
    -> heap merge -> verification); the returned answer set matches
    ``index.query`` for the same arguments.
    """
    if index.csa is None:
        raise RuntimeError("index must be fitted before profiling")
    if num_candidates is None:
        num_candidates = index.default_candidates(k)
    budget = min(index.n, num_candidates + k - 1)

    start = time.perf_counter()
    query_string = index.family.hash(q)
    t_hash = time.perf_counter() - start

    start = time.perf_counter()
    bounds = index.csa.search_all_shifts(query_string)
    t_search = time.perf_counter() - start

    start = time.perf_counter()
    qd = index.csa.query_rotations(query_string)
    cand_ids, lccs_lens = index.csa.merge_candidates(qd, bounds, budget)
    t_merge = time.perf_counter() - start

    start = time.perf_counter()
    index.last_stats = {}
    index._verify(cand_ids, np.asarray(q), k)
    t_verify = time.perf_counter() - start

    return QueryProfile(
        hash_ms=t_hash * 1e3,
        search_ms=t_search * 1e3,
        merge_ms=t_merge * 1e3,
        verify_ms=t_verify * 1e3,
        candidates=len(cand_ids),
        max_lccs=int(lccs_lens[0]) if len(lccs_lens) else 0,
    )


@dataclass(frozen=True)
class BatchQueryProfile:
    """Per-stage wall-clock (seconds) for one ``batch_query`` call."""

    backend: str
    num_queries: int
    hash_s: float
    search_s: float
    merge_s: float
    verify_s: float
    total_s: float
    candidates: float

    @property
    def qps(self) -> float:
        return self.num_queries / self.total_s if self.total_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_queries": float(self.num_queries),
            "hash_s": self.hash_s,
            "search_s": self.search_s,
            "merge_s": self.merge_s,
            "verify_s": self.verify_s,
            "total_s": self.total_s,
            "qps": self.qps,
            "candidates": self.candidates,
        }


def profile_batch_query(
    index: LCCSLSH,
    queries: np.ndarray,
    k: int = 10,
    num_candidates: Optional[int] = None,
) -> BatchQueryProfile:
    """Run one vectorised ``batch_query`` and attribute time per stage.

    Stage times come straight from the engine's own instrumentation
    (``last_stats['stage_*_s']``, recorded inside ``_batch_query``), so
    the breakdown reflects exactly what the engine (or the scalar
    fallback) executed — no replaying, no double work.  ``total_s`` is the end to
    end wall-clock of the call (it can exceed the stage sum slightly due
    to result assembly).
    """
    if index.csa is None:
        raise RuntimeError("index must be fitted before profiling")
    queries = np.asarray(queries)
    start = time.perf_counter()
    index.batch_query(queries, k, num_candidates=num_candidates)
    total = time.perf_counter() - start
    stats = index.last_stats
    return BatchQueryProfile(
        backend=index.kernel_backend,
        num_queries=len(queries),
        hash_s=float(stats.get("stage_hash_s", 0.0)),
        search_s=float(stats.get("stage_search_s", 0.0)),
        merge_s=float(stats.get("stage_merge_s", 0.0)),
        verify_s=float(stats.get("stage_verify_s", 0.0)),
        total_s=total,
        candidates=float(stats.get("candidates", 0.0)),
    )
