"""Timed evaluation of an index over a query batch (paper §6.2 metrics).

``evaluate`` runs every query through a fitted (or unfitted) index and
reports average recall, overall ratio, query time, indexing time and
index size — the five measurements behind all of the paper's figures —
plus machine-independent work counters (candidates verified, buckets
probed) that make shapes comparable across implementations.

With ``batch=True`` the queries go through the index's vectorised
``batch_query`` engine in one call, and the result additionally carries
the batch throughput (``qps``).  Scoring always happens *outside* the
timed window, so ``avg_query_time_ms`` measures query work only.

``evaluate_service`` runs the same workload through
:class:`repro.serve.ANNService` from ``threads`` concurrent client
threads — the serving configuration — and folds the service's exact
counters (cache hit ratio, micro-batch sizes, lock-layer reads/writes)
into the result's ``stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.base import ANNIndex
from repro.data.ground_truth import GroundTruth
from repro.eval.metrics import overall_ratio, recall

__all__ = ["EvalResult", "evaluate", "evaluate_service"]


@dataclass
class EvalResult:
    """Aggregated measurements for one (method, parameters) point."""

    method: str
    k: int
    recall: float
    ratio: float
    avg_query_time_ms: float
    build_time_s: float
    index_size_mb: float
    #: queries answered per second over the whole (looped or batched) run
    qps: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.method:<18} recall={self.recall * 100:6.2f}%  "
            f"ratio={self.ratio:6.4f}  time={self.avg_query_time_ms:9.3f} ms  "
            f"qps={self.qps:10.1f}  "
            f"build={self.build_time_s:7.2f} s  size={self.index_size_mb:8.2f} MB"
        )


def _score(
    collected: List[Tuple[np.ndarray, np.ndarray]],
    ground_truth: GroundTruth,
    k: int,
) -> Tuple[float, float]:
    """Mean recall and mean finite overall-ratio over collected results."""
    recalls = np.empty(len(collected))
    ratios = np.empty(len(collected))
    for i, (ids, dists) in enumerate(collected):
        recalls[i] = recall(ids, ground_truth.indices[i, :k])
        ratios[i] = overall_ratio(dists, ground_truth.distances[i, :k])
    finite = ratios[np.isfinite(ratios)]
    return (
        float(recalls.mean()),
        float(finite.mean()) if len(finite) else float("inf"),
    )


def evaluate(
    index: ANNIndex,
    data: np.ndarray,
    queries: np.ndarray,
    ground_truth: GroundTruth,
    k: int = 10,
    query_kwargs: Optional[Dict[str, Any]] = None,
    params: Optional[Dict[str, Any]] = None,
    batch: bool = False,
) -> EvalResult:
    """Fit (if needed) and evaluate ``index`` on ``queries``.

    Args:
        index: any :class:`ANNIndex`; fitted indexes are reused so
            parameter sweeps that only change query-time knobs don't pay
            the build again.
        data: the base vectors (used to fit if the index is unfitted).
        queries: ``(nq, d)`` query batch.
        ground_truth: exact neighbours with ``ground_truth.k >= k``.
        k: number of neighbours to request.
        query_kwargs: extra arguments forwarded to ``index.query``
            (e.g. ``num_candidates``, ``n_probes``).
        params: free-form parameter dict recorded in the result.  For a
            :class:`~repro.serve.sharding.ShardedIndex` the shard count
            and build mode are recorded automatically, so sharded and
            unsharded runs are distinguishable in reports.
        batch: when True, answer all queries through one
            ``index.batch_query`` call (the vectorised engine) instead of
            a per-query loop; accuracy metrics are unchanged because both
            paths return identical results.
    """
    if ground_truth.k < k:
        raise ValueError(
            f"ground truth has k={ground_truth.k}, need at least {k}"
        )
    if len(queries) != len(ground_truth):
        raise ValueError("queries and ground truth must align")
    query_kwargs = query_kwargs or {}
    if not index.is_fitted:
        index.fit(data)
    nq = len(queries)
    collected: List[Tuple[np.ndarray, np.ndarray]] = []
    stats_acc: Dict[str, float] = {}
    if batch:
        start = time.perf_counter()
        all_ids, all_dists = index.batch_query(queries, k=k, **query_kwargs)
        elapsed = time.perf_counter() - start
        stats_acc = {key: float(val) for key, val in index.last_stats.items()}
        for row_ids, row_dists in zip(all_ids, all_dists):
            valid = row_ids >= 0  # strip the -1 / inf padding before scoring
            collected.append((row_ids[valid], row_dists[valid]))
    else:
        per_query_stats: List[Dict[str, float]] = []
        start = time.perf_counter()
        for q in queries:
            collected.append(index.query(q, k=k, **query_kwargs))
            per_query_stats.append(index.last_stats)
        elapsed = time.perf_counter() - start
        for stats in per_query_stats:
            for key, val in stats.items():
                stats_acc[key] = stats_acc.get(key, 0.0) + float(val)
    # Scoring runs outside the timed window: recall()/overall_ratio()
    # are harness overhead, not query work.
    mean_recall, mean_ratio = _score(collected, ground_truth, k)
    stats_avg = {key: val / nq for key, val in stats_acc.items()}
    params = dict(params or {})
    # Sharded indexes evaluate like any other; annotate the result so
    # sweeps over shard counts stay self-describing.
    num_shards = getattr(index, "num_shards", None)
    if num_shards is not None:
        params.setdefault("shards", int(num_shards))
        build_mode = getattr(index, "build_mode", None)
        if build_mode is not None:
            params.setdefault("build_mode", build_mode)
    return EvalResult(
        method=index.name,
        k=k,
        recall=mean_recall,
        ratio=mean_ratio,
        avg_query_time_ms=elapsed / nq * 1e3,
        build_time_s=index.build_time,
        index_size_mb=index.index_size_bytes() / (1024.0 * 1024.0),
        qps=nq / elapsed if elapsed > 0 else float("inf"),
        params=params,
        stats=stats_avg,
    )


def evaluate_service(
    index: ANNIndex,
    data: np.ndarray,
    queries: np.ndarray,
    ground_truth: GroundTruth,
    k: int = 10,
    query_kwargs: Optional[Dict[str, Any]] = None,
    params: Optional[Dict[str, Any]] = None,
    threads: int = 1,
    cache_size: int = 1024,
    max_batch_size: int = 32,
) -> EvalResult:
    """Evaluate ``index`` served through :class:`repro.serve.ANNService`.

    Every query is submitted as a *single* request from a pool of
    ``threads`` client threads, so the measured throughput includes the
    service's locking, caching, and micro-batching — the serving
    configuration rather than the library-call configuration that
    :func:`evaluate` measures.  Results are identical to direct queries
    (the service's equivalence contract), so recall/ratio match
    :func:`evaluate` exactly.

    Args:
        threads: number of concurrent client threads issuing requests.
        cache_size: service LRU capacity (0 disables the result cache).
        max_batch_size: micro-batch size cap, see
            :class:`~repro.serve.service.ANNService`.

    The result's ``stats`` carries the service's exact counters —
    ``cache_hit_ratio``, ``batches``, ``avg_batch_size``, ``reads`` —
    plus the client ``threads``.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve.service import ANNService

    if ground_truth.k < k:
        raise ValueError(
            f"ground truth has k={ground_truth.k}, need at least {k}"
        )
    if len(queries) != len(ground_truth):
        raise ValueError("queries and ground truth must align")
    if threads <= 0:
        raise ValueError("threads must be positive")
    query_kwargs = query_kwargs or {}
    if not index.is_fitted:
        index.fit(data)
    nq = len(queries)
    with ANNService(
        index,
        cache_size=cache_size,
        max_batch_size=max_batch_size,
    ) as service:

        def one(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return service.query(q, k=k, **query_kwargs)

        start = time.perf_counter()
        if threads == 1:
            collected = [one(q) for q in queries]
        else:
            with ThreadPoolExecutor(max_workers=threads) as clients:
                collected = list(clients.map(one, queries))
        elapsed = time.perf_counter() - start
        service_stats = service.stats()
    mean_recall, mean_ratio = _score(collected, ground_truth, k)
    params = dict(params or {})
    params.setdefault("threads", int(threads))
    params.setdefault("cache_size", int(cache_size))
    service_stats["threads"] = float(threads)
    return EvalResult(
        method=f"{index.name}+service",
        k=k,
        recall=mean_recall,
        ratio=mean_ratio,
        avg_query_time_ms=elapsed / nq * 1e3,
        build_time_s=index.build_time,
        index_size_mb=index.index_size_bytes() / (1024.0 * 1024.0),
        qps=nq / elapsed if elapsed > 0 else float("inf"),
        params=params,
        # Service stats now include non-numeric entries (kernel_backend);
        # record them in params and keep the numeric stats contract.
        stats=_numeric_stats(service_stats, params),
    )


def _numeric_stats(stats: dict, params: dict) -> Dict[str, float]:
    """Split stats into floats (returned) and labels (moved to params)."""
    out: Dict[str, float] = {}
    for key, val in stats.items():
        try:
            out[key] = float(val)
        except (TypeError, ValueError):
            params.setdefault(key, val)
    return out
