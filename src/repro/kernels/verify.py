"""Fused candidate verification on the engine.

:func:`verify_batch` replaces :meth:`repro.base.ANNIndex._verify_batch`
for the LCCS family.  Its contract is strict: per query the returned
``(ids, distances)`` are **byte-identical** to the base implementation
on every eligible fast path (and without an engine it *is* the base
implementation).  Three facts make the fast paths safe:

* candidate lists coming out of the CSA merges are duplicate-free (the
  tournament/heap dedupe against a seen-set), so re-running
  ``np.unique`` only re-sorts — and the engine's top-k selection by
  ascending ``(distance, id)`` is independent of input order for
  distinct pairs;
* the float64 distance *values* always come from the same elementwise
  operations and reduction as :func:`repro.distances.pairwise_rows`
  (the C ``gather_diff`` only fuses the IEEE-exact gather and
  subtraction; the einsum reduction is shared), so bits cannot drift.
  The store holds its vectors in the narrowest exact type
  (:mod:`repro.core.store`); both paths widen the gathered rows to
  float64 before subtracting, which is exact, so a narrow store answers
  with the float64 store's distance values;
* integer metrics are exactly representable: XOR-plus-popcount over
  bit-packed rows equals the unpacked Hamming count whenever both
  sides are binary, which eligibility checks enforce.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.base import ANNIndex, widened
from repro.core.store import STORE_DTYPES
from repro.distances import pairwise_rows
from repro.distances.metrics import pack_bits

__all__ = ["verify_batch", "verify_flat"]

#: metrics whose row-distance factors into (elementwise diff, reduction)
_GATHER_METRICS = ("euclidean", "squared_euclidean", "manhattan")


def _is_binary(arr: np.ndarray) -> bool:
    return bool(((arr == 0) | (arr == 1)).all())


def _reduce_diff(diff: np.ndarray, metric: str) -> np.ndarray:
    """The reduction half of the ``pairwise_rows`` kernels (same bits)."""
    if metric == "euclidean":
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if metric == "squared_euclidean":
        return np.einsum("ij,ij->i", diff, diff)
    return np.sum(np.abs(diff), axis=1)


def _get_packed_data(index) -> Optional[np.ndarray]:
    """Bit-packed ``index._data`` if it is binary, cached per data array."""
    data = index._data
    cached = getattr(index, "_kv_packed", None)
    if cached is not None and cached[0] is data:
        return cached[1]
    packed = pack_bits(data) if _is_binary(data) else None
    index._kv_packed = (data, packed)
    return packed


def _owner_of(offsets: np.ndarray) -> np.ndarray:
    """Owning query of every flat candidate row."""
    return np.repeat(
        np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
    )


def _flatten(ids_per_query: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-query id arrays laid end to end: ``(flat_ids, offsets)``."""
    offsets = np.zeros(len(ids_per_query) + 1, dtype=np.int64)
    if not ids_per_query:
        return np.empty(0, dtype=np.int64), offsets
    np.cumsum([len(ids) for ids in ids_per_query], out=offsets[1:])
    flat_ids = np.ascontiguousarray(np.concatenate(ids_per_query))
    return flat_ids.astype(np.int64, copy=False), offsets


def _can_gather(data: np.ndarray, metric: str) -> bool:
    return (
        metric in _GATHER_METRICS
        and data.dtype in STORE_DTYPES
        and data.flags["C_CONTIGUOUS"]
    )


def verify_batch(
    index,
    engine,
    candidate_ids_per_query: Sequence[np.ndarray],
    queries: np.ndarray,
    k: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Rank every query's candidates; drop-in for ``_verify_batch``.

    ``candidate_ids_per_query`` must be duplicate-free per query (the
    CSA merges guarantee this); see :func:`verify_flat` for the rest.
    """
    flat_ids, offsets = _flatten(
        [np.asarray(c, dtype=np.int64) for c in candidate_ids_per_query]
    )
    return verify_flat(index, engine, flat_ids, offsets, queries, k)


def verify_flat(
    index,
    engine,
    flat_ids: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """:func:`verify_batch` on candidates already laid end to end.

    Query ``qi``'s duplicate-free candidates are
    ``flat_ids[offsets[qi]:offsets[qi + 1]]`` (int64, contiguous — what
    ``CircularShiftArray._batch_k_lccs_flat`` returns); ``index``
    supplies data, metric and the ``last_stats`` accumulator;
    ``engine`` is the compiled backend, or
    ``None`` to rank through :meth:`repro.base.ANNIndex._verify_batch`.
    """
    if engine is None:
        bounds = offsets.tolist()
        per_query = [flat_ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        return ANNIndex._verify_batch(index, per_query, queries, k)
    data = index._data
    metric = index.metric
    Q = len(offsets) - 1
    index.last_stats["candidates"] = index.last_stats.get(
        "candidates", 0.0
    ) + float(len(flat_ids))
    if len(flat_ids) == 0:
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        return [empty for _ in range(Q)]
    queries = np.asarray(queries)

    dists = None
    if metric == "hamming":
        packed = _get_packed_data(index)
        if packed is not None and _is_binary(queries):
            q_packed = pack_bits(queries)
            dists = engine.hamming_packed(
                packed[flat_ids], q_packed[_owner_of(offsets)]
            )
    elif _can_gather(data, metric):
        q64 = np.ascontiguousarray(queries, dtype=np.float64)
        dists = _reduce_diff(engine.gather_diff(data, flat_ids, offsets, q64), metric)
    if dists is None:
        # the distances ANNIndex._verify_batch computes
        rep_queries = np.repeat(queries, np.diff(offsets), axis=0)
        dists = pairwise_rows(widened(data, flat_ids), rep_queries, metric)
    return engine.topk_select(flat_ids, dists, offsets, k)
