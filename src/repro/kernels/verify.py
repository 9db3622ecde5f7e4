"""Fused candidate verification for the kernel backends.

:func:`verify_batch` replaces :meth:`repro.base.ANNIndex._verify_batch`
for the LCCS family.  Its contract is strict: per query the returned
``(ids, distances)`` are **byte-identical** to the base implementation
for every backend and every eligible fast path.  Three facts make the
fast paths safe:

* candidate lists coming out of the CSA merges are duplicate-free (the
  tournament/heap dedupe against a seen-set), so re-running
  ``np.unique`` only re-sorts — and top-k selection by ascending
  ``(distance, id)`` is independent of input order for distinct pairs;
* the float64 distance *values* always come from the same elementwise
  operations and reduction as :func:`repro.distances.pairwise_rows`
  (the C ``gather_diff`` only fuses the IEEE-exact gather and
  subtraction; the einsum reduction is shared), so bits cannot drift;
* integer metrics are exactly representable: XOR-plus-popcount over
  bit-packed rows equals the unpacked Hamming count whenever both
  sides are binary, which eligibility checks enforce.

The float32 path is the one *opt-in approximation*
(``verify_dtype="float32"``): candidate distances are computed in
float32, a top-``k + max(16, 2k)`` margin survives, and that shortlist
is re-ranked with the exact float64 kernel.  Results match the default
path whenever the true top-k lies inside the margin — the intended
trade, tested for exactness of the re-rank itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

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


def _get_data32(index) -> np.ndarray:
    """float32 copy of ``index._data``, cached per data array."""
    data = index._data
    cached = getattr(index, "_kv_data32", None)
    if cached is not None and cached[0] is data:
        return cached[1]
    data32 = np.ascontiguousarray(data, dtype=np.float32)
    index._kv_data32 = (data, data32)
    return data32


def _select(
    backend,
    flat_ids: np.ndarray,
    flat_dists: np.ndarray,
    offsets: np.ndarray,
    k: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-segment top-k by ascending ``(distance, id)``.

    Matches ``np.lexsort((ids, dists))[:k]`` — ids are unique per
    segment, so every (distance, id) pair is distinct and the result
    does not depend on input order.
    """
    if backend is not None and getattr(backend, "topk_select", None) is not None:
        return backend.topk_select(flat_ids, flat_dists, offsets, k)
    out: List[Tuple[np.ndarray, np.ndarray]] = []
    for i in range(len(offsets) - 1):
        u = flat_ids[offsets[i] : offsets[i + 1]]
        d = flat_dists[offsets[i] : offsets[i + 1]]
        order = np.lexsort((u, d))[: min(k, len(u))]
        out.append((u[order], d[order]))
    return out


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


def _can_gather(backend, data: np.ndarray, metric: str) -> bool:
    return (
        backend is not None
        and getattr(backend, "gather_diff", None) is not None
        and metric in _GATHER_METRICS
        and data.dtype == np.float64
        and data.flags["C_CONTIGUOUS"]
    )


def _verify_float32(
    index,
    backend,
    queries: np.ndarray,
    flat_ids: np.ndarray,
    offsets: np.ndarray,
    k: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Reduced-precision screen, exact float64 re-rank of the margin."""
    data = index._data
    metric = index.metric
    data32 = _get_data32(index)
    q32 = np.ascontiguousarray(queries, dtype=np.float32)
    diff32 = data32[flat_ids] - q32[_owner_of(offsets)]
    if metric == "euclidean":
        d32 = np.sqrt(np.einsum("ij,ij->i", diff32, diff32))
    elif metric == "squared_euclidean":
        d32 = np.einsum("ij,ij->i", diff32, diff32)
    else:
        d32 = np.sum(np.abs(diff32), axis=1)
    margin = k + max(16, 2 * k)
    short = _select(backend, flat_ids, d32.astype(np.float64), offsets, margin)
    sl_ids, sl_offsets = _flatten([ids for ids, _ in short])
    q64 = np.ascontiguousarray(queries, dtype=np.float64)
    if _can_gather(backend, data, metric):
        d64 = _reduce_diff(
            backend.gather_diff(data, sl_ids, sl_offsets, q64), metric
        )
    else:
        d64 = pairwise_rows(data[sl_ids], q64[_owner_of(sl_offsets)], metric)
    return _select(backend, sl_ids, d64, sl_offsets, k)


def verify_batch(
    index,
    backend,
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
    return verify_flat(index, backend, flat_ids, offsets, queries, k)


def verify_flat(
    index,
    backend,
    flat_ids: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """:func:`verify_batch` on candidates already laid end to end.

    Query ``qi``'s duplicate-free candidates are
    ``flat_ids[offsets[qi]:offsets[qi + 1]]`` (int64, contiguous — what
    ``CircularShiftArray._batch_k_lccs_flat`` returns); ``index``
    supplies data, metric, the ``last_stats`` accumulator and the
    ``verify_dtype`` switch; ``backend`` supplies the optional compiled
    hooks.
    """
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
    compiled = backend is not None and getattr(backend, "compiled", False)
    sel_backend = backend if compiled else None

    if (
        getattr(index, "verify_dtype", "float64") == "float32"
        and metric in _GATHER_METRICS
        and data.dtype == np.float64
    ):
        return _verify_float32(index, sel_backend, queries, flat_ids, offsets, k)

    if (
        metric == "hamming"
        and compiled
        and getattr(backend, "hamming_packed", None) is not None
    ):
        packed = _get_packed_data(index)
        if packed is not None and _is_binary(queries):
            q_packed = pack_bits(queries)
            dists = backend.hamming_packed(
                packed[flat_ids], q_packed[_owner_of(offsets)]
            )
            return _select(sel_backend, flat_ids, dists, offsets, k)

    if _can_gather(sel_backend, data, metric):
        q64 = np.ascontiguousarray(queries, dtype=np.float64)
        diff = backend.gather_diff(data, flat_ids, offsets, q64)
        dists = _reduce_diff(diff, metric)
        return _select(sel_backend, flat_ids, dists, offsets, k)

    # Reference path: exactly what ANNIndex._verify_batch computes.
    rep_queries = np.repeat(queries, np.diff(offsets), axis=0)
    dists = pairwise_rows(data[flat_ids], rep_queries, metric)
    return _select(sel_backend, flat_ids, dists, offsets, k)
