"""QALSH: query-aware LSH with collision counting (Huang et al., VLDB'15).

The paper's second dynamic-framework baseline.  Differences from C2LSH:
projections are *query-aware* — no random offset, no pre-quantised
buckets.  Each hash function keeps its projections sorted; at query time
a bucket of half-width ``w*R/2`` is centred *on the query's projection*
and widened geometrically (virtual rehashing), while two frontier
pointers per function sweep outward.  An object becomes a candidate when
it has appeared in at least ``l`` of the ``m`` query-centred buckets.

This is the memory version (QALSH+ in the paper's experiments is a
blocked variant of the same algorithm; blocking only matters at the
paper's 1M scale).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.base import ANNIndex

__all__ = ["QALSH"]


class QALSH(ANNIndex):
    """Query-aware collision counting index (Euclidean distance).

    Args:
        dim: vector dimensionality.
        m: number of projections.
        l: collision threshold.
        w: base bucket width.
        c: approximation ratio for virtual rehashing.
        beta: candidate budget fraction (stop after ``beta*n + k``).
        seed: RNG seed.
    """

    name = "QALSH"

    def __init__(
        self,
        dim: int,
        m: int = 64,
        l: int = 4,
        w: float = 1.0,
        c: float = 2.0,
        beta: float = 0.01,
        seed: Optional[int] = None,
    ):
        super().__init__(dim, metric="euclidean", seed=seed)
        if m <= 0:
            raise ValueError("m must be positive")
        if not 1 <= l <= m:
            raise ValueError("collision threshold l must be in [1, m]")
        if w <= 0.0:
            raise ValueError("bucket width w must be positive")
        if c <= 1.0:
            raise ValueError("approximation ratio c must exceed 1")
        self.m = int(m)
        self.l = int(l)
        self.w = float(w)
        self.c = float(c)
        self.beta = float(beta)
        rng = np.random.default_rng(seed)
        self.proj = rng.normal(0.0, 1.0, size=(dim, m))
        self.values: Optional[np.ndarray] = None  # (m, n) sorted projections
        self.order: Optional[np.ndarray] = None  # (m, n) ids sorted by value

    # ------------------------------------------------------------------

    def _fit(self, data: np.ndarray) -> None:
        projections = (data @ self.proj).T  # (m, n)
        self.order = np.argsort(projections, axis=1).astype(np.int64)
        self.values = np.take_along_axis(projections, self.order, axis=1)

    def _query(
        self, q: np.ndarray, k: int, max_rounds: int = 24
    ) -> Tuple[np.ndarray, np.ndarray]:
        q_proj = q @ self.proj  # (m,)
        n, m = self.n, self.m
        # Frontier pointers per function: [left, right) window around q.
        starts = np.array(
            [np.searchsorted(self.values[i], q_proj[i]) for i in range(m)]
        )
        left = starts.copy()
        right = starts.copy()
        counts = np.zeros(n, dtype=np.int64)
        checked = np.zeros(n, dtype=bool)
        candidates: list = []
        budget = int(self.beta * n) + k
        radius = 1.0
        swept = 0
        rounds = 0
        for _ in range(max_rounds):
            rounds += 1
            half = self.w * radius / 2.0
            for i in range(m):
                lo, hi = q_proj[i] - half, q_proj[i] + half
                vi, oi = self.values[i], self.order[i]
                while left[i] > 0 and vi[left[i] - 1] >= lo:
                    left[i] -= 1
                    obj = oi[left[i]]
                    counts[obj] += 1
                    swept += 1
                    if counts[obj] >= self.l and not checked[obj]:
                        checked[obj] = True
                        candidates.append(int(obj))
                while right[i] < n and vi[right[i]] <= hi:
                    obj = oi[right[i]]
                    right[i] += 1
                    counts[obj] += 1
                    swept += 1
                    if counts[obj] >= self.l and not checked[obj]:
                        checked[obj] = True
                        candidates.append(int(obj))
            if len(candidates) >= budget:
                break
            if np.all(left == 0) and np.all(right == n):
                break
            radius *= self.c
        self.last_stats["collision_countings"] = float(swept)
        self.last_stats["rounds"] = float(rounds)
        if not candidates:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return self._verify(np.array(candidates[:budget], dtype=np.int64), q, k)

    # ------------------------------------------------------------------

    def index_size_bytes(self) -> int:
        extra = 0
        if self.values is not None:
            extra = self.values.nbytes + self.order.nbytes
        return int(self.proj.nbytes + extra)
