"""Cauchy (1-stable) projection LSH family for Manhattan (l1) distance.

Datar et al.'s p-stable construction (the paper's Eq. 1) instantiated at
``p = 1``: the projection vector is drawn from the standard Cauchy
distribution, making ``a . (o - q)`` Cauchy with scale ``|o - q|_1``,
so the collision probability depends only on the l1 distance
(:func:`repro.theory.cauchy_collision_probability`).

Included as an extension beyond the paper's two showcased metrics: the
LCCS framework is family-independent, so dropping this family in gives
l1 c-ANNS for free — which the tests demonstrate end-to-end.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hashes.base import HashFamily, PositionAlternatives, bucket_codes
from repro.theory.collision import cauchy_collision_probability

__all__ = ["CauchyProjectionFamily"]


class CauchyProjectionFamily(HashFamily):
    """``m`` i.i.d. 1-stable LSH functions for Manhattan distance.

    Args:
        dim: input dimensionality.
        m: number of hash functions.
        w: bucket width.
        seed: RNG seed.
    """

    metric = "manhattan"
    supports_probing = True

    def __init__(self, dim: int, m: int, w: float = 4.0, seed: Optional[int] = None):
        super().__init__(dim, m, seed)
        if w <= 0.0:
            raise ValueError("bucket width w must be positive")
        self.w = float(w)
        self.proj = self.rng.standard_cauchy(size=(dim, m))
        self.offset = self.rng.uniform(0.0, self.w, size=m)

    def _hash_batch(self, data: np.ndarray) -> np.ndarray:
        raw = data @ self.proj + self.offset
        return bucket_codes(raw, self.w)

    def query_alternatives(
        self, q: np.ndarray, max_alternatives: int = 8
    ) -> Tuple[np.ndarray, List[PositionAlternatives]]:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {q.shape}")
        raw = q @ self.proj + self.offset
        codes = bucket_codes(raw, self.w)
        frac = raw - codes * self.w
        half = max(1, (max_alternatives + 1) // 2)
        deltas = np.concatenate([np.arange(1, half + 1), -np.arange(1, half + 1)])
        alts: List[PositionAlternatives] = []
        for i in range(self.m):
            scores = np.where(
                deltas > 0,
                (deltas * self.w - frac[i]) ** 2,
                (frac[i] + (np.abs(deltas) - 1) * self.w) ** 2,
            )
            order = np.argsort(scores, kind="stable")[:max_alternatives]
            alts.append(((codes[i] + deltas[order]).astype(np.int64), scores[order]))
        return codes, alts

    def collision_probability(self, dist: float) -> float:
        return cauchy_collision_probability(dist, self.w)

    def size_bytes(self) -> int:
        return int(self.proj.nbytes + self.offset.nbytes)
