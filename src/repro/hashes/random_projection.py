"""Random projection (p-stable) LSH family for Euclidean distance.

Paper §2.2, Eq. 1:  ``h_{a,b}(o) = floor((a . o + b) / w)`` with
``a ~ N(0, I)`` and ``b ~ U[0, w)``.  The collision probability is the
paper's Eq. 2 (:func:`repro.theory.rp_collision_probability`).

Multi-probe alternatives follow Lv et al. (Multi-Probe LSH): at position
``i`` the query's projection sits ``f_i`` inside its bucket of width
``w``; perturbing the bucket by ``delta`` costs

    ``score = (delta*w - f_i)^2``  for ``delta >= 1``
    ``score = (f_i + (|delta|-1)*w)^2``  for ``delta <= -1``

i.e. the squared distance from the projection to the nearest edge of the
probed bucket.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hashes.base import HashFamily, PositionAlternatives, bucket_codes
from repro.theory.collision import rp_collision_probability

__all__ = ["RandomProjectionFamily"]


class RandomProjectionFamily(HashFamily):
    """``m`` i.i.d. p-stable LSH functions for Euclidean distance.

    Args:
        dim: input dimensionality.
        m: number of hash functions.
        w: bucket width (paper fine-tunes this per dataset).
        seed: RNG seed.
    """

    metric = "euclidean"
    supports_probing = True

    def __init__(self, dim: int, m: int, w: float = 4.0, seed: Optional[int] = None):
        super().__init__(dim, m, seed)
        if w <= 0.0:
            raise ValueError("bucket width w must be positive")
        self.w = float(w)
        self.proj = self.rng.normal(0.0, 1.0, size=(dim, m))
        self.offset = self.rng.uniform(0.0, self.w, size=m)

    def _hash_batch(self, data: np.ndarray) -> np.ndarray:
        raw = data @ self.proj + self.offset
        return bucket_codes(raw, self.w)

    def project(self, q: np.ndarray) -> np.ndarray:
        """Raw projections ``a_i . q + b_i`` (used by C2LSH/QALSH-style code)."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {q.shape}")
        return q @ self.proj + self.offset

    def query_alternatives(
        self, q: np.ndarray, max_alternatives: int = 8
    ) -> Tuple[np.ndarray, List[PositionAlternatives]]:
        raw = self.project(np.asarray(q, dtype=np.float64))
        codes = bucket_codes(raw, self.w)
        frac = raw - codes * self.w  # in [0, w)
        half = max(1, (max_alternatives + 1) // 2)
        deltas = np.concatenate(
            [np.arange(1, half + 1), -np.arange(1, half + 1)]
        )
        alts: List[PositionAlternatives] = []
        for i in range(self.m):
            scores = np.where(
                deltas > 0,
                (deltas * self.w - frac[i]) ** 2,
                (frac[i] + (np.abs(deltas) - 1) * self.w) ** 2,
            )
            order = np.argsort(scores, kind="stable")[:max_alternatives]
            alts.append(
                ((codes[i] + deltas[order]).astype(np.int64), scores[order])
            )
        return codes, alts

    def collision_probability(self, dist: float) -> float:
        return rp_collision_probability(dist, self.w)

    def size_bytes(self) -> int:
        return int(self.proj.nbytes + self.offset.nbytes)
