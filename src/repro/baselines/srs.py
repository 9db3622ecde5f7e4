"""SRS: c-ANN via a tiny projected index (Sun et al., VLDB'14).

The paper's tree-flavoured baseline.  SRS projects the data into
``d' in {4..10}`` dimensions with i.i.d. Gaussians — so the *squared
projected distance* of a pair at true distance ``tau`` follows
``tau^2 * chi^2_{d'}`` — indexes the projections with a single
low-dimensional tree, and examines points in ascending projected
distance.  Early termination: once the projected search radius ``r``
satisfies

    ``chi2_{d'}.cdf(r^2 * c^2 / best^2) >= p_tau``

any unseen point closer than ``best / c`` would have had its projection
inside ``r`` with probability ``>= p_tau``, so the current best is a
``c``-approximate answer with that confidence.

Our in-memory tree is the from-scratch incremental kd-tree
(:mod:`repro.baselines.kdtree`); the original uses an R-tree (disk) or
cover tree (memory) — same enumeration contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

import heapq

import numpy as np

from repro.base import ANNIndex
from repro.baselines.kdtree import KDTree
from repro.distances import pairwise

__all__ = ["SRS"]


class SRS(ANNIndex):
    """SRS index for Euclidean c-k-ANNS.

    Args:
        dim: vector dimensionality.
        d_proj: projected dimensionality (paper sweeps 4..10).
        c: approximation ratio of the early-termination test.
        p_tau: confidence threshold of the early-termination test.
        max_fraction: hard cap on examined points, as a fraction of n
            (SRS's ``t`` parameter).
        seed: RNG seed.
    """

    name = "SRS"

    def __init__(
        self,
        dim: int,
        d_proj: int = 6,
        c: float = 4.0,
        p_tau: float = 0.99,
        max_fraction: float = 0.05,
        seed: Optional[int] = None,
    ):
        super().__init__(dim, metric="euclidean", seed=seed)
        if d_proj <= 0:
            raise ValueError("d_proj must be positive")
        if c <= 1.0:
            raise ValueError("approximation ratio c must exceed 1")
        if not 0.0 < p_tau < 1.0:
            raise ValueError("p_tau must be in (0, 1)")
        if not 0.0 < max_fraction <= 1.0:
            raise ValueError("max_fraction must be in (0, 1]")
        self.d_proj = int(d_proj)
        self.c = float(c)
        self.p_tau = float(p_tau)
        self.max_fraction = float(max_fraction)
        rng = np.random.default_rng(seed)
        self.proj = rng.normal(0.0, 1.0, size=(dim, self.d_proj))
        self.tree: Optional[KDTree] = None
        self.projected: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    def _fit(self, data: np.ndarray) -> None:
        self.projected = data @ self.proj
        self.tree = KDTree(self.projected, leaf_size=32)

    def _query(
        self, q: np.ndarray, k: int, max_candidates: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        # scipy.special at the call site: importing the package (and so
        # every server and CLI start) must not pay for a chi-square CDF
        from scipy.special import chdtr

        if max_candidates is None:
            max_candidates = max(k, int(self.max_fraction * self.n))
        q_proj = q @ self.proj
        # Max-heap (negated) of the best k true distances seen so far.
        best: list = []
        examined = 0
        for pid, proj_dist in self.tree.iter_nearest(q_proj):
            true_dist = float(pairwise(self._data[pid : pid + 1], q, "euclidean")[0])
            examined += 1
            entry = (-true_dist, pid)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
            if examined >= max_candidates:
                break
            if len(best) == k:
                kth = -best[0][0]
                if kth == 0.0:
                    break
                stat = (proj_dist * self.c / kth) ** 2
                if chdtr(self.d_proj, stat) >= self.p_tau:
                    break
        self.last_stats["candidates"] = float(examined)
        if not best:
            return np.empty(0, dtype=np.int64), np.empty(0)
        order = sorted(((-nd, pid) for nd, pid in best))
        ids = np.array([pid for _, pid in order], dtype=np.int64)
        dists = np.array([d for d, _ in order])
        return ids, dists

    # ------------------------------------------------------------------

    def index_size_bytes(self) -> int:
        proj_bytes = 0 if self.projected is None else self.projected.nbytes
        # Tree nodes: roughly 2n/leaf_size boxes of 2*d_proj floats.
        tree_bytes = 0
        if self.tree is not None:
            n_nodes = max(1, 2 * self.n // 32)
            tree_bytes = n_nodes * (2 * self.d_proj * 8 + 64)
        return int(self.proj.nbytes + proj_bytes + tree_bytes)
