"""SK-LSH and a simplified LSB-Forest — related-work baselines (paper §7).

Both methods linearise compound LSH keys into a *sorted order* and probe
entries adjacent to the query's position:

* **SK-LSH** (Liu et al., VLDB'14) sorts the length-``K`` compound keys
  lexicographically ("alphabetical order") and scans outward from the
  query's insertion point in each of ``L`` lists.
* **LSB-Forest** (Tao et al., SIGMOD'09) maps the ``K`` hash values to a
  Z-order (Morton) value and keeps it sorted (the original uses a
  B-tree; a sorted array is the in-memory equivalent), again probing
  around the query's position in each of ``L`` trees.

The paper's §7 argument — that the CSA "carries more information than
sequence and curves" because every position starts a usable order — is
exactly the contrast with these two schemes, which fix one linear order
per tree.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np

from repro.base import ANNIndex
from repro.hashes import HashFamily, make_family

__all__ = ["SKLSH", "LSBForest", "zorder_interleave"]


def zorder_interleave(coords: np.ndarray, bits_per_dim: int = 16) -> np.ndarray:
    """Morton / Z-order values of integer coordinate rows.

    ``coords`` is ``(n, K)`` of non-negative ints; each value's low
    ``bits_per_dim`` bits are bit-interleaved (dimension-major) into one
    Python integer per row (arbitrary precision, so ``K * bits_per_dim``
    may exceed 64).
    """
    coords = np.asarray(coords)
    if coords.ndim != 2:
        raise ValueError("coords must be 2-d")
    if bits_per_dim <= 0:
        raise ValueError("bits_per_dim must be positive")
    if (coords < 0).any():
        raise ValueError("z-order requires non-negative coordinates")
    n, K = coords.shape
    out = []
    for i in range(n):
        z = 0
        row = [int(v) for v in coords[i]]
        for bit in range(bits_per_dim - 1, -1, -1):
            for d in range(K):
                z = (z << 1) | ((row[d] >> bit) & 1)
        out.append(z)
    return np.array(out, dtype=object)


class _SortedKeyIndex(ANNIndex):
    """Shared machinery: ``L`` sorted key lists probed around the query.

    Subclasses define how a ``(n, K)`` block of hash codes becomes
    sortable keys (``_keys_for_table``) and how a query block becomes a
    probe key (``_query_key``); everything else — sorting, insertion-
    point location, bidirectional scan, verification — is shared.
    """

    def __init__(
        self,
        dim: int,
        K: int = 8,
        L: int = 8,
        metric: str = "euclidean",
        family: Optional[HashFamily] = None,
        w: float = 4.0,
        cp_dim: int = 32,
        seed: Optional[int] = None,
    ):
        super().__init__(dim, metric, seed)
        if K <= 0 or L <= 0:
            raise ValueError("K and L must be positive")
        self.K = int(K)
        self.L = int(L)
        if family is not None:
            if family.m != K * L:
                raise ValueError(f"family must provide m=K*L={K * L} functions")
            self.family = family
            self.metric = family.metric
        else:
            self.family = make_family(
                metric, dim, K * L, seed=seed, w=w, cp_dim=cp_dim
            )
        self.orders: Optional[np.ndarray] = None  # (L, n) ids in key order
        self._keys: List[list] = []

    # hooks ------------------------------------------------------------

    def _keys_for_table(self, codes_block: np.ndarray, t: int) -> list:
        """Sortable key per row of a ``(n, K)`` code block of table ``t``."""
        raise NotImplementedError

    def _query_key(self, q_block: np.ndarray, t: int):
        """Probe key for the query's code block of table ``t``."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def _fit(self, data: np.ndarray) -> None:
        codes = self.family.hash(data)
        n = len(data)
        self.orders = np.empty((self.L, n), dtype=np.int64)
        self._keys = []
        for t in range(self.L):
            block = codes[:, t * self.K : (t + 1) * self.K]
            keys = self._keys_for_table(block, t)
            order = sorted(range(n), key=lambda i: keys[i])
            self.orders[t] = np.array(order, dtype=np.int64)
            self._keys.append([keys[i] for i in order])

    def _query(
        self, q: np.ndarray, k: int, probes_per_table: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        if probes_per_table is None:
            probes_per_table = max(4 * k, 16)
        if probes_per_table <= 0:
            raise ValueError("probes_per_table must be positive")
        q_codes = self.family.hash(q)
        candidates: List[int] = []
        for t in range(self.L):
            q_key = self._query_key(q_codes[t * self.K : (t + 1) * self.K], t)
            keys = self._keys[t]
            pos = bisect.bisect_left(keys, q_key)
            lo = max(0, pos - probes_per_table // 2)
            hi = min(self.n, pos + probes_per_table // 2 + 1)
            candidates.extend(self.orders[t][lo:hi].tolist())
        self.last_stats["probed_entries"] = float(len(candidates))
        return self._verify(np.array(candidates, dtype=np.int64), q, k)

    def index_size_bytes(self) -> int:
        extra = 0
        if self.orders is not None:
            # ids plus a conservative 16 bytes per stored key
            extra = self.orders.nbytes + self.L * self.n * 16
        return int(self.family.size_bytes() + extra)


class SKLSH(_SortedKeyIndex):
    """SK-LSH: compound keys in lexicographic order, bidirectional scan."""

    name = "SK-LSH"

    def _keys_for_table(self, codes_block: np.ndarray, t: int) -> list:
        return [tuple(int(v) for v in row) for row in codes_block]

    def _query_key(self, q_block: np.ndarray, t: int):
        return tuple(int(v) for v in q_block)


class LSBForest(_SortedKeyIndex):
    """Simplified LSB-Forest: Z-order values in sorted order.

    Hash codes are offset to non-negative coordinates per table before
    interleaving (the Z-order curve needs a non-negative grid); queries
    reuse the per-table offsets recorded at build time.
    """

    name = "LSB-Forest"

    def __init__(self, *args, bits_per_dim: int = 12, **kwargs):
        super().__init__(*args, **kwargs)
        if bits_per_dim <= 0:
            raise ValueError("bits_per_dim must be positive")
        self.bits_per_dim = int(bits_per_dim)
        self._offsets: List[np.ndarray] = []

    def _fit(self, data: np.ndarray) -> None:
        self._offsets = []
        super()._fit(data)

    def _shift(self, block: np.ndarray, t: int) -> np.ndarray:
        return np.clip(
            block - self._offsets[t], 0, (1 << self.bits_per_dim) - 1
        )

    def _keys_for_table(self, codes_block: np.ndarray, t: int) -> list:
        self._offsets.append(codes_block.min(axis=0))
        return zorder_interleave(
            self._shift(codes_block, t), self.bits_per_dim
        ).tolist()

    def _query_key(self, q_block: np.ndarray, t: int):
        shifted = self._shift(q_block[None, :], t)
        return int(zorder_interleave(shifted, self.bits_per_dim)[0])
