"""Exact linear scan — the accuracy oracle and the alpha=0 reference point.

Paper Table 1 notes that LCCS-LSH with ``alpha = 0`` matches the
complexity of a linear scan; this index is also used to compute ground
truth and as the trivially-correct baseline in tests.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.base import ANNIndex

__all__ = ["LinearScan"]


class LinearScan(ANNIndex):
    """Brute-force exact k-NN under any supported metric."""

    name = "LinearScan"

    def _fit(self, data: np.ndarray) -> None:
        # Nothing to build: the raw data kept by the base class suffices.
        return None

    def _query(self, q: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._verify(np.arange(self.n), q, k)

    # ------------------------------------------------------------------
    # Native persistence: the raw data is the whole state.
    # ------------------------------------------------------------------

    def _export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        arrays = {} if self._data is None else {"data": self._data}
        return {}, arrays

    @classmethod
    def _import_state(
        cls, manifest: dict, arrays: Dict[str, np.ndarray]
    ) -> "LinearScan":
        index = cls(
            dim=int(manifest["dim"]),
            metric=manifest["metric"],
            seed=manifest["seed"],
        )
        if "data" in arrays:
            data = arrays["data"]
            if data.ndim != 2 or data.shape[1] != index.dim:
                raise ValueError(f"data of shape {data.shape}, dim={index.dim}")
            index._data = data
        return index
