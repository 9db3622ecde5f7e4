"""The paper's "simple method" for k-LCCS search — the ablation baseline.

Section 3.2 first derives a naive index: sort the strings once per shift
and answer a query with ``m`` *independent* full binary searches, at
``O(m (m + log n))`` query time.  The CSA then improves this with next
links and windowed searches (Lemma 3.1) to ``O(log n + (m + k) log m)``.

``NaiveCSA`` implements the simple method with the same results
contract as :class:`repro.core.csa.CircularShiftArray` so the ablation
benchmark (and the tests) can compare them directly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.csa import CircularShiftArray, ShiftBounds

__all__ = ["NaiveCSA"]


class NaiveCSA(CircularShiftArray):
    """k-LCCS search without next-link chaining (paper's simple method).

    Construction is identical to the CSA (the sorted indices are the
    same); only the query path differs: every shift pays a full binary
    search over all ``n`` strings.
    """

    def _search_shifts(self, qd: np.ndarray) -> List[ShiftBounds]:
        return [
            self.binary_search(s, qd[s : s + self.m]) for s in range(self.m)
        ]
