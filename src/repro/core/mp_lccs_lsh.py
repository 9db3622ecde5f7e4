"""Multi-probe LCCS-LSH (paper §4.2).

MP-LCCS-LSH reduces indexing overhead by probing *perturbed* versions of
the query hash string against the same CSA.  Per paper:

1. **Perturbation vectors** come from Algorithm 3
   (:mod:`repro.core.perturbation`), in ascending score order, with
   family-specific alternatives/scores
   (:meth:`repro.hashes.HashFamily.query_alternatives`).
2. **Skip unaffected positions**: the initial search stores
   ``(pos, len)`` bounds per shift; for a probe whose modifications are
   at positions ``P``, only shifts ``s`` whose current match window
   ``[s, s + max(len_l, len_u)]`` (circularly) covers some ``p in P`` are
   re-searched — the others cannot change.
3. All probes feed one max-heap on LCP length shared with the unperturbed
   search, so candidates are still verified in best-first order and never
   twice (paper's redundancy concern, Example 4.1).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.base import ANNIndex
from repro.core.lccs_lsh import LCCSLSH
from repro.core.perturbation import generate_perturbation_vectors

__all__ = ["MPLCCSLSH"]

#: Below this many queries a batch loops the scalar :meth:`MPLCCSLSH._query`:
#: the probe merge is Python on every path, so the batched pass pays off
#: only once its fixed cost is shared (a batch of one: about 11.5 ms
#: against 9 ms looped).
MIN_BATCH = 12


class MPLCCSLSH(LCCSLSH):
    """Multi-probe LCCS-LSH index.

    Args:
        n_probes: number of probes per query (including the unperturbed
            one); the paper sweeps ``{1, m+1, 2m+1, 4m+1, 8m+1}``.  With
            ``n_probes = 1`` the scheme degenerates to LCCS-LSH exactly.
        max_gap: Algorithm 3's ``MAX_GAP`` (paper uses 2).
        max_alternatives: alternatives requested per position from the
            hash family.
        (remaining arguments as for :class:`LCCSLSH`)
    """

    name = "MP-LCCS-LSH"

    def __init__(
        self,
        dim: int,
        m: int = 64,
        metric: str = "euclidean",
        n_probes: Optional[int] = None,
        max_gap: int = 2,
        max_alternatives: int = 8,
        **kwargs,
    ):
        super().__init__(dim, m=m, metric=metric, **kwargs)
        if not self.family.supports_probing:
            raise ValueError(
                f"{type(self.family).__name__} does not expose multi-probe "
                "alternatives; use LCCSLSH instead"
            )
        if n_probes is None:
            n_probes = self.m + 1  # the paper's second setting
        if n_probes < 1:
            raise ValueError("n_probes must be >= 1")
        if max_gap < 1:
            raise ValueError("max_gap must be >= 1")
        if max_alternatives < 1:
            raise ValueError("max_alternatives must be >= 1")
        self.n_probes = int(n_probes)
        self.max_gap = int(max_gap)
        self.max_alternatives = int(max_alternatives)

    # ------------------------------------------------------------------
    # Native persistence: LCCSLSH state plus the probing knobs.
    # ------------------------------------------------------------------

    def _export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        state, arrays = super()._export_state()
        state["n_probes"] = self.n_probes
        state["max_gap"] = self.max_gap
        state["max_alternatives"] = self.max_alternatives
        return state, arrays

    @classmethod
    def _extra_init_kwargs(cls, state: dict) -> dict:
        kwargs = dict(super()._extra_init_kwargs(state))
        kwargs.update(
            n_probes=int(state["n_probes"]),
            max_gap=int(state["max_gap"]),
            max_alternatives=int(state["max_alternatives"]),
        )
        return kwargs

    # ------------------------------------------------------------------

    def _affected_shifts(
        self, positions: Tuple[int, ...], reach: np.ndarray
    ) -> List[int]:
        """Shifts whose match window covers any modified position.

        ``reach[s] = max(len_l, len_u)`` from the unperturbed search; the
        probe can only change the outcome at shift ``s`` if some modified
        position ``p`` satisfies ``(p - s) mod m <= reach[s]``.
        """
        m = self.m
        affected = []
        for s in range(m):
            r = int(reach[s])
            for p in positions:
                if (p - s) % m <= r:
                    affected.append(s)
                    break
        return affected

    def _query(
        self,
        q: np.ndarray,
        k: int,
        num_candidates: Optional[int] = None,
        n_probes: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.csa is None:
            raise RuntimeError("index must be fitted before querying")
        if num_candidates is None:
            num_candidates = self.default_candidates(k)
        if n_probes is None:
            n_probes = self.n_probes
        budget = min(self.n, num_candidates + k - 1)
        codes, alternatives = self.family.query_alternatives(
            q, self.max_alternatives
        )
        alt_codes = [a[0] for a in alternatives]
        alt_scores = [a[1] for a in alternatives]
        # Probe 0: the unperturbed hash string, with stored bounds.
        bounds = self.csa.search_all_shifts(codes)
        qd0 = self.csa.query_rotations(codes)
        reach = np.array(
            [max(b.len_lower, b.len_upper) for b in bounds], dtype=np.int64
        )
        # Collect every (probe, affected shift) search, then run them as
        # one lock-step batched binary search (a single vectorised
        # bisection instead of hundreds of sequential ones).
        search_shifts: list = []
        search_qds: list = []
        for delta in generate_perturbation_vectors(
            alt_scores, n_probes, max_gap=self.max_gap
        ):
            if not delta:  # probe 0 already handled via `bounds`
                continue
            modified = codes.copy()
            for pos, j in delta:
                modified[pos] = alt_codes[pos][j]
            qd = self.csa.query_rotations(modified)
            positions = tuple(pos for pos, _ in delta)
            for s in self._affected_shifts(positions, reach):
                search_shifts.append(s)
                search_qds.append(qd)
        extra_entries: list = []
        n_searches = len(search_shifts)
        if n_searches:
            shifts_arr = np.array(search_shifts, dtype=np.int64)
            q_rots = np.stack(
                [qd[s : s + self.m] for s, qd in zip(search_shifts, search_qds)]
            )
            probe_bounds = self.csa.batch_binary_search(shifts_arr, q_rots)
            for s, qd, b in zip(search_shifts, search_qds, probe_bounds):
                if b.pos_lower >= 0:
                    extra_entries.append((b.len_lower, s, b.pos_lower, -1, qd))
                if b.pos_upper < self.n:
                    extra_entries.append((b.len_upper, s, b.pos_upper, +1, qd))
        cand_ids, lccs_lens = self.csa.merge_candidates(
            qd0, bounds, budget, extra_entries=extra_entries
        )
        self.last_stats["probes"] = float(n_probes)
        self.last_stats["probe_searches"] = float(n_searches)
        self.last_stats["max_lccs"] = int(lccs_lens[0]) if len(lccs_lens) else 0
        return self._verify(cand_ids, q, k)

    def _batch_query(
        self,
        queries: np.ndarray,
        k: int,
        num_candidates: Optional[int] = None,
        n_probes: Optional[int] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Vectorised batch path with batched probe generation.

        The unperturbed searches of all queries run as one batched
        windowed pass; every (query, probe, affected-shift) search across
        the *whole batch* is flattened into a single lock-step bisection;
        merges run lock-step with fused LCP computation.  Per query the
        results are identical to :meth:`_query`, which batches under
        :data:`MIN_BATCH` loop.
        """
        if self.csa is None:
            raise RuntimeError("index must be fitted before querying")
        if len(queries) < MIN_BATCH:
            return ANNIndex._batch_query(
                self, queries, k, num_candidates=num_candidates,
                n_probes=n_probes,
            )
        if num_candidates is None:
            num_candidates = self.default_candidates(k)
        if n_probes is None:
            n_probes = self.n_probes
        budget = min(self.n, num_candidates + k - 1)
        Q = len(queries)
        m, n = self.m, self.n
        t0 = time.perf_counter()
        codes_rows: List[np.ndarray] = []
        alt_codes_rows: list = []
        alt_scores_rows: list = []
        for q in queries:
            codes, alternatives = self.family.query_alternatives(
                q, self.max_alternatives
            )
            codes_rows.append(codes)
            alt_codes_rows.append([a[0] for a in alternatives])
            alt_scores_rows.append([a[1] for a in alternatives])
        codes_mat = (
            np.stack(codes_rows)
            if Q
            else np.empty((0, m), dtype=np.int64)
        )
        t1 = time.perf_counter()
        # Probe 0 of every query: one batched windowed pass.
        bounds = self.csa.batch_search_all_shifts(codes_mat)
        _, _, len_lower, len_upper = bounds
        qds = np.concatenate([codes_mat, codes_mat], axis=1)
        # Collect every (query, probe, affected shift) search across the
        # batch, then run them as one lock-step bisection.  Perturbed
        # query strings go into extra rows of the merge's qd table and
        # are referenced by row index.
        probe_qds: list = []
        search_shifts: list = []
        search_rows: list = []
        search_owner: list = []
        for qi in range(Q):
            reach = np.maximum(len_lower[qi], len_upper[qi])
            codes = codes_rows[qi]
            for delta in generate_perturbation_vectors(
                alt_scores_rows[qi], n_probes, max_gap=self.max_gap
            ):
                if not delta:  # probe 0 already handled via `bounds`
                    continue
                modified = codes.copy()
                for pos, j in delta:
                    modified[pos] = alt_codes_rows[qi][pos][j]
                qd_row = Q + len(probe_qds)
                probe_qds.append(self.csa.query_rotations(modified))
                positions = tuple(pos for pos, _ in delta)
                for s in self._affected_shifts(positions, reach):
                    search_shifts.append(s)
                    search_rows.append(qd_row)
                    search_owner.append(qi)
        qd_table = np.vstack([qds] + probe_qds) if probe_qds else qds
        extra_entries: List[list] = [[] for _ in range(Q)]
        n_searches = len(search_shifts)
        if n_searches:
            shifts_arr = np.array(search_shifts, dtype=np.int64)
            rows_arr = np.array(search_rows, dtype=np.int64)
            q_rots = qd_table[
                rows_arr[:, None], shifts_arr[:, None] + np.arange(m)
            ]
            ppl, ppu, pll, plu = self.csa._batch_search_arrays(shifts_arr, q_rots)
            for i in range(n_searches):
                qi, s, row = search_owner[i], search_shifts[i], search_rows[i]
                if ppl[i] >= 0:
                    extra_entries[qi].append((int(pll[i]), s, int(ppl[i]), -1, row))
                if ppu[i] < n:
                    extra_entries[qi].append((int(plu[i]), s, int(ppu[i]), +1, row))
        t2 = time.perf_counter()
        merged = self.csa.batch_merge_candidates(
            qd_table, bounds, budget, extra_entries=extra_entries
        )
        t3 = time.perf_counter()
        self.last_stats["probes"] = float(n_probes) * Q
        self.last_stats["probe_searches"] = float(n_searches)
        self.last_stats["max_lccs"] = float(
            sum(int(lens[0]) if len(lens) else 0 for _, lens in merged)
        )
        out = self._verify_batch([ids for ids, _ in merged], queries, k)
        t4 = time.perf_counter()
        self._record_stages(t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        return out
