"""Circular Shift Array (CSA) — the paper's index for k-LCCS search.

Paper §3.2, Algorithms 1 and 2.  Given ``n`` strings of length ``m``
(here: integer hash strings), the CSA stores, for every shift
``s in {0..m-1}``, the ids of the strings sorted by their ``s``-rotation
(``I_s``, the *sorted indices*) together with *next links* ``N_s`` that
map a rank in ``I_s`` to the rank of the same string in ``I_{s+1}``.

A k-LCCS query performs one full binary search on ``I_0`` and then, per
shift, a binary search *windowed* through the next links whenever the
previous shift matched at least one character on both bounds
(Lemma 3.1 / Corollary 3.2).  A 2m-way merge by a max-heap on LCP length
then emits strings in exactly non-increasing order of LCCS length.

Construction uses rank doubling over all ``n*m`` rotations (the
numpy-friendly equivalent of Algorithm 1's ``m`` comparison sorts): after
``ceil(log2 m)`` rounds of sorting (rank, rank-at-offset) pairs every
rotation has a dense rank, and ``I_s`` is an argsort of the rank column
``s``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lccs import compare_rotations, lcp_length

__all__ = ["ShiftBounds", "CircularShiftArray"]


@dataclass(frozen=True)
class ShiftBounds:
    """Binary-search result at one shift (paper's pos/len bookkeeping).

    ``pos_lower``/``pos_upper`` are ranks in ``I_s`` of the paper's
    ``T_l`` (largest rotation <= query) and ``T_u`` (smallest rotation >
    query); -1 / n mark "does not exist".  ``len_lower``/``len_upper``
    are the corresponding LCP lengths (0 when the bound does not exist).
    """

    pos_lower: int
    pos_upper: int
    len_lower: int
    len_upper: int


class CircularShiftArray:
    """Index over circular shifts of equal-length integer strings.

    The three batch hot paths (:meth:`_batch_search_arrays`,
    :meth:`batch_search_all_shifts`, :meth:`_batch_merge_tournament`)
    dispatch to a pluggable kernel backend (:mod:`repro.kernels`):
    ``numpy`` is the always-available reference, ``cext`` its
    byte-identical compiled port; :meth:`batch_k_lccs` runs search and
    merge as one backend call where the backend has one.  The scalar
    paths (:meth:`k_lccs` and friends) and the multi-probe heap merge
    stay pure Python/NumPy: they are the reference backend's faster
    route for a handful of queries and the oracle the equivalence
    suites compare every backend against.

    Args:
        strings: ``(n, m)`` integer array; row ``i`` is string ``T_i``.
        backend: kernel backend name (see :func:`repro.kernels.
            resolve_backend`); ``None`` applies the CLI/env/default
            precedence chain.

    Attributes:
        n: number of strings.
        m: string length.
        sorted_idx: ``(m, n)`` — ``sorted_idx[s]`` is the paper's ``I_{s+1}``
            (string ids ordered by their ``s``-rotation).
        next_link: ``(m, n)`` — ``next_link[s][j]`` is the rank in
            ``sorted_idx[(s+1) % m]`` of the string at rank ``j`` of
            ``sorted_idx[s]`` (the paper's ``N``).
    """

    def __init__(self, strings: np.ndarray, backend: Optional[str] = None):
        strings = np.ascontiguousarray(strings)
        if strings.ndim != 2:
            raise ValueError(f"strings must be (n, m), got shape {strings.shape}")
        if strings.shape[0] == 0 or strings.shape[1] == 0:
            raise ValueError("strings must be non-empty in both dimensions")
        if not np.issubdtype(strings.dtype, np.integer):
            raise TypeError("CSA requires integer hash strings")
        self.n, self.m = strings.shape
        # Doubled copies give O(1) zero-copy access to any rotation; the
        # left half *is* ``strings``, so the input is not kept as well.
        self._doubled = np.concatenate([strings, strings], axis=1)
        self.strings = self._doubled[:, : self.m]
        self.sorted_idx, self.next_link = self._build()
        from repro import kernels

        self._backend = kernels.resolve_backend(backend)

    # ------------------------------------------------------------------
    # Kernel backend plumbing
    # ------------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend answering batch searches/merges."""
        return self._backend.name

    def set_backend(self, backend: Optional[str]) -> str:
        """Re-resolve the kernel backend; returns the resolved name.

        Cheap (no rebuild), so benchmarks can flip one built index
        between backends.
        """
        from repro import kernels

        self._backend = kernels.resolve_backend(backend)
        return self._backend.name

    def __getstate__(self) -> dict:
        """Pickle the backend by *name*: compiled backends hold
        unpicklable handles (ctypes libraries, jitted functions)."""
        state = self.__dict__.copy()
        state["_backend"] = self._backend.name
        return state

    def __setstate__(self, state: dict) -> None:
        from repro import kernels

        name = state.pop("_backend", None)
        self.__dict__.update(state)
        self._backend = kernels.resolve_backend(kernels.persisted_backend(name))

    # ------------------------------------------------------------------
    # Construction (paper Algorithm 1, via rank doubling)
    # ------------------------------------------------------------------

    def _build(
        self, packed_keys: Optional[bool] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank doubling; ``packed_keys`` forces one of the two round sorts
        (the tests pin them to identical arrays), ``None`` picks."""
        n, m = self.n, self.m
        # Dense initial ranks of single characters.
        _, inv = np.unique(self.strings.ravel(), return_inverse=True)
        rank = inv.reshape(n, m).astype(np.int64)
        # Ranks are < n*m, so a round's (first, second) pair packs into
        # one int64 key whenever (n*m + 1)**2 fits: one argsort instead of
        # a two-key lexsort, a third of the time.  Equal pairs get equal
        # ranks either way, so the sort need not be stable.
        base = n * m + 1
        if packed_keys is None:
            packed_keys = base * base < 2**63
        width = 1
        while width < m:
            second = np.roll(rank, -width, axis=1)  # rank of rotation s+width
            changed = np.empty(n * m, dtype=bool)
            changed[0] = False
            if packed_keys:
                key = (rank * base + second).ravel()
                order = np.argsort(key)
                k_sorted = key[order]
                changed[1:] = k_sorted[1:] != k_sorted[:-1]
            else:
                first_flat = rank.ravel()
                second_flat = second.ravel()
                order = np.lexsort((second_flat, first_flat))
                f_sorted = first_flat[order]
                s_sorted = second_flat[order]
                changed[1:] = (f_sorted[1:] != f_sorted[:-1]) | (
                    s_sorted[1:] != s_sorted[:-1]
                )
            dense = np.cumsum(changed)
            new_rank = np.empty(n * m, dtype=np.int64)
            new_rank[order] = dense
            rank = new_rank.reshape(n, m)
            width *= 2
        idx_dtype = np.int32 if n < 2**31 else np.int64
        sorted_idx = np.empty((m, n), dtype=idx_dtype)
        for s in range(m):
            sorted_idx[s] = np.argsort(rank[:, s], kind="stable")
        next_link = np.empty((m, n), dtype=idx_dtype)
        inv_pos = np.empty(n, dtype=idx_dtype)
        for s in range(m):
            nxt = (s + 1) % m
            inv_pos[sorted_idx[nxt]] = np.arange(n, dtype=idx_dtype)
            next_link[s] = inv_pos[sorted_idx[s]]
        return sorted_idx, next_link

    # ------------------------------------------------------------------
    # Rotation access
    # ------------------------------------------------------------------

    def rotation(self, string_id: int, s: int) -> np.ndarray:
        """Zero-copy view of ``shift(T_{string_id}, s)``."""
        return self._doubled[string_id, s : s + self.m]

    @staticmethod
    def query_rotations(query: np.ndarray) -> np.ndarray:
        """Doubled query so ``doubled[s:s+m]`` is ``shift(Q, s)``."""
        query = np.asarray(query)
        return np.concatenate([query, query])

    # ------------------------------------------------------------------
    # Binary search (full and windowed)
    # ------------------------------------------------------------------

    def binary_search(
        self,
        s: int,
        q_rot: np.ndarray,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> ShiftBounds:
        """Locate the query rotation within ``sorted_idx[s][lo:hi]``.

        Returns the paper's ``(pos_l, pos_u, len_l, len_u)``.  ``lo``/``hi``
        implement ``BinarySearchBetween`` (Corollary 3.2); callers must
        guarantee the true bounds fall inside the window.
        """
        n = self.n
        if hi is None:
            hi = n
        idx = self.sorted_idx[s]
        left, right = lo, hi
        while left < right:
            mid = (left + right) // 2
            cmp, _ = compare_rotations(self.rotation(int(idx[mid]), s), q_rot)
            if cmp <= 0:
                left = mid + 1
            else:
                right = mid
        pos_upper = left
        pos_lower = left - 1
        len_lower = 0
        len_upper = 0
        if pos_lower >= 0:
            len_lower = lcp_length(self.rotation(int(idx[pos_lower]), s), q_rot)
        if pos_upper < n:
            len_upper = lcp_length(self.rotation(int(idx[pos_upper]), s), q_rot)
        return ShiftBounds(pos_lower, pos_upper, len_lower, len_upper)

    def batch_binary_search(
        self,
        shifts: np.ndarray,
        q_rots: np.ndarray,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> List[ShiftBounds]:
        """Many independent binary searches, advanced in lock-step.

        ``shifts[b]`` selects the sorted index and ``q_rots[b]`` is the
        (already rotated) query for search ``b``.  All searches bisect
        simultaneously so every step is one vectorised comparison over a
        ``(B, m)`` block — the work-horse of the multi-probe scheme,
        where hundreds of (probe, shift) searches are issued per query.

        Optional ``lo``/``hi`` arrays window each search to
        ``sorted_idx[shifts[b]][lo[b]:hi[b]]`` (the batched
        ``BinarySearchBetween`` of Corollary 3.2); callers must guarantee
        the true bounds fall inside each window.
        """
        pos_lower, pos_upper, len_lower, len_upper = self._batch_search_arrays(
            shifts, q_rots, lo=lo, hi=hi
        )
        return [
            ShiftBounds(
                int(pos_lower[b]), int(pos_upper[b]),
                int(len_lower[b]), int(len_upper[b]),
            )
            for b in range(len(pos_lower))
        ]

    def _batch_search_arrays(
        self,
        shifts: np.ndarray,
        q_rots: np.ndarray,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Array-valued core of :meth:`batch_binary_search`.

        Returns ``(pos_lower, pos_upper, len_lower, len_upper)`` as four
        int64 arrays of length ``B`` — the allocation-free form the
        batched query engine consumes.  Dispatches to the resolved
        kernel backend (``numpy``/``cext``, byte-identical).
        """
        shifts = np.asarray(shifts, dtype=np.int64)
        q_rots = np.ascontiguousarray(q_rots)
        B = len(shifts)
        if q_rots.shape != (B, self.m):
            raise ValueError(
                f"q_rots must have shape ({B}, {self.m}), got {q_rots.shape}"
            )
        return self._backend.search_lanes(self, shifts, q_rots, lo=lo, hi=hi)

    def search_all_shifts(self, query: np.ndarray) -> List[ShiftBounds]:
        """Phase 1 of Algorithm 2: bounds at every shift.

        One full binary search at shift 0; afterwards the search range on
        shift ``s`` is narrowed through the next links whenever both LCP
        lengths at shift ``s-1`` are >= 1 (Lemma 3.1).
        """
        query = np.asarray(query)
        if query.shape != (self.m,):
            raise ValueError(
                f"query must have length m={self.m}, got shape {query.shape}"
            )
        qd = self.query_rotations(query)
        bounds: List[ShiftBounds] = []
        prev: Optional[ShiftBounds] = None
        for s in range(self.m):
            q_rot = qd[s : s + self.m]
            if (
                prev is not None
                and prev.len_lower >= 1
                and prev.len_upper >= 1
            ):
                window_lo = int(self.next_link[s - 1][prev.pos_lower])
                window_hi = int(self.next_link[s - 1][prev.pos_upper])
                if window_lo > window_hi:  # defensive; cannot happen per Lemma 3.1
                    window_lo, window_hi = 0, self.n - 1
                b = self.binary_search(s, q_rot, lo=window_lo, hi=window_hi + 1)
            else:
                b = self.binary_search(s, q_rot)
            bounds.append(b)
            prev = b
        return bounds

    def batch_search_all_shifts(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Phase 1 of Algorithm 2 for a whole query batch at once.

        The per-shift searches of all ``Q`` queries run as one lock-step
        vectorised bisection (``m`` batched searches of width ``Q``
        instead of ``Q * m`` sequential ones), while each query still
        honours Lemma 3.1: its search window on shift ``s`` is narrowed
        through the next links whenever both of its LCP lengths at shift
        ``s-1`` are >= 1.  Per query the results are identical to
        :meth:`search_all_shifts`.

        Returns ``(pos_lower, pos_upper, len_lower, len_upper)``, each a
        ``(Q, m)`` int64 array.
        """
        queries = np.ascontiguousarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.m:
            raise ValueError(
                f"queries must be (Q, m={self.m}), got shape {queries.shape}"
            )
        qds = np.concatenate([queries, queries], axis=1)
        return self._backend.search_all(self, qds)

    # ------------------------------------------------------------------
    # k-LCCS search (paper Algorithm 2)
    # ------------------------------------------------------------------

    def k_lccs(
        self, query: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """ids and LCCS lengths of the ``k`` strings with longest LCCS.

        Results are sorted by non-increasing LCCS length; the reported
        length of each string is exactly ``|LCCS(T, Q)|``.  Fewer than
        ``k`` results are returned only when ``k > n``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        bounds = self.search_all_shifts(np.asarray(query))
        qd = self.query_rotations(np.asarray(query))
        return self.merge_candidates(qd, bounds, k)

    def frontier_entries(
        self, qd: np.ndarray, bounds: Sequence[ShiftBounds]
    ) -> List[Tuple[int, int, int, int, np.ndarray]]:
        """Initial merge entries ``(len, shift, rank, direction, qd)``.

        One entry per existing bound per shift; the multi-probe scheme
        collects these across probes before a shared merge.
        """
        entries = []
        for s, b in enumerate(bounds):
            if b.pos_lower >= 0:
                entries.append((b.len_lower, s, b.pos_lower, -1, qd))
            if b.pos_upper < self.n:
                entries.append((b.len_upper, s, b.pos_upper, +1, qd))
        return entries

    def merge_candidates(
        self,
        qd: np.ndarray,
        bounds: Sequence[ShiftBounds],
        k: int,
        extra_entries: Optional[list] = None,
        seen: Optional[set] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """2m-way merge: pop strings in non-increasing LCP order.

        Ties in LCP length are broken by ``(string_id, shift, rank,
        direction)`` — a canonical order that depends only on the frontier
        state, never on insertion history, so the batched engine can
        reproduce it exactly without replaying this loop.

        ``extra_entries``/``seen`` let the multi-probe scheme contribute
        frontier entries from perturbed queries and share the dedupe set.
        """
        m, n = self.m, self.n
        entries = self.frontier_entries(qd, bounds)
        if extra_entries:
            entries.extend(extra_entries)
        # Dedupe frontier entries on (shift, rank): with multi-probing,
        # many probes land on the same ranks; keeping the longest-LCP
        # entry per position prevents redundant re-walks (the paper's
        # Example 4.1 redundancy concern).
        best_entry: dict = {}
        for length, s, pos, direction, entry_qd in entries:
            key = (s, pos, direction)
            cur = best_entry.get(key)
            if cur is None or length > cur[0]:
                best_entry[key] = (length, s, pos, direction, entry_qd)
        heap: list = []
        visited = set()
        for length, s, pos, direction, entry_qd in best_entry.values():
            sid = int(self.sorted_idx[s][pos])
            heap.append((-length, sid, s, pos, direction, entry_qd))
            visited.add((s, pos))
        heapq.heapify(heap)
        if seen is None:
            seen = set()
        out_ids: List[int] = []
        out_lens: List[int] = []
        while heap and len(out_ids) < k:
            neg_len, string_id, s, pos, direction, entry_qd = heapq.heappop(heap)
            if string_id not in seen:
                seen.add(string_id)
                out_ids.append(string_id)
                out_lens.append(-neg_len)
            npos = pos + direction
            # Stop a walk when another walk already covers the position.
            if 0 <= npos < n and (s, npos) not in visited:
                visited.add((s, npos))
                nid = int(self.sorted_idx[s][npos])
                nlen = lcp_length(
                    self.rotation(nid, s), entry_qd[s : s + m]
                )
                heapq.heappush(
                    heap, (-nlen, nid, s, npos, direction, entry_qd)
                )
        return np.array(out_ids, dtype=np.int64), np.array(out_lens, dtype=np.int64)

    def batch_merge_candidates(
        self,
        qd_table: np.ndarray,
        bounds_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        k: int,
        extra_entries: Optional[List[list]] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Lock-step 2m-way merges for a query batch.

        Per query the output is identical to :meth:`merge_candidates`
        (same canonical ``(-lcp, string_id, shift, rank)`` pop order).
        Without probe entries the merge runs as a fully vectorised walk
        tournament (:meth:`_batch_merge_tournament`); with multi-probe
        extra entries it falls back to lock-step per-query heaps with
        fused LCP gathers (:meth:`_batch_merge_heap`).

        Args:
            qd_table: ``(R, 2m)`` doubled query strings; row ``qi < Q``
                is query ``qi``'s unperturbed string, rows ``>= Q`` may
                hold perturbed probe strings referenced by
                ``extra_entries``.
            bounds_arrays: ``(pos_lower, pos_upper, len_lower, len_upper)``
                from :meth:`batch_search_all_shifts`.
            k: results per query.
            extra_entries: optional per-query frontier entries
                ``(length, shift, rank, direction, qd_row)`` from
                perturbed probes (multi-probe scheme); ``qd_row`` indexes
                into ``qd_table``.

        Returns:
            One ``(ids, lccs_lengths)`` pair per query.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if extra_entries is None or not any(extra_entries):
            return self._batch_merge_tournament(qd_table, bounds_arrays, k)
        return self._batch_merge_heap(qd_table, bounds_arrays, k, extra_entries)

    def _batch_merge_tournament(
        self,
        qd_table: np.ndarray,
        bounds_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        k: int,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fully vectorised merge for the no-extras (single-probe) case.

        Without probe entries every query's heap holds exactly one entry
        per live walk (2 per shift: the lower walk moving down, the upper
        walk moving up), so the merge is a *tournament*: each round pick
        the walk whose frontier has the lexicographically smallest
        ``(-lcp, string_id, shift, rank)`` key, emit its string if
        unseen, and advance that walk one rank.  The per-round pick is
        one ``argmin`` over packed int64 keys across the whole batch and
        the advanced walks' LCPs are one fused gather — no per-entry
        Python at all.  Per query the output is identical to
        :meth:`merge_candidates`.
        """
        Q = len(bounds_arrays[0])
        if Q == 0:
            return []
        key_shifts = self._key_shifts()
        if key_shifts is None:  # pragma: no cover
            return self._batch_merge_heap(
                qd_table, bounds_arrays, k, [[] for _ in range(Q)]
            )
        return self._backend.merge_tournament(
            self, qd_table, bounds_arrays, k, key_shifts
        )

    def _key_shifts(self) -> Optional[Tuple[int, int, int]]:
        """Bit offsets ``(sh_shift, sh_sid, sh_len)`` of the packed merge key.

        ``(m - lcp, sid, shift, rank)`` go into one int64, rank in the low
        bits, so a round's pick is a single argmin/heap-min.  ``None`` for
        gigantic indexes whose fields no longer fit 62 bits (the heap
        merge serves those).
        """
        bits_pos = max(1, int(self.n - 1).bit_length())
        bits_shift = max(1, int(self.m - 1).bit_length())
        bits_len = int(self.m).bit_length()
        if bits_len + 2 * bits_pos + bits_shift > 62:  # pragma: no cover
            return None
        sh_sid = bits_pos + bits_shift
        return bits_pos, sh_sid, sh_sid + bits_pos

    def _batch_merge_heap(
        self,
        qd_table: np.ndarray,
        bounds_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        k: int,
        extra_entries: List[list],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Lock-step heap merge handling multi-probe extra entries.

        Every query keeps its own heap and dedupe sets exactly as in
        :meth:`merge_candidates` (same canonical tie order, so per query
        the output is identical), but the per-query work is fused across
        the batch: frontier initialisation is one vectorised pass, and
        each round pops once per still-active query, then resolves all
        neighbour LCPs of the round with single fancy-indexed gathers.
        """
        pos_lower, pos_upper, len_lower, len_upper = bounds_arrays
        Q = len(pos_lower)
        m, n = self.m, self.n
        sorted_idx = self.sorted_idx
        offsets = np.arange(m, dtype=np.int64)
        # ---- frontier initialisation, vectorised across the batch ----
        # Interleave (lower, upper) per shift so the flattened order per
        # query matches frontier_entries exactly: s=0 lower, s=0 upper,
        # s=1 lower, ...
        lens2 = np.empty((Q, 2 * m), dtype=np.int64)
        lens2[:, 0::2] = len_lower
        lens2[:, 1::2] = len_upper
        pos2 = np.empty((Q, 2 * m), dtype=np.int64)
        pos2[:, 0::2] = pos_lower
        pos2[:, 1::2] = pos_upper
        valid2 = np.empty((Q, 2 * m), dtype=bool)
        valid2[:, 0::2] = pos_lower >= 0
        valid2[:, 1::2] = pos_upper < n
        shift2 = np.repeat(np.arange(m, dtype=np.int64), 2)
        dir2 = np.tile(np.array([-1, 1], dtype=np.int64), m)
        sid2 = sorted_idx[
            shift2[None, :], np.clip(pos2, 0, n - 1)
        ].astype(np.int64)
        flat_valid = valid2.ravel()
        counts = valid2.sum(axis=1)
        starts = np.concatenate([[0], np.cumsum(counts)])
        neg_flat = (-lens2).ravel()[flat_valid].tolist()
        len_flat = lens2.ravel()[flat_valid].tolist()
        pos_flat = pos2.ravel()[flat_valid].tolist()
        sid_flat = sid2.ravel()[flat_valid].tolist()
        shift_flat = np.tile(shift2, Q)[flat_valid].tolist()
        dir_flat = np.tile(dir2, Q)[flat_valid].tolist()
        heaps: List[list] = []
        visiteds: List[set] = []
        seens: List[set] = [set() for _ in range(Q)]
        out_ids: List[List[int]] = [[] for _ in range(Q)]
        out_lens: List[List[int]] = [[] for _ in range(Q)]
        for qi in range(Q):
            lo_i, hi_i = starts[qi], starts[qi + 1]
            sl_shift = shift_flat[lo_i:hi_i]
            sl_pos = pos_flat[lo_i:hi_i]
            if extra_entries[qi]:
                # Multi-probe: fold perturbed-probe entries in and dedupe
                # on (shift, rank, direction) keeping the longest LCP,
                # exactly as merge_candidates does.
                entries = list(
                    zip(
                        len_flat[lo_i:hi_i], sl_shift, sl_pos,
                        dir_flat[lo_i:hi_i], [qi] * (hi_i - lo_i),
                    )
                )
                entries.extend(extra_entries[qi])
                best_entry: dict = {}
                for length, s, pos, direction, qd_row in entries:
                    key = (s, pos, direction)
                    cur = best_entry.get(key)
                    if cur is None or length > cur[0]:
                        best_entry[key] = (length, s, pos, direction, qd_row)
                heap = []
                visited = set()
                for length, s, pos, direction, qd_row in best_entry.values():
                    sid = int(sorted_idx[s][pos])
                    heap.append((-length, sid, s, pos, direction, qd_row))
                    visited.add((s, pos))
            else:
                c = hi_i - lo_i
                heap = list(
                    zip(
                        neg_flat[lo_i:hi_i], sid_flat[lo_i:hi_i], sl_shift,
                        sl_pos, dir_flat[lo_i:hi_i], [qi] * c,
                    )
                )
                visited = set(zip(sl_shift, sl_pos))
            heapq.heapify(heap)
            heaps.append(heap)
            visiteds.append(visited)
        # ---- lock-step merge rounds ----
        heappop, heappush = heapq.heappop, heapq.heappush
        active = [qi for qi in range(Q) if heaps[qi]]
        while active:
            pops = [heappop(heaps[qi]) for qi in active]
            pend: list = []
            for j, qi in enumerate(active):
                neg_len, sid, s, pos, direction, qd_row = pops[j]
                seen = seens[qi]
                if sid not in seen:
                    seen.add(sid)
                    out_ids[qi].append(sid)
                    out_lens[qi].append(-neg_len)
                npos = pos + direction
                if 0 <= npos < n and (s, npos) not in visiteds[qi]:
                    visiteds[qi].add((s, npos))
                    pend.append((qi, s, npos, direction, qd_row))
            if pend:
                p_shift = np.array([p[1] for p in pend], dtype=np.int64)
                p_pos = np.array([p[2] for p in pend], dtype=np.int64)
                p_row = np.array([p[4] for p in pend], dtype=np.int64)
                p_sids = sorted_idx[p_shift, p_pos].astype(np.int64)
                windows = p_shift[:, None] + offsets
                rows = self._doubled[p_sids[:, None], windows]
                neq = rows != qd_table[p_row[:, None], windows]
                has_neq = neq.any(axis=1)
                first = np.argmax(neq, axis=1)
                p_lens = np.where(has_neq, first, m).tolist()
                p_sids = p_sids.tolist()
                for (qi, s, npos, direction, qd_row), nlen, nid in zip(
                    pend, p_lens, p_sids
                ):
                    heappush(
                        heaps[qi], (-nlen, nid, s, npos, direction, qd_row)
                    )
            active = [
                qi for qi in active
                if heaps[qi] and len(out_ids[qi]) < k
            ]
        return [
            (
                np.array(out_ids[qi], dtype=np.int64),
                np.array(out_lens[qi], dtype=np.int64),
            )
            for qi in range(Q)
        ]

    def batch_k_lccs(
        self, queries: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`k_lccs` for every row of ``queries``, fully batched.

        Phase 1 runs as ``m`` lock-step bisections over the whole batch,
        phase 2 as a lock-step merge with fused LCP computation.  Per
        query the ``(ids, lengths)`` output is identical to
        :meth:`k_lccs`.
        """
        flat_ids, flat_lens, offsets, _ = self._batch_k_lccs_flat(queries, k)
        bounds = offsets.tolist()
        return [
            (flat_ids[lo:hi], flat_lens[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def _batch_k_lccs_flat(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """:meth:`batch_k_lccs` in the form verification consumes.

        Returns ``(flat_ids, flat_lens, offsets, search_s)``: query
        ``qi``'s strings and LCCS lengths are
        ``flat_*[offsets[qi]:offsets[qi + 1]]``, and ``search_s`` is the
        wall-clock of phase 1 (the remainder of the call is the merge).
        A backend with a ``search_merge`` kernel answers in one call, so
        the four ``(Q, m)`` bound arrays are never materialised.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        queries = np.ascontiguousarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.m:
            raise ValueError(
                f"queries must be (Q, m={self.m}), got shape {queries.shape}"
            )
        search_merge = getattr(self._backend, "search_merge", None)
        key_shifts = self._key_shifts() if search_merge is not None else None
        if key_shifts is not None and len(queries):
            return search_merge(self, queries, k, key_shifts)
        t0 = time.perf_counter()
        bounds = self.batch_search_all_shifts(queries)
        search_s = time.perf_counter() - t0
        qds = np.concatenate([queries, queries], axis=1)
        merged = self.batch_merge_candidates(qds, bounds, k)
        offsets = np.zeros(len(merged) + 1, dtype=np.int64)
        if not merged:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, offsets, search_s
        np.cumsum([len(ids) for ids, _ in merged], out=offsets[1:])
        return (
            np.concatenate([ids for ids, _ in merged]),
            np.concatenate([lens for _, lens in merged]),
            offsets,
            search_s,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Memory footprint of the index structures (paper's index size).

        The buffers :meth:`export_arrays` names, each once: ``strings``
        is a view of ``_doubled``'s left half, not a second allocation.
        """
        return int(
            self._doubled.nbytes + self.sorted_idx.nbytes + self.next_link.nbytes
        )

    # ------------------------------------------------------------------
    # Serialization: ONE codepath (`export_arrays` / `from_arrays`); the
    # bundle persistence layer nests these arrays under a ``csa.`` prefix
    # (LCCSLSH._export_state).  Loading never re-sorts: the CSA is
    # reconstructed from its persisted arrays, which is what makes
    # mmap-backed bundle loads O(milliseconds) instead of O(n m log m).
    # ------------------------------------------------------------------

    def export_arrays(self) -> dict:
        """The CSA's complete state as named arrays.

        ``doubled`` (the ``(n, 2m)`` doubled strings — its left half *is*
        ``strings``, so the originals are not stored twice), plus
        ``sorted_idx`` and ``next_link``.  All three are returned by
        reference (zero-copy); callers must not mutate them.
        """
        return {
            "doubled": self._doubled,
            "sorted_idx": self.sorted_idx,
            "next_link": self.next_link,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays,
        source: str = "<arrays>",
        backend: Optional[str] = None,
    ) -> "CircularShiftArray":
        """Rebuild a CSA from :meth:`export_arrays` output without re-sorting.

        Arrays are adopted by reference — read-only memory-mapped inputs
        stay memory-mapped, and the CSA never writes to them (queries
        only bisect).  ``backend`` is the name the writer recorded: one
        this build does not know means the default, not an error.
        Raises ``ValueError`` on missing arrays or inconsistent shapes.
        """
        for key in ("doubled", "sorted_idx", "next_link"):
            if key not in arrays:
                raise ValueError(f"{source} is missing array {key!r}")
        obj = cls.__new__(cls)
        doubled = np.asarray(arrays["doubled"])
        if doubled.ndim != 2 or doubled.shape[1] % 2 != 0:
            raise ValueError(f"{source} has inconsistent array shapes")
        obj._doubled = doubled
        obj.n, obj.m = doubled.shape[0], doubled.shape[1] // 2
        obj.strings = doubled[:, : obj.m]  # zero-copy view
        if obj.n == 0 or obj.m == 0:
            raise ValueError(f"{source} has inconsistent array shapes")
        if not np.issubdtype(obj.strings.dtype, np.integer):
            raise ValueError(f"{source}: CSA strings must be integer")
        sorted_idx = np.asarray(arrays["sorted_idx"])
        next_link = np.asarray(arrays["next_link"])
        if (
            sorted_idx.shape != (obj.m, obj.n)
            or next_link.shape != (obj.m, obj.n)
        ):
            raise ValueError(f"{source} has inconsistent array shapes")
        obj.sorted_idx = sorted_idx
        obj.next_link = next_link
        from repro import kernels

        obj._backend = kernels.resolve_backend(kernels.persisted_backend(backend))
        return obj

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircularShiftArray(n={self.n}, m={self.m})"
