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

Construction (Algorithm 1) runs on the compiled engine
(:meth:`repro.kernels.cext.CExtBackend.csa_build`): rotation ``s``
orders as the pair (character ``s``, rotation ``s+1``), so ``I_s`` is
``I_{s+1}`` stably sorted by one character column — ``2m - 1`` counting
sorts in all.  Without the engine it falls back to rank doubling over
all ``n*m`` rotations: rounds of sorting (rank, rank-at-offset) pairs,
stopping once a round splits no class (at most ``ceil(log2 m)``), give
every rotation a dense rank, and ``I_s`` is an argsort of the rank
column ``s``.  Both emit the same bytes: ``I_s`` orders ids by their
``s``-rotation and equal rotations by ascending id, which determines it.

Characters are LSH bucket ids from a small alphabet, so the CSA stores
them as unsigned *codes* of the narrowest width ``W`` in {1, 2, 4, 8}
bytes that holds the fitted range: ``code = v - offset`` with
``offset = min - 1`` (``W < 8``), so stored codes lie in
``[1, 2**(8W) - 2]``; ``W = 8`` takes ``offset = -2**63``, the sign flip
of the int64.  A query character outside the fitted range clamps to
``0`` or ``2**(8W) - 1``: it equals no stored code and sorts below or
above all of them, so every comparison and every LCP — and with them
every answer — is the int64 strings' own.  :meth:`CircularShiftArray.encode`
is the one encoder; raw hash strings are encoded where they enter (the
``query_rotations`` and the search entry points), and everything below
them sees codes.

Ranks are narrow too: ``sorted_idx`` and ``next_link`` hold values in
``[0, n)``, so every build — engine or rank doubling, at fit, seal,
compaction or replay — stores them as :func:`rank_dtype` ``(n)``:
uint16 when ``n <= 65536``, int32 beyond.  Loading also accepts int32
ranks at any ``n`` (what format-3 bundles hold) and serves them in
place.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.lccs import compare_rotations, lcp_length

__all__ = ["ShiftBounds", "CircularShiftArray", "rank_dtype"]

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)
_CODE_DTYPES = {w: np.dtype(f"u{w}") for w in (1, 2, 4, 8)}


def code_layout(lo: int, hi: int) -> Tuple[int, int]:
    """``(width, offset)`` of the narrowest codes for values in ``[lo, hi]``.

    ``W < 8`` keeps codes ``0`` and ``2**(8W) - 1`` free for query
    characters below and above the range, so it needs ``hi - lo + 1``
    codes in ``[1, 2**(8W) - 2]``.
    """
    for width in (1, 2, 4):
        if lo > _INT64_MIN and hi - lo <= 2 ** (8 * width) - 3:
            return width, lo - 1
    return 8, _INT64_MIN


def rank_dtype(n: int) -> np.dtype:
    """The type of ``sorted_idx`` / ``next_link`` for ``n`` strings: the
    narrowest that holds every rank ``< n`` and that the kernels read —
    uint16 up to ``n = 65536``, int32 up to ``2**31``; int64 beyond, on
    the scalar path only."""
    if n <= 2**16:
        return np.dtype(np.uint16)
    return np.dtype(np.int32 if n < 2**31 else np.int64)


def encode_codes(values, offset: int, width: int) -> np.ndarray:
    """``clip(v - offset, 0, 2**(8 * width) - 1)`` as ``uint{8 width}``,
    exact for every int64 ``v``."""
    v = np.asarray(values).astype(np.int64, copy=False)
    codes = v.astype(np.uint64)
    codes -= np.uint64(offset % 2**64)  # wraps to the exact v - offset > 0
    codes[v <= offset] = 0
    if width < 8:
        np.minimum(codes, np.uint64(2 ** (8 * width) - 1), out=codes)
    return codes.astype(_CODE_DTYPES[width], copy=False)


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

    The build and the batch entry points (:meth:`_batch_search_arrays`,
    :meth:`batch_search_all_shifts`, :meth:`_batch_k_lccs_flat`) run on
    the compiled engine (:func:`repro.kernels.engine`).  The scalar
    paths (:meth:`_build`, :meth:`k_lccs` and friends) and the heap
    merge with multi-probe entries (:meth:`merge_candidates`) stay pure
    Python/NumPy: they are the oracle the engine must match byte for
    byte, and where the engine cannot be built they run instead.

    Args:
        strings: ``(n, m)`` integer array; row ``i`` is string ``T_i``.
            Every value must fit in int64 (``ValueError`` otherwise);
            they are stored as codes (module docstring).

    Attributes:
        n: number of strings.
        m: string length.
        width: bytes per stored character (1, 2, 4 or 8), chosen from
            the fitted range.
        offset: int64 value that code 0 stands for.
        sorted_idx: ``(m, n)`` — ``sorted_idx[s]`` is the paper's ``I_{s+1}``
            (string ids ordered by their ``s``-rotation).
        next_link: ``(m, n)`` — ``next_link[s][j]`` is the rank in
            ``sorted_idx[(s+1) % m]`` of the string at rank ``j`` of
            ``sorted_idx[s]`` (the paper's ``N``).  Both are
            :func:`rank_dtype` ``(n)`` when built (uint16 up to 65 536
            strings), or int32 as loaded from a format-3 bundle.
    """

    def __init__(self, strings: np.ndarray):
        strings = np.ascontiguousarray(strings)
        if strings.ndim != 2:
            raise ValueError(f"strings must be (n, m), got shape {strings.shape}")
        if strings.shape[0] == 0 or strings.shape[1] == 0:
            raise ValueError("strings must be non-empty in both dimensions")
        if not np.issubdtype(strings.dtype, np.integer):
            raise TypeError("CSA requires integer hash strings")
        # Hash characters are int64 values everywhere (queries too): a
        # uint64 value >= 2**63 would wrap and order differently.
        if not np.can_cast(strings.dtype, np.int64) and strings.max() > _INT64_MAX:
            raise ValueError("CSA hash strings must fit in int64")
        strings = strings.astype(np.int64, copy=False)
        self.n, self.m = strings.shape
        self.width, self.offset = code_layout(
            int(strings.min()), int(strings.max())
        )
        codes = self.encode(strings)
        # Doubled codes give O(1) zero-copy access to any rotation.
        self._doubled = np.concatenate([codes, codes], axis=1)
        #: the compiled engine, or None: the build and the batch entry
        #: points run the scalar path
        self._engine = kernels.engine()
        if self._engine is not None and self.n < 2**31:
            self.sorted_idx, self.next_link = self._engine.csa_build(strings)
        else:
            self.sorted_idx, self.next_link = self._build()

    def __getstate__(self) -> dict:
        """The engine holds a ctypes library: it is re-attached, not pickled."""
        state = self.__dict__.copy()
        state.pop("_engine", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._engine = kernels.engine()

    # ------------------------------------------------------------------
    # Codes (module docstring)
    # ------------------------------------------------------------------

    def encode(self, values) -> np.ndarray:
        """Codes of int64 hash characters ``values``, any shape: the one
        encoder (the engine's C encoder is pinned to it)."""
        return encode_codes(values, self.offset, self.width)

    @property
    def strings(self) -> np.ndarray:
        """The ``(n, m)`` int64 hash strings, decoded from the codes (a
        fresh array: nothing on the query path reads it)."""
        out = self._doubled[:, : self.m].astype(np.uint64)
        out += np.uint64(self.offset % 2**64)
        return out.view(np.int64)

    # ------------------------------------------------------------------
    # Construction (paper Algorithm 1; rank doubling is the fallback)
    # ------------------------------------------------------------------

    def _build(
        self, packed_keys: Optional[bool] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank doubling, the build without the engine and its oracle;
        ``packed_keys`` forces one of the two round sorts (the tests pin
        them to identical arrays), ``None`` picks."""
        n, m = self.n, self.m
        # Dense initial ranks of single characters (codes order as values).
        codes = self._doubled[:, :m]
        chars, inv = np.unique(codes.ravel(), return_inverse=True)
        rank = inv.reshape(n, m).astype(np.int64)
        # Ranks are < n*m, so a round's (first, second) pair packs into
        # one int64 key whenever (n*m + 1)**2 fits: one argsort instead of
        # a two-key lexsort, a third of the time.  Equal pairs get equal
        # ranks either way, so the sort need not be stable.
        base = n * m + 1
        if packed_keys is None:
            packed_keys = base * base < 2**63
        classes = len(chars)
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
            # A round that splits no class leaves every rank as it was,
            # and so does every later round: the ranks are final.
            if int(dense[-1]) + 1 == classes:
                break
            classes = int(dense[-1]) + 1
            new_rank = np.empty(n * m, dtype=np.int64)
            new_rank[order] = dense
            rank = new_rank.reshape(n, m)
            width *= 2
        idx_dtype = rank_dtype(n)
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
        """Zero-copy view of the codes of ``shift(T_{string_id}, s)``."""
        return self._doubled[string_id, s : s + self.m]

    def query_rotations(self, query: np.ndarray) -> np.ndarray:
        """Doubled query codes, so ``doubled[s:s+m]`` is ``shift(Q, s)``:
        where a raw length-``m`` hash string enters the CSA."""
        query = np.asarray(query)
        if query.shape != (self.m,):
            raise ValueError(
                f"query must have length m={self.m}, got shape {query.shape}"
            )
        codes = self.encode(query)
        return np.concatenate([codes, codes])

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

        ``q_rot`` is a slice of :meth:`query_rotations` (codes).  Returns
        the paper's ``(pos_l, pos_u, len_l, len_u)``.  ``lo``/``hi``
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
        (already rotated) query codes for search ``b``, sliced from
        :meth:`query_rotations`.  All searches bisect
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
        return self._bounds_list((pos_lower, pos_upper, len_lower, len_upper))

    @staticmethod
    def _bounds_list(arrays) -> List[ShiftBounds]:
        """``ShiftBounds`` per element of four equal-length bound arrays."""
        return [ShiftBounds(*b) for b in zip(*(a.tolist() for a in arrays))]

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
        batched query engine consumes.
        """
        shifts = np.asarray(shifts, dtype=np.int64)
        q_rots = np.ascontiguousarray(q_rots)
        B = len(shifts)
        if q_rots.shape != (B, self.m):
            raise ValueError(
                f"q_rots must have shape ({B}, {self.m}), got {q_rots.shape}"
            )
        if q_rots.dtype != self._doubled.dtype:
            raise TypeError(
                f"q_rots must be {self._doubled.dtype} codes "
                f"(see query_rotations), got {q_rots.dtype}"
            )
        if self._engine is not None:
            return self._engine.search_lanes(self, shifts, q_rots, lo=lo, hi=hi)
        out = np.empty((4, B), dtype=np.int64)
        for b in range(B):
            bound = self.binary_search(
                int(shifts[b]),
                q_rots[b],
                lo=0 if lo is None else int(lo[b]),
                hi=None if hi is None else int(hi[b]),
            )
            out[:, b] = (
                bound.pos_lower, bound.pos_upper, bound.len_lower, bound.len_upper
            )
        return out[0], out[1], out[2], out[3]

    def search_all_shifts(self, query: np.ndarray) -> List[ShiftBounds]:
        """Phase 1 of Algorithm 2: bounds at every shift.

        One full binary search at shift 0; afterwards the search range on
        shift ``s`` is narrowed through the next links whenever both LCP
        lengths at shift ``s-1`` are >= 1 (Lemma 3.1).
        """
        return self._search_shifts(self.query_rotations(query))

    def _search_shifts(self, qd: np.ndarray) -> List[ShiftBounds]:
        """:meth:`search_all_shifts` of doubled query codes ``qd``."""
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

        One engine call for the whole batch, in which each query still
        honours Lemma 3.1: its search window on shift ``s`` is narrowed
        through the next links whenever both of its LCP lengths at shift
        ``s-1`` are >= 1.  Per query the results are identical to
        :meth:`search_all_shifts`, which answers without an engine.

        Returns ``(pos_lower, pos_upper, len_lower, len_upper)``, each a
        ``(Q, m)`` int64 array.
        """
        queries = np.ascontiguousarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.m:
            raise ValueError(
                f"queries must be (Q, m={self.m}), got shape {queries.shape}"
            )
        if self._engine is not None:
            codes = self.encode(queries)
            return self._engine.search_all(
                self, np.concatenate([codes, codes], axis=1)
            )
        out = np.empty((4, len(queries), self.m), dtype=np.int64)
        for qi, query in enumerate(queries):
            for s, b in enumerate(self.search_all_shifts(query)):
                out[:, qi, s] = (b.pos_lower, b.pos_upper, b.len_lower, b.len_upper)
        return out[0], out[1], out[2], out[3]

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
        qd = self.query_rotations(query)
        return self.merge_candidates(qd, self._search_shifts(qd), k)

    def frontier_entries(
        self, qd: np.ndarray, bounds: Sequence[ShiftBounds]
    ) -> List[Tuple[int, int, int, int, np.ndarray]]:
        """Initial merge entries ``(len, shift, rank, direction, qd)``
        for doubled query codes ``qd``.

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

        ``qd`` and the ``qd`` of every ``extra_entries`` item are doubled
        query codes (:meth:`query_rotations`); ``extra_entries``/``seen``
        let the multi-probe scheme contribute frontier entries from
        perturbed queries and share the dedupe set.
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

    def _key_shifts(self) -> Optional[Tuple[int, int, int]]:
        """Bit offsets ``(sh_shift, sh_sid, sh_len)`` of the packed merge key.

        ``(m - lcp, sid, shift, rank)`` go into one int64, rank in the low
        bits, so a round's pick is a single heap-min.  ``None`` for
        gigantic indexes whose fields no longer fit 62 bits (the scalar
        merge serves those).
        """
        bits_pos = max(1, int(self.n - 1).bit_length())
        bits_shift = max(1, int(self.m - 1).bit_length())
        bits_len = int(self.m).bit_length()
        if bits_len + 2 * bits_pos + bits_shift > 62:  # pragma: no cover
            return None
        sh_sid = bits_pos + bits_shift
        return bits_pos, sh_sid, sh_sid + bits_pos

    def batch_k_lccs(
        self, queries: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`k_lccs` for every row of ``queries``, as one engine call.

        Per query the ``(ids, lengths)`` output is identical to
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
        The engine answers in one call, so the four ``(Q, m)`` bound
        arrays are never materialised; without one each query runs
        :meth:`search_all_shifts` and :meth:`merge_candidates`.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        queries = np.ascontiguousarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.m:
            raise ValueError(
                f"queries must be (Q, m={self.m}), got shape {queries.shape}"
            )
        key_shifts = self._key_shifts()
        if self._engine is not None and key_shifts is not None and len(queries):
            return self._engine.search_merge(self, queries, k, key_shifts)
        search_s = 0.0
        merged = []
        for query in queries:
            t0 = time.perf_counter()
            qd = self.query_rotations(query)
            bounds = self._search_shifts(qd)
            search_s += time.perf_counter() - t0
            merged.append(self.merge_candidates(qd, bounds, k))
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
        """Memory footprint of the index structures (paper's index size):
        the buffers :meth:`export_arrays` names."""
        return int(
            self._doubled.nbytes + self.sorted_idx.nbytes
            + self.next_link.nbytes + 8  # the int64 offset
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

        ``doubled`` (the ``(n, 2m)`` doubled codes, ``uint{8 width}``),
        ``offset`` (0-d int64) and ``sorted_idx`` / ``next_link``.  The
        big three are returned by reference (zero-copy); callers must
        not mutate them.
        """
        return {
            "doubled": self._doubled,
            "offset": np.array(self.offset, dtype=np.int64),
            "sorted_idx": self.sorted_idx,
            "next_link": self.next_link,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays,
        source: str = "<arrays>",
    ) -> "CircularShiftArray":
        """Rebuild a CSA from :meth:`export_arrays` output without re-sorting.

        Arrays are adopted by reference — read-only memory-mapped inputs
        stay memory-mapped, and the CSA never writes to them (queries
        only bisect) — so they must already be what the kernels read in
        place: C-contiguous native ``uint8/16/32/64`` codes, and ranks
        of one type — the build's :func:`rank_dtype` ``(n)`` or int32
        (what format-3 bundles hold at any ``n``) — every rank in
        ``[0, n)``.  Raises ``ValueError`` on missing arrays, other
        dtypes, inconsistent shapes or a rank out of range (one pass
        over the rank arrays, which touches every page of a
        memory-mapped bundle).
        """
        for key in ("doubled", "offset", "sorted_idx", "next_link"):
            if key not in arrays:
                raise ValueError(f"{source} is missing array {key!r}")
        obj = cls.__new__(cls)
        doubled = np.asarray(arrays["doubled"])
        if doubled.ndim != 2 or doubled.shape[1] % 2 != 0:
            raise ValueError(f"{source} has inconsistent array shapes")
        obj.n, obj.m = doubled.shape[0], doubled.shape[1] // 2
        if obj.n == 0 or obj.m == 0:
            raise ValueError(f"{source} has inconsistent array shapes")
        width = doubled.dtype.itemsize
        if _CODE_DTYPES.get(width) != doubled.dtype:
            raise ValueError(
                f"{source}: CSA codes must be native uint8/16/32/64, "
                f"got {doubled.dtype}"
            )
        offset = np.asarray(arrays["offset"])
        if offset.size != 1 or offset.dtype != np.int64:
            raise ValueError(f"{source}: CSA offset must be one int64")
        sorted_idx = np.asarray(arrays["sorted_idx"])
        next_link = np.asarray(arrays["next_link"])
        ranks = {rank_dtype(obj.n)}
        if obj.n < 2**31:  # the int32 ranks of a format-3 bundle
            ranks.add(np.dtype(np.int32))
        for name, arr, shape, dtypes in (
            ("doubled", doubled, (obj.n, 2 * obj.m), {doubled.dtype}),
            ("sorted_idx", sorted_idx, (obj.m, obj.n), ranks),
            ("next_link", next_link, (obj.m, obj.n), ranks),
        ):
            if arr.shape != shape:
                raise ValueError(f"{source} has inconsistent array shapes")
            if arr.dtype not in dtypes or not arr.flags.c_contiguous:
                raise ValueError(
                    f"{source}: CSA {name} must be C-contiguous "
                    f"{' or '.join(sorted(map(str, dtypes)))}, got {arr.dtype}"
                )
        for name, arr in (("sorted_idx", sorted_idx), ("next_link", next_link)):
            if arr.min() < 0 or arr.max() >= obj.n:
                raise ValueError(
                    f"{source}: CSA {name} holds a rank outside [0, {obj.n})"
                )
        if next_link.dtype != sorted_idx.dtype:
            raise ValueError(
                f"{source}: CSA next_link is {next_link.dtype} but "
                f"sorted_idx is {sorted_idx.dtype}"
            )
        obj.width, obj.offset = width, int(offset.reshape(-1)[0])
        obj._doubled = doubled
        obj.sorted_idx = sorted_idx
        obj.next_link = next_link
        obj._engine = kernels.engine()
        return obj

    @classmethod
    def from_int64_arrays(
        cls, arrays, source: str = "<arrays>"
    ) -> "CircularShiftArray":
        """:meth:`from_arrays` for the format-v2 layout, whose ``doubled``
        holds the int64 strings and no offset: they are encoded once,
        here, into private codes."""
        if "doubled" not in arrays:
            raise ValueError(f"{source} is missing array 'doubled'")
        doubled = np.asarray(arrays["doubled"])
        if doubled.dtype != np.int64 or doubled.size == 0:
            raise ValueError(f"{source}: v2 CSA strings must be int64")
        width, offset = code_layout(int(doubled.min()), int(doubled.max()))
        return cls.from_arrays(
            dict(
                arrays,
                doubled=encode_codes(doubled, offset, width),
                offset=np.array(offset, dtype=np.int64),
            ),
            source,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircularShiftArray(n={self.n}, m={self.m}, width={self.width})"
