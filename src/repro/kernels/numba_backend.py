"""Numba kernel backend: ``@njit`` ports of the reference loops.

Importing this module is safe without numba — the jitted kernels are
only defined when ``import numba`` succeeds, and
:func:`make_numba_backend` returns ``None`` (recording the reason) so
the registry falls back to NumPy silently.

The ports follow the C backend (:mod:`repro.kernels.cext`) rather than
the vectorised reference: per-lane scalar bisection, a per-query binary
heap for the merge, insertion-sort top-k selection.  All comparisons
are over int64 hash characters or float64 distances produced by the
shared kernels, so results are byte-identical to the reference (the
equivalence suite enforces this).

Numba-specific choices:

* packed merge keys are **int64**, as in the reference — uint64 would
  silently promote mixed arithmetic to float64 in nopython mode;
* popcount uses a 256-entry lookup table over a uint8 view — portable
  and fast, with no reliance on intrinsics;
* ``prange`` parallelises over queries/lanes for the three batch
  kernels, with all per-query scratch allocated inside the loop body
  (no shared mutable state), and ``nogil=True`` keeps concurrent
  readers honest under :class:`~repro.serve.concurrency.ConcurrentIndex`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.verify import _owner_of

__all__ = ["make_numba_backend", "NumbaBackend"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange

    _NUMBA_IMPORT_ERROR: Optional[str] = None
except Exception as exc:  # ImportError, or a broken install
    numba = None
    _NUMBA_IMPORT_ERROR = f"{type(exc).__name__}: {exc}"

#: bits set per byte value — the popcount lookup table
_POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


if numba is not None:  # pragma: no cover - exercised only with numba

    @njit(cache=True, nogil=True)
    def _search_one(doubled, sorted_idx_s, n, m, s, qd, qoff, lo, hi):
        """One windowed bisection; returns (pos_lower, pos_upper, lcp_lo, lcp_up)."""
        while lo < hi:
            mid = (lo + hi) >> 1
            sid = np.int64(sorted_idx_s[mid])
            le = True
            for j in range(m):
                c = doubled[sid, s + j]
                q = qd[qoff + j]
                if c != q:
                    le = c < q
                    break
            if le:
                lo = mid + 1
            else:
                hi = mid
        pu = lo
        pl = lo - 1
        ll = np.int64(0)
        lu = np.int64(0)
        if pl >= 0:
            sid = np.int64(sorted_idx_s[pl])
            ll = np.int64(m)
            for j in range(m):
                if doubled[sid, s + j] != qd[qoff + j]:
                    ll = np.int64(j)
                    break
        if pu < n:
            sid = np.int64(sorted_idx_s[pu])
            lu = np.int64(m)
            for j in range(m):
                if doubled[sid, s + j] != qd[qoff + j]:
                    lu = np.int64(j)
                    break
        return pl, pu, ll, lu

    @njit(cache=True, nogil=True, parallel=True)
    def _k_search_lanes(
        doubled, sorted_idx, n, m, shifts, q_rots, lo_in, hi_in, pl, pu, ll, lu
    ):
        for b in prange(shifts.shape[0]):
            s = shifts[b]
            a, c, e, f = _search_one(
                doubled, sorted_idx[s], n, m, s, q_rots[b], 0, lo_in[b], hi_in[b]
            )
            pl[b] = a
            pu[b] = c
            ll[b] = e
            lu[b] = f

    @njit(cache=True, nogil=True, parallel=True)
    def _k_search_all(doubled, sorted_idx, next_link, n, m, qds, pl, pu, ll, lu):
        for qi in prange(qds.shape[0]):
            for s in range(m):
                lo = np.int64(0)
                hi = np.int64(n)
                if s > 0 and ll[qi, s - 1] >= 1 and lu[qi, s - 1] >= 1:
                    p = pl[qi, s - 1]
                    if p < 0:
                        p = 0
                    elif p > n - 1:
                        p = n - 1
                    wlo = np.int64(next_link[s - 1, p])
                    p = pu[qi, s - 1]
                    if p < 0:
                        p = 0
                    elif p > n - 1:
                        p = n - 1
                    whi = np.int64(next_link[s - 1, p])
                    if wlo > whi:  # defensive; cannot happen per Lemma 3.1
                        wlo = 0
                        whi = n - 1
                    lo = wlo
                    hi = whi + 1
                a, c, e, f = _search_one(
                    doubled, sorted_idx[s], n, m, s, qds[qi], s, lo, hi
                )
                pl[qi, s] = a
                pu[qi, s] = c
                ll[qi, s] = e
                lu[qi, s] = f

    @njit(cache=True, nogil=True, parallel=True)
    def _k_merge(
        doubled,
        sorted_idx,
        n,
        m,
        k,
        qd_table,
        pos_lower,
        pos_upper,
        len_lower,
        len_upper,
        sh_shift,
        sh_sid,
        sh_len,
        out_ids,
        out_lens,
        out_cnt,
    ):
        Q = pos_lower.shape[0]
        kcap = min(k, n)
        mask_pos = (np.int64(1) << sh_shift) - 1
        mask_shift = (np.int64(1) << (sh_sid - sh_shift)) - 1
        mask_sid = (np.int64(1) << (sh_len - sh_sid)) - 1
        for qi in prange(Q):
            hkey = np.empty(2 * m, dtype=np.int64)
            hdir = np.empty(2 * m, dtype=np.int64)
            seen = np.zeros(n, dtype=np.bool_)
            hs = 0
            for s in range(m):
                for side in range(2):
                    if side == 0:
                        p = pos_lower[qi, s]
                        if p < 0:
                            continue
                        ln = len_lower[qi, s]
                        dr = np.int64(-1)
                    else:
                        p = pos_upper[qi, s]
                        if p >= n:
                            continue
                        ln = len_upper[qi, s]
                        dr = np.int64(1)
                    sid = np.int64(sorted_idx[s, p])
                    key = (
                        ((m - ln) << sh_len)
                        | (sid << sh_sid)
                        | (np.int64(s) << sh_shift)
                        | p
                    )
                    hkey[hs] = key
                    hdir[hs] = dr
                    i = hs
                    while i > 0:
                        par = (i - 1) // 2
                        if hkey[par] <= hkey[i]:
                            break
                        tk = hkey[par]
                        hkey[par] = hkey[i]
                        hkey[i] = tk
                        td = hdir[par]
                        hdir[par] = hdir[i]
                        hdir[i] = td
                        i = par
                    hs += 1
            cnt = 0
            while hs > 0 and cnt < kcap:
                key = hkey[0]
                dr = hdir[0]
                pos = key & mask_pos
                sh = (key >> sh_shift) & mask_shift
                sid = (key >> sh_sid) & mask_sid
                ln = m - (key >> sh_len)
                if not seen[sid]:
                    seen[sid] = True
                    out_ids[qi, cnt] = sid
                    out_lens[qi, cnt] = ln
                    cnt += 1
                npos = pos + dr
                if 0 <= npos < n:
                    nsid = np.int64(sorted_idx[sh, npos])
                    nlen = np.int64(m)
                    for j in range(m):
                        if doubled[nsid, sh + j] != qd_table[qi, sh + j]:
                            nlen = np.int64(j)
                            break
                    hkey[0] = (
                        ((m - nlen) << sh_len)
                        | (nsid << sh_sid)
                        | (sh << sh_shift)
                        | npos
                    )
                    # dir unchanged
                else:
                    hs -= 1
                    hkey[0] = hkey[hs]
                    hdir[0] = hdir[hs]
                i = 0
                while True:
                    left = 2 * i + 1
                    right = left + 1
                    sm = i
                    if left < hs and hkey[left] < hkey[sm]:
                        sm = left
                    if right < hs and hkey[right] < hkey[sm]:
                        sm = right
                    if sm == i:
                        break
                    tk = hkey[sm]
                    hkey[sm] = hkey[i]
                    hkey[i] = tk
                    td = hdir[sm]
                    hdir[sm] = hdir[i]
                    hdir[i] = td
                    i = sm
            out_cnt[qi] = cnt

    @njit(cache=True, nogil=True, parallel=True)
    def _k_gather_diff(data, ids, owner, queries, out):
        d = out.shape[1]
        for r in prange(out.shape[0]):
            i = ids[r]
            o = owner[r]
            for j in range(d):
                out[r, j] = data[i, j] - queries[o, j]

    @njit(cache=True, nogil=True)
    def _k_hamming_u8(a8, b8, lut, out):
        rows = a8.shape[0]
        nbytes = a8.shape[1]
        for r in range(rows):
            c = np.int64(0)
            for j in range(nbytes):
                c += lut[a8[r, j] ^ b8[r, j]]
            out[r] = np.float64(c)

    @njit(cache=True, nogil=True)
    def _k_topk_select(dists, ids, offsets, k, out_ids, out_dists, out_cnt):
        Q = offsets.shape[0] - 1
        for qi in range(Q):
            cnt = 0
            for i in range(offsets[qi], offsets[qi + 1]):
                d = dists[i]
                sid = ids[i]
                if cnt == k:
                    ld = out_dists[qi, k - 1]
                    if not (
                        d < ld or (d == ld and sid < out_ids[qi, k - 1])
                    ):
                        continue
                    cnt -= 1
                j = cnt
                while j > 0 and (
                    d < out_dists[qi, j - 1]
                    or (d == out_dists[qi, j - 1] and sid < out_ids[qi, j - 1])
                ):
                    out_dists[qi, j] = out_dists[qi, j - 1]
                    out_ids[qi, j] = out_ids[qi, j - 1]
                    j -= 1
                out_dists[qi, j] = d
                out_ids[qi, j] = sid
                cnt += 1
            out_cnt[qi] = cnt


class NumbaBackend:
    """njit/prange kernels; byte-identical to the NumPy reference."""

    name = "numba"
    compiled = True

    # -- CSA kernels ---------------------------------------------------

    def search_lanes(
        self,
        csa,
        shifts: np.ndarray,
        q_rots: np.ndarray,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        doubled, sorted_idx = csa._doubled, csa.sorted_idx
        B = len(shifts)
        n = csa.n
        shifts = np.ascontiguousarray(shifts, dtype=np.int64)
        q_rots = np.ascontiguousarray(q_rots, dtype=np.int64)
        lo = (
            np.zeros(B, dtype=np.int64)
            if lo is None
            else np.ascontiguousarray(lo, dtype=np.int64)
        )
        hi = (
            np.full(B, n, dtype=np.int64)
            if hi is None
            else np.ascontiguousarray(hi, dtype=np.int64)
        )
        pl = np.empty(B, dtype=np.int64)
        pu = np.empty(B, dtype=np.int64)
        ll = np.empty(B, dtype=np.int64)
        lu = np.empty(B, dtype=np.int64)
        _k_search_lanes(
            doubled, sorted_idx, n, csa.m, shifts, q_rots, lo, hi, pl, pu, ll, lu
        )
        return pl, pu, ll, lu

    def search_all(
        self, csa, qds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        doubled, sorted_idx, next_link = csa._doubled, csa.sorted_idx, csa.next_link
        Q = len(qds)
        n, m = csa.n, csa.m
        qds = np.ascontiguousarray(qds, dtype=np.int64)
        pl = np.empty((Q, m), dtype=np.int64)
        pu = np.empty((Q, m), dtype=np.int64)
        ll = np.empty((Q, m), dtype=np.int64)
        lu = np.empty((Q, m), dtype=np.int64)
        if Q:
            _k_search_all(doubled, sorted_idx, next_link, n, m, qds, pl, pu, ll, lu)
        return pl, pu, ll, lu

    def merge_tournament(
        self,
        csa,
        qd_table: np.ndarray,
        bounds_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        k: int,
        key_shifts: Tuple[int, int, int],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        doubled, sorted_idx = csa._doubled, csa.sorted_idx
        pos_lower, pos_upper, len_lower, len_upper = (
            np.ascontiguousarray(a, dtype=np.int64) for a in bounds_arrays
        )
        Q = len(pos_lower)
        n, m = csa.n, csa.m
        if Q == 0:
            return []
        sh_shift, sh_sid, sh_len = key_shifts
        qd_table = np.ascontiguousarray(qd_table[:Q], dtype=np.int64)
        kcap = min(k, n)
        out_ids = np.empty((Q, kcap), dtype=np.int64)
        out_lens = np.empty((Q, kcap), dtype=np.int64)
        out_cnt = np.empty(Q, dtype=np.int64)
        _k_merge(
            doubled,
            sorted_idx,
            n,
            m,
            k,
            qd_table,
            pos_lower,
            pos_upper,
            len_lower,
            len_upper,
            sh_shift,
            sh_sid,
            sh_len,
            out_ids,
            out_lens,
            out_cnt,
        )
        return [
            (out_ids[qi, : out_cnt[qi]].copy(), out_lens[qi, : out_cnt[qi]].copy())
            for qi in range(Q)
        ]

    # -- verification kernels ------------------------------------------

    def gather_diff(
        self,
        data: np.ndarray,
        flat_ids: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
    ) -> np.ndarray:
        out = np.empty((len(flat_ids), data.shape[1]), dtype=np.float64)
        _k_gather_diff(data, flat_ids, _owner_of(offsets), queries, out)
        return out

    def hamming_packed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.uint64)
        b = np.ascontiguousarray(b, dtype=np.uint64)
        out = np.empty(len(a), dtype=np.float64)
        _k_hamming_u8(
            a.view(np.uint8).reshape(len(a), -1),
            b.view(np.uint8).reshape(len(b), -1),
            _POP8,
            out,
        )
        return out

    def topk_select(
        self,
        flat_ids: np.ndarray,
        flat_dists: np.ndarray,
        offsets: np.ndarray,
        k: int,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        Q = len(offsets) - 1
        flat_ids = np.ascontiguousarray(flat_ids, dtype=np.int64)
        flat_dists = np.ascontiguousarray(flat_dists, dtype=np.float64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        out_ids = np.empty((Q, k), dtype=np.int64)
        out_dists = np.empty((Q, k), dtype=np.float64)
        out_cnt = np.empty(Q, dtype=np.int64)
        _k_topk_select(flat_dists, flat_ids, offsets, k, out_ids, out_dists, out_cnt)
        return [
            (out_ids[qi, : out_cnt[qi]].copy(), out_dists[qi, : out_cnt[qi]].copy())
            for qi in range(Q)
        ]


def make_numba_backend(reasons: Dict[str, str]) -> Optional[NumbaBackend]:
    """Build the backend, or record why it is unavailable and return None."""
    if numba is None:
        reasons["numba"] = f"numba not importable ({_NUMBA_IMPORT_ERROR})"
        return None
    return NumbaBackend()
