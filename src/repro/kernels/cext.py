"""The engine: C kernels compiled on first use, loaded through ``ctypes``.

The CSA build, the CSA bisection, the 2m-way merge and candidate
verification of the scalar path (:mod:`repro.core.csa`,
``ANNIndex._verify``) expressed as plain C99 loops.  The source below is
compiled once per machine with the system C compiler
(``cc``/``gcc``/``clang``, whichever answers) into a shared object
cached under ``~/.cache/repro-kernels/`` keyed by a hash of the source,
so subsequent imports pay only a ``dlopen``.  No build step, no new
dependency: when no compiler is present :func:`repro.kernels.engine`
warns once, indexes build by rank doubling and answer through the
scalar path.

Byte-identity notes (why the C loops cannot diverge from the scalar
path):

* the CSA kernels compare **unsigned character codes** only (see
  :mod:`repro.core.csa`): ``W``-byte codes order exactly as the int64
  hash values they encode, and a query character outside the fitted
  range clamps to a code no stored character has, so every comparison
  and LCP is the int64 strings' own.  Codes are compared a 64-bit word
  at a time on little-endian targets — the lowest set bit of the XOR
  of two words marks the first differing character, which is then
  compared as one ``uintW`` — and one character at a time elsewhere.
  One source serves every width: each entry point switches on ``W`` to
  an always-inline body the compiler specialises, and
  ``repro_search_merge`` encodes its int64 queries with the same clamp
  as ``CircularShiftArray.encode`` (pinned by the tests);
* the build's output is fully determined by its contract — ``I_s``
  orders ids by their ``s``-rotation, equal rotations by ascending id —
  so ``csa_build`` and the rank-doubling ``_build`` emit the same bytes
  (ranks as ``rank_dtype(n)``: uint16 up to 65 536 strings, int32
  beyond); it ranks characters by exact int64 order, never by a range
  assumption.  The query kernels read either rank type: like ``W``,
  the rank width is a compile-time constant of each specialisation
  (``BY_LAYOUT``);
* the merge pops walks in the scalar heap's canonical ``(-lcp, sid,
  shift, rank)`` order, packed into one int64 key;
* verification never re-computes float distances: ``gather_diff`` only
  performs the IEEE-exact elementwise subtraction (the reduction stays
  on the shared NumPy ``einsum``) of rows read in the store's own type
  and widened exactly to float64 (one specialisation per store type),
  ``topk_select`` only *compares* float64 values produced by the shared
  kernels, and the popcount path is integer-exact.  The whole file is compiled without
  ``-ffast-math``; there is no floating-point arithmetic to contract.

Call cost (what makes a batch of one cheap): every pointer crosses as a
plain integer address (``c_void_p`` argtypes — ``ndarray.ctypes.data_as``
costs ~2.3 us per array, a third of a lone query).  The addresses of the
per-index constant arrays are remembered per array *object*
(:class:`_AddressCache`) and so re-taken whenever one is replaced: fit,
store growth, seal/compaction and unpickling all invalidate them by
construction.  Every constant array is read in place — ``uintW``
codes, ``sorted_idx``/``next_link`` as the uint16 or int32 the CSA
holds; the cache refuses an array of another type rather than copying
it.
Search and merge share one entry point (``repro_search_merge``) so the
four ``(Q, m)`` bound arrays never leave C.

Reentrancy: parallel readers behind ``ConcurrentIndex`` run these
kernels concurrently — ``ctypes`` drops the GIL for the duration of each
call, and a replica's build runs beside its primary's.  Heaps, bounds and
the build's scratch are ``malloc``'d per call inside C; the one
``O(n)`` scratch (the merge's seen-epoch table) is thread-local
(:class:`_SeenScratch`), so a lone query does not pay a ``calloc(n)``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.csa import rank_dtype
from repro.core.store import STORE_DTYPES

__all__ = ["CExtBackend"]

_C_SOURCE = r"""
#define _POSIX_C_SOURCE 200112L
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* The CSA build's ranks and scratch: int32 (n < 2^31).  The CSA keeps
   sorted_idx / next_link as uint16 when n <= 65536 and as int32 beyond;
   the query kernels read either through rank_at. */
typedef int32_t idx_t;

#define INLINE static inline __attribute__((always_inline))

/* Compare a word of characters per step where loads are little-endian:
   the lowest set bit of two words' XOR lies in their first differing
   byte, hence in their first differing character. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define WORD_COMPARE 1
#else
#define WORD_COMPARE 0
#endif

/* Run call(W) with the code width W a compile-time constant, so each
   always-inline body below is specialised once per width. */
#define BY_WIDTH(width, call) \
    switch (width) { \
    case 1: call(1); break; \
    case 2: call(2); break; \
    case 4: call(4); break; \
    default: call(8); break; \
    }

/* Run call(W, R) with the code width W and the rank width R (2: uint16
   ranks, 4: int32) both compile-time constants: one specialisation per
   layout, no branch on either in the inner loops. */
#define BY_RANKS(ranks, call, w) \
    if ((ranks) == 2) call(w, 2); else call(w, 4);
#define BY_LAYOUT(width, ranks, call) \
    switch (width) { \
    case 1: BY_RANKS(ranks, call, 1) break; \
    case 2: BY_RANKS(ranks, call, 2) break; \
    case 4: BY_RANKS(ranks, call, 4) break; \
    default: BY_RANKS(ranks, call, 8) break; \
    }

static int64_t clip64(int64_t v, int64_t lo, int64_t hi) {
    return v < lo ? lo : (v > hi ? hi : v);
}

static double now_s(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Character j of a string of w-byte unsigned codes. */
INLINE uint64_t char_at(const uint8_t *p, int64_t j, int w) {
    switch (w) {
    case 1: return p[j];
    case 2: { uint16_t c; memcpy(&c, p + 2 * j, 2); return c; }
    case 4: { uint32_t c; memcpy(&c, p + 4 * j, 4); return c; }
    default: { uint64_t c; memcpy(&c, p + 8 * j, 8); return c; }
    }
}

/* Entry i of a rank array (sorted_idx / next_link) of r-byte entries. */
INLINE int64_t rank_at(const void *p, int64_t i, int r) {
    if (r == 2) return ((const uint16_t *)p)[i];
    return ((const int32_t *)p)[i];
}

INLINE void put_char(uint8_t *p, int64_t j, uint64_t c, int w) {
    switch (w) {
    case 1: p[j] = (uint8_t)c; break;
    case 2: { uint16_t x = (uint16_t)c; memcpy(p + 2 * j, &x, 2); break; }
    case 4: { uint32_t x = (uint32_t)c; memcpy(p + 4 * j, &x, 4); break; }
    default: memcpy(p + 8 * j, &c, 8); break;
    }
}

/* The code of hash value v: clip(v - offset, 0, 2^(8w) - 1), exact. */
INLINE uint64_t encode_char(int64_t v, int64_t offset, int w) {
    uint64_t top = w == 8 ? UINT64_MAX : (((uint64_t)1 << (8 * w)) - 1);
    uint64_t d;
    if (v <= offset) return 0;
    d = (uint64_t)v - (uint64_t)offset;
    return d < top ? d : top;
}

/* Index of the first differing character of two m-character strings
   (m when equal).  Narrow codes compare a word at a time; a tail shorter
   than a word re-reads the last whole word, whose leading bytes are
   already known to be equal.  8-byte codes are a word each already. */
INLINE int64_t first_diff(const uint8_t *a, const uint8_t *b, int64_t m,
                          int w) {
    int64_t j;
#if WORD_COMPARE
    if (w < 8 && m * w >= 8) {
        int64_t last = m * w - 8, i;
        for (i = 0;; i += 8) {
            uint64_t x, y;
            if (i > last) i = last;
            memcpy(&x, a + i, 8);
            memcpy(&y, b + i, 8);
            if (x != y) return (i + (__builtin_ctzll(x ^ y) >> 3)) / w;
            if (i == last) return m;
        }
    }
#endif
    for (j = 0; j < m; j++)
        if (char_at(a, j, w) != char_at(b, j, w)) return j;
    return m;
}

/* Lexicographic compare of a stored rotation against a rotated query.
   Returns -1/0/+1; *lcp gets the first-mismatch index (m when equal). */
INLINE int cmp_rot(const uint8_t *row, const uint8_t *q, int64_t m, int w,
                   int64_t *lcp) {
    int64_t j = first_diff(row, q, m, w);
    if (lcp) *lcp = j;
    if (j == m) return 0;
    return char_at(row, j, w) < char_at(q, j, w) ? -1 : 1;
}

/* Bisection of shift s; idxs is that shift's row of sorted_idx. */
INLINE void search_one(const uint8_t *doubled, const void *idxs, int r,
                       int64_t n, int64_t m, int w, int64_t s,
                       const uint8_t *q, int64_t lo, int64_t hi, int64_t *pl,
                       int64_t *pu, int64_t *ll, int64_t *lu) {
    int64_t row_bytes = 2 * m * w;
    const uint8_t *rot = doubled + s * w;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (cmp_rot(rot + rank_at(idxs, mid, r) * row_bytes, q, m, w, 0) <= 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    *pu = lo;
    *pl = lo - 1;
    *ll = 0;
    *lu = 0;
    if (*pl >= 0)
        cmp_rot(rot + rank_at(idxs, *pl, r) * row_bytes, q, m, w, ll);
    if (*pu < n)
        cmp_rot(rot + rank_at(idxs, *pu, r) * row_bytes, q, m, w, lu);
}

/* Kernel 1a: independent windowed bisections (the multi-probe lanes);
   q_rots is (B, m) query codes. */
INLINE void search_lanes_w(const uint8_t *doubled, const uint8_t *sorted_idx,
                           int r, int64_t n, int64_t m, int w, int64_t B,
                           const int64_t *shifts, const uint8_t *q_rots,
                           const int64_t *lo_in, const int64_t *hi_in,
                           int64_t *pos_lower, int64_t *pos_upper,
                           int64_t *len_lower, int64_t *len_upper) {
    int64_t b;
    for (b = 0; b < B; b++) {
        int64_t s = shifts[b];
        search_one(doubled, sorted_idx + s * n * r, r, n, m, w, s,
                   q_rots + b * m * w, lo_in[b], hi_in[b], pos_lower + b,
                   pos_upper + b, len_lower + b, len_upper + b);
    }
}

void repro_search_lanes(const uint8_t *doubled, int64_t width,
                        const uint8_t *sorted_idx, int64_t ranks, int64_t n,
                        int64_t m, int64_t B, const int64_t *shifts,
                        const uint8_t *q_rots, const int64_t *lo_in,
                        const int64_t *hi_in, int64_t *pos_lower,
                        int64_t *pos_upper, int64_t *len_lower,
                        int64_t *len_upper) {
#define CALL(w, r) search_lanes_w(doubled, sorted_idx, r, n, m, w, B, shifts, \
                                  q_rots, lo_in, hi_in, pos_lower, pos_upper, \
                                  len_lower, len_upper)
    BY_LAYOUT(width, ranks, CALL)
#undef CALL
}

/* Phase 1 of Algorithm 2 for one doubled query, with Lemma 3.1
   windowing through the next links. */
INLINE void search_query(const uint8_t *doubled, const uint8_t *sorted_idx,
                         const uint8_t *next_link, int r, int64_t n,
                         int64_t m, int w, const uint8_t *qd, int64_t *pl,
                         int64_t *pu, int64_t *ll, int64_t *lu) {
    int64_t s;
    for (s = 0; s < m; s++) {
        int64_t lo = 0, hi = n;
        if (s > 0 && ll[s - 1] >= 1 && lu[s - 1] >= 1) {
            const uint8_t *nl = next_link + (s - 1) * n * r;
            int64_t wlo = rank_at(nl, clip64(pl[s - 1], 0, n - 1), r);
            int64_t whi = rank_at(nl, clip64(pu[s - 1], 0, n - 1), r);
            if (wlo > whi) { wlo = 0; whi = n - 1; } /* defensive */
            lo = wlo;
            hi = whi + 1;
        }
        search_one(doubled, sorted_idx + s * n * r, r, n, m, w, s, qd + s * w,
                   lo, hi, pl + s, pu + s, ll + s, lu + s);
    }
}

/* Kernel 1b: phase 1 for a whole batch of (Q, 2m) doubled query codes,
   bounds returned as (Q, m). */
INLINE void search_all_w(const uint8_t *doubled, const uint8_t *sorted_idx,
                         const uint8_t *next_link, int r, int64_t n,
                         int64_t m, int w, int64_t Q, const uint8_t *qds,
                         int64_t *pos_lower, int64_t *pos_upper,
                         int64_t *len_lower, int64_t *len_upper) {
    int64_t qi;
    for (qi = 0; qi < Q; qi++)
        search_query(doubled, sorted_idx, next_link, r, n, m, w,
                     qds + qi * 2 * m * w, pos_lower + qi * m,
                     pos_upper + qi * m, len_lower + qi * m,
                     len_upper + qi * m);
}

void repro_search_all(const uint8_t *doubled, int64_t width,
                      const uint8_t *sorted_idx, const uint8_t *next_link,
                      int64_t ranks, int64_t n, int64_t m, int64_t Q,
                      const uint8_t *qds, int64_t *pos_lower,
                      int64_t *pos_upper, int64_t *len_lower,
                      int64_t *len_upper) {
#define CALL(w, r) search_all_w(doubled, sorted_idx, next_link, r, n, m, w, Q, \
                                qds, pos_lower, pos_upper, len_lower, \
                                len_upper)
    BY_LAYOUT(width, ranks, CALL)
#undef CALL
}

static void sift_down(uint64_t *hkey, int32_t *hdir, int64_t hs, int64_t i) {
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, sm = i;
        if (l < hs && hkey[l] < hkey[sm]) sm = l;
        if (r < hs && hkey[r] < hkey[sm]) sm = r;
        if (sm == i) return;
        uint64_t tk = hkey[i]; hkey[i] = hkey[sm]; hkey[sm] = tk;
        int32_t td = hdir[i]; hdir[i] = hdir[sm]; hdir[sm] = td;
        i = sm;
    }
}

static void sift_up(uint64_t *hkey, int32_t *hdir, int64_t i) {
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (hkey[p] <= hkey[i]) return;
        uint64_t tk = hkey[i]; hkey[i] = hkey[p]; hkey[p] = tk;
        int32_t td = hdir[i]; hdir[i] = hdir[p]; hdir[p] = td;
        i = p;
    }
}

/* Walk-tournament merge for one query with packed (-lcp, sid, shift,
   rank) keys.  All fields decode back from the key, so the heap carries
   only (key, direction).  hkey/hdir are scratch of size 2m; a string is
   seen when seen_epoch[sid] == epoch.  Returns the number emitted. */
INLINE int64_t merge_query(const uint8_t *doubled, const uint8_t *sorted_idx,
                           int r, int64_t n, int64_t m, int w, int64_t kcap,
                           const uint8_t *qd, const int64_t *pos_lower,
                           const int64_t *pos_upper, const int64_t *len_lower,
                           const int64_t *len_upper, int64_t sh_shift,
                           int64_t sh_sid, int64_t sh_len, int64_t *out_ids,
                           int64_t *out_lens, uint64_t *hkey, int32_t *hdir,
                           int32_t *seen_epoch, int32_t epoch) {
    uint64_t mask_pos = (((uint64_t)1) << sh_shift) - 1;
    uint64_t mask_shift = (((uint64_t)1) << (sh_sid - sh_shift)) - 1;
    uint64_t mask_sid = (((uint64_t)1) << (sh_len - sh_sid)) - 1;
    int64_t row_bytes = 2 * m * w;
    int64_t hs = 0, cnt = 0, s;
    for (s = 0; s < m; s++) {
        int64_t pl = pos_lower[s];
        int64_t pu = pos_upper[s];
        if (pl >= 0) {
            uint64_t sid = (uint64_t)rank_at(sorted_idx, s * n + pl, r);
            uint64_t key = ((uint64_t)(m - len_lower[s]) << sh_len)
                         | (sid << sh_sid)
                         | ((uint64_t)s << sh_shift) | (uint64_t)pl;
            hkey[hs] = key; hdir[hs] = -1; sift_up(hkey, hdir, hs); hs++;
        }
        if (pu < n) {
            uint64_t sid = (uint64_t)rank_at(sorted_idx, s * n + pu, r);
            uint64_t key = ((uint64_t)(m - len_upper[s]) << sh_len)
                         | (sid << sh_sid)
                         | ((uint64_t)s << sh_shift) | (uint64_t)pu;
            hkey[hs] = key; hdir[hs] = 1; sift_up(hkey, hdir, hs); hs++;
        }
    }
    while (hs > 0 && cnt < kcap) {
        uint64_t key = hkey[0];
        int32_t dir = hdir[0];
        int64_t pos = (int64_t)(key & mask_pos);
        int64_t sh = (int64_t)((key >> sh_shift) & mask_shift);
        int64_t sid = (int64_t)((key >> sh_sid) & mask_sid);
        int64_t len = m - (int64_t)(key >> sh_len);
        if (seen_epoch[sid] != epoch) {
            seen_epoch[sid] = epoch;
            out_ids[cnt] = sid;
            out_lens[cnt] = len;
            cnt++;
        }
        int64_t npos = pos + dir;
        if (npos >= 0 && npos < n) {
            int64_t nsid = rank_at(sorted_idx, sh * n + npos, r);
            int64_t nlen = first_diff(doubled + nsid * row_bytes + sh * w,
                                      qd + sh * w, m, w);
            hkey[0] = ((uint64_t)(m - nlen) << sh_len)
                    | ((uint64_t)nsid << sh_sid)
                    | ((uint64_t)sh << sh_shift) | (uint64_t)npos;
            /* dir unchanged */
            sift_down(hkey, hdir, hs, 0);
        } else {
            hs--;
            hkey[0] = hkey[hs];
            hdir[0] = hdir[hs];
            if (hs > 0) sift_down(hkey, hdir, hs, 0);
        }
    }
    return cnt;
}

/* Kernels 1b + 2 behind one entry point: k-LCCS search for a batch of
   (undoubled) int64 query strings, encoded here against the CSA's
   offset.  Bounds, the doubled query codes and the heap live in one
   per-call allocation and never cross the boundary.  Candidates are
   written back to back: query qi's ids and LCCS lengths are
   out_*[offsets[qi] .. offsets[qi+1]).  *search_s accumulates the
   seconds spent in phase 1 (encoding included), so callers can still
   attribute the two stages.  Returns -1 when the scratch cannot be
   allocated. */
INLINE int search_merge_w(const uint8_t *doubled, const uint8_t *sorted_idx,
                          const uint8_t *next_link, int r, int64_t n,
                          int64_t m, int w, int64_t offset, int64_t Q, int64_t k,
                          const int64_t *queries, int64_t sh_shift,
                          int64_t sh_sid, int64_t sh_len, int64_t *out_ids,
                          int64_t *out_lens, int64_t *offsets,
                          int32_t *seen_epoch, int64_t epoch_base,
                          double *search_s) {
    int64_t kcap = k < n ? k : n;
    int64_t qi, j;
    /* four bounds (m int64 each), hkey (2m), hdir (2m int32), then the
       doubled query codes (2m w bytes) */
    int64_t *work = (int64_t *)malloc((size_t)m * (6 * 8 + 2 * 4 + 2 * w));
    double spent = 0.0;
    if (!work) return -1;
    int64_t *pl = work, *pu = pl + m, *ll = pu + m, *lu = ll + m;
    uint64_t *hkey = (uint64_t *)(lu + m);
    int32_t *hdir = (int32_t *)(hkey + 2 * m);
    uint8_t *qd = (uint8_t *)(hdir + 2 * m);
    offsets[0] = 0;
    for (qi = 0; qi < Q; qi++) {
        double t0 = now_s();
        for (j = 0; j < m; j++)
            put_char(qd, j, encode_char(queries[qi * m + j], offset, w), w);
        memcpy(qd + m * w, qd, (size_t)(m * w));
        search_query(doubled, sorted_idx, next_link, r, n, m, w, qd, pl, pu,
                     ll, lu);
        spent += now_s() - t0;
        offsets[qi + 1] = offsets[qi] + merge_query(
            doubled, sorted_idx, r, n, m, w, kcap, qd, pl, pu, ll, lu, sh_shift,
            sh_sid, sh_len, out_ids + offsets[qi], out_lens + offsets[qi],
            hkey, hdir, seen_epoch, (int32_t)(epoch_base + qi + 1));
    }
    free(work);
    *search_s = spent;
    return 0;
}

int repro_search_merge(const uint8_t *doubled, int64_t width, int64_t offset,
                       const uint8_t *sorted_idx, const uint8_t *next_link,
                       int64_t ranks, int64_t n, int64_t m, int64_t Q,
                       int64_t k,
                       const int64_t *queries, int64_t sh_shift,
                       int64_t sh_sid, int64_t sh_len, int64_t *out_ids,
                       int64_t *out_lens, int64_t *offsets,
                       int32_t *seen_epoch, int64_t epoch_base,
                       double *search_s) {
    int rc = 0;
#define CALL(w, r) rc = search_merge_w(doubled, sorted_idx, next_link, r, n, \
                                       m, w, offset, Q, k, queries, sh_shift, \
                                       sh_sid, sh_len, out_ids, out_lens, \
                                       offsets, seen_epoch, epoch_base, \
                                       search_s)
    BY_LAYOUT(width, ranks, CALL)
#undef CALL
    return rc;
}

/* The codes of count int64 hash values (what repro_search_merge encodes
   queries with), for the tests that pin it to the NumPy encoder. */
void repro_encode(const int64_t *values, int64_t count, int64_t offset,
                  int64_t width, uint8_t *out) {
    int64_t i;
#define CALL(w) for (i = 0; i < count; i++) \
                    put_char(out, i, encode_char(values[i], offset, w), w)
    BY_WIDTH(width, CALL)
#undef CALL
}

/* Dense rank of one column (exact int64 order) into rank[0..n), which
   may alias lo32; returns the number of distinct values.  The column
   arrives as order-preserving uint64 codes (the int64 with its sign bit
   flipped) split into low and high 32-bit halves.  Codes less the
   column minimum span the column exactly whatever its range: a span
   below n ranks through a table of the values present, any other
   column takes an LSD radix sort with byte digits that skips every
   digit all keys share.  key/key2 are n scratch, hist 8 * 256. */
static int64_t rank_column(const uint32_t *lo32, const uint32_t *hi32,
                           int64_t n, idx_t *rank, uint64_t *key,
                           uint64_t *key2, idx_t *ids, idx_t *ids2,
                           int64_t *hist) {
    int64_t i, b, r = 0, digits = 0;
    uint64_t kmin = UINT64_MAX, kmax = 0, span;
    for (i = 0; i < n; i++) {
        uint64_t k = ((uint64_t)hi32[i] << 32) | lo32[i];
        key[i] = k;
        if (k < kmin) kmin = k;
        if (k > kmax) kmax = k;
    }
    span = kmax - kmin;
    if (span < (uint64_t)n) {
        int64_t *present = (int64_t *)key2;
        memset(present, 0, (size_t)(span + 1) * sizeof(int64_t));
        for (i = 0; i < n; i++) present[key[i] - kmin] = 1;
        for (i = 0; i <= (int64_t)span; i++) {
            int64_t p = present[i];
            present[i] = r;
            r += p;
        }
        for (i = 0; i < n; i++) rank[i] = (idx_t)present[key[i] - kmin];
        return r;
    }
    for (; span; span >>= 8) digits++;
    memset(hist, 0, 8 * 256 * sizeof(int64_t));
    for (i = 0; i < n; i++) {
        uint64_t k = key[i] - kmin;
        key[i] = k;
        ids[i] = (idx_t)i;
        for (b = 0; b < digits; b++) hist[b * 256 + ((k >> (8 * b)) & 255)]++;
    }
    for (b = 0; b < digits; b++) {
        int64_t *h = hist + b * 256, sum = 0, d;
        if (h[(key[0] >> (8 * b)) & 255] == n) continue;
        for (d = 0; d < 256; d++) { int64_t c = h[d]; h[d] = sum; sum += c; }
        for (i = 0; i < n; i++) {
            int64_t p = h[(key[i] >> (8 * b)) & 255]++;
            key2[p] = key[i];
            ids2[p] = ids[i];
        }
        uint64_t *tk = key; key = key2; key2 = tk;
        idx_t *ti = ids; ids = ids2; ids2 = ti;
    }
    rank[ids[0]] = 0;
    for (i = 1; i < n; i++) {
        if (key[i] != key[i - 1]) r++;
        rank[ids[i]] = (idx_t)r;
    }
    return r + 1;
}

/* dst = src stably sorted by rank[id] in [0, sigma): one counting sort. */
static void sort_by_rank(const idx_t *src, idx_t *dst, const idx_t *rank,
                         int64_t n, int64_t sigma, int64_t *cnt) {
    int64_t i, sum = 0;
    memset(cnt, 0, (size_t)sigma * sizeof(int64_t));
    for (i = 0; i < n; i++) cnt[rank[i]]++;
    for (i = 0; i < sigma; i++) { int64_t c = cnt[i]; cnt[i] = sum; sum += c; }
    for (i = 0; i < n; i++) dst[cnt[rank[src[i]]]++] = src[i];
}

/* The CSA build (paper Algorithm 1): sorted_idx[s] orders string ids by
   their s-rotation, equal rotations by ascending id; next_link[s][j] is
   the rank in sorted_idx[(s+1) % m] of sorted_idx[s][j]; strings is
   the C-contiguous (n, m) int64 input.
   Rotation s is c_s followed by rotation s+1 less its last character,
   which is c_s again, so rotation s orders as the pair (c_s, rotation
   s+1): sorted_idx[s] is sorted_idx[s+1] stably sorted by column s.
   sorted_idx[0] comes from an LSD radix sort over columns m-1 .. 0 that
   starts from the identity (ties by id); sorted_idx[m-1] .. [1] then
   follow one counting sort each, 2m - 1 sorts in all.  A column's sort
   compares its own n values only, so ranks are dense per column (< n).
   The outputs double as the column-major store: one transposing pass
   writes each character's code, low half to next_link and high half to
   sorted_idx; the ranks then replace the low halves and stay until the
   links overwrite them.  Scratch is O(n + m), all malloc'd here.
   Returns -1 when it cannot be allocated. */
int repro_csa_build(const int64_t *strings, int64_t n, int64_t m,
                    idx_t *sorted_idx, idx_t *next_link) {
    int64_t s, i0, i;
    size_t bytes = (size_t)n * 2 * (sizeof(uint64_t) + sizeof(idx_t))
                 + (size_t)(8 * 256 + m) * sizeof(int64_t);
    uint64_t *key = (uint64_t *)malloc(bytes);
    if (!key) return -1;
    uint64_t *key2 = key + n;
    int64_t *hist = (int64_t *)(key2 + n), *sigma = hist + 8 * 256;
    idx_t *ids = (idx_t *)(sigma + m), *ids2 = ids + n;
    uint32_t *lo32 = (uint32_t *)next_link, *hi32 = (uint32_t *)sorted_idx;
    idx_t *rank = next_link;
    /* transpose in tiles of 64 rows, which stay in cache across columns */
    for (i0 = 0; i0 < n; i0 += 64) {
        int64_t i1 = i0 + 64 < n ? i0 + 64 : n;
        for (s = 0; s < m; s++) {
            for (i = i0; i < i1; i++) {
                uint64_t k = (uint64_t)strings[i * m + s]
                           ^ ((uint64_t)1 << 63);
                lo32[s * n + i] = (uint32_t)k;
                hi32[s * n + i] = (uint32_t)(k >> 32);
            }
        }
    }
    for (s = 0; s < m; s++)
        sigma[s] = rank_column(lo32 + s * n, hi32 + s * n, n, rank + s * n,
                               key, key2, ids, ids2, hist);
    int64_t *cnt = (int64_t *)key; /* sigma <= n counters */
    idx_t *a = ids, *b = ids2;
    for (i = 0; i < n; i++) a[i] = (idx_t)i;
    for (s = m - 1; s >= 0; s--) {
        idx_t *dst = s == 0 ? sorted_idx : b;
        sort_by_rank(a, dst, rank + s * n, n, sigma[s], cnt);
        b = a;
        a = dst;
    }
    for (s = m - 1; s >= 1; s--)
        sort_by_rank(sorted_idx + ((s + 1) % m) * n, sorted_idx + s * n,
                     rank + s * n, n, sigma[s], cnt);
    idx_t *inv = ids;
    for (s = 0; s < m; s++) {
        const idx_t *cur = sorted_idx + s * n;
        const idx_t *nxt = sorted_idx + ((s + 1) % m) * n;
        for (i = 0; i < n; i++) inv[nxt[i]] = (idx_t)i;
        for (i = 0; i < n; i++) next_link[s * n + i] = inv[cur[i]];
    }
    free(key);
    return 0;
}

/* Kernel 3a: fused gather-and-subtract for float64 verification.
   Query qi owns rows offsets[qi] .. offsets[qi+1]):
   out[r,:] = (double)data[ids[r],:] - queries[qi,:] — elementwise IEEE
   subtraction only; the reduction stays on the shared NumPy einsum.
   The store holds each value in the narrowest exact type (store: 0..5
   = uint8, int8, uint16, int16, float32, float64); widening an exact
   integer or a float32 to double is exact, so the differences are the
   float64 store's bit for bit.  One specialisation per store type. */
#define GATHER_DIFF(T) { \
    const T *rows = (const T *)data; \
    for (qi = 0; qi < Q; qi++) { \
        const double *b = queries + qi * d; \
        for (r = offsets[qi]; r < offsets[qi + 1]; r++) { \
            const T *a = rows + ids[r] * d; \
            double *o = out + r * d; \
            for (j = 0; j < d; j++) o[j] = (double)a[j] - b[j]; \
        } \
    } \
}
void repro_gather_diff(const void *data, int64_t store, int64_t d,
                       const int64_t *ids, const int64_t *offsets, int64_t Q,
                       const double *queries, double *out) {
    int64_t qi, r, j;
    switch (store) {
    case 0: GATHER_DIFF(uint8_t) break;
    case 1: GATHER_DIFF(int8_t) break;
    case 2: GATHER_DIFF(uint16_t) break;
    case 3: GATHER_DIFF(int16_t) break;
    case 4: GATHER_DIFF(float) break;
    default: GATHER_DIFF(double) break;
    }
}
#undef GATHER_DIFF

/* Kernel 3b: row-wise Hamming distance over bit-packed uint64 words. */
void repro_hamming_packed(const uint64_t *a, const uint64_t *b, int64_t rows,
                          int64_t words, double *out) {
    int64_t r, w;
    for (r = 0; r < rows; r++) {
        uint64_t c = 0;
        for (w = 0; w < words; w++)
            c += (uint64_t)__builtin_popcountll(a[r * words + w]
                                                ^ b[r * words + w]);
        out[r] = (double)c;
    }
}

/* Kernel 3c: per-segment top-k selection by ascending (dist, id) —
   the order np.lexsort((ids, dists)) produces for distinct pairs. */
void repro_topk_select(const double *dists, const int64_t *ids,
                       const int64_t *offsets, int64_t Q, int64_t k,
                       int64_t *out_ids, double *out_dists,
                       int64_t *out_cnt) {
    int64_t qi, i, j;
    for (qi = 0; qi < Q; qi++) {
        int64_t lo = offsets[qi], hi = offsets[qi + 1], cnt = 0;
        double *bd = out_dists + qi * k;
        int64_t *bi = out_ids + qi * k;
        for (i = lo; i < hi; i++) {
            double d = dists[i];
            int64_t id = ids[i];
            if (cnt == k) {
                double ld = bd[k - 1];
                if (!(d < ld || (d == ld && id < bi[k - 1]))) continue;
                cnt--;
            }
            j = cnt;
            while (j > 0 && (d < bd[j - 1]
                             || (d == bd[j - 1] && id < bi[j - 1]))) {
                bd[j] = bd[j - 1];
                bi[j] = bi[j - 1];
                j--;
            }
            bd[j] = d;
            bi[j] = id;
            cnt++;
        }
        out_cnt[qi] = cnt;
    }
}
"""

_P = ctypes.c_void_p
_L = ctypes.c_int64
#: the CSA's character codes, by width in bytes
_CODES = {w: np.dtype(f"u{w}") for w in (1, 2, 4, 8)}
#: the CSA's rank types (``sorted_idx`` / ``next_link``) the kernels read
_RANKS = (np.dtype(np.uint16), np.dtype(np.int32))


def _addr(arr: np.ndarray) -> int:
    """Address of a C-contiguous array's first byte, as a plain int.

    Through the buffer protocol (~0.35 us) rather than ``arr.ctypes``
    (~1.2 us: it builds a helper object per access); read-only and
    empty buffers, which ``from_buffer`` refuses, take the slow way.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


def _cache_dir() -> str:
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        root = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "repro-kernels",
        )
    return root


def _compile_library() -> str:
    """Compile (or reuse) the shared object; returns its path."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None:
        raise RuntimeError("no C compiler found (cc/gcc/clang)")
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src = os.path.join(tmp, "repro_kernels.c")
        with open(src, "w") as f:
            f.write(_C_SOURCE)
        out = os.path.join(tmp, "repro_kernels.so")
        base = [compiler, "-O3", "-fPIC", "-shared", "-std=c99", src, "-o", out]
        # -march=native helps popcount; retry without it for compilers
        # or targets that reject the flag.
        for cmd in (base[:1] + ["-march=native"] + base[1:], base):
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                break
        else:
            raise RuntimeError(
                f"kernel compilation failed ({compiler} exited "
                f"{proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        # Atomic publish: another process racing to the same path sees
        # either nothing or a complete library.
        os.replace(out, lib_path)
    return lib_path


def _load_library() -> ctypes.CDLL:
    lib = ctypes.CDLL(_compile_library())
    lib.repro_search_lanes.restype = None
    lib.repro_search_lanes.argtypes = [
        _P, _L, _P, _L, _L, _L, _L, _P, _P, _P, _P, _P, _P, _P, _P,
    ]
    lib.repro_search_all.restype = None
    lib.repro_search_all.argtypes = [
        _P, _L, _P, _P, _L, _L, _L, _L, _P, _P, _P, _P, _P,
    ]
    lib.repro_search_merge.restype = ctypes.c_int
    lib.repro_search_merge.argtypes = [
        _P, _L, _L, _P, _P, _L, _L, _L, _L, _L, _P, _L, _L, _L, _P, _P, _P,
        _P, _L, _P,
    ]
    lib.repro_encode.restype = None
    lib.repro_encode.argtypes = [_P, _L, _L, _L, _P]
    lib.repro_csa_build.restype = ctypes.c_int
    lib.repro_csa_build.argtypes = [_P, _L, _L, _P, _P]
    lib.repro_gather_diff.restype = None
    lib.repro_gather_diff.argtypes = [_P, _L, _L, _P, _P, _L, _P, _P]
    lib.repro_hamming_packed.restype = None
    lib.repro_hamming_packed.argtypes = [_P, _P, _L, _L, _P]
    lib.repro_topk_select.restype = None
    lib.repro_topk_select.argtypes = [_P, _P, _P, _L, _L, _P, _P, _P]
    return lib


class _AddressCache:
    """Addresses of long-lived arrays, remembered per array *object*.

    The kernels read the per-index constants — the CSA's ``doubled`` /
    ``sorted_idx`` / ``next_link`` and the data matrix — through raw
    pointers, so dtype and layout are checked here, once per array
    instead of once per call.  Entries are keyed on the array's identity
    and hold it only weakly: replace the array (fit, store growth,
    seal/compaction, unpickling, a copied index) and the next call takes
    the new object's address; drop it and its entry goes with it.
    Arrays are always pointed at in place — memory-mapped bundles
    included; one the kernels cannot read as it is (``CircularShiftArray
    .from_arrays`` and the verification path admit none) is a
    ``TypeError``, never a silent private copy.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, tuple] = {}

    def of(self, arr: np.ndarray, dtype) -> int:
        key = id(arr)
        hit = self._by_id.get(key)
        if hit is not None and hit[0]() is arr:
            return hit[1]
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise TypeError(
                f"the kernels read C-contiguous {np.dtype(dtype)} in place, "
                f"got {'' if arr.flags.c_contiguous else 'strided '}{arr.dtype}"
            )
        addr = arr.ctypes.data
        forget = weakref.ref(arr, lambda _ref: self._by_id.pop(key, None))
        self._by_id[key] = (forget, addr)
        return addr


class _SeenScratch(threading.local):
    """Per-thread seen-epoch table of the merge kernels.

    Query ``qi`` of a call marks string ``sid`` by writing its own epoch
    into ``table[sid]``; epochs only grow within a thread, so the table
    is zeroed when it is (re)allocated or the int32 epochs run out —
    not once per call, which would cost a lone query an ``O(n)`` clear.
    """

    _EPOCH_LIMIT = 2**31 - 1

    def __init__(self) -> None:
        self.table = np.zeros(0, dtype=np.int32)
        self.addr = 0
        self.epoch = 0

    def reserve(self, n: int, queries: int) -> Tuple[int, int]:
        """``(table address, epoch base)`` for ``queries`` merges over
        ``n`` strings; the kernels use epochs ``base + 1 .. base + queries``."""
        if len(self.table) < n or self.epoch + queries >= self._EPOCH_LIMIT:
            self.table = np.zeros(max(n, len(self.table)), dtype=np.int32)
            self.addr = self.table.ctypes.data
            self.epoch = 0
        base = self.epoch
        self.epoch += queries
        return self.addr, base


class CExtBackend:
    """ctypes facade over the compiled kernels."""

    name = "cext"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._seen = _SeenScratch()
        self._addresses = _AddressCache()

    def _csa_pointers(self, csa) -> Tuple[int, int, int, int]:
        """``(doubled, sorted_idx, next_link, rank width)`` as the kernels
        read them: ``uint{8 width}`` codes, and uint16 or int32 ranks
        (2 or 4 bytes), both rank arrays alike."""
        if csa.n >= 2**31:
            raise OverflowError("the C kernels index strings with int32 ranks")
        ranks = csa.sorted_idx.dtype
        if ranks not in _RANKS:
            raise TypeError(f"the kernels read uint16 or int32 ranks, got {ranks}")
        of = self._addresses.of
        return (
            of(csa._doubled, _CODES[csa.width]),
            of(csa.sorted_idx, ranks),
            of(csa.next_link, ranks),
            ranks.itemsize,
        )

    # -- CSA kernels ---------------------------------------------------

    def search_lanes(
        self,
        csa,
        shifts: np.ndarray,
        q_rots: np.ndarray,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Independent windowed bisections of ``(B, m)`` query codes."""
        doubled, sorted_idx, _, ranks = self._csa_pointers(csa)
        B = len(shifts)
        n = csa.n
        shifts = np.ascontiguousarray(shifts, dtype=np.int64)
        q_rots = self._codes(csa, q_rots)
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
        out = np.empty((4, B), dtype=np.int64)
        base, step = _addr(out), 8 * B
        self._lib.repro_search_lanes(
            doubled, csa.width, sorted_idx, ranks, n, csa.m, B, _addr(shifts),
            _addr(q_rots), _addr(lo), _addr(hi), base, base + step,
            base + 2 * step, base + 3 * step,
        )
        return out[0], out[1], out[2], out[3]

    def search_all(
        self, csa, qds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Phase 1 for ``(Q, 2m)`` doubled query codes."""
        doubled, sorted_idx, next_link, ranks = self._csa_pointers(csa)
        Q = len(qds)
        n, m = csa.n, csa.m
        qds = self._codes(csa, qds)
        out = np.empty((4, Q, m), dtype=np.int64)
        base, step = _addr(out), 8 * Q * m
        self._lib.repro_search_all(
            doubled, csa.width, sorted_idx, next_link, ranks, n, m, Q,
            _addr(qds), base, base + step, base + 2 * step, base + 3 * step,
        )
        return out[0], out[1], out[2], out[3]

    def search_merge(
        self,
        csa,
        queries: np.ndarray,
        k: int,
        key_shifts: Tuple[int, int, int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Search and merge in one call: ``(flat_ids, flat_lens, offsets,
        search_s)``.

        ``queries`` are raw int64 hash strings: the kernel encodes them
        against the CSA's offset, so a lone query pays no NumPy pass.
        Query ``qi``'s k-LCCS candidates and their LCCS lengths are
        ``flat_*[offsets[qi]:offsets[qi + 1]]`` — the form verification
        consumes, so nothing is split per query and re-joined.
        ``search_s`` is the time the kernel spent in phase 1 (the rest of
        the call is the merge).
        """
        doubled, sorted_idx, next_link, ranks = self._csa_pointers(csa)
        queries = np.ascontiguousarray(queries, dtype=np.int64)
        Q = len(queries)
        n, m = csa.n, csa.m
        sh_shift, sh_sid, sh_len = key_shifts
        cap = Q * min(k, n)
        out_ids = np.empty(cap, dtype=np.int64)
        out_lens = np.empty(cap, dtype=np.int64)
        offsets = np.empty(Q + 1, dtype=np.int64)
        search_s = ctypes.c_double()
        seen, epoch = self._seen.reserve(n, Q)
        if self._lib.repro_search_merge(
            doubled, csa.width, csa.offset, sorted_idx, next_link, ranks, n, m,
            Q, k,
            _addr(queries), sh_shift, sh_sid, sh_len, _addr(out_ids),
            _addr(out_lens), _addr(offsets), seen, epoch,
            ctypes.byref(search_s),
        ):
            raise MemoryError("search kernel: cannot allocate scratch")
        total = offsets[Q]
        return out_ids[:total], out_lens[:total], offsets, search_s.value

    @staticmethod
    def _codes(csa, arr: np.ndarray) -> np.ndarray:
        """``arr`` as C-contiguous codes of ``csa``'s width; a raw int64
        string would be truncated, not encoded, so it is refused."""
        arr = np.ascontiguousarray(arr)
        if arr.dtype != _CODES[csa.width]:
            raise TypeError(
                f"expected {_CODES[csa.width]} query codes, got {arr.dtype}"
            )
        return arr

    def encode(self, values: np.ndarray, offset: int, width: int) -> np.ndarray:
        """The C encoder ``search_merge`` applies to its queries, exposed
        so tests can pin it to ``CircularShiftArray.encode``."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        out = np.empty(values.shape, dtype=_CODES[width])
        self._lib.repro_encode(
            _addr(values), values.size, offset, width, _addr(out)
        )
        return out

    # -- CSA build -----------------------------------------------------

    def csa_build(self, strings: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted_idx, next_link)`` of ``(n, m)`` int64 ``strings``
        (``n < 2**31``) as ``rank_dtype(n)``: byte-identical to
        ``CircularShiftArray._build``, which ranks the codes of the same
        strings (codes order as the values do).  The C build works in
        int32; the narrow copy replaces it before this returns."""
        n, m = strings.shape
        if not (0 < n < 2**31 and m > 0):
            raise ValueError(f"cannot build a CSA of shape {strings.shape}")
        strings = np.ascontiguousarray(strings, dtype=np.int64)
        sorted_idx = np.empty((m, n), dtype=np.int32)
        next_link = np.empty((m, n), dtype=np.int32)
        if self._lib.repro_csa_build(
            strings.ctypes.data, n, m,
            _addr(sorted_idx), _addr(next_link),
        ):
            raise MemoryError("CSA build: cannot allocate scratch")
        ranks = rank_dtype(n)
        return (
            sorted_idx.astype(ranks, copy=False),
            next_link.astype(ranks, copy=False),
        )

    # -- verification kernels ------------------------------------------

    def gather_diff(
        self,
        data: np.ndarray,
        flat_ids: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
    ) -> np.ndarray:
        """``data[flat_ids] - queries[owner]`` in float64, without the
        NumPy temps; query ``qi`` owns rows ``offsets[qi]:offsets[qi + 1]``
        and ``data`` is a store of any of the ``STORE_DTYPES``."""
        dim = data.shape[1]
        if data.dtype not in STORE_DTYPES:
            raise TypeError(f"no store type {data.dtype}")
        flat_ids = np.ascontiguousarray(flat_ids, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        out = np.empty((len(flat_ids), dim), dtype=np.float64)
        self._lib.repro_gather_diff(
            self._addresses.of(data, data.dtype),
            STORE_DTYPES.index(data.dtype), dim, _addr(flat_ids),
            _addr(offsets),
            len(offsets) - 1, _addr(queries), _addr(out),
        )
        return out

    def hamming_packed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.uint64)
        b = np.ascontiguousarray(b, dtype=np.uint64)
        out = np.empty(len(a), dtype=np.float64)
        self._lib.repro_hamming_packed(
            _addr(a), _addr(b), len(a), a.shape[1], _addr(out)
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
        self._lib.repro_topk_select(
            _addr(flat_dists), _addr(flat_ids), _addr(offsets), Q, k,
            _addr(out_ids), _addr(out_dists), _addr(out_cnt),
        )
        return [
            (out_ids[qi, : out_cnt[qi]].copy(), out_dists[qi, : out_cnt[qi]].copy())
            for qi in range(Q)
        ]

