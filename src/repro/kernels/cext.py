"""C kernel backend: compiled on first use, loaded through ``ctypes``.

Same algorithms as :mod:`repro.kernels.reference` expressed as plain
C99 loops.  The source below is compiled once per machine with the
system C compiler (``cc``/``gcc``/``clang``, whichever answers) into a
shared object cached under ``~/.cache/repro-kernels/`` keyed by a hash
of the source, so subsequent imports pay only a ``dlopen``.  No build
step, no new dependency: when no compiler is present the backend
reports itself unavailable and the registry falls back to NumPy.

Byte-identity notes (why the C loops cannot diverge):

* the CSA kernels compare and copy **int64 hash characters** only —
  integer comparisons have one answer on every platform;
* the merge orders walks by the same packed ``(-lcp, sid, shift,
  rank)`` int64 keys the reference builds, decoded back from the key;
* verification never re-computes float distances: ``gather_diff`` only
  performs the IEEE-exact elementwise subtraction (the reduction stays
  on the shared NumPy ``einsum``), ``topk_select`` only *compares*
  float64 values produced by the shared kernels, and the popcount path
  is integer-exact.  The whole file is compiled without
  ``-ffast-math``; there is no floating-point arithmetic to contract.

Call cost (what makes a batch of one cheap): every pointer crosses as a
plain integer address (``c_void_p`` argtypes — ``ndarray.ctypes.data_as``
costs ~2.3 us per array, a third of a lone query).  The addresses of the
per-index constant arrays are remembered per array *object*
(:class:`_AddressCache`) and so re-taken whenever one is replaced: fit,
store growth, seal/compaction and unpickling all invalidate them by
construction.
``sorted_idx``/``next_link`` are read as the int32 the CSA build emits:
no widened copy.  Search and merge share one entry point
(``repro_search_merge``) so the four ``(Q, m)`` bound arrays never leave
C.

Reentrancy: parallel readers behind ``ConcurrentIndex`` run these
kernels concurrently — ``ctypes`` drops the GIL for the duration of each
call.  Heaps and bounds are ``malloc``'d per call inside C; the one
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

__all__ = ["make_cext_backend", "CExtBackend"]

_C_SOURCE = r"""
#define _POSIX_C_SOURCE 200112L
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* sorted_idx / next_link element: the CSA build emits int32 (n < 2^31) */
typedef int32_t idx_t;

static int64_t clip64(int64_t v, int64_t lo, int64_t hi) {
    return v < lo ? lo : (v > hi ? hi : v);
}

static double now_s(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Lexicographic compare of a stored rotation against a rotated query.
   Returns -1/0/+1; *lcp gets the first-mismatch index (m when equal). */
static int cmp_rot(const int64_t *row, const int64_t *q, int64_t m,
                   int64_t *lcp) {
    int64_t j;
    for (j = 0; j < m; j++) {
        if (row[j] != q[j]) {
            if (lcp) *lcp = j;
            return row[j] < q[j] ? -1 : 1;
        }
    }
    if (lcp) *lcp = m;
    return 0;
}

static void search_one(const int64_t *doubled, const idx_t *idxs,
                       int64_t n, int64_t m, int64_t s, const int64_t *q,
                       int64_t lo, int64_t hi, int64_t *pl, int64_t *pu,
                       int64_t *ll, int64_t *lu) {
    int64_t two_m = 2 * m;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        const int64_t *row = doubled + (int64_t)idxs[mid] * two_m + s;
        if (cmp_rot(row, q, m, 0) <= 0) lo = mid + 1; else hi = mid;
    }
    *pu = lo;
    *pl = lo - 1;
    *ll = 0;
    *lu = 0;
    if (*pl >= 0)
        cmp_rot(doubled + (int64_t)idxs[*pl] * two_m + s, q, m, ll);
    if (*pu < n)
        cmp_rot(doubled + (int64_t)idxs[*pu] * two_m + s, q, m, lu);
}

/* Kernel 1a: independent windowed bisections (the multi-probe lanes). */
void repro_search_lanes(const int64_t *doubled, const idx_t *sorted_idx,
                        int64_t n, int64_t m, int64_t B,
                        const int64_t *shifts, const int64_t *q_rots,
                        const int64_t *lo_in, const int64_t *hi_in,
                        int64_t *pos_lower, int64_t *pos_upper,
                        int64_t *len_lower, int64_t *len_upper) {
    int64_t b;
    for (b = 0; b < B; b++) {
        int64_t s = shifts[b];
        search_one(doubled, sorted_idx + s * n, n, m, s, q_rots + b * m,
                   lo_in[b], hi_in[b], pos_lower + b, pos_upper + b,
                   len_lower + b, len_upper + b);
    }
}

/* Phase 1 of Algorithm 2 for one doubled query, with Lemma 3.1
   windowing through the next links. */
static void search_query(const int64_t *doubled, const idx_t *sorted_idx,
                         const idx_t *next_link, int64_t n, int64_t m,
                         const int64_t *qd, int64_t *pl, int64_t *pu,
                         int64_t *ll, int64_t *lu) {
    int64_t s;
    for (s = 0; s < m; s++) {
        int64_t lo = 0, hi = n;
        if (s > 0 && ll[s - 1] >= 1 && lu[s - 1] >= 1) {
            const idx_t *nl = next_link + (s - 1) * n;
            int64_t wlo = nl[clip64(pl[s - 1], 0, n - 1)];
            int64_t whi = nl[clip64(pu[s - 1], 0, n - 1)];
            if (wlo > whi) { wlo = 0; whi = n - 1; } /* defensive */
            lo = wlo;
            hi = whi + 1;
        }
        search_one(doubled, sorted_idx + s * n, n, m, s, qd + s, lo, hi,
                   pl + s, pu + s, ll + s, lu + s);
    }
}

/* Kernel 1b: phase 1 for a whole batch, bounds returned as (Q, m). */
void repro_search_all(const int64_t *doubled, const idx_t *sorted_idx,
                      const idx_t *next_link, int64_t n, int64_t m,
                      int64_t Q, const int64_t *qds, int64_t *pos_lower,
                      int64_t *pos_upper, int64_t *len_lower,
                      int64_t *len_upper) {
    int64_t qi;
    for (qi = 0; qi < Q; qi++)
        search_query(doubled, sorted_idx, next_link, n, m, qds + qi * 2 * m,
                     pos_lower + qi * m, pos_upper + qi * m,
                     len_lower + qi * m, len_upper + qi * m);
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
static int64_t merge_query(const int64_t *doubled, const idx_t *sorted_idx,
                           int64_t n, int64_t m, int64_t kcap,
                           const int64_t *qd, const int64_t *pos_lower,
                           const int64_t *pos_upper, const int64_t *len_lower,
                           const int64_t *len_upper, int64_t sh_shift,
                           int64_t sh_sid, int64_t sh_len, int64_t *out_ids,
                           int64_t *out_lens, uint64_t *hkey, int32_t *hdir,
                           int32_t *seen_epoch, int32_t epoch) {
    uint64_t mask_pos = (((uint64_t)1) << sh_shift) - 1;
    uint64_t mask_shift = (((uint64_t)1) << (sh_sid - sh_shift)) - 1;
    uint64_t mask_sid = (((uint64_t)1) << (sh_len - sh_sid)) - 1;
    int64_t two_m = 2 * m;
    int64_t hs = 0, cnt = 0, s;
    for (s = 0; s < m; s++) {
        int64_t pl = pos_lower[s];
        int64_t pu = pos_upper[s];
        if (pl >= 0) {
            uint64_t sid = (uint64_t)sorted_idx[s * n + pl];
            uint64_t key = ((uint64_t)(m - len_lower[s]) << sh_len)
                         | (sid << sh_sid)
                         | ((uint64_t)s << sh_shift) | (uint64_t)pl;
            hkey[hs] = key; hdir[hs] = -1; sift_up(hkey, hdir, hs); hs++;
        }
        if (pu < n) {
            uint64_t sid = (uint64_t)sorted_idx[s * n + pu];
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
            int64_t nsid = sorted_idx[sh * n + npos];
            const int64_t *row = doubled + nsid * two_m + sh;
            const int64_t *q = qd + sh;
            int64_t nlen = m, j;
            for (j = 0; j < m; j++) {
                if (row[j] != q[j]) { nlen = j; break; }
            }
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

/* Kernel 2: the merge alone, from (Q, m) bounds the caller holds (the
   multi-probe scheme inspects them between search and merge).  Query qi
   marks seen strings with epoch_base + qi + 1.  Returns -1 when the
   heap scratch cannot be allocated. */
int repro_merge_tournament(const int64_t *doubled, const idx_t *sorted_idx,
                           int64_t n, int64_t m, int64_t Q, int64_t k,
                           const int64_t *qd_table, const int64_t *pos_lower,
                           const int64_t *pos_upper, const int64_t *len_lower,
                           const int64_t *len_upper, int64_t sh_shift,
                           int64_t sh_sid, int64_t sh_len, int64_t *out_ids,
                           int64_t *out_lens, int64_t *out_cnt,
                           int32_t *seen_epoch, int64_t epoch_base) {
    int64_t kcap = k < n ? k : n;
    int64_t qi;
    uint64_t *hkey = (uint64_t *)malloc((size_t)(2 * m) * 12);
    if (!hkey) return -1;
    int32_t *hdir = (int32_t *)(hkey + 2 * m);
    for (qi = 0; qi < Q; qi++)
        out_cnt[qi] = merge_query(
            doubled, sorted_idx, n, m, kcap, qd_table + qi * 2 * m,
            pos_lower + qi * m, pos_upper + qi * m, len_lower + qi * m,
            len_upper + qi * m, sh_shift, sh_sid, sh_len,
            out_ids + qi * kcap, out_lens + qi * kcap, hkey, hdir,
            seen_epoch, (int32_t)(epoch_base + qi + 1));
    free(hkey);
    return 0;
}

/* Kernels 1b + 2 behind one entry point: k-LCCS search for a batch of
   (undoubled) query strings.  Bounds, the doubled query and the heap
   live in one per-call allocation and never cross the boundary.
   Candidates are written back to back: query qi's ids and LCCS lengths
   are out_*[offsets[qi] .. offsets[qi+1]).  *search_s accumulates the
   seconds spent in phase 1, so callers can still attribute the two
   stages.  Returns -1 when the scratch cannot be allocated. */
int repro_search_merge(const int64_t *doubled, const idx_t *sorted_idx,
                       const idx_t *next_link, int64_t n, int64_t m,
                       int64_t Q, int64_t k, const int64_t *queries,
                       int64_t sh_shift, int64_t sh_sid, int64_t sh_len,
                       int64_t *out_ids, int64_t *out_lens, int64_t *offsets,
                       int32_t *seen_epoch, int64_t epoch_base,
                       double *search_s) {
    int64_t kcap = k < n ? k : n;
    int64_t qi;
    /* 8m int64: qd (2m), four bounds (m each), hkey (2m); then hdir */
    int64_t *work = (int64_t *)malloc((size_t)m * (8 * 8 + 2 * 4));
    double spent = 0.0;
    if (!work) return -1;
    int64_t *qd = work, *pl = work + 2 * m, *pu = pl + m, *ll = pu + m,
            *lu = ll + m;
    uint64_t *hkey = (uint64_t *)(lu + m);
    int32_t *hdir = (int32_t *)(hkey + 2 * m);
    offsets[0] = 0;
    for (qi = 0; qi < Q; qi++) {
        double t0 = now_s();
        memcpy(qd, queries + qi * m, (size_t)m * 8);
        memcpy(qd + m, queries + qi * m, (size_t)m * 8);
        search_query(doubled, sorted_idx, next_link, n, m, qd, pl, pu, ll, lu);
        spent += now_s() - t0;
        offsets[qi + 1] = offsets[qi] + merge_query(
            doubled, sorted_idx, n, m, kcap, qd, pl, pu, ll, lu, sh_shift,
            sh_sid, sh_len, out_ids + offsets[qi], out_lens + offsets[qi],
            hkey, hdir, seen_epoch, (int32_t)(epoch_base + qi + 1));
    }
    free(work);
    *search_s = spent;
    return 0;
}

/* Kernel 3a: fused gather-and-subtract for float64 verification.
   Query qi owns rows offsets[qi] .. offsets[qi+1]):
   out[r,:] = data[ids[r],:] - queries[qi,:] — elementwise IEEE
   subtraction only; the reduction stays on the shared NumPy einsum. */
void repro_gather_diff(const double *data, int64_t d, const int64_t *ids,
                       const int64_t *offsets, int64_t Q,
                       const double *queries, double *out) {
    int64_t qi, r, j;
    for (qi = 0; qi < Q; qi++) {
        const double *b = queries + qi * d;
        for (r = offsets[qi]; r < offsets[qi + 1]; r++) {
            const double *a = data + ids[r] * d;
            double *o = out + r * d;
            for (j = 0; j < d; j++) o[j] = a[j] - b[j];
        }
    }
}

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
                f"kernel compilation failed: {proc.stderr.strip()[:500]}"
            )
        # Atomic publish: another process racing to the same path sees
        # either nothing or a complete library.
        os.replace(out, lib_path)
    return lib_path


def _load_library() -> ctypes.CDLL:
    lib = ctypes.CDLL(_compile_library())
    lib.repro_search_lanes.restype = None
    lib.repro_search_lanes.argtypes = [
        _P, _P, _L, _L, _L, _P, _P, _P, _P, _P, _P, _P, _P,
    ]
    lib.repro_search_all.restype = None
    lib.repro_search_all.argtypes = [
        _P, _P, _P, _L, _L, _L, _P, _P, _P, _P, _P,
    ]
    lib.repro_merge_tournament.restype = ctypes.c_int
    lib.repro_merge_tournament.argtypes = [
        _P, _P, _L, _L, _L, _L, _P, _P, _P, _P, _P,
        _L, _L, _L, _P, _P, _P, _P, _L,
    ]
    lib.repro_search_merge.restype = ctypes.c_int
    lib.repro_search_merge.argtypes = [
        _P, _P, _P, _L, _L, _L, _L, _P, _L, _L, _L, _P, _P, _P, _P, _L, _P,
    ]
    lib.repro_gather_diff.restype = None
    lib.repro_gather_diff.argtypes = [_P, _L, _P, _P, _L, _P, _P]
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
    the new object's address; drop it and its entry goes with it.  An
    array that already complies — everything the build emits,
    memory-mapped bundles included — is pointed at in place; anything
    else gets one converted copy, which its entry keeps alive.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, tuple] = {}

    def of(self, arr: np.ndarray, dtype) -> int:
        key = id(arr)
        hit = self._by_id.get(key)
        if hit is not None and hit[0]() is arr:
            return hit[1]
        held = None  # nothing but the weak reference may keep ``arr`` alive
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            held = np.ascontiguousarray(arr, dtype=dtype)
        addr = (arr if held is None else held).ctypes.data
        forget = weakref.ref(arr, lambda _ref: self._by_id.pop(key, None))
        self._by_id[key] = (forget, addr, held)
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
    compiled = True

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._seen = _SeenScratch()
        self._addresses = _AddressCache()

    def _csa_pointers(self, csa) -> Tuple[int, int, int]:
        """``(doubled, sorted_idx, next_link)`` as the kernels read them:
        int64 characters, int32 ranks (what the CSA build emits)."""
        if csa.n >= 2**31:
            raise OverflowError("the C kernels index strings with int32 ranks")
        of = self._addresses.of
        return (
            of(csa._doubled, np.int64),
            of(csa.sorted_idx, np.int32),
            of(csa.next_link, np.int32),
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
        doubled, sorted_idx, _ = self._csa_pointers(csa)
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
        out = np.empty((4, B), dtype=np.int64)
        base, step = _addr(out), 8 * B
        self._lib.repro_search_lanes(
            doubled, sorted_idx, n, csa.m, B, _addr(shifts), _addr(q_rots),
            _addr(lo), _addr(hi), base, base + step, base + 2 * step,
            base + 3 * step,
        )
        return out[0], out[1], out[2], out[3]

    def search_all(
        self, csa, qds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        doubled, sorted_idx, next_link = self._csa_pointers(csa)
        Q = len(qds)
        n, m = csa.n, csa.m
        qds = np.ascontiguousarray(qds, dtype=np.int64)
        out = np.empty((4, Q, m), dtype=np.int64)
        base, step = _addr(out), 8 * Q * m
        self._lib.repro_search_all(
            doubled, sorted_idx, next_link, n, m, Q, _addr(qds),
            base, base + step, base + 2 * step, base + 3 * step,
        )
        return out[0], out[1], out[2], out[3]

    def merge_tournament(
        self,
        csa,
        qd_table: np.ndarray,
        bounds_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        k: int,
        key_shifts: Tuple[int, int, int],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        doubled, sorted_idx, _ = self._csa_pointers(csa)
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
        seen, epoch = self._seen.reserve(n, Q)
        if self._lib.repro_merge_tournament(
            doubled, sorted_idx, n, m, Q, k, _addr(qd_table),
            _addr(pos_lower), _addr(pos_upper), _addr(len_lower),
            _addr(len_upper), sh_shift, sh_sid, sh_len, _addr(out_ids),
            _addr(out_lens), _addr(out_cnt), seen, epoch,
        ):
            raise MemoryError("merge kernel: cannot allocate heap scratch")
        return [
            (out_ids[qi, : out_cnt[qi]].copy(), out_lens[qi, : out_cnt[qi]].copy())
            for qi in range(Q)
        ]

    def search_merge(
        self,
        csa,
        queries: np.ndarray,
        k: int,
        key_shifts: Tuple[int, int, int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Search and merge in one call: ``(flat_ids, flat_lens, offsets,
        search_s)``.

        Query ``qi``'s k-LCCS candidates and their LCCS lengths are
        ``flat_*[offsets[qi]:offsets[qi + 1]]`` — the form verification
        consumes, so nothing is split per query and re-joined.
        ``search_s`` is the time the kernel spent in phase 1 (the rest of
        the call is the merge).
        """
        doubled, sorted_idx, next_link = self._csa_pointers(csa)
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
            doubled, sorted_idx, next_link, n, m, Q, k, _addr(queries),
            sh_shift, sh_sid, sh_len, _addr(out_ids), _addr(out_lens),
            _addr(offsets), seen, epoch, ctypes.byref(search_s),
        ):
            raise MemoryError("search kernel: cannot allocate scratch")
        total = offsets[Q]
        return out_ids[:total], out_lens[:total], offsets, search_s.value

    # -- verification kernels ------------------------------------------

    def gather_diff(
        self,
        data: np.ndarray,
        flat_ids: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
    ) -> np.ndarray:
        """``data[flat_ids] - queries[owner]`` without the NumPy temps;
        query ``qi`` owns rows ``offsets[qi]:offsets[qi + 1]``."""
        dim = data.shape[1]
        flat_ids = np.ascontiguousarray(flat_ids, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        out = np.empty((len(flat_ids), dim), dtype=np.float64)
        self._lib.repro_gather_diff(
            self._addresses.of(data, np.float64), dim, _addr(flat_ids),
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


def make_cext_backend(reasons: Dict[str, str]) -> Optional[CExtBackend]:
    """Build (compile + dlopen) the backend; None and a reason on failure."""
    try:
        return CExtBackend(_load_library())
    except Exception as exc:  # compiler missing, compile error, bad dlopen
        reasons["cext"] = f"{type(exc).__name__}: {exc}"
        return None
