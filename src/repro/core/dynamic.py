"""Dynamic wrapper around LCCS-LSH: an LSM-tiered incremental index.

The CSA is a static structure (sorted arrays + next links), like the
suffix array it derives from.  Real database deployments still need
updates, so this wrapper applies the LSM recipe on top of it:

* **inserts** land in a small writable *memtable* (an unindexed pending
  buffer that queries scan linearly, exact — fresh points are never
  missed);
* when the memtable outgrows its budget it is **sealed** into an
  immutable segment — a static :class:`LCCSLSH` built over just the
  sealed rows, so the seal costs ``O(|memtable|)``, not ``O(n)``;
* **deletes** are tombstones filtered out of every result;
* queries fan out across the memtable and every sealed segment and
  merge in the canonical ``(distance, handle)`` order — ascending
  distance, ties by ascending handle — so under candidate saturation
  results are byte-identical to a single index built over the whole
  live set;
* segments are **size-tiered** (:func:`repro.core.segments.merge_range`):
  a seal merges the newest segments while the one before them is under
  twice their rows, so the stack stays ``O(log(n / memtable))`` deep and
  the big base is rewritten only once the data beside it rivals it.
  Every merge runs on the write path, at the op where the policy calls
  for it, so the tier shape is a function of the op sequence alone:
  crash recovery and log-tailing replicas replay the same merges, and
  only the manual ``flush()``/``compact()`` go through the WAL
  (``seal``/``compact`` records).

This is an extension beyond the paper (which evaluates static indexes);
it exercises the same public machinery and shows the cost model: queries
pay ``O(|memtable| * d)`` plus one CSA probe per segment, and a write
costs what was written — ``O(log)`` rebuilds per sealed row, never O(n).

**Interleaving discipline.**  All of the segment/memtable/tombstone
bookkeeping lives in one :class:`_DynState` object published with a
single attribute store, and every structural change (seal, compaction,
full rebuild) *builds the new tier first* and swaps the state last — so
at no instant does the index pass through a state where buffered points
are invisible or handle translation mixes epochs (the hazard
``tests/test_dynamic_hazards.py`` pins down with a mid-rebuild query).
Queries snapshot the state once at entry.  This makes single mutator /
reentrant-read interleavings safe by construction; for genuinely
concurrent readers and writers, wrap the index in
:class:`repro.serve.ConcurrentIndex`, which serializes writes against
reads (this class on its own is **not** thread-safe: e.g. two racing
``insert`` calls may assign the same handle).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.base import ANNIndex, widened
from repro.core.lccs_lsh import LCCSLSH, check_probes
from repro.core.segments import Segment, merge_range, merge_segments
from repro.core.store import check_store, narrow_store, widen_for
from repro.distances import pairwise, pairwise_rows
from repro.obs.tracing import span as obs_span

__all__ = ["DynamicLCCSLSH"]


def _observe_structural(kind: str, duration_s: float) -> None:
    """Record one structural op in the duration-by-kind histogram.

    Imported lazily so the core index never forces the registry module;
    never allowed to break the write path.
    """
    try:
        from repro.obs.metrics import get_registry

        get_registry().histogram(
            "repro_compaction_seconds",
            "LSM structural-op duration by kind (seconds)",
        ).observe(duration_s, kind=kind)
    except Exception:
        pass


class _DynState:
    """One epoch of index state: segments + memtable + tombstones.

    A structural change replaces the whole object in a single attribute
    store (no in-place clearing), so any reader that grabbed a reference
    keeps a fully consistent pre-change view.  Between swaps the only
    mutations are ``buffer.append``/``buffer_set.add`` and ``dead.add``
    — each atomic under CPython — applied strictly after the backing row
    is written.
    """

    __slots__ = ("segments", "buffer", "buffer_set", "dead")

    def __init__(
        self,
        segments: Tuple[Segment, ...],
        buffer: List[int],
        buffer_set: set,
        dead: set,
    ):
        self.segments = segments
        self.buffer = buffer
        self.buffer_set = buffer_set
        self.dead = dead


class DynamicLCCSLSH(ANNIndex):
    """LCCS-LSH with insert/delete support via LSM tiers.

    Args:
        rebuild_threshold: seal the memtable when it exceeds this
            fraction of the indexed (segment) rows (default 0.2).
        memtable_size: absolute memtable row budget; when given it
            replaces the relative ``rebuild_threshold`` seal rule.
        max_segments: hard cap on the sealed segment count (default 4);
            the size-tiered policy merges further than its 2x rule asks
            when the stack would otherwise exceed it.
        (other arguments forwarded to :class:`LCCSLSH`)

    Queries take :class:`LCCSLSH`'s ``num_candidates`` and ``n_probes``
    and forward them to every sealed segment.

    Point ids are *stable handles*: the id returned by :meth:`insert`
    (and used by :meth:`delete`) always refers to the same vector,
    across seals and compactions.

    Not thread-safe by itself — wrap in
    :class:`repro.serve.ConcurrentIndex` for concurrent serving.
    """

    name = "Dynamic-LCCS-LSH"

    def __init__(
        self,
        dim: int,
        m: int = 64,
        metric: str = "euclidean",
        rebuild_threshold: float = 0.2,
        memtable_size: Optional[int] = None,
        max_segments: int = 4,
        **lccs_kwargs,
    ):
        super().__init__(dim, metric, lccs_kwargs.get("seed"))
        if not 0.0 < rebuild_threshold <= 1.0:
            raise ValueError("rebuild_threshold must be in (0, 1]")
        if memtable_size is not None and int(memtable_size) < 1:
            raise ValueError("memtable_size must be >= 1")
        if int(max_segments) < 1:
            raise ValueError("max_segments must be >= 1")
        self.rebuild_threshold = float(rebuild_threshold)
        self.memtable_size = None if memtable_size is None else int(memtable_size)
        self.max_segments = int(max_segments)
        kernels.check_backend(lccs_kwargs.pop("backend", None))
        self._lccs_kwargs = dict(lccs_kwargs)
        self._m = int(m)
        #: the current epoch (segments + bookkeeping), swapped atomically
        self._state = _DynState((), [], set(), set())
        # All ever-inserted rows live in ``_store[:_size]``; the store
        # grows by doubling so n inserts cost O(n) amortised copies
        # instead of the O(n^2) of per-insert vstack.
        self._store: Optional[np.ndarray] = None
        self._size = 0
        #: epoch publishes (fit, seals, compactions, full rebuilds)
        self.rebuilds = 0
        #: memtable seals (each builds one small segment)
        self.seals = 0
        #: segment merges committed (live or replayed)
        self.compactions = 0
        #: rows indexed by seals, merges and GC rebuilds since fit
        self.rows_rebuilt = 0
        #: total write-path seconds spent in structural ops (seal /
        #: compaction / rebuild) and the most recent one's cost —
        #: the stall the LSM design exists to bound (fit is not one)
        self.compaction_time_s = 0.0
        self.last_compaction_s = 0.0
        #: structural-op listener — DurableIndex registers one so seals
        #: and compactions are logged *before* the epoch swap
        self._listener = None
        #: set while replaying WAL records: listener notifications are
        #: suppressed (the records being replayed are already logged)
        self._replaying = False

    # ------------------------------------------------------------------
    # Epoch-state accessors (kept for persistence and inspection; always
    # read them through one `state = self._state` snapshot in hot paths)
    # ------------------------------------------------------------------

    @property
    def _dead(self) -> set:
        return self._state.dead

    @property
    def _vectors(self) -> Optional[np.ndarray]:
        """View of every ever-inserted row (the live prefix of the store)."""
        if self._store is None:
            return None
        return self._store[: self._size]

    @property
    def live_count(self) -> int:
        """Number of queryable (non-deleted) points."""
        state = self._state
        total = sum(seg.n for seg in state.segments) + len(state.buffer)
        return total - len(state.dead)

    @property
    def buffer_size(self) -> int:
        return len(self._state.buffer)

    @property
    def segment_count(self) -> int:
        return len(self._state.segments)

    def tier_stats(self) -> dict:
        """JSON-safe snapshot of the LSM tier shape and its counters."""
        state = self._state
        return {
            "segments": len(state.segments),
            "segment_rows": [int(seg.n) for seg in state.segments],
            "memtable": len(state.buffer),
            "tombstones": len(state.dead),
            "memtable_budget": self.memtable_size,
            "max_segments": self.max_segments,
            "seals": int(self.seals),
            "compactions": int(self.compactions),
            "rows_rebuilt": int(self.rows_rebuilt),
            "rebuilds": int(self.rebuilds),
            "compaction_time_s": float(self.compaction_time_s),
            "last_compaction_s": float(self.last_compaction_s),
        }

    def set_structural_listener(self, listener) -> None:
        """Register ``listener(kind, payload)`` for seal/compact events.

        Called *before* the corresponding epoch swap, on the write path,
        so a durability wrapper can append the WAL record first
        (log-then-apply).  ``kind`` is ``"seal"`` (payload: store size at
        the seal point) or ``"compact"`` (payload: ``(start, stop,
        dropped)`` — the range of the segment stack merged and the
        tombstoned handles the merge excluded).
        """
        self._listener = listener

    @property
    def kernel_backend(self) -> str:
        """``"cext"`` when the engine answers the sealed segments, else
        ``"scalar"``."""
        state = self._state
        if state.segments:
            return state.segments[0].inner.kernel_backend
        return "scalar" if kernels.engine() is None else "cext"

    # ------------------------------------------------------------------
    # Tier construction: seals, compactions, full rebuilds
    # ------------------------------------------------------------------

    def _make_inner(self) -> LCCSLSH:
        # Via the module global so tests can monkeypatch LCCSLSH.
        return LCCSLSH(
            dim=self.dim, m=self._m, metric=self.metric, **self._lccs_kwargs
        )

    def _build_segment(self, handles: np.ndarray) -> Segment:
        handles = np.asarray(handles, dtype=np.int64)
        return Segment(self._make_inner().fit(self._vectors[handles]), handles)

    def _fit(self, data: np.ndarray) -> None:
        self._store = narrow_store(data, copy=True)
        self._size = len(data)
        self._data = self._vectors
        handles = list(range(len(data)))
        self._state = _DynState((), handles, set(handles), set())
        self._rebuild()
        self.compaction_time_s = self.last_compaction_s = 0.0
        self.rows_rebuilt = 0

    def _rebuild(self) -> None:
        """Full compaction: rebuild ONE CSA over the live set and swap.

        Absorbs the memtable, merges every segment, and drops all
        tombstones.  The new inner index is fully built *before* any
        bookkeeping changes; the old epoch object is never mutated.  A
        query that interleaves with the (slow) CSA construction
        therefore still sees the complete pre-rebuild state — memtable
        included.
        """
        t0 = time.perf_counter()
        with obs_span("lsm.rebuild"):
            old = self._state
            # the memtable rides along as one more (handle-only) input
            inputs = old.segments + (Segment(None, old.buffer),)
            merged = merge_segments(
                inputs, 0, len(inputs), old.dead, self._build_segment
            ).segment
            # Everything deleted: no CSA to build; queries fall back to
            # the (empty) memtable scan until the next insert.
            segments = () if merged is None else (merged,)
            self._state = _DynState(segments, [], set(), set())
            self.rebuilds += 1
            self.rows_rebuilt += sum(seg.n for seg in segments)
        self._note_structural("rebuild", time.perf_counter() - t0)

    def _seal(self) -> None:
        """Freeze the memtable into one sealed segment (O(|memtable|)).

        Tombstoned memtable entries are dropped outright — they never
        reached a segment, so nothing else references them.  The dead
        set shrinks accordingly (stale handles still raise in
        :meth:`delete` via the not-found path).
        """
        t0 = time.perf_counter()
        with obs_span("lsm.seal"):
            old = self._state
            live = sorted(h for h in old.buffer if h not in old.dead)
            segments = old.segments
            if live:
                segments = segments + (
                    self._build_segment(np.asarray(live, dtype=np.int64)),
                )
            self._state = _DynState(
                segments, [], set(), old.dead - old.buffer_set
            )
            self.rebuilds += 1
            self.seals += 1
            self.rows_rebuilt += len(live)
        self._note_structural("seal", time.perf_counter() - t0)

    def _note_structural(self, kind: str, duration_s: float) -> None:
        """Account one structural op's write-path cost (stats + metrics)."""
        self.compaction_time_s += duration_s
        self.last_compaction_s = duration_s
        _observe_structural(kind, duration_s)

    def _compact_now(
        self, start: int, stop: int, log: bool, dead: Optional[set] = None
    ) -> None:
        """Merge ``segments[start:stop]`` on the write path, dropping the
        current tombstones (or exactly ``dead``, when replaying).

        When ``log`` is set and a structural listener is registered, the
        WAL ``compact`` record is appended *before* the swap
        (log-then-apply), carrying the range and the dropped handles so
        replay reproduces this exact merge.
        """
        t0 = time.perf_counter()
        with obs_span("lsm.compact"):
            state = self._state
            if not 0 <= start < stop <= len(state.segments):  # a bad record
                raise ValueError(
                    f"compact record merges segments {start}..{stop}, "
                    f"index has {len(state.segments)}"
                )
            result = merge_segments(
                state.segments,
                start,
                stop,
                state.dead if dead is None else dead,
                self._build_segment,
            )
            if log and self._listener is not None and not self._replaying:
                self._listener("compact", (start, stop, result.dropped))
            merged = (result.segment,) if result.segment is not None else ()
            self._state = _DynState(
                state.segments[:start] + merged + state.segments[stop:],
                state.buffer,
                state.buffer_set,
                state.dead - set(result.dropped),
            )
            self.rebuilds += 1
            self.compactions += 1
            self.rows_rebuilt += sum(seg.n for seg in merged)
        self._note_structural("compact", time.perf_counter() - t0)

    def _service_tiers(self) -> None:
        """End-of-write-op hook: merge the range the policy calls due.

        Deterministic in op order, so replay reaches the same merge and
        nothing is logged.
        """
        due = merge_range(
            [seg.n for seg in self._state.segments], self.max_segments
        )
        if due is not None:
            self._compact_now(*due, log=False)

    def _maybe_compact(self) -> None:
        state = self._state
        indexed = max(1, sum(seg.n for seg in state.segments))
        if self.memtable_size is not None:
            full = len(state.buffer) >= self.memtable_size
        else:
            full = len(state.buffer) > self.rebuild_threshold * indexed
        # Tombstone GC first: reclaiming dead rows needs a full rebuild
        # (they live inside sealed segments), same cadence as ever.
        if len(state.dead) > indexed // 2:
            self._rebuild()
        elif full:
            self._seal()
        self._service_tiers()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def check_hashable(self, rows: np.ndarray) -> None:
        """Raise ``ValueError`` unless the hash family can code ``rows``
        (one vector or a 2-d batch).

        A huge finite value projects past the int64 bucket codes
        (:func:`repro.hashes.base.bucket_codes`); admitted to the
        memtable, such a row would fail its seal instead.
        """
        segments = self._state.segments
        inner = segments[0].inner if segments else self._make_inner()
        inner.family.hash(rows)

    def insert(self, vector: np.ndarray) -> int:
        """Add one vector; returns its stable handle.

        Amortised O(d): the backing store doubles when full rather than
        reallocating per insert.  A vector the store's type cannot hold
        exactly widens the store in that same copy (never back).  The
        row is fully written to the store before its handle is published
        to the memtable, so an interleaved reader never sees a
        half-initialised point.
        """
        if self._store is None:
            raise RuntimeError("fit the index before inserting")
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},)")
        if not np.isfinite(vector).all():
            raise ValueError("vector must be finite (no NaN or infinity)")
        self.check_hashable(vector)
        dtype = widen_for(self._store.dtype, vector)
        full = self._size == len(self._store)
        if full or dtype != self._store.dtype:
            grown = np.empty(
                (max(4, 2 * len(self._store)) if full else len(self._store),
                 self.dim),
                dtype=dtype,
            )
            grown[: self._size] = self._store[: self._size]
            self._store = grown
        handle = self._size
        self._store[handle] = vector
        self._size += 1
        state = self._state
        state.buffer.append(handle)  # publish after the row exists
        state.buffer_set.add(handle)
        self._data = self._vectors  # keep the base-class view in sync
        self._maybe_compact()
        return handle

    def delete(self, handle: int) -> None:
        """Tombstone a point by handle; raises KeyError if unknown/dead.

        Liveness is checked against the current epoch's segments and
        memtable, not just its tombstones — a compaction drops deleted
        handles from the segments *and* clears their tombstones, so a
        stale handle must still raise rather than silently corrupt the
        live count.  Memtable membership is an O(1) set probe; segment
        membership is a binary search per segment.
        """
        if self._store is None or not 0 <= handle < self._size:
            raise KeyError(f"unknown handle {handle}")
        state = self._state
        if handle in state.dead:
            raise KeyError(f"handle {handle} already deleted")
        if handle not in state.buffer_set and not any(
            seg.contains(handle) for seg in state.segments
        ):
            raise KeyError(f"handle {handle} already deleted")
        state.dead.add(handle)
        self._maybe_compact()

    def flush(self) -> bool:
        """Seal the memtable into a fresh segment now (manual seal).

        Logged through the structural listener (WAL ``seal`` record)
        when wrapped in a ``DurableIndex``, so recovery and replicas
        replay it at the same op position.  No-op on an empty memtable.
        """
        if not self._state.buffer:
            return False
        if self._listener is not None and not self._replaying:
            self._listener("seal", int(self._size))
        self._seal()
        self._service_tiers()
        return True

    def compact(self) -> bool:
        """Synchronously merge every sealed segment (the whole stack,
        not the policy's pick), dropping tombstones that live inside them.

        Logged as a WAL ``compact`` record (carrying the range and the
        dropped handles) so replay reproduces the merge byte-exactly.
        Returns False when there are no segments to merge.
        """
        count = len(self._state.segments)
        if not count:
            return False
        self._compact_now(0, count, log=True)
        return True

    # ------------------------------------------------------------------
    # Queries: fan out across memtable + segments, merge canonically
    # ------------------------------------------------------------------

    def _merge_inner_stats(self, inner: LCCSLSH) -> None:
        """Accumulate one segment's work counters into ``last_stats``
        (summed across segments; best-effort under parallel readers,
        see ``_stats_items``)."""
        for key, val in self._stats_items(inner.last_stats):
            try:
                self.last_stats[key] = self.last_stats.get(key, 0.0) + val
            except TypeError:  # non-numeric stat: last segment wins
                self.last_stats[key] = val

    def _check_query_kwargs(
        self, state: _DynState, num_candidates: Optional[int], n_probes
    ) -> None:
        """Refuse what every segment would, even while none exists."""
        if num_candidates is not None and num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        if check_probes(n_probes) > 1:
            segments = state.segments
            inner = segments[0].inner if segments else self._make_inner()
            inner._probes(n_probes)

    def _query(
        self,
        q: np.ndarray,
        k: int,
        num_candidates: Optional[int] = None,
        n_probes: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        state = self._state  # one snapshot: segments, memtable, dead
        self._check_query_kwargs(state, num_candidates, n_probes)
        pairs = []
        # Per-segment budget: within its own segment, at most
        # len(dead) tombstoned points plus k-1 live points can rank
        # ahead of any global-top-k live point, so k + len(dead) per
        # segment preserves exactness under candidate saturation.
        budget = k + len(state.dead)
        for seg in state.segments:
            seg.inner.last_stats = {}  # counters are per outer query
            inner_ids, inner_dists = seg.inner._query(
                q, min(budget, seg.inner.n), num_candidates, n_probes
            )
            self._merge_inner_stats(seg.inner)
            # Translate positions to stable handles, drop tombstones.
            seg_handles = seg.handles
            for i, d in zip(inner_ids, inner_dists):
                h = int(seg_handles[i])
                if h not in state.dead:
                    pairs.append((float(d), h))
        # Exact scan of the memtable (it is small by construction).
        buffer = state.buffer
        for h in buffer:
            if h in state.dead:
                continue
            d = float(pairwise(widened(self._vectors, [h]), q, self.metric)[0])
            pairs.append((d, h))
        self.last_stats["buffer_scanned"] = float(len(buffer))
        pairs.sort()
        top = pairs[:k]
        ids = np.array([h for _, h in top], dtype=np.int64)
        dists = np.array([d for d, _ in top])
        return ids, dists

    def _batch_query(
        self,
        queries: np.ndarray,
        k: int,
        num_candidates: Optional[int] = None,
        n_probes: int = 1,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Vectorised batch path: batched per-segment search + one
        memtable scan, merged through a single canonical lexsort.

        Each sealed CSA answers the whole batch through its own
        vectorised path, and the memtable is scanned with one
        cross-distance kernel call covering every (query, buffered
        point) pair.  Per query the results are identical to
        :meth:`_query`.
        """
        state = self._state  # one snapshot for the whole batch
        self._check_query_kwargs(state, num_candidates, n_probes)
        Q = len(queries)
        if Q == 0:
            return []
        budget = k + len(state.dead)
        per_seg: List[List[Tuple[np.ndarray, np.ndarray]]] = []
        for seg in state.segments:
            seg.inner.last_stats = {}
            per_seg.append(
                seg.inner._batch_query(
                    queries, min(budget, seg.inner.n), num_candidates, n_probes
                )
            )
            self._merge_inner_stats(seg.inner)
        buffer = list(state.buffer)
        live_buffer = [h for h in buffer if h not in state.dead]
        if live_buffer:
            # Row-wise kernel (memtable tiled per query) rather than the
            # cross kernel: identical reduction order to the single-query
            # scan, so results stay bit-identical under every metric.
            # Chunked over queries to bound the tiled temporaries at
            # ~8M elements regardless of Q x memtable size.
            buf = widened(self._vectors, live_buffer)
            nb = len(buf)
            chunk = max(1, (1 << 23) // max(1, nb * self.dim))
            buffer_dists = np.empty((Q, nb))
            for start in range(0, Q, chunk):
                stop = min(Q, start + chunk)
                buffer_dists[start:stop] = pairwise_rows(
                    np.tile(buf, (stop - start, 1)),
                    np.repeat(queries[start:stop], nb, axis=0),
                    self.metric,
                ).reshape(stop - start, nb)
        # Vectorised result merge: one padded (distance, handle) matrix
        # per batch, one tombstone mask, one batched row-wise sort.
        # Sorting by (distance, handle) matches the tuple sort of the
        # single-query path exactly, so results remain bit-identical and
        # segment membership never shows through.
        self.last_stats["buffer_scanned"] = float(len(buffer)) * Q
        nb = len(live_buffer)
        seg_widths = [
            max((len(ids) for ids, _ in res), default=0) for res in per_seg
        ]
        w_seg = int(sum(seg_widths))
        width = w_seg + nb
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        if width == 0:
            return [empty for _ in range(Q)]
        pad = np.int64(1) << 62  # sorts after every real handle
        handles = np.full((Q, width), pad, dtype=np.int64)
        dists = np.full((Q, width), np.inf)
        col = 0
        for seg, res, w in zip(state.segments, per_seg, seg_widths):
            for qi in range(Q):
                ids, d = res[qi]
                if len(ids):
                    handles[qi, col : col + len(ids)] = seg.handles[ids]
                    dists[qi, col : col + len(ids)] = d
            col += w
        if state.dead and w_seg:
            dead_arr = np.fromiter(
                state.dead, dtype=np.int64, count=len(state.dead)
            )
            tomb = np.isin(handles[:, :w_seg], dead_arr)
            handles[:, :w_seg][tomb] = pad
            dists[:, :w_seg][tomb] = np.inf
        if nb:
            handles[:, w_seg:] = np.asarray(live_buffer, dtype=np.int64)[None, :]
            dists[:, w_seg:] = buffer_dists
        row_idx = np.repeat(np.arange(Q, dtype=np.int64), width)
        perm = np.lexsort((handles.ravel(), dists.ravel(), row_idx))
        handles_sorted = handles.ravel()[perm].reshape(Q, width)
        dists_sorted = dists.ravel()[perm].reshape(Q, width)
        valid = (handles != pad).sum(axis=1)
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for qi in range(Q):
            take = min(k, int(valid[qi]))
            out.append(
                (handles_sorted[qi, :take].copy(), dists_sorted[qi, :take].copy())
            )
        return out

    def index_size_bytes(self) -> int:
        state = self._state
        total = sum(seg.inner.index_size_bytes() for seg in state.segments)
        # Pending rows are part of the structure a deployment must hold
        # to answer queries; count them until the next seal absorbs
        # them into a segment.
        itemsize = self._store.itemsize if self._store is not None else 8
        return total + len(state.buffer) * self.dim * itemsize

    # ------------------------------------------------------------------
    # Native persistence: the live prefix of the store, the handle
    # bookkeeping, and each sealed segment nested under a ``seg{i}.``
    # array prefix (handles + the inner LCCS arrays).  Only the live
    # prefix is written, so the loaded store is exactly as large as its
    # contents (growth restarts from there).
    #
    # Loaded arrays are adopted by reference and treated as immutable,
    # so an index loaded with ``load_index(path, mmap=True)`` serves
    # from read-only memory maps — sealed segments mmap straight from
    # disk.  Mutation promotes copy-on-write: the first ``insert``
    # finds the store full (the saved prefix has no slack) and grows it
    # into a fresh writable array, ``delete`` only touches the epoch's
    # Python tombstone set, and a seal/compaction gathers the live rows
    # into new arrays before building the new CSA — the mapped
    # originals are never written, only dropped once no epoch
    # references them.  Loading checks every handle against the store's
    # row count: queries gather store rows by handle.  LCCS kwargs that
    # are not JSON-safe (a pre-built HashFamily object) make the state
    # unsavable, and ``save_index`` refuses it.
    # ------------------------------------------------------------------

    def _export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        from repro.serve.persistence import export_index, pack_nested

        epoch = self._state
        state: dict = {
            "m": self._m,
            "rebuild_threshold": self.rebuild_threshold,
            "memtable_size": self.memtable_size,
            "max_segments": self.max_segments,
            "lccs_kwargs": dict(self._lccs_kwargs),
            "buffer_handles": [int(h) for h in epoch.buffer],
            "dead": sorted(int(h) for h in epoch.dead),
            "rebuilds": int(self.rebuilds),
            "seals": int(self.seals),
            "compactions": int(self.compactions),
            "rows_rebuilt": int(self.rows_rebuilt),
            "segments": [],
        }
        arrays: Dict[str, np.ndarray] = {}
        if self._store is not None:
            arrays["store"] = self._vectors
        for i, seg in enumerate(epoch.segments):
            inner_manifest, inner_arrays = export_index(seg.inner)
            state["segments"].append(inner_manifest)
            arrays[f"seg{i}.handles"] = seg.handles
            arrays.update(pack_nested(inner_arrays, f"seg{i}.inner"))
        return state, arrays

    @classmethod
    def _import_state(
        cls, manifest: dict, arrays: Dict[str, np.ndarray]
    ) -> "DynamicLCCSLSH":
        from repro.serve.persistence import (
            TYPED_STORE_VERSION,
            import_index,
            unpack_nested,
        )

        state = manifest["state"]
        kwargs = dict(state["lccs_kwargs"])
        kwargs.setdefault("seed", manifest["seed"])
        # recorded by earlier builds: backend selects nothing, and the
        # verify_dtype knob is gone
        kwargs.pop("backend", None)
        kwargs.pop("verify_dtype", None)
        memtable_size = state.get("memtable_size")
        index = cls(
            dim=int(manifest["dim"]),
            m=int(state["m"]),
            metric=manifest["metric"],
            rebuild_threshold=float(state["rebuild_threshold"]),
            memtable_size=(
                None if memtable_size is None else int(memtable_size)
            ),
            max_segments=int(state.get("max_segments", 4)),
            **kwargs,
        )
        rows = 0
        if "store" in arrays:
            store = arrays["store"]
            if store.ndim != 2 or store.shape[1] != index.dim:
                raise ValueError(f"store of shape {store.shape}")
            check_store(store, manifest["format_version"] >= TYPED_STORE_VERSION)
            index._store = np.ascontiguousarray(store)
            index._size = rows = len(index._store)
            index._data = index._vectors

        def handles_of(name, handles, n=None) -> np.ndarray:
            handles = np.asarray(handles, dtype=np.int64)
            n = len(handles) if n is None else n
            if handles.shape != (n,) or (
                n and (handles.min() < 0 or handles.max() >= rows)
            ):
                raise ValueError(
                    f"{name}: {handles.shape} handles are not {n} rows "
                    f"of a {rows}-row store"
                )
            return handles

        segments: List[Segment] = []
        for i, seg_manifest in enumerate(state.get("segments", [])):
            inner = import_index(
                seg_manifest,
                unpack_nested(arrays, f"seg{i}.inner"),
                source=f"<seg{i}>",
            )
            if getattr(inner, "csa", None) is None or inner.dim != index.dim:
                raise ValueError(f"segment {i} is not a fitted LCCS index")
            name = f"seg{i}.handles"
            segments.append(
                Segment(inner, handles_of(name, arrays[name], inner.n))
            )
        buffer = handles_of("buffer_handles", state["buffer_handles"]).tolist()
        dead = handles_of("dead", state["dead"]).tolist()
        index._state = _DynState(tuple(segments), buffer, set(buffer), set(dead))
        index.rebuilds = int(state["rebuilds"])
        index.seals = int(state.get("seals", 0))
        index.compactions = int(state.get("compactions", 0))
        index.rows_rebuilt = int(state.get("rows_rebuilt", 0))
        return index

    # The listener points back into a durability wrapper — it does not
    # belong in an in-memory pickle or deep copy of the index.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_listener"] = None
        return state

    # ------------------------------------------------------------------
    # Replayable op records (consumed by repro.serve.durability)
    # ------------------------------------------------------------------

    def apply_op(self, op) -> Optional[int]:
        """Apply one replayable op record; returns the insert handle.

        ``op`` is a ``(kind, payload)`` pair — ``("fit", data)``,
        ``("insert", vector)``, ``("delete", handle)``, ``("seal",
        boundary)`` or ``("compact", (start, stop, dropped))`` — the
        shapes the write-ahead log decodes records into.  Because handles are
        assigned deterministically in op order and structural ops carry
        their inputs explicitly, replaying a log of these records on a
        fresh index reproduces the original state exactly.  While
        replaying, listener notifications are suppressed — the records
        are already in the log.  A ``delete`` that raises ``KeyError``
        is applied as a no-op: the live call that logged it also raised
        without changing state, so replayed and acknowledged state stay
        identical.
        """
        kind, payload = op
        prev = self._replaying
        self._replaying = True
        try:
            if kind == "fit":
                self.fit(payload)
                return None
            if kind == "insert":
                return self.insert(payload)
            if kind == "delete":
                try:
                    self.delete(int(payload))
                except KeyError:
                    pass
                return None
            if kind == "seal":
                # payload (store size at the seal point) is advisory —
                # replay position already determines the memtable.
                self.flush()
                return None
            if kind == "compact":
                # the logged range, minus exactly what the merge dropped
                start, stop, dropped = payload
                self._compact_now(
                    int(start), int(stop), log=False, dead=set(map(int, dropped))
                )
                return None
            raise ValueError(f"unknown op kind {kind!r}")
        finally:
            self._replaying = prev

    def get_vector(self, handle: int) -> np.ndarray:
        """The vector behind a *live* handle (copies; raises KeyError
        for unknown or deleted handles, matching ``delete``'s rules)."""
        if self._vectors is None or not 0 <= handle < len(self._vectors):
            raise KeyError(f"unknown handle {handle}")
        state = self._state
        if handle in state.dead:
            raise KeyError(f"handle {handle} is deleted")
        if handle not in state.buffer_set and not any(
            seg.contains(handle) for seg in state.segments
        ):
            raise KeyError(f"handle {handle} is deleted")
        return self._vectors[handle].astype(np.float64)
