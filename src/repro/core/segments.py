"""Sealed CSA segments, the size-tiered merge policy and its machinery.

The LSM-tiered :class:`repro.core.dynamic.DynamicLCCSLSH` is built from
three kinds of state: a small writable *memtable* (the pending insert
buffer), a stack of **sealed immutable segments** — each a static
LCCS-LSH index over a frozen, sorted slice of stable handles — and a
tombstone set masking deleted points.  This module holds the parts of
that design that are independent of the dynamic wrapper itself:

* :class:`Segment` — an immutable ``(inner CSA, handle translation)``
  pair.  Segments are never mutated after construction; compaction
  replaces them wholesale, which is what makes the epoch-publish
  concurrency story (and mmap sharing of exported segments) work.
* :func:`merge_range` — the one merge policy (size-tiered): which
  suffix of the stack is due a merge.
* :func:`merge_segments` — the pure merge step: gather the handles of
  one range of the stack, drop the ones in a tombstone snapshot, and
  build one merged segment.  It records exactly which handles were
  dropped so the merge can be replayed deterministically from a WAL
  ``compact`` record even if more deletes raced in after the build
  started.
* :class:`CompactionManager` — a one-slot background worker.  At most
  one merge build is in flight (or finished-but-uncommitted) at a time;
  the *caller* commits results on its own write path, so the background
  thread never touches live index state.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, wait
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Segment",
    "CompactionResult",
    "CompactionManager",
    "merge_range",
    "merge_segments",
]


class Segment:
    """One sealed, immutable tier: a static CSA plus handle translation.

    ``inner`` is a fitted index whose positions ``0..n-1`` correspond to
    ``handles[0..n-1]`` (sorted ascending, so position order equals
    handle order and per-segment ``(distance, position)`` ranking equals
    ``(distance, handle)`` ranking).  Neither field is ever mutated.
    """

    __slots__ = ("inner", "handles")

    def __init__(self, inner, handles: np.ndarray):
        self.inner = inner
        self.handles = np.asarray(handles, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.handles)

    def contains(self, handle: int) -> bool:
        """Membership by binary search (handles are sorted)."""
        pos = int(np.searchsorted(self.handles, handle))
        return pos < len(self.handles) and int(self.handles[pos]) == handle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Segment(n={self.n})"


class CompactionResult(NamedTuple):
    """Output of one merge build, held until the caller commits it.

    ``inputs`` are the exact segment objects the build consumed, found
    at ``start`` in the stack — the commit step validates those slots by
    identity (seals only append, so a still-valid build finds its inputs
    where it left them).  ``dropped`` lists the tombstoned handles the
    merge excluded, in sorted order; a WAL ``compact`` record carries it
    so replay reproduces this merge byte-exactly regardless of deletes
    that happened after the build was scheduled.
    """

    start: int
    inputs: Tuple[Segment, ...]
    segment: Optional[Segment]
    dropped: List[int]


def merge_range(
    rows: Sequence[int], max_segments: int
) -> Optional[Tuple[int, int]]:
    """Size-tiered merge policy: the ``(start, stop)`` suffix due a merge.

    ``rows`` are the segment sizes, oldest first.  From the newest
    segment the tail grows leftwards while the segment before it is under
    twice the tail's rows (or the stack would still exceed
    ``max_segments``).  Merging it leaves every segment at least twice
    its successor: at most ``log2(n / smallest) + 1`` segments, each row
    rebuilt once per doubling, the base only when the data beside it has
    grown comparable to it.  ``None`` when nothing is due.
    """
    stop = len(rows)
    if stop < 2:
        return None
    start = stop - 1
    tail = rows[start]
    while start > 0 and (rows[start - 1] < 2 * tail or start >= max_segments):
        start -= 1
        tail += rows[start]
    return (start, stop) if stop - start > 1 else None


def merge_segments(
    segments: Sequence[Segment],
    start: int,
    stop: int,
    dead: set,
    build: Callable[[np.ndarray], Segment],
) -> CompactionResult:
    """Merge ``segments[start:stop]`` into one, dropping handles in ``dead``.

    Pure with respect to the inputs: the same segments + the same dead
    snapshot produce the same merged handle slice, and ``build`` (which
    fits a fresh CSA over those rows) is deterministic given the index
    seed.  Returns ``segment=None`` when every row was tombstoned.
    """
    inputs = tuple(segments[start:stop])
    parts = [seg.handles for seg in inputs]
    allh = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    dropped: List[int] = []
    if dead and len(allh):
        dead_arr = np.fromiter(dead, dtype=np.int64, count=len(dead))
        mask = np.isin(allh, dead_arr)
        dropped = sorted(int(h) for h in allh[mask])
        allh = allh[~mask]
    allh = np.sort(allh)
    segment = build(allh) if len(allh) else None
    return CompactionResult(start, inputs, segment, dropped)


class CompactionManager:
    """One-slot background build executor.

    ``schedule(job)`` starts ``job`` on a daemon thread unless a build
    is already in flight or waiting to be committed.  ``take_ready()``
    returns the finished result exactly once (or re-raises the build's
    exception); until it is taken, ``busy`` stays true so no second
    build piles up.  The manager never mutates index state — commits
    happen on the caller's write path, which is also the only caller of
    these methods: the future is all the synchronisation there is.
    """

    def __init__(self) -> None:
        self._future: Optional[Future] = None

    @property
    def busy(self) -> bool:
        """A build is running or finished-but-uncommitted."""
        return self._future is not None

    def schedule(self, job: Callable[[], CompactionResult]) -> bool:
        if self._future is not None:
            return False
        self._future = future = Future()
        threading.Thread(
            target=self._run, args=(future, job), name="lccs-compaction", daemon=True
        ).start()
        return True

    @staticmethod
    def _run(future: Future, job: Callable[[], CompactionResult]) -> None:
        try:
            future.set_result(job())
        except BaseException as exc:  # surfaced at take_ready()
            future.set_exception(exc)

    def take_ready(self) -> Optional[CompactionResult]:
        """Pop the finished build, if any (non-blocking).

        Returns None while the build is still running (or none exists);
        re-raises the job's exception if it failed.
        """
        future = self._future
        if future is None or not future.done():
            return None
        self._future = None
        return future.result()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until the in-flight build (if any) finishes."""
        if self._future is not None:
            wait([self._future], timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompactionManager(busy={self.busy})"
