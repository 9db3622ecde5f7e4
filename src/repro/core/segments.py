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
  one range of the stack, drop the ones in a tombstone set, and build
  one merged segment.  It records exactly which handles were dropped so
  a manual ``compact()`` can be replayed from its WAL ``compact``
  record.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Segment",
    "CompactionResult",
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
    """Output of one merge: the merged segment and what it dropped.

    ``dropped`` lists the tombstoned handles the merge excluded, in
    sorted order; a WAL ``compact`` record carries it so replay
    reproduces this merge byte-exactly.
    """

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
    parts = [seg.handles for seg in segments[start:stop]]
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
    return CompactionResult(segment, dropped)

