"""LSM-tiered DynamicLCCSLSH: seals, fan-out equivalence, compaction.

Acceptance contract of the tiered design: no matter how inserts,
deletes, seals, and compactions interleave, a saturated query against
the tiered index is **byte-identical** to the same query against a
freshly rebuilt single-CSA index over the same live set — segment
membership must never show through.  On top of that, the write-path
fixes are pinned here: O(1) memtable-delete membership and
liveness-checked ``get_vector``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH
from repro.core.segments import CompactionManager, Segment, merge_segments

DIM = 6


def _mk(**kwargs) -> DynamicLCCSLSH:
    kwargs.setdefault("dim", DIM)
    kwargs.setdefault("m", 8)
    kwargs.setdefault("w", 4.0)
    kwargs.setdefault("seed", 2)
    return DynamicLCCSLSH(**kwargs)


def _fitted(n=30, seed=7, **kwargs):
    rng = np.random.default_rng(seed)
    return _mk(**kwargs).fit(rng.normal(size=(n, DIM))), rng


def _assert_same_answers(a, b, queries, k=5):
    cap = max(a.n, b.n, 1)
    for q in queries:
        ids_a, dists_a = a.query(q, k=k, num_candidates=cap)
        ids_b, dists_b = b.query(q, k=k, num_candidates=cap)
        assert ids_a.tobytes() == ids_b.tobytes()
        assert dists_a.tobytes() == dists_b.tobytes()
    bids_a, bdists_a = a.batch_query(queries, k=k, num_candidates=cap)
    bids_b, bdists_b = b.batch_query(queries, k=k, num_candidates=cap)
    assert bids_a.tobytes() == bids_b.tobytes()
    assert bdists_a.tobytes() == bdists_b.tobytes()


# ----------------------------------------------------------------------
# Tier mechanics
# ----------------------------------------------------------------------

def test_memtable_seals_into_segments():
    index, rng = _fitted(20, memtable_size=10, max_segments=100)
    assert index.segment_count == 1  # fit builds the base segment
    for v in rng.normal(size=(35, DIM)):
        index.insert(v)
    # 35 inserts with a 10-row memtable: three seals, five left pending.
    assert index.segment_count == 4
    assert index.seals == 3
    assert index.buffer_size == 5
    stats = index.tier_stats()
    assert stats["segments"] == 4
    assert stats["segment_rows"] == [20, 10, 10, 10]
    assert stats["memtable"] == 5


def test_inline_compaction_caps_segment_count():
    index, rng = _fitted(10, memtable_size=5, max_segments=2)
    for v in rng.normal(size=(80, DIM)):
        index.insert(v)
        assert index.segment_count <= 3  # cap + the segment being sealed
    assert index.compactions >= 1
    assert index.live_count == 90


def test_rebuild_mode_reproduces_legacy_single_segment():
    index, rng = _fitted(10, memtable_size=5, compaction="rebuild")
    for v in rng.normal(size=(40, DIM)):
        index.insert(v)
        assert index.segment_count <= 1
    assert index.compactions == 0  # never merges — it only full-rebuilds


def test_seal_drops_tombstoned_memtable_rows():
    index, rng = _fitted(20, memtable_size=100)
    handles = [index.insert(v) for v in rng.normal(size=(6, DIM))]
    index.delete(handles[2])
    before = index.live_count
    index.flush()
    assert index.buffer_size == 0
    assert index.live_count == before
    # The dead memtable row never reached a segment, so its tombstone is
    # gone too — but the handle still reads as deleted.
    assert handles[2] not in index._dead
    with pytest.raises(KeyError):
        index.delete(handles[2])
    with pytest.raises(KeyError):
        index.get_vector(handles[2])


def test_compact_merges_and_drops_segment_tombstones():
    index, rng = _fitted(20, memtable_size=5, max_segments=100)
    for v in rng.normal(size=(20, DIM)):
        index.insert(v)
    index.delete(3)       # fitted row, lives in segment 0
    index.delete(21)      # sealed insert
    assert index.segment_count > 1 and len(index._dead) == 2
    assert index.compact() is True
    assert index.segment_count == 1
    assert index._dead == set()  # dropped rows take their tombstones along
    with pytest.raises(KeyError):
        index.get_vector(3)
    assert index.live_count == 38


# ----------------------------------------------------------------------
# Fan-out equivalence (the headline property)
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fanout_byte_identical_to_rebuilt_index(data):
    """Arbitrary insert/delete/seal/compact interleavings: saturated
    queries equal a freshly rebuilt single-CSA index byte-for-byte."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=(12, DIM))
    tiered = _mk(memtable_size=5, max_segments=2).fit(base)
    # The reference shares the op order (handles must line up) but never
    # seals; one final _rebuild() makes it a single fresh CSA.
    reference = _mk(memtable_size=10**9).fit(base)
    live = set(range(12))
    next_handle = 12
    n_ops = data.draw(st.integers(min_value=10, max_value=40), label="n_ops")
    for i in range(n_ops):
        choice = data.draw(
            st.sampled_from(
                ["insert", "insert", "insert", "delete", "flush", "compact"]
            ),
            label=f"op{i}",
        )
        if choice == "delete" and live:
            handle = data.draw(
                st.sampled_from(sorted(live)), label=f"target{i}"
            )
            tiered.delete(handle)
            reference.delete(handle)
            live.discard(handle)
        elif choice == "flush":
            tiered.flush()
        elif choice == "compact":
            tiered.compact()
        else:
            vec = rng.normal(size=DIM)
            assert tiered.insert(vec) == reference.insert(vec) == next_handle
            live.add(next_handle)
            next_handle += 1
    reference._rebuild()
    _assert_same_answers(tiered, reference, rng.normal(size=(4, DIM)))


# ----------------------------------------------------------------------
# Background compaction
# ----------------------------------------------------------------------

def test_background_compaction_commits_and_matches_rebuilt():
    index, rng = _fitted(
        10, memtable_size=6, max_segments=2, compaction="background"
    )
    reference = _mk(memtable_size=10**9).fit(
        np.random.default_rng(7).normal(size=(10, DIM))
    )
    for v in rng.normal(size=(60, DIM)):
        index.insert(v)
        reference.insert(v)
    for _ in range(6):  # each drain commits at most one merged build
        if index.segment_count <= index.max_segments:
            break
        index.drain_compaction(timeout=30.0)
    assert index.compactions >= 1
    assert not index._compactor.busy
    reference._rebuild()
    _assert_same_answers(index, reference, rng.normal(size=(4, DIM)))


def test_stale_background_build_is_discarded():
    index, rng = _fitted(
        10, memtable_size=4, max_segments=1, compaction="background"
    )
    while not index._compactor.busy:
        index.insert(rng.normal(size=DIM))
    before = index.compactions
    index._rebuild()  # full GC rebuild replaces the build's input segments
    index._compactor.drain(timeout=30.0)
    index._commit_ready()
    assert index.compactions == before  # stale result dropped, not merged
    assert index.segment_count == 1


def test_compaction_manager_single_slot():
    manager = CompactionManager()
    assert manager.take_ready() is None
    started = manager.schedule(lambda: merge_segments([], set(), lambda h: None))
    assert started
    manager.drain(timeout=10.0)
    assert manager.busy  # finished but uncommitted still occupies the slot
    assert manager.schedule(lambda: None) is False
    result = manager.take_ready()
    assert result is not None and result.segment is None
    assert not manager.busy


def test_background_build_error_is_contained():
    manager = CompactionManager()

    def boom():
        raise RuntimeError("build exploded")

    manager.schedule(boom)
    manager.drain(timeout=10.0)
    with pytest.raises(RuntimeError, match="build exploded"):
        manager.take_ready()
    assert not manager.busy  # slot freed for the next attempt


# ----------------------------------------------------------------------
# merge_segments unit behavior
# ----------------------------------------------------------------------

def test_merge_segments_drops_dead_and_reports_them():
    seg_a = Segment(None, np.array([0, 2, 4], dtype=np.int64))
    seg_b = Segment(None, np.array([5, 7], dtype=np.int64))
    built = {}

    def build(handles):
        built["handles"] = handles.copy()
        return Segment(None, handles)

    result = merge_segments([seg_a, seg_b], {2, 7, 99}, build)
    assert result.dropped == [2, 7]
    assert built["handles"].tolist() == [0, 4, 5]
    assert result.inputs == (seg_a, seg_b)

    emptied = merge_segments([seg_a], {0, 2, 4}, build)
    assert emptied.segment is None
    assert emptied.dropped == [0, 2, 4]


# ----------------------------------------------------------------------
# Write-path bugfixes
# ----------------------------------------------------------------------

def test_delete_storm_is_not_quadratic_in_memtable():
    """Regression: delete did a linear `handle in buffer-list` scan, so a
    delete storm against a large memtable was quadratic (~100M list
    probes for this workload — seconds); the membership set makes each
    delete O(1) (+ a binary search per segment)."""
    rng = np.random.default_rng(0)
    dim = 4
    index = DynamicLCCSLSH(
        dim=dim, m=8, w=4.0, seed=1, memtable_size=10**9
    ).fit(rng.normal(size=(5000, dim)))
    for v in rng.normal(size=(50_000, dim)):
        index.insert(v)
    assert index.buffer_size == 50_000
    targets = rng.choice(
        np.arange(5000, 55_000), size=2000, replace=False
    )
    start = time.perf_counter()
    for h in targets:
        index.delete(int(h))
    elapsed = time.perf_counter() - start
    assert index.buffer_size == 50_000  # no seal/GC absorbed the storm
    assert elapsed < 2.0, f"delete storm took {elapsed:.2f}s"


def test_get_vector_raises_for_tombstoned_handles():
    index, rng = _fitted(20, memtable_size=100)
    vec = rng.normal(size=DIM)
    handle = index.insert(vec)
    assert np.array_equal(index.get_vector(handle), vec)
    index.delete(handle)
    with pytest.raises(KeyError):
        index.get_vector(handle)  # memtable tombstone
    index.delete(3)
    with pytest.raises(KeyError):
        index.get_vector(3)  # segment tombstone
    assert index.get_vector(4) is not None  # neighbors stay resolvable
    index.flush()
    index.compact()
    with pytest.raises(KeyError):
        index.get_vector(handle)  # fully dropped after compaction
    with pytest.raises(KeyError):
        index.get_vector(3)


# ----------------------------------------------------------------------
# Persistence and serving integration
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mmap", [False, True])
def test_segmented_bundle_roundtrip(tmp_path, mmap):
    from repro.serve import load_index, save_index

    index, rng = _fitted(20, memtable_size=5, max_segments=100)
    for v in rng.normal(size=(17, DIM)):
        index.insert(v)
    index.delete(2)
    index.delete(23)
    assert index.segment_count >= 3 and index.buffer_size > 0
    save_index(index, str(tmp_path / "bundle"))
    loaded = load_index(str(tmp_path / "bundle"), mmap=mmap)
    assert loaded.segment_count == index.segment_count
    assert loaded.buffer_size == index.buffer_size
    assert loaded._dead == index._dead
    assert loaded.seals == index.seals
    assert loaded.compactions == index.compactions
    _assert_same_answers(index, loaded, rng.normal(size=(4, DIM)))
    # Loaded copies stay mutable: inserts promote copy-on-write.
    handle = loaded.insert(rng.normal(size=DIM))
    assert loaded.get_vector(handle) is not None


def test_service_stats_surface_tier_shape():
    from repro.serve import ANNService

    index, rng = _fitted(20, memtable_size=5, max_segments=100)
    service = ANNService(index)
    try:
        for v in rng.normal(size=(12, DIM)):
            service.insert(v)
        stats = service.stats()
        assert stats["tier_segments"] == index.segment_count
        assert stats["tier_memtable"] == index.buffer_size
        assert stats["tier_seals"] == index.seals
        assert stats["tier_compaction"] == "inline"
    finally:
        service.close()
