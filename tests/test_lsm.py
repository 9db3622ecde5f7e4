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

import math
import time

import numpy as np
import pytest
from helpers import assert_matches_oracle, oracle_query
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH, kernels
from repro.core.segments import (
    CompactionManager,
    Segment,
    merge_range,
    merge_segments,
)

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
    index, rng = _fitted(80, memtable_size=10, max_segments=100)
    assert index.segment_count == 1  # fit builds the base segment
    shapes = []
    for v in rng.normal(size=(35, DIM)):
        index.insert(v)
        if index.buffer_size == 0:
            shapes.append(index.tier_stats()["segment_rows"])
    # 35 inserts with a 10-row memtable: three seals, five left pending.
    # The second seal breaks the 2x rule (10 < 2 * 10) and is folded into
    # the first; the third sits beside the result (20 >= 2 * 10).
    assert shapes == [[80, 10], [80, 20], [80, 20, 10]]
    assert index.seals == 3
    assert index.compactions == 1
    assert index.buffer_size == 5
    stats = index.tier_stats()
    assert stats["segments"] == 3
    assert stats["memtable"] == 5
    assert stats["rows_rebuilt"] == 30 + 20  # three seals + one merge


def test_inline_compaction_caps_segment_count():
    index, rng = _fitted(10, memtable_size=5, max_segments=2)
    for v in rng.normal(size=(80, DIM)):
        index.insert(v)
        assert index.segment_count <= 3  # cap + the segment being sealed
    assert index.compactions >= 1
    assert index.live_count == 90


def test_recipes_naming_the_removed_rebuild_mode_load_as_inline():
    """``compaction="rebuild"`` (every seal a full O(n) rebuild) left
    ``src/`` in PR 23 — the baseline lives in ``bench_lsm.py`` — but
    bundles and ``durable.json`` recipes written before may name it."""
    index, rng = _fitted(10, memtable_size=5, compaction="rebuild")
    assert index.compaction == "inline"
    for v in rng.normal(size=(40, DIM)):
        index.insert(v)
    assert index.compactions >= 1 and index.live_count == 50
    with pytest.raises(ValueError, match="compaction"):
        _mk(compaction="merge-all")


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
    # Base of 40 so the 20 inserted rows may sit beside it (40 >= 2 * 20):
    # with the old base of 20 the tiered policy has already merged them.
    index, rng = _fitted(40, memtable_size=5, max_segments=100)
    for v in rng.normal(size=(20, DIM)):
        index.insert(v)
    index.delete(3)       # fitted row, lives in segment 0
    index.delete(41)      # sealed insert
    assert index.segment_count > 1 and len(index._dead) == 2
    assert index.compact() is True
    assert index.segment_count == 1
    assert index._dead == set()  # dropped rows take their tombstones along
    with pytest.raises(KeyError):
        index.get_vector(3)
    with pytest.raises(KeyError):
        index.get_vector(41)
    assert index.live_count == 58


def test_fit_is_not_a_write_stall():
    """Regression: the initial build went through ``_note_structural``,
    so a fresh index reported its whole fit as compaction stall."""
    index, rng = _fitted(200, memtable_size=4)
    stats = index.tier_stats()
    assert stats["compaction_time_s"] == stats["last_compaction_s"] == 0.0
    assert stats["rows_rebuilt"] == 0
    for v in rng.normal(size=(4, DIM)):
        index.insert(v)
    stats = index.tier_stats()
    assert stats["seals"] == 1 and stats["rows_rebuilt"] == 4
    assert stats["compaction_time_s"] >= stats["last_compaction_s"] > 0.0
    index.fit(rng.normal(size=(10, DIM)))  # a refit starts over as well
    assert index.tier_stats()["compaction_time_s"] == 0.0
    assert index.tier_stats()["rows_rebuilt"] == 0


# ----------------------------------------------------------------------
# The size-tiered merge policy
# ----------------------------------------------------------------------

def test_merge_range_policy():
    assert merge_range([], 4) is None
    assert merge_range([100], 4) is None
    assert merge_range([100, 50], 4) is None          # 100 >= 2 * 50
    assert merge_range([100, 51], 4) == (0, 2)
    assert merge_range([10000, 64, 64], 4) == (1, 3)  # the base stays put
    assert merge_range([10000, 128, 64, 64], 4) == (1, 4)  # cascades
    assert merge_range([10000, 256, 128, 64], 4) is None
    # the cap forces a merge the 2x rule alone would not ask for
    assert merge_range([10000, 1000, 128, 64], 3) == (2, 4)
    assert merge_range([10000, 4000, 1000, 64], 1) == (0, 4)
    # ... and keeps going while the grown tail still breaks the rule
    assert merge_range([10000, 300, 128, 64], 3) == (1, 4)


def _assert_tiered(index):
    """Every segment at least twice its successor, count under the cap."""
    rows = index.tier_stats()["segment_rows"]
    assert len(rows) <= index.max_segments, rows
    assert all(a >= 2 * b for a, b in zip(rows, rows[1:])), rows
    if rows:
        assert len(rows) <= math.log2(max(rows) / min(rows)) + 1, rows


def _quiesce(index):
    while index.drain_compaction(30.0):
        pass


@pytest.mark.parametrize("mode", ["inline", "background"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_tiered_policy_holds_over_random_streams(mode, data):
    """Random insert / delete / flush / compact streams: the 2x size
    invariant and the count bound hold after every op, rebuilt rows stay
    within the logarithmic-method bound, saturated answers equal a twin
    that fully rebuilt, and every backend still answers as the oracle."""
    rng = np.random.default_rng(5)
    base = rng.normal(size=(24, DIM))
    memtable = 4
    tiered = _mk(memtable_size=memtable, max_segments=5, compaction=mode).fit(base)
    reference = _mk(memtable_size=10**9).fit(base)
    live = set(range(len(base)))
    inserts = forced = 0
    n_ops = data.draw(st.integers(min_value=20, max_value=90), label="n_ops")
    for i in range(n_ops):
        choice = data.draw(
            st.sampled_from(["insert"] * 8 + ["delete", "flush", "compact"]),
            label=f"op{i}",
        )
        before = tiered.rows_rebuilt
        if choice == "delete" and live:
            handle = data.draw(st.sampled_from(sorted(live)), label=f"target{i}")
            tiered.delete(handle)
            reference.delete(handle)
            live.discard(handle)
        elif choice == "flush":
            tiered.flush()
        elif choice == "compact":
            tiered.compact()
        else:
            vec = rng.normal(size=DIM)
            assert tiered.insert(vec) == reference.insert(vec)
            live.add(len(base) + inserts)
            inserts += 1
        _quiesce(tiered)
        if choice in ("delete", "compact"):
            # merge-everything and tombstone GC are asked for, not policy
            forced += tiered.rows_rebuilt - before
        _assert_tiered(tiered)
        assert tiered.live_count == len(live)
    # each row is sealed once and re-merged at most once per doubling
    # (flush() seals runs shorter than the memtable, hence log2 of n)
    doublings = math.log2(len(base) + inserts) + 1
    assert tiered.rows_rebuilt - forced <= 2 * inserts * doublings
    reference._rebuild()
    queries = rng.normal(size=(4, DIM))
    _assert_same_answers(tiered, reference, queries)
    for backend in ("numpy", "cext"):
        if backend not in kernels.available_backends():
            continue
        tiered.set_kernel_backend(backend)
        want = [oracle_query(tiered, q, 5) for q in queries]
        ids, dists = tiered.batch_query(queries, k=5)
        for qi, q in enumerate(queries):
            assert_matches_oracle(tiered.query(q, k=5), want[qi], backend)
            found = ids[qi] >= 0
            assert_matches_oracle(
                (ids[qi][found], dists[qi][found]), want[qi], f"{backend} batch"
            )


def test_write_amplification_on_the_mixed_rw_shape():
    """The benchmark's write schedule as a count: 600 inserts into a
    10k-row base with a 64-row memtable rebuild 1 600 rows (2.7 per
    insert); the merge-all policy rebuilt the base twice (35.6)."""
    rng = np.random.default_rng(0)
    index = DynamicLCCSLSH(
        dim=8, m=8, seed=1, memtable_size=64, max_segments=4
    ).fit(rng.normal(size=(10_000, 8)))
    for v in rng.normal(size=(600, 8)):
        index.insert(v)
        _assert_tiered(index)
    stats = index.tier_stats()
    assert stats["segment_rows"] == [10_000, 512, 64]
    assert stats["rows_rebuilt"] == 9 * 64 + 128 + 256 + 128 + 512
    assert stats["rows_rebuilt"] <= 5 * 600


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


def test_background_build_is_dropped_when_its_range_moved():
    """A build over ``segments[1:3]`` commits only while those exact
    objects still fill slots 1..3: an explicit ``compact()`` that lands
    first replaces them, and the finished build must not be spliced in."""
    index, rng = _fitted(
        40, memtable_size=4, max_segments=8, compaction="background"
    )
    while not index._compactor.busy:
        index.insert(rng.normal(size=DIM))
    assert index.tier_stats()["segment_rows"] == [40, 4, 4]
    index._compactor.drain(timeout=30.0)  # built, not yet committed
    assert index.compact() is True        # the whole stack, synchronously
    before = index.compactions
    index.insert(rng.normal(size=DIM))    # the next write finds the build
    assert index.compactions == before
    assert index.tier_stats()["segment_rows"] == [48]
    assert not index._compactor.busy


def test_compaction_manager_single_slot():
    manager = CompactionManager()
    assert manager.take_ready() is None
    started = manager.schedule(
        lambda: merge_segments([], 0, 0, set(), lambda h: None)
    )
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

    result = merge_segments([seg_a, seg_b], 0, 2, {2, 7, 99}, build)
    assert result.dropped == [2, 7]
    assert built["handles"].tolist() == [0, 4, 5]
    assert (result.start, result.inputs) == (0, (seg_a, seg_b))

    # a range in the middle of the stack leaves its neighbours alone
    emptied = merge_segments([seg_b, seg_a, seg_b], 1, 2, {0, 2, 4}, build)
    assert (emptied.start, emptied.inputs) == (1, (seg_a,))
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
