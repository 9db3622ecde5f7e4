"""Concurrency stress suite: readers and writers hammer ConcurrentIndex.

N reader threads and M writer threads share one
:class:`~repro.serve.concurrency.ConcurrentIndex` over a
``DynamicLCCSLSH`` (rebuilds included).  The suite asserts the three
serving invariants:

* **no exceptions** in any thread;
* **no torn reads** — every id a query returns was live at the version
  the query observed (reconstructed after the fact from the versioned
  write log; writes are serialized, so versions totally order them);
* **final state equals the serial replay** — applying the write log in
  version order to a fresh index reproduces the concurrent index's
  final answers byte-for-byte.

Everything is seeded; the thread *interleaving* varies run to run (that
is the point of a stress test) but every interleaving must satisfy the
invariants.  Marked ``concurrency`` (kept out of the CI fast lane) and
``timeout`` (pytest-timeout turns a deadlock into a failure, not a hung
job).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import ConcurrentIndex, DynamicLCCSLSH

pytestmark = [pytest.mark.concurrency, pytest.mark.timeout(120)]

DIM = 12
N0 = 240  # initial fitted points
N_READERS = 4
N_WRITERS = 2
QUERIES_PER_READER = 40
OPS_PER_WRITER = 30


def _make_dynamic() -> DynamicLCCSLSH:
    rng = np.random.default_rng(101)
    data = rng.normal(size=(N0, DIM))
    # Low threshold so the stress run crosses several rebuilds.
    return DynamicLCCSLSH(
        dim=DIM, m=16, w=4.0, seed=5, rebuild_threshold=0.05
    ).fit(data)


class _Stress:
    """Run the reader/writer stress workload and collect evidence."""

    def __init__(self, ci: ConcurrentIndex, seed: int):
        self.ci = ci
        self.seed = seed
        self.errors: list = []
        self.log_lock = threading.Lock()
        #: (version, "insert"/"delete", handle, vector) — appended
        #: post-write; vector is None for deletes
        self.write_log: list = []
        #: (version, tuple(ids)) per completed query
        self.read_log: list = []

    def reader(self, tid: int) -> None:
        rng = np.random.default_rng(self.seed + tid)
        try:
            for _ in range(QUERIES_PER_READER):
                q = rng.normal(size=DIM)
                ids, dists, version = self.ci.query_versioned(
                    q, k=5, num_candidates=50
                )
                assert len(ids) == len(dists)
                assert np.all(np.diff(dists) >= 0), "results not sorted"
                with self.log_lock:
                    self.read_log.append((version, tuple(int(i) for i in ids)))
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            self.errors.append(exc)

    def writer(self, tid: int) -> None:
        rng = np.random.default_rng(self.seed + 100 + tid)
        mine: list = []  # handles this writer inserted and may delete
        try:
            for _ in range(OPS_PER_WRITER):
                if mine and rng.random() < 0.3:
                    handle = mine.pop(int(rng.integers(len(mine))))
                    version = self.ci.delete_versioned(handle)
                    with self.log_lock:
                        self.write_log.append((version, "delete", handle, None))
                else:
                    vector = rng.normal(size=DIM)
                    handle, version = self.ci.insert_versioned(vector)
                    mine.append(handle)
                    with self.log_lock:
                        self.write_log.append((version, "insert", handle, vector))
        except BaseException as exc:  # noqa: BLE001
            self.errors.append(exc)

    def run(self) -> None:
        threads = [
            threading.Thread(target=self.reader, args=(t,))
            for t in range(N_READERS)
        ] + [
            threading.Thread(target=self.writer, args=(t,))
            for t in range(N_WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
            assert not t.is_alive(), "stress thread deadlocked"


def _check_no_torn_reads(stress: _Stress) -> None:
    """Every returned id must have been live at the observed version."""
    # Versions totally order the writes (writers are serialized).
    events = sorted(stress.write_log, key=lambda e: e[0])
    assert len({v for v, _, _, _ in events}) == len(events), (
        "two writes produced the same version"
    )
    initial = set(range(N0))
    for version, ids in stress.read_log:
        live = set(initial)
        for wv, op, handle, _ in events:
            if wv > version:
                break
            if op == "insert":
                live.add(handle)
            else:
                live.discard(handle)
        torn = set(ids) - live
        assert not torn, (
            f"query at version {version} returned ids {torn} that were "
            "not live then"
        )


def _check_serial_replay(stress: _Stress, make_index) -> None:
    """Replaying the write log serially reproduces the final state."""
    replica = make_index()
    for _, op, handle, vector in sorted(stress.write_log, key=lambda e: e[0]):
        if op == "insert":
            got = replica.insert(vector)
            assert got == handle, (
                f"serial replay assigned handle {got}, concurrent run "
                f"assigned {handle}"
            )
        else:
            replica.delete(handle)
    rng = np.random.default_rng(999)
    probes = rng.normal(size=(20, DIM))
    got_ids, got_dists = stress.ci.batch_query(
        probes, k=8, num_candidates=80
    )
    want_ids, want_dists = replica.batch_query(probes, k=8, num_candidates=80)
    assert got_ids.tobytes() == want_ids.tobytes()
    assert got_dists.tobytes() == want_dists.tobytes()


def _run_stress(make_index) -> None:
    ci = ConcurrentIndex(make_index())
    stress = _Stress(ci, seed=42)
    stress.run()
    assert not stress.errors, f"thread raised: {stress.errors[:3]}"
    assert len(stress.read_log) == N_READERS * QUERIES_PER_READER
    assert len(stress.write_log) == N_WRITERS * OPS_PER_WRITER
    _check_no_torn_reads(stress)
    _check_serial_replay(stress, make_index)
    stats = ci.stats()
    assert stats["writes"] == len(stress.write_log)
    assert stats["reads"] >= len(stress.read_log)


def test_stress_dynamic_lccs():
    _run_stress(_make_dynamic)


# ----------------------------------------------------------------------
# Lock-layer units (fast, deterministic)
# ----------------------------------------------------------------------


def test_parallel_readers_share_the_lock():
    """Two readers hold the read lock at the same time."""
    from repro.serve.concurrency import RWLock

    lock = RWLock()
    both_in = threading.Barrier(2, timeout=10)

    def reader():
        with lock.read_locked():
            both_in.wait()  # only passes if the other reader is inside too

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()


def test_writer_excludes_readers_and_cannot_starve():
    """A waiting writer blocks new readers (write-intent queue)."""
    from repro.serve.concurrency import RWLock

    lock = RWLock()
    order: list = []
    reader_in = threading.Event()
    release_reader = threading.Event()

    def long_reader():
        with lock.read_locked():
            reader_in.set()
            release_reader.wait(timeout=10)
        order.append("reader-out")

    def writer():
        lock.acquire_write()
        order.append("writer")
        lock.release_write()

    def late_reader():
        with lock.read_locked():
            order.append("late-reader")

    t_read = threading.Thread(target=long_reader)
    t_read.start()
    assert reader_in.wait(timeout=10)
    t_write = threading.Thread(target=writer)
    t_write.start()
    import time as _time

    while lock._writers_waiting == 0:  # until the writer is queued
        _time.sleep(0.001)
    t_late = threading.Thread(target=late_reader)
    t_late.start()
    release_reader.set()
    for t in (t_read, t_write, t_late):
        t.join(timeout=10)
        assert not t.is_alive()
    # The late reader arrived while the writer was waiting, so the
    # writer must have gone first.
    assert order.index("writer") < order.index("late-reader")


def test_concurrent_index_rejects_static_writes():
    from repro import LCCSLSH

    rng = np.random.default_rng(0)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=0).fit(rng.normal(size=(50, 8)))
    ci = ConcurrentIndex(index)
    with pytest.raises(TypeError, match="insert"):
        ci.insert(np.zeros(8))
    with pytest.raises(TypeError, match="delete"):
        ci.delete(0)


def test_version_counts_writes():
    ci = ConcurrentIndex(_make_dynamic())
    assert ci.version == 0
    h, v1 = ci.insert_versioned(np.zeros(DIM))
    assert (h, v1) == (N0, 1)
    v2 = ci.delete_versioned(h)
    assert v2 == 2
    assert ci.stats() == {"reads": 0, "writes": 2, "version": 2}


# ----------------------------------------------------------------------
# Parallel readers on the compiled kernels
# ----------------------------------------------------------------------


def test_parallel_cext_readers_match_the_oracle():
    """Readers share the lock, and ctypes drops the GIL inside a kernel,
    so two ``cext`` queries really run at once.  What they share is
    per-index (the cached array addresses) and what they scribble on is
    per-thread (the merge's seen-epoch table) — a reader that saw
    another's scratch, or an address taken from a replaced array, would
    answer differently from the scalar oracle.  Each thread alternates
    between two indexes of different size (the table is sized by the
    largest, the epochs run across both), and the dynamic one is aged:
    several segments, so several CSAs per query.  More threads than
    cores, switch interval shortened, bounded in time."""
    import sys
    import time

    from helpers import assert_matches_oracle, oracle_query
    from repro import LCCSLSH, kernels

    if kernels.engine() is None:
        pytest.skip("the cext engine cannot be built here")
    rng = np.random.default_rng(77)
    static = LCCSLSH(dim=DIM, m=16, w=4.0, seed=5, backend="cext").fit(
        rng.normal(size=(700, DIM))
    )
    dynamic = DynamicLCCSLSH(
        dim=DIM, m=16, w=4.0, seed=5, backend="cext", memtable_size=16,
        max_segments=8,
    ).fit(rng.normal(size=(N0, DIM)))
    # 7 seals: the size-tiered policy keeps one segment per size tier
    # (base / 64 / 32 / 16), so four CSAs per query takes 112 inserts
    # where the merge-all policy's four equal seals took 48.
    for row in rng.normal(size=(120, DIM)):
        dynamic.insert(row)
    dynamic.delete(7)
    assert dynamic.segment_count >= 4
    queries = rng.normal(size=(24, DIM))
    cases = [
        (ConcurrentIndex(index), [oracle_query(index, q, 5) for q in queries])
        for index in (static, dynamic)
    ]
    assert static.kernel_backend == dynamic.kernel_backend == "cext"
    errors: list = []
    answered = [0] * 3
    deadline = time.monotonic() + 1.0

    def reader(tid: int) -> None:
        order = np.random.default_rng(tid).permutation(len(queries))
        try:
            while time.monotonic() < deadline:
                for qi in order:
                    for ci, want in cases:
                        assert_matches_oracle(
                            ci.query(queries[qi], k=5), want[qi], f"t{tid} single"
                        )
                        lo = min(qi, len(queries) - 3)
                        ids, dists = ci.batch_query(queries[lo:lo + 3], k=5)
                        for row in range(3):
                            found = ids[row] >= 0
                            assert_matches_oracle(
                                (ids[row][found], dists[row][found]),
                                want[lo + row], f"t{tid} batch",
                            )
                    answered[tid] += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(t,)) for t in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "reader deadlocked"
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]
    assert all(count > 0 for count in answered), answered
