"""Zero-copy loading: eager vs mmap equivalence and format regression.

The storage-engine contract this file pins down:

* ``load_index(path, mmap=True)`` reconstructs an index whose
  ``query``/``batch_query`` results are **byte-identical** to both the
  original index and an eager load — for LCCS, MP-LCCS, Dynamic and
  Sharded indexes, including after ``insert``/``delete``-then-rebuild
  on the loaded copies (copy-on-write promotion).
* mmap-loaded arrays are read-only; the index never writes into them.
* ``load_shard`` opens a single shard of a sharded bundle, and the
  process fan-out path answers byte-identically to in-process fan-out.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH, LCCSLSH, MPLCCSLSH
from repro.baselines import QALSH
from repro.serve import (
    IndexSpec,
    ShardedIndex,
    load_index,
    load_shard,
    read_manifest,
    save_index,
)

DIM = 12
SEED = 7

BUILDERS = {
    "LCCSLSH": lambda: LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED),
    "MPLCCSLSH": lambda: MPLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED, n_probes=9),
    "DynamicLCCSLSH": lambda: DynamicLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED),
    "QALSH": lambda: QALSH(dim=DIM, m=8, l=2, w=1.0, beta=0.1, seed=SEED),
    "ShardedIndex": lambda: ShardedIndex(
        IndexSpec("LCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED),
        num_shards=3,
        parallel="serial",
    ),
    "ShardedDynamic": lambda: ShardedIndex(
        IndexSpec("DynamicLCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED),
        num_shards=2,
        parallel="serial",
    ),
}


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(1)
    return rng.normal(size=(180, DIM)), rng.normal(size=(6, DIM))


def assert_same_answers(a, b, queries, k=5, **kwargs):
    """Single and batched answers of ``a`` and ``b`` are byte-identical."""
    for q in queries:
        ids_a, dists_a = a.query(q, k=k, **kwargs)
        ids_b, dists_b = b.query(q, k=k, **kwargs)
        assert ids_a.tolist() == ids_b.tolist()
        assert dists_a.tolist() == dists_b.tolist()
    bids_a, bdists_a = a.batch_query(queries, k=k, **kwargs)
    bids_b, bdists_b = b.batch_query(queries, k=k, **kwargs)
    assert bids_a.tolist() == bids_b.tolist()
    assert bdists_a.tolist() == bdists_b.tolist()


# ----------------------------------------------------------------------
# Eager vs mmap equivalence for every index family
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_mmap_load_byte_identical(name, tmp_path, workload):
    data, queries = workload
    index = BUILDERS[name]().fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    eager = load_index(path)
    mapped = load_index(path, mmap=True)
    assert_same_answers(index, eager, queries)
    assert_same_answers(index, mapped, queries)


def test_mmap_arrays_are_readonly(tmp_path, workload):
    data, _ = workload
    index = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    mapped = load_index(path, mmap=True)
    # Zero-copy views over the on-disk maps, never writable.
    assert isinstance(mapped.csa.sorted_idx.base, np.memmap)
    assert not mapped.csa.sorted_idx.flags.writeable
    with pytest.raises(ValueError):
        mapped.csa.sorted_idx[0, 0] = 1
    # The hash strings are the left half of the mapped doubled array —
    # one physical copy, not a reconstruction.
    assert mapped.hash_strings.base is not None
    assert np.array_equal(mapped.hash_strings, index.hash_strings)


def test_mmap_load_skips_csa_rebuild(tmp_path, workload):
    """A v2 bundle restores the CSA arrays instead of re-sorting."""
    data, _ = workload
    index = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    mapped = load_index(path, mmap=True)
    assert np.array_equal(mapped.csa.sorted_idx, index.csa.sorted_idx)
    assert np.array_equal(mapped.csa.next_link, index.csa.next_link)
    names = set(read_manifest(path)["array_index"])
    assert {"csa.doubled", "csa.sorted_idx", "csa.next_link"} <= names
    assert "hash_strings" not in names  # derived, not duplicated


# ----------------------------------------------------------------------
# Copy-on-write promotion: updates on mmap-loaded dynamic indexes
# ----------------------------------------------------------------------

def _apply_updates(index, rng):
    """Insert/delete enough to force at least one rebuild; returns handles."""
    start_rebuilds = index.rebuilds if hasattr(index, "rebuilds") else None
    handles = [index.insert(rng.normal(size=DIM)) for _ in range(60)]
    index.delete(handles[3])
    index.delete(5)
    if start_rebuilds is not None:
        assert index.rebuilds > start_rebuilds  # the buffer overflowed
    return handles


@pytest.mark.parametrize("name", ["DynamicLCCSLSH", "ShardedDynamic"])
def test_mmap_insert_delete_rebuild_identical(name, tmp_path, workload):
    data, queries = workload
    index = BUILDERS[name]().fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    eager = load_index(path)
    mapped = load_index(path, mmap=True)
    for copy in (index, eager, mapped):
        handles = _apply_updates(copy, np.random.default_rng(11))
        assert handles[0] == len(data)  # handle sequence preserved
    assert_same_answers(eager, mapped, queries)
    assert_same_answers(index, mapped, queries)


def test_dynamic_mmap_promotes_store_on_insert(tmp_path, workload):
    data, _ = workload
    index = DynamicLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    mapped = load_index(path, mmap=True)
    assert not mapped._store.flags.writeable  # served straight off the map
    mapped.insert(np.zeros(DIM))
    assert mapped._store.flags.writeable  # promoted by the first write
    assert mapped.n == len(data) + 1


# ----------------------------------------------------------------------
# Hypothesis: random indexes and query sets, eager == mmap everywhere
# ----------------------------------------------------------------------

@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 90),
    dim=st.integers(3, 10),
    m=st.sampled_from([4, 8, 16]),
    k=st.integers(1, 8),
    n_queries=st.integers(1, 5),
    n_inserts=st.integers(0, 25),
    n_deletes=st.integers(0, 6),
)
def test_property_eager_mmap_identical(
    tmp_path_factory, seed, n, dim, m, k, n_queries, n_inserts, n_deletes
):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, dim))
    queries = rng.normal(size=(n_queries, dim))
    index = DynamicLCCSLSH(
        dim=dim, m=m, w=2.0, seed=seed % 1000, rebuild_threshold=0.2
    ).fit(data)
    path = str(tmp_path_factory.mktemp("prop") / "bundle")
    save_index(index, path)
    eager = load_index(path)
    mapped = load_index(path, mmap=True)
    for copy in (eager, mapped):
        op_rng = np.random.default_rng(seed + 1)
        for _ in range(n_inserts):
            copy.insert(op_rng.normal(size=dim))
        for i in range(min(n_deletes, n - 1)):
            copy.delete(i)
    assert_same_answers(eager, mapped, queries, k=k)


# ----------------------------------------------------------------------
# Torn writes
# ----------------------------------------------------------------------

def test_torn_resave_leaves_no_parseable_manifest(tmp_path, workload):
    """An in-place re-save drops the stale manifest before touching the
    arrays, so a crash mid-rewrite yields BundleError — never a load
    that silently pairs the old manifest with new payloads."""
    from repro.serve import BundleError
    from repro.serve.persistence import _write_arrays, export_index

    data, _ = workload
    path = str(tmp_path / "bundle")
    save_index(LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data), path)
    # Simulate the crash window of a re-save: manifest removed, new
    # arrays written, manifest never rewritten.
    os.remove(os.path.join(path, "manifest.json"))
    other = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED + 1).fit(data)
    _write_arrays(path, export_index(other)[1])
    with pytest.raises(BundleError, match="not a bundle"):
        load_index(path)


# ----------------------------------------------------------------------
# Shard-level loading and the bundle-backed process fan-out
# ----------------------------------------------------------------------

def test_load_shard_answers_like_the_inner_shard(tmp_path, workload):
    data, queries = workload
    index = BUILDERS["ShardedIndex"]().fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    for s, shard in enumerate(index.shards):
        for mmap in (False, True):
            loaded = load_shard(path, s, mmap=mmap)
            assert_same_answers(shard, loaded, queries)


def test_load_shard_rejects_bad_input(tmp_path, workload):
    from repro.serve import BundleError

    data, _ = workload
    sharded = BUILDERS["ShardedIndex"]().fit(data)
    flat = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    good = str(tmp_path / "good")
    bad = str(tmp_path / "bad")
    save_index(sharded, good)
    save_index(flat, bad)
    with pytest.raises(BundleError, match="out of range"):
        load_shard(good, 99)
    with pytest.raises(BundleError, match="not a fitted ShardedIndex"):
        load_shard(bad, 0)


def test_eager_load_keeps_thread_fanout(tmp_path, workload):
    """Without mmap the bundle fan-out must stay off: spinning worker
    processes that each privately re-load a shard would multiply RSS."""
    data, queries = workload
    built = ShardedIndex(
        IndexSpec("LCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED),
        num_shards=2,
        parallel="process",
    ).fit(data)
    path = str(tmp_path / "bundle")
    save_index(built, path)
    want = built.batch_query(queries, k=5)
    with load_index(path) as eager:  # no mmap
        assert not eager._bundle_mmap
        got = eager.batch_query(queries, k=5)
        assert eager._process_pool is None  # no worker pool was spun up
    assert got[0].tolist() == want[0].tolist()
    built.close()


def test_unreadable_bundle_detaches_fanout(tmp_path, workload):
    """Deleting the bundle under a mapped index degrades fan-out to the
    in-process shards instead of failing every batch_query."""
    import shutil

    data, queries = workload
    built = ShardedIndex(
        IndexSpec("LCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED),
        num_shards=2,
        parallel="process",
    ).fit(data)
    path = str(tmp_path / "bundle")
    save_index(built, path)
    want = built.batch_query(queries, k=5)
    with load_index(path, mmap=True) as mapped:
        shutil.rmtree(path)  # snapshot GC / redeploy under our feet
        got = mapped.batch_query(queries, k=5)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert mapped._bundle_path is None  # detached, not retried
        again = mapped.batch_query(queries, k=5)
        assert again[0].tolist() == want[0].tolist()
    built.close()


@pytest.mark.slow
def test_process_fanout_from_bundle_identical(tmp_path, workload):
    """parallel="process" fan-out workers load shards from the bundle
    path (mmapped) and answer byte-identically to in-process fan-out."""
    data, queries = workload
    built = ShardedIndex(
        IndexSpec("DynamicLCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED),
        num_shards=2,
        parallel="process",
    ).fit(data)
    path = str(tmp_path / "bundle")
    save_index(built, path)
    want_ids, want_dists = built.batch_query(queries, k=5)
    with load_index(path, mmap=True) as mapped:
        assert mapped._bundle_path is not None
        got_ids, got_dists = mapped.batch_query(queries, k=5)
        assert got_ids.tolist() == want_ids.tolist()
        assert got_dists.tolist() == want_dists.tolist()
        assert mapped.last_stats["shards"] == 2.0
        # A write invalidates the on-disk copy: fan-out must detach and
        # keep answering correctly from the in-process shards.
        mapped.insert(np.zeros(DIM))
        assert mapped._bundle_stale
        ref = load_index(path)
        ref.insert(np.zeros(DIM))
        got2 = mapped.batch_query(queries, k=5)
        want2 = ref.batch_query(queries, k=5)
        assert got2[0].tolist() == want2[0].tolist()
        assert got2[1].tolist() == want2[1].tolist()
        ref.close()
    built.close()


# ----------------------------------------------------------------------
# Durability integration: mmap recovery and replicas
# ----------------------------------------------------------------------

def test_recover_and_replica_mmap_identical(tmp_path, workload):
    from repro.serve import DurableIndex, Replica, SnapshotManager, recover

    data, queries = workload
    wal_dir = str(tmp_path / "wal")
    spec = IndexSpec("DynamicLCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED)
    snaps = SnapshotManager(wal_dir, keep=2, every_ops=40)
    primary = DurableIndex(spec.build(), wal_dir, fsync="off", snapshots=snaps,
                           spec=spec)
    primary.fit(data)
    rng = np.random.default_rng(3)
    for _ in range(50):
        primary.insert(rng.normal(size=DIM))
    primary.wal.sync()

    eager = recover(wal_dir)
    mapped = recover(wal_dir, mmap=True)
    assert mapped.snapshot_seq is not None  # bootstrapped from a snapshot
    assert mapped.applied_seq == eager.applied_seq == primary.applied_seq
    assert_same_answers(eager.index, mapped.index, queries)
    assert_same_answers(primary.inner, mapped.index, queries)

    replica = Replica(wal_dir, mmap=True)
    primary.insert(rng.normal(size=DIM))
    ids, dists = replica.batch_query(
        queries, k=5, min_version=primary.applied_seq
    )
    primary_ids, primary_dists = primary.inner.batch_query(queries, k=5)
    assert ids.tobytes() == primary_ids.tobytes()
    assert dists.tobytes() == primary_dists.tobytes()
    assert_same_answers(primary.inner, replica.index.inner, queries)
    primary.close()
