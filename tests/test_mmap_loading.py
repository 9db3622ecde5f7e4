"""Zero-copy loading: eager vs mmap equivalence and format regression.

The storage-engine contract this file pins down:

* ``load_index(path, mmap=True)`` reconstructs an index whose
  ``query``/``batch_query`` results are **byte-identical** to both the
  original index and an eager load — for LCCS (single- and
  multi-probe queries), Dynamic and QALSH indexes, including after ``insert``/``delete``-then-rebuild on
  the loaded copies (copy-on-write promotion).
* mmap-loaded arrays are read-only; the index never writes into them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH, LCCSLSH
from repro.baselines import LinearScan
from repro.serve import IndexSpec, load_index, read_manifest, save_index

DIM = 12
SEED = 7

BUILDERS = {
    "LCCSLSH": lambda: LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED),
    "LCCSLSH-probed": lambda: LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED),
    "DynamicLCCSLSH": lambda: DynamicLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED),
    "LinearScan": lambda: LinearScan(dim=DIM, seed=SEED),
}

#: query kwargs per builder (default: none)
QUERY_KWARGS = {"LCCSLSH-probed": {"n_probes": 9}}


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
    kwargs = QUERY_KWARGS.get(name, {})
    assert_same_answers(index, eager, queries, **kwargs)
    assert_same_answers(index, mapped, queries, **kwargs)


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
    # The CSA codes are the mapped array itself; the hash strings decode
    # from them.
    assert isinstance(mapped.csa.export_arrays()["doubled"].base, np.memmap)
    assert np.array_equal(mapped.hash_strings, index.hash_strings)


def test_mmap_load_skips_csa_rebuild(tmp_path, workload):
    """A bundle restores the CSA arrays instead of re-sorting."""
    data, _ = workload
    index = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    mapped = load_index(path, mmap=True)
    assert np.array_equal(mapped.csa.sorted_idx, index.csa.sorted_idx)
    assert np.array_equal(mapped.csa.next_link, index.csa.next_link)
    names = set(read_manifest(path)["array_index"])
    assert {
        "csa.doubled", "csa.offset", "csa.sorted_idx", "csa.next_link"
    } <= names
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


@pytest.mark.parametrize("name", ["DynamicLCCSLSH"])
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
