"""End-to-end tests for single-probe LCCS-LSH (paper §4.1)."""

import numpy as np
import pytest

from repro import LCCSLSH
from repro.data import binary_strings, compute_ground_truth, sparse_sets
from repro.hashes import HyperplaneFamily, RandomProjectionFamily

from tests.helpers import average_recall


def test_high_recall_on_clustered_euclidean(clustered):
    data, queries, gt = clustered
    index = LCCSLSH(dim=24, m=32, metric="euclidean", w=1.0, seed=0).fit(data)
    rec = average_recall(index, queries, gt, k=10, num_candidates=150)
    assert rec >= 0.9


def test_high_recall_on_clustered_angular(clustered_angular):
    data, queries, gt = clustered_angular
    index = LCCSLSH(dim=24, m=32, metric="angular", cp_dim=8, seed=0).fit(data)
    rec = average_recall(index, queries, gt, k=10, num_candidates=150)
    assert rec >= 0.9


def test_more_candidates_monotone_recall(clustered):
    """Larger lambda can only widen the verified set."""
    data, queries, gt = clustered
    index = LCCSLSH(dim=24, m=32, metric="euclidean", w=1.0, seed=1).fit(data)
    recalls = [
        average_recall(index, queries, gt, k=10, num_candidates=nc)
        for nc in (10, 50, 200, 800)
    ]
    assert all(recalls[i] <= recalls[i + 1] + 1e-9 for i in range(len(recalls) - 1))
    assert recalls[-1] >= 0.95


def test_exact_duplicate_query_found(clustered):
    data, _, _ = clustered
    index = LCCSLSH(dim=24, m=24, metric="euclidean", w=1.0, seed=2).fit(data)
    ids, dists = index.query(data[37], k=1, num_candidates=20)
    assert ids[0] == 37
    assert dists[0] == 0.0


def test_num_candidates_full_scan_equals_exact(clustered):
    """lambda = n degenerates to exact search (alpha = 0 row of Table 1)."""
    data, queries, gt = clustered
    index = LCCSLSH(dim=24, m=16, metric="euclidean", w=1.0, seed=3).fit(data)
    rec = average_recall(index, queries, gt, k=10, num_candidates=len(data))
    assert rec == 1.0


def test_hamming_metric(rng):
    data = binary_strings(400, 64, n_clusters=8, flip_prob=0.03, seed=1)
    queries = binary_strings(10, 64, n_clusters=8, flip_prob=0.03, seed=2)
    gt = compute_ground_truth(data, queries, k=5, metric="hamming")
    index = LCCSLSH(dim=64, m=48, metric="hamming", seed=4).fit(data)
    rec = average_recall(index, queries, gt, k=5, num_candidates=100)
    assert rec >= 0.5  # bit sampling is weak but must clearly beat random


def test_jaccard_metric():
    data = sparse_sets(300, 500, avg_size=24, n_clusters=6, seed=5)
    queries = data[:8] .copy()
    gt = compute_ground_truth(data, queries, k=5, metric="jaccard")
    index = LCCSLSH(dim=500, m=32, metric="jaccard", seed=6).fit(data)
    rec = average_recall(index, queries, gt, k=5, num_candidates=60)
    assert rec >= 0.6


def test_custom_family_injection(clustered_angular):
    """LSH-family-independence: inject a hyperplane family explicitly."""
    data, queries, gt = clustered_angular
    fam = HyperplaneFamily(24, 40, seed=7)
    index = LCCSLSH(dim=24, m=40, family=fam).fit(data)
    assert index.metric == "angular"
    rec = average_recall(index, queries, gt, k=10, num_candidates=200)
    assert rec >= 0.7


def test_family_shape_mismatch_rejected():
    fam = RandomProjectionFamily(10, 16, seed=0)
    with pytest.raises(ValueError):
        LCCSLSH(dim=10, m=32, family=fam)
    with pytest.raises(ValueError):
        LCCSLSH(dim=12, m=16, family=fam)


def test_validation_errors(clustered):
    data, queries, _ = clustered
    with pytest.raises(ValueError):
        LCCSLSH(dim=24, m=1)
    index = LCCSLSH(dim=24, m=8, seed=8)
    with pytest.raises(RuntimeError):
        index.query(queries[0], k=1)
    index.fit(data)
    with pytest.raises(ValueError):
        index.query(queries[0][:5], k=1)
    with pytest.raises(ValueError):
        index.query(queries[0], k=0)
    with pytest.raises(ValueError):
        index.query(queries[0], k=1, num_candidates=0)
    with pytest.raises(ValueError):
        index.fit(data[:, :5])


def test_stats_and_size(clustered):
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=16, metric="euclidean", w=1.0, seed=9).fit(data)
    assert index.index_size_bytes() > 0
    assert index.build_time > 0.0
    index.query(queries[0], k=3, num_candidates=30)
    assert index.last_stats["candidates"] >= 3
    assert 0 <= index.last_stats["max_lccs"] <= 16


def test_save_load_roundtrip(tmp_path, clustered):
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=16, metric="euclidean", w=1.0, seed=10).fit(data)
    want_ids, want_dists = index.query(queries[0], k=5, num_candidates=50)
    path = tmp_path / "index.pkl"
    index.save(str(path))
    loaded = LCCSLSH.load(str(path))
    got_ids, got_dists = loaded.query(queries[0], k=5, num_candidates=50)
    assert want_ids.tolist() == got_ids.tolist()
    assert np.allclose(want_dists, got_dists)


@pytest.mark.parametrize("dynamic", [False, True])
def test_vectors_too_large_to_hash_are_refused(dynamic):
    """``np.full(d, 1e200)`` used to answer made-up ids at ``inf``
    distance; a query, a fit and (dynamic) an insert of it raise, and the
    refused insert leaves no row behind for a later seal to trip on."""
    from repro import DynamicLCCSLSH

    rng = np.random.default_rng(0)
    data = rng.normal(size=(60, 16))
    kwargs = dict(dim=16, m=8, w=4.0, seed=1)
    make = (
        (lambda: DynamicLCCSLSH(memtable_size=2, **kwargs))
        if dynamic
        else (lambda: LCCSLSH(**kwargs))
    )
    index = make().fit(data)
    for value in (1e150, 1e200):
        huge = np.full(16, value)
        with pytest.raises(ValueError, match="int64 bucket range"):
            index.query(huge, k=3)
        with pytest.raises(ValueError, match="int64 bucket range"):
            index.batch_query(np.stack([data[0], huge]), k=3)
        with pytest.raises(ValueError, match="int64 bucket range"):
            make().fit(np.vstack([data, huge]))
        if dynamic:
            with pytest.raises(ValueError, match="int64 bucket range"):
                index.insert(huge)
    assert index.n == 60
    if dynamic:
        assert index.insert(data[1] + 1.0) == 60
        index.insert(data[2] + 1.0)  # fills the memtable: the seal succeeds
        assert index.tier_stats()["segment_rows"] == [60, 2]
    ids, _ = index.query(data[0], k=1)
    assert ids.tolist() == [0]
