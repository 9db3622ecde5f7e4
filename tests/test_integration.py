"""Cross-module integration tests: full pipelines on the paper datasets."""

import numpy as np
import pytest

from repro import LCCSLSH
from repro.baselines import E2LSH, FALCONN, LinearScan, MultiProbeLSH
from repro.data import compute_ground_truth, load_dataset
from repro.eval import evaluate, pareto_frontier, sweep, grid
from repro.serve import BundleError

from tests.helpers import average_recall


@pytest.fixture(scope="module")
def sift_small():
    ds = load_dataset("sift", n=1500, n_queries=12, seed=31)
    gt = compute_ground_truth(ds.data, ds.queries, k=10, metric="euclidean")
    return ds, gt


@pytest.fixture(scope="module")
def deep_small():
    ds = load_dataset("deep", n=1500, n_queries=12, seed=32)
    gt = compute_ground_truth(ds.data, ds.queries, k=10, metric="angular")
    return ds, gt


def test_lccs_lsh_beats_random_on_every_dataset():
    """On all five (simulated) paper datasets LCCS-LSH must find real NNs."""
    for name in ("msong", "sift", "gist", "glove", "deep"):
        ds = load_dataset(name, n=600, n_queries=6, seed=33)
        gt = compute_ground_truth(ds.data, ds.queries, k=5, metric="euclidean")
        scale = float(np.std(ds.data)) * np.sqrt(ds.dim) / 2 or 1.0
        index = LCCSLSH(
            dim=ds.dim, m=24, metric="euclidean", w=scale, seed=1
        ).fit(ds.data)
        rec = average_recall(index, ds.queries, gt, k=5, num_candidates=120)
        # 120/600 random candidates would give recall ~0.2
        assert rec >= 0.5, (name, rec)


def test_euclidean_pipeline_ranks_methods(sift_small):
    """LCCS-LSH should reach high recall with far fewer candidates than n."""
    ds, gt = sift_small
    w = 130.0
    lccs = evaluate(
        LCCSLSH(dim=ds.dim, m=32, w=w, seed=2),
        ds.data, ds.queries, gt, k=10,
        query_kwargs={"num_candidates": 150},
    )
    exact = evaluate(LinearScan(dim=ds.dim), ds.data, ds.queries, gt, k=10)
    assert lccs.recall >= 0.8
    assert lccs.stats["candidates"] < 0.25 * ds.n
    assert exact.recall == 1.0


def test_angular_pipeline_all_methods(deep_small):
    ds, gt = deep_small
    methods = {
        "lccs": LCCSLSH(dim=ds.dim, m=32, metric="angular", cp_dim=16, seed=3),
        "mp": LCCSLSH(dim=ds.dim, m=32, metric="angular", cp_dim=16, seed=3),
        "falconn": FALCONN(dim=ds.dim, K=1, L=8, n_probes=24, cp_dim=16, seed=3),
        "e2lsh-cp": E2LSH(dim=ds.dim, K=1, L=8, metric="angular", cp_dim=16, seed=3),
    }
    recalls = {}
    for name, idx in methods.items():
        kw = {"lccs": {"num_candidates": 150},
              "mp": {"num_candidates": 150, "n_probes": 33}}.get(name, {})
        res = evaluate(idx, ds.data, ds.queries, gt, k=10, query_kwargs=kw)
        recalls[name] = res.recall
    assert recalls["lccs"] >= 0.75
    assert recalls["mp"] >= recalls["lccs"] - 0.05
    assert all(r > 0.2 for r in recalls.values()), recalls


def test_sweep_produces_usable_frontier(sift_small):
    ds, gt = sift_small
    results = sweep(
        lambda m: LCCSLSH(dim=ds.dim, m=m, w=130.0, seed=4),
        grid(m=[16, 32]),
        ds.data, ds.queries, gt, k=10,
        query_grid=grid(num_candidates=[30, 120, 400]),
    )
    frontier = pareto_frontier(results)
    assert 1 <= len(frontier) <= len(results)
    recalls = [r.recall for r in frontier]
    assert recalls == sorted(recalls)
    assert frontier[-1].recall >= 0.85


def test_multiprobe_saves_memory_for_same_recall(sift_small):
    """Paper §6.4 'Indexing Performance': MP reaches the recall of a larger
    single-probe index while holding a smaller one (smaller m)."""
    ds, gt = sift_small
    big = LCCSLSH(dim=ds.dim, m=64, w=130.0, seed=5).fit(ds.data)
    small_mp = LCCSLSH(dim=ds.dim, m=16, w=130.0, seed=5).fit(ds.data)
    rec_big = average_recall(big, ds.queries, gt, k=10, num_candidates=100)
    rec_small = average_recall(
        small_mp, ds.queries, gt, k=10, num_candidates=100, n_probes=65
    )
    assert small_mp.index_size_bytes() < big.index_size_bytes()
    assert rec_small >= rec_big - 0.12


def test_mixed_serialization(tmp_path, sift_small):
    """Every served index type survives a save/load round trip; the
    hash-table baselines are refused, leaving nothing on disk."""
    ds, gt = sift_small
    indexes = [
        (LCCSLSH(dim=ds.dim, m=16, w=130.0, seed=6), {}),
        (LCCSLSH(dim=ds.dim, m=16, w=130.0, seed=6), {"n_probes": 17}),
        (LinearScan(dim=ds.dim), {}),
    ]
    q = ds.queries[0]
    for i, (idx, kw) in enumerate(indexes):
        idx.fit(ds.data)
        want = idx.query(q, k=5, **kw)[0].tolist()
        path = tmp_path / f"{i}_{idx.name.replace(' ', '_')}.bundle"
        idx.save(str(path))
        loaded = type(idx).load(str(path))
        assert loaded.query(q, k=5, **kw)[0].tolist() == want
    for idx in (
        E2LSH(dim=ds.dim, K=4, L=8, w=130.0, seed=6),
        MultiProbeLSH(dim=ds.dim, K=4, L=4, w=130.0, n_probes=16, seed=6),
    ):
        path = tmp_path / f"{type(idx).__name__}.bundle"
        with pytest.raises(BundleError, match=type(idx).__name__):
            idx.fit(ds.data).save(str(path))
        assert not path.exists()
