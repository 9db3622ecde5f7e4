"""Paper Figure 8: query performance vs k over Sift (both metrics).

For k in {1, 2, 5, 10, 20, 50, 100} every method runs at a fixed
mid-range configuration; we print recall, ratio, and query time per k.
Reproduction target: all methods degrade gracefully with k (similar
slopes), ratios stay close to 1, and LCCS-LSH / MP-LCCS-LSH keep the
lowest query time at comparable recall.
"""

from __future__ import annotations

import pytest

from repro import LCCSLSH
from repro.baselines import C2LSH, E2LSH, FALCONN, MultiProbeLSH
from repro.data import compute_ground_truth
from repro.eval import banner, evaluate, format_table

from conftest import get_bundle, suggest_w

K_VALUES = (1, 2, 5, 10, 20, 50, 100)


def _euclidean_methods(dim, w):
    return {
        "LCCS-LSH": (
            LCCSLSH(dim=dim, m=32, w=w, seed=1),
            {"num_candidates": 200},
        ),
        "MP-LCCS-LSH": (
            LCCSLSH(dim=dim, m=32, w=w, seed=1),
            {"num_candidates": 200, "n_probes": 33},
        ),
        "E2LSH": (E2LSH(dim=dim, K=4, L=32, w=w, seed=1), {}),
        "Multi-Probe LSH": (
            MultiProbeLSH(dim=dim, K=8, L=8, w=w, n_probes=64, seed=1),
            {},
        ),
        "C2LSH": (C2LSH(dim=dim, m=32, l=6, w=w / 2, beta=0.05, seed=1), {}),
    }


def _angular_methods(dim):
    return {
        "LCCS-LSH": (
            LCCSLSH(dim=dim, m=32, metric="angular", cp_dim=16, seed=1),
            {"num_candidates": 200},
        ),
        "MP-LCCS-LSH": (
            LCCSLSH(dim=dim, m=32, metric="angular", cp_dim=16, seed=1),
            {"num_candidates": 200, "n_probes": 33},
        ),
        "E2LSH": (
            E2LSH(dim=dim, K=1, L=32, metric="angular", cp_dim=16, seed=1), {}
        ),
        "FALCONN": (
            FALCONN(dim=dim, K=1, L=8, cp_dim=16, n_probes=64, seed=1), {}
        ),
        "C2LSH": (
            C2LSH(dim=dim, m=32, l=3, metric="angular", cp_dim=16,
                  beta=0.05, seed=1),
            {},
        ),
    }


@pytest.mark.parametrize("metric", ["euclidean", "angular"])
def test_fig8_sensitivity_to_k(metric, benchmark, reporter, capsys):
    name, data, queries, _ = get_bundle("sift", metric)
    gt100 = compute_ground_truth(data, queries, k=100, metric=metric)
    dim = data.shape[1]
    if metric == "euclidean":
        methods = _euclidean_methods(dim, suggest_w(gt100))
    else:
        methods = _angular_methods(dim)
    for idx, _ in methods.values():
        idx.fit(data)
    rows = []
    per_method = {}
    for method, (idx, qkw) in methods.items():
        for k in K_VALUES:
            res = evaluate(idx, data, queries, gt100, k=k, query_kwargs=qkw)
            rows.append(
                (method, k, res.recall * 100.0, res.ratio, res.avg_query_time_ms)
            )
            per_method.setdefault(method, []).append(res)
    table = format_table(("method", "k", "recall%", "ratio", "time(ms)"), rows)
    reporter(
        f"fig8_sift_{metric}",
        banner(f"Figure 8 [sift-{metric}]: recall / ratio / query time vs k")
        + "\n" + table,
        capsys,
    )
    # Ratios must stay near 1 for the LCCS schemes at every k.
    for res in per_method["LCCS-LSH"]:
        assert res.ratio < 1.5

    idx, qkw = methods["LCCS-LSH"]
    q = queries[0]
    benchmark(lambda: idx.query(q, k=10, **qkw))
