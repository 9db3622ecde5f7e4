"""Angular-distance search over text embeddings (GloVe-style workload).

Demonstrates the LSH-family-independence of the LCCS framework: the same
index machinery runs on the cross-polytope family for angular distance,
compared against FALCONN-style multi-probe tables — the paper's
Figure 5 setting.

Run:  python examples/text_embedding_search.py
"""

import numpy as np

from repro import LCCSLSH
from repro.baselines import FALCONN
from repro.data import compute_ground_truth, load_dataset
from repro.distances import normalize_rows
from repro.eval import evaluate, format_results


def main():
    ds = load_dataset("glove", n=5000, n_queries=15, seed=13)
    data = normalize_rows(ds.data)
    queries = normalize_rows(ds.queries)
    gt = compute_ground_truth(data, queries, k=10, metric="angular")
    print(f"simulated GloVe embeddings: n={len(data)}, d={ds.dim}\n")

    contenders = [
        (
            LCCSLSH(dim=ds.dim, m=64, metric="angular", cp_dim=16, seed=2),
            {"num_candidates": 200},
            {"m": 64},
        ),
        (
            LCCSLSH(dim=ds.dim, m=32, metric="angular", cp_dim=16, seed=2),
            {"num_candidates": 200, "n_probes": 33},
            {"m": 32, "#probes": 33},
        ),
        (
            FALCONN(dim=ds.dim, K=1, L=16, cp_dim=16, n_probes=64, seed=2),
            {},
            {"K": 1, "L": 16, "#probes": 64},
        ),
    ]
    results = []
    for index, query_kwargs, params in contenders:
        results.append(
            evaluate(
                index, data, queries, gt, k=10,
                query_kwargs=query_kwargs, params=params,
            )
        )
    print(format_results(results))

    # Show one concrete query end-to-end.
    index = contenders[0][0]
    ids, dists = index.query(queries[0], k=5, num_candidates=200)
    angles = np.degrees(dists)
    print("\ntop-5 for query 0 (angles in degrees):",
          [f"id={i} {a:.1f}deg" for i, a in zip(ids, angles)])


if __name__ == "__main__":
    main()
