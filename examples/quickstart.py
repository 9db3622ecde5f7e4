"""Quickstart: build an LCCS-LSH index, query it, persist it.

Run:  python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

from repro import LCCSLSH
from repro.data import compute_ground_truth, load_dataset
from repro.eval import recall


def main():
    # 1. A workload: simulated SIFT descriptors (see repro.data.datasets).
    ds = load_dataset("sift", n=5000, n_queries=10, seed=7)
    print(f"dataset: {ds.name}, n={ds.n}, d={ds.dim}, queries={ds.n_queries}")

    # 2. Build the index.  `m` is the hash-string length — the single
    #    structural knob of LCCS-LSH.  `w` is the bucket width of the
    #    underlying random projection LSH family.
    gt = compute_ground_truth(ds.data, ds.queries, k=10, metric="euclidean")
    w = 2.0 * float(np.mean(gt.distances))  # a good default operating point
    index = LCCSLSH(dim=ds.dim, m=64, metric="euclidean", w=w, seed=0)
    index.fit(ds.data)
    print(f"built in {index.build_time:.2f}s, "
          f"index size {index.index_size_bytes() / 2**20:.1f} MB")

    # 3. Query.  `num_candidates` (the paper's lambda) trades accuracy
    #    for time: candidates are verified by true distance.
    total = 0.0
    for i, q in enumerate(ds.queries):
        ids, dists = index.query(q, k=10, num_candidates=200)
        total += recall(ids, gt.indices[i])
    print(f"recall@10 with 200/{ds.n} candidates: {total / ds.n_queries:.2%}")

    # 4. Persist and reload: a bundle is a directory (a JSON manifest
    #    plus one .npy file per array).
    path = os.path.join(tempfile.gettempdir(), "lccs_index.bundle")
    index.save(path)
    loaded = LCCSLSH.load(path)
    ids, dists = loaded.query(ds.queries[0], k=3, num_candidates=100)
    print(f"reloaded index answers: ids={ids.tolist()}, "
          f"dists={np.round(dists, 3).tolist()}")


if __name__ == "__main__":
    main()
