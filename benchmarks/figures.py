"""Shared method sweeps behind Figures 4-7.

Figures 4/5 (time-recall curves) and Figures 6/7 (indexing trade-offs)
read different projections of the *same* parameter sweeps, so the sweeps
are run once per (dataset, metric) and cached for the whole benchmark
session.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from repro import LCCSLSH
from repro.baselines import C2LSH, E2LSH, FALCONN, MultiProbeLSH, QALSH, SRS
from repro.eval import EvalResult, grid, sweep

from conftest import get_bundle, suggest_w

#: method order used in the paper's Euclidean figures
EUCLIDEAN_METHODS = (
    "LCCS-LSH", "MP-LCCS-LSH", "E2LSH", "Multi-Probe LSH", "C2LSH", "SRS", "QALSH",
)
#: method order used in the paper's Angular figures
ANGULAR_METHODS = ("LCCS-LSH", "MP-LCCS-LSH", "E2LSH", "FALCONN", "C2LSH")


def _euclidean_sweeps(dim: int, w: float, seed: int = 1):
    return {
        "LCCS-LSH": (
            lambda m: LCCSLSH(dim=dim, m=m, w=w, seed=seed),
            grid(m=[16, 64]),
            grid(num_candidates=[50, 200, 800]),
        ),
        "MP-LCCS-LSH": (
            lambda m: LCCSLSH(dim=dim, m=m, w=w, seed=seed),
            grid(m=[16]),
            grid(n_probes=[17, 65], num_candidates=[50, 200]),
        ),
        "E2LSH": (
            lambda K, L: E2LSH(dim=dim, K=K, L=L, w=w, seed=seed),
            [dict(K=4, L=16), dict(K=8, L=64)],
            grid(),
        ),
        "Multi-Probe LSH": (
            lambda K, L: MultiProbeLSH(dim=dim, K=K, L=L, w=w, seed=seed),
            [dict(K=8, L=8)],
            grid(n_probes=[32, 128]),
        ),
        "C2LSH": (
            lambda l: C2LSH(dim=dim, m=32, l=l, w=w / 2, beta=0.05, seed=seed),
            grid(l=[4, 8]),
            grid(),
        ),
        "QALSH": (
            lambda l: QALSH(dim=dim, m=32, l=l, w=1.0, beta=0.05, seed=seed),
            grid(l=[4, 8]),
            grid(),
        ),
        "SRS": (
            lambda c, max_fraction: SRS(
                dim=dim, d_proj=6, c=c, max_fraction=max_fraction, seed=seed
            ),
            [dict(c=1.5, max_fraction=0.1), dict(c=4.0, max_fraction=0.02)],
            grid(),
        ),
    }


def _angular_sweeps(dim: int, seed: int = 1, cp_dim: int = 16):
    return {
        "LCCS-LSH": (
            lambda m: LCCSLSH(dim=dim, m=m, metric="angular", cp_dim=cp_dim, seed=seed),
            grid(m=[16, 64]),
            grid(num_candidates=[50, 200, 800]),
        ),
        "MP-LCCS-LSH": (
            lambda m: LCCSLSH(
                dim=dim, m=m, metric="angular", cp_dim=cp_dim, seed=seed
            ),
            grid(m=[16]),
            grid(n_probes=[17, 65], num_candidates=[50, 200]),
        ),
        "E2LSH": (
            lambda K, L: E2LSH(
                dim=dim, K=K, L=L, metric="angular", cp_dim=cp_dim, seed=seed
            ),
            [dict(K=1, L=16), dict(K=2, L=64)],
            grid(),
        ),
        "FALCONN": (
            lambda: FALCONN(dim=dim, K=1, L=8, cp_dim=cp_dim, seed=seed),
            grid(),
            grid(n_probes=[8, 64, 256]),
        ),
        "C2LSH": (
            lambda l: C2LSH(
                dim=dim, m=32, l=l, metric="angular", cp_dim=cp_dim,
                beta=0.05, seed=seed,
            ),
            grid(l=[2, 4]),
            grid(),
        ),
    }


@lru_cache(maxsize=None)
def run_all_sweeps(dataset: str, metric: str) -> Dict[str, List[EvalResult]]:
    """All method sweeps for one dataset under one metric (cached)."""
    name, data, queries, gt = get_bundle(dataset, metric)
    dim = data.shape[1]
    if metric == "euclidean":
        sweeps = _euclidean_sweeps(dim, suggest_w(gt))
    else:
        sweeps = _angular_sweeps(dim)
    out: Dict[str, List[EvalResult]] = {}
    for method, (factory, build_grid, query_grid) in sweeps.items():
        out[method] = sweep(
            factory, build_grid, data, queries, gt, k=10, query_grid=query_grid
        )
    return out
