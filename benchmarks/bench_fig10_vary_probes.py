"""Paper Figure 10: impact of #probes for MP-LCCS-LSH (Sift, m fixed).

The paper fixes m = 128 and sweeps #probes over {1, m+1, 2m+1, 4m+1,
8m+1}; we use the same multiples at our scaled m.  Reproduction target:
probing buys recall at the high end (more candidates from a fixed
index) at the cost of per-query probing time, with #probes = 1
degenerating to LCCS-LSH.
"""

from __future__ import annotations

import pytest

from repro import LCCSLSH
from repro.eval import banner, format_curve, grid, pareto_frontier, sweep

from conftest import get_bundle, suggest_w

M = 32
PROBE_MULTIPLES = (0, 1, 2, 4, 8)  # #probes = mult * m + 1
CANDIDATES = (25, 100, 400)


@pytest.mark.parametrize("metric", ["euclidean", "angular"])
def test_fig10_impact_of_probes(metric, benchmark, reporter, capsys):
    name, data, queries, gt = get_bundle("sift", metric)
    dim = data.shape[1]
    if metric == "euclidean":
        index = LCCSLSH(dim=dim, m=M, w=suggest_w(gt), seed=1)
    else:
        index = LCCSLSH(dim=dim, m=M, metric="angular", cp_dim=16, seed=1)
    index.fit(data)
    lines = [
        banner(f"Figure 10 [sift-{metric}]: impact of #probes, MP-LCCS-LSH m={M}")
    ]
    recall_by_probes = {}
    for mult in PROBE_MULTIPLES:
        n_probes = mult * M + 1
        results = sweep(
            lambda: index,  # reuse the same fitted index
            grid(),
            data, queries, gt, k=10,
            query_grid=grid(
                num_candidates=list(CANDIDATES), n_probes=[n_probes]
            ),
        )
        frontier = pareto_frontier(results)
        points = [(r.recall * 100.0, r.avg_query_time_ms) for r in frontier]
        lines.append(format_curve(f"#probes={n_probes}", points))
        recall_by_probes[n_probes] = max(r.recall for r in results)
    reporter(f"fig10_sift_{metric}", "\n".join(lines), capsys)

    # More probes never lose recall at the top budget.
    probes_sorted = sorted(recall_by_probes)
    assert recall_by_probes[probes_sorted[-1]] >= recall_by_probes[1] - 0.02

    q = queries[0]
    benchmark(lambda: index.query(q, k=10, num_candidates=100, n_probes=M + 1))
