"""Tuning under a memory budget: LCCS-LSH vs MP-LCCS-LSH (Figure 6 story).

A database operator has a fixed memory budget for the ANN index.  The
paper's claim (§6.4 Indexing Performance): at small budgets the
multi-probe scheme reaches the recall of a much larger single-probe
index by probing more.  Multi-probe is a query-time choice, so each m
builds one index and queries it both ways.

Run:  python examples/memory_budget_tuning.py
"""


from repro import LCCSLSH
from repro.data import compute_ground_truth, load_dataset
from repro.eval import evaluate, format_table


def main():
    ds = load_dataset("deep", n=5000, n_queries=15, seed=19)
    gt = compute_ground_truth(ds.data, ds.queries, k=10, metric="angular")
    rows = []
    for m in (8, 16, 32, 64):
        index = LCCSLSH(dim=ds.dim, m=m, metric="angular", cp_dim=16, seed=4)
        res_s = evaluate(
            index, ds.data, ds.queries, gt, k=10,
            query_kwargs={"num_candidates": 100},
        )
        res_m = evaluate(
            index, ds.data, ds.queries, gt, k=10,
            query_kwargs={"num_candidates": 100, "n_probes": 4 * m + 1},
        )
        rows.append(
            (
                m,
                f"{res_s.index_size_mb:.1f}",
                f"{res_s.recall:.1%}",
                f"{res_s.avg_query_time_ms:.2f}",
                f"{res_m.recall:.1%}",
                f"{res_m.avg_query_time_ms:.2f}",
            )
        )
    print(
        format_table(
            (
                "m", "size(MB)", "LCCS recall", "LCCS ms",
                "MP recall (4m+1 probes)", "MP ms",
            ),
            rows,
        )
    )
    print(
        "\nReading: at the smallest budgets the multi-probe column reaches "
        "recall the\nsingle-probe scheme only gets from a multiple of the "
        "memory — the paper's\nFigure 6 effect."
    )


if __name__ == "__main__":
    main()
