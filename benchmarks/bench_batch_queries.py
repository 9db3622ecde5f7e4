"""Batched vs. per-query throughput of the vectorised query engine.

Not a paper figure: this measures the batched query path introduced on
top of the reproduction (hash the whole query matrix at once, lock-step
CSA searches, lock-step merges with fused LCP computation, fused
candidate verification) against the per-query loop it replaces.

The headline check pins down the engine's contract at n=10k, m=64 and
500 queries: the batched path must return byte-identical (ids,
distances) to the loop while being at least 3x faster.  A sweep over n,
m and batch size shows how the speedup scales.

Results are archived in the repo convention —
``benchmarks/results/bench_batch_queries.json`` (machine-readable) and
``.md`` (summary).  Every row records which kernel
backend answered it (``REPRO_BACKEND`` selects; numpy is the default).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _results import environment, write_results

from repro import LCCSLSH
from repro.eval import banner, format_table

_COLLECTED: dict = {"headline": [], "shapes": [], "batch_sizes": []}


def _workload(n: int, dim: int, nq: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)), rng.normal(size=(nq, dim))


def _loop_vs_batch(index: LCCSLSH, queries: np.ndarray, k: int, repeats: int = 3):
    """Best-of-``repeats`` times plus both padded result matrices.

    Both paths are warmed up first (the engine's first call pays numpy
    allocation and page-fault costs) and each is timed ``repeats`` times
    taking the minimum — standard noise suppression on shared machines.
    """
    nq = len(queries)
    index.query(queries[0], k=k)
    index.batch_query(queries[: min(nq, 20)], k=k)
    loop_ids = np.full((nq, k), -1, dtype=np.int64)
    loop_dists = np.full((nq, k), np.inf)
    looped = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i, q in enumerate(queries):
            ids, dists = index.query(q, k=k)
            loop_ids[i, : len(ids)] = ids
            loop_dists[i, : len(dists)] = dists
        looped = min(looped, time.perf_counter() - t0)
    batched = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch_ids, batch_dists = index.batch_query(queries, k=k)
        batched = min(batched, time.perf_counter() - t0)
    return looped, batched, (loop_ids, loop_dists), (batch_ids, batch_dists)


@pytest.fixture(scope="module")
def collector():
    """Accumulate rows; archive json/md + trajectory at module teardown."""
    yield _COLLECTED
    if not any(_COLLECTED.values()):
        return
    env = environment()
    payload = {"environment": env, **_COLLECTED}
    md = ["# Batched query engine vs. per-query loop", ""]
    md.append(
        f"Environment: {env['cpu_model'] or 'unknown CPU'}, "
        f"{env['cpu_count']} core(s), Python {env['python']}, "
        f"numpy {env['numpy']}."
    )
    md.append(
        "\nEvery row's batched results are byte-identical to the "
        "per-query loop (asserted in-bench)."
    )

    def table(rows, keys, header):
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "---|" * len(header),
        ]
        for r in rows:
            cells = []
            for key in keys:
                val = r[key]
                cells.append(f"{val:.4g}" if isinstance(val, float) else str(val))
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    if _COLLECTED["headline"]:
        md.append("\n## Headline (n=10k, m=64, 500 queries)\n")
        md.append(table(
            _COLLECTED["headline"],
            ("n", "m", "queries", "backend", "loop_s", "batch_s",
             "speedup", "qps"),
            ("n", "m", "queries", "backend", "loop(s)", "batch(s)",
             "speedup", "QPS"),
        ))
    if _COLLECTED["shapes"]:
        md.append("\n## Shape sweep\n")
        md.append(table(
            _COLLECTED["shapes"],
            ("n", "m", "queries", "backend", "loop_s", "batch_s", "speedup"),
            ("n", "m", "queries", "backend", "loop(s)", "batch(s)", "speedup"),
        ))
    if _COLLECTED["batch_sizes"]:
        md.append("\n## Batch-size sweep (n=5k, m=32)\n")
        md.append(table(
            _COLLECTED["batch_sizes"],
            ("batch_size", "backend", "loop_s", "batch_s", "speedup", "qps"),
            ("batch size", "backend", "loop(s)", "batch(s)", "speedup", "QPS"),
        ))
    write_results("batch_queries", payload, "\n".join(md))


def test_batch_speedup_headline(collector, capsys):
    """n=10k, m=64, 500 queries: >= 3x faster, byte-identical results."""
    n, dim, nq, k = 10_000, 32, 500, 10
    data, queries = _workload(n, dim, nq, seed=123)
    index = LCCSLSH(dim=dim, m=64, w=4.0, seed=7).fit(data)
    looped, batched, (li, ld), (bi, bd) = _loop_vs_batch(index, queries, k)
    assert np.array_equal(li, bi), "batched ids diverge from the loop"
    assert np.array_equal(ld, bd), "batched distances diverge from the loop"
    speedup = looped / batched
    collector["headline"].append(
        {
            "n": n, "m": 64, "queries": nq, "backend": index.kernel_backend,
            "loop_s": looped, "batch_s": batched, "speedup": speedup,
            "qps": nq / batched,
        }
    )
    with capsys.disabled():
        print(
            "\n"
            + banner("Batched query engine — headline (LCCS-LSH)")
            + "\n"
            + format_table(
                ("n", "m", "queries", "backend", "loop(s)", "batch(s)",
                 "speedup", "QPS"),
                [(n, 64, nq, index.kernel_backend, looped, batched, speedup,
                  nq / batched)],
            )
        )
    assert speedup >= 3.0, f"batched path only {speedup:.2f}x faster"


@pytest.mark.parametrize("n,m", [(2_000, 16), (2_000, 64), (10_000, 16)])
def test_batch_speedup_vs_shape(n, m, collector, capsys):
    """Speedup across index shapes (smaller than the headline config)."""
    dim, nq, k = 32, 100, 10
    data, queries = _workload(n, dim, nq, seed=n + m)
    index = LCCSLSH(dim=dim, m=m, w=4.0, seed=11).fit(data)
    looped, batched, (li, ld), (bi, bd) = _loop_vs_batch(index, queries, k)
    assert np.array_equal(li, bi) and np.array_equal(ld, bd)
    collector["shapes"].append(
        {
            "n": n, "m": m, "queries": nq, "backend": index.kernel_backend,
            "loop_s": looped, "batch_s": batched, "speedup": looped / batched,
        }
    )
    with capsys.disabled():
        print(
            "\n"
            + format_table(
                ("n", "m", "queries", "backend", "loop(s)", "batch(s)",
                 "speedup"),
                [(n, m, nq, index.kernel_backend, looped, batched,
                  looped / batched)],
            )
        )
    assert batched < looped, "batching must not be slower"


def test_batch_speedup_vs_batch_size(collector, capsys):
    """Amortisation grows with batch size on one fixed index."""
    n, dim, m, k = 5_000, 32, 32, 10
    data, queries = _workload(n, dim, 500, seed=99)
    index = LCCSLSH(dim=dim, m=m, w=4.0, seed=13).fit(data)
    rows = []
    for nq in (10, 50, 200, 500):
        looped, batched, (li, ld), (bi, bd) = _loop_vs_batch(
            index, queries[:nq], k
        )
        assert np.array_equal(li, bi) and np.array_equal(ld, bd)
        rows.append((nq, looped, batched, looped / batched, nq / batched))
        collector["batch_sizes"].append(
            {
                "batch_size": nq, "backend": index.kernel_backend,
                "loop_s": looped, "batch_s": batched,
                "speedup": looped / batched, "qps": nq / batched,
            }
        )
    with capsys.disabled():
        print(
            "\n"
            + banner("Batched query engine — batch-size sweep (n=5k, m=32)")
            + "\n"
            + format_table(
                ("batch size", "loop(s)", "batch(s)", "speedup", "QPS"), rows
            )
        )
