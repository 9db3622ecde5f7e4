"""The compiled engine against the scalar oracle: batched throughput.

Builds one LCCS-LSH index per workload, then answers the same query
batch twice — on the ``cext`` engine, and on the scalar path with the
engine detached (per-query bisections and heap merge, then
``ANNIndex._verify_batch``: the oracle, and what a host without a C
compiler runs) — asserting **byte-identical** (ids, dists) matrices
before timing is trusted.  Workloads:

* ``euclidean`` — float64 data, random-projection family (n=100k, d=64,
  m=64 by default).  The engine runs CSA bisection, the tournament
  merge, top-k selection and candidate gathering; the final float64
  reduction stays on the shared numpy einsum so distances are
  bit-exact.
* ``hamming`` — binary data, bit-sampling family.  Verification runs
  fully compiled over uint64 bit-packed rows with popcount.

Each run records the index's own per-stage wall-clock
(``stage_{hash,search,merge,verify}_s``) so the speedup is attributable
per stage.

Two last tables use random-projection strings (SIFT-like data, w=256:
the e2e bundle's family, 1-byte codes) and MinHash strings (8-byte
codes) at n=10k and ``--n``, m=64.  One times the engine's search and
merge (``search_merge``, 1 024 queries, the e2e budget of 109
candidates) with the CSA's code width ``W`` beside each row; the other
times the CSA build — the engine's ``csa_build`` against the
rank-doubling ``_build`` it replaces — asserting the two emit the same
bytes before either is timed.

Writes ``benchmarks/results/bench_kernels.json`` + ``.md``.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--n 100000]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _results import environment, write_results  # noqa: E402

from repro import LCCSLSH  # noqa: E402
from repro import kernels  # noqa: E402
from repro.core import CircularShiftArray  # noqa: E402
from repro.data.synthetic import sift_like  # noqa: E402
from repro.hashes.minhash import MinHashFamily  # noqa: E402
from repro.hashes.random_projection import RandomProjectionFamily  # noqa: E402

STAGES = ("hash", "search", "merge", "verify")
BUILD_FAMILIES = ("random_projection", "minhash")


def _build_index(workload: str, n: int, dim: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    if workload == "euclidean":
        data = rng.normal(size=(n, dim))
        queries = rng.normal(size=(200, dim))
        index = LCCSLSH(dim=dim, m=m, w=4.0, seed=7)
    elif workload == "hamming":
        data = rng.integers(0, 2, size=(n, dim)).astype(np.float64)
        queries = rng.integers(0, 2, size=(200, dim)).astype(np.float64)
        index = LCCSLSH(dim=dim, m=m, metric="hamming", seed=7)
    else:
        raise ValueError(workload)
    t0 = time.perf_counter()
    index.fit(data)
    return index, queries, time.perf_counter() - t0


def _time_path(index, queries, k: int, repeats: int):
    """Best-of-``repeats`` batch time + per-stage breakdown + results."""
    index.batch_query(queries[:20], k=k)  # warm-up (allocations, .so load)
    best = float("inf")
    stages = {}
    ids = dists = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ids, dists = index.batch_query(queries, k=k)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            stages = {
                s: float(index.last_stats.get(f"stage_{s}_s", 0.0))
                for s in STAGES
            }
    return best, stages, ids, dists


def bench_workload(
    workload: str, n: int, dim: int, m: int, k: int, repeats: int, seed: int
) -> dict:
    index, queries, build_s = _build_index(workload, n, dim, m, seed)
    nq = len(queries)
    engine = index.csa._engine
    rows = []
    for path in ("scalar", "cext"):
        index.csa._engine = engine if path == "cext" else None
        best, stages, ids, dists = _time_path(index, queries, k, repeats)
        if path == "scalar":
            ref_ids, ref_dists, ref_qps = ids, dists, nq / best
        else:
            assert np.array_equal(ids, ref_ids), (
                f"{path} ids diverge from the scalar path on {workload}"
            )
            assert np.array_equal(dists, ref_dists), (
                f"{path} dists diverge from the scalar path on {workload}"
            )
        rows.append(
            {
                "backend": path,
                "batch_seconds": best,
                "qps": nq / best,
                "speedup_vs_scalar": (nq / best) / ref_qps,
                "stages_s": stages,
                "byte_identical": True,
            }
        )
    index.csa._engine = engine
    return {
        "workload": {
            "name": workload,
            "n": n,
            "dim": dim,
            "m": m,
            "width": index.csa.width,
            "queries": nq,
            "k": k,
            "metric": index.metric,
            "build_seconds": build_s,
        },
        "backends": rows,
    }


def _family_strings(
    family: str, n: int, m: int, seed: int, data_seed: int = None
) -> np.ndarray:
    """``n`` hash strings of ``family`` (drawn with ``seed``) over data
    drawn with ``data_seed`` (default: ``seed``)."""
    data_seed = seed if data_seed is None else data_seed
    if family == "random_projection":
        data = sift_like(n, 128, seed=data_seed)
        return RandomProjectionFamily(128, m, w=256.0, seed=seed).hash(data)
    sets = np.random.default_rng(data_seed).random((n, 128)) < 0.1
    return MinHashFamily(128, m, seed=seed).hash(sets.astype(np.float64))


def bench_search_merge(
    family: str, n: int, m: int, repeats: int, seed: int
) -> dict:
    """The engine's search + merge over 1 024 queries, per query."""
    csa = CircularShiftArray(_family_strings(family, n, m, seed))
    queries = _family_strings(family, 1024, m, seed, data_seed=seed + 1)
    budget = int(np.ceil(np.sqrt(n))) + 9  # the e2e k=10 default lambda
    csa._batch_k_lccs_flat(queries[:64], budget)  # warm-up
    best = search = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, _, _, search_s = csa._batch_k_lccs_flat(queries, budget)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, search = elapsed, search_s
    per_query = 1e6 / len(queries)
    return {
        "family": family,
        "n": n,
        "m": m,
        "width": csa.width,
        "budget": budget,
        "search_us": search * per_query,
        "merge_us": (best - search) * per_query,
        "total_us": best * per_query,
    }


def _md_search_table(rows) -> str:
    lines = [
        "| family | n | m | W (bytes) | search (us/q) | merge (us/q) "
        "| search+merge (us/q) |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['family']} | {r['n']} | {r['m']} | {r['width']} | "
            f"{r['search_us']:.1f} | {r['merge_us']:.1f} | "
            f"{r['total_us']:.1f} |"
        )
    return "\n".join(lines)


def _best_of(fn, repeats: int):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_csa_build(family: str, n: int, m: int, repeats: int, seed: int) -> dict:
    """Engine build vs rank doubling on one family's strings; the two
    outputs are asserted byte-identical before timing is reported."""
    strings = _family_strings(family, n, m, seed)
    csa = CircularShiftArray(strings)
    engine_s, built = _best_of(lambda: csa._engine.csa_build(strings), repeats)
    numpy_s, fallback = _best_of(csa._build, repeats)
    for got, want in zip(built, fallback):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
            f"engine CSA build diverges from _build on {family} n={n}"
        )
    return {
        "family": family,
        "n": n,
        "m": m,
        "distinct_chars": int(len(np.unique(strings))),
        "engine_seconds": engine_s,
        "numpy_seconds": numpy_s,
        "speedup": numpy_s / engine_s,
        "byte_identical": True,
    }


def _md_build_table(rows) -> str:
    lines = [
        "| family | n | m | distinct chars | engine (ms) | numpy _build (ms) "
        "| speedup |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['family']} | {r['n']} | {r['m']} | {r['distinct_chars']} | "
            f"{r['engine_seconds'] * 1e3:.1f} | {r['numpy_seconds'] * 1e3:.1f} | "
            f"{r['speedup']:.1f}x |"
        )
    return "\n".join(lines)


def _md_table(section: dict) -> str:
    lines = [
        "| path | batch(s) | QPS | vs scalar | "
        "hash(ms) | W | search(ms) | merge(ms) | verify(ms) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in section["backends"]:
        st = r["stages_s"]
        lines.append(
            "| {backend} | {bs:.4f} | {qps:.0f} | {sp:.2f}x | "
            "{h:.1f} | {w} | {s:.1f} | {m:.1f} | {v:.1f} |".format(
                backend=r["backend"],
                w=section["workload"]["width"],
                bs=r["batch_seconds"],
                qps=r["qps"],
                sp=r["speedup_vs_scalar"],
                h=st["hash"] * 1e3,
                s=st["search"] * 1e3,
                m=st["merge"] * 1e3,
                v=st["verify"] * 1e3,
            )
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--m", type=int, default=64)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    env = environment()
    if kernels.engine() is None:
        print("the cext engine cannot be built here; nothing to compare")
        return 1

    sections = {}
    for workload in ("euclidean", "hamming"):
        print(f"\n== {workload}: n={args.n} d={args.dim} m={args.m} ==")
        section = bench_workload(
            workload, args.n, args.dim, args.m, args.k, args.repeats, args.seed
        )
        sections[workload] = section
        for r in section["backends"]:
            print(
                f"  {r['backend']:>6}: "
                f"{r['batch_seconds']:.4f}s  {r['qps']:.0f} QPS  "
                f"{r['speedup_vs_scalar']:.2f}x vs scalar"
            )

    search_rows = []
    print(f"\n== engine search + merge: m={args.m} ==")
    for n in sorted({10_000, args.n}):
        for family in BUILD_FAMILIES:
            row = bench_search_merge(family, n, args.m, args.repeats, args.seed)
            search_rows.append(row)
            print(
                f"  {family:>17} n={n} W={row['width']}: "
                f"search {row['search_us']:.1f} us/q  "
                f"merge {row['merge_us']:.1f} us/q"
            )

    build_rows = []
    print(f"\n== CSA build: m={args.m} ==")
    for n in sorted({10_000, args.n}):
        for family in BUILD_FAMILIES:
            row = bench_csa_build(family, n, args.m, args.repeats, args.seed)
            build_rows.append(row)
            print(
                f"  {family:>17} n={n}: engine {row['engine_seconds'] * 1e3:.1f} ms"
                f"  numpy {row['numpy_seconds'] * 1e3:.1f} ms"
                f"  {row['speedup']:.1f}x"
            )

    payload = {
        "environment": env,
        "workloads": sections,
        "search_merge": search_rows,
        "csa_build": build_rows,
    }

    md = ["# The cext engine against the scalar oracle — batched throughput", ""]
    md.append(
        f"Environment: {env['cpu_model'] or 'unknown CPU'}, "
        f"{env['cpu_count']} core(s), Python {env['python']}, "
        f"numpy {env['numpy']}."
    )
    md.append(
        "\nEvery engine row is byte-identical to the scalar path (asserted "
        "in-bench before timing is reported)."
    )
    for workload, section in sections.items():
        w = section["workload"]
        md.append(
            f"\n## {workload} (n={w['n']}, d={w['dim']}, m={w['m']}, "
            f"Q={w['queries']}, k={w['k']})\n"
        )
        md.append(_md_table(section))
        best = next(r for r in section["backends"] if r["backend"] == "cext")
        md.append(
            f"\nHeadline: the engine reaches **{best['qps']:.0f} QPS** "
            f"({best['speedup_vs_scalar']:.2f}x the scalar path) on a "
            f"single core."
        )
    md.append(
        f"\n## Engine search + merge (m={args.m}) by code width\n"
    )
    md.append(
        "`search_merge` over 1 024 queries, budget ceil(sqrt(n)) + 9 (the "
        f"e2e default at k=10), best of {args.repeats}; `W` is the bytes "
        "per stored character the CSA chose from the data. Random "
        "projection: SIFT-like data, d=128, w=256. MinHash: d=128 sets of "
        "density 0.1.\n"
    )
    md.append(_md_search_table(search_rows))
    md.append(
        f"\n## CSA build (m={args.m}): engine `csa_build` vs rank-doubling "
        "`_build`\n"
    )
    md.append(
        "Both outputs are asserted byte-identical before either is timed; "
        "best of "
        f"{args.repeats}. Random projection: SIFT-like data, d=128, w=256 "
        "(the e2e bundle's family). MinHash: d=128 sets of density 0.1.\n"
    )
    md.append(_md_build_table(build_rows))
    json_path, md_path = write_results("kernels", payload, "\n".join(md))
    print(f"\nwrote {json_path}\nwrote {md_path}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
