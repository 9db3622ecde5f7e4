"""LSM-tiered DynamicLCCSLSH: sustained-insert tail latency vs full rebuild.

The pre-LSM write path re-sorted the *entire* CSA whenever the insert
buffer crossed ``rebuild_threshold`` — an O(n) stall on one unlucky
insert.  The tiered write path seals the memtable into a small
immutable segment (O(memtable) work) and merges segments size-tiered:
a seal folds the newest segments together while the one before them is
under twice their rows, so compaction work follows the rows sealed and
the O(n) base is rewritten only once the data beside it rivals it —
on the write path (``inline``) or off it (``background``).

This bench fits a large base, then drives a sustained insert stream
through three configurations:

* ``rebuild``     — legacy behavior, kept bench-local
  (:class:`RebuildEverySeal`): every seal is a full O(n) rebuild;
* ``inline``      — seals are cheap; the size-tiered merges run
  synchronously on the write path;
* ``background``  — seals are cheap; merges run on the compaction
  thread and commit on a later write.

Per-insert wall-clock is recorded for every insert, so the p99/p99.9/max
columns show exactly what the stall looks like from a writer's point of
view, and ``amplification`` (``rows_rebuilt / inserts``, a count that
repeats exactly) says what the structure cost.  Acceptance: p99 at
n>=100k improves >=10x in the tiered modes vs ``rebuild``, and the
tiered modes stay under ``AMPLIFICATION_BOUND`` rows rebuilt per insert
(``--check`` exits non-zero otherwise, or on any failed identity rider).

Correctness riders (recorded as booleans in the payload):

* saturated queries against each tiered index are **byte-identical** to
  a reference twin that applied the same op stream and then fully
  rebuilt into a single CSA;
* a WAL'd workload with seals and compactions recovers byte-identically,
  and a log-shipping replica tracks the primary through compactions.

Writes ``benchmarks/results/bench_lsm.json`` + ``.md``.

Usage::

    PYTHONPATH=src python benchmarks/bench_lsm.py [--n 100000]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _results import environment, write_results  # noqa: E402

from repro import DynamicLCCSLSH, IndexSpec  # noqa: E402

DIM = 16
M = 16
W = 4.0
SEED = 7

#: rows rebuilt per insert a tiered mode may spend: one seal plus one
#: re-merge per doubling of the data beside the base (measured 2.7-4.3;
#: the merge-all policy this replaced read 35.6 on the e2e shape)
AMPLIFICATION_BOUND = 5.0


class RebuildEverySeal(DynamicLCCSLSH):
    """The pre-LSM write path: every seal is a full O(n) rebuild."""

    def _seal(self) -> None:
        self._rebuild()


MODES = (
    ("rebuild", dict(cls=RebuildEverySeal)),
    ("inline", dict(compaction="inline", max_segments=4)),
    ("background", dict(compaction="background", max_segments=4)),
)


def _make(mode_kwargs, memtable_size):
    mode_kwargs = dict(mode_kwargs)
    return mode_kwargs.pop("cls", DynamicLCCSLSH)(
        dim=DIM,
        m=M,
        w=W,
        seed=SEED,
        memtable_size=memtable_size,
        **mode_kwargs,
    )


def _percentiles_ms(lat_s: np.ndarray) -> dict:
    return {
        "p50_ms": float(np.percentile(lat_s, 50) * 1e3),
        "p99_ms": float(np.percentile(lat_s, 99) * 1e3),
        "p999_ms": float(np.percentile(lat_s, 99.9) * 1e3),
        "max_ms": float(lat_s.max() * 1e3),
    }


def run_mode(name, mode_kwargs, base, stream, memtable_size):
    index = _make(mode_kwargs, memtable_size)
    t0 = time.perf_counter()
    index.fit(base)
    fit_s = time.perf_counter() - t0
    latencies = np.empty(len(stream))
    t0 = time.perf_counter()
    for i, vec in enumerate(stream):
        t1 = time.perf_counter()
        index.insert(vec)
        latencies[i] = time.perf_counter() - t1
    stream_s = time.perf_counter() - t0
    # Commit every in-flight or still-due background merge before the
    # correctness checks and the amplification count.
    while index.drain_compaction(timeout=120.0):
        pass
    row = {
        "mode": name,
        "fit_s": round(fit_s, 3),
        "inserts": len(stream),
        "stream_s": round(stream_s, 3),
        "inserts_per_s": round(len(stream) / stream_s, 1),
        **{k: round(v, 3) for k, v in _percentiles_ms(latencies).items()},
        "seals": index.seals,
        "compactions": index.compactions,
        "rebuilds": index.rebuilds,
        "segments_final": index.segment_count,
        "rows_rebuilt": index.rows_rebuilt,
        "amplification": round(index.rows_rebuilt / len(stream), 2),
    }
    return index, row


def check_byte_identity(index, reference, queries, k=10) -> bool:
    cap = max(index.n, reference.n, 1)
    ids_a, dists_a = index.batch_query(queries, k=k, num_candidates=cap)
    ids_b, dists_b = reference.batch_query(queries, k=k, num_candidates=cap)
    return (
        ids_a.tobytes() == ids_b.tobytes()
        and dists_a.tobytes() == dists_b.tobytes()
    )


def check_durability(tmp_root) -> dict:
    """Small WAL'd workload with seals/compactions: recovery + replica."""
    from repro.serve import DurableIndex, Replica, recover

    spec = IndexSpec(
        "DynamicLCCSLSH",
        dim=DIM,
        m=M,
        w=W,
        seed=SEED,
        memtable_size=40,
        max_segments=3,
    )
    rng = np.random.default_rng(21)
    wal_dir = os.path.join(tmp_root, "wal")
    primary = DurableIndex(spec.build(), wal_dir, spec=spec)
    primary.fit(rng.normal(size=(400, DIM)))
    for i, vec in enumerate(rng.normal(size=(300, DIM))):
        primary.insert(vec)
        if i % 50 == 49:
            primary.delete(int(rng.integers(0, 400)))
        if i % 120 == 119:
            primary.flush()
            primary.compact()
    primary.wal.sync()
    queries = rng.normal(size=(8, DIM))

    recovered = recover(wal_dir).index
    out = {
        "recovery_byte_identical": check_byte_identity(
            recovered, primary.inner, queries
        ),
        "recovery_segments": recovered.tier_stats()["segments"],
        "primary_segments": primary.inner.tier_stats()["segments"],
    }
    replica = Replica(wal_dir)
    replica.catch_up()
    out["replica_byte_identical"] = check_byte_identity(
        replica.index, primary.inner, queries
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000, help="base rows")
    parser.add_argument(
        "--inserts", type=int, default=2_000, help="sustained insert count"
    )
    parser.add_argument(
        "--memtable", type=int, default=100, help="memtable rows per seal"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when a tiered mode exceeds AMPLIFICATION_BOUND or "
        "any byte-identity rider is false (the CI smoke)",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(SEED)
    base = rng.normal(size=(args.n, DIM))
    stream = rng.normal(size=(args.inserts, DIM))
    queries = rng.normal(size=(8, DIM))

    # Reference twin: same op stream, never seals, one final full rebuild.
    reference = DynamicLCCSLSH(
        dim=DIM, m=M, w=W, seed=SEED, memtable_size=10**9
    ).fit(base)
    for vec in stream:
        reference.insert(vec)
    reference._rebuild()

    rows = []
    identical = {}
    for name, mode_kwargs in MODES:
        print(f"[bench_lsm] mode={name} ...", flush=True)
        index, row = run_mode(name, mode_kwargs, base, stream, args.memtable)
        identical[name] = check_byte_identity(index, reference, queries)
        row["byte_identical"] = identical[name]
        rows.append(row)
        print(f"[bench_lsm]   {row}", flush=True)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        durability = check_durability(tmp)
    print(f"[bench_lsm] durability: {durability}", flush=True)

    baseline_p99 = next(r["p99_ms"] for r in rows if r["mode"] == "rebuild")
    for row in rows:
        row["p99_speedup_vs_rebuild"] = (
            round(baseline_p99 / row["p99_ms"], 1) if row["p99_ms"] else None
        )

    payload = {
        "workload": {
            "n_base": args.n,
            "inserts": args.inserts,
            "memtable_size": args.memtable,
            "dim": DIM,
            "m": M,
            "w": W,
            "seed": SEED,
        },
        "environment": environment(),
        "modes": rows,
        "durability": durability,
    }

    header = (
        "| mode | p50 ms | p99 ms | p99.9 ms | max ms | p99 speedup | "
        "seals | compactions | rebuilds | segs | rows rebuilt / insert | "
        "identical |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|---|\n"
    )
    lines = [
        f"| {r['mode']} | {r['p50_ms']} | {r['p99_ms']} | {r['p999_ms']} | "
        f"{r['max_ms']} | {r['p99_speedup_vs_rebuild']}x | {r['seals']} | "
        f"{r['compactions']} | {r['rebuilds']} | {r['segments_final']} | "
        f"{r['amplification']} | {r['byte_identical']} |"
        for r in rows
    ]
    md = (
        "# bench_lsm — sustained-insert tail latency, LSM tiers vs "
        "full rebuild\n\n"
        f"Base n={args.n}, dim={DIM}, m={M}; {args.inserts} sustained "
        f"inserts, memtable={args.memtable} rows.\n\n"
        + header
        + "\n".join(lines)
        + "\n\n'identical' = saturated queries byte-identical to a fully "
        "rebuilt single-CSA twin.\n\n"
        f"Durability riders: {durability}\n"
    )
    json_path, md_path = write_results("lsm", payload, md)
    print(f"[bench_lsm] wrote {json_path} and {md_path}", flush=True)
    if args.check:
        failures = [
            f"{r['mode']}: {r['amplification']} rows rebuilt per insert "
            f"(bound {AMPLIFICATION_BOUND})"
            for r in rows
            if r["mode"] != "rebuild" and r["amplification"] > AMPLIFICATION_BOUND
        ]
        failures += [
            f"{name}: not byte-identical" for name, ok in identical.items() if not ok
        ]
        failures += [
            f"durability: {key} is false"
            for key in ("recovery_byte_identical", "replica_byte_identical")
            if not durability[key]
        ]
        for failure in failures:
            print(f"[bench_lsm] FAIL {failure}", file=sys.stderr, flush=True)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
