"""Observability overhead on the cached hot path: off vs sampled vs always.

The tracing plane's contract is that an *unsampled* request pays almost
nothing: ``start_trace`` is one counter decrement returning ``None``,
``span()`` is a shared no-op object, and the slow-query log is a single
float compare.  This bench pins that contract with numbers.

It drives the serving stack's per-request tracing surface exactly as
the TCP front door does — ``start_trace`` -> ``ANNService.query`` (a
cache hit, the hottest path the server has) -> ``Trace.finish`` ->
``observe_request`` — under three tracer configurations:

* ``off``      — ``sample=0`` (tracing disabled, the baseline);
* ``sampled``  — ``sample=100`` (production setting, 1 in 100 traced);
* ``always``   — ``sample=1``  (every request builds a span tree).

Methodology
-----------

Shared-container noise here swings whole-run QPS by 10-20 %, which
drowns a ~1 % effect in any direct off-vs-sampled comparison — so the
bench measures the two *components* of the sampled cost, both of which
are robustly measurable, and derives the sampled overhead from them:

1. ``traced_extra`` — the full cost of one traced request, from the
   off-vs-``always`` gap (a ~50 % signal, far above noise).  Both
   modes run as many short interleaved chunks in shuffled order
   (best-of converges: noise only ever slows a run down).
2. ``counter_extra`` — the per-request cost of the sampling decision
   itself, timed directly on ``start_trace`` (min over many tight
   loops; nanosecond-stable).

``derived sampled overhead = (counter_extra + traced_extra / 100)
/ base request time``.  The direct off-vs-sampled gap is reported too,
as context, with the caveat that it is noise-floor limited.

The acceptance budget: **derived sampled overhead < 2 %** vs off.
``always`` is allowed to cost real money; that is what sampling is
for.

Writes ``benchmarks/results/bench_obs_overhead.json`` and ``.md``.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--rounds 40]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
import timeit

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _results import environment, write_results  # noqa: E402
from repro import DynamicLCCSLSH  # noqa: E402
from repro.obs.tracing import get_tracer  # noqa: E402
from repro.serve import ANNService  # noqa: E402

DIM = 64
N = 4000
K = 10
#: the production sampling setting under test
SAMPLE = 100
#: the acceptance budget for the production sampling setting
SAMPLED_BUDGET = 0.02


def build_service() -> ANNService:
    rng = np.random.default_rng(7)
    index = DynamicLCCSLSH(dim=DIM, m=16, w=4.0, seed=3).fit(
        rng.normal(size=(N, DIM))
    )
    return ANNService(index, cache_size=256)


def run_mode(service: ANNService, queries: np.ndarray, sample: int) -> float:
    """QPS over cache-hit queries with the tracer at 1-in-``sample``.

    The loop body is the server's per-request tracing surface: sample
    decision, traced (or not) service query, root finish, slow-log
    check.  Every query in ``queries`` is pre-warmed into the result
    cache, so the work under test is probe + tracer bookkeeping.
    """
    tracer = get_tracer()
    tracer.reset()
    # slow threshold high: the slow log stays one float compare per
    # request (its always-on cost), never allocates entries
    tracer.configure(sample=sample, slow_threshold_s=10.0)
    n = len(queries)
    start = time.perf_counter()
    for i in range(n):
        q = queries[i]
        trace = tracer.start_trace("query", op="query")
        t0 = time.perf_counter()
        service.query(q, k=K, trace=trace)
        elapsed = time.perf_counter() - t0
        if trace is not None:
            trace.finish()
        tracer.observe_request("query", elapsed, trace=trace)
    total = time.perf_counter() - start
    tracer.reset()
    tracer.configure(sample=0)
    return n / total


def counter_cost_s() -> float:
    """Per-request cost of the sampling decision itself.

    ``start_trace`` on a request that is *not* traced: with sampling
    enabled it decrements the countdown; disabled it returns
    immediately.  Min over many tight loops is nanosecond-stable even
    on a noisy container.
    """
    tracer = get_tracer()
    number, repeat = 50_000, 9

    def loop():
        return tracer.start_trace("query", op="query")

    tracer.configure(sample=0)
    off = min(timeit.repeat(loop, number=number, repeat=repeat)) / number
    tracer.configure(sample=10**9)  # enabled, but (nearly) never fires
    on = min(timeit.repeat(loop, number=number, repeat=repeat)) / number
    tracer.configure(sample=0)
    return max(0.0, on - off)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chunk", type=int, default=2000,
        help="queries per timed chunk (short: rides one machine state)",
    )
    parser.add_argument(
        "--rounds", type=int, default=40,
        help="shuffled interleaved rounds; best chunk per mode wins",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if derived sampled overhead exceeds the 2%% budget",
    )
    args = parser.parse_args()

    service = build_service()
    rng = np.random.default_rng(13)
    # a small rotating set of distinct queries, all warmed into the cache
    pool = rng.normal(size=(64, DIM))
    for q in pool:
        service.query(q, k=K)
    queries = pool[np.arange(args.chunk) % len(pool)]

    modes = [("off", 0), ("sampled", SAMPLE), ("always", 1)]
    best = {name: 0.0 for name, _ in modes}
    run_mode(service, queries, 0)  # warm-up
    order_rng = random.Random(0xC0FFEE)
    for r in range(args.rounds):
        # shuffled interleave: thermal/frequency drift and position-in-
        # round effects hit all modes equally
        order = list(modes)
        order_rng.shuffle(order)
        for name, sample in order:
            best[name] = max(best[name], run_mode(service, queries, sample))
        if (r + 1) % 10 == 0:
            print(
                f"round {r + 1}/{args.rounds}: "
                + " ".join(f"{n}={best[n]:.0f}" for n, _ in modes),
                file=sys.stderr,
            )
    counter_s = counter_cost_s()
    service.close()

    base_s = 1.0 / best["off"]
    traced_extra_s = max(0.0, 1.0 / best["always"] - base_s)
    derived = (counter_s + traced_extra_s / SAMPLE) / base_s
    direct = {name: 1.0 - best[name] / best["off"] for name, _ in modes}
    payload = {
        "workload": {
            "n": N, "dim": DIM, "k": K, "chunk": args.chunk,
            "rounds": args.rounds, "cache": "hit (hot path)",
        },
        "environment": environment(),
        "qps": best,
        "base_request_us": base_s * 1e6,
        "traced_request_extra_us": traced_extra_s * 1e6,
        "sampling_decision_ns": counter_s * 1e9,
        "direct_overhead_vs_off": direct,
        "derived_sampled_overhead": derived,
        "sampled_budget": SAMPLED_BUDGET,
        "sampled_within_budget": derived < SAMPLED_BUDGET,
    }
    lines = [
        "# Observability overhead on the cached hot path",
        "",
        f"Workload: cache-hit queries (n={N}, d={DIM}, k={K}), "
        f"best of {args.rounds} shuffled interleaved "
        f"{args.chunk}-query chunks per mode.",
        "",
        "| mode | sampling | QPS | direct overhead vs off |",
        "|---|---|---|---|",
    ]
    for name, sample in modes:
        rate = {0: "off", 1: "1/1"}.get(sample, f"1/{sample}")
        lines.append(
            f"| {name} | {rate} | {best[name]:.0f} | "
            f"{direct[name] * 100:+.2f}% |"
        )
    lines += [
        "",
        f"Components: base request {base_s * 1e6:.2f} us; a traced "
        f"request adds {traced_extra_s * 1e6:.2f} us (from the "
        f"off-vs-always gap); the sampling decision itself costs "
        f"{counter_s * 1e9:.0f} ns per request.",
        "",
        f"**Derived sampled (1/{SAMPLE}) overhead: "
        f"{derived * 100:.2f}%** = (decision + traced/{SAMPLE}) / base. "
        "The direct off-vs-sampled gap above is reported for context "
        "only — it sits at this container's run-to-run noise floor "
        "(single-run QPS swings 10-20%), which is why the budget is "
        "asserted on the component-derived number.",
        "",
        f"Budget: sampled overhead must stay under "
        f"{SAMPLED_BUDGET * 100:.0f}% — "
        + ("**met**." if payload["sampled_within_budget"] else "**MISSED**."),
    ]
    json_path, md_path = write_results(
        "obs_overhead", payload, "\n".join(lines)
    )
    print("\n".join(lines))
    print(f"\nwrote {json_path}\nwrote {md_path}", file=sys.stderr)
    if args.check and not payload["sampled_within_budget"]:
        print(
            f"FAIL: derived sampled overhead {derived * 100:.2f}% "
            f"exceeds the {SAMPLED_BUDGET * 100:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
