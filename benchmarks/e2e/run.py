"""End-to-end benchmark of the serving stack.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T
  --trace 0|1`` runs one workload and prints, as its last line, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` with the
  end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``)
  that ``BENCHMARK.json`` names.
* ``python3 benchmarks/e2e/run.py --seed S`` runs all four workloads with
  their slices interleaved round-robin, then the layer ladder and the cost
  ledger, prints every metric by name with its unit and writes the result
  file that ``--compare A.json B.json`` works on.

Everything is generated from the seed; nothing outside the checkout is
read or written (scratch lives under ``.bench_build/``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(HERE, "results")

DEFAULT_N = 10_000
DEFAULT_SECONDS = 20.0
QUICK_N = 5_000
QUICK_SECONDS = 5.0
#: the whole set-up is repeated and its median reported (once only in the
#: traced and --quick passes, whose results --compare refuses)
SETUP_REPS = 3
MAX_CPU_FRAC = 0.9
MAX_SCHED_LAG_MS = 5.0
LEDGER_TOLERANCE = (0.8, 1.2)


def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", default=None,
                   help="run one workload (driver mode); default: all four")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"timed seconds per workload, 20 slices (default {DEFAULT_SECONDS:g})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: record spans, parse replies inline; driver mode prints per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help=f"smoke run: n={QUICK_N}, {QUICK_SECONDS:g} s per workload; refused by --compare")
    p.add_argument("--out", default=None, help="result file of a full run")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "loadavg_before": list(os.getloadavg()),
    }


def check_generator(name: str, result: dict) -> None:
    """Abort rather than report numbers the generator itself limited."""
    from workloads import BenchAbort

    gen = result["loadgen"]
    if gen["loadgen.cpu_frac"] > MAX_CPU_FRAC:
        raise BenchAbort(
            f"{name}: generator-bound, loadgen.cpu_frac="
            f"{gen['loadgen.cpu_frac']:.2f} > {MAX_CPU_FRAC}"
        )
    if gen["loadgen.sched_lag_p99_ms"] > MAX_SCHED_LAG_MS:
        raise BenchAbort(
            f"{name}: generator late, loadgen.sched_lag_p99_ms="
            f"{gen['loadgen.sched_lag_p99_ms']:.2f} > {MAX_SCHED_LAG_MS}"
        )


async def rate_sweep(run) -> dict:
    """zipf_open at 150 and 600 req/s, one slice each; diagnostics, never end-to-end.

    Returns the p99 at each rate and, under ``in_slo``, the rates that met
    the latency limit without a growing backlog.
    """
    import stats as st
    from workloads import DIAGNOSTIC_RATES, SLO_MS

    out = {"in_slo": []}
    for rate in DIAGNOSTIC_RATES:
        sl = await run.slice(0, rate=rate)
        lat = [r.latency_ms for r in sl.log if r.done is not None]
        p99 = st.percentile(lat, 99)
        out[f"loadgen.zipf_open.r{rate:g}_p99_ms"] = p99
        if p99 <= SLO_MS and len(lat) == len(sl.log) and sl.backlog < 0.01:
            out["in_slo"].append(rate)
    return out


async def float_slice(run) -> dict:
    """read_c32 traffic with full-precision float queries, one slice; a diagnostic.

    The workloads send integer descriptors.  A float line is three times
    as long; parsing a burst of 32 of them outlasts the 2 ms batch window,
    the stragglers miss their batch and loop the single-query path.  The
    answers are not gated (they are other queries than the reference
    table's): only replies that carry ``ids`` are counted.
    """
    import loadgen
    from time import perf_counter
    from workloads import CONNECTIONS, float_lines

    lines = float_lines(run.cfg)
    sources = [loadgen.CyclicSource(lines, c, CONNECTIONS) for c in range(CONNECTIONS)]
    end = perf_counter() + run.cfg.slice_s
    log = await loadgen.closed_loop(run.pipes, sources, run.spec.window, deadline=end)
    answered = sum(
        1 for r in log if r.done is not None and r.done <= end and b'"ids"' in r.reply
    )
    return {"diag.read_c32.float_query_qps": answered / run.cfg.slice_s}


async def bench(cfg, names, driver_mode: bool) -> dict:
    import ladder as ladder_mod
    from spans import Recorder
    from workloads import OPEN_RATE, SLICES, SLO_MS, WORKLOADS, Run, build_index

    want_ladder = bool(cfg.trace) or not driver_mode
    recorder = Recorder()
    runs = [Run(WORKLOADS[name], cfg, recorder if cfg.trace else None) for name in names]
    out = {"workloads": {}, "ladder": {}, "diagnostics": {}, "recorder": recorder}
    try:
        for run in runs:
            await run.prepare(1 if cfg.trace or cfg.quick else SETUP_REPS)
        # Slices of all workloads interleaved A B C D A B C D ... so that
        # machine drift hits every workload alike.
        for i in range(SLICES):
            for run in runs:
                if i == 0:
                    await run.warmup()
                await run.timed_slice(i)
        for run in runs:
            # The diagnostic slices need the server, which finish() kills.
            sweep = None
            if run.spec.traffic == "open" and not driver_mode:
                sweep = await rate_sweep(run)
            if run.spec.name == "read_c32" and not driver_mode:
                out["diagnostics"].update(await float_slice(run))
            result = run.finish()
            check_generator(run.spec.name, result)
            out["workloads"][run.spec.name] = result
            if sweep is not None:
                in_slo = sweep.pop("in_slo")
                if (result["end_to_end"]["query_p99_ms"] <= SLO_MS
                        and not result["samples"]["failed"]):
                    in_slo.append(OPEN_RATE)
                sweep["loadgen.zipf_open.max_rate_in_slo"] = max(in_slo, default=0.0)
                out["diagnostics"].update(sweep)
        if want_ladder:
            static = next((r for r in runs if r.spec.bundle == "static"), None)
            data = (static or runs[0]).data
            index = static.index if static else build_index("static", cfg, data)
            out["ladder"] = await ladder_mod.run_ladder(cfg, index, data, recorder)
    finally:
        for run in runs:
            run.abandon()
    return out


def ledgers(out: dict) -> dict:
    """Cost ledgers of read_c2 and read_c32: ladder rows against 1e6/qps."""
    import ladder as ladder_mod

    result = {}
    for name, single in (("read_c2", True), ("read_c32", False)):
        workload = out["workloads"].get(name)
        if workload is None or not out["ladder"]:
            continue
        rows, coverage = ladder_mod.ledger(
            out["ladder"], workload["end_to_end"]["qps"],
            workload["layers"]["serve.service.avg_batch_size"], single,
        )
        low, high = LEDGER_TOLERANCE
        result[name] = {
            "rows_us": dict(rows),
            "per_request_us": 1e6 / workload["end_to_end"]["qps"],
            "coverage": coverage,
            "tolerance": [low, high],
            "resolved": low <= coverage <= high,
        }
    return result


def print_full(doc: dict) -> None:
    from metrics import END_TO_END, PER_LAYER

    for name, workload in doc["workloads"].items():
        print(f"\n== {name}: {workload['why']}")
        samples = workload["samples"]
        print(f"   attempted={samples['attempted']} failed={samples['failed']} "
              f"queries={samples['queries']} writes={samples['writes']} "
              f"(query tail supported up to p{samples['query_tail_supported_pct']})")
        for metric, value in workload["end_to_end"].items():
            spread = workload["spread"].get(metric)
            tail = f"  (spread {spread:.3f})" if spread is not None else ""
            print(f"{name}.{metric} = {value:.6g} {END_TO_END[metric].unit}{tail}")
        for metric, value in {**workload["layers"], **workload["loadgen"]}.items():
            print(f"{metric}.{name} = {value:.6g} {PER_LAYER[metric][0]}")
        for problem in workload["problems"]:
            print(f"   PROBLEM {problem}")
    if doc["ladder"]:
        print("\n== layer ladder (per query / per write)")
        for metric, value in doc["ladder"].items():
            print(f"{metric} = {value:.6g} {PER_LAYER[metric][0]}")
    for metric, value in doc["diagnostics"].items():
        print(f"{metric} = {value:.6g}")
    for name, led in doc["ledger"].items():
        print(f"\n== ledger.{name}: {led['per_request_us']:.1f} us per request (1e6/qps)")
        for row, value in led["rows_us"].items():
            print(f"   {row:45s} {value:10.1f} us")
        word = "" if led["resolved"] else "  *unresolved*"
        print(f"ledger.{name}.coverage = {led['coverage']:.3f} "
              f"(tolerance {led['tolerance'][0]}-{led['tolerance'][1]}){word}")


def contract_line(result: dict, ladder: dict, trace: bool) -> str:
    """The last line of a driver-mode run."""
    from metrics import END_TO_END, PER_LAYER

    samples = result["samples"]
    if trace:
        e2e = result["end_to_end"]
        values = {
            **ladder, **result["layers"], **result["loadgen"],
            "client.query_p99_ms": e2e["query_p99_ms"],
            "client.write_p50_ms": e2e.get("write_p50_ms", 0.0),
            "client.write_p95_ms": e2e.get("write_p95_ms", 0.0),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": metric.unit}
            for name, metric in END_TO_END.items() if metric.contract
        }
    return json.dumps({
        "correct": samples["failed"] == 0,
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(BUILD, exist_ok=True)
    # The C kernels compile on first use; keep the build inside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(BUILD, "repro-kernels")
    # One core for the server, one for the generator.  Left to the OS, the
    # server's threads wander over both cores and throughput swings by a
    # third between slices; a BLAS pool sized for two cores makes it worse.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = None
    if len(cpus) >= 2:
        server_cpu = cpus[0]
        os.sched_setaffinity(0, {cpus[1]})
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    from workloads import SLICES, WORKLOADS, BenchAbort, Config

    driver_mode = args.workload is not None
    if driver_mode and args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if driver_mode else list(WORKLOADS)
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    cfg = Config(
        seed=args.seed,
        n=QUICK_N if args.quick else DEFAULT_N,
        seconds=args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS),
        quick=args.quick,
        trace=bool(args.trace),
        workdir=workdir,
        env=env,
        server_cpu=server_cpu,
    )
    os.makedirs(workdir)
    env_doc = environment()
    env_doc["cpus"] = cpus
    env_doc["server_cpu"] = server_cpu
    try:
        out = asyncio.run(bench(cfg, names, driver_mode))
    except BenchAbort as exc:
        print(f"run.py: ABORT {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_doc["loadavg_after"] = list(os.getloadavg())

    recorder = out.pop("recorder")
    if cfg.trace:
        for name in names + ["ladder"]:
            path = os.path.join(RESULTS, f"spans_{name}.jsonl")
            count = recorder.write(path, trace_prefix=f"{name}-")
            print(f"{count} spans -> {os.path.relpath(path, ROOT)}")

    doc = {
        "schema": 1,
        "quick": cfg.quick,
        "traced": cfg.trace,
        "config": {"seed": cfg.seed, "n": cfg.n, "seconds": cfg.seconds,
                   "slices": SLICES, "workloads": names},
        "environment": env_doc,
        **out,
    }
    doc["ledger"] = ledgers(out)
    print_full(doc)
    failed = sum(w["samples"]["failed"] for w in doc["workloads"].values())
    if driver_mode:
        print(contract_line(doc["workloads"][names[0]], doc["ladder"], cfg.trace))
    else:
        tag = "_quick" if cfg.quick else ""
        path = args.out or os.path.join(RESULTS, f"run_seed{cfg.seed}{tag}.json")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"\nresult file: {path}")
    if failed:
        print(f"run.py: {failed} failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
