"""Self-tests of the harness (not of ``repro``): run with

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They need no index and no real server: a stub JSON-lines server stands in.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import loadgen  # noqa: E402
import stats as st  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


async def _stub_server(delay_for):
    """In-order JSON-lines server; request number i is held ``delay_for(i)`` s."""
    counter = [0]

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            i = counter[0]
            counter[0] += 1
            delay = delay_for(i)
            if delay:
                await asyncio.sleep(delay)
            writer.write(b'{"pong": true}\n')
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    """No coordinated omission: 100 req/s, request 20 stalls the connection 200 ms."""

    async def scenario():
        server, port = await _stub_server(lambda i: 0.2 if i == 20 else 0.0)
        pipe = await loadgen.open_pipe("127.0.0.1", port)
        arrivals = [(i * 0.01, 0) for i in range(60)]
        log, _ = await loadgen.open_loop([pipe], arrivals, [b'{"ping": true}\n'])
        pipe.close()
        server.close()
        return log

    log = asyncio.run(scenario())
    assert len(log) == 60 and all(r.done is not None for r in log)
    by_due = sorted(log, key=lambda r: r.due)
    # The generator kept its schedule while the server stalled ...
    assert max(r.sent - r.due for r in by_due) < 0.05
    # ... so the requests due during the stall waited for it, and say so.
    assert by_due[20].latency_ms >= 195
    assert by_due[25].latency_ms >= 140      # due 50 ms into the stall
    assert by_due[35].latency_ms >= 40       # due 150 ms into the stall
    slow = sum(1 for r in by_due if r.latency_ms > 50)
    assert 14 <= slow <= 20
    assert by_due[10].latency_ms < 50 and by_due[55].latency_ms < 50


def test_closed_loop_never_exceeds_its_window():
    async def scenario():
        rng = np.random.default_rng(0)
        delays = rng.uniform(0, 0.002, size=4096).tolist()
        server, port = await _stub_server(lambda i: delays[i % len(delays)])
        pipes = [await loadgen.open_pipe("127.0.0.1", port) for _ in range(2)]
        sources = [loadgen.CyclicSource([b'{"ping": true}\n'], c, 2) for c in range(2)]
        log = await loadgen.closed_loop(
            pipes, sources, window=4, deadline=loadgen.perf_counter() + 0.5
        )
        for pipe in pipes:
            pipe.close()
        server.close()
        return pipes, log

    pipes, log = asyncio.run(scenario())
    assert len(log) > 50 and all(r.done is not None for r in log)
    assert [pipe.max_inflight for pipe in pipes] == [4, 4]


def test_schedules_repeat_for_a_seed_and_differ_across_seeds():
    def draw(seed):
        rng = np.random.default_rng(seed)
        return (
            loadgen.poisson_arrivals(rng, 300.0, 2.0).tolist(),
            loadgen.zipf_keys(rng, 4096, 500).tolist(),
            loadgen.op_schedule(rng, 2400, 2, 4, 512),
        )

    assert draw(7) == draw(7)
    a, b = draw(7), draw(8)
    assert a[0] != b[0] and a[1] != b[1] and a[2] != b[2]
    arrivals = np.asarray(a[0])
    assert np.all(np.diff(arrivals) > 0) and arrivals[-1] < 2.0
    assert 450 < len(arrivals) < 750


def test_op_schedule_targets_only_acknowledged_inserts():
    window = 4
    schedules = loadgen.op_schedule(np.random.default_rng(3), 2400, 2, window, 512)
    seen = set()
    for ops in schedules:
        assert len(ops) == 1200
        assert sum(1 for kind, _ in ops if kind == "i") == 300   # exactly 25%
        assert 50 <= sum(1 for kind, _ in ops if kind == "d") <= 60
        assert sum(1 for kind, _ in ops if kind == "p") > 50
        inserted_at, deleted_at = {}, {}
        for pos, (kind, ref) in enumerate(ops):
            if kind == "i":
                assert ref not in seen
                seen.add(ref)
                inserted_at[ref] = pos
            elif kind == "d":
                assert inserted_at[ref] <= pos - window and ref not in deleted_at
                deleted_at[ref] = pos
            elif kind == "p":
                assert inserted_at[ref] <= pos - window
                # never inside the window after its delete: outcome would be a race
                assert ref not in deleted_at or deleted_at[ref] <= pos - window
            else:
                assert 0 <= ref < 512


def test_supported_tail_needs_ten_samples_beyond():
    assert st.supported_tail(10_000) == 99.9
    assert st.supported_tail(9_999) == 99.0
    assert st.supported_tail(1_000) == 99.0
    assert st.supported_tail(999) == 95.0
    assert st.supported_tail(720) == 95.0        # the ~700 writes of mixed_rw
    assert st.supported_tail(200) == 95.0
    assert st.supported_tail(199) == 90.0
    assert st.supported_tail(99) is None


def test_spread_and_quartile_share():
    assert st.spread([90.0, 100.0, 110.0]) == pytest.approx(0.2)
    values = [float(v) for v in range(95, 105)]
    assert 0.04 < st.iqr_share(values) < 0.07


def test_good_decile_ignores_a_burst_that_slows_most_of_a_run():
    quiet = [3800.0 + 10 * i for i in range(20)]
    burst = quiet[:6] + [0.7 * v for v in quiet[6:]]      # 14 of 20 slices slowed by 30%
    assert st.good_decile(burst, "higher") == pytest.approx(st.good_decile(quiet, "higher"), rel=0.05)
    assert st.median(burst) < 0.75 * st.median(quiet)
    slow = [1.3 * v for v in quiet]
    assert st.good_decile(slow, "higher") == pytest.approx(1.3 * st.good_decile(quiet, "higher"))
    latencies = [8.0] * 6 + [11.0] * 14
    assert st.good_decile(latencies, "lower") == 8.0


def _result(qps=1000.0, spread=0.02, quick=False):
    e2e = {
        "setup_s": 2.0, "qps": qps, "query_p50_ms": 8.0, "query_p99_ms": 20.0,
        "within_slo_frac": 1.0, "recall_at_10": 0.68, "overall_ratio": 1.01,
        "server_rss_mb": 150.0, "index_bytes": 2e7, "failed_frac": 0.0,
        "write_p50_ms": 5.0, "write_p95_ms": 30.0,
    }
    workload = {"end_to_end": e2e, "spread": {"qps": spread, "query_p50_ms": 0.02}}
    return {
        "quick": quick, "traced": False,
        "config": {"seed": 1, "n": 10_000, "seconds": 10.0},
        "workloads": {"read_c32": copy.deepcopy(workload), "mixed_rw": copy.deepcopy(workload)},
    }


def test_compare_passes_identical_runs_and_flags_a_regression():
    base = _result()
    rows = compare.compare(base, copy.deepcopy(base))
    assert rows and all(row["verdict"] == "ok" for row in rows)
    # write metrics only exist where there are writes
    assert not any(r["workload"] == "read_c32" and r["metric"].startswith("write") for r in rows)
    assert any(r["workload"] == "mixed_rw" and r["metric"] == "write_p50_ms" for r in rows)

    slower = _result(qps=700.0)          # 30% fewer answers per second; the bound is 25%
    verdicts = {
        (r["workload"], r["metric"]): r["verdict"] for r in compare.compare(base, slower)
    }
    assert verdicts[("read_c32", "qps")] == "regressed"
    assert verdicts[("read_c32", "query_p50_ms")] == "ok"

    faster = _result(qps=1200.0)
    assert all(r["verdict"] == "ok" for r in compare.compare(base, faster))

    noisy = _result(qps=950.0, spread=0.3)   # spread wider than the 25% bound
    verdicts = {
        (r["workload"], r["metric"]): r["verdict"] for r in compare.compare(base, noisy)
    }
    assert verdicts[("read_c32", "qps")] == "unresolved"

    # One sample per run and no recorded spread: beyond the bound is
    # "unresolved" whichever file comes first, never "regressed".
    slow_setup = _result()
    slow_setup["workloads"]["mixed_rw"]["end_to_end"]["setup_s"] = 2.7
    for pair in ((base, slow_setup), (slow_setup, base)):
        words = [r["verdict"] for r in compare.compare(*pair)
                 if (r["workload"], r["metric"]) == ("mixed_rw", "setup_s")]
        assert words == ["unresolved" if pair[0] is base else "ok"]
    measured = copy.deepcopy(base), copy.deepcopy(slow_setup)
    for doc in measured:
        doc["workloads"]["mixed_rw"]["spread"]["setup_s"] = 0.05
    verdicts = {
        (r["workload"], r["metric"]): r["verdict"] for r in compare.compare(*measured)
    }
    assert verdicts[("mixed_rw", "setup_s")] == "regressed"

    failing = _result()
    failing["workloads"]["read_c32"]["end_to_end"]["failed_frac"] = 0.001
    verdicts = {
        (r["workload"], r["metric"]): r["verdict"] for r in compare.compare(base, failing)
    }
    assert verdicts[("read_c32", "failed_frac")] == "regressed"


def test_compare_refuses_quick_and_mismatched_runs(tmp_path):
    quick = tmp_path / "quick.json"
    quick.write_text(json.dumps(_result(quick=True)))
    with pytest.raises(compare.CompareError):
        compare.load(str(quick))
    other = _result()
    other["config"]["seconds"] = 40.0
    with pytest.raises(compare.CompareError):
        compare.compare(_result(), other)


def test_benchmark_json_matches_the_metric_table():
    path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside this checkout")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    contract = {name: m for name, m in END_TO_END.items() if m.contract}
    assert [m["name"] for m in doc["end_to_end"]] == list(contract)
    for row in doc["end_to_end"]:
        metric = contract[row["name"]]
        assert (row["unit"], row["better"], row["bound"]) == (metric.unit, metric.better, metric.bound)
        assert metric.relative and 0 < metric.bound <= 0.25
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
    for row in doc["per_layer"]:
        assert (row["unit"], row["better"]) == PER_LAYER[row["name"]]
