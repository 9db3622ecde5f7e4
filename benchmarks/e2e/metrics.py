"""Names, units, directions and regression bounds of every metric.

``END_TO_END`` is what a client of the serving stack sees; ``--compare``
judges a later run against these bounds.  ``BENCHMARK.json`` at the
repository root carries the subset the driver's contract can express (a
metric there must exist on every workload and never be 0, and its bound
is a share of the parent's median); ``test_harness.py`` checks the two
stay in step.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

class Metric(NamedTuple):
    unit: str
    better: str                  # "higher" | "lower"
    bound: float
    relative: bool = True        # bound is a share of the baseline (else absolute)
    workloads: Optional[Tuple[str, ...]] = None     # None: all four
    contract: bool = True        # listed in BENCHMARK.json


END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25),
    "qps": Metric("ops/s", "higher", 0.25),
    "query_p50_ms": Metric("ms", "lower", 0.25),
    "query_p99_ms": Metric("ms", "lower", 0.25, contract=False),
    "within_slo_frac": Metric("share", "higher", 0.25),
    "recall_at_10": Metric("share", "higher", 0.09),
    "overall_ratio": Metric("ratio", "lower", 0.005),
    "server_rss_mb": Metric("MB", "lower", 0.25),
    "index_bytes": Metric("bytes", "lower", 0.01),
    "write_p50_ms": Metric("ms", "lower", 0.20, workloads=("mixed_rw",), contract=False),
    "write_p95_ms": Metric("ms", "lower", 0.25, workloads=("mixed_rw",), contract=False),
    "failed_frac": Metric("share", "lower", 0.0, relative=False, contract=False),
}

#: per-layer metrics every traced contract run prints: (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # the batch ladder (read_c32)
    "hashes.hash_us": ("us", "lower"),
    "core.csa.search_us": ("us", "lower"),
    "core.csa.merge_us": ("us", "lower"),
    "kernels.verify_us": ("us", "lower"),
    "core.lccs_lsh.batch32_us": ("us", "lower"),
    "core.lccs_lsh.candidates_per_query": ("count", "lower"),
    "core.lccs_lsh.useful_frac": ("share", "higher"),
    "serve.concurrency.read_tax_us": ("us", "lower"),
    "serve.service.batch32_us": ("us", "lower"),
    "serve.server.batch32_us": ("us", "lower"),
    # the single-query ladder (read_c2)
    "core.lccs_lsh.single_us": ("us", "lower"),
    "serve.concurrency.single_tax_us": ("us", "lower"),
    "serve.service.lone_query_us": ("us", "lower"),
    "serve.server.lone_query_rtt_us": ("us", "lower"),
    # cache and codec (zipf_open)
    "serve.cache.hit_us": ("us", "lower"),
    "serve.server.ping_rtt_us": ("us", "lower"),
    "serve.server.cached_query_rtt_us": ("us", "lower"),
    "serve.server.codec_tax_us": ("us", "lower"),
    # write path (mixed_rw)
    "core.dynamic.insert_us": ("us", "lower"),
    "core.dynamic.delete_us": ("us", "lower"),
    "core.dynamic.batch32_us": ("us", "lower"),
    "core.dynamic.batch32_aged_us": ("us", "lower"),
    "serve.concurrency.write_tax_us": ("us", "lower"),
    "serve.durability.insert_fsync_always_us": ("us", "lower"),
    "serve.durability.insert_fsync_off_us": ("us", "lower"),
    "serve.durability.recover_s": ("s", "lower"),
    # set-up, size, memory
    "core.lccs_lsh.fit_s": ("s", "lower"),
    "core.dynamic.fit_s": ("s", "lower"),
    "serve.persistence.save_s": ("s", "lower"),
    "serve.persistence.load_mmap_ms": ("ms", "lower"),
    "serve.persistence.bundle_bytes": ("bytes", "lower"),
    "obs.trace_overhead_frac": ("share", "lower"),
    # counters of the workload that ran (public stats op, timed phase)
    "serve.service.batches": ("count", "lower"),
    "serve.service.avg_batch_size": ("count", "higher"),
    "serve.cache.hit_ratio": ("share", "higher"),
    "serve.cache.evictions": ("count", "lower"),
    "serve.cache.invalidations": ("count", "lower"),
    "serve.server.query_mean_ms": ("ms", "lower"),
    "serve.client.tax_ms": ("ms", "lower"),
    "core.dynamic.seals": ("count", "lower"),
    "core.dynamic.compactions": ("count", "lower"),
    "core.dynamic.compaction_s": ("s", "lower"),
    "core.dynamic.segments_final": ("count", "lower"),
    "serve.durability.wal_bytes_per_write": ("bytes", "lower"),
    "serve.durability.fsyncs_per_write": ("count", "lower"),
    # client-observed tails of the workload that ran, without a bound (the
    # write ones are 0 where the workload has no writes)
    "client.query_p99_ms": ("ms", "lower"),
    "client.write_p50_ms": ("ms", "lower"),
    "client.write_p95_ms": ("ms", "lower"),
    # validity of the generator
    "loadgen.sched_lag_p99_ms": ("ms", "lower"),
    "loadgen.cpu_frac": ("share", "lower"),
    "loadgen.backlog_growth": ("share", "lower"),
}


def applies(name: str, workload: str) -> bool:
    workloads = END_TO_END[name].workloads
    return workloads is None or workload in workloads
