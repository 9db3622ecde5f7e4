"""Shared result-file conventions for the standalone bench scripts.

Every ``benchmarks/bench_*.py`` that runs as a script (rather than under
pytest) archives its measurements in two files under
``benchmarks/results/``:

* ``bench_<name>.json`` — machine-readable payload (workload knobs,
  environment, raw numbers);
* ``bench_<name>.md`` — human-readable summary with markdown tables.

The repo's performance trajectory is not kept here: end-to-end numbers
come from ``benchmarks/e2e`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import os
import platform
from typing import Optional, Tuple

import numpy as np

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

__all__ = [
    "RESULTS_DIR",
    "environment",
    "write_results",
]


def _cpu_model() -> Optional[str]:
    """Processor model string from /proc/cpuinfo (None off-Linux)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    """Environment fingerprint embedded in every result file.

    Records the CPU model and core count explicitly because throughput
    claims (QPS, speedup-vs-numpy) are meaningless without them — a
    single-core container and a 32-core workstation are different
    experiments.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_results(name: str, payload: dict, markdown: str) -> Tuple[str, str]:
    """Write ``bench_<name>.json`` + ``bench_<name>.md``; return paths."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, f"bench_{name}.json")
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    md_path = os.path.join(RESULTS_DIR, f"bench_{name}.md")
    with open(md_path, "w", encoding="utf-8") as f:
        f.write(markdown if markdown.endswith("\n") else markdown + "\n")
    return json_path, md_path
