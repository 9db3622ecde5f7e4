"""``run.py --compare A.json B.json``: is B worse than A, beyond the bounds?

One row per workload x end-to-end metric with both values, both recorded
spreads, the bound and a verdict:

* ``regressed``  B is worse than A by more than the bound *and* by more
  than the wider of the two recorded spreads;
* ``unresolved`` the recorded spread is wider than the bound, so a change
  of the size the bound forbids could hide in the noise; or B is worse by
  more than the bound on a row where a run holds one sample and recorded
  no spread (``n/a``), so noise and regression cannot be told apart from
  this pair of files: repeat the runs;
* ``ok``         otherwise.

Exits 1 when any row regressed, so a CI lane can call it directly.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from metrics import END_TO_END, applies

#: the two files must describe the same experiment
_SAME = ("seconds", "seed")


class CompareError(ValueError):
    pass


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("quick"):
        raise CompareError(f"{path}: a --quick run is a smoke test, not a measurement")
    if doc.get("traced"):
        raise CompareError(f"{path}: a traced run carries tracing overhead; compare untraced runs")
    return doc


def verdict(
    name: str, a: float, b: float,
    spread_a: Optional[float], spread_b: Optional[float],
) -> Tuple[float, str]:
    """(how much worse B is than A, verdict); worse is positive."""
    metric = END_TO_END[name]
    worse = b - a if metric.better == "lower" else a - b
    if not metric.relative:
        # an absolute bound is on a count of failures: there is no noise to weigh
        return worse, "regressed" if worse > metric.bound else "ok"
    worse = worse / abs(a) if a else (0.0 if not worse else float("inf"))
    if spread_a is None or spread_b is None:
        return worse, "unresolved" if worse > metric.bound else "ok"
    noise = max(spread_a, spread_b)
    if worse > max(metric.bound, noise):
        return worse, "regressed"
    if noise > metric.bound:
        return worse, "unresolved"
    return worse, "ok"


def compare(a: dict, b: dict) -> List[dict]:
    for key in _SAME:
        if a["config"].get(key) != b["config"].get(key):
            raise CompareError(
                f"runs differ in {key}: {a['config'].get(key)} vs {b['config'].get(key)}"
            )
    rows = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            raise CompareError(f"workload {workload} missing from the second run")
        for name in END_TO_END:
            if not applies(name, workload):
                continue
            va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
            sa, sb = wa["spread"].get(name), wb["spread"].get(name)
            worse, word = verdict(name, va, vb, sa, sb)
            rows.append({
                "workload": workload, "metric": name, "a": va, "b": vb,
                "spread_a": sa, "spread_b": sb, "worse_by": worse,
                "bound": END_TO_END[name].bound,
                "relative": END_TO_END[name].relative, "verdict": word,
            })
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        "| workload | metric | A | B | spread A | spread B | worse by | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    def shown(spread: Optional[float]) -> str:
        return "n/a" if spread is None else f"{spread:.3f}"

    for row in rows:
        kind = "" if row["relative"] else " abs"
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['a']:.6g} | {row['b']:.6g} "
            f"| {shown(row['spread_a'])} | {shown(row['spread_b'])} | {row['worse_by']:+.4f} "
            f"| {row['bound']:g}{kind} | {row['verdict']} |"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    try:
        rows = compare(load(path_a), load(path_b))
    except CompareError as exc:
        print(f"compare: {exc}")
        return 2
    print(render(rows))
    counts = {word: sum(1 for r in rows if r["verdict"] == word)
              for word in ("ok", "unresolved", "regressed")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['regressed']} regressed")
    return 1 if counts["regressed"] else 0
