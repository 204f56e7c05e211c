"""Compare two result sets, one row per workload.

A result set is a results file the benchmark appends to (one JSON record
per run).  For every end-to-end metric both sides get their median with
quartiles over the untraced runs, and a verdict:

- improved:   the change wins at least nine tenths of the pairs (runs paired
              by seed, else by order; ties count for neither side) and the
              medians differ by more than the parent's quartile spread;
- worse:      the change's median is worse than the parent's by more than
              the metric's bound;
- unresolved: the parent's own spread is wider than the bound, unless every
              change run reads better than every parent run;
- unchanged:  otherwise.

Bounds come from BENCHMARK.json; per-command times take the bound of
``run_s``.  ``failed_frac`` is worse whenever the change fails more often.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _pairs(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    by_seed = {r["seed"]: r["metrics"][name]["value"] for r in parent}
    seeded = [(by_seed[r["seed"]], r["metrics"][name]["value"])
              for r in change if r["seed"] in by_seed]
    if len(seeded) == min(len(parent), len(change)):
        return seeded
    return [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(parent, change)]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (p_med - c_med)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * abs(p_med):
        return "worse"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_q3 - p_q1 > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def _summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_path: Path, change_path: Path, spec: dict) -> list[str]:
    declared = {m["name"]: m for m in spec["end_to_end"]}
    parent_runs, change_runs = load(parent_path), load(change_path)
    lines = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        names = [n for n in parent[0]["metrics"] if all(n in r["metrics"] for r in parent + change)]
        cells = []
        for name in names:
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            if name == "failed_frac":
                result = ("worse" if max(c) > max(p) else
                          "improved" if max(c) < max(p) else "unchanged")
            else:
                metric = declared.get(name, declared["run_s"])
                result = verdict(p, c, _pairs(parent, change, name), metric["bound"],
                                 metric["better"] == "lower")
            cells.append(f"{name} {_summary(p)} -> {_summary(c)} {result}")
        lines.append(f"{workload} (runs {len(parent)} vs {len(change)}): " + " | ".join(cells))
    return lines
