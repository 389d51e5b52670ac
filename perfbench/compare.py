"""Compare two result sets of the benchmark, one row per workload and metric.

A result set is a directory of the JSON files that untraced runs write
(``--out``).  Runs of the two sets are paired by workload and seed.  The
verdict follows the bounds in BENCHMARK.json and this rule: a change is
better only with at least MIN_PAIRS pairs, a win in at least WIN_SHARE of
them (ties count for neither side), and a median gap larger than the
parent's interquartile range.  It is worse when its median is worse than
the parent's by more than the bound.  When the parent's spread is wider
than the bound it is unresolved, unless every change run beats every
parent run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """{(workload, metric): {seed: value}} of the untraced runs in a directory."""
    out = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("trace") != 0:
            continue
        for metric, entry in doc["metrics"].items():
            out[(doc["workload"], metric)].setdefault(doc["seed"], entry["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _gain(parent_value, change_value, better):
    """How much better the change is; positive means better."""
    diff = parent_value - change_value
    return diff if better == "lower" else -diff


def verdict(parent, change, pairs, bound, better):
    """better | worse | unchanged | unresolved for one workload and metric.

    parent and change are lists of values; pairs is a list of
    (parent_value, change_value) taken on the same seed.
    """
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    scale = abs(p_med)
    if -_gain(p_med, c_med, better) > bound * scale:
        return "worse"
    all_better = all(_gain(p, c, better) > 0 for p in parent for c in change)
    if scale > 0 and iqr / scale > bound and not all_better:
        return "unresolved"
    wins = sum(1 for p, c in pairs if _gain(p, c, better) > 0)
    if _gain(p_med, c_med, better) > iqr:
        if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs):
            return "better"
        return "unresolved"
    return "unchanged"


def compare(parent_dir, change_dir, spec):
    """Rows of the comparison for every end-to-end metric of spec."""
    parent = load(parent_dir)
    change = load(change_dir)
    rows = []
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            p_runs, c_runs = parent.get(key, {}), change.get(key, {})
            if not p_runs or not c_runs:
                continue
            pairs = [(p_runs[s], c_runs[s]) for s in sorted(set(p_runs) & set(c_runs))]
            p_vals, c_vals = list(p_runs.values()), list(c_runs.values())
            wins = sum(1 for p, c in pairs if _gain(p, c, metric["better"]) > 0)
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "parent": (statistics.median(p_vals), *quartiles(p_vals), len(p_vals)),
                "change": (statistics.median(c_vals), *quartiles(c_vals), len(c_vals)),
                "pairs": len(pairs),
                "wins": wins,
                "verdict": verdict(p_vals, c_vals, pairs, metric["bound"], metric["better"]),
            })
    return rows


def format_rows(rows):
    header = (f"{'workload':<8} {'metric':<13} {'parent median [q1, q3] (n)':<38} "
              f"{'change median [q1, q3] (n)':<38} {'wins':>7}  verdict")
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = []
        for med, q1, q3, n in (r["parent"], r["change"]):
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({n}) {r['unit']}")
        lines.append(f"{r['workload']:<8} {r['metric']:<13} {cells[0]:<38} {cells[1]:<38} "
                     f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return "\n".join(lines)
