"""Per-layer metrics of a traced run, named as in BENCHMARK.json.

The layers are the blockpotts modules.  Every figure comes from spans the
benchmark recorded around its own calls into a module's public functions,
from counts it derived from those calls' inputs and outputs, or from
``python -X importtime``.  model and numutil have no entry point the
workloads call directly, so they are covered only through their callers.

Counts and busy times are per pass of the workload's operation list;
median latencies pool every traced pass; ``<layer>.failed`` counts failed
operations over the whole traced run.
"""

from __future__ import annotations

from spans import self_times, span_stats

LAYERS = ("glauber", "exact", "lsi", "equilibria", "rates", "cli")
CLI_COMMANDS = ("simulate", "exact", "lsi-check", "equilibria", "phase-diagram")
IMPORT_ROOTS = ("blockpotts", "scipy", "numpy")


def parse_importtime(text, roots=IMPORT_ROOTS):
    """Seconds spent importing each root package, from -X importtime output.

    Lines come in post-order (a module after everything it imported), with
    nesting shown by indentation.  A root's time is the sum of the
    cumulative times of its outermost modules, so scipy's share counts
    scipy.special once and not again for the scipy package inside it.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        name = name_field.strip()
        depth = len(name_field) - len(name_field.lstrip())
        entries.append((depth, name, int(cumulative) * 1e-6))
    out = {}
    for root in roots:
        total = 0.0
        ancestors = []
        for depth, name, seconds in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            matches = name == root or name.startswith(root + ".")
            if matches and not any(m for _, m in ancestors):
                total += seconds
            ancestors.append((depth, matches))
        out[root] = total
    return out


def per_layer_metrics(spans, counters, gauges, failed_by_layer, passes,
                      overhead_s, import_s):
    """Every per-layer metric of the traced run, keyed by metric name.

    spans and counters cover `passes` traced passes; a layer or function
    the workload never calls reports zero calls and zero time.
    """
    stats = span_stats(spans)
    passes = max(passes, 1)

    def calls(name):
        return stats[name].calls / passes if name in stats else 0.0

    def busy(name):
        return stats[name].busy_s / passes if name in stats else 0.0

    def p50(name):
        return stats[name].p50_s if name in stats else 0.0

    def count(name):
        return counters.get(name, 0.0) / passes

    def per_s(amount, *names):
        total = sum(busy(n) for n in names)
        return amount / total if total > 0.0 else 0.0

    m = {}
    m["glauber.run_chain.calls"] = calls("glauber.run_chain")
    m["glauber.run_chain.busy_s"] = busy("glauber.run_chain")
    m["glauber.run_chain.p50_s"] = p50("glauber.run_chain")
    m["glauber.updates"] = count("glauber.updates")
    m["glauber.updates_per_s"] = per_s(count("glauber.updates"), "glauber.run_chain")

    m["exact.exact_distribution.calls"] = calls("exact.exact_distribution")
    m["exact.exact_distribution.busy_s"] = busy("exact.exact_distribution")
    m["exact.support_points"] = count("exact.support_points")
    m["exact.points_per_s"] = per_s(count("exact.support_points"), "exact.exact_distribution")
    m["exact.bytes_computed"] = count("exact.bytes_computed")
    m["exact.peak_alloc_mb"] = gauges.get("exact.peak_alloc_mb", 0.0)

    m["lsi.verify_lsi_suite.calls"] = calls("lsi.verify_lsi_suite")
    m["lsi.verify_lsi_suite.busy_s"] = busy("lsi.verify_lsi_suite")
    m["lsi.observables_per_s"] = per_s(count("lsi.observables"), "lsi.verify_lsi_suite")
    m["lsi.ConfigWorkspace.busy_s"] = busy("lsi.ConfigWorkspace")
    m["lsi.configs"] = count("lsi.configs")
    for name in ("gamma1_exact", "interdependence_matrix_exact", "matrix_norms",
                 "concentration_report"):
        m[f"lsi.{name}.busy_s"] = busy(f"lsi.{name}")

    for kind in ("uniform", "nonuniform"):
        name = f"equilibria.maximize_G.{kind}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.p50_s"] = p50(name)
    m["equilibria.two_column_landscape.busy_s"] = busy("equilibria.two_column_landscape")
    m["equilibria.landscape_points_per_s"] = per_s(
        count("equilibria.landscape_points"), "equilibria.two_column_landscape")
    m["equilibria.potts_fixed_point_u.calls"] = calls("equilibria.potts_fixed_point_u")
    m["equilibria.potts_fixed_point_u.busy_s"] = busy("equilibria.potts_fixed_point_u")

    for name in ("rates.free_energy_G", "rates.rate_J_prime"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["rates.evals_per_s"] = per_s(calls("rates.free_energy_G") + calls("rates.rate_J_prime"),
                                   "rates.free_energy_G", "rates.rate_J_prime")

    for command in CLI_COMMANDS:
        m[f"cli.main.{command}.busy_s"] = busy(f"cli.main.{command}")
    m["cli.bytes_written"] = count("cli.bytes_written")

    for layer in LAYERS:
        m[f"{layer}.failed"] = float(failed_by_layer.get(layer, 0))

    for root in IMPORT_ROOTS:
        m[f"setup.import.{root}_s"] = import_s[root]

    selfs = self_times(spans)
    m["bench.self_s"] = sum(selfs[s.span_id] for s in spans if s.parent is None) / passes
    m["trace.overhead_s"] = overhead_s
    return m
