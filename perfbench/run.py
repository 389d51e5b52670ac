"""Benchmark of blockpotts: one workload per fresh process, closed loop.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

A run builds the workload's operation list from --seed, then repeats it in
passes for about --seconds seconds (at least MIN_PASSES passes), checking
every output after each pass, outside the timing.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json, its times converted to
the reference speed through the kernels of calibrate.py; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics,
the tracing overhead, a per-layer table and a spans file.  The last line of
standard output is one JSON object; a result file goes to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

import bootstrap
import calibrate
from compare import compare, format_rows
from layers import IMPORT_ROOTS, parse_importtime, per_layer_metrics
from spans import NullTracer, Tracer, layer_table

SPEC_PATH = bootstrap.ROOT / "BENCHMARK.json"
DEFAULT_OUT = bootstrap.ROOT / ".perfbench" / "results"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 7
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 60
SETUP_KERNEL = "full"


def load_spec():
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (bootstrap.ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(bootstrap.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(seed):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def setup_probes(workload, seed, scratch, n):
    """Seconds from spawning a fresh interpreter to its "ready" line, n times.

    Returns the times and, for each probe, the SETUP_KERNEL part times the
    probe took right after it was ready.
    """
    times, kernels = [], []
    for _ in range(n):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed),
             "--out-dir", str(scratch), "--kernel", SETUP_KERNEL],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
        times.append(elapsed)
        kernels.append(json.loads(rest))
    return times, kernels


def importtime_probes(n):
    """Median import seconds of blockpotts, scipy and numpy over n fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(bootstrap.SRC)}
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import blockpotts"],
                              capture_output=True, text=True, env=env,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importtime probe failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {root: statistics.median(s[root] for s in samples) for root in IMPORT_ROOTS}


class PassRunner:
    """Runs a workload's operation list in passes and checks every output."""

    def __init__(self, workload, ops, kernel):
        self.workload = workload
        self.ops = ops
        self.kernel = kernel
        self.first_digest = {}
        self.attempted = 0
        self.failures = []
        self.failed_by_layer = Counter()
        # per untraced pass: each op's seconds, and the kernel's part times
        # before the first op and after each op
        self.op_s = []
        self.kernel_s = []

    def run_pass(self, tracer):
        """One timed pass, then its untimed checks; returns its wall-clock and check seconds.

        An untraced pass times the reference kernel before the first
        operation and after each one; the wall-clock time leaves the kernel out.
        """
        results = []
        calibrated = not tracer.enabled
        if calibrated:
            self.op_s.append([])
            self.kernel_s.append([calibrate.time_kernel(self.kernel)])
        start = perf_counter()
        with tracer.span(f"workload.{self.workload}"):
            for op in self.ops:
                op_start = perf_counter()
                with tracer.span(f"op.{op.name}"):
                    try:
                        results.append((op.run(tracer), None))
                    except Exception as exc:  # an operation failing is a measured outcome
                        traceback.print_exc(file=sys.stderr)
                        results.append((None, f"raised {type(exc).__name__}: {exc}"))
                op_end = perf_counter()
                if calibrated:
                    self.op_s[-1].append(op_end - op_start)
                    self.kernel_s[-1].append(calibrate.time_kernel(self.kernel))
                    start += perf_counter() - op_end
        wall = perf_counter() - start

        start = perf_counter()
        for op, (result, error) in zip(self.ops, results):
            problems = [error] if error else self._check(op, result, tracer, NullTracer())
            self.attempted += 1
            if problems:
                self.failed_by_layer[op.layer] += 1
                self.failures.append({"op": op.name, "problems": problems})
        return wall, perf_counter() - start

    def _check(self, op, result, tracer, untraced):
        try:
            problems = list(op.check(result))
            digest = op.digest(result)
            first = self.first_digest.get(op.name)
            if first is None:
                self.first_digest[op.name] = digest
                if op.rerun and op.digest(op.run(untraced)) != digest:
                    problems.append("rerun with the same seed gave different output")
            elif first != digest:
                problems.append("output differs from the first pass with the same inputs")
            if tracer.enabled:
                for name, value in op.counters(result).items():
                    tracer.count(name, value)
        except Exception as exc:  # a broken check is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return problems


def run_passes(runner, seconds, trace, tracer):
    """Repeat passes for about `seconds`; with trace, alternate untraced and traced."""
    untraced, traced, check_s = [], [], []
    loop_start = perf_counter()
    index = 0
    while True:
        is_traced = trace and index % 2 == 1
        if is_traced:
            tracer.run_id = f"{runner.workload}-pass{index}"
        wall, checks = runner.run_pass(tracer if is_traced else NullTracer())
        (traced if is_traced else untraced).append(wall)
        check_s.append(checks)
        index += 1
        elapsed = perf_counter() - loop_start
        if trace:
            enough = len(traced) >= MIN_TRACED_PASSES and len(untraced) >= MIN_TRACED_PASSES
        else:
            enough = len(untraced) >= MIN_PASSES
        if enough and elapsed + elapsed / index > seconds:
            return untraced, traced, check_s


def metric_entries(values, spec_metrics):
    """Metrics in BENCHMARK.json order with their units; every name must be present."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def measure(args):
    import workloads  # imports blockpotts, so only after bootstrap.prepare()

    spec = load_spec()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = bootstrap.ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args.seed)
        if args.trace:
            import_s = importtime_probes(IMPORTTIME_PROBES)
        else:
            setup_times, setup_kernels = setup_probes(args.workload, args.seed, scratch,
                                                      SETUP_PROBES)
        ops = workloads.build(args.workload, args.seed, scratch)
        runner = PassRunner(args.workload, ops, workloads.KERNELS[args.workload])
        tracer = Tracer()
        untraced, traced, check_s = run_passes(runner, args.seconds, args.trace, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(runner.failures)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    env["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    print(f"workload {args.workload}  seed {args.seed}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"BLAS threads {bootstrap.BLAS_THREADS}  commit {env['git_commit']}")
    print(f"untraced pass wall-clock s: {[round(w, 4) for w in untraced]}")
    print(f"check_s per pass (not timed): {[round(c, 4) for c in check_s]}")
    print(f"operations attempted {runner.attempted}, failed {failed}, "
          f"error_rate {failed / runner.attempted:.6g}")
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure['op']}: {'; '.join(failure['problems'])}")

    if args.trace:
        print(f"traced pass wall-clock s: {[round(w, 4) for w in traced]}")
        # passes alternate untraced, traced; pairing neighbours keeps slow drifts
        # of the machine's speed out of the difference
        overhead = statistics.median(t - u for u, t in zip(untraced, traced))
        print(f"tracing overhead: {overhead:.4f} s per pass "
              f"(median over neighbouring passes of traced minus untraced wall-clock s)")
        table = layer_table(tracer.spans)
        print(table)
        tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")
        (out_dir / f"{stem}.layers.txt").write_text(table + "\n", encoding="utf-8")
        values = per_layer_metrics(tracer.spans, tracer.counters, tracer.gauges,
                                   runner.failed_by_layer, len(traced), overhead, import_s)
        metrics = metric_entries(values, spec["per_layer"])
    else:
        setup_units = [t / sum(k) for t, k in zip(setup_times, setup_kernels)]
        op_units = calibrate.kernel_units(runner.op_s, runner.kernel_s)
        values = {
            "setup_s": calibrate.nominal_s(SETUP_KERNEL) * statistics.median(setup_units),
            "norm_wall_s": calibrate.nominal_s(runner.kernel) * sum(op_units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (runner.attempted - failed) / runner.attempted,
        }
        metrics = metric_entries(values, spec["end_to_end"])
        print(f"set-up probes, wall-clock s: {[round(t, 4) for t in setup_times]}")
        print(f"raw medians, wall-clock s: set-up {statistics.median(setup_times):.4f}, "
              f"pass {statistics.median(untraced):.4f}")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")

    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "untraced_wall_s": untraced,
              "traced_wall_s": traced, "check_s": check_s,
              "op_names": [op.name for op in runner.ops], "op_s": runner.op_s,
              "kernel_parts": calibrate.KERNELS[runner.kernel], "kernel_s": runner.kernel_s,
              "failures": runner.failures, **result}
    if not args.trace:
        record.update(setup_probe_s=setup_times, setup_kernel_s=setup_kernels,
                      setup_kernel_parts=calibrate.KERNELS[SETUP_KERNEL])
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process, one after the other."""
    import workloads

    code = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("chains", "oracle", "solve", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for result files")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                        help="compare two directories of result files and exit")
    args = parser.parse_args()

    if args.compare:
        print(format_rows(compare(*args.compare, load_spec())))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    bootstrap.prepare()
    if args.workload == "all":
        return run_all(args)
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
