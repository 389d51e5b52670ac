"""The benchmark's three workloads as fixed operation lists.

Every input comes from the workload seed, so one seed always gives the
same operations.  An operation runs under timing; its correctness check
runs afterwards, outside the timing.  Each operation names the layer a
failure is charged to.

chains  large-N heat-bath sampling.  glauber does nearly all the work and
        exact, lsi and equilibria none, so a sampler change shows here and
        a solver or enumeration change must not.  q, s and N vary so a
        vectorized update can be seen to depend on row width.
oracle  exact laws and log-Sobolev checks on small systems.  exact and lsi
        do most of the work and set peak memory; the single long chain at
        N=6 samples every sweep, the opposite use of glauber from chains.
solve   equilibrium analysis.  equilibria and rates do all the work on tiny
        arrays, where per-call overhead dominates.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from blockpotts import cli, equilibria, exact, glauber, lsi, rates
from blockpotts.model import BlockStructure, ModelParams

WORKLOADS = ("chains", "oracle", "solve")

# The calibrate.py kernel each workload's operation times are divided by:
# chains and solve do per-site and per-call work on tiny arrays, oracle
# mostly builds and scans arrays of hundreds of megabytes.
KERNELS = {"chains": "interpreter", "oracle": "full", "solve": "interpreter"}

# tolerances of the checks; a failing check is reported, never loosened
PROB_SUM_TOL = 1e-9
LOG_Z_TOL = 1e-10
RESIDUAL_TOL = 1e-8
G_SUP_TOL = 1e-9
U_RESIDUAL_TOL = 1e-9

# Error model of the single-chain TV check.  For n samples of a chain with
# integrated autocorrelation time tau (in sweeps), Jensen gives
# E[TV] <= 1/2 sum_i sqrt(p_i (1 - p_i) tau / n).  The chain must stay below
# that bound taken at TV_TAU_MAX.  At q=3, sizes (3,3), alpha=1, beta=3 the
# measured tau of the top states is about 1.9 sweeps, and over 10 seeds the
# TV was 0.030 +- 0.003 against a bound of 0.069.
TV_TAU_MAX = 4.0


@dataclass
class Op:
    """One entry of a workload's operation list.

    run(tracer) is timed.  check(result) returns a list of problems and is
    not timed.  digest(result) fingerprints the output: every pass must
    reproduce the first pass's fingerprint, and ops with rerun set are also
    run a second time, untimed, on the first pass and must match.
    counters(result) gives per-layer counts for the traced run.
    """

    name: str
    layer: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], str]
    counters: Callable[[Any], dict] = field(default=lambda result: {})
    rerun: bool = False


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _file_digest(*paths):
    return _sha(*(Path(p).read_bytes() for p in paths))


def _params(q, sizes, alpha, beta):
    total = float(sum(sizes))
    return (ModelParams(q=q, s=len(sizes), alpha=alpha, beta=beta,
                        gamma=tuple(n / total for n in sizes)),
            BlockStructure(sizes=sizes))


def _uniform(q, s, g, split=0.5):
    return ModelParams(q=q, s=s, alpha=g - split, beta=g + (s - 1) * split,
                       gamma=tuple([1.0 / s] * s))


def _seeds(seed, n):
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(n)]


def _cli(tracer, command, argv):
    return tracer.call(f"cli.main.{command}", cli.main, [command, *argv])


def _bytes_written(*outputs):
    """Bytes of the given CLI outputs plus the manifest written beside the first."""
    paths = [*outputs, Path(str(outputs[0]) + ".manifest.json")]
    return {"cli.bytes_written": sum(Path(p).stat().st_size for p in paths)}


# ---------------------------------------------------------------- chains


def _chain_check(blocks, sweeps, thin):
    def check(summary):
        problems = []
        if summary.samples.shape[0] != sweeps // thin:
            problems.append(f"{summary.samples.shape[0]} samples, expected {sweeps // thin}")
        rows = summary.samples.sum(axis=2)
        if not np.all(rows == np.asarray(blocks.sizes)[None, :]):
            problems.append("a count-matrix row does not sum to its block size")
        return problems
    return check


def _chain_op(name, params, blocks, sweeps, thin, seed, rerun):
    updates = (sweeps + sweeps // 10) * blocks.N
    return Op(
        name=name,
        layer="glauber",
        run=lambda tr: tr.call("glauber.run_chain", glauber.run_chain,
                               blocks, params, sweeps, thin=thin, seed=seed),
        check=_chain_check(blocks, sweeps, thin),
        digest=lambda summary: _sha(summary.samples),
        counters=lambda summary: {"glauber.updates": updates},
        rerun=rerun,
    )


def _concentration_op(name, chain_op, constants, size_k):
    t_grid = np.linspace(0.0, float(size_k), 10)

    def run(tr):
        summary = chain_op.run(tr)
        rows = tr.call("lsi.concentration_report", lsi.concentration_report,
                       summary, constants, 0, 0, t_grid)
        return summary, rows

    def check(result):
        summary, rows = result
        problems = chain_op.check(summary)
        if len(rows) != t_grid.size:
            problems.append(f"{len(rows)} tail rows, expected {t_grid.size}")
            return problems
        tails = [r.tail for r in rows]
        if tails[0] != 1.0:
            problems.append(f"tail at t=0 is {tails[0]}, expected 1")
        if any(b > a for a, b in zip(tails, tails[1:])):
            problems.append("empirical tail increases with t")
        for r in rows:
            expected = 2.0 * math.exp(-(r.t * r.t) / (2.0 * size_k * constants.sigma3_sq))
            if abs(r.bound - expected) > 1e-12 * max(1.0, expected):
                problems.append(f"bound at t={r.t} is {r.bound}, expected {expected}")
        return problems

    return Op(
        name=name,
        layer="lsi",
        run=run,
        check=check,
        digest=lambda result: _sha(result[0].samples, [(r.tail, r.bound) for r in result[1]]),
        counters=lambda result: chain_op.counters(result[0]),
        rerun=chain_op.rerun,
    )


def _simulate_op(out_dir, params, blocks, sweeps, thin, chains, seed):
    out = Path(out_dir) / "simulate.csv"
    argv = ["--q", str(params.q), "--sizes", ",".join(map(str, blocks.sizes)),
            "--alpha", str(params.alpha), "--beta", str(params.beta),
            "--sweeps", str(sweeps), "--thin", str(thin), "--seed", str(seed),
            "--chains", str(chains), "--out", str(out)]

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        problems = []
        if len(rows) != chains * (sweeps // thin):
            problems.append(f"{len(rows)} rows, expected {chains * (sweeps // thin)}")
        q = params.q
        for row in rows:
            counts = np.asarray(row[2:], dtype=np.int64).reshape(blocks.s, q)
            if not np.array_equal(counts.sum(axis=1), np.asarray(blocks.sizes)):
                problems.append(f"chain {row[0]} sweep {row[1]}: row sums differ from sizes")
                break
        return problems

    return Op(
        name="cli.simulate",
        layer="cli",
        run=lambda tr: _cli(tr, "simulate", argv),
        check=check,
        digest=lambda code: _file_digest(out),
        counters=lambda code: _bytes_written(out),
        rerun=True,
    )


def chains_ops(seed, out_dir):
    seeds = iter(_seeds(seed, 10))
    ops = []
    models = [
        ("chains.50x50", _params(3, (50, 50), 0.5, 1.0), 1000, 10),
        ("chains.100x100", _params(3, (100, 100), 0.05, 0.1), 500, 1),
        ("chains.20-30-40-10", _params(5, (20, 30, 40, 10), 1.0, 3.0), 600, 5),
    ]
    constants = lsi.asymptotic_constants(3, 0.1)
    for label, (params, blocks), sweeps, thin in models:
        for c in range(3):
            op = _chain_op(f"{label}.chain{c}", params, blocks, sweeps, thin,
                           next(seeds), rerun=c == 0)
            if label == "chains.100x100":
                op = _concentration_op(f"{label}.chain{c}.concentration", op, constants,
                                       blocks.sizes[0])
            ops.append(op)
    params, blocks = _params(3, (50, 50), 0.5, 1.0)
    ops.append(_simulate_op(out_dir, params, blocks, 1000, 10, 2, next(seeds)))
    return ops


# ---------------------------------------------------------------- oracle


def _log_z_matches_full(params, sizes=(3, 4)):
    """exact_distribution's log_Z at a tiny size against q^N enumeration."""
    tiny_params, tiny_blocks = _params(params.q, sizes, params.alpha, params.beta)
    a = exact.exact_distribution(tiny_blocks, tiny_params).log_Z
    b = exact.full_configuration_distribution(tiny_blocks, tiny_params).log_Z
    return [] if abs(a - b) <= LOG_Z_TOL else [f"log_Z {a} vs full enumeration {b}"]


def _exact_op(params, blocks):
    expected = math.prod(math.comb(n + params.q - 1, params.q - 1) for n in blocks.sizes)

    def check(dist):
        problems = []
        if len(dist) != expected:
            problems.append(f"{len(dist)} support points, expected {expected}")
        total = float(dist.probabilities.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            problems.append(f"probabilities sum to {total}")
        return problems + _log_z_matches_full(params)

    def counters(dist):
        computed = dist.support.nbytes + dist.log_weights.nbytes + dist.probabilities.nbytes
        return {"exact.support_points": len(dist), "exact.bytes_computed": computed}

    return Op(
        name=f"exact.{'x'.join(map(str, blocks.sizes))}",
        layer="exact",
        run=lambda tr: tr.call_peak_alloc("exact.exact_distribution", "exact.peak_alloc_mb",
                                          exact.exact_distribution, blocks, params),
        check=check,
        digest=lambda dist: _sha(dist.log_Z, dist.probabilities),
        counters=counters,
    )


def _workspace_op(params, blocks):
    def check(ws):
        problems = []
        if len(ws.dist) != params.q ** blocks.N:
            problems.append(f"{len(ws.dist)} configurations, expected {params.q ** blocks.N}")
        total = float(ws.probabilities.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            problems.append(f"probabilities sum to {total}")
        worst = float(np.max(np.abs(ws.cond.sum(axis=2) - 1.0)))
        if worst > PROB_SUM_TOL:
            problems.append(f"a conditional sums to 1 +- {worst}")
        return problems

    return Op(
        name="lsi.workspace.5x5",
        layer="lsi",
        run=lambda tr: tr.call("lsi.ConfigWorkspace", lsi.ConfigWorkspace, blocks, params),
        check=check,
        digest=lambda ws: _sha(ws.probabilities, ws.cond),
        counters=lambda ws: {"lsi.configs": len(ws.dist)},
    )


def _lsi_suite_op(params, blocks, seed):
    return Op(
        name="lsi.suite.4x4",
        layer="lsi",
        run=lambda tr: tr.call("lsi.verify_lsi_suite", lsi.verify_lsi_suite,
                               blocks, params, num_f=100, seed=seed),
        check=lambda rep: [] if rep.violations == 0 else [f"{rep.violations} LSI violations"],
        digest=lambda rep: _sha(rep.gamma1, rep.two_norm, sorted(rep.worst_slack.items())),
        counters=lambda rep: {"lsi.observables": rep.num_observables},
    )


def _constants_op(params, blocks):
    def run(tr):
        g1 = tr.call("lsi.gamma1_exact", lsi.gamma1_exact, blocks, params)
        J = tr.call("lsi.interdependence_matrix_exact", lsi.interdependence_matrix_exact,
                    blocks, params)
        norms = tr.call("lsi.matrix_norms", lsi.matrix_norms, J)
        return g1, J, norms

    def check(result):
        g1, J, (inf_norm, two_norm) = result
        problems = []
        floor = lsi.gamma1_floor(params.q, params.beta)
        if not g1 >= floor:
            problems.append(f"gamma1_exact {g1} below gamma1_floor {floor}")
        if J.shape != (blocks.N, blocks.N) or np.any(np.diag(J) != 0.0):
            problems.append("interdependence matrix has the wrong shape or a nonzero diagonal")
        if not two_norm < 1.0:
            problems.append(f"interdependence two-norm {two_norm} is not below 1")
        return problems

    return Op(
        name="lsi.constants.30x30",
        layer="lsi",
        run=run,
        check=check,
        digest=lambda result: _sha(result[0], result[1], result[2]),
    )


def _single_chain_op(params, blocks, sweeps, seed):
    def check(summary):
        problems = _chain_check(blocks, sweeps, 1)(summary)
        law = exact.exact_distribution(blocks, params)
        index = {tuple(row.ravel()): i for i, row in enumerate(law.support)}
        visits = np.zeros(len(law))
        for sample in summary.samples.reshape(summary.samples.shape[0], -1):
            visits[index[tuple(sample)]] += 1
        n = summary.samples.shape[0]
        p = law.probabilities
        tv = 0.5 * float(np.abs(visits / n - p).sum())
        bound = 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) * TV_TAU_MAX / n)))
        if tv > bound:
            problems.append(f"TV to the exact law {tv:.4f} exceeds {bound:.4f}")
        return problems

    updates = (sweeps + sweeps // 10) * blocks.N
    return Op(
        name="glauber.single_chain.3x3",
        layer="glauber",
        run=lambda tr: tr.call("glauber.run_chain", glauber.run_chain,
                               blocks, params, sweeps, thin=1, seed=seed),
        check=check,
        digest=lambda summary: _sha(summary.samples),
        counters=lambda summary: {"glauber.updates": updates},
    )


def _cli_exact_op(out_dir, params, blocks):
    out = Path(out_dir) / "exact.csv"
    argv = ["--q", str(params.q), "--sizes", ",".join(map(str, blocks.sizes)),
            "--alpha", str(params.alpha), "--beta", str(params.beta), "--out", str(out)]

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        with open(out, encoding="utf-8") as fh:
            header = json.loads(fh.readline()[2:])
            rows = list(csv.reader(fh))[1:]
        law = exact.exact_distribution(blocks, params)
        problems = []
        if len(rows) != len(law):
            problems.append(f"{len(rows)} rows, expected {len(law)}")
        if abs(header["log_Z"] - law.log_Z) > LOG_Z_TOL:
            problems.append(f"log_Z {header['log_Z']} vs {law.log_Z}")
        total = sum(float(r[-1]) for r in rows)
        if abs(total - 1.0) > PROB_SUM_TOL:
            problems.append(f"probabilities sum to {total}")
        return problems

    return Op(
        name="cli.exact",
        layer="cli",
        run=lambda tr: _cli(tr, "exact", argv),
        check=check,
        digest=lambda code: _file_digest(out),
        counters=lambda code: _bytes_written(out),
    )


def _cli_lsi_op(out_dir, params, blocks, seed):
    out = Path(out_dir) / "lsi.json"
    argv = ["--q", str(params.q), "--sizes", ",".join(map(str, blocks.sizes)),
            "--alpha", str(params.alpha), "--beta", str(params.beta),
            "--num-f", "100", "--seed", str(seed), "--out", str(out)]

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(out.read_text(encoding="utf-8"))
        if doc["violations"] != 0 or not doc["pass"]:
            return [f"lsi-check reports {doc['violations']} violations"]
        return []

    return Op(
        name="cli.lsi-check",
        layer="cli",
        run=lambda tr: _cli(tr, "lsi-check", argv),
        check=check,
        digest=lambda code: _file_digest(out),
        counters=lambda code: _bytes_written(out),
    )


def _weak(sizes):
    """The weak-coupling model of the log-Sobolev checks, q=3, alpha=0.05, beta=0.1."""
    return _params(3, sizes, 0.05, 0.1)


def oracle_ops(seed, out_dir):
    lsi_seed, chain_seed, cli_seed = _seeds(seed, 3)
    ops = [_exact_op(*_params(3, (40, 40), 0.5, 1.0)),
           _exact_op(*_params(3, (60, 60), 0.5, 1.0))]
    ops.append(_workspace_op(*_weak((5, 5))))
    ops.append(_lsi_suite_op(*_weak((4, 4)), lsi_seed))
    ops.append(_constants_op(*_weak((30, 30))))
    ops.append(_single_chain_op(*_params(3, (3, 3), 1.0, 3.0), 20_000, chain_seed))
    ops.append(_cli_exact_op(out_dir, *_params(3, (4, 4), 0.5, 1.0)))
    ops.append(_cli_lsi_op(out_dir, *_weak((3, 3)), cli_seed))
    return ops


# ----------------------------------------------------------------- solve

SOLVE_RESTARTS = 8
# The multistart search runs with the library's default seed, so every
# workload seed asks maximize_G for the same work on the same fixed AC5 set:
# a search seed drawn from the workload seed moves the ascent's iteration
# count, and with it a call's time, by about 20% from seed to seed.  The
# workload seed draws the G and J' evaluation points and the fixed-point grid.
SEARCH_SEED = equilibria.SearchOptions().seed


def _expected_phase(g, q, band=1e-9):
    zeta = equilibria.critical_temperature(q)
    if abs(g - zeta) <= band:
        return equilibria.Phase.CRITICAL
    return equilibria.Phase.SUBCRITICAL if g < zeta else equilibria.Phase.SUPERCRITICAL


def _closed_form_sup(params):
    """sup of G on C(gamma) for uniform gamma, from the closed-form maximizers."""
    Q, nus = equilibria.equilibrium_matrices(params.effective_coupling, params)
    return max(rates.free_energy_G(m, params) for m in [Q, *nus])


def _maximize_op(params, options):
    kind = "uniform" if params.uniform_gamma else "nonuniform"

    def check(report):
        problems = []
        if params.uniform_gamma:
            expected = _expected_phase(params.effective_coupling, params.q)
            if report.phase is not expected:
                problems.append(f"phase {report.phase.value}, expected {expected.value} "
                                f"from g={params.effective_coupling} vs zeta_q")
            if not report.certificate.startswith("closed-form"):
                problems.append(f"certificate {report.certificate!r}")
        elif not report.certificate.startswith("numerical"):
            problems.append(f"non-uniform report not flagged numerical: {report.certificate!r}")
        if not report.residual_max <= RESIDUAL_TOL:
            problems.append(f"residual_max {report.residual_max}")
        for m in report.maximizers:
            cert = equilibria.structure_certificate(m, params, tol=1e-9)
            if not (cert["positive"] and cert["common_order"] and cert["at_most_two_values"]
                    and cert["residual_max"] <= RESIDUAL_TOL):
                problems.append(f"structure certificate fails: {cert}")
        return problems

    label = f"q{params.q}.s{params.s}.g{params.effective_coupling:.4f}"
    if not params.uniform_gamma:
        label += ".gamma" + "-".join(f"{g:g}" for g in params.gamma)
    return Op(
        name=f"equilibria.maximize_G.{label}",
        layer="equilibria",
        run=lambda tr: tr.call(f"equilibria.maximize_G.{kind}", equilibria.maximize_G,
                               params, options=options),
        check=check,
        digest=lambda report: _sha(report.phase.value, report.sup_G,
                                   [np.round(m, 9) for m in report.maximizers]),
    )


def _landscape_op(params, mesh):
    def check(rows):
        problems = []
        if rows.shape != (mesh ** params.s, params.s + 2):
            problems.append(f"landscape shape {rows.shape}")
        sup = _closed_form_sup(params)
        if not np.all(np.isfinite(rows)):
            problems.append("landscape holds a non-finite value")
        elif rows[:, -1].max() > sup + G_SUP_TOL:
            problems.append(f"landscape G {rows[:, -1].max()} above sup_G {sup}")
        return problems

    return Op(
        name="equilibria.landscape",
        layer="equilibria",
        run=lambda tr: tr.call("equilibria.two_column_landscape",
                               equilibria.two_column_landscape, params, 1, mesh=mesh),
        check=check,
        digest=lambda rows: _sha(rows),
        counters=lambda rows: {"equilibria.landscape_points": rows.shape[0]},
    )


def _g_batch_op(params, points):
    def run(tr):
        return [tr.call("rates.free_energy_G", rates.free_energy_G, m, params) for m in points]

    def check(values):
        sup = _closed_form_sup(params)
        worst = max(values)
        return [] if worst <= sup + G_SUP_TOL else [f"G {worst} above sup_G {sup}"]

    return Op(name="rates.free_energy_G.batch", layer="rates", run=run, check=check,
              digest=lambda values: _sha(np.asarray(values)))


def _j_batch_op(params, points, feasible):
    sup = _closed_form_sup(params)

    def run(tr):
        return [tr.call("rates.rate_J_prime", rates.rate_J_prime, m, params, sup)
                for m in points]

    def check(evals):
        problems = []
        for ev, ok in zip(evals, feasible):
            if ev.feasible != ok:
                problems.append(f"J' feasibility {ev.feasible}, expected {ok}")
            elif ok and not ev.value >= -G_SUP_TOL:
                problems.append(f"J' = {ev.value} below 0")
            elif not ok and ev.value != math.inf:
                problems.append(f"infeasible J' = {ev.value}, expected inf")
        return problems[:5]

    return Op(name="rates.rate_J_prime.batch", layer="rates", run=run, check=check,
              digest=lambda evals: _sha(np.asarray([ev.value for ev in evals])))


def _fixed_point_op(grid):
    def run(tr):
        return [tr.call("equilibria.potts_fixed_point_u", equilibria.potts_fixed_point_u, g, q)
                for q, g in grid]

    def check(us):
        problems = []
        for (q, g), u in zip(grid, us):
            e = math.exp(-g * u)
            residual = abs((1.0 - e) / (1.0 + (q - 1.0) * e) - u)
            if residual > U_RESIDUAL_TOL:
                problems.append(f"u({g}, q={q}) = {u} has residual {residual}")
            if g >= equilibria.critical_temperature(q) and not u > 0.0:
                problems.append(f"u({g}, q={q}) = 0 at or above zeta_q")
        for q in sorted({q for q, _ in grid}):
            seq = [u for (qq, g), u in sorted(zip(grid, us)) if qq == q]
            if any(b < a for a, b in zip(seq, seq[1:])):
                problems.append(f"u(g) decreases in g at q={q}")
        return problems[:5]

    return Op(name="equilibria.potts_fixed_point_u.grid", layer="equilibria", run=run,
              check=check, digest=lambda us: _sha(np.asarray(us)))


def _cli_equilibria_op(out_dir, restarts, seed, mesh):
    out = Path(out_dir) / "eq.json"
    land = Path(out_dir) / "landscape.csv"
    argv = ["--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
            "--restarts", str(restarts), "--seed", str(seed), "--out", str(out),
            "--landscape-out", str(land), "--landscape-r", "1",
            "--landscape-mesh", str(mesh)]

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(out.read_text(encoding="utf-8"))
        problems = []
        expected = _expected_phase((3.5 + 2.5) / 2, 3)
        if doc["phase"] != expected.value:
            problems.append(f"phase {doc['phase']}, expected {expected.value}")
        if not doc["residual_max"] <= RESIDUAL_TOL:
            problems.append(f"residual_max {doc['residual_max']}")
        with open(land, encoding="utf-8") as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != mesh * mesh:
            problems.append(f"{n_rows} landscape rows, expected {mesh * mesh}")
        return problems

    return Op(
        name="cli.equilibria",
        layer="cli",
        run=lambda tr: _cli(tr, "equilibria", argv),
        check=check,
        digest=lambda code: _file_digest(out, land),
        counters=lambda code: _bytes_written(out, land),
    )


def _cli_phase_op(out_dir):
    out = Path(out_dir) / "phases.csv"
    argv = ["--q", "3", "--s", "2", "--g-min", "2.0", "--g-max", "3.5",
            "--g-step", "0.05", "--out", str(out)]

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = [] if len(rows) == 31 else [f"{len(rows)} rows, expected 31"]
        for row in rows:
            expected = _expected_phase(float(row["g"]), 3)
            if row["phase"] != expected.value:
                problems.append(f"g={row['g']}: phase {row['phase']}, expected {expected.value}")
        return problems

    return Op(
        name="cli.phase-diagram",
        layer="cli",
        run=lambda tr: _cli(tr, "phase-diagram", argv),
        check=check,
        digest=lambda code: _file_digest(out),
        counters=lambda code: _bytes_written(out),
    )


def _random_points(rng, params, n, infeasible_share=0.0):
    """Points of C(gamma) (Dirichlet rows scaled by gamma); a share is pushed off it."""
    gamma = params.gamma_array
    points, feasible = [], []
    for _ in range(n):
        m = rng.dirichlet(np.ones(params.q), size=params.s) * gamma[:, None]
        ok = rng.random() >= infeasible_share
        if not ok:
            m[0, 0] += 0.01
        points.append(m)
        feasible.append(ok)
    return points, feasible


def solve_ops(seed, out_dir):
    (points_seed,) = _seeds(seed, 1)
    options = equilibria.SearchOptions(restarts=SOLVE_RESTARTS, seed=SEARCH_SEED)
    zeta3 = equilibria.critical_temperature(3)
    battery = [
        _uniform(3, 2, 2.5),
        _uniform(3, 2, 3.0),
        _uniform(3, 2, zeta3),
        _uniform(3, 3, 3.1, split=0.3),
        _uniform(4, 2, equilibria.critical_temperature(4) + 0.2),
        ModelParams(q=3, s=2, alpha=2.4, beta=4.0, gamma=(0.4, 0.6)),
        ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.3, 0.7)),
    ]
    ops = [_maximize_op(p, options) for p in battery]
    ops.append(_landscape_op(battery[1], 50))
    rng = np.random.default_rng(points_seed)
    g_points, _ = _random_points(rng, battery[0], 1000)
    j_points, j_feasible = _random_points(rng, battery[1], 1000, infeasible_share=0.1)
    ops.append(_g_batch_op(battery[0], g_points))
    ops.append(_j_batch_op(battery[1], j_points, j_feasible))
    grid = [(q, float(g)) for q in (3, 4) for g in np.sort(rng.uniform(1.5, 5.0, 100))]
    ops.append(_fixed_point_op(grid))
    ops.append(_cli_equilibria_op(out_dir, SOLVE_RESTARTS, SEARCH_SEED, 50))
    ops.append(_cli_phase_op(out_dir))
    return ops


BUILDERS = {"chains": chains_ops, "oracle": oracle_ops, "solve": solve_ops}


def build(workload, seed, out_dir):
    """The operation list of a workload, with every input drawn from seed."""
    return BUILDERS[workload](seed, out_dir)
