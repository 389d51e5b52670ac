"""Command-line interface tying the modules into reproducible experiments.

Commands: simulate, exact, equilibria, phase-diagram, lsi-check,
concentration.  Every command writes its data files plus a manifest JSON
capturing exactly the inputs that produced them, so outputs are
reproducible from the manifest alone.  Exit codes: 0 success, 1 I/O
failure, 2 usage, 3 capacity, 4 non-convergence, 5 analytic condition not
met.

Flags can be preloaded from a JSON file via --config (keys are flag names
with dashes replaced by underscores); explicit flags override the file.
CSV output uses a header row, comma separators and '.' decimals; JSON is
UTF-8 with keys in fixed order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .equilibria import (
    CRITICAL_BAND,
    SearchOptions,
    classify_phase,
    critical_temperature,
    maximize_G,
    phi,
    potts_fixed_point_u,
    two_column_landscape,
)
from .errors import (
    CapacityError,
    ConditionNotMetError,
    InvalidInputError,
    NonConvergenceError,
)
from .exact import DEFAULT_SUPPORT_CAP, exact_distribution, export_csv
from .glauber import check_run_options, run_chain
from .lsi import (
    asymptotic_constants,
    concentration_report,
    gamma1_exact,
    interdependence_matrix_exact,
    lsi_constants,
    matrix_norms,
    verify_lsi_suite,
)
from .model import BlockStructure, ModelParams, model_to_json
from .rates import potts_functional

_FLOAT_FMT = ".17g"

# Most rows phase-diagram writes: a g grid finer than this is refused
# (exit 3) before the CSV is opened.
MAX_PHASE_ROWS = 10_000_000


def _fmt(x):
    return format(float(x), _FLOAT_FMT)


def _parse_int_list(text):
    return tuple(int(p) for p in str(text).replace(" ", "").split(",") if p != "")


def _parse_float_list(text):
    return tuple(float(p) for p in str(text).replace(" ", "").split(",") if p != "")


def _load_config(args):
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"--config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInputError("--config file must hold a JSON object")
    return doc


def _opt(args, cfg, key, default=None, required=False, cast=None):
    """Effective option value: explicit flag, then config file, then default."""
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key)
    if value is None:
        value = default
    if value is None and required:
        raise InvalidInputError(f"missing required option --{key.replace('_', '-')}")
    if cast is not None and value is not None:
        try:
            value = cast(value)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"invalid value for --{key.replace('_', '-')}: {value!r}"
            ) from None
    return value


def _at_least_one(key, value):
    if value < 1:
        raise InvalidInputError(f"--{key.replace('_', '-')} must be >= 1, got {value}")
    return value


def _resolve_model(args, cfg, need_sizes=True):
    """Build (params, blocks) from flags, with the --s vs --sizes consistency check."""
    q = _opt(args, cfg, "q", required=True, cast=int)
    alpha = _opt(args, cfg, "alpha", required=True, cast=float)
    beta = _opt(args, cfg, "beta", required=True, cast=float)
    sizes = _opt(args, cfg, "sizes", cast=_parse_int_list,
                 required=need_sizes)
    s = _opt(args, cfg, "s", cast=int)
    if sizes is not None:
        if s is not None and s != len(sizes):
            raise InvalidInputError(
                f"--s {s} conflicts with --sizes of length {len(sizes)}"
            )
        s = len(sizes)
    if s is None:
        raise InvalidInputError("one of --s or --sizes is required")
    gamma = _opt(args, cfg, "gamma", cast=_parse_float_list)
    if gamma is None:
        if sizes is not None:
            total = float(sum(sizes))
            gamma = tuple(n / total for n in sizes)
        else:
            gamma = tuple(1.0 / s for _ in range(s))
    params = ModelParams(q=q, s=s, alpha=alpha, beta=beta, gamma=gamma)
    blocks = BlockStructure(sizes=sizes) if sizes is not None else None
    return params, blocks


def _path_text(value):
    if not isinstance(value, str):
        raise TypeError(f"a path must be a string, got {value!r}")
    return value


def _out_path(args, cfg, key, default_name):
    out_dir = Path(_opt(args, cfg, "out_dir", default=".", cast=_path_text))
    path = Path(_opt(args, cfg, key, default=default_name, cast=_path_text))
    if not path.is_absolute():
        path = out_dir / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(primary_output, command, seed, outputs, params=None,
                    blocks=None, extra=None):
    if params is not None and blocks is not None:
        params_doc = model_to_json(params, blocks)
    elif params is not None:
        params_doc = {"q": params.q, "s": params.s, "alpha": params.alpha,
                      "beta": params.beta, "gamma": list(params.gamma)}
    else:
        params_doc = None
    doc = {
        "command": command,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "params": params_doc,
        "blocks": {"sizes": list(blocks.sizes)} if blocks is not None else None,
        "output_paths": [str(p) for p in outputs],
    }
    if extra is not None:
        doc["result"] = extra
    path = Path(str(primary_output) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _parse_init(text, q):
    if text is None or text == "random":
        return "random"
    if text.startswith("uniform-color:"):
        try:
            color = int(text.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"uniform-color needs an integer, got {text!r}") from None
        if not 1 <= color <= q:
            raise InvalidInputError(f"uniform-color must lie in 1..{q}, got {color}")
        return color - 1
    raise InvalidInputError(f"--init must be 'random' or 'uniform-color:c', got {text!r}")


def cmd_simulate(args):
    cfg = _load_config(args)
    params, blocks = _resolve_model(args, cfg)
    seed = _opt(args, cfg, "seed", default=0, cast=int)
    sweeps = _opt(args, cfg, "sweeps", default=1000, cast=int)
    thin = _opt(args, cfg, "thin", default=1, cast=int)
    burn_in = _opt(args, cfg, "burn_in", cast=int)
    chains = _at_least_one("chains", _opt(args, cfg, "chains", default=1, cast=int))
    init = _parse_init(_opt(args, cfg, "init", default="random", cast=str), params.q)
    out = _out_path(args, cfg, "out", "simulate.csv")
    # a rejected run must not leave a header-only CSV behind
    check_run_options(blocks, params, sweeps, thin, burn_in)

    child_seeds = [int(ss.generate_state(1)[0]) for ss in
                   np.random.SeedSequence(seed).spawn(chains)]
    cols = [f"b_{k + 1}_{c + 1}" for k in range(blocks.s) for c in range(params.q)]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(["chain", "sweep"] + cols) + "\n")
        for chain_id, child in enumerate(child_seeds, start=1):
            summary = run_chain(blocks, params, sweeps, thin=thin,
                                seed=child, init=init, burn_in=burn_in)
            for idx in range(summary.samples.shape[0]):
                row = summary.samples[idx].reshape(-1)
                cells = [str(chain_id), str((idx + 1) * thin)]
                cells.extend(str(int(v)) for v in row)
                fh.write(",".join(cells) + "\n")
    _write_manifest(out, "simulate", seed, [out], params, blocks,
                    extra={"sweeps": sweeps, "thin": thin, "chains": chains,
                           "child_seeds": child_seeds})
    return 0


def cmd_exact(args):
    cfg = _load_config(args)
    params, blocks = _resolve_model(args, cfg)
    cap = _opt(args, cfg, "cap", default=DEFAULT_SUPPORT_CAP, cast=int)
    seed = _opt(args, cfg, "seed", default=0, cast=int)
    out = _out_path(args, cfg, "out", "exact.csv")
    dist = exact_distribution(blocks, params, cap=cap)
    export_csv(dist, out)
    _write_manifest(out, "exact", seed, [out], params, blocks,
                    extra={"log_Z": dist.log_Z, "support_size": len(dist)})
    return 0


_DIAGNOSTICS = ("restarts", "ascent_iterations", "max_ascent_iterations",
                "restarts_converged", "newton_failures", "certificate_margin")


def _report_to_json(report):
    return {
        "phase": report.phase.value,
        "g": report.g,
        "zeta_q": report.zeta_q,
        "u": None if math.isnan(report.u) else report.u,
        "sup_G": report.sup_G,
        "residual_max": report.residual_max,
        "certificate": report.certificate,
        "maximizers": [m.tolist() for m in report.maximizers],
        "diagnostics": {key: getattr(report, key) for key in _DIAGNOSTICS},
    }


def cmd_equilibria(args):
    cfg = _load_config(args)
    params, blocks = _resolve_model(args, cfg, need_sizes=False)
    seed = _opt(args, cfg, "seed", default=0, cast=int)
    restarts = _opt(args, cfg, "restarts", default=32, cast=int)
    out = _out_path(args, cfg, "out", "equilibria.json")
    options = SearchOptions(restarts=restarts, seed=seed)
    land_out = _opt(args, cfg, "landscape_out")
    if land_out is not None:
        # sampled before anything is written, so a bad r or mesh leaves no file
        r = _opt(args, cfg, "landscape_r", default=1, cast=int)
        mesh = _opt(args, cfg, "landscape_mesh", default=25, cast=int)
        land_path = _out_path(args, cfg, "landscape_out", "landscape.csv")
        rows = two_column_landscape(params, r, mesh=mesh)
    report = maximize_G(params, options=options)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(_report_to_json(report), fh, indent=2)
        fh.write("\n")
    outputs = [out]
    if land_out is not None:
        header = ["r"] + [f"mu_plus_{k + 1}" for k in range(params.s)] + ["G"]
        with open(land_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join([str(int(row[0]))]
                                  + [_fmt(v) for v in row[1:]]) + "\n")
        outputs.append(land_path)
    _write_manifest(out, "equilibria", seed, outputs, params, blocks,
                    extra={"restarts": restarts})
    return 0


def cmd_phase_diagram(args):
    cfg = _load_config(args)
    q = _opt(args, cfg, "q", required=True, cast=int)
    s = _at_least_one("s", _opt(args, cfg, "s", required=True, cast=int))
    g_min = _opt(args, cfg, "g_min", required=True, cast=float)
    g_max = _opt(args, cfg, "g_max", required=True, cast=float)
    g_step = _opt(args, cfg, "g_step", default=0.05, cast=float)
    band = _opt(args, cfg, "critical_band", default=CRITICAL_BAND, cast=float)
    seed = _opt(args, cfg, "seed", default=0, cast=int)
    out = _out_path(args, cfg, "out", "phase_diagram.csv")
    if not (g_step > 0 and g_max >= g_min and math.isfinite(g_max - g_min)):
        raise InvalidInputError("need g_step > 0 and finite g_max >= g_min")
    steps = (g_max - g_min) / g_step + 1e-9
    if steps >= MAX_PHASE_ROWS:
        raise CapacityError(f"the g grid needs {steps + 1:.6g} rows, more than "
                            f"{MAX_PHASE_ROWS}", required=steps + 1)
    zeta = critical_temperature(q)
    uniform = np.full(q, 1.0 / q)
    count = math.floor(steps) + 1
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("g,phase,u,G_Q,G_nu1\n")
        for idx in range(count):
            g = g_min + idx * g_step
            u = potts_fixed_point_u(g, q)
            phase = classify_phase(g, q, band)
            G_Q = potts_functional(uniform, g) + math.log(s)
            G_nu1 = potts_functional(s * phi(u, q, s), g) + math.log(s)
            fh.write(",".join([_fmt(g), phase.value, _fmt(u), _fmt(G_Q),
                               _fmt(G_nu1)]) + "\n")
    _write_manifest(out, "phase-diagram", seed, [out],
                    extra={"q": q, "s": s, "g_min": g_min, "g_max": g_max,
                           "g_step": g_step, "zeta_q": zeta})
    return 0


def _json_numbers(values):
    """A name -> float dict with every non-finite value (a NaN worst value)
    as None, which JSON writes as null: the file stays strict JSON."""
    return {name: value if math.isfinite(value) else None for name, value in values.items()}


def cmd_lsi_check(args):
    cfg = _load_config(args)
    params, blocks = _resolve_model(args, cfg)
    seed = _opt(args, cfg, "seed", default=0, cast=int)
    num_f = _opt(args, cfg, "num_f", default=100, cast=int)
    amplitude = _opt(args, cfg, "amplitude", default=1.0, cast=float)
    out = _out_path(args, cfg, "out", "lsi_report.json")
    report = verify_lsi_suite(blocks, params, num_f=num_f, seed=seed,
                              amplitude=amplitude)
    doc = {
        "condition_asymptotic": report.condition_asymptotic,
        "gamma1": report.gamma1,
        "gamma2": report.gamma2,
        "inf_norm": report.inf_norm,
        "two_norm": report.two_norm,
        "constants": {
            "C": report.constants.C,
            "sigma1_sq": report.constants.sigma1_sq,
            "sigma2_sq": report.constants.sigma2_sq,
            "sigma3_sq": report.constants.sigma3_sq,
        },
        "num_observables": report.num_observables,
        "worst_slack": _json_numbers(report.worst_slack),
        "worst_ratio": _json_numbers(report.worst_ratio),
        "violations": report.violations,
        "pass": report.violations == 0,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    _write_manifest(out, "lsi-check", seed, [out], params, blocks,
                    extra={"num_f": num_f, "amplitude": amplitude})
    return 0


def cmd_concentration(args):
    cfg = _load_config(args)
    params, blocks = _resolve_model(args, cfg)
    seed = _opt(args, cfg, "seed", default=0, cast=int)
    sweeps = _opt(args, cfg, "sweeps", default=2000, cast=int)
    thin = _opt(args, cfg, "thin", default=1, cast=int)
    burn_in = _opt(args, cfg, "burn_in", cast=int)
    k = _opt(args, cfg, "k", default=1, cast=int) - 1
    c = _opt(args, cfg, "c", default=1, cast=int) - 1
    mode = _opt(args, cfg, "constants", default="asymptotic")
    t_max = _opt(args, cfg, "t_max", cast=float)
    t_points = _at_least_one("t_points", _opt(args, cfg, "t_points", default=10, cast=int))
    out = _out_path(args, cfg, "out", "concentration.csv")
    if not 0 <= k < blocks.s:
        raise InvalidInputError(f"--k must lie in 1..{blocks.s}")
    if not 0 <= c < params.q:
        raise InvalidInputError(f"--c must lie in 1..{params.q}")
    if mode == "asymptotic":
        constants = asymptotic_constants(params.q, params.beta)
    elif mode == "measured":
        g1 = gamma1_exact(blocks, params)
        _, two_norm = matrix_norms(interdependence_matrix_exact(blocks, params))
        if two_norm >= 1.0:
            raise ConditionNotMetError(
                f"interdependence two-norm {two_norm} is not below 1"
            )
        constants = lsi_constants(g1, 1.0 - two_norm)
    else:
        raise InvalidInputError("--constants must be 'asymptotic' or 'measured'")
    if t_max is None:
        t_max = float(blocks.sizes[k])
    if not t_max >= 0.0:
        raise InvalidInputError(f"--t-max must be >= 0, got {t_max}")
    summary = run_chain(blocks, params, sweeps, thin=thin, seed=seed,
                        burn_in=burn_in)
    t_grid = np.linspace(0.0, t_max, t_points)
    rows = concentration_report(summary, constants, k, c, t_grid)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("t,tail,bound,std_error,flagged\n")
        for row in rows:
            fh.write(",".join([_fmt(row.t), _fmt(row.tail), _fmt(row.bound),
                               _fmt(row.std_error),
                               "1" if row.flagged else "0"]) + "\n")
    _write_manifest(out, "concentration", seed, [out], params, blocks,
                    extra={"sweeps": sweeps, "thin": thin, "k": k + 1,
                           "c": c + 1, "constants_mode": mode,
                           "sigma3_sq": constants.sigma3_sq})
    return 0


def _add_common(parser):
    parser.add_argument("--out-dir", dest="out_dir", help="directory for outputs")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--config", help="JSON file of default option values")


def _add_model(parser):
    parser.add_argument("--q", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--sizes", help="comma-separated block sizes, e.g. 50,50")
    parser.add_argument("--gamma", help="comma-separated block proportions")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockpotts",
        description="Block spin Potts model experiments",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="heat-bath trajectories as CSV")
    _add_common(p)
    _add_model(p)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--chains", type=int)
    p.add_argument("--init", help="random | uniform-color:c (1-based)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact count-matrix law as CSV")
    _add_common(p)
    _add_model(p)
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("equilibria", help="maximizers of the free energy functional")
    _add_common(p)
    _add_model(p)
    p.add_argument("--restarts", type=int)
    p.add_argument("--landscape-out", dest="landscape_out",
                   help="also sample G on the two-column manifold into this CSV")
    p.add_argument("--landscape-r", dest="landscape_r", type=int)
    p.add_argument("--landscape-mesh", dest="landscape_mesh", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("phase-diagram", help="sweep the effective coupling g")
    _add_common(p)
    p.add_argument("--q", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--g-min", dest="g_min", type=float)
    p.add_argument("--g-max", dest="g_max", type=float)
    p.add_argument("--g-step", dest="g_step", type=float)
    p.add_argument("--critical-band", dest="critical_band", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("lsi-check", help="verify the entropy inequalities exhaustively")
    _add_common(p)
    _add_model(p)
    p.add_argument("--num-f", dest="num_f", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lsi_check)

    p = sub.add_parser("concentration", help="tail bounds for block color counts")
    _add_common(p)
    _add_model(p)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--k", type=int, help="block index, 1-based")
    p.add_argument("--c", type=int, help="color index, 1-based")
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--t-points", dest="t_points", type=int)
    p.add_argument("--constants", help="asymptotic | measured")
    p.add_argument("--out")
    p.set_defaults(func=cmd_concentration)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except ConditionNotMetError as exc:
        print(f"condition not met: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
