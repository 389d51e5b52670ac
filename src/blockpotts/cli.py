"""Command-line interface tying the modules into reproducible experiments.

Commands: simulate, exact, equilibria, phase-diagram, lsi-check,
concentration.  Every command writes its data files and returns its
manifest record (outputs, params, blocks, result); main then writes the
manifest JSON through _write_manifest, so a command that fails writes none.
The manifest's `options` hold every parsed option after --config merging,
so replaying them as flags rewrites the same data files, and its `result`
holds only values the run computed.  Exit codes:
0 success, 1 I/O failure, 2 usage, 3 capacity, 4 non-convergence, 5
analytic condition not met.

Each option's type and default are declared once, in build_parser.  A
--config JSON file holds option values under the option names with dashes
replaced by underscores; they are parsed as flags typed before the explicit
ones, which therefore win.
Every CSV goes through _write_csv: an optional '# {json}' line, a header
row, comma separators and floats as .17g.  JSON is strict (no NaN), UTF-8,
keys in fixed order.  A writer makes the output directory as it opens its
file, so a run refused before it writes leaves no directory behind.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .equilibria import (
    SearchOptions,
    classify_phase,
    critical_temperature,
    maximize_G,
    phi,
    potts_fixed_point_u,
    structure_certificate,
    two_column_landscape,
)
from .errors import (
    CapacityError,
    ConditionNotMetError,
    InvalidInputError,
    NonConvergenceError,
)
from .exact import DEFAULT_SUPPORT_CAP, exact_distribution
from .glauber import check_run_options, run_chain
from .lsi import (
    asymptotic_constants,
    concentration_report,
    measured_constants,
    verify_lsi_suite,
)
from .model import BlockStructure, ModelParams, check_cap, model_to_json
from .numutil import LEAF
from .rates import potts_functional

# Most rows a command may write to one CSV (simulate: over all chains):
# a larger request is refused (exit 3) before anything is allocated or opened.
MAX_ROWS = 10_000_000
# Most entries s * q of a count matrix that simulate, concentration or
# phase-diagram may allocate tables for; a larger one is refused (exit 3).
MAX_ENTRIES = 1 << 20


def int_list(text):
    """Comma-separated integers, e.g. '50,50'."""
    return tuple(int(p) for p in text.replace(" ", "").split(",") if p != "")


def non_negative_int(text):
    """An integer >= 0, e.g. a seed."""
    if (value := int(text)) < 0:
        raise ValueError(f"{value} is negative")
    return value


def float_list(text):
    """Comma-separated numbers, e.g. '0.4,0.6'."""
    return tuple(float(p) for p in text.replace(" ", "").split(",") if p != "")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are one 'error: ...' line with exit code 2,
    with no abbreviated flags, and whose subcommands read their --config
    file as flags typed before the explicit ones."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        if self.get_default("func") is not None:  # a subcommand's parser
            pre = _Parser(add_help=False)
            pre.add_argument("--config")
            path = pre.parse_known_args(args)[0].config
            if path is not None:
                args = self._config_argv(path) + args
        return super().parse_known_args(args, namespace)

    def _config_argv(self, path):
        """The --config file's values as '--flag=text' arguments.  A key must
        be an option of this subcommand; a string is the text typed after
        the flag, and a number is accepted only by a numeric option that it
        converts to exactly (2.9 is not an int)."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                self.error(f"--config file is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            self.error("--config file must hold a JSON object")
        options = {action.dest: action for action in self._actions
                   if action.option_strings and action.dest not in ("help", "config")}
        argv = []
        for key, value in doc.items():
            action = options.get(key)
            if action is None:
                self.error(f"--config key {key!r} is not an option of {self.prog}")
            text = value if isinstance(value, str) else None
            if type(value) in (int, float) and action.type in (int, float, non_negative_int):
                try:
                    converted = action.type(value)
                except (OverflowError, ValueError):
                    converted = None
                if converted == value:
                    text = str(converted)
            if text is None:
                self.error(f"--config value {value!r} is not valid for "
                           f"{action.option_strings[0]}")
            argv.append(f"{action.option_strings[0]}={text}")
        return argv


def _at_least_one(key, value):
    if value < 1:
        raise InvalidInputError(f"--{key.replace('_', '-')} must be >= 1, got {value}")
    return value


def _check_entries(s, q):
    check_cap(s * q, MAX_ENTRIES, f"the {s} x {q} count matrix", "entries")


def _resolve_model(args):
    """(params, blocks) from the model flags.  --sizes, when given, fixes s
    and the proportions gamma = sizes / N; only equilibria also has --s and
    --gamma, for a model without blocks or with other proportions."""
    s, gamma, blocks = getattr(args, "s", None), getattr(args, "gamma", None), None
    if args.sizes is not None:
        blocks = BlockStructure(sizes=args.sizes)
        if s is not None and s != blocks.s:
            raise InvalidInputError(f"--s {s} conflicts with --sizes of length {blocks.s}")
        s = blocks.s
        if gamma is None:
            gamma = tuple(n / blocks.N for n in blocks.sizes)
    if s is None:
        raise InvalidInputError("one of --s or --sizes is required")
    if gamma is None:
        gamma = tuple(1.0 / s for _ in range(s))
    params = ModelParams(q=args.q, s=s, alpha=args.alpha, beta=args.beta, gamma=gamma)
    return params, blocks


def _write_json(path, doc):
    """Write doc as two-space-indented strict JSON and a final newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def count_columns(s, q):
    """CSV column names b_1_1,..,b_s_q of a flattened s x q count matrix,
    with 1-based block and color indices."""
    return [f"b_{k + 1}_{c + 1}" for k in range(s) for c in range(q)]


def _write_csv(path, header, rows, comment=None):
    """Write the '# comment' line when given, the header row, then each row
    through one template taken from the first row: %.17g for a float cell
    and %s for any other.  Rows are formatted as they are drawn, so none is
    held once it is written."""
    rows = iter(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is not None:
            line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
            fh.writelines(line % tuple(r) for r in itertools.chain([first], rows))


def _write_manifest(args, outputs, params, blocks, result):
    """Write <outputs[0]>.manifest.json; `result` holds what the run computed."""
    doc = {
        "command": args.command,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": getattr(args, "seed", None),
        "params": model_to_json(params, blocks) if params is not None else None,
        "options": {key: value for key, value in vars(args).items()
                    if key not in ("command", "func")},
        "output_paths": [str(p) for p in outputs],
    }
    if result is not None:
        doc["result"] = result
    _write_json(Path(str(outputs[0]) + ".manifest.json"), doc)


def _parse_init(text, q):
    if text == "random":
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
    params, blocks = _resolve_model(args)
    _check_entries(params.s, params.q)
    chains = _at_least_one("chains", args.chains)
    init = _parse_init(args.init, params.q)
    out = Path(args.out_dir, args.out)
    sweeps, thin, burn_in = args.sweeps, args.thin, args.burn_in
    # a rejected run must not leave a header-only CSV behind
    check_run_options(blocks, params, sweeps, thin, burn_in)
    check_cap(chains * (sweeps // thin), MAX_ROWS, f"--chains {chains}", "rows")

    child_seeds = [int(ss.generate_state(1)[0]) for ss in
                   np.random.SeedSequence(args.seed).spawn(chains)]

    def rows():  # one chain at a time, so only one chain's samples are held
        for chain_id, child in enumerate(child_seeds, start=1):
            summary = run_chain(blocks, params, sweeps, thin=thin,
                                seed=child, init=init, burn_in=burn_in)
            flat = summary.samples.reshape(-1, blocks.s * params.q).tolist()
            for idx, counts in enumerate(flat, start=1):
                yield (chain_id, idx * thin, *counts)

    _write_csv(out, ["chain", "sweep", *count_columns(blocks.s, params.q)], rows())
    return [out], params, blocks, {"child_seeds": child_seeds}


def cmd_exact(args):
    params, blocks = _resolve_model(args)
    out = Path(args.out_dir, args.out)
    dist = exact_distribution(blocks, params, cap=args.cap)
    # each block's compositions are formatted once, as one string per row
    counts = itertools.product(*[[",".join(map(str, row)) for row in c.tolist()]
                                 for c in dist.compositions])
    values = itertools.chain.from_iterable(
        zip(dist.log_weights[lo : lo + LEAF].tolist(),
            dist.probabilities[lo : lo + LEAF].tolist()) for lo in range(0, len(dist), LEAF))
    _write_csv(out, [*count_columns(blocks.s, params.q), "log_weight", "probability"],
               map(tuple.__add__, counts, values),
               comment=json.dumps({**model_to_json(params, blocks), "log_Z": dist.log_Z}))
    return [out], params, blocks, {"log_Z": dist.log_Z, "support_size": len(dist)}


_DIAGNOSTICS = ("restarts", "ascent_iterations", "max_ascent_iterations",
                "restarts_converged", "newton_handoffs", "basin_stops", "newton_failures",
                "certificate_margin")


def _report_to_json(report, params):
    structure = [structure_certificate(m, params) for m in report.maximizers]
    return {
        "phase": report.phase.value,
        "g": report.g,
        "zeta_q": report.zeta_q,
        "u": None if math.isnan(report.u) else report.u,
        "sup_G": report.sup_G,
        "residual_max": report.residual_max if math.isfinite(report.residual_max) else None,
        "certificate": report.certificate,
        "maximizers": [m.tolist() for m in report.maximizers],
        "structure": [{**c, "residual_max": c["residual_max"]
                       if math.isfinite(c["residual_max"]) else None} for c in structure],
        "diagnostics": {key: getattr(report, key) for key in _DIAGNOSTICS},
    }


def cmd_equilibria(args):
    params, blocks = _resolve_model(args)
    out = Path(args.out_dir, args.out)
    options = SearchOptions(restarts=args.restarts, seed=args.seed)
    if args.landscape_out is not None:
        check_cap(args.landscape_mesh ** params.s, MAX_ROWS,
                  f"--landscape-mesh {args.landscape_mesh} over {params.s} blocks", "rows")
        # sampled before anything is written, so a bad r or mesh leaves no file
        land_path = Path(args.out_dir, args.landscape_out)
        rows = two_column_landscape(params, args.landscape_r, mesh=args.landscape_mesh)
    report = maximize_G(params, options=options)
    _write_json(out, _report_to_json(report, params))
    outputs = [out]
    if args.landscape_out is not None:
        header = ["r", *(f"mu_plus_{k + 1}" for k in range(params.s)), "G"]
        _write_csv(land_path, header, rows.tolist())
        outputs.append(land_path)
    return outputs, params, blocks, None


def cmd_phase_diagram(args):
    q, g_min, g_max, g_step = args.q, args.g_min, args.g_max, args.g_step
    s = _at_least_one("s", args.s)
    _check_entries(s, q)
    out = Path(args.out_dir, args.out)
    if not (0 < g_step < math.inf and g_max >= g_min and math.isfinite(g_max - g_min)):
        raise InvalidInputError("need finite g_step > 0 and finite g_max >= g_min")
    steps = (g_max - g_min) / g_step + 1e-9
    num_rows = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
    check_cap(num_rows, MAX_ROWS, f"the g grid of step {g_step}", "rows")
    zeta = critical_temperature(q)
    uniform = np.full(q, 1.0 / q)

    def rows():
        for idx in range(num_rows):
            g = g_min + idx * g_step
            u = potts_fixed_point_u(g, q)
            yield (g, classify_phase(g, q).value, u,
                   potts_functional(uniform, g) + math.log(s),
                   potts_functional(s * phi(u, q, s), g) + math.log(s))

    _write_csv(out, ["g", "phase", "u", "G_Q", "G_nu1"], rows())
    return [out], None, None, {"zeta_q": zeta}


def _json_numbers(values):
    """A name -> float dict with every non-finite value (a NaN worst value)
    as None, which JSON writes as null: the file stays strict JSON."""
    return {name: value if math.isfinite(value) else None for name, value in values.items()}


def cmd_lsi_check(args):
    params, blocks = _resolve_model(args)
    out = Path(args.out_dir, args.out)
    report = verify_lsi_suite(blocks, params, num_f=args.num_f, seed=args.seed,
                              amplitude=args.amplitude)
    doc = {
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
    _write_json(out, doc)
    return [out], params, blocks, None


def cmd_concentration(args):
    params, blocks = _resolve_model(args)
    _check_entries(params.s, params.q)
    k, c = args.k - 1, args.c - 1
    t_points = _at_least_one("t_points", args.t_points)
    check_cap(t_points, MAX_ROWS, "--t-points", "rows")
    out = Path(args.out_dir, args.out)
    if not 0 <= k < blocks.s:
        raise InvalidInputError(f"--k must lie in 1..{blocks.s}")
    if not 0 <= c < params.q:
        raise InvalidInputError(f"--c must lie in 1..{params.q}")
    t_max = float(blocks.sizes[k]) if args.t_max is None else args.t_max
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise InvalidInputError(f"--t-max must be finite and >= 0, got {t_max}")
    check_run_options(blocks, params, args.sweeps, args.thin, args.burn_in)
    if args.sweeps // args.thin < 1:
        raise InvalidInputError(f"--sweeps {args.sweeps} with --thin {args.thin} "
                                "records no sample")
    if args.constants == "asymptotic":
        constants = asymptotic_constants(params.q, params.beta)
    else:
        constants = measured_constants(blocks, params)[0]
    summary = run_chain(blocks, params, args.sweeps, thin=args.thin, seed=args.seed,
                        burn_in=args.burn_in)
    rows = concentration_report(summary, constants, k, c, np.linspace(0.0, t_max, t_points))
    _write_csv(out, ["t", "tail", "bound", "std_error", "flagged"],
               ((r.t, r.tail, r.bound, r.std_error, int(r.flagged)) for r in rows))
    return [out], params, blocks, {"sigma3_sq": constants.sigma3_sq}


def _add_common(parser, out, seed=True):
    parser.add_argument("--out", default=out, help=f"output file (default {out})")
    parser.add_argument("--out-dir", default=".", help="directory for relative outputs")
    if seed:
        parser.add_argument("--seed", type=non_negative_int, default=0, help="master seed")
    parser.add_argument("--config", help="JSON file of option values")


def _add_model(parser, sizes_required=True):
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--sizes", type=int_list, required=sizes_required,
                        help="comma-separated block sizes, e.g. 50,50")


def _add_chain(parser, sweeps):
    parser.add_argument("--sweeps", type=int, default=sweeps)
    parser.add_argument("--thin", type=int, default=1)
    parser.add_argument("--burn-in", type=int,
                        help="unrecorded sweeps first (default 10 percent of --sweeps)")


def build_parser():
    parser = _Parser(prog="blockpotts", description="Block spin Potts model experiments")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="heat-bath trajectories as CSV")
    _add_common(p, "simulate.csv")
    _add_model(p)
    _add_chain(p, sweeps=1000)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--init", default="random", help="random | uniform-color:c (1-based)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact count-matrix law as CSV")
    _add_common(p, "exact.csv", seed=False)
    _add_model(p)
    p.add_argument("--cap", type=int, default=DEFAULT_SUPPORT_CAP)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("equilibria", help="maximizers of the free energy functional")
    _add_common(p, "equilibria.json")
    _add_model(p, sizes_required=False)
    p.add_argument("--s", type=int, help="number of blocks, when --sizes is not given")
    p.add_argument("--gamma", type=float_list,
                   help="comma-separated block proportions (default sizes / N, or 1/s)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--landscape-out",
                   help="also sample G on the two-column manifold into this CSV")
    p.add_argument("--landscape-r", type=int, default=1)
    p.add_argument("--landscape-mesh", type=int, default=25)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("phase-diagram", help="sweep the effective coupling g")
    _add_common(p, "phase_diagram.csv", seed=False)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--g-min", type=float, required=True)
    p.add_argument("--g-max", type=float, required=True)
    p.add_argument("--g-step", type=float, default=0.05)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("lsi-check", help="verify the entropy inequalities exhaustively")
    _add_common(p, "lsi_report.json")
    _add_model(p)
    p.add_argument("--num-f", type=int, default=100)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.set_defaults(func=cmd_lsi_check)

    p = sub.add_parser("concentration", help="tail bounds for block color counts")
    _add_common(p, "concentration.csv")
    _add_model(p)
    _add_chain(p, sweeps=2000)
    p.add_argument("--k", type=int, default=1, help="block index, 1-based")
    p.add_argument("--c", type=int, default=1, help="color index, 1-based")
    p.add_argument("--t-max", type=float, help="largest t (default the size of block k)")
    p.add_argument("--t-points", type=int, default=10)
    p.add_argument("--constants", choices=("asymptotic", "measured"), default="asymptotic")
    p.set_defaults(func=cmd_concentration)

    return parser


@functools.cache
def _parser():
    """The parser of main, built on its first call: building one makes a
    HelpFormatter per option, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        _write_manifest(args, *args.func(args))
        return 0
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
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
