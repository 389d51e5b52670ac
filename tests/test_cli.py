"""Command-line interface: outputs, manifests, exit codes, determinism."""

import ast
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import blockpotts
from blockpotts import cli, critical_residual
from blockpotts.cli import build_parser, main
from blockpotts.lsi import asymptotic_constants
from blockpotts.model import ModelParams

import oracles

SRC = str(Path(blockpotts.__file__).resolve().parents[1])


def run(args):
    return main(args)


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "traj.csv"
    rc = run(["simulate", "--q", "3", "--sizes", "3,3", "--alpha", "0.5",
              "--beta", "1.0", "--sweeps", "20", "--seed", "1",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "chain,sweep,b_1_1,b_1_2,b_1_3,b_2_1,b_2_2,b_2_3"
    assert len(lines) == 21
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 1
    assert manifest["params"]["sizes"] == [3, 3]
    assert "blocks" not in manifest
    assert str(out) in manifest["output_paths"]


def test_simulate_same_seed_identical_bytes(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = run(["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2",
                  "--beta", "0.8", "--sweeps", "50", "--seed", "7",
                  "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, sha256", [
    (["--q", "3", "--sizes", "50,50", "--alpha", "0.5", "--beta", "1.0", "--sweeps", "200",
      "--thin", "10", "--seed", "1", "--chains", "2"],
     "37297d1833db379a11285f22aba983dcaab7f6868a2a17342629e3b772343a7e"),
    (["--q", "5", "--sizes", "20,30,40,10", "--alpha", "1.0", "--beta", "3.0", "--sweeps", "120",
      "--thin", "3", "--burn-in", "7", "--seed", "2", "--chains", "2",
      "--init", "uniform-color:4"],
     "4ddae7a597277ae04f3d6da305f16b82e6c20065137a81e7de4960280d7d3b2b"),
], ids=["q3", "q5"])
def test_simulate_csv_bytes_are_pinned(tmp_path, argv, sha256):
    # literal digests of CSVs written by the per-color loop that the
    # generated sweep functions replaced: the samples must not move
    out = tmp_path / "traj.csv"
    assert run(["simulate", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_simulate_conflicting_s_and_sizes_is_usage_error(tmp_path):
    rc = run(["simulate", "--q", "3", "--s", "3", "--sizes", "2,2",
              "--alpha", "0.2", "--beta", "0.8",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_unknown_flag_is_usage_error(capsys):
    rc = run(["simulate", "--does-not-exist", "1"])
    assert rc == 2
    capsys.readouterr()


def test_no_command_prints_help(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_exact_writes_csv_and_capacity_exit_code(tmp_path):
    out = tmp_path / "exact.csv"
    rc = run(["exact", "--q", "3", "--sizes", "2,2", "--alpha", "0.5",
              "--beta", "1.0", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "exact.csv.manifest.json").read_text())
    assert "log_Z" in manifest["result"]
    rc = run(["exact", "--q", "3", "--sizes", "9,9", "--alpha", "0.5",
              "--beta", "1.0", "--cap", "10", "--out", str(tmp_path / "c.csv")])
    assert rc == 3


def test_exact_over_cap_exits_before_enumerating(tmp_path, capsys):
    out = tmp_path / "big.csv"
    start = time.perf_counter()
    rc = run(["exact", "--q", "3", "--sizes", "1000000", "--alpha", "0.5",
              "--beta", "1.0", "--cap", "10", "--out", str(out)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 3
    assert elapsed < 1.0
    assert err.startswith("capacity error: ") and len(err.strip().splitlines()) == 1
    assert "500001500001" in err
    assert not out.exists()


def test_equilibria_json_round_trips(tmp_path):
    out = tmp_path / "eq.json"
    rc = run(["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5",
              "--beta", "3.5", "--restarts", "4", "--seed", "0",
              "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["phase"] == "SUPERCRITICAL"
    assert len(doc["maximizers"]) == 3
    assert doc["residual_max"] <= 1e-8
    mat = np.asarray(doc["maximizers"][0])
    assert mat.shape == (2, 3)
    manifest = json.loads((tmp_path / "eq.json.manifest.json").read_text())
    assert manifest["command"] == "equilibria"
    diag = doc["diagnostics"]
    assert diag["restarts"] == 3 * 4
    assert 0 < diag["restarts_converged"] <= diag["restarts"]
    assert 1 <= diag["max_ascent_iterations"] <= diag["ascent_iterations"]
    assert 0 < diag["newton_handoffs"] <= diag["restarts_converged"]
    # g = 3 = q: no contraction ball around the flat point, but one around
    # each closed-form nu^i
    assert 0 < diag["basin_stops"] <= diag["restarts_converged"]
    assert diag["newton_failures"] >= 0
    assert diag["certificate_margin"] >= -1e-9


@pytest.mark.parametrize("model", [
    ["--s", "2", "--alpha", "2.5", "--beta", "3.5"],
    ["--s", "2", "--alpha", "3.0", "--beta", "4.0"],
    ["--s", "3", "--gamma", "0.2,0.3,0.5", "--alpha", "1.5", "--beta", "3.5"],
], ids=["subcritical", "supercritical", "nonuniform"])
def test_equilibria_json_reports_each_maximizers_structure(tmp_path, model):
    out = tmp_path / "eq.json"
    assert run(["equilibria", "--q", "4", *model, "--restarts", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    keys = list(doc)
    assert keys[keys.index("maximizers") + 1] == "structure"
    assert len(doc["structure"]) == len(doc["maximizers"]) >= 1
    for cert in doc["structure"]:
        assert set(cert) == {"positive", "common_order", "at_most_two_values", "residual_max"}
        assert cert["positive"] and cert["common_order"] and cert["at_most_two_values"]
        assert 0.0 <= cert["residual_max"] <= 1e-8


def test_equilibria_underflowed_maximizers_write_null_residuals(tmp_path):
    out = tmp_path / "eq.json"
    run(["equilibria", "--q", "3", "--s", "2", "--alpha", "1000", "--beta", "1000",
         "--restarts", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["residual_max"] is None
    assert doc["certificate"].startswith("closed-form, not certified")
    assert all(c["residual_max"] is None and not c["positive"] for c in doc["structure"])


def test_equilibria_residual_max_is_that_of_the_maximizers_read_back(tmp_path):
    # at q = 9 the row means of a Fortran-ordered maximizer sum in another
    # order than those of the C-ordered matrix that JSON gives back.  At
    # beta 12 the maximizers are nine two-column matrices with a residual
    # of 8.9e-16; the flat point's, at beta 4, is 0 in any order
    out = tmp_path / "eq.json"
    assert run(["equilibria", "--q", "9", "--s", "3", "--gamma", "0.2,0.3,0.5",
                "--alpha", "1", "--beta", "12", "--restarts", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["phase"] == "SUPERCRITICAL" and len(doc["maximizers"]) == 9
    params = ModelParams(q=9, s=3, alpha=1.0, beta=12.0, gamma=(0.2, 0.3, 0.5))
    residuals = [float(np.max(np.abs(critical_residual(np.array(m), params))))
                 for m in doc["maximizers"]]
    assert doc["residual_max"] == max(residuals)
    assert [cert["residual_max"] for cert in doc["structure"]] == residuals


def test_equilibria_non_convergence_exits_4_without_output(tmp_path, capsys, probe_above_sup_G):
    rc = run(["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
              "--restarts", "4", "--out-dir", str(tmp_path), "--out", "eq.json"])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("non-convergence: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_equilibria_landscape_export(tmp_path):
    out = tmp_path / "eq.json"
    land = tmp_path / "land.csv"
    rc = run(["equilibria", "--q", "3", "--s", "2", "--alpha", "2.0",
              "--beta", "3.0", "--restarts", "2",
              "--landscape-out", str(land), "--landscape-r", "1",
              "--landscape-mesh", "5", "--out", str(out)])
    assert rc == 0
    lines = land.read_text().splitlines()
    assert lines[0] == "r,mu_plus_1,mu_plus_2,G"
    assert len(lines) == 1 + 25


@pytest.mark.parametrize("argv", [
    "simulate --q 4 --sizes 2,3,1 --alpha 0.5 --beta 1.0 --sweeps 50 --chains 3 --seed 4",
    "simulate --q 3 --sizes 3,3 --alpha 0.5 --beta 1.0 --sweeps 5 --thin 10",
    "equilibria --q 3 --s 2 --alpha 2.5 --beta 3.5 --landscape-out land.csv "
    "--landscape-mesh 30",
    "phase-diagram --q 3 --s 2 --g-min 2.0 --g-max 3.5 --g-step 0.05",
    "concentration --q 3 --sizes 5,5 --alpha 0.05 --beta 0.1 --sweeps 300 --seed 2 "
    "--t-points 6",
], ids=["simulate", "simulate-header-only", "landscape", "phase-diagram", "concentration"])
def test_csv_bytes_equal_the_cell_by_cell_writer(argv, tmp_path, monkeypatch):
    assert main(shlex.split(argv) + ["--out-dir", str(tmp_path / "template")]) == 0
    monkeypatch.setattr(cli, "_write_csv", oracles.write_csv_by_cells)
    assert main(shlex.split(argv) + ["--out-dir", str(tmp_path / "cells")]) == 0
    written = sorted((tmp_path / "cells").glob("*.csv"))
    assert written
    for path in written:
        assert path.read_bytes() == (tmp_path / "template" / path.name).read_bytes()


def test_only_the_cli_opens_files():
    # file formats live in one module: no other module calls open()
    package = Path(blockpotts.__file__).parent
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"]
    assert calls == []


def test_main_alone_writes_manifests():
    # each command returns its manifest record; main writes it
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def writes(node):
        return sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_write_manifest"
                   for n in ast.walk(node))

    assert writes(tree) == writes(functions["main"]) == 1
    zeros = [name for name, f in functions.items() if name.startswith("cmd_")
             for node in ast.walk(f) if isinstance(node, ast.Return)
             and isinstance(node.value, ast.Constant) and node.value.value == 0]
    assert len([name for name in functions if name.startswith("cmd_")]) == 6
    assert zeros == []


def _package_imports(path):
    """The package modules that one module imports, in any import form."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"blockpotts.{node.module or ''}".rstrip(".") if node.level else node.module
            targets = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        names.update(t.split(".")[1] for t in targets if t.startswith("blockpotts."))
    return names & {p.stem for p in path.parent.glob("*.py")}


def test_sampler_imports_only_errors_and_model():
    # glauber is the sampler alone, and the chain statistics in lsi read
    # its samples without it
    package = Path(blockpotts.__file__).parent
    assert "glauber" in _package_imports(package / "cli.py")
    assert _package_imports(package / "glauber.py") <= {"errors", "model"}
    assert "glauber" not in _package_imports(package / "lsi.py")


def test_one_x_log_x_for_every_entropy():
    # every x log x of numutil, rates and lsi goes through numutil._xlogx,
    # the one place that takes np.log, and the rates need no np.where mask
    package = Path(blockpotts.__file__).parent

    def numpy_calls(node, name):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr == name
                and getattr(n.func.value, "id", None) == "np"]

    trees = {stem: ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))
             for stem in ("numutil", "rates", "lsi")}
    kernel = [node for node in trees["numutil"].body
              if isinstance(node, ast.FunctionDef) and node.name == "_xlogx"]
    assert len(kernel) == 1
    logs = {stem: numpy_calls(tree, "log") for stem, tree in trees.items()}
    assert logs == {"numutil": numpy_calls(kernel[0], "log"), "rates": [], "lsi": []}
    assert len(logs["numutil"]) == 1
    assert numpy_calls(trees["rates"], "where") == []


def test_phase_diagram_single_label_change(tmp_path):
    out = tmp_path / "pd.csv"
    rc = run(["phase-diagram", "--q", "3", "--s", "2", "--g-min", "2.0",
              "--g-max", "3.5", "--g-step", "0.05", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g,phase,u,G_Q,G_nu1"
    assert len(lines) == 32
    phases = [line.split(",")[1] for line in lines[1:]]
    changes = sum(a != b for a, b in zip(phases, phases[1:]))
    assert changes == 1
    assert phases[0] == "SUBCRITICAL" and phases[-1] == "SUPERCRITICAL"


def test_lsi_check_pass_and_condition_failure(tmp_path, capsys):
    out = tmp_path / "lsi.json"
    rc = run(["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05",
              "--beta", "0.1", "--num-f", "10", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["violations"] == 0
    capsys.readouterr()
    # e^710 and a q of 401 digits overflow a float: the condition fails, it
    # does not raise
    for argv in (["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05", "--beta", "0.2"],
                 ["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0", "--beta", "710"],
                 ["lsi-check", "--q", str(10**400 + 7), "--sizes", "2", "--alpha", "0.05",
                  "--beta", "0.1"],
                 ["concentration", "--q", "3", "--sizes", "2,2", "--alpha", "0",
                  "--beta", "710", "--sweeps", "5"]):
        rc = run(argv + ["--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("condition not met: ") and len(err.strip().splitlines()) == 1


def python_m_blockpotts(args, **kwargs):
    """Run `python -m blockpotts` from the source tree this test imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "blockpotts", *args], capture_output=True,
                          text=True, env=env, timeout=300, **kwargs)


def test_python_m_blockpotts_runs_the_cli():
    proc = python_m_blockpotts(["lsi-check", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "lsi-check" in proc.stdout


def test_lsi_check_nan_worst_values_are_null(tmp_path):
    # at amplitude 1e3 e^f overflows: both exp-form inequalities read NaN on
    # three Gaussian observables, which count as violations and are written
    # as null, with no numpy warning on stderr
    out = tmp_path / "lsi.json"
    proc = python_m_blockpotts(["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05",
                                "--beta", "0.1", "--num-f", "3", "--amplitude", "1e3",
                                "--out", str(out)])
    assert proc.returncode == 0
    assert proc.stderr == ""

    def fail(constant):
        raise AssertionError(f"{constant} is not strict JSON")

    doc = json.loads(out.read_text(), parse_constant=fail)
    assert doc["violations"] == 6
    assert doc["pass"] is False
    for worst in (doc["worst_slack"], doc["worst_ratio"]):
        assert worst["entropy_expf_cov"] is None
        assert worst["entropy_expf_dirichlet"] is None
        assert isinstance(worst["entropy_f2"], float)


def test_lsi_check_one_site_system(tmp_path):
    # one site has no pair of distinct sites for the battery's indicator
    # products: 100 Gaussian observables, the zero one, 3 indicators, 3
    # block counts and 2 linear forms
    out = tmp_path / "lsi.json"
    proc = python_m_blockpotts(["lsi-check", "--q", "3", "--sizes", "1", "--alpha", "0.05",
                                "--beta", "0.1", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(out.read_text())
    assert doc["num_observables"] == 109
    assert doc["violations"] == 0


def test_concentration_outputs_table(tmp_path):
    out = tmp_path / "conc.csv"
    rc = run(["concentration", "--q", "3", "--sizes", "5,5", "--alpha", "0.05",
              "--beta", "0.1", "--sweeps", "300", "--seed", "2",
              "--t-points", "6", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,tail,bound,std_error,flagged"
    assert len(lines) == 7
    assert all(line.split(",")[4] == "0" for line in lines[1:])


def test_concentration_measured_constants(tmp_path):
    out = tmp_path / "conc.csv"
    rc = run(["concentration", "--q", "3", "--sizes", "3,3", "--alpha", "0.05",
              "--beta", "0.1", "--sweeps", "100", "--seed", "2",
              "--constants", "measured", "--t-points", "4", "--out", str(out)])
    assert rc == 0


def test_reused_parser_writes_what_a_fresh_one_writes(tmp_path, monkeypatch):
    # main builds its parser once per process; a run after a --config run,
    # after another subcommand or after a refused run must not see any of
    # them.  Each side runs in its own directory with relative paths, and
    # the manifests are compared without their timestamps.
    cfg = {"seed": 3, "restarts": 2, "landscape_out": "land.csv", "landscape_mesh": 4}
    model = ["--q", "3", "--alpha", "0.2", "--beta", "0.8"]
    runs = [
        ["equilibria", *model, "--s", "2", "--config", "cfg.json", "--out", "eq1.json"],
        ["equilibria", *model, "--s", "2", "--restarts", "2", "--out", "eq2.json"],
        ["phase-diagram", "--q", "3", "--s", "2", "--g-min", "2", "--g-max", "3",
         "--g-step", "0.5", "--out", "pd.csv"],
        ["exact", *model, "--sizes", "2,2", "--cap", "3", "--out", "refused.csv"],
        ["exact", *model, "--sizes", "2,2", "--out", "ex.csv"],
        ["simulate", *model],
        ["simulate", *model, "--sizes", "2,2", "--sweeps", "5", "--out", "sim.csv"],
    ]

    def outputs(side, fresh):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        Path("cfg.json").write_text(json.dumps(cfg))
        codes = []
        for argv in runs:
            if fresh:
                cli._parser.cache_clear()
            codes.append(run(argv))
        files = {}
        for path in sorted(Path(".").iterdir()):
            text = path.read_text()
            if path.name.endswith(".manifest.json"):
                doc = json.loads(text)
                del doc["timestamp"]
                text = json.dumps(doc)
            files[path.name] = text
        return codes, files

    reused, fresh = outputs("reused", False), outputs("fresh", True)
    assert reused == fresh
    assert reused[0] == [0, 0, 0, 3, 0, 2, 0]
    assert "land.csv" in reused[1] and "refused.csv" not in reused[1]
    assert json.loads(reused[1]["eq2.json.manifest.json"])["options"]["seed"] == 0


def test_config_file_merging_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "q": 3, "sizes": "2,2", "alpha": 0.2, "beta": 0.8,
        "sweeps": 30, "seed": 9,
    }))
    out1 = tmp_path / "one.csv"
    rc = run(["simulate", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    assert len(out1.read_text().splitlines()) == 31
    # explicit flag overrides the config value
    out2 = tmp_path / "two.csv"
    rc = run(["simulate", "--config", str(cfg), "--sweeps", "5",
              "--out", str(out2)])
    assert rc == 0
    assert len(out2.read_text().splitlines()) == 6


def test_out_dir_is_respected(tmp_path):
    rc = run(["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2",
              "--beta", "0.8", "--sweeps", "5", "--out-dir", str(tmp_path),
              "--out", "inner.csv"])
    assert rc == 0
    assert (tmp_path / "inner.csv").exists()
    assert (tmp_path / "inner.csv.manifest.json").exists()


@pytest.mark.parametrize("argv, code", [
    ("equilibria --q 3 --s 2 --alpha 2.5 --beta 3.5 --restarts 0", 2),
    ("simulate --q 3 --sizes 2,2 --alpha 0.2 --beta 0.8 --sweeps 0", 2),
    ("exact --q 3 --sizes 40,40 --alpha 0.5 --beta 1.0 --cap 5", 3),
    ("lsi-check --q 3 --sizes 2,2 --alpha 1 --beta 2", 5),
    ("phase-diagram --q 2 --s 2 --g-min 2.0 --g-max 3.5", 2),
], ids=["equilibria", "simulate", "exact", "lsi-check", "phase-diagram"])
def test_refused_run_makes_no_output_directory(argv, code, tmp_path, capsys):
    # the output directory is made when a file is written, not before
    out = tmp_path / "new" / "out"
    assert run(shlex.split(argv) + ["--out", str(out)]) == code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_missing_required_option_is_usage_error(tmp_path):
    rc = run(["exact", "--q", "3", "--alpha", "0.1", "--beta", "0.5",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--q", "3", "--sizes", "5,a", "--alpha", "0.2", "--beta", "0.8"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
     "--init", "uniform-color:x"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
     "--chains", "-1"],
    ["phase-diagram", "--q", "3", "--s", "0", "--g-min", "2.0", "--g-max", "3.0"],
    ["concentration", "--q", "3", "--sizes", "3,3", "--alpha", "0.05", "--beta", "0.1",
     "--t-points", "-1"],
    ["simulate", "--config", "MALFORMED"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--restarts", "-4"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--restarts", "0"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
     "--sweeps", "5", "--burn-in", "-3"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
     "--thin", "0"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
     "--sweeps", "0"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "1500"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--landscape-out", "LANDSCAPE", "--landscape-mesh", "-3"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--landscape-out", "LANDSCAPE", "--landscape-mesh", "0"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--landscape-out", "LANDSCAPE", "--landscape-r", "0"],
    ["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05", "--beta", "0.1",
     "--amplitude", "nan"],
    ["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05", "--beta", "0.1",
     "--num-f", "-5"],
    ["concentration", "--q", "3", "--sizes", "3,3", "--alpha", "0.05", "--beta", "0.1",
     "--t-max", "-1"],
    ["concentration", "--q", "3", "--sizes", "3,3", "--alpha", "0.05", "--beta", "0.1",
     "--t-max", "inf"],
    # thinning every 10th of 5 sweeps records no sample to take tails of
    ["concentration", "--q", "3", "--sizes", "3,3", "--alpha", "0.05", "--beta", "0.1",
     "--sweeps", "5", "--thin", "10"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
     "--sweeps", "x"],
    # flags that fixed nothing are gone: --sizes fixes the model, and the
    # phase band is CRITICAL_BAND, as in maximize_G
    ["exact", "--q", "3", "--sizes", "1,3", "--alpha", "0.2", "--beta", "0.8", "--seed", "1"],
    ["exact", "--q", "3", "--sizes", "1,3", "--alpha", "0.2", "--beta", "0.8",
     "--gamma", "0.5,0.5"],
    ["phase-diagram", "--q", "3", "--s", "2", "--g-min", "2.0", "--g-max", "3.0",
     "--critical-band", "0.5"],
    # no abbreviations: --siz is not --sizes
    ["exact", "--q", "3", "--siz", "2,2", "--alpha", "0.2", "--beta", "0.8"],
    ["exact", "--q", "3", "--sizes", "0,0", "--alpha", "0.2", "--beta", "0.8"],
    # only equilibria takes --s beside --sizes, and needs one of them
    ["equilibria", "--q", "3", "--s", "3", "--sizes", "2,2", "--alpha", "2.5", "--beta", "3.5"],
    ["equilibria", "--q", "3", "--alpha", "2.5", "--beta", "3.5"],
    # a cap below 1 is invalid input, not a capacity error
    ["exact", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8", "--cap", "0"],
    ["exact", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8", "--cap", "-1"],
    # couplings that overflow a Gibbs weight leave log_Z infinite
    ["exact", "--q", "3", "--sizes", "3,3", "--alpha", "0.5", "--beta", "1e308"],
    ["exact", "--q", "3", "--sizes", "3,3", "--alpha", "1e308", "--beta", "1e308"],
    # a seed is a non-negative integer, on every command that takes one
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8", "--seed", "-1"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5", "--seed", "-1"],
    ["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05", "--beta", "0.1",
     "--seed", "-1"],
    ["concentration", "--q", "3", "--sizes", "3,3", "--alpha", "0.05", "--beta", "0.1",
     "--seed", "-1"],
    ["simulate", "--config", "NEGATIVE_SEED"],
    # an infinite step would write a row at g = g_min + 0 * inf = nan
    ["phase-diagram", "--q", "3", "--s", "2", "--g-min", "1", "--g-max", "2", "--g-step", "inf"],
    # an empty field of a list is an error, not skipped: 3,,3 is not 3,3
    ["exact", "--q", "3", "--sizes", "3,,3", "--alpha", "0.2", "--beta", "0.8"],
    ["exact", "--q", "3", "--sizes", "50,50,", "--alpha", "0.2", "--beta", "0.8"],
    ["exact", "--q", "3", "--sizes", ",2", "--alpha", "0.2", "--beta", "0.8"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--gamma", "0.5,,0.5"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--gamma", "0.5,0.5,"],
    # both landscape flags are checked on every run, --landscape-out or not
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--landscape-r", "99"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--landscape-mesh", "0"],
])
def test_bad_input_is_one_line_usage_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"q": 3, "sizes": "2,2", "alpha": 0.2, "beta": 0.8, "seed": -1}))
    paths = {"MALFORMED": str(bad), "NEGATIVE_SEED": str(seed),
             "LANDSCAPE": str(tmp_path / "land.csv")}
    argv = [paths.get(a, a) for a in argv]
    out = tmp_path / "out"
    rc = run(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()
    # no other output either: no manifest, no landscape
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "seed.json"]


# Each of these would allocate 8 GB or more, end in a traceback or run for
# seconds if it were not refused first: never run them against a version
# without the caps.
@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--q", "3", "--s", "2", "--g-min", "0", "--g-max", "1",
     "--g-step", "1e-15"],
    ["concentration", "--q", "3", "--sizes", "3,3", "--alpha", "0.05", "--beta", "0.1",
     "--t-points", "1000000000"],
    ["simulate", "--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
     "--sweeps", "1000000", "--chains", "1000000000"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "2.5", "--beta", "3.5",
     "--landscape-out", "LANDSCAPE", "--landscape-mesh", "100000"],
    ["equilibria", "--q", "3", "--s", "400", "--alpha", "2.5", "--beta", "3.5",
     "--landscape-out", "LANDSCAPE", "--landscape-mesh", "2"],
    ["equilibria", "--q", "3", "--s", "2", "--alpha", "1", "--beta", "2",
     "--restarts", "1000000000"],
    # counts past 4300 digits, which Python does not print, and 3^(10^7),
    # which takes seconds to build
    ["exact", "--q", "5000000000", "--sizes", "40000", "--alpha", "0.5", "--beta", "1"],
    ["lsi-check", "--q", "3", "--sizes", "30000", "--alpha", "0.05", "--beta", "0.1"],
    ["lsi-check", "--q", "3", "--sizes", "10000000", "--alpha", "0.05", "--beta", "0.1"],
    # a q of 401 digits meets the condition at beta = 0, then the workspace cap
    ["lsi-check", "--q", str(10**400 + 7), "--sizes", "2", "--alpha", "0", "--beta", "0"],
    ["lsi-check", "--q", "3", "--sizes", "2", "--alpha", "0.05", "--beta", "0.1",
     "--num-f", "100000000000"],
    # per-color tables of 5e9 colors
    ["phase-diagram", "--q", "5000000000", "--s", "2", "--g-min", "1", "--g-max", "1"],
    ["simulate", "--q", "5000000000", "--sizes", "2,2", "--alpha", "0", "--beta", "1",
     "--sweeps", "1"],
    ["concentration", "--q", "5000000000", "--sizes", "2,2", "--alpha", "0", "--beta", "0",
     "--sweeps", "1"],
], ids=["phase-diagram", "concentration", "simulate", "equilibria", "equilibria-many-blocks",
        "equilibria-restarts", "exact-huge-support", "lsi-check-many-digits",
        "lsi-check-huge-power", "lsi-check-huge-q", "lsi-check-num-f", "phase-diagram-many-colors", "simulate-many-colors",
        "concentration-many-colors"])
def test_row_cap_exits_before_writing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(tmp_path / "land.csv") if a == "LANDSCAPE" else a for a in argv]
    start = time.perf_counter()
    rc = run(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 3
    assert elapsed < 1.0
    assert err.startswith("capacity error: ") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_phase_diagram_grid_at_the_row_cap_is_written(tmp_path, monkeypatch):
    # steps = 9.5: floor(steps) + 1 = 10 rows, where steps + 1 = 10.5
    monkeypatch.setattr(cli, "MAX_ROWS", 10)
    out = tmp_path / "pd.csv"
    assert run(["phase-diagram", "--q", "3", "--s", "2", "--g-min", "0", "--g-max", "9.5",
                "--g-step", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 10


@pytest.mark.parametrize("g_max, g_step, needs", [("10", "1", "needs 11 rows"),
                                                  ("1e300", "1e-300", "needs inf rows")])
def test_phase_diagram_over_the_row_cap_names_its_rows(g_max, g_step, needs, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_ROWS", 10)
    out = tmp_path / "pd.csv"
    rc = run(["phase-diagram", "--q", "3", "--s", "2", "--g-min", "0", "--g-max", g_max,
              "--g-step", g_step, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert needs in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["out_dir", "out"])
def test_config_non_string_path_is_usage_error(key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "sizes": "2,2", "alpha": 0.2, "beta": 0.8,
                               "sweeps": 5, key: 5}))
    rc = run(["simulate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("entry", [{"sweps": 3}, {"sweeps": 2.9}, {"q": "x"}, {"seed": True},
                                   {"config": "other.json"}, {"sizes": [2, 2]}])
def test_bad_config_is_one_line_usage_error(entry, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "sizes": "2,2", "alpha": 0.2, "beta": 0.8, **entry}))
    out = tmp_path / "out.csv"
    rc = run(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_strings_parse_as_typed_and_numbers_convert_exactly(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "3", "sizes": "2,2", "alpha": 0, "beta": "0.8",
                               "sweeps": 4.0, "thin": "2", "seed": 5}))
    out = tmp_path / "c.csv"
    assert run(["simulate", f"--config={cfg}", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["params"]["alpha"] == 0.0
    assert manifest["options"]["sweeps"] == 4 and manifest["options"]["thin"] == 2
    assert len(out.read_text().splitlines()) == 3


def test_exact_and_phase_diagram_manifests_carry_no_seed(tmp_path):
    assert run(["exact", "--q", "3", "--sizes", "2,2", "--alpha", "0.5", "--beta", "1.0",
                "--out-dir", str(tmp_path)]) == 0
    assert run(["phase-diagram", "--q", "3", "--s", "2", "--g-min", "2.0", "--g-max", "2.1",
                "--out-dir", str(tmp_path)]) == 0
    for name in ("exact.csv", "phase_diagram.csv"):
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["seed"] is None


def _readme_commands():
    """Every `blockpotts ...` command of the README's sh blocks, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "blockpotts":
                commands.append(words[1:])
    return commands


# the diagnostics keys the README documents, in the order the JSON writes them
DIAGNOSTICS = ("restarts", "ascent_iterations", "max_ascent_iterations", "restarts_converged",
               "newton_handoffs", "basin_stops", "newton_failures", "certificate_margin")


# each check takes the command's --out file and its manifest
def check_simulate_bytes(out, manifest):
    # the digest of this CSV as the per-color sampling loop wrote it: the
    # generated sweep functions must reproduce every sample
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ca7acbea5ade03d28d3384b03c3693a1285696a60e96b1b1645ca5a14f9c0c9b"


def check_equilibria_diagnostics(out, manifest):
    diag = json.loads(out.read_text())["diagnostics"]
    assert tuple(diag) == DIAGNOSTICS
    assert diag["certificate_margin"] >= -1e-9


def check_phase_diagram_switches_at_zeta_3(out, manifest):
    # every row takes potts_functional through the C(gamma) clean-up; the
    # label must change once, at zeta_3 = 4 log 2 = 2.7726
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    zeta = 4.0 * math.log(2.0)
    assert len(rows) == 31
    assert [r["phase"] for r in rows] == [
        "SUBCRITICAL" if float(r["g"]) < zeta else "SUPERCRITICAL" for r in rows]


def check_lsi_check_passes(out, manifest):
    # the whole exhaustive check: 100 Gaussian observables and the
    # 35-observable structured battery, built from configuration codes
    report = json.loads(out.read_text())
    assert report["pass"] is True and report["num_observables"] == 135


def check_supercritical(out, manifest):
    report = json.loads(out.read_text())
    assert report["phase"] == "SUPERCRITICAL"
    assert report["diagnostics"]["certificate_margin"] >= -1e-9


def check_measured_sigma3_below_asymptotic(out, manifest):
    # the interdependence matrix from color pair (0, 1) on half of each
    # grid: sigma3^2 must be finite and below the large-N constant
    sigma3_sq = manifest["result"]["sigma3_sq"]
    assert isinstance(sigma3_sq, float) and math.isfinite(sigma3_sq)
    assert sigma3_sq < asymptotic_constants(3, 0.1).sigma3_sq


# what each README command's output must show beyond its exit code and
# manifest, by subcommand: the README runs each of the six once
README_CHECKS = {
    "simulate": check_simulate_bytes,
    "exact": None,
    "equilibria": check_equilibria_diagnostics,
    "phase-diagram": check_phase_diagram_switches_at_zeta_3,
    "lsi-check": check_lsi_check_passes,
    "concentration": None,
}

# regression commands that the README does not run, with their checks
REGRESSION_COMMANDS = {
    # strong coupling with gamma (0.97, 0.03): unless the two-column polish
    # reaches the r = 1 root, an unpolished restart beats sup_G and the
    # command exits 4
    "equilibria-unequal": (
        ["equilibria", "--q", "6", "--s", "2", "--alpha", "6.84", "--beta", "10.67",
         "--gamma", "0.97,0.03", "--out", "eq_unequal.json"],
        check_supercritical),
    # the small entries of the r = 1 endpoints underflow to 0; unless their
    # polish starts from the field difference, an unpolished restart beats
    # sup_G and the command exits 4
    "equilibria-underflow": (
        ["equilibria", "--q", "4", "--s", "2", "--alpha", "900", "--beta", "1000",
         "--gamma", "0.9,0.1", "--out", "eq_underflow.json"],
        check_supercritical),
    "concentration-measured": (
        ["concentration", "--q", "3", "--sizes", "40,40", "--alpha", "0.05", "--beta", "0.1",
         "--sweeps", "200", "--constants", "measured", "--out", "tails.csv"],
        check_measured_sigma3_below_asymptotic),
    # phase-diagram allocates vectors of q colors, and s enters only as log
    # s: a count-matrix cap on s x q refused this with exit 3
    "phase-diagram-many-blocks": (
        ["phase-diagram", "--q", "3", "--s", "400000", "--g-min", "2.0", "--g-max", "3.5",
         "--out", "phases_many_blocks.csv"],
        None),
}

README_COMMANDS = _readme_commands()
COMMANDS = {**{f"readme-{argv[0]}": (argv, README_CHECKS.get(argv[0]))
               for argv in README_COMMANDS},
            **REGRESSION_COMMANDS}


@pytest.mark.parametrize("argv, check", list(COMMANDS.values()), ids=list(COMMANDS))
def test_command_runs_and_writes_what_it_should(argv, check, tmp_path):
    # each command as a user types it, through python -m blockpotts in a
    # fresh process, writing into tmp_path
    assert len(COMMANDS) == len(README_COMMANDS) + len(REGRESSION_COMMANDS)
    assert {a[0] for a in README_COMMANDS} == set(README_CHECKS)
    proc = python_m_blockpotts(argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # a numpy warning or a stray print fails the command too
    assert (proc.stdout, proc.stderr) == ("", "")
    out = tmp_path / argv[argv.index("--out") + 1]
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert manifest["command"] == argv[0]
    if check is not None:
        check(out, manifest)


def test_installed_console_script_is_cli_main():
    try:
        dist = importlib.metadata.distribution("blockpotts")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("the blockpotts distribution is not installed")
    scripts = [(ep.name, ep.value) for ep in dist.entry_points if ep.group == "console_scripts"]
    assert scripts == [("blockpotts", "blockpotts.cli:main")]


def _readme_number(text):
    """A number as the README writes it: 500, 1e-9 or 10^7."""
    base, _, exponent = text.partition("^")
    return float(base) ** int(exponent) if exponent else float(text)


def test_readme_constants_match_code():
    from blockpotts import cli, equilibria, exact, glauber, lsi

    owners = {name: equilibria for name in ("MAX_ITER", "HANDOFF_EVERY", "STEP_TOL", "MARGIN",
                                            "CRITICAL_BAND", "RESIDUAL_BOUND", "NEWTON_ULPS")}
    owners.update(MAX_ROWS=cli, MAX_ENTRIES=cli, MAX_BETA=glauber, CHUNK_UPDATES=glauber,
                  UNROLL_MAX_Q=glauber, DEFAULT_SUPPORT_CAP=exact,
                  MAX_SEARCH_ENTRIES=equilibria, MAX_SUITE_VALUES=lsi)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quoted = re.findall(r"`?(?:\w+\.)?\b([A-Z][A-Z0-9_]{2,})`?\s*=\s*(\d[\d.e^+-]*\d|\d)", readme)
    assert {name for name, _ in quoted} == set(owners)
    for name, text in quoted:
        value = getattr(owners[name], name)
        assert _readme_number(text) == value, f"README says {name} = {text}, code has {value}"


# One run of each command, with the options its manifest once dropped
# (--burn-in, --init, --t-max, --t-points, --landscape-*, --cap); outputs
# are relative to --out-dir, so a replay can write them elsewhere.
MANIFEST_RUNS = {
    "simulate": ["--q", "3", "--sizes", "2,2", "--alpha", "0.2", "--beta", "0.8",
                 "--sweeps", "20", "--thin", "2", "--burn-in", "7", "--init", "uniform-color:2",
                 "--chains", "2", "--seed", "3", "--out", "traj.csv"],
    "exact": ["--q", "3", "--sizes", "2,2", "--alpha", "0.5", "--beta", "1.0", "--cap", "100",
              "--out", "exact.csv"],
    "equilibria": ["--q", "3", "--s", "2", "--gamma", "0.4,0.6", "--alpha", "2.5",
                   "--beta", "3.5", "--restarts", "2", "--seed", "4",
                   "--landscape-out", "land.csv", "--landscape-r", "2",
                   "--landscape-mesh", "4", "--out", "eq.json"],
    "phase-diagram": ["--q", "3", "--s", "2", "--g-min", "2.0", "--g-max", "2.5",
                      "--g-step", "0.1", "--out", "pd.csv"],
    "lsi-check": ["--q", "3", "--sizes", "2,2", "--alpha", "0.05", "--beta", "0.1",
                  "--num-f", "5", "--amplitude", "0.5", "--seed", "3", "--out", "lsi.json"],
    "concentration": ["--q", "3", "--sizes", "3,3", "--alpha", "0.05", "--beta", "0.1",
                      "--sweeps", "50", "--burn-in", "3", "--t-max", "2.5", "--t-points", "4",
                      "--seed", "2", "--out", "conc.csv"],
}


def _run_for_manifest(command, out_dir):
    """Run one MANIFEST_RUNS command into out_dir; its manifest and data files."""
    assert run([command, *MANIFEST_RUNS[command], "--out-dir", str(out_dir)]) == 0
    [manifest] = out_dir.glob("*.manifest.json")
    data = {p.name: p.read_bytes() for p in out_dir.iterdir() if p != manifest}
    return json.loads(manifest.read_text()), data


@pytest.mark.parametrize("command", list(MANIFEST_RUNS))
def test_manifest_options_replay_to_identical_files(command, tmp_path):
    manifest, first = _run_for_manifest(command, tmp_path / "first")
    argv = [command, "--out-dir", str(tmp_path / "replay")]
    for key, value in manifest["options"].items():
        if value is None or key in ("config", "out_dir"):
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += [f"--{key.replace('_', '-')}", text]
    assert run(argv) == 0
    replay = {p.name: p.read_bytes() for p in (tmp_path / "replay").iterdir()
              if not p.name.endswith(".manifest.json")}
    assert replay == first


@pytest.mark.parametrize("command", list(MANIFEST_RUNS))
def test_manifest_options_are_every_option(command, tmp_path):
    manifest, _ = _run_for_manifest(command, tmp_path)
    [commands] = [a.choices for a in build_parser()._actions if a.dest == "command"]
    dests = {a.dest for a in commands[command]._actions if a.option_strings and a.dest != "help"}
    assert set(manifest["options"]) == dests
    assert manifest["command"] == command


def test_phase_diagram_huge_g_is_supercritical_with_u_near_one(tmp_path):
    # g q above 1e154 overflows the discriminant of the fixed-point equation
    out = tmp_path / "pd.csv"
    assert run(["phase-diagram", "--q", "3", "--s", "2", "--g-min", "1e150", "--g-max", "1e160",
                "--g-step", "3e159", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 4
    for _, phase, u, G_Q, G_nu1 in rows:
        assert phase == "SUPERCRITICAL"
        assert float(u) > 0.5 and float(G_nu1) > float(G_Q)
