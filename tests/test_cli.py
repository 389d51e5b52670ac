"""Command-line interface: outputs, manifests, exit codes, determinism."""

import json
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
from blockpotts.cli import build_parser, main

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
    assert diag["newton_failures"] >= 0
    assert diag["certificate_margin"] >= -1e-9


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


def test_lsi_check_pass_and_condition_failure(tmp_path):
    out = tmp_path / "lsi.json"
    rc = run(["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05",
              "--beta", "0.1", "--num-f", "10", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["violations"] == 0
    rc = run(["lsi-check", "--q", "3", "--sizes", "2,2", "--alpha", "0.05",
              "--beta", "0.2", "--out", str(tmp_path / "x.json")])
    assert rc == 5


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
])
def test_bad_input_is_one_line_usage_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths = {"MALFORMED": str(bad), "LANDSCAPE": str(tmp_path / "land.csv")}
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
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


# Each of these would allocate 8 GB or more if it were not refused first:
# never run them against a version without the row cap.
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
], ids=["phase-diagram", "concentration", "simulate", "equilibria", "equilibria-many-blocks"])
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
    assert manifest["result"]["sweeps"] == 4 and manifest["result"]["thin"] == 2
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


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "simulate", "exact", "equilibria", "phase-diagram", "lsi-check", "concentration"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: blockpotts {shlex.join(argv)}")


def _readme_number(text):
    """A number as the README writes it: 500, 1e-9 or 10^7."""
    base, _, exponent = text.partition("^")
    return float(base) ** int(exponent) if exponent else float(text)


def test_readme_constants_match_code():
    from blockpotts import cli, equilibria, exact, glauber

    owners = {name: equilibria for name in ("MAX_ITER", "HANDOFF_EVERY", "STEP_TOL",
                                            "MARGIN", "CRITICAL_BAND")}
    owners.update(MAX_ROWS=cli, MAX_BETA=glauber, CHUNK_UPDATES=glauber,
                  DEFAULT_SUPPORT_CAP=exact)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quoted = re.findall(r"`?(?:\w+\.)?\b([A-Z][A-Z0-9_]{2,})`?\s*=\s*(\d[\d.e^+-]*\d|\d)", readme)
    assert {name for name, _ in quoted} == set(owners)
    for name, text in quoted:
        value = getattr(owners[name], name)
        assert _readme_number(text) == value, f"README says {name} = {text}, code has {value}"
