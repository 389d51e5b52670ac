"""Command-line interface: outputs, manifests, exit codes, determinism."""

import json
import time

import numpy as np
import pytest

from blockpotts.cli import main


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
    assert diag["newton_failures"] >= 0
    assert diag["certificate_margin"] >= -1e-9


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


def test_phase_diagram_row_cap_exits_before_writing(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    start = time.perf_counter()
    rc = run(["phase-diagram", "--q", "3", "--s", "2", "--g-min", "0", "--g-max", "1",
              "--g-step", "1e-15", "--out", str(out)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 3
    assert elapsed < 1.0
    assert err.startswith("capacity error: ") and len(err.strip().splitlines()) == 1
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
