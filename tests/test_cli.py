"""CLI and runner: schemas, exit codes, artifacts, determinism."""

import json
import os

import pytest

from hypersym.cli import main
from hypersym.errors import ConfigError
from hypersym.runner import run, validate_config


def test_plan_via_cli(capsys):
    status = main(["plan", "--theta", "1"])
    out = capsys.readouterr().out
    assert status == 0
    doc = json.loads(out)
    assert doc["s0"] == "7/6"
    assert doc["rho"] == "6/7"


def test_plan_holder_via_cli(capsys):
    status = main(["plan", "--theta", "0", "--mode", "holder", "--kappa", "1/2"])
    doc = json.loads(capsys.readouterr().out)
    assert status == 0
    assert doc["s0"] == "4/3"
    assert doc["rho"] == "3/4"


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        validate_config({"command": "plan", "schema_version": "1", "theta": 0,
                         "bogus_field": 1})


@pytest.mark.parametrize("cfg", [
    {"command": "solve", "seed": 0, "n_lattice": "256"},
    {"command": "plan", "theta": True},
    {"command": "study-h", "seed": 0, "h_list": ["a"]},
])
def test_wrong_type_rejected(cfg):
    with pytest.raises(ConfigError):
        validate_config(dict(cfg, schema_version="1"))


@pytest.mark.parametrize("argv", [
    ["certify", "--preset", "nope"],
    ["plan", "--theta", "1", "--mode", "bogus"],
    ["plan", "--theta", "1", "--kappa", "abc"],
    ["plan", "--theta", "-1"],
    ["certify", "--preset", "diag_sym", {"s_values": [1e-3, -1e-3]}],
    ["certify", "--preset", "diag_sym", {"s_values": [0.0, 1e-2]}],
    ["certify", "--preset", "diag_sym", {"xi_values": []}],
    ["certify", "--preset", "diag_sym", {"n_t": 0}],
    ["theta", "--preset", "diag_sym", {"eps_lo": 1e-2, "eps_hi": 1e-1}],
    ["nuij", "--seed", "0", {"s_values": [0.0]}],
    ["nuij", "--seed", "0", {"s_values": []}],
    ["conjtest", {"n_lattice": 0}],
    ["conjtest", {"n_lattice": -4}],
    ["conjtest", {"ell": 0}],
    ["solve", "--preset", "xdep", "--seed", "0", {"n_lattice": 100}],
    ["solve", "--preset", "xdep", "--seed", "0", {"n_lattice": 0}],
    ["solve", "--preset", "xdep", "--seed", "0", {"stride": 0}],
    ["study-h", "--preset", "xdep", "--seed", "0", {"h_list": []}],
    ["study-parabolic", "--preset", "xdep", "--seed", "0", {"eps_list": []}],
    ["symmetrize", "--preset", "diag_sym", {"n_xi": 0}],
    ["symmetrize", "--preset", "diag_sym", {"n_t": 0}],
    ["symmetrize", "--preset", "diag_sym", {"n_x": 0}],
    ["theta", "--preset", "diag_sym", {"n_eps": 0}],
    ["solve", "--preset", "xdep", "--seed", "0", {"dt": 0}],
    ["solve", "--preset", "xdep", "--seed", "0", {"eps_par": -1}],
    ["solve", "--preset", "xdep", "--seed", "0", {"horizon": 0}],
    ["solve", "--preset", "xdep", "--seed", "0", {"s": 0}],
    ["study-h", "--preset", "xdep", "--seed", "0", {"dt": 0}],
    ["study-parabolic", "--preset", "xdep", "--seed", "0", {"dt": 0}],
])
def test_bad_input_exits_2_without_traceback(argv, capsys, tmp_path):
    if isinstance(argv[-1], dict):  # a config part goes through a file
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("s_values", [[-0.1], [-1e-2, 1e-2]])
def test_nuij_negative_s_passes(s_values):
    status, doc = run({"command": "nuij", "schema_version": "1", "seed": 2,
                       "m_max": 4, "n_polys": 20, "s_values": s_values})
    assert status == 0 and doc["passed"]
    assert doc["worst_margin"] >= 1.0


def test_schema_version_required():
    with pytest.raises(ConfigError):
        validate_config({"command": "plan", "theta": 0, "schema_version": "0"})


def test_seed_mandatory_for_randomized():
    with pytest.raises(ConfigError):
        validate_config({"command": "nuij", "schema_version": "1"})


def test_config_file_missing_exit_2(tmp_path):
    assert main(["plan", "--config", str(tmp_path / "nope.json")]) == 2


def test_certify_preset_cli(capsys):
    status = main(["certify", "--preset", "diag_sym"])
    doc = json.loads(capsys.readouterr().out)
    assert status == 0
    assert doc["passed"]
    assert doc["real_spectrum"]["max_imag"] <= 1e-12


def test_nuij_runner_and_determinism(tmp_path):
    cfg = {"command": "nuij", "schema_version": "1", "seed": 5,
           "m_max": 3, "n_polys": 10}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    st1, _ = run(dict(cfg), out_dir=str(d1))
    st2, _ = run(dict(cfg), out_dir=str(d2))
    assert st1 == st2 == 0
    b1 = (d1 / "summary.json").read_bytes()
    b2 = (d2 / "summary.json").read_bytes()
    assert b1 == b2


def test_solve_artifacts_and_report(tmp_path):
    cfg = {"command": "solve", "schema_version": "1", "seed": 3,
           "preset": "wave_t2", "n_lattice": 64, "stride": 8}
    out = tmp_path / "run"
    status, summary = run(cfg, out_dir=str(out))
    assert status == 0
    assert (out / "summary.json").exists()
    assert (out / "energy_trace.csv").exists()
    assert (out / "trajectory.bin").exists()
    meta = json.loads((out / "trajectory_meta.json").read_text())
    assert meta["dtype"] == "complex128"
    st, rep = run({"command": "report", "schema_version": "1",
                   "run_dir": str(out)})
    assert st == 0
    assert os.path.exists(rep["report"])


def test_report_missing_dir_errors(tmp_path):
    with pytest.raises(ConfigError):
        run({"command": "report", "schema_version": "1",
             "run_dir": str(tmp_path / "empty")})


def test_criterion_failure_maps_to_exit_1(tmp_path, capsys):
    # a preset that is not hyperbolic: certify must fail with exit code 1
    from hypersym.coeffs import coeffs_to_json, constant_system
    import numpy as np

    bad = constant_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    cfg = {"command": "certify", "schema_version": "1",
           "coeffs": coeffs_to_json(bad)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    status = main(["--config", str(path)])
    assert status == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_maps_to_exit_3(tmp_path):
    # the zero-order term B = 300 grows the state like e^{300 t}, out of
    # the double range before t = 2.4 < horizon (a negative eps_par, which
    # did this before, is now refused as a config error)
    one = [[[{"x_freq": 0, "t_term": "1", "re": 1.0}]]]
    amplify = [[[{"x_freq": 0, "t_term": "1", "re": 300.0}]]]
    cfg = {"command": "solve", "schema_version": "1", "seed": 3,
           "coeffs": {"m": 1, "A": one, "B": amplify}, "n_lattice": 64,
           "horizon": 3.0, "stride": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 3


def test_solve_xdep_skips_energy_gate(tmp_path):
    cfg = {"command": "solve", "schema_version": "1", "seed": 4,
           "preset": "xdep", "n_lattice": 64, "stride": 8}
    status, summary = run(cfg, out_dir=str(tmp_path / "x"))
    assert summary["er_mode"] == "skipped"
    assert summary["energy_monotone"] is None
    assert status == 0
