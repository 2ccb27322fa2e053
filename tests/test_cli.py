"""CLI and runner: schemas, exit codes, artifacts, determinism."""

import copy
import json
import os
import re
from fractions import Fraction

import pytest

from hypersym.cli import main
from hypersym.errors import ConfigError
from hypersym.runner import COMMAND_SCHEMAS, _check, run, validate_config


def _zero_coeffs(m):
    return {"m": m, "A": [[[] for _ in range(m)] for _ in range(m)]}


def _holder_coeffs(kappa):
    # holder_k's coefficients, inline, with the declared Hoelder exponent kappa
    one = {"x_freq": 0, "t_term": "1", "re": 1.0}
    path = {"x_freq": 0, "t_term": "lacunary(0.5,12)", "re": 0.1}
    return {"m": 2, "A": [[[], [one, path]], [[one], []]], "t_regularity": "holder",
            "kappa": kappa}


_HOLDER_COMMANDS = ("solve", "study-h", "study-parabolic")
# (kappa, command) pairs that exit 2: a declared exponent outside (0, 1], or 1,
# which the planner's open range refuses, on every command; and, where the
# planner's ell is not capped, exponents near 0, whose plan leaves the double
# range (0.001) or puts the weight's exponent T ell^rho past EXP_BUDGET at
# xi = 0 (0.004, 0.2)
_KAPPA_EXITS_2 = ([(kappa, command) for kappa in (0.0, 1.0, 1.5) for command in _HOLDER_COMMANDS]
                  + [(kappa, command) for kappa in (0.001, 0.004, 0.2)
                     for command in ("solve", "study-parabolic")])
# (kappa, command) pairs that run at the declared kappa: study-h caps ell, so
# it also runs near 0
_KAPPA_RUNS = ([(kappa, command) for kappa in (0.994, 0.996, 0.999) for command in _HOLDER_COMMANDS]
               + [(kappa, "study-h") for kappa in (0.001, 0.004, 0.2)])


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
    ["symmetrize", "--preset", "diag_sym", {"xi_lo": 0}],
    ["symmetrize", "--preset", "diag_sym", {"xi_lo": -4}],
    ["symmetrize", "--preset", "diag_sym", {"xi_hi": -1}],
    ["nuij", "--seed", "0", {"spread": -1}],
    ["solve", "--preset", "xdep", "--seed", "0", {"ell": -4}],
    ["solve", "--preset", "xdep", "--seed", "0", {"h": -0.01}],
    ["study-parabolic", "--preset", "xdep", "--seed", "0", {"h": -0.01}],
    ["theta", "--preset", "diag_sym", {"eps_lo": -1e-3}],
    ["theta", "--preset", "diag_sym", {"eps_hi": 0}],
    ["nuij", "--seed", "0", {"n_polys": 0}],
    ["nuij", "--seed", "0", {"m_max": 0}],
    ["nuij", "--seed", "0", {"m_max": 1}],
    ["conjtest", {"k_list": []}],
    ["conjtest", {"k_list": [-1]}],
    ["conjtest", {"tau": -1}],
    ["conjtest", {"rho": 2}],
    ["certify", "--preset", "diag_sym", {"tol": -1}],
    ["certify", "--preset", "diag_sym", {"xi_values": [float("nan")]}],
    ["solve", "--preset", "xdep", {"seed": -1}],
    ["solve", "--preset", "xdep", "--seed", "0", {"c0": 0}],
    ["symmetrize", "--preset", "diag_sym", {"n_xi": 1}],
    ["symmetrize", {"coeffs": _zero_coeffs(9)}],
    ["solve", "--seed", "0", {"coeffs": _zero_coeffs(9)}],
    ["certify", "--preset", "xdep", {"y_values": [0.0]}],
    ["solve", "--preset", "xdep", "--seed", "0", {"horizon": 2.0}],  # past (T - c1)/a
    # a rate needs two distinct eps; a log-log fit through one point fails
    ["study-parabolic", "--preset", "xdep", "--seed", "0", {"eps_list": [0.01]}],
    ["study-parabolic", "--preset", "xdep", "--seed", "0", {"eps_list": [0.01, 0.01]}],
    ["study-parabolic", "--preset", "xdep", "--seed", "0", {"eps_list": [1.0]}],
    # the planned ell, or the log fallback of its check, leaves the double range
    ["plan", "--theta", "256"],
    ["plan", "--theta", "0", "--mode", "holder", "--kappa", "1/1000000000000"],
    # <N/2>^(1/s) overflows; e^(-c0) squared underflows, so every norm is 0
    ["solve", "--preset", "xdep", "--seed", "0", {"s": 1e-300}],
    ["solve", "--preset", "xdep", "--seed", "0", {"c0": 800}],
    # data too smooth for a Gevrey radius fit at t = 0: the radius gate is vacuous
    ["solve", "--preset", "xdep", "--seed", "0", {"c0": 20}],
    ["solve", "--preset", "xdep", "--seed", "0", {"c0": 40}],
    ["solve", "--preset", "xdep", "--seed", "0", {"c0": 300}],
    ["solve", "--preset", "wave_t2", "--seed", "0", {"c0": 10}],
    ["solve", "--preset", "wave_t2", "--seed", "0", {"c0": 40}],
    # a step count past the index range, or an infinite Lambda
    ["solve", "--preset", "xdep", "--seed", "0", {"dt": 1e-300}],
    ["solve", "--preset", "xdep", "--seed", "0", {"eps_par": 1e300}],
    ["solve", "--preset", "xdep", "--seed", "0", {"eps_par": 1e305}],
    # 8.75e8 steps: their samples alone would take about 900 GB
    ["solve", "--preset", "xdep", "--seed", "0", {"dt": 1e-9}],
    # s^6 below the smallest normal double: the coincident-root split's lowest
    # coefficient, 6! s^6, underflows and reads as a false double root
    ["nuij", "--seed", "0", {"spread": 0, "s_values": [1e-55]}],
    ["nuij", "--seed", "0", {"spread": 0, "s_values": [1e-100]}],
    # a Hoelder exponent that no run can plan
    *[[command, "--seed", "0", {"coeffs": _holder_coeffs(kappa)}] for kappa, command in _KAPPA_EXITS_2],
    # the conjugation exponent tau (<xi+1>^rho - <xi>^rho) reaches 543 > EXP_BUDGET
    ["conjtest", {"tau": 1000}],
])
def test_bad_input_exits_2_without_traceback(argv, capsys, tmp_path):
    fields = []
    if isinstance(argv[-1], dict):  # a config part goes through a file
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        fields = list(argv[-1]) + list(argv[-1].get("coeffs", {}))
        argv = argv[:-1] + ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if fields:  # the message names the offending field
        assert re.search(r"\b(%s)\b" % "|".join(fields), err), err


@pytest.mark.parametrize("kappa, command", _KAPPA_RUNS)
def test_holder_runs_at_the_declared_kappa(kappa, command):
    status, summary = run({"command": command, "schema_version": "1", "seed": 0,
                           "coeffs": _holder_coeffs(kappa)})
    assert status == 0
    if "params" in summary:  # study-parabolic reports no parameters
        assert summary["params"]["kappa"] == kappa
        assert summary["params"]["rho"] == float(1 - Fraction(kappa) / 2)


@pytest.mark.parametrize("kappa", [0.001, 1.0])
@pytest.mark.parametrize("command", ["symmetrize", "certify", "theta"])
def test_holder_kappa_rounded_out_runs_where_nothing_plans_in_holder_mode(command, kappa):
    status, _ = run({"command": command, "schema_version": "1",
                     "coeffs": _holder_coeffs(kappa)})
    assert status == 0


def _lacunary_coeffs(levels):
    term = {"x_freq": 0, "t_term": f"lacunary(0.5, {levels})", "re": 1.0}
    return {"m": 1, "A": [[[term]]]}


@pytest.mark.parametrize("command, config, names", [
    # 2^j leaves the double range at j = 1024
    ("certify", {"coeffs": _lacunary_coeffs(1025)}, "lacunary(0.5, 1025)"),
    ("theta", {"coeffs": _lacunary_coeffs(4000)}, "lacunary(0.5, 4000)"),
    # the failing run is one eps of the list
    ("study-parabolic", {"preset": "xdep", "seed": 0, "eps_list": [1e300, 1]},
     "eps_par = 1e+300"),
])
def test_out_of_range_term_or_step_count_exits_2(command, config, names, capsys, tmp_path):
    # the message names the time term, or the eps of the list that failed,
    # rather than a config field
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert names in err, err


@pytest.mark.parametrize("command, config_text, summary_text", [
    ("certify", "[]", None),  # a config that is not an object
    (None, "[]", None),  # the same without a command on the line
    ("certify", "\xff\xfe{}", None),  # a config that is not UTF-8
    ("report", None, '{"passed": tru'),  # a summary that is not JSON
    ("report", None, "[1]"),  # a summary that is not an object
])
def test_non_object_json_exits_2_without_traceback(command, config_text, summary_text,
                                                   capsys, tmp_path):
    if summary_text is not None:
        (tmp_path / "summary.json").write_text(summary_text)
        config_text = json.dumps({"run_dir": str(tmp_path)})
    path = tmp_path / "config.json"
    path.write_bytes(config_text.encode("latin-1"))  # one byte per character
    assert main(([command] if command else []) + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_schema_table_self_check():
    for schema in COMMAND_SCHEMAS.values():
        for key, prop in schema["properties"].items():
            if "default" in prop:  # every literal default satisfies its own bound
                _check(key, prop["default"], prop)
    cfg = {"command": "nuij", "schema_version": "1", "seed": 0, "m_max": 2, "n_polys": 3}
    given = copy.deepcopy(cfg)
    resolved = validate_config(cfg)
    assert cfg == given and resolved["spread"] == 3.0
    resolved["s_values"].append(5.0)  # the table's default is not shared
    assert len(validate_config(cfg)["s_values"]) == 7
    _, summary = run(cfg)
    assert summary["config"] == given


@pytest.mark.parametrize("s_values", [[-0.1], [-1e-2, 1e-2]])
def test_nuij_negative_s_passes(s_values):
    status, doc = run({"command": "nuij", "schema_version": "1", "seed": 2,
                       "m_max": 4, "n_polys": 20, "s_values": s_values})
    assert status == 0 and doc["passed"]
    assert doc["worst_margin"] >= 1.0


def test_nuij_coincident_roots_spread_zero():
    # spread 0 draws coincident roots: the lower spread bound is 0, not above it
    status, doc = run({"command": "nuij", "schema_version": "1", "seed": 1,
                       "m_max": 3, "n_polys": 5, "spread": 0.0})
    assert status == 0 and doc["passed"]


def test_nuij_unresolved_degree_exits_3_naming_it(capsys, tmp_path):
    # the rows are drawn real-rooted; at degree 19 the companion roots of their
    # split are not resolved in double precision, which is no fault of the input
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m_max": 19}))
    assert main(["nuij", "--seed", "0", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort:") and len(err.splitlines()) == 1
    assert "degree m = 19" in err and "input" not in err and "Traceback" not in err


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
    from support import coeffs_to_json, constant_system
    import numpy as np

    bad = constant_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    cfg = {"command": "certify", "schema_version": "1",
           "coeffs": coeffs_to_json(bad)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    status = main(["--config", str(path)])
    assert status == 1


@pytest.mark.parametrize("command, extra", [
    ("theta", {}),
    ("symmetrize", {}),
    ("solve", {"seed": 0, "n_lattice": 64}),
])
def test_elliptic_input_exits_3_without_traceback(command, extra, tmp_path, capsys):
    # the growth curves of a non-hyperbolic symbol overflow: a numeric abort
    from support import coeffs_to_json, constant_system
    import numpy as np

    elliptic = constant_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    cfg = {"command": command, "schema_version": "1",
           "coeffs": coeffs_to_json(elliptic), **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort:") and len(err.splitlines()) == 1
    assert "eps = 0.001" in err and "Traceback" not in err


def _const(re):
    """One constant entry of a coefficient document."""
    return [{"x_freq": 0, "t_term": "1", "re": re}]


@pytest.mark.parametrize("argv", [
    ["certify", "--preset", "xdep", {"xi_values": [1e160]}],
    ["certify", "--preset", "xdep", {"s_values": [1e200]}],
    ["nuij", "--seed", "0", {"spread": 1e150}],
    # the characteristic polynomials overflow; at m = 1 calibration's H_N does
    ["solve", "--seed", "0", {"coeffs": {"m": 2, "A": [[[], _const(1e308)],
                                                       [_const(1.0), []]]}}],
    ["solve", "--seed", "0", {"coeffs": {"m": 1, "A": [[_const(1e308)]]}}],
])
def test_non_finite_symbol_exits_3_without_traceback(argv, capsys, recwarn, tmp_path):
    # symbol values past the double range: a numeric abort of one line, and
    # the overflow warnings on the way are not shown
    path = tmp_path / "config.json"
    path.write_text(json.dumps(argv[-1]))
    assert main(argv[:-1] + ["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort:") and len(err.splitlines()) == 1
    assert "not finite" in err and "Traceback" not in err
    assert not recwarn.list


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_maps_to_exit_3(tmp_path):
    # the zero-order term B = 1000 grows the state like e^{1000 t}, out of
    # the double range near t = 0.71, inside the default horizon, the weight
    # window 0.875 (a negative eps_par, which did this before, is now refused
    # as a config error)
    one = [[[{"x_freq": 0, "t_term": "1", "re": 1.0}]]]
    amplify = [[[{"x_freq": 0, "t_term": "1", "re": 1000.0}]]]
    cfg = {"command": "solve", "schema_version": "1", "seed": 3,
           "coeffs": {"m": 1, "A": one, "B": amplify}, "n_lattice": 64, "stride": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 3



def test_diagnostic_overflow_exits_3(tmp_path, capsys):
    # holder_k's system declared at kappa = 0.24 plans ell 512 and a weight
    # exponent inside EXP_BUDGET, but the weighted norms square the weight,
    # and q w^2 leaves the double range at the first sample: a numeric
    # abort, not a failed criterion with NaN constants
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "solve", "schema_version": "1", "seed": 0,
                                "coeffs": _holder_coeffs(0.24)}))
    assert main(["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "numeric abort: the weighted norms left the double range at t = 0\n"

def test_weight_probe_refuses_before_the_samples_are_allocated(tmp_path):
    # wave_t2 at n_lattice 4096 passes EXP_BUDGET at the lattice edge; the
    # solver's up-front weight probe refuses it before the run allocates its
    # samples, 792 states of 2 x 4096 complex (99 MiB), so the traced peak
    # stays at a few MiB
    import tracemalloc

    from hypersym.errors import WeightOverflowError

    cfg = {"command": "solve", "schema_version": "1", "preset": "wave_t2", "seed": 0,
           "n_lattice": 4096}
    tracemalloc.start()
    try:
        with pytest.raises(WeightOverflowError, match="gevrey weight overflow"):
            run(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_solve_xdep_skips_energy_gate(tmp_path):
    cfg = {"command": "solve", "schema_version": "1", "seed": 4,
           "preset": "xdep", "n_lattice": 64, "stride": 8}
    status, summary = run(cfg, out_dir=str(tmp_path / "x"))
    assert summary["er_mode"] == "skipped"
    assert summary["energy_monotone"] is None
    assert status == 0


def test_conjtest_runs_past_the_old_dense_limit():
    # the closed-form probe holds O(n_lattice) arrays, so 1024 runs
    status, summary = run({"command": "conjtest", "schema_version": "1", "n_lattice": 1024})
    assert status == 0
    assert [row["k"] for row in summary["rows"]] == [0, 1, 2]
    assert all(row["fitted"] is not None for row in summary["rows"])


@pytest.mark.parametrize("order_one", [True, False])
def test_conjtest_keeps_its_tau_at_65536_modes(order_one):
    # the probe forms only the exponent difference, so the default tau fits the
    # budget on any lattice; the weight e^{1.5 <32768>^0.75} would not
    status, summary = run({"command": "conjtest", "schema_version": "1",
                           "n_lattice": 65536, "order_one": order_one})
    assert status == 0
    assert summary["tau_used"] == 1.5 and summary["tau_shrunk"] is False
    assert all(row["passed"] for row in summary["rows"])


def test_conjtest_lattice_past_memory_exits_2(monkeypatch, tmp_path, capsys):
    # 2^40 modes need far more bytes than any machine holds: a config error
    # naming n_lattice, raised before the probe allocates anything
    from hypersym import engine

    def refuse(*args, **kwargs):
        raise AssertionError("the probe ran")

    monkeypatch.setattr(engine, "conjugation_remainder_probe", refuse)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_lattice": 2**40}))
    assert main(["conjtest", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n_lattice = 1099511627776")
    assert len(err.splitlines()) == 1 and "bytes of memory" in err
