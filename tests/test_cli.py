"""CLI and runner: schemas, exit codes, artifacts, determinism."""

import copy
import json
import math
import os
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypersym import runner, solver
from hypersym.cli import main
from hypersym.errors import ConfigError
from hypersym.presets import preset_names
from hypersym.runner import COMMAND_SCHEMAS, _check, run, validate_config
from support import BAD_ENTRY_FIELDS, one_entry_document


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


@pytest.mark.parametrize("kappa,cause", [("abc", "Invalid literal for Fraction: 'abc'"),
                                         ("1/0", "Fraction(1, 0)")])
def test_plan_names_a_kappa_it_cannot_parse(kappa, cause, capsys):
    status = main(["plan", "--theta", "0", "--mode", "holder", "--kappa", kappa])
    assert status == 2
    assert capsys.readouterr().err == f"config error: kappa = {kappa}: {cause}\n"


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_a_completed_run_shows_its_warnings_and_a_failed_one_its_cause_alone(monkeypatch,
                                                                            capsys):
    # the plan command's handler is replaced by one that warns and then
    # completes, or warns and then refuses its config.  The CLI replays a
    # completed run's warnings through warnings.showwarning, which prints to
    # stderr and, under the log the test holds here, appends to that log
    def completes(config):
        warnings.warn("raised on the way", RuntimeWarning)
        return {"passed": True}

    def refuses(config):
        warnings.warn("raised on the way", RuntimeWarning)
        raise ConfigError("the cause")

    for handler, status, shown in ((completes, 0, 1), (refuses, 2, 0)):
        monkeypatch.setitem(runner._DISPATCH, "plan", handler)
        with warnings.catch_warnings(record=True) as replayed:
            warnings.simplefilter("always")
            assert main(["plan", "--theta", "1"]) == status
        assert [(w.category, str(w.message)) for w in replayed] == \
            [(RuntimeWarning, "raised on the way")] * shown
        out, err = capsys.readouterr()
        if status == 0:
            assert json.loads(out) == {"command": "plan", "passed": True}
        else:
            assert (out, err) == ("", "config error: the cause\n")


@pytest.mark.parametrize("config", [[], "plan", None, 1])
def test_config_that_is_no_object_rejected(config):
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        validate_config(config)


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
    # one frequency: the symbol probe's slopes have nothing to fit
    ["symmetrize", "--preset", "diag_sym", {"xi_lo": 64, "xi_hi": 64}],
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
    # stride is no field: every solve takes the same sample times
    ["solve", "--preset", "xdep", "--seed", "0", {"stride": 8}],
    # s^6 below the smallest normal double: the coincident-root split's lowest
    # coefficient, 6! s^6, underflows and reads as a false double root
    ["nuij", "--seed", "0", {"spread": 0, "s_values": [1e-55]}],
    ["nuij", "--seed", "0", {"spread": 0, "s_values": [1e-100]}],
    # the split rows alone would take terabytes
    ["nuij", "--seed", "0", {"n_polys": 1000000000000}],
    # a Hoelder exponent that no run can plan
    *[[command, "--seed", "0", {"coeffs": _holder_coeffs(kappa)}] for kappa, command in _KAPPA_EXITS_2],
    # the conjugation exponent tau (<xi+1>^rho - <xi>^rho) reaches 543 > EXP_BUDGET
    ["conjtest", {"tau": 1000}],
    # the draws' range 2 spread is infinite; an integer past the double range
    # is no JSON number
    ["nuij", "--seed", "0", {"spread": 1e308}],
    ["nuij", "--seed", "0", {"spread": 10**400}],
    # sample grids past memory, and one past numpy's largest array
    *[[command, "--preset", "xdep", config] for command in ("certify", "theta", "symmetrize")
      for config in ({"n_t": 10**12}, {"n_x": 10**20}, {"n_t": 10**5, "n_x": 10**5})],
    ["theta", "--preset", "xdep", {"n_eps": 10**12}],
    ["symmetrize", "--preset", "xdep", {"n_xi": 10**12}],
    # check_a_power is no field: the symbol probe runs the run's one parameter set
    ["symmetrize", "--preset", "xdep", {"check_a_power": True}],
    # data past memory, refused before calibration, and past numpy's largest array
    *[[command, "--preset", "xdep", "--seed", "0", {"n_lattice": n_x}]
      for command in _HOLDER_COMMANDS for n_x in (2**40, 2**62)],
    # 171! is past the double range that the probe's Taylor sum divides in
    ["conjtest", {"k_list": [171]}],
    # the data index at xdep's s0 = 2; no problem at all; inline documents
    # with an unknown time regularity, a ragged entry grid, and no m
    ["solve", "--preset", "xdep", "--seed", "0", {"s": 2.0}],
    ["certify"],
    ["certify", {"coeffs": {**_zero_coeffs(2), "t_regularity": "smooth"}}],
    ["certify", {"coeffs": {"m": 2, "A": [[[], []], [[]]]}}],
    ["certify", {"coeffs": {"A": [[[]]]}}],
    # Hoelder mode plans at a declared kappa alone
    ["plan", "--theta", "0", "--mode", "holder"],
    # an entry field of the wrong JSON type
    *[["certify", {"coeffs": one_entry_document({key: value})}] for key, value in BAD_ENTRY_FIELDS],
    # m is a JSON integer, and a declared kappa a JSON number, in either mode
    *[["certify", {"coeffs": {**_zero_coeffs(1), "m": m}}] for m in (1.5, 1.0, "1", True, math.inf)],
    *[["certify", {"coeffs": {**_zero_coeffs(1), **regularity, "kappa": kappa}}]
      for regularity in ({"t_regularity": "holder"}, {}) for kappa in (True, "1/2", None)],
    # a misspelled t_regularity, an unknown entry key, and a Lipschitz kappa
    # outside (0, 1]
    ["solve", "--seed", "0", {"coeffs": one_entry_document(t_regularty="holder", kappa=0.25)}],
    ["certify", {"coeffs": one_entry_document({"typo": 5})}],
    ["certify", {"coeffs": one_entry_document(kappa=7.5)}],
    # a field that the command does not read, and a preset beside a document
    ["nuij", "--seed", "0", "--preset", "nonexistent_preset"],
    ["plan", "--theta", "0", "--preset", "nonexistent"],
    ["certify", "--preset", "xdep", "--seed", "5"],
    ["certify", "--preset", "xdep", {"coeffs": one_entry_document()}],
    # a kappa that a Lipschitz plan would drop
    ["plan", "--theta", "1", {"kappa": "7"}],
    ["plan", "--theta", "0", "--mode", "lipschitz", {"kappa": "1/2"}],
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


@pytest.mark.parametrize("argv, line", [
    (["solve", "--seed", "0", {"coeffs": one_entry_document(t_regularty="holder", kappa=0.25)}],
     "coeffs: unknown field 't_regularty'"),
    (["certify", {"coeffs": one_entry_document({"typo": 5})}],
     "coeffs.A[0][0][0]: unknown field 'typo'"),
    (["certify", {"coeffs": one_entry_document(kappa=7.5)}],
     "coeffs.kappa: 7.5 is greater than the maximum of 1"),
    (["certify", {"coeffs": {**_zero_coeffs(2), "t_regularity": "smooth"}}],
     "coeffs.t_regularity: 'smooth' is not one of ['lipschitz', 'holder']"),
    (["certify", {"coeffs": {"A": [[[]]]}}], "coeffs: 'm' is a required property"),
])
def test_an_inline_document_is_refused_by_the_path_of_its_key(argv, line, capsys, tmp_path):
    # each ran, or was refused in other words, before the schema held the document
    path = tmp_path / "config.json"
    path.write_text(json.dumps(argv[-1]))
    assert main(argv[:-1] + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: config rejected: {line}\n"


# (command, its required fields, a field that it does not read): a system where
# none is resolved, a seed where nothing is drawn
_UNREAD = ([(command, required, field) for command, required in
            (("nuij", {"seed": 0}), ("conjtest", {}), ("plan", {"theta": 0}),
             ("report", {"run_dir": "run"})) for field in ("preset", "coeffs")]
           + [(command, required, "seed") for command, required in
              (("certify", {"preset": "xdep"}), ("theta", {"preset": "xdep"}),
               ("symmetrize", {"preset": "xdep"}), ("conjtest", {}), ("plan", {"theta": 0}),
               ("report", {"run_dir": "run"}))])


@pytest.mark.parametrize("command, required, field", _UNREAD,
                         ids=[f"{c}-{f}" for c, _, f in _UNREAD])
def test_a_field_the_command_does_not_read_is_refused_by_name(command, required, field):
    value = {"preset": "xdep", "coeffs": one_entry_document(), "seed": 5}[field]
    with pytest.raises(ConfigError, match=rf"^config rejected: unknown field '{field}'$"):
        validate_config({"command": command, "schema_version": "1", **required, field: value})


def test_a_tiny_dt_takes_the_band_s_sub_steps(tmp_path, monkeypatch):
    # dt = 1e-9 asks for 8.75e8 grid steps.  The run keeps the N_SAMPLES + 1
    # sample times, and the band crosses each interval in the sub-steps its
    # own scale sets, as many as at the default dt, so it exits 0 in the
    # default run's memory and time
    results, solve = [], solver.solve_cauchy

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver, "solve_cauchy", recording)
    for name, config in (("default", {}), ("tiny", {"dt": 1e-9})):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(config))
        assert main(["solve", "--preset", "xdep", "--seed", "0", "--config", str(path),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "trajectory_meta.json").read_text())
        assert meta["shape"][0] == solver.N_SAMPLES + 1
    default, tiny = results
    assert tiny.per * solver.N_SAMPLES >= 8.75e8 and tiny.dt <= 1e-9
    assert tiny.steps == default.steps < default.per * solver.N_SAMPLES


@pytest.mark.parametrize("increment, monotone", [(0.0, True), (1e-3, False)])
def test_a_tiny_dt_keeps_the_energy_gate(monkeypatch, increment, monotone):
    # The gate allows eta for each RK4 step taken between two samples, not
    # for each grid step asked for: at dt = 1e-9, eta's 1e-8 floor times
    # wave_t2's 18,229,167 grid steps an interval would allow 0.18 a sample
    # (3.7e-5 at the default dt).  Every sample's increment is set to
    # ``increment`` after the solve, through the raw energy it is read from.
    solve = solver.solve_cauchy

    def forced(*args, **kwargs):
        res = solve(*args, **kwargs)
        e_r_raw = res.traces[0].e_r_raw
        e_r_raw[:] = e_r_raw[0] * (1.0 + increment * np.arange(e_r_raw.size))
        return res

    monkeypatch.setattr(solver, "solve_cauchy", forced)
    for config in ({}, {"dt": 1e-9}):
        status, summary = run({"command": "solve", "schema_version": "1", "preset": "wave_t2",
                               "seed": 0, **config})
        assert summary["energy_monotone"] is monotone
        assert status == (0 if monotone else 1)


@pytest.mark.parametrize("kappa, command", _KAPPA_RUNS)
def test_holder_runs_at_the_declared_kappa(kappa, command):
    status, summary = run({"command": command, "schema_version": "1", "seed": 0,
                           "coeffs": _holder_coeffs(kappa)})
    assert status == 0
    if "params" in summary:  # study-parabolic reports no parameters
        assert summary["params"]["kappa"] == kappa
        assert summary["params"]["rho"] == float(1 - Fraction(kappa) / 2)


def test_study_h_capped_window_without_room_exits_2_saying_so(capsys, tmp_path):
    # at kappa 1e-4 the weight window under study-h's cap ell = 64 tops out
    # below a0 + 1; the refusal keeps its own words, not a kappa range error
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"coeffs": _holder_coeffs(1e-4)}))
    assert main(["study-h", "--seed", "0", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: cannot satisfy a >= a0+1 = 1 with ell <= 64.0\n"


@pytest.mark.parametrize("name", preset_names())
def test_study_h_runs_on_every_preset(name):
    status, summary = run({"command": "study-h", "schema_version": "1", "seed": 0,
                           "preset": name})
    assert status == 0
    assert summary["params"]["ell"] == 64.0


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


def _defaults(path: str, prop: dict):
    """(path, field) of each field with a literal default in ``prop``, at any depth."""
    if "default" in prop:
        yield path, prop
    for key, field in prop.get("properties", {}).items():
        yield from _defaults(f"{path}.{key}" if path else key, field)
    if "items" in prop:
        yield from _defaults(f"{path}[]", prop["items"])


def test_schema_table_self_check():
    walked = set()
    for schema in COMMAND_SCHEMAS.values():
        for path, prop in _defaults("", schema):
            _check(path, prop["default"], prop)  # every literal default meets its own bounds
            walked.add(path)
    assert {"coeffs.t_regularity", "coeffs.A[][][].im", "coeffs.B[][][].im"} <= walked
    # a document's defaults are filled in, and the given one is not changed
    doc = one_entry_document()
    given = copy.deepcopy(doc)
    resolved = validate_config({"command": "certify", "schema_version": "1", "coeffs": doc})
    assert resolved["coeffs"] == {**given, "t_regularity": "lipschitz",
                                  "A": [[[{**given["A"][0][0][0], "im": 0.0}]]]}
    assert doc == given
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


@pytest.mark.parametrize("seed", [2**63 + 5, 2**200])
def test_nuij_seed_past_int64_runs(seed, capsys):
    # the row seeds seed + 1000 m + i stay Python integers, and every
    # non-negative seed draws default_rng's rows (tests/test_rootsplit.py)
    assert main(["nuij", "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] and doc["worst_margin"] >= 1.0


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
           "preset": "wave_t2", "n_lattice": 64}
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
           "coeffs": {"m": 1, "A": one, "B": amplify}, "n_lattice": 64}
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

def test_weight_overflow_is_raised_at_the_first_weight_formed(tmp_path):
    # wave_t2 at n_lattice 4096 passes EXP_BUDGET at the lattice edge; the
    # run evolves its band, and the diagnostics refuse the first block's
    # weight at t = 0 before any later block is formed, so the traced peak
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


@pytest.mark.parametrize("preset", ["wave_t2", "holder_k"])
def test_study_parabolic_forms_no_weight_at_n_lattice_4096(preset, tmp_path, capsys):
    # at n_lattice 4096 a Gevrey weight passes EXP_BUDGET at the lattice edge
    # on a multiplier (wave_t2) and a mollified (holder_k) preset; the study
    # reads no weighted norm, so it forms none and passes, while solve, which
    # forms them, still exits 3 naming the overflow
    path = tmp_path / "n4096.json"
    path.write_text(json.dumps({"n_lattice": 4096}))
    argv = ["--preset", preset, "--seed", "3", "--config", str(path)]
    assert main(["study-parabolic", *argv]) == 0
    capsys.readouterr()
    assert main(["solve", *argv]) == 3
    assert "gevrey weight overflow" in capsys.readouterr().err


@pytest.mark.parametrize("t_term, n_lattice", [("1", None), ("t", 64), ("t", 1024)])
def test_scalar_x_independent_solve_exits_0(t_term, n_lattice, tmp_path):
    # a 1 x 1 band state's R-energy reads its modes through a contiguous view
    config = {"coeffs": {"m": 1, "A": [[[{"x_freq": 0, "t_term": t_term, "re": 1.0}]]]}}
    if n_lattice is not None:
        config["n_lattice"] = n_lattice
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--seed", "1", "--config", str(path), "--out",
                 str(tmp_path / "run")]) == 0


def test_solve_xdep_skips_energy_gate(tmp_path):
    cfg = {"command": "solve", "schema_version": "1", "seed": 4,
           "preset": "xdep", "n_lattice": 64}
    status, summary = run(cfg, out_dir=str(tmp_path / "x"))
    assert summary["er_mode"] == "skipped"
    assert summary["energy_monotone"] is None
    assert status == 0


def test_conjtest_runs_at_the_highest_taylor_order():
    # 170! is the largest factorial in the double range
    status, summary = run({"command": "conjtest", "schema_version": "1", "k_list": [170]})
    assert status == 0
    assert [row["k"] for row in summary["rows"]] == [170]


def _integer_fields(schema: dict):
    """(field, whether its items are the integers) of each integer field and
    integer array field of a command's schema."""
    for key, field in schema["properties"].items():
        if field["type"] == "integer":
            yield key, False
        elif field["type"] == "array" and field["items"]["type"] == "integer":
            yield key, True


# every integer field of every command, and the CLI's --seed on every command:
# where seed is no field it is refused
_HUGE_CASES = [(command, key, item) for command, schema in COMMAND_SCHEMAS.items()
               for key, item in dict(_integer_fields(schema), seed=False).items()]


@pytest.mark.parametrize("command, key, item", _HUGE_CASES,
                         ids=[f"{c}-{k}" for c, k, _ in _HUGE_CASES])
def test_every_integer_at_2_62_keeps_the_exit_contract(command, key, item, capsys, tmp_path):
    # every integer field, or integer array item, of every command at 2^62,
    # beside the command's other required fields and a preset where it takes
    # one: the run exits with a status of the contract and at most one line of cause
    schema = COMMAND_SCHEMAS[command]
    fill = {"integer": 0, "string": str(tmp_path)}
    config = {k: fill[schema["properties"][k]["type"]] for k in schema["required"]
              if k not in ("command", "schema_version")}
    config.update({"preset": "xdep"} if "preset" in schema["properties"] else {})
    config[key] = [2**62] if item else 2**62
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) in (0, 1, 2, 3)
    err = capsys.readouterr().err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err


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


@pytest.mark.parametrize("command", ["certify", "theta", "symmetrize"])
@pytest.mark.parametrize("preset", ["xdep", "block_direct_sum"])
def test_sample_grid_memory_check_covers_the_peak(command, preset, monkeypatch):
    # at 2,000 distinct (t, x) nodes the stacks over the sample grids are
    # most of what a command allocates: need covers the traced peak, and is
    # not pessimistic by more than 5x
    import tracemalloc

    from hypersym import runner

    needs = []
    monkeypatch.setattr(runner, "require_memory", lambda need, what: needs.append(need))
    cfg = {"command": command, "schema_version": "1", "preset": preset, "n_x": 500}
    run(dict(cfg))  # loads numpy's lazy modules
    tracemalloc.start()
    try:
        assert run(dict(cfg))[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs[-1] <= 5 * peak
