"""Per-task correctness check against the recorded reference.

``reference.json`` holds, per task, the exit status and every output leaf
recorded at the reference commit, plus one tolerance per float field.
Booleans (every ``passed`` flag among them), integers, strings and nulls
must match exactly; floats must match within their field's tolerance.
Error and residual fields are instead held to the criterion the program
applies, so that a more accurate program does not read as a failure.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Step-size choices and the location of a maximum: not outputs a user
# checks, and legitimately different under a better integrator or a tie.
FREE_FIELDS = {"dt", "real_spectrum.worst_sample.*"}

# Held to their criterion in ``criterion_problems``, not to the reference.
CRITERION_FIELDS = {
    "quadrature_agreement", "invariants.max_lyapunov_residual_rel",
    "invariants.max_hermitian_defect", "real_spectrum.max_imag",
    "max_increment", "eta_per_step",
}


def task_id(config: dict) -> str:
    """Key of a task's reference entry."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def normalize(summary: dict) -> dict:
    """The summary as the CLI prints it, without the echoed config."""
    doc = {k: v for k, v in summary.items() if k != "config"}
    return json.loads(json.dumps(doc, sort_keys=True, default=str))


def field_pattern(path: str) -> str:
    """``symbol_rows.3.fitted`` -> ``symbol_rows.*.fitted``."""
    return ".".join("*" if part.isdigit() else part for part in path.split("."))


def flatten(doc, prefix: str = "") -> dict:
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def compared_leaves(summary: dict) -> dict:
    """Leaves compared against the reference: all but free and criterion fields."""
    return {path: value for path, value in flatten(normalize(summary)).items()
            if field_pattern(path) not in FREE_FIELDS | CRITERION_FIELDS}


def criterion_problems(summary: dict, stride: int) -> list[str]:
    """The program's own criteria on its error and residual fields."""
    doc = normalize(summary)
    inv = doc.get("invariants", {})
    limits = [
        ("quadrature_agreement", doc.get("quadrature_agreement"), 1e-6),
        ("invariants.max_lyapunov_residual_rel", inv.get("max_lyapunov_residual_rel"), 1e-8),
        # R is hermitian by construction; this catches a broken symmetrization
        ("invariants.max_hermitian_defect", inv.get("max_hermitian_defect"), 1e-10),
    ]
    spec = doc.get("real_spectrum")
    if spec is not None:
        limits.append(("real_spectrum.max_imag", spec["max_imag"], spec["tol_effective"]))
    if doc.get("max_increment") is not None:
        # the solve command's monotone-energy gate: eta per step times stride
        limits.append(("max_increment", doc["max_increment"],
                       doc["eta_per_step"] * stride))
    problems = [f"{name} = {value!r} exceeds {limit:.3g}"
                for name, value, limit in limits
                if value is not None and not value <= limit]
    if "eta_per_step" in doc and not math.isclose(
            doc["eta_per_step"], doc["dt"] ** 2 + 1e-8, rel_tol=1e-12):
        problems.append("eta_per_step is not dt^2 + 1e-8")
    return problems


def _float_ok(actual, expected, tol) -> bool:
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        return False
    if math.isnan(expected):
        return math.isnan(actual)
    if math.isinf(expected):
        return actual == expected
    return abs(actual - expected) <= max(tol["rel"] * abs(expected), tol["abs"])


def value_problems(actual: dict, expected: dict, tolerances: dict) -> list[str]:
    problems = []
    for path, want in expected.items():
        if path not in actual:
            problems.append(f"{path} missing")
            continue
        got = actual[path]
        if isinstance(want, float):
            ok = _float_ok(got, want, tolerances[field_pattern(path)])
        else:
            ok = type(got) is type(want) and got == want
        if not ok:
            problems.append(f"{path} = {got!r}, reference {want!r}")
    return problems


class Checker:
    """Classifies a task result as ``ok``, ``known`` (the recorded defect) or ``wrong``."""

    def __init__(self, path: str = REFERENCE_PATH):
        with open(path) as fh:
            ref = json.load(fh)
        self.tasks = ref["tasks"]
        self.tolerances = ref["tolerances"]

    def check(self, config: dict, result: dict) -> tuple[str, list[str]]:
        ref = self.tasks.get(task_id(config))
        if ref is None:
            return "wrong", ["no reference recorded for this task"]
        summary = result["summary"]
        if result["status"] != ref["expect_status"] or summary is None:
            known = ref.get("known_defect")
            if known and result["status"] == ref.get("seed_status") \
                    and known in result["message"]:
                return "known", [result["message"]]
            return "wrong", [f"exit {result['status']}, expected "
                             f"{ref['expect_status']}: {result['message']}"]
        problems = criterion_problems(summary, config.get("stride", 8))
        if "values" in ref:
            problems += value_problems(compared_leaves(summary), ref["values"],
                                       self.tolerances)
        else:
            problems += [f"{path} is false" for path, v in
                         flatten(normalize(summary)).items()
                         if path.split(".")[-1] == "passed" and v is not True]
        return ("wrong" if problems else "ok"), problems
