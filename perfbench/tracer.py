"""Span tracer for the benchmark's traced passes.

``Tracer.install`` wraps the functions of each hypersym module (one layer
per module) and rebinds every name that refers to them, including the
copies that ``from ... import`` made in other modules.  Each call records a
span (name, start, end, parent, work count) in memory; ``uninstall``
restores the original bindings.  A span's self time is its duration minus
that of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("coeffs", "weights", "matkernel", "rootsplit", "symmetrizer",
          "engine", "solver", "planner", "runner")

# Private functions that are layers of their own in the performance record.
PRIVATE_WRAPPED = {"matkernel._growth_curves", "symmetrizer._lyap_solve_batch"}

# Left unwrapped, their time being their callers' self time: helpers that a
# traced function calls thousands of times per pass, where a span (1-3 us)
# would add a tenth or more to their cost.  eval_time_term takes 4 us and is
# called per coefficient term in MatrixField.dx and TruncatedGenerator.apply
# (90k calls per scan pass); char_poly (38 us) runs inside spectrum and
# expand_roots (26 us) inside nuij_split; ddx only changes the sign of dx.
UNWRAPPED = {"coeffs.eval_time_term", "coeffs.MatrixField.ddx",
             "rootsplit.char_poly", "rootsplit.expand_roots"}


def _nodes(args, result):
    """Matrices in the stack passed as the first argument."""
    return math.prod(np.shape(args[0])[:-2])


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, work)
        self._stack = [-1]
        self._patches: list = []  # (namespace, attribute, original)
        self._active = weakref.WeakKeyDictionary()  # generator -> active-mode fraction
        self._lam = math.nan  # stability scale of the latest generator

    # -- work counters, recorded at the span boundary ----------------------

    def _active_frac(self, args, result):
        gen = args[0]
        frac = self._active.get(gen)
        if frac is None:
            frac = self._active[gen] = float(np.count_nonzero(gen.chi > 0)) / gen.n_x
        return frac

    def _record_lam(self, args, result):
        self._lam = float(result)
        return self._lam

    def _lam_dt(self, args, result):
        return float(result.dt) * self._lam

    def _work_hooks(self) -> dict:
        return {
            "matkernel.expm_batched": _nodes,
            "symmetrizer.quadrature_R": _nodes,
            "symmetrizer._lyap_solve_batch": _nodes,
            "solver.TruncatedGenerator.apply": self._active_frac,
            "solver.TruncatedGenerator.lam_bound": self._record_lam,
            "solver.solve_cauchy": self._lam_dt,
        }

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, perf_counter(), parent, None)
                stack.pop()
                raise
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, work(args, result) if work else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, namespace, attr: str, new) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self) -> None:
        modules = []
        for layer in LAYERS:
            try:
                modules.append((layer, importlib.import_module(f"hypersym.{layer}")))
            except ModuleNotFoundError:
                pass  # a layer merged into another reads as zero
        namespaces = [m for n, m in sys.modules.items()
                      if n == "hypersym" or n.startswith("hypersym.")]
        hooks = self._work_hooks()
        for layer, module in modules:
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or name in PRIVATE_WRAPPED):
                    traced = self._wrap(name, obj, hooks.get(name))
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, traced)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        full = f"{name}.{meth_name}"
                        if inspect.isfunction(meth) and not meth_name.startswith("_") \
                                and full not in UNWRAPPED:
                            self._patch(obj, meth_name, self._wrap(full, meth, hooks.get(full)))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def write(self, path: str) -> None:
        """Spans as JSON lines after a header naming the columns.

        Each line is [name index, start us, end us, parent span index, work],
        times relative to the first span.
        """
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names, "columns": [
                "name", "start_us", "end_us", "parent", "work"]}) + "\n")
            for name, t0, t1, parent, work in self.spans:
                fh.write(json.dumps([index[name], round(1e6 * (t0 - origin), 1),
                                     round(1e6 * (t1 - origin), 1), parent, work]) + "\n")


def span_cost_us(calls: int = 20000) -> float:
    """Cost of one span: a traced no-op call minus a bare one, median of 5."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop, None)
    costs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
    return 1e6 * sorted(costs)[2]


class Profile:
    """Per-name totals of a list of spans."""

    def __init__(self, spans: list):
        n = len(spans)
        child = np.zeros(n)
        under_quad = [False] * n
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)
        self.work_max = defaultdict(float)
        self.expm_in_quad = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                under_quad[i] = under_quad[parent]
            if name == "symmetrizer.quadrature_R":
                under_quad[i] = True
        for i, (name, t0, t1, parent, work) in enumerate(spans):
            self.calls[name] += 1
            self.incl[name] += t1 - t0
            self.self_s[name] += t1 - t0 - child[i]
            if work is not None:
                self.work[name] += work
                self.work_max[name] = max(self.work_max[name], work)
                if name == "matkernel.expm_batched" and under_quad[i]:
                    self.expm_in_quad += work
        self.layer_self = defaultdict(float)
        for name, value in self.self_s.items():
            self.layer_self[name.split(".")[0]] += value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, value from a Profile, summed over passes).  Sums are
# reported per traced pass; ratios and maxima are not divided.
LAYER_METRICS = {
    "matkernel.expm_batched.calls": ("count", lambda p: p.calls["matkernel.expm_batched"], True),
    "matkernel.expm_batched.matrices": ("count", lambda p: p.work["matkernel.expm_batched"], True),
    "matkernel.expm_batched.self_s": ("s", lambda p: p.self_s["matkernel.expm_batched"], True),
    "matkernel.expm_batched.us_per_matrix": ("us", lambda p: 1e6 * _ratio(
        p.self_s["matkernel.expm_batched"], p.work["matkernel.expm_batched"]), False),
    "matkernel.estimate_theta.s": ("s", lambda p: p.incl["matkernel.estimate_theta"], True),
    "matkernel.spectral_bound_certify.s": ("s", lambda p: p.incl["matkernel.spectral_bound_certify"], True),
    "matkernel.spectrum.calls": ("count", lambda p: p.calls["matkernel.spectrum"], True),
    "symmetrizer.quadrature_R.s": ("s", lambda p: p.incl["symmetrizer.quadrature_R"], True),
    "symmetrizer.quadrature_R.nodes": ("count", lambda p: p.work["symmetrizer.quadrature_R"], True),
    "symmetrizer.quadrature_R.expm_per_node": ("ratio", lambda p: _ratio(
        p.expm_in_quad, p.work["symmetrizer.quadrature_R"]), False),
    "symmetrizer.lyap_solve.nodes": ("count", lambda p: p.work["symmetrizer._lyap_solve_batch"], True),
    "symmetrizer.lyap_solve.self_s": ("s", lambda p: p.self_s["symmetrizer._lyap_solve_batch"], True),
    "symmetrizer.build_field.s": ("s", lambda p: p.incl["symmetrizer.build_field"], True),
    "symmetrizer.symbol_estimate_probe.s": ("s", lambda p: p.incl["symmetrizer.symbol_estimate_probe"], True),
    "symmetrizer.mollify_path.s": ("s", lambda p: p.incl["symmetrizer.mollify_path"], True),
    "symmetrizer.hn.calls": ("count", lambda p: p.calls["symmetrizer.hn_matrix"]
                             + p.calls["symmetrizer.hn_over_lattice"], True),
    "solver.solve_cauchy.s": ("s", lambda p: p.incl["solver.solve_cauchy"], True),
    "solver.step_rk4.steps": ("count", lambda p: p.calls["solver.step_rk4"], True),
    "solver.apply.calls": ("count", lambda p: p.calls["solver.TruncatedGenerator.apply"], True),
    "solver.apply.self_s": ("s", lambda p: p.self_s["solver.TruncatedGenerator.apply"], True),
    "solver.apply.us_per_call": ("us", lambda p: 1e6 * _ratio(
        p.self_s["solver.TruncatedGenerator.apply"], p.calls["solver.TruncatedGenerator.apply"]), False),
    "solver.active_mode_frac": ("ratio", lambda p: _ratio(
        p.work["solver.TruncatedGenerator.apply"], p.calls["solver.TruncatedGenerator.apply"]), False),
    "solver.lam_dt": ("ratio", lambda p: p.work_max["solver.solve_cauchy"], False),
    "solver.gevrey_radius_fit.calls": ("count", lambda p: p.calls["solver.gevrey_radius_fit"], True),
    "solver.gevrey_radius_fit.self_s": ("s", lambda p: p.self_s["solver.gevrey_radius_fit"], True),
    "solver.r_multiplier_lattice.s": ("s", lambda p: p.incl["solver.r_multiplier_lattice"], True),
    "rootsplit.nuij_split.calls": ("count", lambda p: p.calls["rootsplit.nuij_split"], True),
    "rootsplit.nuij_split.s": ("s", lambda p: p.incl["rootsplit.nuij_split"], True),
    "rootsplit.polished_roots.calls": ("count", lambda p: p.calls["rootsplit.polished_roots"], True),
    "rootsplit.polished_roots.s": ("s", lambda p: p.incl["rootsplit.polished_roots"], True),
    "engine.conjugation_remainder_probe.s": ("s", lambda p: p.incl["engine.conjugation_remainder_probe"], True),
    "engine.dense_operator_matrix.s": ("s", lambda p: p.incl["engine.dense_operator_matrix"], True),
    "weights.multiplier_values.calls": ("count", lambda p: p.calls["weights.Multiplier.values"], True),
    "weights.multiplier_values.s": ("s", lambda p: p.incl["weights.Multiplier.values"], True),
    "weights.poly_bump.s": ("s", lambda p: p.incl["weights.poly_bump"], True),
    "coeffs.dx.calls": ("count", lambda p: p.calls["coeffs.MatrixField.dx"], True),
    "coeffs.dx.s": ("s", lambda p: p.incl["coeffs.MatrixField.dx"], True),
    "planner.plan.s": ("s", lambda p: p.incl["planner.plan"], True),
    "planner.validate_params.calls": ("count", lambda p: p.calls["planner.validate_params"], True),
    "runner.calibrate.calls": ("count", lambda p: p.calls["runner.calibrate"], True),
    "runner.calibrate.s": ("s", lambda p: p.incl["runner.calibrate"], True),
    "runner.validate_config.s": ("s", lambda p: p.incl["runner.validate_config"], True),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", lambda p, _l=_layer: p.layer_self[_l], True)

# Work counts that repeat exactly for a given seed: a later change may cite
# them as counts.  Times never repeat exactly.
EXACT_COUNTS = {name for name, (unit, _, _) in LAYER_METRICS.items()
                if unit in ("count", "ratio")}


def layer_metrics(profile: Profile, passes: int) -> dict:
    out = {}
    for name, (unit, value, per_pass) in LAYER_METRICS.items():
        v = float(value(profile))
        out[name] = (v / passes if per_pass else v, unit)
    return out
