"""Span tracing of trivml's layers, installed from outside the package.

Each public function of each layer module is replaced, in every trivml
namespace that binds it, by a wrapper that records a span: (op, span id,
parent span id, function, start, end).  Spans stay in memory and are written
out when the run ends.  A layer's self time is the summed duration of its
spans minus the time their direct child spans cover.

Everything runs on one thread, so no layer waits on another and no waiting
time is recorded.

Every hook must find its target, the traced ops must call the functions the
workload is meant to exercise (REQUIRED_CALLS), and a layer that ran must
report non-zero counts; otherwise the traced run fails with TraceError rather
than report a zero that would read as a speed-up.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
import time
from collections import defaultdict

LAYERS = ("cli", "verify", "solver", "laplace", "contour", "fractional", "quadrature", "series", "kernels")

_LAPLACE_TRANSFORMS = ("laplace_closed_form", "transform_at")
# Functions each workload's traced ops must call.  The per-layer metrics the
# workload is meant to show are counted in them; if a change routes around
# one, the traced run fails instead of reporting a zero that reads as a gain.
REQUIRED_CALLS = {
    "solve-homogeneous": ("cli.main", "solver.solve", "series.eval_trivariate", "kernels.signed_log_rgamma"),
    "eval-scatter": ("series.eval_trivariate", "series.eval_univariate", "series.eval_prabhakar",
                     "kernels.signed_log_rgamma"),
    "verify-suite": ("verify.run_checks", "contour.eval_hankel_contour", "laplace.laplace_closed_form",
                     "laplace.talbot_invert", "laplace.convolve_numeric", "quadrature.jacobi_01",
                     "fractional.caputo_l1_numeric", "solver.numeric_oracle_solve",
                     "series.eval_trivariate", "kernels.signed_log_rgamma"),
}
# series functions whose results report the shells they summed
_SHELL_COUNTERS = ("eval_trivariate", "eval_prabhakar", "eval_fox_wright_1psi1", "eval_univariate_grid")


class TraceError(RuntimeError):
    """A hook found nothing to attach to, or a layer that ran counted nothing."""


def _simplex_terms(shells: int) -> int:
    """Index triples (l, p, k) with l + p + k < shells."""
    return shells * (shells + 1) * (shells + 2) // 6


class Tracer:
    def __init__(self, workload: str):
        import numpy as np

        self.required_calls = REQUIRED_CALLS[workload]
        self._np = np
        self.modules = {name: importlib.import_module(f"trivml.{name}") for name in LAYERS}
        self.namespaces = [importlib.import_module("trivml")] + list(self.modules.values())
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.check_s: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._patched: list[tuple] = []
        self._check_targets()

    def _check_targets(self) -> None:
        # hooks are named _after_<layer>_<function>; layer names have no "_"
        public = {f"{layer}_{name}" for layer, name, _ in self._public_functions()}
        hooked = {name[len("_after_"):] for name in dir(self) if name.startswith("_after_")}
        laplace = {name for layer, name, _ in self._public_functions() if layer == "laplace"}
        missing = sorted(hooked - public) + sorted(set(_LAPLACE_TRANSFORMS) - laplace)
        if not inspect.isfunction(getattr(self.modules["quadrature"], "roots_jacobi", None)):
            missing.append("quadrature.roots_jacobi")
        verify = self.modules["verify"]
        checks = getattr(verify, "_CHECKS", None)
        self.check_names = list(verify.all_check_names())
        if not (isinstance(checks, dict) and list(checks) == self.check_names
                and all(isinstance(v, tuple) and len(v) == 3 and callable(v[0]) for v in checks.values())):
            missing.append("verify._CHECKS as {name: (runner, tol, needs_rng)} for every check")
        if missing:
            raise TraceError("no trace target for: " + ", ".join(missing))

    # ------------------------------------------------------------ patching

    def _public_functions(self):
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield layer, name, obj

    def _set(self, ns, name, value):
        self._patched.append((ns, name, getattr(ns, name)))
        setattr(ns, name, value)

    def install(self) -> None:
        for layer, name, fn in self._public_functions():
            wrapper = self._wrap(f"{layer}.{name}", fn, getattr(self, f"_after_{layer}_{name}", None))
            for ns in self.namespaces:
                if getattr(ns, name, None) is fn:
                    self._set(ns, name, wrapper)
        quad = self.modules["quadrature"]
        self._set(quad, "roots_jacobi", self._counted("quadrature.rule_builds", quad.roots_jacobi))
        checks = self.modules["verify"]._CHECKS
        for check, (runner, tol, needs_rng) in list(checks.items()):
            self._patched.append((checks, check, checks[check]))
            checks[check] = (self._timed_check(check, runner), tol, needs_rng)

    def uninstall(self) -> None:
        while self._patched:
            ns, name, original = self._patched.pop()
            if isinstance(ns, dict):
                ns[name] = original
            else:
                setattr(ns, name, original)

    def _wrap(self, label, fn, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = label + ".calls"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((self._op, sid, parent, label, t0, t1))
                counts[calls_key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counted(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed_check(self, check, runner):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return runner(*args)
            finally:
                self.check_s[check] += time.perf_counter() - t0

        return timed

    # ------------------------------------------------ counts at boundaries

    def _after_kernels_signed_log_rgamma(self, args, kwargs, result):
        self.counts["kernels.elements"] += int(self._np.size(args[0]))

    def _engine_result(self, fn, result, terms):
        self.counts["series.results"] += 1
        self.counts["series.converged"] += bool(result.converged)
        self.counts["series.shells"] += result.shells_used
        self.counts[f"series.{fn}.shells"] += result.shells_used
        self.counts["series.terms"] += terms

    def _after_series_eval_trivariate(self, args, kwargs, result):
        self._engine_result("eval_trivariate", result, _simplex_terms(result.shells_used))

    def _after_series_eval_prabhakar(self, args, kwargs, result):
        self._engine_result("eval_prabhakar", result, result.shells_used)

    def _after_series_eval_fox_wright_1psi1(self, args, kwargs, result):
        self._engine_result("eval_fox_wright_1psi1", result, result.shells_used)

    def _after_series_eval_univariate_grid(self, args, kwargs, result):
        # the coefficient table spans the probe's shells
        self.counts["series.eval_univariate_grid.shells"] += result[1].shells_used
        self.counts["series.terms"] += _simplex_terms(result[1].shells_used)

    def _after_solver_solve(self, args, kwargs, result):
        self.counts["solver.points"] += len(result.grid)
        self.counts["solver.fail"] += int((~result.converged).sum())

    def _after_solver_numeric_oracle_solve(self, args, kwargs, result):
        self.counts["solver.l1_steps"] += len(result.grid) - 1

    def _after_contour_eval_hankel_contour(self, args, kwargs, result):
        # fine rule plus the half-count rule of the doubling check
        self.counts["contour.nodes"] += result.shells_used + result.shells_used // 2

    def _after_verify_run_checks(self, args, kwargs, result):
        self.counts["verify.checks_failed"] += sum(not r.passed for r in result)

    # ------------------------------------------------------------ reports

    def begin_op(self, op: int) -> None:
        self._op = op

    def self_times(self) -> dict[str, float]:
        """Self seconds per function label."""
        child = defaultdict(float)
        for _, _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(float)
        for _, sid, _, label, t0, t1 in self.spans:
            out[label] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def layer_metrics(self, n_ops: int, bytes_out: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics, as {name: (value, unit)}."""
        n = max(n_ops, 1)
        fn_self = self.self_times()
        layer_self = defaultdict(float)
        for label, s in fn_self.items():
            layer_self[label.split(".")[0]] += s
        calls = defaultdict(float)
        for key, v in self.counts.items():
            if key.endswith(".calls"):
                calls[key.split(".")[0]] += v
        c = self.counts

        def per_op(x):
            return x / n

        def ratio(a, b):
            return a / b if b else 0.0  # b is non-zero whenever its layer ran; see below

        laplace_transforms = sum(c[f"laplace.{f}.calls"] for f in _LAPLACE_TRANSFORMS)
        m = {
            "kernels.calls": (per_op(calls["kernels"]), "count/op"),
            "kernels.elements": (per_op(c["kernels.elements"]), "count/op"),
            "kernels.self_s": (per_op(layer_self["kernels"]), "s/op"),
            "kernels.ns_per_element": (
                1e9 * ratio(fn_self["kernels.signed_log_rgamma"], c["kernels.elements"]), "ns"),
            "series.calls_per_op": (per_op(calls["series"]), "count/op"),
            "series.shells": (per_op(c["series.shells"]), "count/op"),
            "series.terms": (per_op(c["series.terms"]), "count/op"),
            "series.self_s": (per_op(layer_self["series"]), "s/op"),
            "series.ns_per_term": (1e9 * ratio(layer_self["series"], c["series.terms"]), "ns"),
            "series.converged_ratio": (ratio(c["series.converged"], c["series.results"]), "ratio"),
            "quadrature.calls": (per_op(calls["quadrature"]), "count/op"),
            "quadrature.rule_builds": (per_op(c["quadrature.rule_builds"]), "count/op"),
            "quadrature.self_s": (per_op(layer_self["quadrature"]), "s/op"),
            "solver.self_s": (per_op(layer_self["solver"]), "s/op"),
            "solver.points": (per_op(c["solver.points"]), "count/op"),
            "solver.fail": (per_op(c["solver.fail"]), "count/op"),
            "solver.l1_steps": (per_op(c["solver.l1_steps"]), "count/op"),
            "laplace.calls": (per_op(calls["laplace"] - laplace_transforms), "count/op"),
            "laplace.transform_evals": (per_op(laplace_transforms), "count/op"),
            "laplace.self_s": (per_op(layer_self["laplace"]), "s/op"),
            "contour.calls": (per_op(calls["contour"]), "count/op"),
            "contour.nodes": (per_op(c["contour.nodes"]), "count/op"),
            "contour.self_s": (per_op(layer_self["contour"]), "s/op"),
            "fractional.calls": (per_op(calls["fractional"]), "count/op"),
            "fractional.self_s": (per_op(layer_self["fractional"]), "s/op"),
            "cli.calls": (per_op(calls["cli"]), "count/op"),
            "cli.self_s": (per_op(layer_self["cli"]), "s/op"),
            "cli.bytes_out": (per_op(bytes_out), "B/op"),
            "verify.checks_failed": (per_op(c["verify.checks_failed"]), "count/op"),
        }
        ran_checks = c["verify.run_checks.calls"]
        for check in self.check_names:
            m[f"verify.check_s.{check}"] = (per_op(self.check_s[check]), "s/op")

        # count: the calls that must have made it non-zero
        needs = {f"series.{f}.shells": c[f"series.{f}.calls"] for f in _SHELL_COUNTERS}
        needs.update({
            "kernels.elements": c["kernels.signed_log_rgamma.calls"],
            "series.terms": calls["series"],
            "contour.nodes": c["contour.eval_hankel_contour.calls"],
            "solver.points": c["solver.solve.calls"],
            "solver.l1_steps": c["solver.numeric_oracle_solve.calls"],
            "cli.bytes_out": calls["cli"],
        })
        got = dict(c, **{"cli.bytes_out": bytes_out})
        got.update({f"verify.check_s.{k}": v for k, v in self.check_s.items()})
        needs.update({f"verify.check_s.{k}": ran_checks for k in self.check_names})
        zero = [k for k, called in needs.items() if called and not got.get(k)]
        bad = [k for k, (v, _) in m.items() if not math.isfinite(v)]
        if zero or bad:
            raise TraceError("layers ran but counted nothing: " + ", ".join(zero + bad))
        missed = [f for f in self.required_calls if not c[f"{f}.calls"]]
        if missed:
            raise TraceError("the traced ops never called " + ", ".join(missed))
        return m

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,function,start_s,end_s\n")
            for op, sid, parent, label, t0, t1 in self.spans:
                fh.write(f"{op},{sid},{parent},{label},{t0:.9f},{t1:.9f}\n")


# metrics derived from other figures rather than counted at a boundary
COMPUTED = {
    "series.terms": "sum of l+p+k < shells_used triples per trivariate evaluation "
                    "(and per coefficient table of eval_univariate_grid); shells_used per single series",
    "series.ns_per_term": "series.self_s / series.terms",
    "contour.nodes": "node_count of the fine rule plus the half-count rule of the doubling check",
}
