"""Named cross-module identity checks, runnable from the CLI.

Each check exercises one mathematical identity connecting independent code
paths (series engine vs contour integral, closed forms vs quadrature, exact
solution vs time stepping).  Parameters are drawn from a seeded generator in
a deliberately tame range so every check is fast and conclusive; the diverging
corners of parameter space are the job of the engine's own error flags, not
of this suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .contour import ContourSpec, eval_hankel_contour
from .errors import DomainError
from .fractional import (
    FracOrder,
    GridFunction,
    caputo_derivative_univariate,
    caputo_l1_numeric,
    caputo_power,
    rl_derivative_univariate,
)
from .laplace import convolution_closed_form, convolve_numeric, laplace_closed_form, talbot_invert
from .series import LambdaTriple, MLParams, SeriesControl, eval_prabhakar, eval_trivariate, eval_univariate, eval_univariate_grid
from .solver import (
    IVPSpec,
    SolutionTrace,
    _homog_grid,
    numeric_oracle_solve,
    residual_check,
    solve_homogeneous,
    solve_homogeneous_fox_wright,
    trinomial,
)

__all__ = ["CheckResult", "all_check_names", "run_checks"]

_CTRL = SeriesControl(rel_tol=1e-13, max_shell=600)
# a decaying three-order problem shared by the residual and oracle studies
_DAMPED = IVPSpec(0.9, 0.5, 0.3, -0.7, -0.4, -0.6, 1.5)


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def _tame_params(rng) -> MLParams:
    a, b, g = rng.uniform(0.5, 1.5, 3)
    return MLParams(a, b, g, rng.uniform(1.0, 2.2), rng.uniform(0.5, 2.0))


def _tame_lam(rng) -> LambdaTriple:
    return LambdaTriple(*rng.uniform(-0.8, 0.8, 3))


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1.0)


def _brute_double_sum(alpha, beta, offset, eta, u, v, tol=1e-15, nmax=220):
    """Plain bivariate sum_{l,p} (eta)_{l+p} u^l v^p / (Gamma(l a + p b + offset) l! p!).

    Each block of 8 shells is built at once with gammaln; the shells are then
    added in order until one is at most tol * max(|total|, 1), past shell 3.
    Terms at gamma poles are zero.
    """
    total = 0.0
    for q0 in range(0, nmax, 8):
        qs = np.arange(q0, min(q0 + 8, nmax))
        q = np.repeat(qs, qs + 1)
        l = np.arange(q.size) - np.repeat(np.cumsum(qs + 1) - (qs + 1), qs + 1)  # 0..q within each shell
        p = q - l
        garg = l * alpha + p * beta + offset
        pole = (garg <= 0.0) & (garg == np.floor(garg))
        mag = gammaln(eta + q) - gammaln(eta) - gammaln(garg) - gammaln(l + 1.0) - gammaln(p + 1.0)
        sgn = np.where(garg > 0.0, 1.0, np.sign(np.sin(np.pi * (garg % 2.0))))
        terms = np.where(pole, 0.0, sgn * np.exp(mag) * u**l * v**p)
        for qi, shell in enumerate(np.bincount(q - q0, terms).tolist(), start=q0):
            total += shell
            if abs(shell) <= tol * max(abs(total), 1.0) and qi > 3:
                return total
    return total


def _check_exp_reduction() -> float:
    params = MLParams(1.0, 1.0, 1.0, 1.0, 1.0)
    worst = 0.0
    for u in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for v in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for w in (-2.0, -1.0, 0.0, 1.0, 2.0):
                got = eval_trivariate(params, u, v, w, _CTRL).value
                ref = math.exp(u + v + w)
                worst = max(worst, abs(got - ref) / abs(ref))
    return worst


def _check_bivariate_reduction(rng) -> float:
    worst = 0.0
    for _ in range(40):
        p = _tame_params(rng)
        u, v = rng.uniform(-2.0, 2.0, 2)
        got = eval_trivariate(p, u, v, 0.0, _CTRL).value
        ref = _brute_double_sum(p.alpha, p.beta, p.delta, p.eta, u, v)
        worst = max(worst, _rel(got, ref))
    return worst


def _check_prabhakar_reduction(rng) -> float:
    worst = 0.0
    for _ in range(40):
        p = _tame_params(rng)
        s = rng.uniform(-2.0, 2.0)
        got = eval_trivariate(p, s, 0.0, 0.0, _CTRL).value
        ref = eval_prabhakar(p.alpha, p.delta, p.eta, s, _CTRL).value
        worst = max(worst, _rel(got, ref))
    return worst


def _check_slot_symmetry(rng) -> float:
    worst = 0.0
    for _ in range(20):
        p = _tame_params(rng)
        u, v, w = rng.uniform(-1.5, 1.5, 3)
        base = eval_trivariate(p, u, v, w, _CTRL).value
        swapped = eval_trivariate(
            MLParams(p.beta, p.alpha, p.gamma, p.delta, p.eta), v, u, w, _CTRL
        ).value
        rotated = eval_trivariate(
            MLParams(p.gamma, p.alpha, p.beta, p.delta, p.eta), w, u, v, _CTRL
        ).value
        worst = max(worst, _rel(swapped, base), _rel(rotated, base))
    return worst


def _check_two_param_identity() -> float:
    worst = 0.0
    for alpha in (0.4, 0.8, 1.3):
        for s in np.linspace(-3.0, 3.0, 13):
            lhs = 1.0 + s * eval_prabhakar(alpha, alpha + 1.0, 1.0, float(s), _CTRL).value
            rhs = eval_prabhakar(alpha, 1.0, 1.0, float(s), _CTRL).value
            worst = max(worst, _rel(lhs, rhs))
    return worst


def _check_contour_vs_series(rng) -> float:
    worst = 0.0
    for _ in range(10):
        p = _tame_params(rng)
        u, v, w = rng.uniform(-1.0, 1.0, 3)
        ref = eval_trivariate(p, u, v, w, _CTRL).value
        got = eval_hankel_contour(p, u, v, w, ContourSpec(node_count=64)).value
        worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    return worst


def _check_laplace_duality(rng) -> float:
    worst = 0.0
    ts = np.array([0.25, 0.5, 1.0, 1.5])
    for _ in range(10):
        p = _tame_params(rng)
        lam = _tame_lam(rng)
        refs, _ = eval_univariate_grid(p, lam, ts, _CTRL)
        got = talbot_invert(lambda s: laplace_closed_form(p, lam, s), ts, nodes=48)
        worst = max(worst, *map(_rel, got, refs))
    return worst


def _check_convolution(rng) -> float:
    worst = 0.0
    rs = np.array([0.3, 0.6, 1.0])
    for _ in range(10):
        a, b, g = rng.uniform(0.5, 1.5, 3)
        p1 = MLParams(a, b, g, rng.uniform(0.7, 2.0), rng.uniform(0.5, 1.6))
        p2 = MLParams(a, b, g, rng.uniform(0.7, 2.0), rng.uniform(0.5, 1.6))
        lam = _tame_lam(rng)
        got = convolve_numeric(p1, p2, lam, rs, n=512, ctrl=_CTRL)
        refs = convolution_closed_form(p1, p2, lam, rs, _CTRL)
        worst = max(worst, *map(_rel, got, refs))
    return worst


def _check_caputo_l1_shift() -> float:
    # empirical convergence order of the L1 oracle toward the delta-shift value
    params = MLParams(1.1, 0.9, 0.7, 3.0, 1.3)
    lam = LambdaTriple(0.5, -0.4, 0.3)
    nu = 0.6
    y = 0.75
    ref = caputo_derivative_univariate(params, lam, FracOrder(nu), y, _CTRL)
    errs = []
    for n in (192, 384, 768):
        grid = np.linspace(0.0, y, n + 1)
        vals, _ = eval_univariate_grid(params, lam, grid, _CTRL)
        deriv = caputo_l1_numeric(GridFunction(grid, vals), nu)
        errs.append(abs(deriv.values[-1] - ref))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return max(abs(o - (2.0 - nu)) for o in orders)


def _check_pascal() -> float:
    worst = 0
    for q in range(1, 21):
        for l in range(1, q + 1):
            for p in range(1, q - l + 1):
                k = q - l - p
                if k < 1:
                    continue
                lhs = trinomial(l, p, k)
                rhs = trinomial(l - 1, p, k) + trinomial(l, p - 1, k) + trinomial(l, p, k - 1)
                worst = max(worst, abs(lhs - rhs))
    return float(worst)


def _check_fox_wright_homogeneous() -> float:
    spec = IVPSpec(0.9, 0.6, 0.3, 0.4, -0.3, 0.5, 1.7)
    worst = 0.0
    for r in (0.25, 0.5, 0.75, 1.0):
        a = solve_homogeneous(spec, r, _CTRL)
        b = solve_homogeneous_fox_wright(spec, r, _CTRL)
        worst = max(worst, _rel(b, a))
    return worst


def _check_rl_compose(rng) -> float:
    worst = 0.0
    for _ in range(20):
        p = _tame_params(rng)
        lam = _tame_lam(rng)
        nu = rng.uniform(0.1, 0.9)
        y = rng.uniform(0.3, 2.0)
        via = rl_derivative_univariate(p.shifted(nu), lam, FracOrder(nu), y, _CTRL)
        direct = eval_univariate(p, lam, y, _CTRL).value
        worst = max(worst, _rel(via, direct))
    return worst


def _check_caputo_power_semigroup(rng) -> float:
    worst = 0.0
    for _ in range(30):
        nu1 = rng.uniform(0.1, 0.9)
        nu2 = rng.uniform(0.1, 0.9)
        gexp = rng.uniform(nu1 + 1.05, 3.5)
        r = rng.uniform(0.2, 2.0)
        once = caputo_power(gexp, FracOrder(nu1 + nu2), r)
        # first derivative shifts the exponent; the second acts on the shifted power
        mid = gexp - nu1
        if mid <= math.floor(nu2):
            continue
        twice = caputo_power(mid, FracOrder(nu2), r)
        worst = max(worst, _rel(twice, once))
    return worst


def _check_homogeneous_residual() -> float:
    # truncation-order study away from the r^alpha layer at the base point
    spec = _DAMPED
    errs = []
    for n in (256, 512):
        grid = np.linspace(0.0, 1.0, n + 1)
        vals = _homog_grid(spec, grid, _CTRL)
        trace = SolutionTrace(grid, vals, "series", np.zeros_like(grid), np.ones_like(grid, dtype=bool))
        errs.append(residual_check(spec, trace, min_r=0.25))
    order = math.log2(errs[0] / errs[1])
    return abs(order - (2.0 - spec.alpha))


def _check_oracle_agreement() -> float:
    spec = _DAMPED
    diffs = []
    for h in (1.0 / 128, 1.0 / 256):
        oracle = numeric_oracle_solve(spec, None, h, 1.0)
        grid = oracle.grid[:: max(1, oracle.grid.size // 33)]
        interp = np.interp(grid, oracle.grid, oracle.values)
        diffs.append(float(np.max(np.abs(_homog_grid(spec, grid, _CTRL) - interp))))
    order = math.log2(diffs[0] / diffs[1])
    return max(0.0, 1.0 - order)


_CHECKS: dict[str, tuple[Callable, float, bool]] = {
    # name: (runner, tolerance, needs_rng)
    "exp-reduction": (_check_exp_reduction, 1e-10, False),
    "bivariate-reduction": (_check_bivariate_reduction, 1e-11, True),
    "prabhakar-reduction": (_check_prabhakar_reduction, 1e-11, True),
    "slot-symmetry": (_check_slot_symmetry, 1e-12, True),
    # alternating series near s = -3 carry ~1e5 peak terms, so float64
    # cancellation caps this identity around 5e-8 absolute
    "two-param-identity": (_check_two_param_identity, 1e-6, False),
    "contour-vs-series": (_check_contour_vs_series, 1e-8, True),
    "laplace-duality": (_check_laplace_duality, 1e-6, True),
    "convolution-identity": (_check_convolution, 1e-6, True),
    "caputo-l1-shift": (_check_caputo_l1_shift, 0.3, False),
    "pascal-tetrahedron": (_check_pascal, 0.0, False),
    "fox-wright-homogeneous": (_check_fox_wright_homogeneous, 1e-8, False),
    "rl-compose": (_check_rl_compose, 1e-9, True),
    "caputo-power-semigroup": (_check_caputo_power_semigroup, 1e-12, True),
    "homogeneous-residual": (_check_homogeneous_residual, 0.3, False),
    "oracle-agreement": (_check_oracle_agreement, 0.15, False),
}


def all_check_names() -> list[str]:
    return list(_CHECKS)


def run_checks(
    only: str | None = None, tol_override: float | None = None, seed: int = 20240817
) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results.

    ``tol_override`` replaces every check's tolerance; it must be finite and
    nonnegative (pascal-tetrahedron's own tolerance is 0).
    """
    if tol_override is not None and not (math.isfinite(tol_override) and tol_override >= 0.0):
        raise DomainError(f"tolerance override must be finite and >= 0, got {tol_override}")
    names = [only] if only else all_check_names()
    results = []
    for name in names:
        if name not in _CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {', '.join(_CHECKS)}")
        runner, tol, needs_rng = _CHECKS[name]
        rng = np.random.default_rng(seed)
        err = runner(rng) if needs_rng else runner()
        results.append(CheckResult(name, float(err), tol if tol_override is None else tol_override))
    return results
