"""Closed-form and numerical solvers for the three-order Caputo initial-value problem

    D^alpha y - l3 D^beta y - l2 D^gamma y - l1 y = g,   y(0) = y0,

with 1 >= alpha > beta > gamma > 0.  Note the crossed pairing: l3 multiplies
the middle order beta and l2 the smallest order gamma, while inside the
solution's Mittag-Leffler function l2 rides the (alpha-gamma) slot and l3 the
(alpha-beta) slot.  This asymmetry is easy to transcribe wrongly; every
mapping in this module goes through :func:`ml_params_for` so it lives in one
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, QuadratureError, SeriesNotConvergedError, SeriesOverflowError, SingularStepError
from .fractional import l1_weights
from .quadrature import jacobi_01
from .series import (
    EvalResult,
    LambdaTriple,
    MLParams,
    SeriesControl,
    _EXP_MAX,
    _wright_sum,
    eval_univariate,
    eval_univariate_grid,
)

__all__ = [
    "IVPSpec",
    "Forcing",
    "SolutionTrace",
    "trinomial",
    "ml_params_for",
    "solve_homogeneous",
    "solve_homogeneous_fox_wright",
    "particular_solution",
    "solve",
    "numeric_oracle_solve",
    "residual_check",
]


@dataclass(frozen=True)
class IVPSpec:
    """Orders, coefficients and initial value of the three-order problem."""

    alpha: float
    beta: float
    gamma: float
    lambda1: float
    lambda2: float
    lambda3: float
    y0: float

    def __post_init__(self):
        if not (1.0 >= self.alpha > self.beta > self.gamma > 0.0):
            raise DomainError(
                "orders must satisfy 1 >= alpha > beta > gamma > 0, got "
                f"({self.alpha}, {self.beta}, {self.gamma})"
            )
        for name in ("lambda1", "lambda2", "lambda3", "y0"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    @property
    def lam(self) -> LambdaTriple:
        return LambdaTriple(self.lambda1, self.lambda2, self.lambda3)


class Forcing:
    """Right-hand side g: either a callable or a sampled table with linear interpolation."""

    def __init__(self, fn: Callable[[float], float] | None = None,
                 table: tuple[np.ndarray, np.ndarray] | None = None):
        if (fn is None) == (table is None):
            raise DomainError("provide exactly one of fn or table")
        self._fn = fn
        self._table = table

    @classmethod
    def from_callable(cls, fn: Callable[[float], float]) -> "Forcing":
        return cls(fn=fn)

    @classmethod
    def from_table(cls, r: Sequence[float], g: Sequence[float]) -> "Forcing":
        r = np.asarray(r, dtype=float)
        g = np.asarray(g, dtype=float)
        if r.ndim != 1 or r.shape != g.shape or r.size < 2:
            raise DomainError("table needs matching 1-d r and g with >= 2 rows")
        if r[0] != 0.0:
            raise DomainError("table must start at r = 0")
        if np.diff(r).min() <= 0.0:
            raise DomainError("table abscissae must be strictly increasing")
        return cls(table=(r, g))

    @classmethod
    def zero(cls) -> "Forcing":
        return cls(fn=lambda r: 0.0)

    def __call__(self, r):
        if self._fn is not None:
            if np.ndim(r) == 0:
                return float(self._fn(float(r)))
            return np.array([float(self._fn(float(x))) for x in np.asarray(r).ravel()]).reshape(np.shape(r))
        xs, ys = self._table
        return np.interp(r, xs, ys)


@dataclass
class SolutionTrace:
    """Solution samples with per-point error estimates and backend provenance."""

    grid: np.ndarray
    values: np.ndarray
    backend: str
    abs_err: np.ndarray
    converged: np.ndarray


def trinomial(l: int, p: int, k: int) -> int:
    """Exact trinomial coefficient (l+p+k)! / (l! p! k!)."""
    if min(l, p, k) < 0:
        raise DomainError("indices must be nonnegative")
    return math.comb(l + p + k, l) * math.comb(p + k, p)


def ml_params_for(spec: IVPSpec, delta: float) -> MLParams:
    """Mittag-Leffler parameters of the solution kernels: slots (alpha, alpha-gamma, alpha-beta)."""
    return MLParams(spec.alpha, spec.alpha - spec.gamma, spec.alpha - spec.beta, delta, 1.0)


def _l1_operators(spec: IVPSpec, h: float, n: int):
    """(kappa h^(-mu) / Gamma(2-mu), L1 weights) for the three Caputo terms of the left side.

    The left side is D^alpha - l3 D^beta - l2 D^gamma, so kappa is 1, -l3, -l2
    for the orders alpha, beta, gamma.
    """
    for mu, kap in ((spec.alpha, 1.0), (spec.beta, -spec.lambda3), (spec.gamma, -spec.lambda2)):
        yield kap * h ** (-mu) / math.gamma(2.0 - mu), l1_weights(mu, n)


def _homog_result(spec: IVPSpec, r: float, ctrl: SeriesControl | None) -> EvalResult:
    if r == 0.0:
        return EvalResult(spec.y0, 0.0, 0, True)
    params = ml_params_for(spec, spec.alpha + 1.0)
    res = eval_univariate(params, spec.lam, r, ctrl)
    value = (1.0 + spec.lambda1 * res.value) * spec.y0
    scale = abs(spec.lambda1 * spec.y0)
    return EvalResult(value, res.abs_error_estimate * scale, res.shells_used, res.converged)


def _homog_grid(spec: IVPSpec, grid: np.ndarray, ctrl: SeriesControl | None) -> np.ndarray:
    """The homogeneous closed form of :func:`solve_homogeneous` over a whole grid.

    One :func:`eval_univariate_grid` call on the kernel with delta = alpha + 1
    replaces a series evaluation per point; its kernel vanishes at r = 0, so
    r = 0 gives exactly y0.  Raises :class:`SeriesNotConvergedError` when the
    probe at max(grid) misses the shell budget (every smaller r needs fewer
    shells); :class:`SeriesOverflowError` propagates.
    """
    params = ml_params_for(spec, spec.alpha + 1.0)
    kernel, probe = eval_univariate_grid(params, spec.lam, grid, ctrl)
    if not probe.converged:
        raise SeriesNotConvergedError(
            f"homogeneous series did not converge at r={float(np.max(grid))} within the shell budget"
        )
    return (1.0 + spec.lambda1 * kernel) * spec.y0


def solve_homogeneous(spec: IVPSpec, r: float, ctrl: SeriesControl | None = None) -> float:
    """Closed-form solution of the homogeneous problem at r >= 0:

    y(r) = (1 + l1 r^alpha E(l1 r^alpha, l2 r^(alpha-gamma), l3 r^(alpha-beta))) y0
    with function indices (alpha, alpha-gamma, alpha-beta, alpha+1).
    """
    if r < 0.0:
        raise DomainError(f"requires r >= 0, got {r}")
    res = _homog_result(spec, r, ctrl)
    if not res.converged:
        raise SeriesNotConvergedError(
            f"homogeneous series did not converge at r={r} within the shell budget"
        )
    return float(res.value)


def solve_homogeneous_fox_wright(
    spec: IVPSpec, r: float, ctrl: SeriesControl | None = None
) -> float:
    """The same homogeneous solution assembled from 1Psi1 Wright series.

    Expands the double sum over the first two index directions and sums the
    third direction, one block d = l + p at a time, as one weighted 1Psi1
    series: each (l, p) row enters with its prefactor times the factors 1,
    -x3 and -l2 r^(alpha-gamma) of its three denominators.  The weights are
    divided by the largest of them, so the series' stopping rule sees a
    partial sum of order one.  Entirely independent of the trivariate shell
    engine; used to cross-check it.
    """
    if r < 0.0:
        raise DomainError(f"requires r >= 0, got {r}")
    if not math.isfinite(r):
        raise DomainError(f"requires a finite r, got {r}")
    if r == 0.0:
        return spec.y0
    ctrl = ctrl or SeriesControl()
    ab = spec.alpha - spec.beta
    ag = spec.alpha - spec.gamma
    bg = spec.beta - spec.gamma
    x3 = spec.lambda3 * r**ab
    factors = np.array([1.0, -x3, -spec.lambda2 * r**ag])
    if not np.isfinite(factors).all():
        raise SeriesOverflowError(f"a Wright series argument at r={r} leaves the double range")
    # a zero lambda keeps only its zeroth power, whose log term is then 0
    lam1, lam2 = spec.lambda1, spec.lambda2
    log_lam1, log_lam2 = (math.log(abs(x)) if x else 0.0 for x in (lam1, lam2))
    log_r = math.log(r)
    total = 0.0
    quiet = 0
    for d in range(ctrl.max_shell + 1):
        l = np.arange(d + 1)
        l = l[((lam1 != 0.0) | (l == 0)) & ((lam2 != 0.0) | (l == d))]
        p = d - l
        expo = ab * d + spec.beta * l + bg * p
        logpre = l * log_lam1 + p * log_lam2 - gammaln(l + 1.0) - gammaln(p + 1.0) + expo * log_r
        if (logpre > _EXP_MAX).any():
            raise SeriesOverflowError(f"a prefactor of block d={d} leaves the double range")
        sign = np.where((lam1 < 0.0) & (l % 2 == 1), -1.0, 1.0) * np.where((lam2 < 0.0) & (p % 2 == 1), -1.0, 1.0)
        weights = np.outer(factors, sign * np.exp(logpre)).ravel()
        scale = float(np.abs(weights).max(initial=0.0))
        block = 0.0
        if scale > 0.0:
            c0 = expo + 1.0
            res = _wright_sum((d + 1.0, 1.0), ab, np.concatenate((c0, c0 + ab, c0 + ag)), weights / scale, x3, ctrl)
            if not res.converged:
                raise SeriesNotConvergedError("1Psi1 factor did not converge")
            block = scale * res.value
        total += block
        if not math.isfinite(total):
            raise SeriesOverflowError(f"the block sum leaves the double range at d={d}")
        if abs(block) <= 1e-14 * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 3:
                return total * spec.y0
        else:
            quiet = 0
    raise SeriesNotConvergedError("block sum over the first two directions did not settle")


def particular_solution(
    spec: IVPSpec,
    g: Forcing,
    r: float,
    quad_nodes: int = 64,
    ctrl: SeriesControl | None = None,
) -> float:
    """Variation-of-constants integral for the forced problem with zero initial data:

    int_0^r (r-s)^(alpha-1) E(l1 (r-s)^alpha, l2 (r-s)^(alpha-gamma), l3 (r-s)^(alpha-beta)) g(s) ds

    by Gauss-Jacobi quadrature with the kernel's singular power as the weight.
    Raises :class:`QuadratureError` when node doubling (half to full count)
    moves the result by more than 1e-6 relative.
    """
    if r < 0.0:
        raise DomainError(f"requires r >= 0, got {r}")
    if r < 1e-14:
        # integrand scale vanishes like r^alpha
        return 0.0
    fine = _particular_quad(spec, g, r, quad_nodes, ctrl)
    coarse = _particular_quad(spec, g, r, max(quad_nodes // 2, 4), ctrl)
    if abs(fine - coarse) > 1e-6 * max(abs(fine), 1.0):
        raise QuadratureError(
            f"node doubling moved the particular solution by {abs(fine - coarse):.3e} at r={r}"
        )
    return fine


def _particular_quad(spec, g, r, n, ctrl) -> float:
    params = ml_params_for(spec, spec.alpha)
    x, w = jacobi_01(n, spec.alpha - 1.0, 0.0)
    z = r * (1.0 - x)  # kernel argument r - s
    fker, probe = eval_univariate_grid(params, spec.lam, z, ctrl)
    if not probe.converged:
        raise SeriesNotConvergedError("kernel series did not converge")
    bare = fker * z ** (1.0 - spec.alpha)
    gs = np.asarray(g(r * x), dtype=float)
    return r**spec.alpha * float(np.sum(w * bare * gs))


def solve(
    spec: IVPSpec,
    g: Forcing | None,
    grid: Sequence[float],
    ctrl: SeriesControl | None = None,
    quad_nodes: int = 64,
) -> SolutionTrace:
    """Superposition of the homogeneous closed form and the particular integral.

    Evaluates every grid point; a point whose series overflows or misses the
    shell budget, or whose quadrature fails, is recorded as NaN with an
    infinite error estimate and a False converged flag.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
        raise DomainError("grid must be 1-d and start at 0")
    if grid.size > 1 and np.diff(grid).min() <= 0.0:
        raise DomainError("grid must be strictly increasing")
    values = np.empty(grid.size)
    errs = np.empty(grid.size)
    flags = np.ones(grid.size, dtype=bool)
    for i, r in enumerate(grid):
        try:
            res = _homog_result(spec, float(r), ctrl)
            val = res.value
            ok = res.converged
            if g is not None and r > 0.0 and ok:
                val += particular_solution(spec, g, float(r), quad_nodes, ctrl)
        except (SeriesOverflowError, SeriesNotConvergedError, QuadratureError):
            ok = False
        values[i] = val if ok else math.nan
        errs[i] = res.abs_error_estimate if ok else math.inf
        flags[i] = ok
    return SolutionTrace(grid, values, "series", errs, flags)


def numeric_oracle_solve(
    spec: IVPSpec, g: Forcing | None, step: float, horizon: float
) -> SolutionTrace:
    """March the problem with all three Caputo derivatives discretized by L1.

    Each step solves the single linear scalar equation in the newest unknown
    (the three L1 operators are linear with known leading weights).  Accuracy
    O(h^(2-alpha)).  Raises :class:`SingularStepError` when the combined
    leading coefficient vanishes; note it can also legitimately be negative
    at coarse steps for strongly growing problems, where the march is then
    meaningless until h is refined.
    """
    if not step > 0.0:
        raise DomainError("step must be positive")
    if not horizon > step:
        raise DomainError("horizon must exceed the step")
    n_steps = int(round(horizon / step))
    grid = step * np.arange(n_steps + 1)
    h = step

    cs, bs = zip(*_l1_operators(spec, h, n_steps))
    lead = sum(cs) - spec.lambda1
    if abs(lead) < 1e-14 * max(sum(abs(c) for c in cs), 1.0):
        raise SingularStepError(f"leading coefficient ~ 0 at h={h}")

    y = np.empty(n_steps + 1)
    y[0] = spec.y0
    gvals = np.zeros(n_steps + 1) if g is None else np.asarray(g(grid), dtype=float)
    for n in range(1, n_steps + 1):
        dy = np.diff(y[:n])  # increments up to y_{n-1}
        hist = 0.0
        for c, b in zip(cs, bs):
            if n > 1:
                hist += c * float(np.dot(b[1:n], dy[::-1]))
        rhs = gvals[n] + sum(cs) * y[n - 1] - hist
        y[n] = rhs / lead
    err = np.full(grid.shape, h ** (2.0 - spec.alpha))
    return SolutionTrace(grid, y, "oracle", err, np.isfinite(y))


def residual_check(
    spec: IVPSpec, trace: SolutionTrace, g: Forcing | None = None, min_r: float = 0.0
) -> float:
    """Max-norm of the L1-discretized equation residual over interior grid points.

    ``min_r`` restricts the norm to points with r >= min_r.  The exact
    solution carries an r^alpha term, so the discrete residual at the first
    grid point is O(1) no matter how fine the grid; refinement studies of the
    truncation order only make sense on a window bounded away from 0.
    """
    grid = trace.grid
    if grid.size < 3:
        raise DomainError("need at least 3 points")
    steps = np.diff(grid)
    h = steps.mean()
    if np.abs(steps - h).max() > 1e-12 * max(h, 1.0):
        raise DomainError("residual check requires a uniform grid")
    n_pts = grid.size - 1
    dy = np.diff(trace.values)
    resid = -spec.lambda1 * trace.values[1:]
    for c, b in _l1_operators(spec, h, n_pts):
        resid = resid + c * np.convolve(b, dy)[:n_pts]
    if g is not None:
        resid = resid - np.asarray(g(grid[1:]), dtype=float)
    mask = grid[1:] >= min_r
    if not mask.any():
        raise DomainError(f"no interior points at or beyond min_r = {min_r}")
    return float(np.max(np.abs(resid[mask])))
