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

from .errors import DomainError, QuadratureError, SeriesNotConvergedError, SeriesOverflowError, SingularStepError
from .fractional import l1_weights
from .quadrature import jacobi_01
from .series import (
    EvalResult,
    LambdaTriple,
    MLParams,
    SeriesControl,
    eval_fox_wright_1psi1,
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
    third direction as three 1Psi1 factors per block.  Entirely independent of
    the trivariate shell engine; used to cross-check it.
    """
    if r < 0.0:
        raise DomainError(f"requires r >= 0, got {r}")
    if r == 0.0:
        return spec.y0
    ab = spec.alpha - spec.beta
    ag = spec.alpha - spec.gamma
    bg = spec.beta - spec.gamma
    x3 = spec.lambda3 * r**ab
    log_r = math.log(r)
    total = 0.0
    dmax = (ctrl or SeriesControl()).max_shell
    quiet = 0
    for d in range(dmax + 1):
        block = 0.0
        for l in range(d + 1):
            p = d - l
            sign = (-1.0 if (spec.lambda1 < 0 and l % 2) else 1.0) * (
                -1.0 if (spec.lambda2 < 0 and p % 2) else 1.0
            )
            if (spec.lambda1 == 0.0 and l > 0) or (spec.lambda2 == 0.0 and p > 0):
                continue
            logpre = (
                (l * math.log(abs(spec.lambda1)) if l else 0.0)
                + (p * math.log(abs(spec.lambda2)) if p else 0.0)
                - math.lgamma(l + 1.0)
                - math.lgamma(p + 1.0)
                + (ab * d + spec.beta * l + bg * p) * log_r
            )
            c0 = ab * d + spec.beta * l + bg * p + 1.0
            t1 = eval_fox_wright_1psi1((d + 1.0, 1.0), (c0, ab), x3, ctrl)
            t2 = eval_fox_wright_1psi1((d + 1.0, 1.0), (c0 + ab, ab), x3, ctrl)
            t3 = eval_fox_wright_1psi1((d + 1.0, 1.0), (c0 + ag, ab), x3, ctrl)
            if not (t1.converged and t2.converged and t3.converged):
                raise SeriesNotConvergedError("1Psi1 factor did not converge")
            inner = t1.value - x3 * t2.value - spec.lambda2 * r**ag * t3.value
            block += sign * math.exp(logpre) * inner
        total += block
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
