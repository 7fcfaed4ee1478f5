"""Fractional differ-integrals of the univariate Mittag-Leffler form.

Closed forms come from the delta-shift rules: the n-th classical derivative
shifts delta by -n, the Riemann-Liouville integral by +nu, the R-L and Caputo
derivatives by -nu (the Caputo shift only where its term-by-term derivation is
justified; outside that region the operation refuses rather than extrapolate).
The L1 grid scheme provides an independent numerical Caputo oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesNotConvergedError
from .kernels import reciprocal_gamma
from .series import LambdaTriple, MLParams, SeriesControl, eval_univariate

__all__ = [
    "FracOrder",
    "GridFunction",
    "nth_derivative_univariate",
    "rl_integral_univariate",
    "rl_derivative_univariate",
    "caputo_derivative_univariate",
    "caputo_power",
    "caputo_l1_numeric",
    "l1_weights",
]


@dataclass(frozen=True)
class FracOrder:
    """A fractional order nu >= 0 together with the base point of the operator."""

    nu: float
    offset_a: float = 0.0

    def __post_init__(self):
        if not self.nu >= 0.0:
            raise DomainError(f"order must satisfy nu >= 0, got {self.nu}")


@dataclass(frozen=True)
class GridFunction:
    """Samples of a real function on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length >= 2")
        steps = np.diff(grid)
        if steps.min() <= 0.0:
            raise DomainError("grid must be strictly increasing")
        h = steps.mean()
        if np.abs(steps - h).max() > 1e-12 * max(abs(h), 1.0):
            raise DomainError("grid must be uniform to 1e-12 relative")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


def _scalar(res) -> float:
    if not res.converged:
        raise SeriesNotConvergedError(
            f"series did not converge within the shell budget (used {res.shells_used})"
        )
    return float(res.value)


def nth_derivative_univariate(
    params: MLParams, lam: LambdaTriple, n: int, r: float, ctrl: SeriesControl | None = None
) -> float:
    """n-th classical derivative of the univariate form at r > 0 (delta -> delta - n)."""
    if n < 0:
        raise DomainError("derivative order n must be a nonnegative integer")
    if not r > 0.0:
        raise DomainError(f"requires r > 0, got {r}")
    return _scalar(eval_univariate(params.shifted(-float(n)), lam, r, ctrl))


def rl_integral_univariate(
    params: MLParams, lam: LambdaTriple, order: FracOrder, y: float, ctrl: SeriesControl | None = None
) -> float:
    """Riemann-Liouville integral of order nu based at a (delta -> delta + nu)."""
    if not y > order.offset_a:
        raise DomainError(f"requires y > a = {order.offset_a}, got {y}")
    if not params.delta > 0.0:
        raise DomainError("requires delta > 0")
    if not order.nu > 0.0:
        raise DomainError("integral order must be positive")
    return _scalar(eval_univariate(params.shifted(order.nu), lam, y - order.offset_a, ctrl))


def rl_derivative_univariate(
    params: MLParams, lam: LambdaTriple, order: FracOrder, y: float, ctrl: SeriesControl | None = None
) -> float:
    """Riemann-Liouville derivative of order nu based at a (delta -> delta - nu)."""
    if not y > order.offset_a:
        raise DomainError(f"requires y > a = {order.offset_a}, got {y}")
    if not params.delta > 0.0:
        raise DomainError("requires delta > 0")
    return _scalar(eval_univariate(params.shifted(-order.nu), lam, y - order.offset_a, ctrl))


def caputo_derivative_univariate(
    params: MLParams, lam: LambdaTriple, order: FracOrder, y: float, ctrl: SeriesControl | None = None
) -> float:
    """Caputo derivative of order nu based at a; same delta shift as R-L.

    Integer nu reduces to the classical derivative rule, which needs no
    restriction.  For fractional nu the shift is exposed only where its
    termwise derivation is justified, i.e. delta > nu; other regions raise
    :class:`DomainError` instead of asserting a formula outside its proof.
    """
    if not y > order.offset_a:
        raise DomainError(f"requires y > a = {order.offset_a}, got {y}")
    if not params.delta > 0.0:
        raise DomainError("requires delta > 0")
    if order.nu != math.floor(order.nu) and not params.delta > order.nu:
        raise DomainError(
            f"closed form restricted to delta > nu (got delta={params.delta}, nu={order.nu})"
        )
    return _scalar(eval_univariate(params.shifted(-order.nu), lam, y - order.offset_a, ctrl))


def caputo_power(gamma_exp: float, order: FracOrder, r: float) -> float:
    """Caputo derivative of (r-a)^gamma / Gamma(gamma+1): the power-shift rule.

    Requires gamma > floor(nu) so the classical derivatives taken before the
    fractional integral do not annihilate or singularize the power.
    """
    if not r > order.offset_a:
        raise DomainError(f"requires r > a = {order.offset_a}, got {r}")
    if not gamma_exp > math.floor(order.nu):
        raise DomainError(
            f"requires gamma > floor(nu), got gamma={gamma_exp}, nu={order.nu}"
        )
    x = r - order.offset_a
    return x ** (gamma_exp - order.nu) * reciprocal_gamma(gamma_exp - order.nu + 1.0)


def l1_weights(nu: float, n: int) -> np.ndarray:
    """L1 convolution weights b_j = (j+1)^(1-nu) - j^(1-nu), j = 0..n-1."""
    j = np.arange(n, dtype=float)
    return (j + 1.0) ** (1.0 - nu) - j ** (1.0 - nu)


def caputo_l1_numeric(f: GridFunction, nu: float) -> GridFunction:
    """L1 product-rectangle Caputo derivative of sampled data, order nu in (0,1).

    Returns the derivative on the interior points (the grid with its base
    point dropped).  Truncation order is O(h^(2-nu)) for twice continuously
    differentiable data.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"L1 scheme requires 0 < nu < 1, got {nu}")
    if f.grid.size < 3:
        raise DomainError("need at least 3 grid points")
    h = f.step
    b = l1_weights(nu, f.grid.size - 1)
    dy = np.diff(f.values)
    conv = np.convolve(b, dy)[: dy.size]
    scale = h ** (-nu) / math.gamma(2.0 - nu)
    return GridFunction(f.grid[1:], scale * conv)
