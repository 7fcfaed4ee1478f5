"""Complex-plane integral oracle for the triple-index Mittag-Leffler function.

Realizes the Hankel-contour representation

    E(u, v, w) = (1/2 pi i) \\oint e^tau tau^(-delta)
                 (1 - u tau^(-alpha) - v tau^(-beta) - w tau^(-gamma))^(-eta) dtau

on a cotangent-parameterized (Talbot-style) deformation, with the radius
scaled so the zeros of the bracket stay inside the contour.  This path shares
nothing with the series engine and serves as its independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import EvalResult, MLParams, _count

__all__ = ["ContourSpec", "eval_hankel_contour"]

# Target accuracy of the node-doubling divergence check.
_TOL = 1e-8


@dataclass(frozen=True)
class ContourSpec:
    """Discretization of the contour: the number of midpoint nodes.

    The radius is the Talbot rule 2M/5 (M = half the node count) times an
    automatic argument scale.
    """

    node_count: int = 64

    def __post_init__(self):
        object.__setattr__(self, "node_count", _count("node_count", self.node_count))
        if self.node_count < 8:
            raise DomainError("node_count must be >= 8")


def _quad(params: MLParams, u, v, w, n: int, rho: float) -> complex:
    # midpoint rule in theta over (-pi, pi); integrand decays to 0 at the ends
    j = np.arange(n)
    theta = -math.pi + (j + 0.5) * (2.0 * math.pi / n)
    with np.errstate(all="ignore"):
        cot = 1.0 / np.tan(theta)
        tau = rho * theta * (cot + 1j)
        weight = 1.0 + 1j * (theta * (1.0 + cot * cot) - cot)
        bracket = 1.0 - u * tau ** (-params.alpha) - v * tau ** (-params.beta) - w * tau ** (-params.gamma)
        g = tau ** (-params.delta) * bracket ** (-params.eta)
        return (rho / n) * complex((np.exp(tau) * g * weight).sum())


def eval_hankel_contour(
    params: MLParams, u, v, w, contour: ContourSpec | None = None
) -> EvalResult:
    """Contour-integral evaluation of E(u, v, w).

    The returned estimate is the change under node doubling (from half the
    requested count to the full count); ``converged`` is False when that
    change exceeds ten times the contour tolerance, which signals that the
    principal-branch integrand or the contour scale is unsuitable for these
    arguments.  ``shells_used`` carries the node count.
    """
    contour = contour or ContourSpec()
    n = contour.node_count
    scale = max(
        1.0,
        abs(u) ** (1.0 / params.alpha),
        abs(v) ** (1.0 / params.beta),
        abs(w) ** (1.0 / params.gamma),
    )
    rho = (n / 5.0) * scale

    coarse = _quad(params, u, v, w, n // 2, rho * 0.5)
    fine = _quad(params, u, v, w, n, rho)
    finite = all(math.isfinite(x) for z in (fine, coarse) for x in (z.real, z.imag))
    if not finite:
        return EvalResult(fine, math.inf, n, False)
    delta = abs(fine - coarse)
    converged = delta <= 10.0 * _TOL * max(abs(fine), 1.0)
    return EvalResult(fine, delta, n, converged)
