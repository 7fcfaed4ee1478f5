"""Complex-plane integral oracle for the triple-index Mittag-Leffler function.

Realizes the Hankel-contour representation

    E(u, v, w) = (1/2 pi i) \\oint e^tau tau^(-delta)
                 (1 - u tau^(-alpha) - v tau^(-beta) - w tau^(-gamma))^(-eta) dtau

on Talbot's cotangent contour, by the fixed Talbot rule that also inverts
Laplace transforms (E is the inverse transform at t = 1 of the integrand
without e^tau), with the radius scaled so the zeros of the bracket stay
inside the contour.  This path shares nothing with the series engine and
serves as its independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .laplace import _talbot, _transform
from .series import EvalResult, MLParams, _count

__all__ = ["ContourSpec", "eval_hankel_contour"]

# Target accuracy of the node-doubling divergence check.
_TOL = 1e-8


@dataclass(frozen=True)
class ContourSpec:
    """Discretization of the contour: the number of nodes, any integer >= 8.

    The rule is the fixed Talbot one with M = half the node count (so an odd
    count has a half-integer M), and the radius is 2M/5 times an automatic
    argument scale.
    """

    node_count: int = 64

    def __post_init__(self):
        object.__setattr__(self, "node_count", _count("node_count", self.node_count, 8))


def eval_hankel_contour(
    params: MLParams, u, v, w, contour: ContourSpec | None = None
) -> EvalResult:
    """Contour-integral evaluation of E(u, v, w).

    Real arguments take the half contour (the integrand is conjugate
    symmetric) and give a float; complex ones take the full contour.  The
    returned estimate is the change under node doubling (from half the
    requested count to the full count); ``converged`` is False when that
    change exceeds ten times the contour tolerance, which signals that the
    principal-branch integrand or the contour scale is unsuitable for these
    arguments.  ``shells_used`` carries the node count.
    """
    contour = contour or ContourSpec()
    n = contour.node_count
    args = (u, v, w)
    scale = max(1.0, *(abs(z) ** (1.0 / a) for z, a in zip(args, (params.alpha, params.beta, params.gamma))))
    real = not any(isinstance(z, complex) and z.imag != 0.0 for z in args)
    coarse, fine = (
        _talbot(lambda s: _transform(params, args, s), 1.0, (2.0 * m / 5.0) * scale, m, real).item()
        for m in (n // 2 / 2.0, n / 2.0)
    )
    if not (cmath.isfinite(fine) and cmath.isfinite(coarse)):
        return EvalResult(fine, math.inf, n, False)
    delta = abs(fine - coarse)
    converged = delta <= 10.0 * _TOL * max(abs(fine), 1.0)
    return EvalResult(fine, delta, n, converged)
