"""Laplace-side identities: closed-form transform, fixed-Talbot inversion, convolution.

The univariate Mittag-Leffler form has the rational-in-fractional-powers
transform s^(-delta) (1 - l1 s^(-alpha) - l2 s^(-beta) - l3 s^(-gamma))^(-eta)
on the principal branch.  The fixed Talbot quadrature inverts such transforms
numerically and closes the verification loop back to the series engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    ParameterMismatchError,
    SeriesNotConvergedError,
    SingularTransformError,
    TalbotDivergenceError,
)
from .quadrature import jacobi_01
from .series import LambdaTriple, MLParams, SeriesControl, eval_univariate, eval_univariate_grid

__all__ = [
    "TransformValue",
    "laplace_closed_form",
    "transform_at",
    "talbot_invert",
    "convolution_closed_form",
    "convolve_numeric",
]


@dataclass(frozen=True)
class TransformValue:
    """A Laplace-domain sample: the abscissa s paired with the value there.

    Points fed to the forward-integral check must satisfy Re(s) > 0; the
    deformed-contour inversion samples the analytic continuation elsewhere.
    """

    s: complex
    value: complex


def laplace_closed_form(params: MLParams, lam: LambdaTriple, s) -> complex:
    """Transform of r^(delta-1) E(l1 r^alpha, l2 r^beta, l3 r^gamma).

    The formula agrees with the transform integral for Re(s) > 0; elsewhere it
    is the principal-branch analytic continuation, which is exactly what the
    deformed-contour inversion samples.  Only the branch cut (the non-positive
    real axis) is rejected.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0:
        raise DomainError(f"transform undefined on the branch cut, got s = {s}")
    if not params.delta > 0.0:
        raise DomainError("requires delta > 0")
    bracket = (
        1.0
        - lam.lambda1 * s ** (-params.alpha)
        - lam.lambda2 * s ** (-params.beta)
        - lam.lambda3 * s ** (-params.gamma)
    )
    if bracket == 0.0:
        raise SingularTransformError(f"transform singular at s = {s}")
    return s ** (-params.delta) * bracket ** (-params.eta)


def transform_at(params: MLParams, lam: LambdaTriple, s) -> TransformValue:
    """Closed-form transform bundled with its abscissa."""
    return TransformValue(complex(s), laplace_closed_form(params, lam, s))


def _talbot_sum(F: Callable[[complex], complex], t: float, n: int) -> float:
    # Abate-Valko fixed Talbot: contour s(th) = rho*th*(cot th + i), rho = 2n/(5t)
    rho = 2.0 * n / (5.0 * t)
    total = 0.5 * math.exp(rho * t) * complex(F(complex(rho, 0.0))).real
    for k in range(1, n):
        th = k * math.pi / n
        cot = 1.0 / math.tan(th)
        s = rho * th * complex(cot, 1.0)
        sigma = th + (th * cot - 1.0) * cot
        total += (cmath.exp(s * t) * complex(F(s)) * complex(1.0, sigma)).real
    return (rho / n) * total


def talbot_invert(F: Callable[[complex], complex], t: float, nodes: int = 48) -> float:
    """Invert a Laplace transform at time t > 0 by the fixed Talbot rule.

    The contour radius scales with nodes/t, so the node count doubles as the
    knob that pushes the contour past any right-lying singularities of F.
    Raises :class:`TalbotDivergenceError` when doubling the node count (from
    half the requested value) moves the result by more than 1e-6 relative;
    note that in double precision the rule's roundoff grows like exp(2n/5),
    so past the accuracy sweet spot this check fires even though the
    half-count answer may be excellent.
    """
    if not t > 0.0:
        raise DomainError(f"inversion requires t > 0, got {t}")
    if nodes < 8:
        raise DomainError("need at least 8 nodes")
    coarse = _talbot_sum(F, t, max(nodes // 2, 4))
    fine = _talbot_sum(F, t, nodes)
    if abs(fine - coarse) > 1e-6 * max(abs(fine), 1.0):
        raise TalbotDivergenceError(
            f"node doubling moved the inversion by {abs(fine - coarse):.3e} "
            f"(value {fine:.6e}) at t={t}, nodes={nodes}"
        )
    return fine


def convolution_closed_form(
    p1: MLParams, p2: MLParams, lam: LambdaTriple, r: float, ctrl: SeriesControl | None = None
) -> float:
    """Convolution of two univariate forms sharing (alpha, beta, gamma) and lambdas.

    Equals the single univariate form with delta1+delta2 and eta1+eta2.
    """
    if (p1.alpha, p1.beta, p1.gamma) != (p2.alpha, p2.beta, p2.gamma):
        raise ParameterMismatchError(
            f"convolution requires matching index triples, got {p1} vs {p2}"
        )
    if not (p1.delta > 0.0 and p2.delta > 0.0):
        raise DomainError("requires delta1, delta2 > 0")
    if not r > 0.0:
        raise DomainError(f"requires r > 0, got {r}")
    merged = MLParams(p1.alpha, p1.beta, p1.gamma, p1.delta + p2.delta, p1.eta + p2.eta)
    res = eval_univariate(merged, lam, r, ctrl)
    if not res.converged:
        raise SeriesNotConvergedError("merged series did not converge")
    return float(res.value)


def convolve_numeric(
    p1: MLParams,
    p2: MLParams,
    lam: LambdaTriple,
    r: float,
    n: int = 256,
    ctrl: SeriesControl | None = None,
) -> float:
    """Direct quadrature of the time-domain convolution integral.

    Gauss-Jacobi with both endpoint powers s^(delta1-1) and (r-s)^(delta2-1)
    absorbed in the weight; the remaining factor is the product of the two
    bare series.  Used as the independent check of the closed form.
    """
    if not r > 0.0:
        raise DomainError(f"requires r > 0, got {r}")
    x, w = jacobi_01(n, p2.delta - 1.0, p1.delta - 1.0)
    s1 = r * x
    s2 = r * (1.0 - x)
    f1, probe1 = eval_univariate_grid(p1, lam, s1, ctrl)
    f2, probe2 = eval_univariate_grid(p2, lam, s2, ctrl)
    if not (probe1.converged and probe2.converged):
        raise SeriesNotConvergedError("convolution factor series did not converge")
    bare1 = f1 * s1 ** (1.0 - p1.delta)
    bare2 = f2 * s2 ** (1.0 - p2.delta)
    return r ** (p1.delta + p2.delta - 1.0) * float(np.sum(w * bare1 * bare2))
