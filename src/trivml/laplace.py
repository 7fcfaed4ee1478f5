"""Laplace-side identities: closed-form transform, fixed-Talbot inversion, convolution.

The univariate Mittag-Leffler form has the rational-in-fractional-powers
transform s^(-delta) (1 - l1 s^(-alpha) - l2 s^(-beta) - l3 s^(-gamma))^(-eta)
on the principal branch.  The fixed Talbot quadrature inverts such transforms
numerically and closes the verification loop back to the series engine.
"""

from __future__ import annotations

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
from .series import LambdaTriple, MLParams, SeriesControl, _count, eval_univariate_grid

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


def _cpow(z: np.ndarray, x: float) -> np.ndarray:
    """z**x on the principal branch, computed as Python's complex ** does.

    That is repeated multiplication for an integer x with |x| <= 100 and the
    polar form |z|**x e^(i x arg z) otherwise.  numpy's complex ** (a complex
    log and exp) differs in the last bits, enough to move a 100-node Talbot
    rule's node-doubling change past its bound.
    """
    if x == round(x) and abs(x) <= 100.0:
        return z ** int(x)
    return np.hypot(z.real, z.imag) ** x * np.exp(1j * (x * np.arctan2(z.imag, z.real)))


def _transform(params: MLParams, args, s: np.ndarray) -> np.ndarray:
    """s^(-delta) (1 - u s^(-alpha) - v s^(-beta) - w s^(-gamma))^(-eta) at an array of s.

    With ``args`` = (u, v, w) the lambdas, this is the Laplace transform of
    the univariate form; with the arguments of E(u, v, w), it is E's Hankel
    integrand without e^s.
    """
    u, v, w = args
    bracket = 1.0 - u * _cpow(s, -params.alpha) - v * _cpow(s, -params.beta) - w * _cpow(s, -params.gamma)
    if np.any(bracket == 0.0):
        raise SingularTransformError(f"transform singular at s = {s[bracket == 0.0][0]}")
    return _cpow(s, -params.delta) * _cpow(bracket, -params.eta)


def laplace_closed_form(params: MLParams, lam: LambdaTriple, s):
    """Transform of r^(delta-1) E(l1 r^alpha, l2 r^beta, l3 r^gamma) at s, a scalar or an ndarray.

    Returns a complex for a scalar s and a complex array of s's shape for an
    array.  The formula agrees with the transform integral for Re(s) > 0;
    elsewhere it is the principal-branch analytic continuation, which is
    exactly what the deformed-contour inversion samples.  A non-finite s and
    the branch cut (the non-positive real axis) raise :class:`DomainError`.
    """
    z = np.asarray(s, dtype=complex)
    bad = ~np.isfinite(z) | ((z.imag == 0.0) & (z.real <= 0.0))
    if bad.any():
        raise DomainError(f"transform needs a finite s off the non-positive real axis, got s = {z[bad][0]}")
    if not params.delta > 0.0:
        raise DomainError("requires delta > 0")
    value = _transform(params, lam.as_tuple(), z)
    return value if z.ndim else complex(value)


def transform_at(params: MLParams, lam: LambdaTriple, s) -> TransformValue:
    """Closed-form transform bundled with its abscissa."""
    return TransformValue(complex(s), laplace_closed_form(params, lam, s))


def _positive(name: str, x) -> np.ndarray:
    """``x`` as a float array; DomainError unless every entry is finite and > 0."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0.0)):
        raise DomainError(f"requires finite {name} > 0, got {x}")
    return xs


def _talbot(F: Callable[[np.ndarray], np.ndarray], t, rho, m: float, real: bool) -> np.ndarray:
    """Fixed Talbot rule for the inverse transform of F at times t (Abate & Valko, 2004).

    Talbot's contour s(th) = rho th (cot th + i) is sampled by the trapezoid
    rule at th_k = k pi / m for |k| < m (m need not be an integer), the
    th = 0 node taken as its limit s = rho:

        f(t) ~ (rho / 2m) sum_k e^(s_k t) F(s_k) (1 + i sigma_k),
        sigma = th + (th cot th - 1) cot th.

    ``t`` and ``rho`` broadcast to one shape, and F is called once, on an
    array of s with that shape plus a trailing axis of nodes.  With ``real``
    the data are real, so F(conj s) = conj F(s): only the nodes k >= 0 are
    used, and the result is real.
    """
    th = np.arange(1, math.ceil(m)) * (math.pi / m)
    cot = 1.0 / np.tan(th)
    sigma = th + (th * cot - 1.0) * cot
    if not real:  # the lower half mirrors the upper: s -> conj(s), sigma -> -sigma
        th, cot, sigma = (np.concatenate((-a[::-1], a)) for a in (th, cot, sigma))
    scale = np.asarray(rho, dtype=float)[..., None]
    s = np.concatenate((scale + 0j, scale * th * (cot + 1j)), axis=-1)
    weight = np.concatenate(([1.0], 1.0 + 1j * sigma))
    # an overflowing node gives an inf or nan sum, which the callers reject
    with np.errstate(all="ignore"):
        terms = np.exp(s * np.asarray(t, dtype=float)[..., None]) * F(s) * weight
        if real:
            return rho / m * (terms[..., 1:].real.sum(axis=-1) + 0.5 * terms[..., 0].real)
        return rho / (2 * m) * terms.sum(axis=-1)


def talbot_invert(F: Callable[[np.ndarray], np.ndarray], t, nodes: int = 48):
    """Invert a Laplace transform at finite times t > 0 by the fixed Talbot rule.

    ``t`` is a float, giving a float, or an array of times, giving an array
    of their shape.  F must take an ndarray of complex s and return the
    transform at each; it is called once per rule on every time at once.
    The contour radius scales with nodes/t, so the node count doubles as the
    knob that pushes the contour past any right-lying singularities of F.
    Raises :class:`TalbotDivergenceError` when doubling the node count (from
    half the requested value) moves the result by more than 1e-6 relative
    at any t; note that in double precision the rule's roundoff grows like
    exp(2n/5), so past the accuracy sweet spot this check fires even though
    the half-count answer may be excellent.
    """
    nodes = _count("nodes", nodes, 8)
    ts = _positive("t", t)
    coarse, fine = (_talbot(F, ts, 2.0 * n / (5.0 * ts), n, True) for n in (nodes // 2, nodes))
    change = np.abs(fine - coarse)
    moved = np.flatnonzero(~(change <= 1e-6 * np.maximum(np.abs(fine), 1.0)))  # nan counts as moved
    if moved.size:
        i = moved[0]
        raise TalbotDivergenceError(
            f"node doubling moved the inversion by {change.flat[i]:.3e} "
            f"(value {fine.flat[i]:.6e}) at t={ts.flat[i]}, nodes={nodes}"
        )
    return fine if ts.ndim else float(fine)


def convolution_closed_form(
    p1: MLParams, p2: MLParams, lam: LambdaTriple, r, ctrl: SeriesControl | None = None
):
    """Convolution of two univariate forms sharing (alpha, beta, gamma) and lambdas.

    Equals the single univariate form with delta1+delta2 and eta1+eta2, taken
    at r by one :func:`eval_univariate_grid` call: a float for a scalar r and
    an array of r's shape for an array.
    """
    if (p1.alpha, p1.beta, p1.gamma) != (p2.alpha, p2.beta, p2.gamma):
        raise ParameterMismatchError(
            f"convolution requires matching index triples, got {p1} vs {p2}"
        )
    if not (p1.delta > 0.0 and p2.delta > 0.0):
        raise DomainError("requires delta1, delta2 > 0")
    rs = _positive("r", r)
    merged = MLParams(p1.alpha, p1.beta, p1.gamma, p1.delta + p2.delta, p1.eta + p2.eta)
    value, res = eval_univariate_grid(merged, lam, rs, ctrl)
    if not res.converged:
        raise SeriesNotConvergedError("merged series did not converge")
    return value if rs.ndim else float(value)


def convolve_numeric(
    p1: MLParams,
    p2: MLParams,
    lam: LambdaTriple,
    r,
    n: int = 256,
    ctrl: SeriesControl | None = None,
):
    """Direct quadrature of the time-domain convolution integral at r, a float or an array.

    Gauss-Jacobi with both endpoint powers s^(delta1-1) and (r-s)^(delta2-1)
    absorbed in the weight; the remaining factor is the product of the two
    bare series, each evaluated at every r's nodes by one grid call.  Returns
    a float for a scalar r and an array of r's shape for an array.  Used as
    the independent check of the closed form.
    """
    rs = _positive("r", r)
    x, w = jacobi_01(_count("n", n, 1), p2.delta - 1.0, p1.delta - 1.0)
    s1, s2 = np.multiply.outer(rs, x), np.multiply.outer(rs, 1.0 - x)
    f1, probe1 = eval_univariate_grid(p1, lam, s1, ctrl)
    f2, probe2 = eval_univariate_grid(p2, lam, s2, ctrl)
    if not (probe1.converged and probe2.converged):
        raise SeriesNotConvergedError("convolution factor series did not converge")
    bare1 = f1 * s1 ** (1.0 - p1.delta)
    bare2 = f2 * s2 ** (1.0 - p2.delta)
    out = rs ** (p1.delta + p2.delta - 1.0) * np.sum(w * bare1 * bare2, axis=-1)
    return out if rs.ndim else float(out)
