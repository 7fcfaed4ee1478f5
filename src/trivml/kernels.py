"""Scalar special-function kernels: log-gamma, reciprocal gamma, Pochhammer, beta.

Everything here is real-valued and pure.  Series code builds term magnitudes in
log space, so alongside the plain-value operations this module exposes signed
log variants (a ``(sign, log|value|)`` pair) that stay finite where the plain
value would overflow and carry an exact zero through the poles of the gamma
function.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SeriesOverflowError

_LOG_PI = math.log(math.pi)
# largest x with exp(x) finite in IEEE double
_EXP_MAX = 709.0


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Raises :class:`DomainError` for arguments outside the positive axis.
    """
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def sinpi(x):
    """sin(pi*x) with exact zeros at integer x.

    Reduces the argument modulo 2 before multiplying by pi, so accuracy does
    not degrade for large |x| and integer inputs map to exactly 0.  Accepts
    scalars or arrays.
    """
    y = np.remainder(np.asarray(x, dtype=float), 2.0)  # [0, 2)
    flip = y > 1.0
    z = np.where(flip, y - 1.0, y)                     # [0, 1]
    z = np.where(z > 0.5, 1.0 - z, z)                  # [0, 0.5], sin symmetric
    s = np.sin(np.pi * z)
    return np.where(flip, -s, s) if s.ndim else float(np.where(flip, -s, s))


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) as a total function of a real argument.

    Returns exactly 0.0 at the poles of Gamma (non-positive integers) and is
    continuous through them via the reflection formula.
    """
    x = float(x)
    if x > 0.5:
        return float(np.exp(-math.lgamma(x)))
    s = sinpi(x)
    if s == 0.0:
        return 0.0
    # 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi for x <= 1/2
    return float(s * np.exp(math.lgamma(1.0 - x)) / math.pi)


def signed_log_rgamma(x):
    """Vectorized (sign, log|1/Gamma(x)|) for real x of any sign.

    The sign is 0 (and the log -inf) at non-positive integers, so a series
    term whose gamma argument lands on a pole contributes exactly nothing.
    """
    x = np.asarray(x, dtype=float)
    sign = np.ones_like(x)
    if x.min(initial=math.inf) > 0.5:  # no reflection needed: skip the masks, gathers and scatters
        return sign, np.negative(gammaln(x), out=np.empty_like(x))
    pos = x > 0.5
    logv = np.empty_like(x)
    logv[pos] = -gammaln(x[pos])
    xn = x[~pos]
    if xn.size:
        s = np.asarray(sinpi(xn))
        with np.errstate(divide="ignore"):
            logv[~pos] = np.log(np.abs(s)) + gammaln(1.0 - xn) - _LOG_PI
        sign[~pos] = np.sign(s)
    return sign, logv


def pochhammer(eta: float, m: int) -> float:
    """Rising factorial (eta)_m = eta (eta+1) ... (eta+m-1), with (eta)_0 = 1.

    Uses the direct product for m <= 64 and log-gamma differences with sign
    tracking for larger m.  Raises :class:`SeriesOverflowError` when the value
    exceeds the double range.
    """
    if m < 0:
        raise DomainError(f"pochhammer requires m >= 0, got {m}")
    if m == 0:
        return 1.0
    eta = float(eta)
    if m <= 64:
        out = 1.0
        for j in range(m):
            out *= eta + j
        if not math.isfinite(out):
            raise SeriesOverflowError(f"({eta})_{m} overflows the double range")
        return out
    sign, logabs = log_pochhammer(eta, m)
    if sign == 0.0:
        return 0.0
    if logabs > _EXP_MAX:
        raise SeriesOverflowError(f"({eta})_{m} overflows the double range")
    return sign * math.exp(logabs)


def log_pochhammer(eta: float, m: int) -> tuple[float, float]:
    """(sign, log|(eta)_m|); sign is 0 for a vanishing rising factorial."""
    if m == 0:
        return 1.0, 0.0
    if eta > 0.0:
        return 1.0, math.lgamma(eta + m) - math.lgamma(eta)
    if eta == math.floor(eta):
        # non-positive integer eta: zero factor once m passes -eta
        if m > -eta:
            return 0.0, -math.inf
        # (eta)_m = (-1)^m (-eta)! / (-eta-m)!
        sign = -1.0 if m % 2 else 1.0
        return sign, math.lgamma(1.0 - eta) - math.lgamma(1.0 - eta - m)
    n_neg = min(m, math.ceil(-eta))
    sign = -1.0 if n_neg % 2 else 1.0
    # |Gamma| ratios are valid off the poles, which non-integer eta avoids
    return sign, math.lgamma(eta + m) - math.lgamma(eta)


def log_pochhammer_table(eta: float, qmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs and log magnitudes of (eta)_q for q = 0..qmax, as two arrays.

    For eta > 0 every factor eta + j is positive: every sign is +1 and the
    logs are those of the factors themselves, with the bits of the general
    path.
    """
    factors = eta + np.arange(qmax, dtype=float)
    if eta > 0.0:
        logs = np.empty(qmax + 1)
        logs[0] = 0.0
        np.cumsum(np.log(factors), out=logs[1:])
        return np.ones(qmax + 1), logs
    with np.errstate(divide="ignore"):
        logs = np.concatenate(([0.0], np.cumsum(np.log(np.abs(factors)))))
    signs = np.concatenate(([1.0], np.cumprod(np.sign(factors))))
    return signs, logs


def beta(c: float, d: float) -> float:
    """Euler beta function B(c, d) for c, d > 0, evaluated in log space."""
    if not (c > 0.0 and d > 0.0):
        raise DomainError(f"beta requires c, d > 0, got ({c}, {d})")
    return float(np.exp(math.lgamma(c) + math.lgamma(d) - math.lgamma(c + d)))
