"""Independent reference implementations used only by the tests.

Everything here is written as plainly as possible (scalar loops, stdlib math)
and shares no code with the package's series engine, so agreement between the
two is evidence rather than tautology.
"""

import math

import numpy as np
from scipy.special import roots_jacobi, roots_laguerre


def _rgamma_signed(x: float) -> float:
    """1/Gamma(x) for real x, 0 at the poles (plain reflection, scalar)."""
    if x > 0.5:
        return math.exp(-math.lgamma(x))
    m = x - 2.0 * math.floor(x / 2.0)  # x mod 2, in [0, 2)
    s = math.sin(math.pi * m) if m not in (0.0, 1.0) else 0.0
    if s == 0.0:
        return 0.0
    return s * math.exp(math.lgamma(1.0 - x)) / math.pi


def brute_trivariate(alpha, beta, gamma, delta, eta, u, v, w, qmax=260, tol=1e-15, absolute=False):
    """Fixed-order brute-force triple loop over simplex shells.

    With ``absolute`` it sums |term| instead, the scale of the rounding error
    of any float evaluation of the series.
    """
    total = 0.0 + 0.0j
    lp_sign, lp_log = 1.0, 0.0  # (eta)_q tracked incrementally
    quiet = 0
    for q in range(qmax + 1):
        if q > 0:
            factor = eta + q - 1.0
            if factor == 0.0:
                break  # series terminates: all later rising factorials vanish
            lp_sign *= math.copysign(1.0, factor)
            lp_log += math.log(abs(factor))
        shell = 0.0 + 0.0j
        for l in range(q + 1):
            for p in range(q - l + 1):
                k = q - l - p
                rg = _rgamma_signed(l * alpha + p * beta + k * gamma + delta)
                if rg == 0.0:
                    continue
                coeff = lp_sign * rg * math.exp(
                    lp_log - math.lgamma(l + 1.0) - math.lgamma(p + 1.0) - math.lgamma(k + 1.0)
                )
                term = coeff * (u**l) * (v**p) * (w**k)
                shell += abs(term) if absolute else term
        total += shell
        if abs(shell) <= tol * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 4 and q >= 4:
                break
        else:
            quiet = 0
    return total


def brute_bivariate(alpha, beta, offset, eta, u, v, qmax=260, tol=1e-15):
    """Double-loop sum over l, p with gamma argument l*alpha + p*beta + offset."""
    total = 0.0 + 0.0j
    lp_sign, lp_log = 1.0, 0.0
    quiet = 0
    for q in range(qmax + 1):
        if q > 0:
            factor = eta + q - 1.0
            if factor == 0.0:
                break
            lp_sign *= math.copysign(1.0, factor)
            lp_log += math.log(abs(factor))
        shell = 0.0 + 0.0j
        for l in range(q + 1):
            p = q - l
            rg = _rgamma_signed(l * alpha + p * beta + offset)
            if rg == 0.0:
                continue
            coeff = lp_sign * rg * math.exp(lp_log - math.lgamma(l + 1.0) - math.lgamma(p + 1.0))
            shell += coeff * (u**l) * (v**p)
        total += shell
        if abs(shell) <= tol * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 4 and q >= 4:
                break
        else:
            quiet = 0
    return total


def brute_prabhakar(alpha, delta, eta, s, kmax=400, tol=1e-16):
    total = 0.0 + 0.0j
    lp_sign, lp_log = 1.0, 0.0
    quiet = 0
    for k in range(kmax + 1):
        if k > 0:
            factor = eta + k - 1.0
            if factor == 0.0:
                break
            lp_sign *= math.copysign(1.0, factor)
            lp_log += math.log(abs(factor))
        rg = _rgamma_signed(k * alpha + delta)
        term = lp_sign * rg * math.exp(lp_log - math.lgamma(k + 1.0)) * s**k
        total += term
        if abs(term) <= tol * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 4 and k >= 4:
                break
        else:
            quiet = 0
    return total


def brute_univariate(alpha, beta, gamma, delta, eta, l1, l2, l3, r, qmax=260, absolute=False):
    val = brute_trivariate(
        alpha, beta, gamma, delta, eta, l1 * r**alpha, l2 * r**beta, l3 * r**gamma, qmax,
        absolute=absolute,
    )
    return r ** (delta - 1.0) * val.real


def laplace_forward_quadrature(f, s, n=128):
    """int_0^inf e^(-s r) f(r) dr by Gauss-Laguerre (f real, s real > 0).

    The largest node sits near 4n/s; the caller must pick (s, n) so f is
    series-computable out there.
    """
    x, w = roots_laguerre(n)
    return sum(wi * f(xi / s) for xi, wi in zip(x, w)) / s


def laplace_forward_truncated(f, s, r_max, n=192, endpoint_power=0.0):
    """int_0^r_max e^(-s r) f(r) dr by Gauss-Jacobi with f's r^p behavior at 0.

    For transforms of decaying-enough f the tail beyond r_max is bounded by
    e^(-s r_max) * sup|f|; the caller picks r_max so that is negligible.
    """
    x, w = roots_jacobi(n, 0.0, endpoint_power)
    rs = r_max * (x + 1.0) / 2.0
    smooth = np.array([math.exp(-s * r) * f(r) * r ** (-endpoint_power) for r in rs])
    return (r_max / 2.0) ** (endpoint_power + 1.0) * float(np.sum(w * smooth))


def rl_integral_quadrature(f, nu, y, n=96, endpoint_power=0.0):
    """(1/Gamma(nu)) int_0^y (y-s)^(nu-1) f(s) ds by Gauss-Jacobi.

    ``endpoint_power`` is the known power behavior of f at s=0 (delta-1 for
    the univariate form); it is absorbed in the weight so the quadrature sees
    a smooth factor.
    """
    x, w = roots_jacobi(n, nu - 1.0, endpoint_power)
    xs = y * (x + 1.0) / 2.0
    smooth = np.array([f(float(s)) * float(s) ** (-endpoint_power) for s in xs])
    scale = y ** (nu + endpoint_power) * 0.5 ** (nu + endpoint_power)
    return scale * float(np.sum(w * smooth)) / math.gamma(nu)


def grunwald_rl_derivative(values, h, nu):
    """Grunwald-Letnikov R-L derivative samples on the same grid (first point dropped)."""
    n = len(values) - 1
    w = np.empty(n + 1)
    w[0] = 1.0
    for j in range(1, n + 1):
        w[j] = w[j - 1] * (j - 1.0 - nu) / j
    vals = np.asarray(values, dtype=float)
    out = np.empty(n)
    for m in range(1, n + 1):
        out[m - 1] = h ** (-nu) * float(np.dot(w[: m + 1], vals[m::-1]))
    return out


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)
