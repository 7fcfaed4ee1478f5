"""Independent mpmath references for the benchmark's correctness gate.

Nothing here imports trivml.  Every reference is computed at two working
precisions, and the pair must agree before it is used; the higher-precision
result is returned as a Python complex.

* Real univariate and real trivariate values: fixed-Talbot inversion
  (`mpmath.invertlaplace`) of the closed-form transform
  s^-d (1 - l1 s^-a - l2 s^-b - l3 s^-g)^-eta; the trivariate function is the
  univariate form at t = 1 with (l1, l2, l3) = (u, v, w).
* Complex trivariate values: the same inversion applied separately to the
  transforms of the real and the imaginary part,
  (F(s) + conj F(conj s)) / 2 and (F(s) - conj F(conj s)) / 2i.
* The three-parameter function, and trivariate values where the two Talbot
  precisions disagree: brute-force summation of the defining series, with
  the working precision raised by the digits the summation cancels.
* Solutions of the homogeneous initial-value problem with commensurate
  orders (tenths):
  the Laplace-domain solution is a power series in x = s^(-1/10), whose
  coefficients obey c_n = l1 c_{n-a} + l2 c_{n-(a-g)} + l3 c_{n-(a-b)}, so
  U_d(r) = L^-1[s^-d / bracket](r) = r^(d-1) sum_n c_n x^n / Gamma(n/10 + d)
  with x = r^(1/10), summed in fixed point (r <= 1 here).  This derivation is
  the benchmark's own.
"""

from __future__ import annotations

import math

import mpmath as mp

# (lower, higher) working precisions in decimal digits
EVAL_DPS = (20, 30)
SOLVE_DPS = (30, 40)
# the two precisions must agree to this relative distance
AGREE_REL = 1e-17


class ReferenceError(RuntimeError):
    """The two working precisions disagree, so no reference is established."""


def _agree(lo, hi) -> bool:
    return abs(lo - hi) <= AGREE_REL * abs(hi) + mp.mpf(10) ** -40


def _transform(params, lams):
    a, b, g, d, e = (mp.mpf(x) for x in params)
    l1, l2, l3 = (mp.mpmathify(x) for x in lams)
    return lambda s: s ** (-d) * (1 - l1 * s ** (-a) - l2 * s ** (-b) - l3 * s ** (-g)) ** (-e)


def _invert(F, t, dps, degree=None):
    with mp.workdps(dps):
        if degree is None:
            return mp.invertlaplace(F, mp.mpf(t), method="talbot")
        return mp.invertlaplace(F, mp.mpf(t), method="talbot", degree=degree)


# When the default node counts disagree, a singularity of F lies near the
# contour (a growing solution); more nodes push the contour further right.
TALBOT_DEGREES = [(None, None), (100, 140), (180, 240)]


def talbot_univariate(params, lams, t) -> complex:
    """t^(d-1) E(l1 t^a, l2 t^b, l3 t^g) by Laplace inversion; lambdas may be complex."""
    F = _transform(params, lams)
    is_complex = any(isinstance(x, complex) and x.imag for x in lams)
    for degrees in TALBOT_DEGREES:
        vals = []
        for dps, degree in zip(EVAL_DPS, degrees):
            if is_complex:
                pairs = {}  # both inversions sample the same nodes

                def pair(s):
                    if s not in pairs:
                        pairs[s] = (F(s), mp.conj(F(mp.conj(s))))
                    return pairs[s]

                re = _invert(lambda s: (pair(s)[0] + pair(s)[1]) / 2, t, dps, degree)
                im = _invert(lambda s: (pair(s)[0] - pair(s)[1]) / 2j, t, dps, degree)
                vals.append(mp.mpc(re, im))
            else:
                vals.append(_invert(F, t, dps, degree))
        if _agree(*vals):
            return complex(vals[1])
    raise ReferenceError(f"talbot node counts disagree: {vals[0]} vs {vals[1]}")


def _guarded(series, *args):
    """Run series(*args, dps) at both precisions; on disagreement raise both
    by the digits the summation cancels, log10(largest |term| / |sum|)."""
    lost = 0
    for _ in range(4):
        (lo, _), (hi, peak) = (series(*args, dps + lost) for dps in EVAL_DPS)
        if _agree(lo, hi):
            return complex(hi)
        lost = max(lost + 10, math.ceil(math.log10(peak / abs(hi))) + 5) if hi else lost + 10
    raise ReferenceError(f"series precisions disagree: {lo} vs {hi}")


def _series_trivariate(params, args, dps):
    with mp.workdps(dps):
        a, b, g, d, e = (mp.mpf(x) for x in params)
        u, v, w = (mp.mpc(z) for z in args)
        eps = mp.mpf(10) ** (-dps - 2)
        pu, pv, pw, inv_fact = [mp.mpc(1)], [mp.mpc(1)], [mp.mpc(1)], [mp.mpf(1)]
        uv = {}  # u^l v^p / (l! p!), reused by later shells
        total = mp.mpc(0)
        peak = mp.mpf(0)
        rising = mp.mpf(1)
        q = quiet = 0
        while quiet < 3 or q < 5:
            if q:
                pu.append(pu[-1] * u)
                pv.append(pv[-1] * v)
                pw.append(pw[-1] * w)
                inv_fact.append(inv_fact[-1] / q)
                rising *= e + q - 1
            shell = mp.mpc(0)
            for l in range(q + 1):
                for p in range(q + 1 - l):
                    k = q - l - p
                    key = (l, p)
                    if key not in uv:
                        uv[key] = pu[l] * pv[p] * (inv_fact[l] * inv_fact[p])
                    shell += uv[key] * (pw[k] * (inv_fact[k] * mp.rgamma(l * a + p * b + k * g + d)))
            shell *= rising
            total += shell
            peak = max(peak, abs(shell))
            q += 1
            quiet = quiet + 1 if abs(shell) <= eps * max(1, abs(total)) else 0
            if q > 2000:
                raise ReferenceError("trivariate series did not settle in 2000 shells")
        return total, peak


def series_trivariate(params, args) -> complex:
    """E(u, v, w) by brute-force summation of the triple series."""
    return _guarded(_series_trivariate, params, args)


def _series_prabhakar(alpha, delta, eta, s, dps):
    with mp.workdps(dps):
        a, d, e, s = mp.mpf(alpha), mp.mpf(delta), mp.mpf(eta), mp.mpc(s)
        eps = mp.mpf(10) ** (-dps - 2)
        total = mp.mpc(0)
        peak = mp.mpf(0)
        coef = mp.mpc(1)  # (eta)_k s^k / k!
        k = quiet = 0
        while quiet < 3 or k < 5:
            term = coef * mp.rgamma(k * a + d)
            total += term
            peak = max(peak, abs(term))
            k += 1
            coef = coef * (e + k - 1) * s / k
            quiet = quiet + 1 if abs(term) <= eps * max(1, abs(total)) else 0
            if k > 100000:
                raise ReferenceError("three-parameter series did not settle")
        return total, peak


def series_prabhakar(alpha, delta, eta, s) -> complex:
    """sum_k (eta)_k s^k / (Gamma(k alpha + delta) k!) by brute force."""
    return _guarded(_series_prabhakar, alpha, delta, eta, s)


def _commensurate_u(orders10, lams, deltas, rs, dps):
    """{delta: [U_delta(r) for r in rs]} at one working precision."""
    a, b, g = orders10
    slots = (a, a - g, a - b)  # exponents of x = s^(-1/10) for l1, l2, l3
    with mp.workdps(dps):
        lam = [mp.mpf(x) for x in lams]
        ds = [mp.mpf(d) for d in deltas]
        xs = [mp.mpf(r) ** mp.mpf("0.1") for r in rs]
        xmax = max(xs)
        eps = mp.mpf(10) ** (-dps - 5)
        c = [mp.mpf(1)]
        coefs = {d: [mp.rgamma(d)] for d in ds}
        n = quiet = 0
        while quiet <= max(slots) or n < 10 * max(ds):
            n += 1
            c.append(sum(lam[i] * c[n - s] for i, s in enumerate(slots) if n >= s))
            size = 0
            for d in ds:
                coefs[d].append(c[n] * mp.rgamma(mp.mpf(n) / 10 + d))
                size = max(size, abs(coefs[d][-1]) * xmax**n)
            quiet = quiet + 1 if size < eps else 0
            if n > 100000:
                raise ReferenceError("commensurate series did not settle")
        bits = int(dps * 3.33) + 16
        big_x = [int(mp.nint(mp.ldexp(x, bits))) for x in xs]
        out = {}
        for d in ds:
            big_c = [int(mp.nint(mp.ldexp(c_n, bits))) for c_n in reversed(coefs[d])]
            row = []
            for r, x in zip(rs, big_x):
                if r == 0:
                    # d > 1 for every solver kernel used here
                    row.append(mp.mpf(0))
                else:
                    row.append(mp.ldexp(_horner_fixed(big_c, x, bits), -bits) * mp.mpf(r) ** (d - 1))
            out[float(d)] = row
        return out


def _horner_fixed(big_c, big_x, bits) -> int:
    """Horner's rule in binary fixed point: coefficients (highest power first)
    and x are integers scaled by 2**bits.  With 0 <= x <= 1 each step adds at
    most one unit of 2**-bits, so n steps stay within n units; mp.polyval
    takes about 25 times longer on the 257-point grids."""
    acc = 0
    for c in big_c:
        acc = ((acc * big_x) >> bits) + c
    return acc


def ivp_solution(orders10, lams, y0, rs) -> list[float]:
    """Exact solution of D^a y - l3 D^b y - l2 D^g y - l1 y = 0, y(0) = y0.

    Orders are integers in tenths; y = y0 + l1 y0 U_(a+1).
    """
    delta = mp.mpf(orders10[0]) / 10 + 1
    sols = []
    for dps in SOLVE_DPS:
        with mp.workdps(dps):
            (u,) = _commensurate_u(orders10, lams, [delta], rs, dps).values()
            l1, y0m = mp.mpf(lams[0]), mp.mpf(y0)
            sols.append([y0m + l1 * y0m * x for x in u])
    for lo, hi in zip(*sols):
        if abs(lo - hi) > mp.mpf(10) ** -25 * max(1, abs(hi)):
            raise ReferenceError(f"solution precisions disagree: {lo} vs {hi}")
    return [float(y) for y in sols[1]]
