"""Triple-index Mittag-Leffler series engine and its reductions.

The central object is the function

    E(u, v, w) = sum_{l,p,k >= 0} (eta)_{l+p+k} u^l v^p w^k
                 / (Gamma(l*alpha + p*beta + k*gamma + delta) l! p! k!)

evaluated by summing simplex shells l+p+k = q in increasing q.  Shells are the
natural truncation unit because the rising-factorial numerator grows with the
total degree.  Term magnitudes are assembled in log space and exponentiated
once per term; signs (and phases, for complex arguments) ride separately.
The argument-free part of each shell is built once per parameter set, a
block of shells per kernel call from a shared parameter-free index block, and
kept in a small table (:func:`_walk`); a call adds only n log|z| per slot, in
one pass over each block it has just built.

The Prabhakar and one-over-one Wright series keep their own term formulas, so
the engines cross-check each other, but all three share one stopping rule
(:func:`_sum_until_quiet`): a budget hit returns ``converged=False``, and a
shell or partial sum outside the double range raises SeriesOverflowError.

Parameters are restricted to real values; only the series arguments u, v, w
may be complex.  Negative ``eta`` is allowed (the series terminates when eta
is a non-positive integer) and so is ``delta <= 0`` (gamma poles contribute
zero termwise through the reciprocal gamma).
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SeriesOverflowError
from .kernels import log_pochhammer, log_pochhammer_table, signed_log_rgamma

__all__ = [
    "MLParams",
    "LambdaTriple",
    "SeriesControl",
    "EvalResult",
    "eval_trivariate",
    "eval_univariate",
    "eval_univariate_grid",
    "eval_prabhakar",
    "eval_fox_wright_1psi1",
]

_EXP_MAX = 709.0


@dataclass(frozen=True)
class MLParams:
    """The five real parameters (alpha, beta, gamma, delta, eta) of the function."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    eta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be strictly positive, got {getattr(self, name)}")
        for name in ("delta", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    def shifted(self, dd: float) -> "MLParams":
        """Copy with delta shifted by dd (the workhorse of the calculus rules)."""
        return MLParams(self.alpha, self.beta, self.gamma, self.delta + dd, self.eta)


@dataclass(frozen=True)
class LambdaTriple:
    """Coefficients multiplying the three power arguments of the univariate form."""

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for shell-ordered summation."""

    rel_tol: float = 1e-12
    max_shell: int = 400

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        object.__setattr__(self, "max_shell", _count("max_shell", self.max_shell))
        if self.max_shell < 1:
            raise DomainError("max_shell must be >= 1")


def _count(name: str, value) -> int:
    """``value`` as an int through ``operator.index``; DomainError for a non-integer or a bool."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise DomainError(f"{name} must be an integer, got {value!r}")


@dataclass
class EvalResult:
    """An evaluated value with an a-posteriori error estimate.

    ``value`` is a float for real inputs and complex otherwise.  When
    ``converged`` is False the value is the partial sum reached at
    ``shells_used`` shells and the estimate is not trustworthy.
    """

    value: complex
    abs_error_estimate: float
    shells_used: int
    converged: bool


# module-level caches: replaced atomically, contents immutable once stored,
# so concurrent readers at worst recompute a table (benign under the GIL)
_logfact_table = gammaln(np.arange(128) + 1.0)


def _logfact(n: int) -> np.ndarray:
    """Table of log(q!) for q = 0..n, grown on demand."""
    global _logfact_table
    if n >= _logfact_table.size:
        _logfact_table = gammaln(np.arange(2 * n + 2) + 1.0)
    return _logfact_table


# Shells q < _TABLE_MAX_Q are cached, both their index blocks and, per
# parameter set, their argument-free parts (up to 3.7 MB per table); later
# shells are rebuilt per call.
_TABLE_MAX_Q = 96


def _arg_parts(z):
    """(is_zero, log|z|, phase, sign_for_real) of a scalar series argument."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"series argument must be finite, got {z}")
    if isinstance(z, complex) and z.imag != 0.0:
        mag = abs(z)
        if mag == 0.0:
            return True, -math.inf, 0.0, 1.0
        return False, math.log(mag), math.atan2(z.imag, z.real), 1.0
    x = float(z.real) if isinstance(z, complex) else float(z)
    if x == 0.0:
        return True, -math.inf, 0.0, 1.0
    return False, math.log(abs(x)), 0.0, (1.0 if x > 0.0 else -1.0)


# Argument-free shell tables, one per (params, slot pattern), at most
# _SHELL_TABLES of them, least recently used evicted first.  A table maps the
# first shell of each stored block to the block; blocks start at multiples of
# _SHELL_BLOCK, so the stored range q < _TABLE_MAX_Q is whole blocks.  A key
# seen for the first time stores nothing, and its blocks are stored from the
# second call on, so parameters used once retain nothing.  Threads missing the
# same block may both build it; the first one stored is kept.
_SHELL_TABLES = 4
_SHELL_BLOCK = 8


@functools.lru_cache(maxsize=_SHELL_TABLES)
def _table(params: MLParams, pattern: tuple) -> dict:
    return {}


def _walk(params: MLParams, slots, qmax: int):
    """Argument-free parts (l, p, k, garg, logmag, sign) of shells q = 0..qmax, a block at a time.

    ``slots`` holds one :func:`_arg_parts` tuple per index direction (l, p, k);
    only its pattern (is_zero, is negative) enters.  A zero slot prunes every
    index that would raise it to a positive power, and a shell that pruning
    empties comes out as None.  ``logmag`` is log|(eta)_q / (Gamma(garg)
    l! p! k!)| and ``sign`` includes (-1)^n for every negative slot; callers
    add n log|z| per slot.  Stops early once (eta)_q vanishes, at q = 1 - eta
    for a non-positive integer eta, since every later shell is then
    identically zero.

    Yields one (arrays, shells) pair per block, both ending at the last shell
    the walk may read.  A block built by this walk is to be evaluated whole:
    ``arrays`` holds its six arrays and ``shells`` each shell's slice of them
    (or None).  A block read from the table is evaluated shell by shell:
    ``arrays`` is None and ``shells`` lists the shells' parts (or None).
    Blocks missing from the table for (params, pattern) are built by
    :func:`_shell_block`, so up to ``_SHELL_BLOCK - 1`` shells past the last
    one read.
    """
    pattern = tuple((slot[0], slot[3] < 0.0) for slot in slots)
    table = _table(params, pattern)
    store = "seen" in table
    table["seen"] = True
    qend = qmax + 1
    if params.eta <= 0.0 and params.eta == math.floor(params.eta):
        qend = min(qend, 1 - int(params.eta))
    poch = None
    for q0 in range(0, qend, _SHELL_BLOCK):
        n = qend - q0
        shells = table.get(q0)
        if shells is not None:
            # Stored blocks stay shell by shell for now (ROADMAP item 1).
            # Evaluated whole they made solve-homogeneous 1.9x faster, but
            # perfbench checks every completed op with mpmath after its run,
            # so a 30 s run took 98 s of wall time instead of 60 s, and its
            # rss_mb rose 5 %.
            yield None, shells[:n]
            continue
        if poch is None:
            poch = log_pochhammer_table(params.eta, qmax + _SHELL_BLOCK)
        arrays, parts = _shell_block(params, pattern, poch, q0)
        if store and q0 < _TABLE_MAX_Q:
            table.setdefault(q0, _views(arrays, parts))
        parts = parts[:n]
        end = max((part.stop for part in parts if part is not None), default=0)
        yield tuple(a[:end] for a in arrays), parts


_PARITY = np.array([1.0, -1.0])  # (-1)^n, indexed by n & 1


def _shell_block(params: MLParams, pattern, poch, q0: int) -> tuple:
    """Shells q0..q0+_SHELL_BLOCK-1 of :func:`_walk`, built in one pass.

    The parameter-free part of the block comes from :func:`_index_block`, so
    one ``signed_log_rgamma`` call and one elementwise pass cover every term.
    Returns the block's arrays (l, p, k, garg, logmag, sign) and each shell's
    slice of them, or None for a shell that pruning empties.
    """
    zero_dirs = tuple(d for d, (is_zero, _) in enumerate(pattern) if is_zero)
    l, p, k, lf_l, lf_p, lf_k, sizes, parts = _index_block(q0, zero_dirs, _SHELL_BLOCK)
    poch_signs, poch_logs = poch
    q1 = q0 + _SHELL_BLOCK
    garg = l * params.alpha + p * params.beta + k * params.gamma + params.delta
    rg_sign, rg_log = signed_log_rgamma(garg)
    logmag = np.repeat(poch_logs[q0:q1], sizes) + rg_log - lf_l - lf_p - lf_k
    sign = np.repeat(poch_signs[q0:q1], sizes) * rg_sign
    for n, (_, negative) in zip((l, p, k), pattern):
        if negative:
            sign = sign * _PARITY[n & 1]
    return (l, p, k, garg, logmag, sign), parts


def _views(arrays, parts) -> list:
    """Each shell's parts as views of the block's ``arrays``, or None."""
    return [None if part is None else tuple(a[part] for a in arrays) for part in parts]


# Parameter-free index blocks of shells q0 < _TABLE_MAX_Q, keyed by (q0,
# zero-slot directions, block size): about 48 B per term, 8 MB at most.
_index_blocks: dict[tuple, tuple] = {}


def _index_block(q0: int, zero_dirs: tuple, size: int) -> tuple:
    """(l, p, k, log l!, log p!, log k!, sizes, parts) of shells q0..q0+size-1.

    The indices of each shell l + p + k = q run over l, then p, with every
    index in a direction of ``zero_dirs`` pruned to 0.  ``sizes`` lists the
    terms per shell and ``parts`` each shell's slice of the arrays, or None
    for a shell that pruning empties.  Blocks below _TABLE_MAX_Q are kept.
    """
    key = (q0, zero_dirs, size)
    if key in _index_blocks:
        return _index_blocks[key]
    qs = np.arange(q0, q0 + size)
    # one row per (q, l), holding the q - l + 1 values of p
    row_q = np.repeat(qs, qs + 1)
    row_l = np.arange(row_q.size) - np.repeat(np.cumsum(qs + 1) - (qs + 1), qs + 1)
    counts = row_q - row_l + 1
    l = np.repeat(row_l, counts)
    p = np.arange(l.size) - np.repeat(np.cumsum(counts) - counts, counts)
    k = np.repeat(row_q, counts) - l - p
    if zero_dirs:
        keep = np.logical_and.reduce([(l, p, k)[d] == 0 for d in zero_dirs])
        l, p, k = l[keep], p[keep], k[keep]
    sizes = np.bincount(l + p + k - q0, minlength=size)
    ends = np.cumsum(sizes).tolist()
    parts = [slice(end - n, end) if n else None for end, n in zip(ends, sizes.tolist())]
    logfact = _logfact(q0 + size)
    block = (l, p, k, logfact[l], logfact[p], logfact[k], sizes, parts)
    if q0 < _TABLE_MAX_Q:
        for a in block[:7]:  # shared by every caller, and so are the shells' views
            a.flags.writeable = False
        block = _index_blocks.setdefault(key, block)
    return block


def _shell_terms(parts, slots, complex_in: bool) -> np.ndarray:
    """The terms of one shell or block of :func:`_walk` at the arguments of ``slots``.

    Adds n log|z| to the argument-free logmag for each nonzero slot,
    exponentiates once, and adds the phases for complex arguments.
    """
    l, p, k, _, logmag, sign = parts
    for n, (is_zero, log_z, _, _) in zip((l, p, k), slots):
        if not is_zero:
            logmag = logmag + n * log_z
    if complex_in:
        logmag = logmag + 1j * (l * slots[0][2] + p * slots[1][2] + k * slots[2][2])
    return sign * np.exp(logmag)


# Successive quiet shells needed before the tail estimate is trusted.
_QUIET_SHELLS = 3


def _sum_until_quiet(shells, ctrl: SeriesControl, zero) -> EvalResult:
    """Sum the shells of a series under the shared stopping rule.

    ``shells`` yields shell sums and ends early only for a terminating series.
    Convergence needs ``_QUIET_SHELLS`` successive shells of
    magnitude at most ``rel_tol * max(|partial|, 1)`` and a geometric tail
    estimate under the same bound.  A shell or partial sum outside the double
    range raises :class:`SeriesOverflowError`; the budget ``max_shell``
    returns ``converged=False``.
    """
    partial = zero
    quiet = 0
    last_mag = 0.0  # magnitude of the most recent shell, zero or not
    last_mags: list[float] = []  # magnitudes of the last two nonzero shells
    # numpy shells turn an overflowing partial sum into inf, checked below
    with np.errstate(over="ignore"):
        for q in range(ctrl.max_shell + 1):
            shell = next(shells, None)
            if shell is None:
                return EvalResult(partial, 0.0, q + 1, True)
            partial = partial + shell
            if not (math.isfinite(abs(shell)) and math.isfinite(abs(partial))):
                raise SeriesOverflowError(f"shell {q} magnitude exceeds the double range")
            mag = last_mag = abs(shell)
            if mag > 0.0:
                last_mags = (last_mags + [mag])[-2:]

            if mag <= ctrl.rel_tol * max(abs(partial), 1.0):
                quiet += 1
                if quiet >= _QUIET_SHELLS:
                    est = _tail_estimate(last_mag, last_mags)
                    if est <= ctrl.rel_tol * max(abs(partial), 1.0):
                        return EvalResult(partial, est, q + 1, True)
                    # shells are quiet but their decay ratio is still near one;
                    # keep summing until the geometric estimate also clears
                    quiet -= 1
            else:
                quiet = 0
    return EvalResult(partial, _tail_estimate(last_mag, last_mags), ctrl.max_shell + 1, False)


def _tail_estimate(last_mag: float, last_mags: list[float]) -> float:
    """|last shell| / (1 - decay ratio of the last two nonzero shells)."""
    if len(last_mags) == 2 and last_mags[0] > 0.0:
        ratio = last_mags[1] / last_mags[0]
        if ratio < 1.0:
            return last_mag / (1.0 - ratio)
    return last_mag


def eval_trivariate(params: MLParams, u, v, w, ctrl: SeriesControl | None = None) -> EvalResult:
    """Evaluate the triple series at complex arguments (u, v, w).

    Sums simplex shells q = l+p+k under :func:`_sum_until_quiet`; the error
    estimate is geometric: |last shell| / (1 - ratio of the last two nonzero
    shell magnitudes) when that ratio is below one, else |last shell|.  Raises
    :class:`SeriesOverflowError` when a shell or the partial sum leaves the
    double range, and :class:`DomainError` for a non-finite argument; a hit
    of ``max_shell`` returns ``converged=False``.
    """
    return _sum_trivariate(params, (u, v, w), ctrl or SeriesControl())


def _sum_trivariate(params: MLParams, args, ctrl: SeriesControl, kept: list | None = None) -> EvalResult:
    """:func:`eval_trivariate` at ``args`` = (u, v, w).

    When ``kept`` is a list, each shell summed is appended to it as (parts,
    terms): a tuple whose first three entries are the shell's l, p and k, and
    its term array; or (None, None) for a shell that pruning emptied.
    """
    complex_in = any(isinstance(z, complex) and z.imag != 0.0 for z in args)
    slots = tuple(_arg_parts(z) for z in args)

    def shells():
        for arrays, block in _walk(params, slots, ctrl.max_shell):
            if arrays is None:
                for parts in block:
                    # an overflowing term gives an inf or nan shell, which the sum rejects
                    with np.errstate(over="ignore", invalid="ignore"):
                        terms = None if parts is None else _shell_terms(parts, slots, complex_in)
                        shell = 0.0 if terms is None else terms.sum()
                    if kept is not None:
                        kept.append((parts, terms))
                    yield shell
                continue
            # one pass over the block's terms; each shell sum is still a
            # pairwise .sum() over that shell alone, so its bits are unchanged
            with np.errstate(over="ignore", invalid="ignore"):
                terms = _shell_terms(arrays, slots, complex_in)
                sums = [0.0 if part is None else terms[part].sum() for part in block]
            for part, shell in zip(block, sums):
                if kept is not None:
                    kept.append((None, None) if part is None else (tuple(a[part] for a in arrays[:3]), terms[part]))
                yield shell

    try:
        return _sum_until_quiet(shells(), ctrl, 0.0 + 0.0j if complex_in else 0.0)
    except SeriesOverflowError as exc:
        mags = ",".join(f"{abs(z):.3g}" for z in args)
        raise SeriesOverflowError(f"{exc} (params={params}, |u|,|v|,|w|={mags})") from None


def _value_at_zero(params: MLParams) -> float:
    """Limit of the univariate form at r = 0: 0 for delta > 1, 1/Gamma(1) = 1 for delta = 1."""
    if params.delta > 1.0:
        return 0.0
    if params.delta == 1.0:
        return 1.0
    raise DomainError("r = 0 requires delta >= 1")


def _univariate_args(params: MLParams, lam: LambdaTriple, r: float):
    """Arguments (l1 r^alpha, l2 r^beta, l3 r^gamma) of E and prefactor r^(delta-1) at r > 0.

    Raises :class:`DomainError` for a non-finite r and
    :class:`SeriesOverflowError` when an argument or the prefactor leaves the
    double range.
    """
    r = float(r)  # a numpy scalar's ** warns on overflow instead of raising
    if not math.isfinite(r):
        raise DomainError(f"univariate form requires a finite r, got {r}")
    with contextlib.suppress(OverflowError):  # from float ** float
        args = (lam.lambda1 * r**params.alpha, lam.lambda2 * r**params.beta, lam.lambda3 * r**params.gamma)
        scale = r ** (params.delta - 1.0)
        if math.isfinite(scale) and all(map(math.isfinite, args)):
            return args, scale
    raise SeriesOverflowError(f"univariate arguments at r={r} overflow (params={params}, lam={lam})")


def eval_univariate(
    params: MLParams, lam: LambdaTriple, r: float, ctrl: SeriesControl | None = None
) -> EvalResult:
    """The time-domain form r^(delta-1) E(l1 r^alpha, l2 r^beta, l3 r^gamma).

    Requires a finite r > 0, or r = 0 with delta >= 1 (where the limit is 0
    for delta > 1 and 1/Gamma(1) = 1 for delta = 1).
    """
    if r < 0.0:
        raise DomainError(f"univariate form requires r >= 0, got {r}")
    if r == 0.0:
        return EvalResult(_value_at_zero(params), 0.0, 0, True)
    args, scale = _univariate_args(params, lam, r)
    res = eval_trivariate(params, *args, ctrl)
    return EvalResult(res.value * scale, res.abs_error_estimate * scale, res.shells_used, res.converged)


# Index values of the loop direction per stacked matrix product: few enough
# Python iterations for small grids, while the part of a block past the
# simplex, computed as zeros, stays small for large ones.
_GRID_BLOCK = 8


def eval_univariate_grid(
    params: MLParams,
    lam: LambdaTriple,
    rs: np.ndarray,
    ctrl: SeriesControl | None = None,
) -> tuple[np.ndarray, EvalResult]:
    """Vectorized univariate form over a batch of finite nonnegative abscissae.

    The shells are summed once, at rmax = max(rs) (where the truncation tail
    is largest), under the stopping rule of :func:`eval_univariate`, and each
    term summed there is kept.  Each term is then scaled from its value at
    rmax: with x = r / rmax and c_lpk the term of E at rmax,

        value(r) = r^(delta-1) sum_{l,p,k} c_lpk x^(l alpha) x^(p beta) x^(k gamma).

    The powers come from one table per index direction, x^(n alpha) for n up
    to the largest l and so on; every entry is at most 1, so none overflows.
    The sum loops over the direction with the fewest index values (a single
    pass when a lambda is zero) and, for each value, contracts the other two
    with one small matrix product and a row-wise dot, _GRID_BLOCK values per
    stacked product.  That is (sum of the three index extents) exps per point
    instead of one per term.  Returns the values plus the result at rmax,
    which is ``eval_univariate(params, lam, rmax, ctrl)``.
    """
    ctrl = ctrl or SeriesControl()
    rs = np.asarray(rs, dtype=float)
    if np.any(rs < 0.0):
        raise DomainError("univariate form requires r >= 0")
    out = np.empty(rs.shape, dtype=float)
    zero = rs == 0.0
    if zero.any():
        out[zero] = _value_at_zero(params)
    live = ~zero
    if not live.any():
        return out, EvalResult(out[0] if out.size else 0.0, 0.0, 0, True)

    rmax = float(rs[live].max())  # NaN if any abscissa is
    args, scale = _univariate_args(params, lam, rmax)
    kept: list = []
    res = _sum_trivariate(params, args, ctrl, kept)
    probe = EvalResult(res.value * scale, res.abs_error_estimate * scale, res.shells_used, res.converged)

    # the terms summed at rmax are the coefficients c_lpk, on index arrays idx
    *idx, coeffs = (np.concatenate(c) for c in zip(*[(*s[:3], t) for s, t in kept if s is not None]))
    # an index direction runs over every shell unless its argument is zero
    extents = [1 if z == 0.0 else len(kept) for z in args]
    indices = (params.alpha, params.beta, params.gamma)
    r = rs[live]
    logx = np.log(r / rmax)
    powers = [np.exp(np.outer(np.arange(n) * e, logx)) for n, e in zip(extents, indices)]

    # loop over direction d; j, the longer of the other two, goes through BLAS
    d = extents.index(min(extents))
    i, j = sorted((n for n in range(3) if n != d), key=extents.__getitem__)
    flat = (idx[d] * extents[i] + idx[i]) * extents[j] + idx[j]
    dense = np.bincount(flat, coeffs, extents[d] * extents[i] * extents[j])
    dense = dense.reshape(extents[d], extents[i], extents[j])
    parts = np.empty((extents[d], r.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(0, extents[d], _GRID_BLOCK):
            # a term with d-index >= m has i- and j-indices <= len(kept) - 1 - m
            a, b = (min(extents[n], len(kept) - m) for n in (i, j))
            prod = dense[m : m + _GRID_BLOCK, :a, :b] @ powers[j][:b]
            np.einsum("mij,ij->mj", prod, powers[i][:a], out=parts[m : m + _GRID_BLOCK])
        vals = np.einsum("mj,mj->j", parts, powers[d]) * r ** (params.delta - 1.0)
    if not np.all(np.isfinite(vals)):
        raise SeriesOverflowError("univariate grid evaluation exceeds the double range")
    out[live] = vals
    return out, probe


_TERM_BLOCK = 16


def _rgamma_terms(first: float, step: float, n: int):
    """(sign, log|1/Gamma(first + step k)|) as floats for k = 0..n-1.

    Computed _TERM_BLOCK terms per ``signed_log_rgamma`` call, lazily, so a
    single-index series that stops early computes at most one block more.
    """
    for k0 in range(0, n, _TERM_BLOCK):
        signs, logs = signed_log_rgamma(first + step * np.arange(k0, min(k0 + _TERM_BLOCK, n)))
        yield from zip(signs.tolist(), logs.tolist())


def eval_prabhakar(
    alpha: float, delta: float, eta: float, s, ctrl: SeriesControl | None = None
) -> EvalResult:
    """Three-parameter Mittag-Leffler function sum_k (eta)_k s^k / (Gamma(k alpha + delta) k!).

    Deliberately an independent single-series loop (not a reduction of the
    trivariate engine) so the two paths can cross-check each other.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    ctrl = ctrl or SeriesControl()
    complex_in = isinstance(s, complex) and s.imag != 0.0
    zs, log_s, ph_s, sg_s = _arg_parts(s)

    def terms():
        for k, (rg_sign, rg_log) in enumerate(_rgamma_terms(delta, alpha, ctrl.max_shell + 1)):
            p_sign, p_log = log_pochhammer(eta, k)
            if p_sign == 0.0 or (zs and k > 0):
                return
            logmag = p_log + rg_log - math.lgamma(k + 1.0)
            if not zs:
                logmag += k * log_s
            if logmag > _EXP_MAX:
                raise SeriesOverflowError(f"term {k} exceeds the double range")
            sign = p_sign * rg_sign * (sg_s if (k % 2 and sg_s < 0) else 1.0)
            if complex_in:
                yield sign * math.exp(logmag) * complex(math.cos(k * ph_s), math.sin(k * ph_s))
            else:
                yield sign * math.exp(logmag)

    return _sum_until_quiet(terms(), ctrl, 0.0 + 0.0j if complex_in else 0.0)


def eval_fox_wright_1psi1(
    lam_num: tuple[float, float],
    mu_den: tuple[float, float],
    s,
    ctrl: SeriesControl | None = None,
) -> EvalResult:
    """The one-over-one Wright series sum_k Gamma(l0 + a0 k) s^k / (Gamma(m0 + b0 k) k!).

    Requires the convergence condition b0 - a0 > -1.  The one-row case of
    :func:`_wright_sum`.
    """
    m0, b0 = mu_den
    return _wright_sum(lam_num, b0, [m0], [1.0], s, ctrl or SeriesControl())


def _wright_sum(lam_num, b0: float, m0s, weights, s, ctrl: SeriesControl) -> EvalResult:
    """Weighted 1Psi1 rows summed termwise in k:

        sum_k sum_j w_j Gamma(l0 + a0 k) s^k / (Gamma(m0_j + b0 k) k!).

    Each _TERM_BLOCK of k takes one reciprocal-gamma call for the numerators
    and one for the (block x rows) denominators.  The rows of a term are
    reduced along a contiguous axis, so a term's value does not depend on the
    block size.  Term k raises :class:`DomainError` at a numerator pole and
    :class:`SeriesOverflowError` when any row's |term| leaves the double
    range, each only when the sum reaches term k.  A zero s keeps only the
    first term.
    """
    l0, a0 = lam_num
    if not b0 - a0 > -1.0:
        raise DomainError(f"needs b - a > -1 for convergence, got {b0 - a0}")
    complex_in = isinstance(s, complex) and s.imag != 0.0
    zs, log_s, ph_s, sg_s = _arg_parts(s)
    m0s = np.asarray(m0s, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = 1 if zs else ctrl.max_shell + 1

    def terms():
        for k0 in range(0, n, _TERM_BLOCK):
            ks = np.arange(k0, min(k0 + _TERM_BLOCK, n))
            n_sign, n_rlog = signed_log_rgamma(l0 + a0 * ks)
            rg_sign, rg_log = signed_log_rgamma(m0s + b0 * ks[:, None])
            head = -n_rlog - _logfact(ks[-1])[ks]
            if not zs:
                head = head + ks * log_s
            if sg_s < 0.0:
                n_sign = np.where(ks % 2 == 1, -n_sign, n_sign)
            # a pole or overflowing row gives inf or nan terms, raised on below
            with np.errstate(over="ignore", invalid="ignore"):
                logmag = head[:, None] + rg_log
                vals = (weights * rg_sign * np.exp(logmag)).sum(axis=1) * n_sign
                if complex_in:
                    vals = vals * (np.cos(ks * ph_s) + 1j * np.sin(ks * ph_s))
            over = (logmag > _EXP_MAX).any(axis=1)
            for k, val, pole, big in zip(ks.tolist(), vals.tolist(), (n_sign == 0.0).tolist(), over.tolist()):
                if pole:
                    raise DomainError(f"numerator gamma pole at term {k} (argument {l0 + a0 * k})")
                if big:
                    raise SeriesOverflowError(f"term {k} exceeds the double range")
                yield val

    return _sum_until_quiet(terms(), ctrl, 0.0 + 0.0j if complex_in else 0.0)
