"""Triple-index Mittag-Leffler series engine and its reductions.

The central object is the function

    E(u, v, w) = sum_{l,p,k >= 0} (eta)_{l+p+k} u^l v^p w^k
                 / (Gamma(l*alpha + p*beta + k*gamma + delta) l! p! k!)

evaluated by summing simplex shells l+p+k = q in increasing q.  Shells are the
natural truncation unit because the rising-factorial numerator grows with the
total degree.  Term magnitudes are assembled in log space and exponentiated
once per term with a real exp; signs, when any term can be negative, ride
separately, and so do the phases of complex arguments, gathered from tables
built once per call.  The argument-free part of each shell is built once per
parameter set, a unit of shells per kernel call from a shared
parameter-free index block, and kept in a small table (:func:`_walk`); a call
adds only n log|z| per live direction.  An index block holds the indices of
its live directions (the nonzero arguments) as one (directions x terms)
matrix, so the gamma arguments and the n log|z| sums of a unit are each one
contraction with it, numpy's own einsum loop; a BLAS product would round a
term by its position in the array (:func:`_shell_terms`).  A fresh unit
takes the fewest shells whose terms, counted under the call's pruning
pattern, reach _UNIT_TERMS, so its fixed cost is spread over about as many
terms early in a walk as late.  The walk yields units of one format, a unit
it has just built or a single stored shell; each unit is evaluated in one
pass and its shells summed by one reduceat, and no step reads a term's
position in its unit, so every bit is the same whichever unit carries it.

The Prabhakar and one-over-one Wright series keep their own term formulas, so
the engines cross-check each other, but all three share one stopping rule
(:func:`_sum_until_quiet`): a budget hit returns ``converged=False``, unless
the series ends within it, and a shell or partial sum outside the double
range raises SeriesOverflowError.
The rule also holds the one numpy error scope of the summation, so the terms
it draws may overflow to inf or nan without a warning before it rejects them.

Parameters are restricted to real values; only the series arguments u, v, w
may be complex.  Negative ``eta`` is allowed (the series terminates when eta
is a non-positive integer) and so is ``delta <= 0`` (gamma poles contribute
zero termwise through the reciprocal gamma).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SeriesOverflowError
from .kernels import log_pochhammer, log_pochhammer_table, signed_log_rgamma

try:  # np.einsum's own loop, without its Python wrapper (about 1.4 us a call)
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    _einsum = np.einsum

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
        object.__setattr__(self, "max_shell", _count("max_shell", self.max_shell, 1))


def _count(name: str, value, least: int) -> int:
    """``value`` as an int through ``operator.index``.

    DomainError for a non-integer, a bool or a value below ``least``.
    """
    n = None
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            n = operator.index(value)
    if n is None or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


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


# Shells q < _TABLE_MAX_Q are cached, both their index blocks and, per
# parameter set, their argument-free parts (up to 2.4 MB per table); later
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
# first shell of each stored unit to the unit; units below _TABLE_MAX_Q start
# at the fixed shells of _unit_ends, so the stored range is whole units and a
# key q0 always covers the same shells.  A key seen for the first time stores
# nothing, and its units are stored from the second call on, so parameters
# used once retain nothing.  Threads missing the same unit may both build it;
# the first one stored is kept.
_SHELL_TABLES = 4

# Terms per freshly built unit of the walk: a unit takes the fewest shells
# whose terms, under the walk's pruning pattern, reach it, so each numpy call
# of a unit covers about as many terms early in a walk as late.
_UNIT_TERMS = 1500


@functools.lru_cache(maxsize=_SHELL_TABLES)
def _table(params: MLParams, pattern: tuple) -> dict:
    return {}


def _terms_below(q: int, live: int) -> int:
    """Terms in shells 0..q-1 with ``live`` directions that pruning keeps.

    A shell holds (q + 1)(q + 2) / 2 terms with three, q + 1 with two and 1
    with one; with none, only shell 0 holds a term.
    """
    return math.comb(q + live - 1, live) if live else min(q, 1)


def _unit_end(q0: int, live: int, stop: int) -> int:
    """End of the fresh unit from shell q0: the fewest shells whose terms reach _UNIT_TERMS, at most ``stop``."""
    base = _terms_below(q0, live)
    return q0 + 1 + bisect.bisect_left(range(q0 + 1, stop), _UNIT_TERMS, key=lambda q: _terms_below(q, live) - base)


@functools.cache
def _unit_ends(live: int) -> dict:
    """{first shell: end} of the fresh units below _TABLE_MAX_Q for ``live`` live directions.

    No unit straddles _TABLE_MAX_Q; past it the walk clips each unit at its
    last shell (:func:`_unit_end` with ``stop`` the walk's end).
    """
    ends, q0 = {}, 0
    while q0 < _TABLE_MAX_Q:
        ends[q0] = _unit_end(q0, live, _TABLE_MAX_Q)
        q0 = ends[q0]
    return ends


def _walk(params: MLParams, slots, qmax: int):
    """Argument-free parts (indices, logmag[, sign]) of shells q = 0..qmax, a unit at a time.

    ``slots`` holds one :func:`_arg_parts` tuple per index direction (l, p, k);
    only its pattern (is_zero, is negative) enters.  A zero slot prunes every
    index that would raise it to a positive power, and a shell that pruning
    empties comes out as None.  ``indices`` is the index matrix of
    :func:`_index_block`, one float row per live direction (a nonzero slot);
    ``logmag`` is log|(eta)_q / (Gamma(l alpha + p beta + k gamma + delta)
    l! p! k!)| and ``sign`` includes (-1)^n for every negative slot.
    ``sign`` is left out when every term is positive (eta > 0, delta > 0, so
    that every gamma argument is positive, and no negative slot).  Callers
    add n log|z| per live direction.  Stops early once (eta)_q vanishes
    (:func:`_vanishing_shell`), since every later shell is then identically
    zero.

    Yields units of one format, (arrays, parts): the arrays to be evaluated
    in one pass and each shell's slice of them, or None for a shell that
    pruning empties.  Units missing from the table for (params, pattern) are
    built by :func:`_shell_block`, each from its first shell to its end in
    :func:`_unit_ends` (below _TABLE_MAX_Q, built whole and yielded up to the
    last shell the walk may read) or :func:`_unit_end` (past it, clipped at
    that shell): about _UNIT_TERMS terms each, so a stored key q0 always
    covers the same shells.  A shell read from the table is a unit of its
    own, its stored arrays with the one slice ``slice(0, None)``, so stored
    units are still evaluated shell by shell.  Arrays are cut along their
    last axis, the terms.  The Pochhammer table covers
    the stored range and grows with the walk, rebuilt at twice the
    length a unit needs, so its size follows the shells read, not ``qmax``;
    its cumulative sum keeps the bits of every entry it had.
    """
    pattern = tuple((slot[0], slot[3] < 0.0) for slot in slots)
    table = _table(params, pattern)
    store = "seen" in table
    table["seen"] = True
    qend = min(qmax + 1, _vanishing_shell(params.eta))
    live = [is_zero for is_zero, _ in pattern].count(False)
    ends = _unit_ends(live)
    poch = None
    q0 = 0
    while q0 < qend:
        end = ends[q0] if q0 < _TABLE_MAX_Q else _unit_end(q0, live, qend)
        shells = table.get(q0)
        if shells is not None:
            # Stored units stay shell by shell for now (ROADMAP item 1).
            # Evaluated whole they made solve-homogeneous 1.9x faster, but
            # perfbench checks every completed op with mpmath after its run,
            # so a 30 s run took 98 s of wall time instead of 60 s, and its
            # rss_mb rose 5 %.
            for shell in shells[: qend - q0]:
                yield (_NO_TERMS, (None,)) if shell is None else (shell, (slice(0, None),))
            q0 = end
            continue
        if poch is None or poch[1].size < end:
            poch = log_pochhammer_table(params.eta, max(_TABLE_MAX_Q, 2 * end))
        arrays, parts = _shell_block(params, pattern, poch, q0, end - q0)
        if store and q0 < _TABLE_MAX_Q:  # each shell as views of the unit's arrays, or None
            table.setdefault(q0, [None if part is None else tuple(a[..., part] for a in arrays) for part in parts])
        parts = parts[: qend - q0]
        stop = max((part.stop for part in parts if part is not None), default=0)
        yield tuple(a[..., :stop] for a in arrays), parts
        q0 = end


# The arrays of a stored shell that pruning empties, which only a walk with no
# live direction has: a 0 x 0 index matrix and no logmag.
_NO_TERMS = (np.empty((0, 0)), np.empty(0))


def _vanishing_shell(eta: float) -> float:
    """The first q with (eta)_q = 0: 1 - eta for a non-positive integer eta, else inf.

    The triple and Prabhakar series end there: every later term is zero.
    """
    if eta <= 0.0 and eta == math.floor(eta):
        return 1 - int(eta)
    return math.inf


def _shell_block(params: MLParams, pattern, poch, q0: int, size: int) -> tuple:
    """Shells q0..q0+size-1 of :func:`_walk`, built in one pass.

    The parameter-free part of the unit comes from :func:`_index_block`.
    The gamma arguments are one contraction of the live directions' orders
    with its index matrix (see :func:`_shell_terms` for why an einsum), plus
    delta; then one reciprocal-gamma call and a few in-place passes cover
    every term.  Returns the unit's arrays (indices, logmag[, sign]) and
    each shell's slice of them, or None for a shell that pruning empties.
    """
    zero_dirs = tuple(d for d, (is_zero, _) in enumerate(pattern) if is_zero)
    indices, logfact, sizes, parts = _index_block(q0, zero_dirs, size)
    live = [(order, neg) for order, (is_zero, neg) in zip((params.alpha, params.beta, params.gamma), pattern)
            if not is_zero]
    garg = _einsum("i,ij->j", np.array([order for order, _ in live]), indices)
    garg += params.delta
    sign, logmag = signed_log_rgamma(garg)
    logmag += np.repeat(poch[1][q0 : q0 + size], sizes)  # poch is (signs, logs)
    logmag -= logfact
    if params.eta > 0.0 and params.delta > 0.0 and not any(neg for _, neg in live):
        return (indices, logmag), parts  # (eta)_q > 0 and 1/Gamma > 0 on the positive axis
    sign *= np.repeat(poch[0][q0 : q0 + size], sizes)
    for n, (_, neg) in zip(indices, live):
        if neg:
            sign *= 1.0 - 2.0 * np.fmod(n, 2.0)  # (-1)^n
    return (indices, logmag, sign), parts


# Parameter-free index blocks of shells q0 < _TABLE_MAX_Q, keyed by (q0,
# zero-slot directions, size): one per unit of _unit_ends, 32 B per term,
# 5.3 MB at most over all patterns.
_index_blocks: dict[tuple, tuple] = {}


def _index_block(q0: int, zero_dirs: tuple, size: int) -> tuple:
    """(indices, log l! + log p! + log k!, sizes, parts) of shells q0..q0+size-1.

    The indices of each shell l + p + k = q run over l, then p, with every
    index in a direction of ``zero_dirs`` pruned to 0.  ``indices`` holds
    the live directions (those not in ``zero_dirs``, in the order l, p, k)
    as one C-contiguous (directions x terms) float matrix, the form every
    term formula reads: its rows are the live ones of l, p and k, and a
    pruned direction has no row.  ``sizes`` lists the terms per shell and
    ``parts`` each shell's slice of the terms, or None for a shell that
    pruning empties.  Blocks below _TABLE_MAX_Q are kept.
    """
    key = (q0, zero_dirs, size)
    if key in _index_blocks:
        return _index_blocks[key]
    # the first live direction runs over 0..q, the next over what it leaves,
    # and the last takes the rest; with no live direction only shell 0 has a term
    live = [d for d in range(3) if d not in zero_dirs]
    qs = np.arange(q0, q0 + size)
    rest = qs if live else qs[qs == 0]
    idx = {}
    for d in live[:-1]:
        counts = rest + 1
        n = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = {e: np.repeat(x, counts) for e, x in idx.items()}
        idx[d] = n
        rest = np.repeat(rest, counts) - n
    if live:
        idx[live[-1]] = rest
    l, p, k = (idx.get(d, np.zeros_like(rest)) for d in range(3))
    sizes = np.bincount(l + p + k - q0, minlength=size)
    ends = np.cumsum(sizes).tolist()
    parts = [slice(end - n, end) if n else None for end, n in zip(ends, sizes.tolist())]
    logfact = gammaln(np.arange(q0 + size) + 1.0)
    indices = np.array([idx[d] for d in live], dtype=float).reshape(len(live), rest.size)
    block = (indices, logfact[l] + logfact[p] + logfact[k], sizes, parts)
    if q0 < _TABLE_MAX_Q:
        for a in block[:3]:  # shared by every caller, and so are the shells' views
            a.flags.writeable = False
        block = _index_blocks.setdefault(key, block)
    return block


def _shell_terms(arrays, log_z, phases) -> np.ndarray:
    """The terms of one unit of :func:`_walk` at the arguments of a call.

    ``log_z`` holds log|z| of each live direction, the rows of the unit's
    index matrix.  One contraction of it with that matrix gives the
    argument part of each exponent, l log|u| + p log|v| + k log|w| with the
    zero slots left out; the argument-free logmag is added to it and one
    real exp taken in place.  Then the unit's sign, if it has one, is
    applied, and for complex arguments e^(i n phi) is multiplied in for each
    (row, table) of the call's ``phases`` (empty for a real call), gathered
    by that row's n.

    No step reads a term's position, so a term's bits do not depend on the
    unit that carries it.  That is why the contraction is numpy's own einsum
    loop, which does the same arithmetic on every column: a BLAS product
    (``@``, ``np.dot``, or einsum with ``optimize=True``) treats a vector
    remainder differently from its body, so a term's bits would follow its
    position in the array.
    """
    indices, logmag, *sign = arrays
    terms = _einsum("i,ij->j", log_z, indices)
    terms += logmag
    np.exp(terms, out=terms)
    if sign:
        terms *= sign[0]
    for row, table in phases:
        # a ufunc call, never an operator: numpy may compute ``a * temporary``
        # in place in a large temporary, where a complex product rounds differently
        terms = np.multiply(terms, table[indices[row].astype(np.intp)])
    return terms


# Successive quiet shells needed before the tail estimate is trusted.
_QUIET_SHELLS = 3


def _first_live(first: float, step: float) -> int:
    """The smallest k >= 0 with first + step k > 0 (0 when step <= 0).

    Past it no reciprocal-gamma argument first + step k' (k' >= k) is a pole,
    so no term is zeroed by one.
    """
    if first > 0.0 or step <= 0.0:
        return 0
    return math.floor(-first / step) + 1


def _sum_until_quiet(shells, ctrl: SeriesControl, zero, q_live: int = 0, q_end: float = math.inf) -> EvalResult:
    """Sum the shells of a series under the shared stopping rule.

    ``shells`` yields shell sums and ends early only for a terminating series,
    whose shells from ``q_end`` on are all zero.  A series that ends no
    later than right past the budget (q_end <= max_shell + 1) is summed
    whole: it returns converged with a zero estimate and ``shells_used`` =
    q_end + 1, the vanishing shell counted.
    Convergence needs ``_QUIET_SHELLS`` successive shells of
    magnitude at most ``rel_tol * max(|partial|, 1)`` and a geometric tail
    estimate under the same bound.  Shells before ``q_live`` never count as
    quiet: reciprocal-gamma poles may zero every term of them, so their
    being small says nothing of the tail (see :func:`_first_live`).  A shell
    or partial sum outside the double range raises
    :class:`SeriesOverflowError`; the budget ``max_shell`` returns
    ``converged=False``.  ``shells`` runs with numpy's overflow and invalid
    warnings off: a term that overflows gives an inf or nan shell, which the
    sum rejects.
    """
    partial = zero
    quiet = 0
    last_mag = 0.0  # magnitude of the most recent shell, zero or not
    last_mags: list[float] = []  # magnitudes of the last two nonzero shells
    with np.errstate(over="ignore", invalid="ignore"):
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

            if q >= q_live and mag <= ctrl.rel_tol * max(abs(partial), 1.0):
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
    if q_end <= ctrl.max_shell + 1:  # every nonzero shell is summed
        return EvalResult(partial, 0.0, q_end + 1, True)
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

    When ``kept`` is a list, each shell summed is appended to it as
    (indices, terms): the shell's index matrix, one row per nonzero argument
    in the order u, v, w, and its term array; or (None, None) for a shell
    that pruning emptied.
    """
    complex_in = any(isinstance(z, complex) and z.imag != 0.0 for z in args)
    slots = tuple(_arg_parts(z) for z in args)
    live = [slot for slot in slots if not slot[0]]  # one per row of the index matrices
    log_z = np.array([slot[1] for slot in live])
    q_live = 0
    if params.delta <= 0.0:
        # a Gamma argument of shell q is at least delta + q * (the least order
        # of a direction that pruning keeps); with none, shells past 0 are empty
        orders = [a for a, slot in zip((params.alpha, params.beta, params.gamma), slots) if not slot[0]]
        q_live = _first_live(params.delta, min(orders, default=math.inf))

    def shells():
        phases, size, q = [], 0, 0
        for arrays, parts in _walk(params, slots, ctrl.max_shell):
            q += len(parts)  # the unit's indices are below q
            if complex_in and size < q:
                # e^(i n phi) per row with a phase: built once per call, grown with the walk
                size = max(_TABLE_MAX_Q, 2 * q)
                phases = [(row, np.exp(1j * slot[2] * np.arange(size))) for row, slot in enumerate(live) if slot[2]]
            # one pass over the unit's terms and one reduceat over its nonempty
            # shells, each a segment of its own, so a sum's bits do not depend on
            # the unit; a shell that pruning empties is 0.0 and no segment, since
            # reduceat gives a[i] for an empty segment
            terms = _shell_terms(arrays, log_z, phases)
            sums = iter(np.add.reduceat(terms, [part.start for part in parts if part is not None]).tolist())
            for part in parts:
                if kept is not None:
                    kept.append((None, None) if part is None else (arrays[0][:, part], terms[part]))
                yield 0.0 if part is None else next(sums)

    try:
        return _sum_until_quiet(shells(), ctrl, 0.0 + 0.0j if complex_in else 0.0, q_live,
                                _vanishing_shell(params.eta))
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
    rows, coeffs = (np.concatenate(c, axis=-1) for c in zip(*[shell for shell in kept if shell[0] is not None]))
    rows = iter(rows)  # one per nonzero argument; a zero one's index is 0
    idx = [np.zeros(coeffs.size) if z == 0.0 else next(rows) for z in args]
    # an index direction runs over every shell unless its argument is zero
    extents = [1 if z == 0.0 else len(kept) for z in args]
    indices = (params.alpha, params.beta, params.gamma)
    r = rs[live]
    logx = np.log(r / rmax)
    powers = [np.exp(np.outer(np.arange(n) * e, logx)) for n, e in zip(extents, indices)]

    # loop over direction d; j, the longer of the other two, goes through BLAS
    d = extents.index(min(extents))
    i, j = sorted((n for n in range(3) if n != d), key=extents.__getitem__)
    flat = ((idx[d] * extents[i] + idx[i]) * extents[j] + idx[j]).astype(np.intp)
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

    return _sum_until_quiet(terms(), ctrl, 0.0 + 0.0j if complex_in else 0.0, _first_live(delta, alpha),
                            _vanishing_shell(eta))


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
            head = -n_rlog - gammaln(ks + 1.0)
            if not zs:
                head = head + ks * log_s
            if sg_s < 0.0:
                n_sign = np.where(ks % 2 == 1, -n_sign, n_sign)
            # a pole or overflowing row gives inf or nan terms, raised on below
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

    return _sum_until_quiet(terms(), ctrl, 0.0 + 0.0j if complex_in else 0.0, _first_live(m0s.min(), b0))
