#!/usr/bin/env python3
"""SHA-256 digests of a fixed, seeded record of trivml's results, one per part.

    python3 scripts/record_digest.py [--show PART | --diff A B]

Two source trees that print the same digest for a part give bit-identical
results on every input of that part's record.  Parts:

``series``
    ``eval_trivariate`` called three times on each input (cold, storing the
    shell table, then reading it) over real, negative, zero and complex
    slots, terminating eta, delta <= 0, arguments that walk past the stored
    shells and arguments that overflow; then ``eval_univariate_grid``,
    ``eval_prabhakar`` and ``eval_fox_wright_1psi1``.
``fox-wright``
    ``solve_homogeneous_fox_wright`` on seeded specs at r up to 3.
``solve``
    ``solve`` traces (values, error estimates, flags) of the damped spec on
    257 points over [0, 1] and [0, 6], and a forced solve on 65 points.
``verify``
    ``max_err`` of every check of ``run_checks()``.

Each record entry is the repr of a value (or of the exception raised), so
``--show PART`` prints a part's entries one a line, for a diff of two trees.
``--diff A B`` compares two such dumps of one part, A the base: it prints the
part's largest change over numeric entries, relative to max(|A|, 1), and
every entry whose exception, flag or shell count differs.  BLAS is capped at
one thread before numpy loads.  Run from the root of a source checkout;
trivml is imported from ./src.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from trivml import series  # noqa: E402
from trivml.errors import DomainError, SeriesNotConvergedError, SeriesOverflowError  # noqa: E402
from trivml.series import (  # noqa: E402
    LambdaTriple,
    MLParams,
    SeriesControl,
    eval_fox_wright_1psi1,
    eval_prabhakar,
    eval_trivariate,
    eval_univariate_grid,
)
from trivml.solver import Forcing, IVPSpec, solve, solve_homogeneous_fox_wright  # noqa: E402
from trivml.verify import run_checks  # noqa: E402

DAMPED = IVPSpec(0.9, 0.5, 0.3, -0.7, -0.4, -0.6, 1.5)


def _entry(fn) -> str:
    """repr of fn()'s result, or of the series error it raises."""
    try:
        out = fn()
    except (DomainError, SeriesNotConvergedError, SeriesOverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, series.EvalResult):
        return repr((complex(out.value), out.abs_error_estimate, out.shells_used, out.converged))
    if isinstance(out, tuple):  # eval_univariate_grid: (values, probe)
        return _entry(lambda: out[1]) + " " + out[0].tobytes().hex()
    return repr(out)


def _series_record() -> list[str]:
    rng = np.random.default_rng(20261019)
    ctrl = SeriesControl(rel_tol=1e-13, max_shell=130)
    slots = [
        (0.7, 0.4, 1.1),
        (-0.7, 0.4, -1.1),
        (-0.7, 0.0, 1.1),
        (0.0, 0.0, 0.0),
        (0.0, 0.6, 0.0),
        (0.3 + 0.4j, -0.2, 0.5 - 0.3j),
        (0.5j, 1.0, 1.0),
    ]
    out = []
    for i in range(24):
        alpha, beta, gamma = rng.uniform(0.5, 1.4, 3)
        delta = [rng.uniform(0.5, 2.0), rng.uniform(-2.0, 0.0), -1.0][i % 3]
        eta = [rng.uniform(0.5, 2.0), -3.0, -9.0, rng.uniform(-2.5, -0.5)][i % 4]
        p = MLParams(alpha, beta, gamma, delta, eta)
        for scale in (0.5, 3.0, 12.0, 1e30):
            for args in slots:
                series._table.cache_clear()
                z = tuple(scale * a for a in args)
                for _ in range(3):  # cold, storing, stored
                    out.append(_entry(lambda: eval_trivariate(p, *z, ctrl)))
        lam = LambdaTriple(*rng.uniform(-1.2, 1.2, 3))
        rs = np.linspace(0.0, rng.uniform(0.5, 3.0), 17)
        if delta >= 1.0:
            out.append(_entry(lambda: eval_univariate_grid(p, lam, rs, ctrl)))
        for s in (0.0, 0.8, -2.5, 30.0, 1.5 - 2.0j, 720.0):
            out.append(_entry(lambda: eval_prabhakar(alpha, delta, eta, s, ctrl)))
            out.append(_entry(lambda: eval_fox_wright_1psi1((beta, gamma), (delta, alpha), s, ctrl)))
    return out


def _fox_wright_record() -> list[str]:
    rng = np.random.default_rng(778)
    ctrl = SeriesControl(rel_tol=1e-13, max_shell=700)
    out = []
    for _ in range(14):
        gamma, beta, alpha = np.sort(rng.uniform(0.1, 1.0, 3))
        spec = IVPSpec(alpha, beta, gamma, *rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 2.0))
        for r in (0.25, 1.0, 2.0, 3.0):
            out.append(_entry(lambda: solve_homogeneous_fox_wright(spec, r, ctrl)))
    return out


def _solve_record() -> list[str]:
    out = []
    for t_max in (1.0, 6.0):
        trace = solve(DAMPED, None, np.linspace(0.0, t_max, 257), SeriesControl())
        out += [trace.values.tobytes().hex(), trace.abs_err.tobytes().hex(), trace.converged.tobytes().hex()]
    rs = np.linspace(0.0, 2.0, 41)
    trace = solve(DAMPED, Forcing.from_table(rs, 1.0 + rs), np.linspace(0.0, 2.0, 66), SeriesControl())
    return out + [trace.values.tobytes().hex(), trace.abs_err.tobytes().hex(), trace.converged.tobytes().hex()]


def _verify_record() -> list[str]:
    return [f"{res.name} {res.max_err!r}" for res in run_checks()]


PARTS = {
    "series": _series_record,
    "fox-wright": _fox_wright_record,
    "solve": _solve_record,
    "verify": _verify_record,
}

_HEX = re.compile(r"[0-9a-f]*")


def _number(text: str) -> complex:
    """A float or complex repr, numpy's ``np.float64(...)`` form included."""
    text = re.sub(r"^np\.\w+\((.*)\)$", r"\1", text)
    return complex(text)


def _fields(entries: list[str]) -> list[tuple[list, tuple]]:
    """(numbers, exact) of each entry of one part's dump.

    ``numbers`` holds the entry's values and error estimates, ``exact`` what
    must match between trees: an exception, a shell count, a flag.
    """
    out = []
    for i, entry in enumerate(entries):
        if _HEX.fullmatch(entry):  # solve: values, abs_err, converged of each trace
            arr = np.frombuffer(bytes.fromhex(entry), dtype=bool if i % 3 == 2 else float)
            out.append(([], (arr.tobytes(),)) if i % 3 == 2 else (arr.tolist(), ()))
            continue
        head, _, tail = entry.rpartition(" ")
        if entry.startswith("(") and _HEX.fullmatch(tail) and head.endswith(")"):  # a grid: probe, then values
            numbers, exact = _fields([head])[0]
            out.append((numbers + np.frombuffer(bytes.fromhex(tail)).tolist(), exact))
        elif entry.startswith("(("):  # an EvalResult: (value, estimate, shells, converged)
            value, est, shells, converged = entry[1:-1].rsplit(", ", 3)
            out.append(([_number(value), _number(est)], (shells, converged)))
        elif re.fullmatch(r"\S+ \S+", entry):  # verify: check name, max_err
            name, err = entry.split(" ")
            out.append(([_number(err)], (name,)))
        else:  # an exception
            out.append(([], (entry,)))
    return out


def diff(path_a: str, path_b: str) -> None:
    """Print how the dump at path_b moved from the one at path_a."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = fa.read().splitlines(), fb.read().splitlines()
    if len(a) != len(b):
        sys.exit(f"{path_a} has {len(a)} entries and {path_b} {len(b)}: not dumps of one part")
    worst, where, changed = 0.0, None, []
    for i, ((na, ea), (nb, eb)) in enumerate(zip(_fields(a), _fields(b))):
        if ea != eb or len(na) != len(nb):
            changed.append(i)
            continue
        for x, y in zip(na, nb):
            if x == y or (x != x and y != y):  # equal, or nan in both
                continue
            rel = abs(y - x) / max(abs(x), 1.0)
            if not rel <= worst:  # an inf or nan against a number counts as the largest
                worst, where = rel, i
    print(f"{len(a)} entries, largest relative change {worst:.3g}"
          + ("" if where is None else f" (entry {where})") + f", {len(changed)} with another exception, flag or shell count")
    for i in changed:
        print(f"  entry {i}:\n    A {a[i]}\n    B {b[i]}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--show", choices=list(PARTS), help="print this part's entries instead of the digests")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two --show dumps of one part")
    opts = ap.parse_args()
    if opts.diff:
        diff(*opts.diff)
        return
    if opts.show:
        print("\n".join(PARTS[opts.show]()))
        return
    for name, record in PARTS.items():
        entries = record()
        digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
        print(f"{name:<11} {digest} {len(entries):5d}")


if __name__ == "__main__":
    main()
