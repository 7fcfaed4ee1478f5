#!/usr/bin/env python3
"""SHA-256 digests of a fixed, seeded record of trivml's results, one per part.

    python3 scripts/record_digest.py [--show PART]

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
BLAS is capped at one thread before numpy loads.  Run from the root of a
source checkout; trivml is imported from ./src.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--show", choices=list(PARTS), help="print this part's entries instead of the digests")
    opts = ap.parse_args()
    if opts.show:
        print("\n".join(PARTS[opts.show]()))
        return
    for name, record in PARTS.items():
        entries = record()
        digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
        print(f"{name:<11} {digest} {len(entries):5d}")


if __name__ == "__main__":
    main()
