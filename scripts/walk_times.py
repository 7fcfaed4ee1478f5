#!/usr/bin/env python3
"""Shell-walk times of one-shot and repeated series calls, measured in one process.

    python3 scripts/walk_times.py [--samples N] [--seed S]

For each kind of call, N fresh parameter sets are drawn from a seeded
generator and each is called three times on the same input: the first call
builds every shell block it reads (a one-shot call), the second stores the
blocks below q = 96, and the third reads them from the table.  Prints the
median time in microseconds of the first call ("fresh") and of the third
("stored") per kind, and the median shells summed.

A second table times the shell-assembly layer alone: one freshly built unit
of ``_SHELL_BLOCK`` shells from its first shell q0 = 0, 8, ..., 40, real
(tri-real's inputs, every term positive) and complex (tri-complex's), N
fresh parameter sets each.  It gives the median microseconds of the build
(``series._shell_block``, index blocks already cached, as in a call) and of
the terms pass (``series._shell_terms``; the per-call phase tables are built
outside the timing), their sum, and the terms of the unit, so the fixed
cost per unit and the cost per term can be read off.

Kinds: ``tri-real`` and ``tri-complex`` are ``eval_trivariate`` with
eval-scatter's parameter ranges and arguments (real in [0, 2.5], complex in
the unit disk), ``uni`` is ``eval_univariate`` with lambdas in [0, 1.5] and
r in [0.2, 1.5], and ``tri-long`` is ``eval_trivariate`` with orders in
[0.9, 1.25] and real arguments in [25, 35], walks of about 130 shells that
run past the stored range.  BLAS is capped at one thread before numpy loads,
as in the benchmark.  Run from the root of a source checkout; trivml is
imported from ./src.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from trivml import LambdaTriple, MLParams, eval_trivariate, eval_univariate, series  # noqa: E402
from trivml.kernels import log_pochhammer_table  # noqa: E402


def _call(kind: str, rng: random.Random):
    """A no-argument call of one kind on freshly drawn inputs."""
    u = rng.uniform
    if kind == "tri-long":
        params = MLParams(u(0.9, 1.25), u(0.9, 1.25), u(0.9, 1.25), u(0.6, 2.4), u(0.5, 2.0))
        args = (u(25.0, 35.0), u(25.0, 35.0), u(25.0, 35.0))
        return lambda: eval_trivariate(params, *args)
    params = MLParams(u(0.7, 1.4), u(0.7, 1.4), u(0.7, 1.4), u(0.6, 2.4), u(0.5, 2.0))
    if kind == "tri-real":
        args = (u(0.0, 2.5), u(0.0, 2.5), u(0.0, 2.5))
        return lambda: eval_trivariate(params, *args)
    if kind == "tri-complex":
        args = tuple(cmath.rect(math.sqrt(u(0.0, 1.0)), u(-math.pi, math.pi)) for _ in range(3))
        return lambda: eval_trivariate(params, *args)
    lam = LambdaTriple(u(0.0, 1.5), u(0.0, 1.5), u(0.0, 1.5))
    r = u(0.2, 1.5)
    return lambda: eval_univariate(params, lam, r)


KINDS = ("tri-real", "tri-complex", "uni", "tri-long")


def _unit_times(rng: random.Random, samples: int) -> None:
    """Print build and terms times of one fresh shell unit per first shell q0."""
    u = rng.uniform
    print(f"\n{'unit':<8} {'q0':>3} {'terms':>6} {'build us':>9} {'terms us':>9} {'total us':>9}")
    for kind in ("real", "complex"):
        for q0 in range(0, 41, series._SHELL_BLOCK):
            build, terms = [], []
            for _ in range(samples):
                params = MLParams(u(0.7, 1.4), u(0.7, 1.4), u(0.7, 1.4), u(0.6, 2.4), u(0.5, 2.0))
                if kind == "real":
                    args = (u(0.0, 2.5), u(0.0, 2.5), u(0.0, 2.5))
                else:
                    args = tuple(cmath.rect(math.sqrt(u(0.0, 1.0)), u(-math.pi, math.pi)) for _ in range(3))
                slots = tuple(series._arg_parts(z) for z in args)
                pattern = tuple((slot[0], slot[3] < 0.0) for slot in slots)
                poch = log_pochhammer_table(params.eta, q0 + series._SHELL_BLOCK)
                n = np.arange(q0 + series._SHELL_BLOCK)
                phases = [(d, np.exp(1j * slot[2] * n)) for d, slot in enumerate(slots) if slot[2]]
                t0 = time.perf_counter()
                arrays, _ = series._shell_block(params, pattern, poch, q0)
                t1 = time.perf_counter()
                series._shell_terms(arrays, slots, phases)
                t2 = time.perf_counter()
                build.append(t1 - t0)
                terms.append(t2 - t1)
            b, t = 1e6 * statistics.median(build), 1e6 * statistics.median(terms)
            print(f"{kind:<8} {q0:3d} {arrays[0].size:6d} {b:9.1f} {t:9.1f} {b + t:9.1f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=300, help="parameter sets per kind (default 300)")
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    opts = ap.parse_args()
    if opts.samples < 1:
        ap.error("--samples must be >= 1")
    rng = random.Random(opts.seed)
    for kind in KINDS:  # warm-up: fills the process-wide index blocks
        for _ in range(5):
            _call(kind, rng)()
    times = {kind: ([], [], []) for kind in KINDS}
    for _ in range(opts.samples):
        for kind in KINDS:  # kinds take turns, so drifts in machine speed hit all alike
            fn = _call(kind, rng)
            fresh, stored, shells = times[kind]
            for n in range(3):
                t0 = time.perf_counter()
                res = fn()
                dt = time.perf_counter() - t0
                if n == 0:
                    fresh.append(dt)
                elif n == 2:
                    stored.append(dt)
            shells.append(res.shells_used)
    print(f"{'kind':<12} {'fresh us':>10} {'stored us':>10} {'shells':>7}")
    for kind, (fresh, stored, shells) in times.items():
        print(f"{kind:<12} {1e6 * statistics.median(fresh):10.1f} {1e6 * statistics.median(stored):10.1f}"
              f" {statistics.median(shells):7.0f}")
    _unit_times(rng, opts.samples)


if __name__ == "__main__":
    main()
