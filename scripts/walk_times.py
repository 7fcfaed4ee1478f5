#!/usr/bin/env python3
"""Shell-walk times of one-shot and repeated series calls, measured in one process.

    python3 scripts/walk_times.py [--samples N] [--seed S] [--base DIR]

For each kind of call, N fresh parameter sets are drawn from a seeded
generator and each is called three times on the same input: the first call
builds every shell unit it reads (a one-shot call), the second stores the
units below q = 96, and the third reads them from the table.  Prints the
median time in microseconds of the first call ("fresh") and of the third
("stored") per kind, and the median shells summed.

``--base DIR`` times a second source tree in the same process: trivml from
DIR/src is loaded as a package of another name.  Each round draws one input
per kind, and each tree in turn calls every kind on them, the tree that
goes first alternating from round to round, so both trees see the same
inputs and the same drifts in machine speed (separate processes on a
shared virtual machine differ by 20-50 %), and each tree's calls follow its
own, as in a run of its own: a tri-tiny call right after the other tree's
tri-long walk took up to twice as long as one after its own.  The first table
then also gives the base tree's medians, the median over inputs of the
per-input time ratio (this tree over the base), and the number of inputs
whose results (value, error estimate, shells, flag) differ between the
trees.  The base tree needs only the public API (and ``cli._fmt`` for the
solve kind's rows), as the unit table is left out then.

A last table times the ``solve`` kind, one op per spec: ``solver.solve``
over 257 points on [0, 1], as ``trivml solve --t-max 1 --n-points 256``
runs it, first on the README's damped spec and then on specs drawn as the
solve-homogeneous benchmark draws them (orders in tenths from its order
triples, lambdas and y0 from its ranges), min(N, 40) ops.  A spec is solved
once per tree, the tree that goes first alternating from op to op.  It
prints the median milliseconds per op; with ``--base`` also the base tree's
median, the median over ops of the per-op ratio (this tree over the base)
and the number of ops whose CSV rows (``r,y,backend,abs_err``, formatted as
the CLI writes them) differ between the trees.

Without ``--base``, a second table times the shell-assembly layer alone:
one freshly built unit per standard unit start q0 = 0, 20, 26, ... up to
q0 = 41 with three live directions, real (tri-real's inputs, every term
positive) and complex (tri-complex's), N fresh parameter sets each.  It
gives the median microseconds of the build (``series._shell_block``, index
blocks already cached, as in a call) and of the terms pass
(``series._shell_terms``; the per-call log|z| vector and phase tables are
built outside the timing), their sum, and the shells and terms of the unit,
so the fixed cost per unit and the cost per term can be read off.

Kinds: ``tri-real`` and ``tri-complex`` are ``eval_trivariate`` with
eval-scatter's parameter ranges and arguments (real in [0, 2.5], complex in
the unit disk), ``uni`` is ``eval_univariate`` with lambdas in [0, 1.5] and
r in [0.2, 1.5], and ``tri-long`` is ``eval_trivariate`` with orders in
[0.9, 1.25] and real arguments in [25, 35], walks of about 130 shells that
run past the stored range.  ``tri-tiny`` takes arguments in [0, 1e-3]
(walks of about 7 shells, inside the first unit), ``tri-1d`` v = w = 0
and u in [0, 30] (one live direction), and ``tri-2d`` w = 0 and u, v in
[0, 8] (two), all on tri-real's parameter ranges.
BLAS is capped at one thread before numpy loads, as in the benchmark.  Run
from the root of a source checkout; trivml is imported from ./src.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import trivml  # noqa: E402
from trivml import MLParams, series  # noqa: E402
from trivml.kernels import log_pochhammer_table  # noqa: E402


def _draw(kind: str, rng: random.Random) -> tuple:
    """(function name, parameters, arguments) of one call of a kind, freshly drawn."""
    u = rng.uniform
    if kind == "tri-long":
        params = (u(0.9, 1.25), u(0.9, 1.25), u(0.9, 1.25), u(0.6, 2.4), u(0.5, 2.0))
        return "eval_trivariate", params, (u(25.0, 35.0), u(25.0, 35.0), u(25.0, 35.0))
    params = (u(0.7, 1.4), u(0.7, 1.4), u(0.7, 1.4), u(0.6, 2.4), u(0.5, 2.0))
    if kind == "uni":
        return "eval_univariate", params, ((u(0.0, 1.5), u(0.0, 1.5), u(0.0, 1.5)), u(0.2, 1.5))
    if kind == "tri-complex":
        args = tuple(cmath.rect(math.sqrt(u(0.0, 1.0)), u(-math.pi, math.pi)) for _ in range(3))
    else:
        hi = {"tri-real": (2.5,) * 3, "tri-tiny": (1e-3,) * 3, "tri-1d": (30.0, 0.0, 0.0), "tri-2d": (8.0, 8.0, 0.0)}
        args = tuple(u(0.0, h) if h else 0.0 for h in hi[kind])
    return "eval_trivariate", params, args


def _bind(tree, call: tuple):
    """A no-argument call of ``tree``'s trivml on a drawn call."""
    name, params, args = call
    params = tree.MLParams(*params)
    if name == "eval_univariate":
        lam = tree.LambdaTriple(*args[0])
        return lambda: tree.eval_univariate(params, lam, args[1])
    return lambda: tree.eval_trivariate(params, *args)


def _load_tree(root: str):
    """trivml from the source tree at ``root``, imported under another package name."""
    pkg = os.path.join(os.path.abspath(root), "src", "trivml")
    spec = importlib.util.spec_from_file_location("trivml_base", os.path.join(pkg, "__init__.py"),
                                                  submodule_search_locations=[pkg])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tree
    spec.loader.exec_module(tree)
    return tree


KINDS = ("tri-real", "tri-complex", "uni", "tri-long", "tri-tiny", "tri-1d", "tri-2d")

# The solve kind: at most SOLVE_OPS specs.  Orders in tenths as the
# solve-homogeneous benchmark draws them (1 >= alpha > beta > gamma > 0);
# the README's damped spec comes first and the warm-up spec warms each tree.
SOLVE_OPS = 40
TRIPLES = tuple((a, b, g) for a in range(10, 6, -1) for b in range(a - 2, a - 6, -1) for g in range(b - 1, 0, -1))
DAMPED = ((9, 5, 3), (-0.7, -0.4, -0.6), 1.5)
WARM_UP = ((10, 4, 2), (-0.5, -0.3, -0.4), 1.2)
GRID = np.linspace(0.0, 1.0, 257)


def _draw_spec(rng: random.Random) -> tuple:
    """(orders in tenths, lambdas, y0) of one solve op, freshly drawn."""
    u = rng.uniform
    lams = (round(u(-0.8, -0.5), 2), round(u(-0.3, 0.1), 2), round(u(-0.35, -0.15), 2))
    return rng.choice(TRIPLES), lams, round(u(1.0, 2.0), 2)


def _solve(tree, spec: tuple):
    """``tree``'s solution trace of ``spec`` over GRID, as ``trivml solve`` computes it."""
    orders, lams, y0 = spec
    return tree.solver.solve(tree.IVPSpec(*(n / 10 for n in orders), *lams, y0), None, GRID)


def _csv_rows(tree, trace) -> list:
    """The CSV rows ``trivml solve`` writes for ``trace``, formatted by ``tree``."""
    fmt = importlib.import_module(tree.__name__ + ".cli")._fmt
    return [f"{fmt(r)},{fmt(y)},series,{fmt(e)}" for r, y, e in zip(GRID, trace.values, trace.abs_err)]


def _unit_times(rng: random.Random, samples: int) -> None:
    """Print build and terms times of one fresh shell unit per standard unit start."""
    u = rng.uniform
    ends = series._unit_ends(3)
    units = [(q0, end) for q0, end in ends.items() if q0 <= 41]
    print(f"\n{'unit':<8} {'q0':>3} {'end':>4} {'terms':>6} {'build us':>9} {'terms us':>9} {'total us':>9}")
    for kind in ("real", "complex"):
        for q0, end in units:
            build, terms = [], []
            for _ in range(samples):
                params = MLParams(u(0.7, 1.4), u(0.7, 1.4), u(0.7, 1.4), u(0.6, 2.4), u(0.5, 2.0))
                if kind == "real":
                    args = (u(0.0, 2.5), u(0.0, 2.5), u(0.0, 2.5))
                else:
                    args = tuple(cmath.rect(math.sqrt(u(0.0, 1.0)), u(-math.pi, math.pi)) for _ in range(3))
                slots = tuple(series._arg_parts(z) for z in args)
                pattern = tuple((slot[0], slot[3] < 0.0) for slot in slots)
                poch = log_pochhammer_table(params.eta, end)
                live = [slot for slot in slots if not slot[0]]
                log_z = np.array([slot[1] for slot in live])
                n = np.arange(end)
                phases = [(row, np.exp(1j * slot[2] * n)) for row, slot in enumerate(live) if slot[2]]
                t0 = time.perf_counter()
                arrays, _ = series._shell_block(params, pattern, poch, q0, end - q0)
                t1 = time.perf_counter()
                series._shell_terms(arrays, log_z, phases)
                t2 = time.perf_counter()
                build.append(t1 - t0)
                terms.append(t2 - t1)
            b, t = 1e6 * statistics.median(build), 1e6 * statistics.median(terms)
            print(f"{kind:<8} {q0:3d} {end:4d} {arrays[1].size:6d} {b:9.1f} {t:9.1f} {b + t:9.1f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=300, help="parameter sets per kind (default 300)")
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--base", default=None, help="source tree to compare against, call by call")
    opts = ap.parse_args()
    if opts.samples < 1:
        ap.error("--samples must be >= 1")
    rng = random.Random(opts.seed)
    trees = [trivml] if opts.base is None else [trivml, _load_tree(opts.base)]
    _kind_times(rng, opts.samples, trees)
    if opts.base is None:
        _unit_times(rng, opts.samples)
    _solve_times(rng, min(opts.samples, SOLVE_OPS), trees)


def _solve_times(rng: random.Random, ops: int, trees: list) -> None:
    """Print the median time of a solve op per tree, and with two trees the per-op ratio and differing ops."""
    for tree in trees:  # warm-up: fills the process-wide index blocks
        _solve(tree, WARM_UP)
    times = [[] for _ in trees]
    rows = [[] for _ in trees]
    for i in range(ops):
        spec = DAMPED if i == 0 else _draw_spec(rng)
        for t in sorted(range(len(trees)), key=lambda t: (t + i) % len(trees)):
            t0 = time.perf_counter()
            trace = _solve(trees[t], spec)
            times[t].append(time.perf_counter() - t0)
            rows[t].append(_csv_rows(trees[t], trace))
    med = lambda xs: 1e3 * statistics.median(xs)  # noqa: E731
    if len(trees) == 1:
        print(f"\n{'kind':<12} {'ops':>4} {'ms':>8}")
        print(f"{'solve':<12} {ops:4d} {med(times[0]):8.2f}")
        return
    ratio = statistics.median(x / b for x, b in zip(*times))
    differ = sum(a != b for a, b in zip(*rows))
    print(f"\n{'kind':<12} {'ops':>4} {'base ms':>8} {'ms':>8} {'ratio':>6} {'differ':>6}")
    print(f"{'solve':<12} {ops:4d} {med(times[1]):8.2f} {med(times[0]):8.2f} {ratio:6.3f} {differ:6d}")


def _kind_times(rng: random.Random, samples: int, trees: list) -> None:
    """Print the median fresh and stored call times and shells summed per kind, per tree."""
    for kind in KINDS:  # warm-up: fills the process-wide index blocks
        for _ in range(5):
            call = _draw(kind, rng)
            for tree in trees:
                _bind(tree, call)()
    # per kind and tree: fresh and stored times, shells; per kind: inputs whose results differ
    times = {kind: [([], [], []) for _ in trees] for kind in KINDS}
    results = {kind: [[] for _ in trees] for kind in KINDS}
    for i in range(samples):
        calls = {kind: _draw(kind, rng) for kind in KINDS}
        # kinds take turns, so drifts in machine speed hit all alike
        for t in sorted(range(len(trees)), key=lambda t: (t + i) % len(trees)):
            for kind, call in calls.items():
                fn = _bind(trees[t], call)
                fresh, stored, shells = times[kind][t]
                for n in range(3):
                    t0 = time.perf_counter()
                    res = fn()
                    dt = time.perf_counter() - t0
                    if n == 0:
                        fresh.append(dt)
                    elif n == 2:
                        stored.append(dt)
                shells.append(res.shells_used)
                results[kind][t].append((repr(complex(res.value)), repr(res.abs_error_estimate), res.shells_used,
                                         res.converged))
    med = lambda xs: 1e6 * statistics.median(xs)  # noqa: E731
    if len(trees) == 1:
        print(f"{'kind':<12} {'fresh us':>10} {'stored us':>10} {'shells':>7}")
        for kind, [(fresh, stored, shells)] in times.items():
            print(f"{kind:<12} {med(fresh):10.1f} {med(stored):10.1f} {statistics.median(shells):7.0f}")
        return
    ratio = lambda xs, bs: statistics.median(x / b for x, b in zip(xs, bs))  # noqa: E731
    print(f"{'kind':<12} {'base fresh':>10} {'fresh us':>10} {'ratio':>6} {'base stored':>11} {'stored us':>10}"
          f" {'ratio':>6} {'shells':>7} {'differ':>6}")
    for kind, [(fresh, stored, shells), (b_fresh, b_stored, _)] in times.items():
        differ = sum(a != b for a, b in zip(*results[kind]))
        print(f"{kind:<12} {med(b_fresh):10.1f} {med(fresh):10.1f} {ratio(fresh, b_fresh):6.3f} {med(b_stored):11.1f}"
              f" {med(stored):10.1f} {ratio(stored, b_stored):6.3f} {statistics.median(shells):7.0f} {differ:6d}")


if __name__ == "__main__":
    main()
