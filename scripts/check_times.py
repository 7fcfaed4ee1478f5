#!/usr/bin/env python3
"""Warm per-check times of `trivml verify`, measured in one process.

    python3 scripts/check_times.py [--rounds N]

Runs every check of `run_checks` once to warm the caches, then N rounds of
`run_checks(only=name)` per check, and prints each check's median time in
milliseconds followed by the total of those medians.  It then prints the
median of N whole `run_checks()` calls, the op that the benchmark's
verify-suite workload times.  BLAS is capped at one
thread before numpy loads, as in the benchmark.  Run from the root of a
source checkout; trivml is imported from ./src.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from trivml.verify import all_check_names, run_checks  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=7, help="timed rounds per check (default 7)")
    opts = ap.parse_args()
    if opts.rounds < 1:
        ap.error("--rounds must be >= 1")
    run_checks()  # warm-up
    times = {name: [] for name in all_check_names()}
    for _ in range(opts.rounds):
        for name in times:
            t0 = time.perf_counter()
            run_checks(only=name)
            times[name].append(time.perf_counter() - t0)
    medians = {name: 1e3 * statistics.median(ts) for name, ts in times.items()}
    width = max(map(len, medians))
    for name, ms in medians.items():
        print(f"{name:<{width}} {ms:9.2f} ms")
    print(f"{'total':<{width}} {sum(medians.values()):9.2f} ms")
    whole = []
    for _ in range(opts.rounds):
        t0 = time.perf_counter()
        run_checks()
        whole.append(time.perf_counter() - t0)
    print(f"{'run_checks()':<{width}} {1e3 * statistics.median(whole):9.2f} ms")


if __name__ == "__main__":
    main()
