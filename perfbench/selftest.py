"""Smoke test of the benchmark itself (not part of the trivml test suite).

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json briefly with --trace 0 and 1 and
   checks the result line: its keys, and every declared metric with its unit.
2. Perturbs one correct output of each workload by one part in 1e9 and
   checks that the output check counts it as failed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark, and checks that it exits non-zero without a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result_lines(bench) -> list[str]:
    problems = []
    for wl in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = _run(ROOT, wl["name"], trace)
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                problems.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
            names = [m["name"] for m in declared]
            if sorted(result["metrics"]) != sorted(names):
                problems.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(names))} differ")
            for m in declared:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
                    problems.append(f"{where}: {m['name']} reads {got}")
            print(f"ok   {where}: {result['attempted']} ops, {result['failed']} failed", flush=True)
    return problems


def _perturbed(wl, outcome):
    """A copy of a correct outcome with one value moved by one part in 1e9."""
    o = dict(outcome)
    if "y" in o:
        o["y"] = list(o["y"])
        o["y"][0] *= 1 + 1e-9  # y(0) = y0 is exact on every solve
    elif "value" in o:
        o["value"] *= 1 + 1e-9
    else:
        name, err, tol, _ = o["checks"][0]
        o["checks"] = [(name, 2 * tol + 1e-9, tol, False)] + o["checks"][1:]
    return o


def check_perturbation(bench) -> list[str]:
    import workloads

    problems = []
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        for spec in bench["workloads"]:
            wl = workloads.WORKLOADS[spec["name"]](7, workdir)
            for i in range(1, 50):
                x = wl.op(i)
                outcome = wl.collect(x, wl.run(x))
                base = wl.check([outcome])[0]
                if base.ok[0]:
                    break
            else:
                problems.append(f"{spec['name']}: no op with a correct first value in 50")
                continue
            bad = wl.check([_perturbed(wl, outcome)])[0]
            if bad.ok[0] or not bad.failed:
                problems.append(f"{spec['name']}: perturbed output passed the check")
            else:
                print(f"ok   {spec['name']}: perturbed output counted as failed", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_bare_directory(bench) -> list[str]:
    bare = tempfile.mkdtemp(prefix=".work-bare-", dir=HERE)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".work-*", "out", "__pycache__"))
        proc = _run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return ["benchmark ran without the trivml sources"]
        print(f"ok   without trivml sources: exit {proc.returncode}", flush=True)
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = check_bare_directory(bench) + check_perturbation(bench) + check_result_lines(bench)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
