"""Build eval_pool.json.gz: mpmath references for the eval-scatter inputs.

    python3 perfbench/make_pool.py [--out PATH]

The inputs, workloads.POOL_PER_KIND per kind, are regenerated from fixed
string seeds whenever the pool is loaded, so the file stores only the
references and a digest of the inputs they belong to.  Building takes about
0.06 s of one core per entry, on every core the process may use.
"""

from __future__ import annotations

import argparse
import gzip
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _ref(entry):
    try:
        value = workloads.eval_reference(entry)
    except Exception as exc:  # reported below; the pool is not written
        return f"{entry}: {type(exc).__name__}: {exc}"
    return [value.real, value.imag] if entry[0] == "tri-complex" else value.real


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=workloads.POOL_PATH)
    args = ap.parse_args(argv)

    inputs = workloads.pool_inputs()
    out = {"per_kind": workloads.POOL_PER_KIND, "inputs_sha256": workloads.inputs_digest(inputs),
           "refs": {}}
    t0 = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for kind, entries in inputs.items():
            out["refs"][kind] = pool.map(_ref, entries, chunksize=16)
            print(f"{kind}: {len(entries)} references, {time.perf_counter() - t0:.0f} s", flush=True)
    errors = [r for refs in out["refs"].values() for r in refs if isinstance(r, str)]
    if errors:
        print("\n".join(["no reference for:"] + errors), file=sys.stderr)
        return 1
    with gzip.open(args.out, "wt", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
