"""trivml benchmark: one closed-loop caller, seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; trivml is imported from ./src.  The
workloads and metrics are declared in BENCHMARK.json.  One caller sends each
op only after the previous one returned, with no think time.

--trace 0 prints the end-to-end metrics: set-up time (median of SETUP_RUNS
fresh processes, each timing `import trivml` plus the warm-up op, which is the
same for every seed), then the median and tail latency, throughput, the worst
correct digits among delivered values, and resident memory after an op
(median over samples taken after freed heap is returned to the system, so
caches show but transient arrays do not; the peak is in the record).

Times are scaled to a reference machine speed.  On a shared virtual machine
the speed of the same code drifts by 20-30 % over minutes, so a fixed
calibration kernel (numpy, scipy.special and plain Python, independent of
trivml) runs between ops, at least every CAL_EVERY_S seconds and for at
least CAL_SHARE of the last op's time, and each op's latency is multiplied by
(CAL_REF_S / median kernel time around that op) ** CAL_EXP.  The record line
keeps the raw figures and the speed factor.

--trace 1 prints per-layer metrics instead: half the ops run traced, the
layers are read from those, and the tracing overhead is the difference
between the latency medians of traced and untraced ops.

Every op's output is checked against an mpmath reference (or, for the
checks of `trivml verify`, their own oracles); an op that misses counts as
failed.  The second-to-last line of standard output is a JSON record of the
run (environment, load model, failures, known defects); the last line is the
result.
"""

from __future__ import annotations

import os

# eval_univariate_grid calls OpenBLAS; cap its threads before numpy loads so
# the run stays on one thread, at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

SETUP_RUNS = 3
SETUP_TIMEOUT_S = 150
TAIL_BEYOND = 10  # least samples beyond the reported tail percentile
CAL_EVERY_S = 0.05
CAL_REPEAT = 3  # least kernel timings per calibration
CAL_SHARE = 0.05  # least calibration time, as a share of the last op's time
RSS_EVERY_S = 0.2
CAL_HALF_WINDOW_S = 0.5  # calibrations this close to an op set its speed factor
CAL_SETUP_S = 0.25  # calibration time after each set-up
CHECK_PREFIX = "verify.check_s."
# median kernel time on the 2-vCPU x86_64 virtual machine the benchmark was defined on
CAL_REF_S = 1.8e-4
# Log op time against log kernel time has slope 0.5-0.75 for solve and check
# ops on that machine (the kernel swings more); a full correction would
# overshoot, and 0.7 gave the steadiest medians over seeds.
CAL_EXP = 0.7


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join(SRC, "trivml", "__init__.py")):
        _fail(f"no trivml sources under {SRC}")
    return bench


def _import_trivml():
    import trivml

    if not os.path.abspath(trivml.__file__).startswith(SRC + os.sep):
        _fail(f"imported trivml from {trivml.__file__}, not from {SRC}")
    return trivml


def _calibration_kernel() -> float:
    """Seconds taken by a fixed mix of plain-Python and small-array numpy/scipy work.

    The virtual machine switches every few seconds between two speeds, about
    1.5x apart for trivml's ops.  The mix is chosen to change speed by the same
    factor: float loops alone change by 1.4x, Python calls with math and
    complex by 1.65x, small numpy/scipy calls by 1.85x.
    """
    import numpy as np
    from scipy.special import gammaln

    x = np.linspace(0.7, 40.0, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800):
        acc += i * 1.0001
    for i in range(150):
        pair = (i, i * 0.005)
        acc += math.lgamma(1.5 + pair[1]) + abs(complex(pair[0], 1.0))
    for _ in range(5):
        acc += float(np.exp(0.5 * x - gammaln(x)).sum())
    return time.perf_counter() - t0


def _calibrate(least_s: float = 0.0) -> tuple[float, float]:
    """(time, median kernel timing), over at least CAL_REPEAT timings and least_s seconds."""
    t0 = time.perf_counter()
    times = [_calibration_kernel() for _ in range(CAL_REPEAT)]
    while time.perf_counter() - t0 < least_s:
        times.append(_calibration_kernel())
    return t0, statistics.median(times)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError):  # not glibc
    _malloc_trim = None


def _rss_mb() -> float:
    """Resident MB once the heap has handed freed memory back to the system."""
    if _malloc_trim is not None:
        _malloc_trim(0)
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _speed_factors(spans: list[tuple[float, float]], cals: list[tuple[float, float]]) -> list[float]:
    """(CAL_REF_S / median calibration within CAL_HALF_WINDOW_S of each op,
    widened to cover the op and to at least its two nearest calibrations)
    ** CAL_EXP."""
    times = [t for t, _ in cals]
    out = []
    for t0, t1 in spans:
        mid = (t0 + t1) / 2
        half = max(CAL_HALF_WINDOW_S, (t1 - t0) / 2 + CAL_EVERY_S)
        lo, hi = bisect.bisect_left(times, mid - half), bisect.bisect_right(times, mid + half)
        if hi - lo < 2:
            j = bisect.bisect(times, mid)
            lo, hi = max(0, j - 1), j + 1
        out.append((CAL_REF_S / statistics.median(c for _, c in cals[lo:hi])) ** CAL_EXP)
    return out


def _setup_child(workload: str, seed: int) -> None:
    """Fresh process: time `import trivml` plus the first op."""
    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir)
        x = wl.op(0)
        t0 = time.perf_counter()
        _import_trivml()
        try:
            wl.run(x)
        except Exception:  # a failing first op still ends set-up
            pass
        t1 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cals, until = [], time.perf_counter() + CAL_SETUP_S
    while time.perf_counter() < until:
        cals.append(_calibration_kernel())
    print(json.dumps({"setup_s": t1 - t0, "speed": (CAL_REF_S / statistics.median(cals)) ** CAL_EXP}))


def _measure_setup(workload: str, seed: int) -> list[dict]:
    """Raw set-up seconds and the speed factor of each fresh process."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the 99th percentile, or a lower
    one when fewer than TAIL_BEYOND samples lie beyond it, so that at least
    TAIL_BEYOND do; the maximum when no percentile has that many.  With few
    ops that percentile can sit near the median; the record says which
    percentile was reported."""
    s = sorted(latencies)
    n = len(s)
    beyond = max(TAIL_BEYOND, n // 100)
    if n > beyond:
        return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond
    return s[-1], 100.0, 0


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "trivml")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
        "trivml_src_sha256": digest.hexdigest(),
    }


def _traced(i: int) -> bool:
    """Whether op i runs traced, by the Thue-Morse sequence: half the ops,
    with no period, so no workload's cycle of input kinds (eval-scatter's
    has four) falls wholly on the traced or the untraced side."""
    return bin(i).count("1") % 2 == 1


def _run_ops(wl, seconds: float, tracer=None):
    """Warm up with op 0, then run ops 1, 2, ... for `seconds`.

    Returns (ops, raw latencies, speed factors, resident MB samples,
    outcomes, traced flags, errors); an outcome is None when the op raised.
    With a tracer, the ops _traced picks are traced.
    """
    try:
        wl.run(wl.op(0))
    except Exception:  # warm-up only fills caches; its outcome is not scored
        pass
    ops, spans, lat, rss, outcomes, traced, errors, cals = [], [], [], [], [], [], [], []
    rss_at = 0.0
    deadline = time.perf_counter() + seconds
    i = 1
    # a traced run needs one traced and one untraced op (ops 1 and 3) for the overhead
    while time.perf_counter() < deadline or (tracer is not None and i <= 3):
        if not cals or time.perf_counter() - cals[-1][0] >= CAL_EVERY_S or lat[-1] > CAL_EVERY_S:
            cals.append(_calibrate(CAL_SHARE * lat[-1] if lat else 0.0))
        x = wl.op(i)
        on = tracer is not None and _traced(i)
        if on:
            tracer.install()
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            raw = wl.run(x)
            err = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            raw, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if on:
            tracer.uninstall()
        ops.append(x)
        spans.append((t0, t1))
        lat.append(t1 - t0)
        if time.perf_counter() - rss_at >= RSS_EVERY_S:
            rss.append(_rss_mb())
            rss_at = time.perf_counter()
        outcomes.append(None if err else wl.collect(x, raw))
        traced.append(on)
        errors.append(err)
        i += 1
    cals.append(_calibrate(CAL_SHARE * lat[-1] if lat else 0.0))
    return ops, lat, _speed_factors(spans, cals), rss, outcomes, traced, errors


def _verdicts(wl, outcomes, errors):
    import workloads

    done = [o for o in outcomes if o is not None]
    checked = iter(wl.check(done))
    out = []
    for o, err in zip(outcomes, errors):
        if o is None:
            out.append(workloads.Verdict([False] * wl.values_per_op(None), failed=True, note=err))
        else:
            out.append(next(checked))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="trivml benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bench = _check_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.setup_child:
        _setup_child(args.workload, args.seed)
        return 0

    setup = [] if args.trace else _measure_setup(args.workload, args.seed)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        _import_trivml()
        # the inputs and the eval pool belong to the harness: keep the cyclic
        # collector from walking them during ops
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            import tracing

            try:
                tracer = tracing.Tracer(args.workload)
            except tracing.TraceError as exc:
                _fail(str(exc))
            declared = [m["name"][len(CHECK_PREFIX):] for m in bench["per_layer"]
                        if m["name"].startswith(CHECK_PREFIX)]
            if declared != tracer.check_names:
                _fail(f"trivml's checks {tracer.check_names} differ from BENCHMARK.json's {declared}")
        warm_x = wl.op(0)
        ops, raw_lat, speed, rss, outcomes, traced, errors = _run_ops(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import refs

    correct = True
    try:
        verdicts = _verdicts(wl, outcomes, errors)
    except refs.ReferenceError as exc:
        print(f"perfbench: no reference: {exc}", file=sys.stderr)
        correct = False
        verdicts = [workloads.Verdict([False] * wl.values_per_op(o), failed=True) for o in outcomes]

    n_values = sum(len(v.ok) for v in verdicts)
    n_ok = sum(sum(v.ok) for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    digits = [d for v in verdicts for d in v.digits]
    lat = [x * f for x, f in zip(raw_lat, speed)]
    tail, tail_pct, tail_beyond = _tail(lat)
    def repeat_share(key) -> float:
        """Share of ops whose key an earlier op (the warm-up included) had."""
        seen, repeats = {key(warm_x)}, 0
        for x in ops:
            repeats += key(x) in seen
            seen.add(key(x))
        return repeats / len(ops) if ops else 0.0

    record = {
        "workload": args.workload,
        "why": next((w["why"] for w in bench["workloads"] if w["name"] == args.workload), ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, no think time; single thread, so no waiting time is recorded",
        "environment": _environment(),
        "ops": len(ops),
        "values": n_values,
        "fail_frac": failed / len(ops) if ops else 0.0,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "op_samples": len(lat),
        "speed_factor_median": statistics.median(speed),
        "op_p50_ms_raw": statistics.median(raw_lat) * 1e3,
        "points_per_s_raw": n_values / sum(raw_lat),
        "setup_samples": setup,
        "peak_rss_mb": peak_rss_mb,
        "share_points_share_params": 1.0 if wl.points_share_params else 0.0,
        "share_ops_repeating_params": repeat_share(wl.param_key),
        "share_ops_repeating_inputs": repeat_share(wl.input_key),
        "share_commensurate_orders": sum(map(wl.is_commensurate, ops)) / len(ops) if ops else 0.0,
        "accuracy_digits_values": len(digits),
        "failures": [v.note for v in verdicts if v.failed][:8],
        "ok_frac": n_ok / n_values,
    }
    if hasattr(wl, "probe"):
        record["known_defect"] = wl.probe()

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        n_traced = sum(traced)
        bytes_out = sum(o.get("bytes", 0) for o, t in zip(outcomes, traced) if t and o)
        try:
            layer = tracer.layer_metrics(n_traced, bytes_out)
        except tracing.TraceError as exc:
            _fail(str(exc))
        lat_on = [x for x, t in zip(lat, traced) if t]
        lat_off = [x for x, t in zip(lat, traced) if not t]
        layer["trace.overhead_ms"] = ((statistics.median(lat_on) - statistics.median(lat_off)) * 1e3, "ms")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write_spans(spans_path)
        record.update(traced_ops=n_traced, spans=len(tracer.spans),
                      spans_file=os.path.relpath(spans_path, ROOT),
                      computed_metrics=tracing.COMPUTED,
                      layer_times="raw seconds; only end-to-end times are scaled")
        metrics = {}
        for name, unit in units.items():
            value, got_unit = layer[name]
            if got_unit != unit:
                _fail(f"metric {name} measured in {got_unit}, declared in {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        e2e = {
            "setup_s": statistics.median(x["setup_s"] * x["speed"] for x in setup),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail * 1e3,
            "points_per_s": n_values / sum(lat),
            "accuracy_digits": min(digits) if digits else 0.0,
            "rss_mb": statistics.median(rss),
        }
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
