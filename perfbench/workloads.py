"""The benchmark's three workloads: seeded inputs, one op each, and output checks.

Inputs come from `random.Random(seed)` only, so generating them needs neither
trivml nor numpy and a fresh process can time `import trivml` on its own.
trivml is imported inside `run`, and the mpmath references inside `check`,
so neither sits in the timed region of another.

One op is one call from the single, closed-loop caller.  Op 0 is the warm-up
op; timed ops start at 1.

Every op is meant to pass its output check, so that a failed op marks a
regression.  The inputs therefore stay out of trivml's known failures:
* where a series cancels (negative or large complex arguments), values miss
  the reference by more than the claimed error, because the error estimate
  covers truncation only (ROADMAP item 3); CANCEL_POINT, the worst known
  case, is checked outside the timed ops of every eval-scatter run and
  reported in its record (EvalScatter.probe);
* a forced `trivml solve` (64 quadrature nodes) exits 3 with NaN points for
  r > 0.33, and its finite points are off by 1e-8 to 3e-7 while claiming
  about 1e-15, since quadrature error is not in the estimate;
* `run_checks` fails `slot-symmetry` for about 1 % of seeds (up to 1.1e-11
  against 1e-12); `trivml verify` runs the default seed, which passes.
"""

from __future__ import annotations

import cmath
import gzip
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "eval_pool.json.gz")
# eval-scatter references per input kind in POOL_PATH
POOL_PER_KIND = 10000

EPS = 2.0**-52
# a delivered value passes when |value - ref| <= claimed error + ROUND_ULPS * eps * max(|ref|, 1)
ROUND_ULPS = 64
# significant digits are floored at half an ulp, so an exact value reads ~16.3
DIGITS_FLOOR = EPS / 2

# Order triples (alpha, beta, gamma) in tenths that solve ops draw from:
# alpha >= 0.7 and 0.2 <= alpha - beta <= 0.5.  With the lambda ranges of
# SolveHomogeneous._draw their ops cost within a factor of 2 of one another;
# a smaller alpha, alpha and beta closer together, or a larger |lambda3| cost
# up to ten times more and would make a run's median depend on which specs its
# seed drew.  Each triple appears once per cycle, so
# ops repeat an earlier op's Mittag-Leffler parameters only after all of them.
TRIPLES = tuple((a, b, g) for a in range(10, 6, -1) for b in range(a - 2, a - 6, -1)
                for g in range(b - 1, 0, -1))
# The damped spec of the README and ROADMAP, (orders in tenths, lambdas, y0),
# is op 1 of every solve run.  The warm-up op uses orders outside TRIPLES.
DAMPED = ((9, 5, 3), (-0.7, -0.4, -0.6), 1.5)
WARM_UP = ((10, 4, 2), (-0.5, -0.3, -0.4), 1.2)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread_order(items, cost, rng: random.Random) -> list:
    """items ranked by an expected-cost proxy, visited from a seeded offset
    with a stride near the golden ratio.  Every prefix then spreads evenly
    over the cost range, so how many costly items a run meets does not hinge
    on its seed, and no item repeats within len(items) steps."""
    ranked = sorted(items, key=cost)
    n = len(ranked)
    stride = round(GOLDEN * n)
    while math.gcd(stride, n) != 1:
        stride += 1
    offset = rng.randrange(n)
    return [ranked[(offset + k * stride) % n] for k in range(n)]


def triple_cost(orders10) -> float:
    """Solve cost proxy: the series slots alpha - gamma and alpha - beta decay
    more slowly the smaller they are (correlation 0.8-0.9 with log op time)."""
    a, b, g = orders10
    return 1.0 / (a - b) + 1.0 / (a - g)


def eval_cost(entry) -> float:
    """Shell-count proxy of an eval-scatter input: sum of |z|^(1/order) over
    its series arguments."""
    kind, params, args = entry
    if kind == "prab":
        return abs(args[0]) ** (1.0 / params[0])
    if kind.startswith("tri"):
        return sum(abs(z) ** (1.0 / o) for z, o in zip(args, params[:3]))
    return sum(abs(lam * args[3] ** o) ** (1.0 / o) for lam, o in zip(args[:3], params[:3]))


# Known silent cancellation failure: eval_univariate returns 0.07983 with
# converged=True; the true value is 0.0850654339158983.  Every eval-scatter
# run evaluates it outside the timed ops and reports it in the record.
CANCEL_POINT = ("uni", (0.9, 0.7, 0.5, 1.3, 1.0), (-2.0, -2.0, -2.0, 2.0))
EVAL_KINDS = ("tri-real", "tri-complex", "uni", "prab")


@dataclass
class Verdict:
    """Check of one op: per-value pass flags, and digits of the delivered values."""

    ok: list[bool]
    digits: list[float] = field(default_factory=list)
    failed: bool = False
    note: str = ""


def digits(value, ref) -> float:
    """Correct significant digits of value against ref."""
    scale = abs(ref)
    if scale == 0.0:
        return -math.log10(max(abs(value), DIGITS_FLOOR))
    return -math.log10(max(abs(value - ref), DIGITS_FLOOR * scale) / scale)


def value_ok(value, claimed_err, ref) -> bool:
    if not (math.isfinite(abs(value)) and math.isfinite(claimed_err)):
        return False
    return abs(value - ref) <= claimed_err + ROUND_ULPS * EPS * max(abs(ref), 1.0)


# --------------------------------------------------------------------- solves


@dataclass(frozen=True)
class Spec:
    orders10: tuple[int, int, int]
    lams: tuple[float, float, float]
    y0: float

    def cli_args(self) -> list[str]:
        a, b, g = (f"{o / 10:.1f}" for o in self.orders10)
        args = ["--alpha", a, "--beta", b, "--gamma", g]
        for name, x in zip(("--lambda1", "--lambda2", "--lambda3"), self.lams):
            args += [name, repr(x)]
        return args + ["--y0", repr(self.y0)]


class SolveHomogeneous:
    """One in-process `trivml solve` on 257 points per op, each op with its own seeded spec.

    Op 0 is WARM_UP, op 1 DAMPED; later ops take the order triples in cycles
    through TRIPLES in spread_order, and every op draws fresh lambdas and y0.
    """

    name = "solve-homogeneous"
    n_points = 256  # grid intervals on [0, 1]
    # every point of a solve op shares one parameter set
    points_share_params = True

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.out_path = os.path.join(workdir, f"{self.name}.csv")
        self.grid = [i / self.n_points for i in range(self.n_points + 1)]
        self.specs: list[Spec] = []
        self.cycle: list[tuple[int, int, int]] = []

    def _draw(self, orders, lams=None, y0=None) -> Spec:
        if lams is None:
            u = self.rng.uniform
            lams = (round(u(-0.8, -0.5), 2), round(u(-0.3, 0.1), 2), round(u(-0.35, -0.15), 2))
            y0 = round(u(1.0, 2.0), 2)
        return Spec(orders, lams, y0)

    def op(self, i: int) -> int:
        """Op index i, with its spec drawn."""
        while len(self.specs) <= i:
            n = len(self.specs)
            if n < 2:
                self.specs.append(self._draw(*(WARM_UP, DAMPED)[n]))
                continue
            if not self.cycle:
                triples = [t for t in TRIPLES if n > 2 or t != DAMPED[0]]
                self.cycle = spread_order(triples, triple_cost, self.rng)[::-1]
            self.specs.append(self._draw(self.cycle.pop()))
        return i

    def argv(self, i: int) -> list[str]:
        return ["solve"] + self.specs[i].cli_args() + [
            "--t-max", "1", "--n-points", str(self.n_points), "--out", self.out_path]

    def param_key(self, x):
        return self.specs[x].orders10

    def input_key(self, x):
        return self.specs[x]

    def is_commensurate(self, x) -> bool:
        return True  # orders in tenths

    def run(self, x):
        from trivml import cli

        return cli.main(self.argv(x))

    def collect(self, x, raw) -> dict:
        rows = []
        try:
            with open(self.out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
            os.unlink(self.out_path)
            rows = [ln.split(",") for ln in text.splitlines()[1:]]
        except OSError:
            text = ""
        return {"spec": x, "rc": raw, "bytes": len(text.encode()),
                "y": [float(r[1]) for r in rows], "err": [float(r[3]) for r in rows]}

    def values_per_op(self, outcome) -> int:
        return len(self.grid)

    def check(self, outcomes) -> list[Verdict]:
        import refs

        verdicts = []
        for o in outcomes:
            s = self.specs[o["spec"]]
            ref = refs.ivp_solution(s.orders10, s.lams, s.y0, self.grid)
            if len(o["y"]) != len(ref):
                verdicts.append(Verdict([False] * len(ref), failed=True, note="missing output rows"))
                continue
            ok = [value_ok(y, e, r) for y, e, r in zip(o["y"], o["err"], ref)]
            dig = [digits(y, r) for y, r in zip(o["y"], ref) if math.isfinite(y)]
            failed = o["rc"] != 0 or not all(ok)
            verdicts.append(Verdict(ok, dig, failed, f"exit {o['rc']}" if o["rc"] else ""))
        return verdicts


# ----------------------------------------------------------------- eval-scatter


def gen_eval_input(kind: str, rng: random.Random):
    """Fresh generic parameters and arguments for one eval-scatter op.

    Real arguments are non-negative, so every term of the series is positive
    and summation cancels nothing; complex arguments lie in the unit disk,
    where the terms' magnitudes sum to a few times the value at most.  Both
    keep the inputs out of the cancellation regime (module docstring).
    """
    u = rng.uniform
    if kind == "prab":
        return kind, (u(0.7, 1.5), u(0.6, 2.4), u(0.5, 2.0)), (u(0.0, 5.0),)
    params = (u(0.7, 1.4), u(0.7, 1.4), u(0.7, 1.4), u(0.6, 2.4), u(0.5, 2.0))
    if kind == "tri-real":
        return kind, params, (u(0.0, 2.5), u(0.0, 2.5), u(0.0, 2.5))
    if kind == "tri-complex":
        return kind, params, tuple(cmath.rect(math.sqrt(u(0.0, 1.0)), u(-math.pi, math.pi))
                                   for _ in range(3))
    if kind == "uni":
        return kind, params, (u(0.0, 1.5), u(0.0, 1.5), u(0.0, 1.5), u(0.2, 1.5))
    raise ValueError(kind)


def eval_reference(entry):
    """mpmath reference: Talbot inversion, or the brute-force series when the
    Talbot node counts disagree."""
    import refs

    kind, params, args = entry
    if kind == "prab":
        return refs.series_prabhakar(*params, args[0])
    if kind.startswith("tri"):
        lams, t = args, 1.0
    else:
        lams, t = args[:3], args[3]
    try:
        return refs.talbot_univariate(params, lams, t)
    except refs.ReferenceError:
        # the univariate form is t^(d-1) E(l1 t^a, l2 t^b, l3 t^g)
        scaled = tuple(lam * t**order for lam, order in zip(lams, params[:3]))
        return refs.series_trivariate(params, scaled) * t ** (params[3] - 1.0)


def pool_inputs() -> dict[str, list]:
    """The eval-scatter input pool, regenerated from fixed seeds."""
    out = {}
    for kind in EVAL_KINDS:
        rng = random.Random(f"trivml-eval-pool-{kind}")
        out[kind] = [gen_eval_input(kind, rng) for _ in range(POOL_PER_KIND)]
    return out


def inputs_digest(inputs: dict[str, list]) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def load_pool() -> dict[str, list]:
    """{kind: [(input, reference), ...]}; refuses a pool built for other inputs."""
    with gzip.open(POOL_PATH, "rt", encoding="utf-8") as fh:
        raw = json.load(fh)
    inputs = pool_inputs()
    if raw["per_kind"] != POOL_PER_KIND or inputs_digest(inputs) != raw["inputs_sha256"]:
        raise RuntimeError(f"{POOL_PATH} was built for other inputs; rebuild it with make_pool.py")
    return {kind: [(x, complex(*r) if isinstance(r, list) else complex(r))
                   for x, r in zip(inputs[kind], raw["refs"][kind])] for kind in EVAL_KINDS}


def _is_tenths(x: float) -> bool:
    return abs(x * 10 - round(x * 10)) < 1e-9


class EvalScatter:
    """One function value per op, each with fresh parameters from the pool.

    Kinds take turns, so every run has the same mix, and each kind's entries
    come in spread_order.  References for the pool were computed once by
    make_pool.py.  A run takes each pool entry once before it takes any again,
    so no op repeats the parameters of another unless a run makes more than
    POOL_PER_KIND ops of a kind (about 1.7 times the ops of a 30 s run on the
    machine the benchmark was defined on); the record's
    share_ops_repeating_params shows it.
    """

    name = "eval-scatter"
    points_share_params = False

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.pool = load_pool()
        self.order = {k: spread_order(v, lambda e: eval_cost(e[0]), rng) for k, v in self.pool.items()}
        # the warm-up input is fixed, so set-up does not vary with the seed,
        # and drawn apart from the pool, so it repeats no op
        self.warm = (gen_eval_input("tri-real", random.Random("trivml-eval-warm-up")), None)

    def op(self, i: int):
        """Input and reference of op i."""
        if i == 0:
            return self.warm
        kind = EVAL_KINDS[(i - 1) % len(EVAL_KINDS)]
        n = (i - 1) // len(EVAL_KINDS)
        seq = self.order[kind]
        return seq[n % len(seq)]

    def param_key(self, x):
        return x[0][1]

    def input_key(self, x):
        return x[0]

    def is_commensurate(self, x) -> bool:
        kind, params, _ = x[0]
        orders = params[:1] if kind == "prab" else params[:3]
        return all(_is_tenths(o) for o in orders)

    def run(self, x):
        from trivml import LambdaTriple, MLParams, eval_prabhakar, eval_trivariate, eval_univariate

        kind, params, args = x[0]
        if kind == "prab":
            return eval_prabhakar(*params, args[0])
        if kind.startswith("tri"):
            return eval_trivariate(MLParams(*params), *args)
        return eval_univariate(MLParams(*params), LambdaTriple(*args[:3]), args[3])

    def collect(self, x, raw) -> dict:
        return {"x": x, "value": complex(raw.value), "err": float(raw.abs_error_estimate),
                "converged": bool(raw.converged)}

    def values_per_op(self, outcome) -> int:
        return 1

    def check(self, outcomes) -> list[Verdict]:
        verdicts = []
        for o in outcomes:
            ref = o["x"][1]
            if ref is None:
                ref = eval_reference(o["x"][0])
            ok = o["converged"] and value_ok(o["value"], o["err"], ref)
            dig = [digits(o["value"], ref)] if o["converged"] and math.isfinite(abs(o["value"])) else []
            note = "" if ok else f"{o['x'][0][0]}: got {o['value']!r}, ref {ref!r}, claimed {o['err']:.3g}"
            verdicts.append(Verdict([ok], dig, not ok, note))
        return verdicts

    def probe(self) -> dict:
        """CANCEL_POINT, the known silent failure, checked like an op but not
        timed or counted."""
        x = (CANCEL_POINT, eval_reference(CANCEL_POINT))
        outcome = self.collect(x, self.run(x))
        verdict = self.check([outcome])[0]
        return {"input": CANCEL_POINT, "value": outcome["value"].real, "claimed_err": outcome["err"],
                "converged": outcome["converged"], "reference": x[1].real,
                "passes_check": verdict.ok[0], "digits": verdict.digits}


# ----------------------------------------------------------------- verify-suite


class VerifySuite:
    """`trivml verify`: run_checks() with its default seed, all fifteen checks, per op.

    The CLI runs the checks on fixed data, so every op repeats the inputs of
    the one before.
    """

    name = "verify-suite"
    points_share_params = False

    def __init__(self, seed: int, workdir: str):
        pass

    def op(self, i: int) -> int:
        return i

    def param_key(self, x):
        return None  # the same for every op

    def input_key(self, x):
        return None

    def is_commensurate(self, x) -> bool:
        return False  # checks mix generic parameters with decimal ones

    def run(self, x):
        from trivml import run_checks

        return run_checks()

    def collect(self, x, raw) -> dict:
        return {"checks": [(c.name, c.max_err, c.tol, c.passed) for c in raw]}

    def values_per_op(self, outcome) -> int:
        return 15 if outcome is None else len(outcome["checks"])

    def check(self, outcomes) -> list[Verdict]:
        verdicts = []
        for o in outcomes:
            ok = [passed for _, _, _, passed in o["checks"]]
            # the checks carry their own independent oracles; accuracy here is
            # the worst margin, in decades, between error and tolerance
            margin = [math.log10(tol / err) for _, err, tol, _ in o["checks"] if err > 0]
            bad = [name for name, _, _, passed in o["checks"] if not passed]
            verdicts.append(Verdict(ok, [min(margin)] if margin else [], bool(bad) or len(ok) != 15,
                                    "failed: " + ", ".join(bad) if bad else ""))
        return verdicts


WORKLOADS = {w.name: w for w in (SolveHomogeneous, EvalScatter, VerifySuite)}
