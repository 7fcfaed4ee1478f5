"""Command-line front end: evaluate, solve, verify, and emit CSV tables.

Exit codes: 0 success, 1 verification failure, 2 validation error
(including a NaN or infinite input and an L1 step whose leading coefficient
vanishes), 3 non-convergence (including a finite input whose series argument
leaves the double range, and a Talbot inversion or Gauss-Jacobi quadrature
that fails its node-doubling check), 4 I/O error.  Output files are written to a temporary
sibling and renamed into place, so a failing run never leaves a partial file;
they get the mode the umask gives a newly created file.
All numbers are printed with 17 significant digits (round-trip exact for
IEEE doubles), '.' decimal point, '\\n' newlines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import uuid

import numpy as np

from .errors import (
    DomainError,
    QuadratureError,
    SeriesNotConvergedError,
    SeriesOverflowError,
    SingularStepError,
    TalbotDivergenceError,
)
from .series import LambdaTriple, MLParams, SeriesControl, eval_prabhakar, eval_trivariate, eval_univariate
from .solver import Forcing, IVPSpec, numeric_oracle_solve, solve
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(text), 0.0)


def _write_atomic(path: str, lines: list[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-trivml-{uuid.uuid4().hex}")
    # exclusive create like mkstemp, but with mode 0666 so the umask applies
    # as it does for open() (mkstemp would leave the file 0600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, lines: list[str]) -> None:
    if path:
        _write_atomic(path, lines)
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _ctrl(opts: dict) -> SeriesControl:
    """Series control from --tol and --max-shell; unset options keep the library defaults."""
    given = {}
    if opts.get("tol") is not None:
        given["rel_tol"] = opts["tol"]
    if opts.get("max_shell") is not None:
        given["max_shell"] = opts["max_shell"]
    return SeriesControl(**given)


def _require(opts: dict, names: list[str]) -> None:
    missing = [n for n in names if opts.get(n) is None]
    if missing:
        raise DomainError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")


def cmd_eval(opts: dict) -> int:
    _require(opts, ["alpha", "beta", "gamma", "delta", "eta", "u", "v", "w"])
    params = MLParams(opts["alpha"], opts["beta"], opts["gamma"], opts["delta"], opts["eta"])
    u, v, w = opts["u"], opts["v"], opts["w"]
    res = eval_trivariate(params, u, v, w, _ctrl(opts))
    value = complex(res.value)
    header = "alpha,beta,gamma,delta,eta,u_re,u_im,v_re,v_im,w_re,w_im,value_re,value_im,abs_err,shells"
    row = ",".join(
        [_fmt(params.alpha), _fmt(params.beta), _fmt(params.gamma), _fmt(params.delta), _fmt(params.eta)]
        + [_fmt(z) for z in (u.real, u.imag, v.real, v.imag, w.real, w.imag)]
        + [_fmt(value.real), _fmt(value.imag), _fmt(res.abs_error_estimate), str(res.shells_used)]
    )
    _emit(opts.get("out"), [header, row])
    if not res.converged:
        print(f"series not converged after {res.shells_used} shells", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_eval_univariate(opts: dict) -> int:
    _require(opts, ["alpha", "beta", "gamma", "delta", "eta", "lambda1", "lambda2", "lambda3", "r"])
    params = MLParams(opts["alpha"], opts["beta"], opts["gamma"], opts["delta"], opts["eta"])
    lam = LambdaTriple(opts["lambda1"], opts["lambda2"], opts["lambda3"])
    res = eval_univariate(params, lam, opts["r"], _ctrl(opts))
    value = complex(res.value).real
    header = "alpha,beta,gamma,delta,eta,lambda1,lambda2,lambda3,r,value,abs_err,shells"
    row = ",".join(
        [_fmt(x) for x in (params.alpha, params.beta, params.gamma, params.delta, params.eta,
                           lam.lambda1, lam.lambda2, lam.lambda3, opts["r"], value,
                           res.abs_error_estimate)]
        + [str(res.shells_used)]
    )
    _emit(opts.get("out"), [header, row])
    if not res.converged:
        print(f"series not converged after {res.shells_used} shells", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _load_forcing(path: str) -> Forcing:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise _IOFailure(f"cannot read forcing file {path}: {exc}") from exc
    if not lines or lines[0].replace(" ", "") != "r,g":
        raise _IOFailure(f"forcing file {path} must start with header 'r,g'")
    try:
        rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:]]
    except ValueError as exc:
        raise _IOFailure(f"forcing file {path} has a non-numeric row: {exc}") from exc
    if any(len(row) != 2 for row in rows):
        raise _IOFailure(f"forcing file {path} must have exactly two columns")
    r = [row[0] for row in rows]
    g = [row[1] for row in rows]
    return Forcing.from_table(r, g)


class _IOFailure(Exception):
    pass


def cmd_solve(opts: dict) -> int:
    _require(opts, ["alpha", "beta", "gamma", "lambda1", "lambda2", "lambda3", "y0", "t_max", "n_points"])
    spec = IVPSpec(
        opts["alpha"], opts["beta"], opts["gamma"],
        opts["lambda1"], opts["lambda2"], opts["lambda3"], opts["y0"],
    )
    n_points = opts["n_points"]
    if n_points < 1 or not 0.0 < opts["t_max"] < math.inf:
        raise DomainError("need n_points >= 1 and 0 < t_max < inf")
    grid = np.linspace(0.0, opts["t_max"], n_points + 1)
    g = _load_forcing(opts["forcing"]) if opts.get("forcing") else None

    if opts.get("oracle"):
        spec_text = opts["oracle"]
        if not spec_text.startswith("h="):
            raise DomainError("--oracle takes the form h=<step>")
        h = float(spec_text[2:])
        trace = numeric_oracle_solve(spec, g, h, opts["t_max"])
        values = np.interp(grid, trace.grid, trace.values)
        errs = np.full(grid.shape, h ** (2.0 - spec.alpha))
        backend = "oracle"
        all_ok = bool(np.all(np.isfinite(values)))
    else:
        nodes = opts.get("quad_nodes")
        kw = {} if nodes is None else {"quad_nodes": nodes}
        trace = solve(spec, g, grid, _ctrl(opts), **kw)
        values, errs = trace.values, trace.abs_err
        backend = "series"
        all_ok = bool(trace.converged.all())

    lines = ["r,y,backend,abs_err"]
    for r, y, e in zip(grid, values, errs):
        lines.append(f"{_fmt(r)},{_fmt(y)},{backend},{_fmt(e)}")
    _emit(opts.get("out"), lines)
    if not all_ok:
        print("one or more points did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_verify(opts: dict) -> int:
    results = run_checks(only=opts.get("only"), tol_override=opts.get("tol"))
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.name} {res.max_err:.3e} {res.tol:.3e}")
    _emit(opts.get("out"), lines)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def cmd_table(opts: dict) -> int:
    """Family comparison sweep.

    Each family takes the leading parameters it knows about (the remaining
    columns still record the sweep coordinates): the three-variable family is
    E^eta_{a,b,c,d}(u r, v r, w r), the two-variable one E^eta_{a,b,c}(u r, v r),
    the three-parameter one E^eta_{a,b}(u r) and the two-parameter one
    E_{a,b}(u r).  The u/v/w options scale the argument slots (default 1),
    so --w 0 collapses the trivariate rows onto the bivariate ones.
    """
    _require(opts, ["alpha", "beta", "gamma", "delta", "eta", "t_max", "n_points"])
    alphas, betas, gammas = (_float_list(opts[k]) for k in ("alpha", "beta", "gamma"))
    deltas, etas = _float_list(opts["delta"]), _float_list(opts["eta"])
    scale_u, scale_v, scale_w = (1.0 if opts.get(k) is None else opts[k] for k in ("u", "v", "w"))
    n_points = opts["n_points"]
    if n_points < 1 or not 0.0 < opts["t_max"] < math.inf or min(map(len, (alphas, betas, gammas, deltas, etas))) < 1:
        raise DomainError("need nonempty sweep lists, n_points >= 1 and 0 < t_max < inf")
    rs = np.linspace(0.0, opts["t_max"], n_points + 1)
    ctrl = _ctrl(opts)

    lines = ["family,alpha,beta,gamma,delta,eta,r,value"]
    all_ok = True
    for a in alphas:
        for b in betas:
            for c in gammas:
                for d in deltas:
                    for e in etas:
                        for r in rs:
                            r = float(r)
                            for name, scale in zip("uvw", (scale_u, scale_v, scale_w)):
                                if math.isinf(scale * r) and math.isfinite(scale) and math.isfinite(r):
                                    raise SeriesOverflowError(
                                        f"table argument --{name} {scale:g} times r={r:g} leaves the double range"
                                    )
                            rows = {
                                "trivariate": eval_trivariate(
                                    MLParams(a, b, c, d, e), scale_u * r, scale_v * r, scale_w * r, ctrl
                                ),
                                "bivariate": eval_trivariate(
                                    MLParams(a, b, 1.0, c, e), scale_u * r, scale_v * r, 0.0, ctrl
                                ),
                                "prabhakar": eval_prabhakar(a, b, e, scale_u * r, ctrl),
                                "two-param": eval_prabhakar(a, b, 1.0, scale_u * r, ctrl),
                            }
                            for family, res in rows.items():
                                # a partial sum is no value: NaN, and exit 3 below
                                value = complex(res.value).real if res.converged else math.nan
                                all_ok = all_ok and res.converged
                                lines.append(
                                    ",".join([family] + [_fmt(x) for x in (a, b, c, d, e, r, value)])
                                )
    _emit(opts.get("out"), lines)
    if not all_ok:
        print("one or more points did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "eval-univariate": cmd_eval_univariate,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "table": cmd_table,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads an argument starting like a negative number
    (``-3,1``, ``-1e-3``, ``-.5``) as a value, so ``--eta -3,1`` works like
    ``--eta=-3,1``; argparse's own rule takes only forms like ``-3`` and
    ``-0.5``.  No trivml flag starts with a digit, so no flag is shadowed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="trivml", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, max_shell=True):
        p.add_argument("--tol", type=float, default=None, help="series tolerance / verify tolerance override")
        if max_shell:
            p.add_argument("--max-shell", dest="max_shell", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None, help="JSON file of option defaults; explicit flags win")

    p_eval = sub.add_parser("eval", help="evaluate the three-variable function at one point")
    for name in ("alpha", "beta", "gamma", "delta", "eta"):
        p_eval.add_argument(f"--{name}", type=float, default=None)
    for name in ("u", "v", "w"):
        p_eval.add_argument(f"--{name}", type=_parse_complex, default=None, help="complex as re or re,im")
    add_common(p_eval)

    p_univ = sub.add_parser("eval-univariate", help="evaluate the time-domain form at one abscissa")
    for name in ("alpha", "beta", "gamma", "delta", "eta", "lambda1", "lambda2", "lambda3", "r"):
        p_univ.add_argument(f"--{name}", type=float, default=None)
    add_common(p_univ)

    p_solve = sub.add_parser("solve", help="solve the three-order initial-value problem on a grid")
    for name in ("alpha", "beta", "gamma", "lambda1", "lambda2", "lambda3", "y0", "t_max"):
        p_solve.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float, default=None)
    p_solve.add_argument("--n-points", dest="n_points", type=int, default=None)
    p_solve.add_argument("--forcing", default=None, help="two-column CSV 'r,g', strictly increasing r from 0")
    p_solve.add_argument("--oracle", default=None, help="h=<step>: use the L1 time-stepping backend")
    p_solve.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=None)
    add_common(p_solve)

    p_verify = sub.add_parser("verify", help="run the cross-module identity checks")
    p_verify.add_argument("--only", default=None)
    add_common(p_verify, max_shell=False)  # each check keeps its own shell budget

    p_table = sub.add_parser("table", help="sweep the function families over parameters and r")
    for name in ("alpha", "beta", "gamma", "delta", "eta"):
        p_table.add_argument(f"--{name}", default=None, help="value or comma list")
    for name in ("u", "v", "w"):
        p_table.add_argument(f"--{name}", type=float, default=None, help="argument-slot scale (default 1)")
    p_table.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_table.add_argument("--n-points", dest="n_points", type=int, default=None)
    add_common(p_table)

    return top


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Options from the flags, with unset ones taken from the --config file.

    Each config value goes through the same conversion as its flag's
    command-line string.
    """
    opts = {k: v for k, v in vars(args).items() if k != "command"}
    cfg_path = opts.pop("config", None)
    if cfg_path:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        convert = {a.dest: a.type or str for a in commands.choices[args.command]._actions}
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise _IOFailure(f"cannot read config {cfg_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"config {cfg_path} is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise DomainError("config must be a JSON object of option values")
        for key, value in cfg.items():
            key = key.replace("-", "_")
            if key not in opts:
                raise DomainError(f"config option {key!r} is not recognized")
            if opts[key] is not None or value is None:
                continue  # explicit flags win; null leaves the option unset
            if isinstance(value, (bool, list, dict)):
                raise DomainError(f"config option {key!r} must be a string or a number, got {value!r}")
            try:
                opts[key] = convert[key](str(value))
            except ValueError as exc:
                raise DomainError(f"config option {key!r} has an invalid value {value!r}: {exc}")
    return opts


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_config(parser, args)
        return _COMMANDS[args.command](opts)
    except KeyError as exc:
        # str(KeyError) is the repr of its argument; print the message itself
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, ValueError, SingularStepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SeriesNotConvergedError, SeriesOverflowError, TalbotDivergenceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
