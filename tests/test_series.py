import math
import sys
import threading

import numpy as np
import pytest

from conftest import tame_lambdas, tame_params
from oracles import brute_bivariate, brute_prabhakar, brute_trivariate, brute_univariate

from trivml import series
from trivml.errors import DomainError, SeriesOverflowError
from trivml.quadrature import jacobi_01
from trivml.series import (
    EvalResult,
    LambdaTriple,
    MLParams,
    SeriesControl,
    eval_fox_wright_1psi1,
    eval_prabhakar,
    eval_trivariate,
    eval_univariate,
    eval_univariate_grid,
)

CTRL = SeriesControl(rel_tol=1e-13, max_shell=700)


class TestTrivariate:
    def test_triple_exponential(self):
        res = eval_trivariate(MLParams(1, 1, 1, 1, 1), 1.0, 1.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(math.exp(3.0), rel=1e-12)

    def test_zero_arguments_delta_one(self):
        res = eval_trivariate(MLParams(0.7, 1.4, 0.9, 1.0, 2.3), 0.0, 0.0, 0.0)
        assert res.value == 1.0 and res.converged

    def test_zero_arguments_general_delta(self):
        res = eval_trivariate(MLParams(0.7, 1.4, 0.9, 1.8, 2.3), 0.0, 0.0, 0.0)
        assert res.value == pytest.approx(1.0 / math.gamma(1.8), rel=1e-14)

    # frozen from the brute-force triple-loop oracle (tests/oracles.py), run
    # to convergence before these literals were written down
    @pytest.mark.parametrize(
        "params,args,expected,tol",
        [
            ((0.8, 0.4, 0.2, 1.8, 1.0), (0.5, 0.9, 1.1), 1394352.3711337543, 1e-11),
            (
                (0.8, 0.4, 0.2, 1.8, 1.0),
                (0.003465724215775731, 0.2497659622205619, 1.4426999059072134),
                24610.016015848894,
                1e-12,
            ),
            ((1.1, 0.7, 0.9, 0.6, -2.0), (0.7, -0.4, 1.1), -1.2062316363768033, 1e-13),
        ],
    )
    def test_frozen_oracle_values(self, params, args, expected, tol):
        res = eval_trivariate(MLParams(*params), *args, CTRL)
        assert res.converged
        assert res.value == pytest.approx(expected, rel=tol)

    def test_frozen_complex_value(self):
        res = eval_trivariate(
            MLParams(0.9, 1.3, 0.5, 1.2, 1.4), 0.3 + 0.4j, -0.2 + 0.1j, 0.5 - 0.3j, CTRL
        )
        assert res.value == pytest.approx(3.165057027476772 + 0.30382102644845616j, rel=1e-13)

    def test_against_live_oracle(self, rng):
        for _ in range(25):
            p = tame_params(rng)
            u, v, w = rng.uniform(-1.5, 1.5, 3)
            ref = brute_trivariate(p.alpha, p.beta, p.gamma, p.delta, p.eta, u, v, w)
            got = eval_trivariate(p, u, v, w, CTRL).value
            assert abs(got - ref.real) <= 1e-12 * max(abs(ref), 1.0)

    def test_negative_eta_terminates(self):
        # (-3)_q vanishes from q = 4 on: the function is a polynomial
        p = MLParams(0.9, 0.7, 0.5, 1.1, -3.0)
        res = eval_trivariate(p, 0.8, -0.6, 0.4, CTRL)
        assert res.converged and res.shells_used <= 5
        ref = brute_trivariate(0.9, 0.7, 0.5, 1.1, -3.0, 0.8, -0.6, 0.4)
        assert res.value == pytest.approx(ref.real, rel=1e-13)

    def test_nonpositive_delta_by_pole_skipping(self):
        # delta = 0: the (0,0,0) term dies on the Gamma pole, the rest survive
        p = MLParams(1.0, 1.0, 1.0, 0.0, 1.0)
        ref = brute_trivariate(1.0, 1.0, 1.0, 0.0, 1.0, 0.5, 0.25, 0.125)
        res = eval_trivariate(p, 0.5, 0.25, 0.125, CTRL)
        assert res.value == pytest.approx(ref.real, rel=1e-12)

    def test_slot_symmetry(self, rng):
        for _ in range(20):
            p = tame_params(rng)
            u, v, w = rng.uniform(-1.5, 1.5, 3)
            base = eval_trivariate(p, u, v, w, CTRL).value
            perm = eval_trivariate(
                MLParams(p.gamma, p.beta, p.alpha, p.delta, p.eta), w, v, u, CTRL
            ).value
            assert abs(base - perm) <= 1e-12 * max(abs(base), 1.0)

    def test_overflow_error(self):
        with pytest.raises(SeriesOverflowError):
            eval_trivariate(MLParams(0.3, 0.3, 0.3, 1.0, 1.0), 30.0, 30.0, 30.0,
                            SeriesControl(max_shell=3000))

    def test_error_estimate_honest(self, rng):
        for _ in range(10):
            p = tame_params(rng)
            u, v, w = rng.uniform(-1.0, 1.0, 3)
            res = eval_trivariate(p, u, v, w, CTRL)
            ref = brute_trivariate(p.alpha, p.beta, p.gamma, p.delta, p.eta, u, v, w)
            assert abs(res.value - ref) <= max(res.abs_error_estimate * 50.0, 1e-13)

    def test_converged_estimate_invariant(self, rng):
        # converged results must carry estimates within rel_tol * max(|value|, 1)
        ctrl = SeriesControl(rel_tol=1e-11, max_shell=500)
        for _ in range(30):
            p = tame_params(rng)
            u, v, w = rng.uniform(-2.0, 2.0, 3)
            res = eval_trivariate(p, u, v, w, ctrl)
            if res.converged:
                assert res.abs_error_estimate <= ctrl.rel_tol * max(abs(res.value), 1.0)
            res2 = eval_prabhakar(p.alpha, p.delta, p.eta, float(u), ctrl)
            if res2.converged:
                assert res2.abs_error_estimate <= ctrl.rel_tol * max(abs(res2.value), 1.0)

    def test_control_validation(self):
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                SeriesControl(rel_tol=tol)
        for max_shell in (0, 5.5, math.nan, math.inf, "5", True):
            with pytest.raises(DomainError):
                SeriesControl(max_shell=max_shell)
        assert SeriesControl(max_shell=np.int64(5)).max_shell == 5
        with pytest.raises(DomainError):
            MLParams(0.0, 1.0, 1.0, 1.0, 1.0)


# each engine sums exp(s) here, so all three reach the same stopping decisions
ENGINES = {
    "eval_trivariate": lambda s, ctrl: eval_trivariate(MLParams(1, 1, 1, 1, 1), s, 0.0, 0.0, ctrl),
    "eval_prabhakar": lambda s, ctrl: eval_prabhakar(1.0, 1.0, 1.0, s, ctrl),
    "eval_fox_wright_1psi1": lambda s, ctrl: eval_fox_wright_1psi1((1.0, 1.0), (1.0, 1.0), s, ctrl),
}


@pytest.mark.parametrize("engine", list(ENGINES))
class TestStoppingRule:
    def test_not_converged_flag(self, engine):
        res = ENGINES[engine](30.0, SeriesControl(max_shell=5))
        assert not res.converged and res.shells_used == 6

    def test_overflow_error(self, engine):
        # no single term of exp(710) overflows, only the partial sum does
        with pytest.raises(SeriesOverflowError) as info:
            ENGINES[engine](710.0, SeriesControl(max_shell=3000))
        if engine == "eval_trivariate":
            assert "params=MLParams(" in str(info.value) and "|u|,|v|,|w|=710," in str(info.value)


class TestUnivariate:
    def test_delta_one_zero_lambdas(self):
        res = eval_univariate(MLParams(0.8, 0.6, 0.4, 1.0, 1.0), LambdaTriple(0, 0, 0), 0.7)
        assert res.value == pytest.approx(1.0, rel=1e-14)

    def test_exponential_case(self):
        res = eval_univariate(MLParams(1, 1, 1, 1, 1), LambdaTriple(1, 1, 1), 1.0)
        assert res.value == pytest.approx(math.exp(3.0), rel=1e-12)

    def test_r_zero_rules(self):
        assert eval_univariate(MLParams(1, 1, 1, 2.0, 1), LambdaTriple(1, 1, 1), 0.0).value == 0.0
        assert eval_univariate(MLParams(1, 1, 1, 1.0, 1), LambdaTriple(1, 1, 1), 0.0).value == 1.0
        with pytest.raises(DomainError):
            eval_univariate(MLParams(1, 1, 1, 0.5, 1), LambdaTriple(1, 1, 1), 0.0)
        with pytest.raises(DomainError):
            eval_univariate(MLParams(1, 1, 1, 1.0, 1), LambdaTriple(1, 1, 1), -0.1)

    def test_solution_params_small_r_frozen(self):
        # the worked-example solution function at abscissae where the series
        # is well within double range (see notes on its growth elsewhere)
        p = MLParams(0.8, 0.4, 0.2, 1.8, 1.0)
        lam = LambdaTriple(0.5, 3.0, 5.0)
        assert eval_univariate(p, lam, 0.002, CTRL).value == pytest.approx(
            170.58305691351217, rel=1e-12
        )
        assert eval_univariate(p, lam, 0.005, CTRL).value == pytest.approx(
            1137690167.78147, rel=1e-12
        )

    def test_grid_matches_pointwise(self, rng):
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        rs = np.linspace(0.0, 1.5, 41) if p.delta >= 1.0 else np.linspace(0.05, 1.5, 40)
        grid_vals, probe = eval_univariate_grid(p, lam, rs, CTRL)
        assert probe.converged
        for r, gv in zip(rs, grid_vals):
            assert gv == pytest.approx(eval_univariate(p, lam, float(r), CTRL).value,
                                       rel=1e-11, abs=1e-13)

    def test_grid_prunes_zero_lambdas(self, rng):
        # zeroed coefficient slots collapse the index set; values must agree
        # with the full evaluator regardless
        p = tame_params(rng)
        lam = LambdaTriple(0.6, 0.0, 0.0)
        rs = np.linspace(0.1, 1.2, 12)
        grid_vals, _ = eval_univariate_grid(p, lam, rs, CTRL)
        for r, gv in zip(rs, grid_vals):
            assert gv == pytest.approx(eval_univariate(p, lam, float(r), CTRL).value,
                                       rel=1e-12)


class TestArgumentRange:
    P = MLParams(0.9, 0.7, 0.5, 1.3, 1.0)
    LAM = LambdaTriple(0.5, -0.4, 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_a_domain_error(self, bad):
        calls = [
            lambda: eval_univariate(self.P, self.LAM, bad),
            lambda: eval_univariate_grid(self.P, self.LAM, np.array([0.5, bad])),
            lambda: eval_trivariate(self.P, 0.5, bad, 0.5),
            lambda: eval_trivariate(self.P, complex(0.5, bad), 0.5, 0.5),
            lambda: eval_prabhakar(0.9, 1.3, 1.0, bad),
            lambda: eval_fox_wright_1psi1((1.0, 1.0), (1.0, 1.0), bad),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="finite"):
                call()

    @pytest.mark.parametrize("p, lam, r", [
        (MLParams(1.5, 0.7, 0.5, 1.3, 1.0), LAM, 1e300),  # r^alpha
        (MLParams(1.0, 0.7, 0.5, 1.3, 1.0), LambdaTriple(1e300, 0.0, 0.0), 1e10),  # lambda1 r^alpha
        (MLParams(0.9, 0.7, 0.5, -1.5, 1.0), LAM, 1e-200),  # r^(delta-1)
    ])
    def test_argument_outside_double_range_overflows(self, p, lam, r):
        for call in (lambda: eval_univariate(p, lam, r), lambda: eval_univariate_grid(p, lam, np.array([r]))):
            with pytest.raises(SeriesOverflowError, match=r"params=MLParams\(alpha="):
                call()

    def test_numpy_abscissa_outside_double_range_overflows(self):
        # numpy's scalar ** returns inf with a RuntimeWarning where a float's
        # raises OverflowError; the engine must raise the same error for both
        with pytest.raises(SeriesOverflowError, match="at r=1e\\+300 overflow"):
            eval_univariate(MLParams(1.5, 1, 1, 1, 1), LambdaTriple(1, 1, 1), np.float64(1e300))


# (params, lambdas, abscissae) covering the slot patterns and grid shapes of
# the grid path; grids from 0 take the r = 0 rule (delta >= 1)
_GRID_CASES = {
    "all-nonzero": (MLParams(0.9, 0.7, 1.2, 1.4, 1.3), (0.7, -0.5, 0.6), np.linspace(0.0, 1.5, 13)),
    "one-zero": (MLParams(0.8, 1.1, 0.6, 1.0, 0.9), (0.7, 0.0, -0.6), np.linspace(0.0, 1.5, 13)),
    "two-zero": (MLParams(0.6, 0.9, 1.3, 2.1, 1.7), (0.0, -1.2, 0.0), np.linspace(0.0, 2.0, 13)),
    "all-negative": (MLParams(1.1, 0.8, 0.5, 1.6, 0.7), (-0.9, -0.7, -1.1), np.linspace(0.0, 1.5, 13)),
    "delta-below-one": (MLParams(0.7, 1.0, 0.9, 0.6, 1.2), (0.5, 0.4, -0.8), np.linspace(0.05, 1.5, 13)),
    "terminating-eta": (MLParams(0.9, 0.6, 1.1, 1.3, -3.0), (1.5, -2.0, 0.8), np.linspace(0.0, 2.0, 13)),
    "jacobi-nodes": (MLParams(1.2, 0.5, 0.8, 1.2, 1.5), (-1.3, 0.9, 0.4), 1.8 * jacobi_01(16, 0.4, -0.3)[0]),
}


class TestUnivariateGrid:
    @pytest.mark.parametrize("case", list(_GRID_CASES))
    def test_matches_brute_oracle(self, case):
        # Each term passes, on either side, through an exp whose argument (a
        # sum of logs) reaches a few tens in size here, so its relative error
        # is up to a few tens of eps (measured: at most 3.4 eps sum|terms| on
        # these grids).  64 eps sum|terms| covers both sides; a wrong term or
        # power is off by far more.  The tight rel_tol keeps the truncation
        # far below that.
        p, lam, rs = _GRID_CASES[case]
        ctrl = SeriesControl(rel_tol=1e-16, max_shell=700)
        vals, probe = eval_univariate_grid(p, LambdaTriple(*lam), rs, ctrl)
        assert probe.converged
        # the grid sums the shells at rmax itself, exactly as eval_univariate does
        assert _bits(probe) == _bits(eval_univariate(p, LambdaTriple(*lam), float(rs.max()), ctrl))
        eps = np.finfo(float).eps
        for r, val in zip(rs, vals):
            args = (p.alpha, p.beta, p.gamma, p.delta, p.eta, *lam, float(r))
            scale = brute_univariate(*args, absolute=True)
            assert abs(val - brute_univariate(*args)) <= 64 * eps * scale, f"r={r}"

    def test_probe_overflow_raises(self):
        # the terms at rmax leave the double range; the message names the parameters
        with pytest.raises(SeriesOverflowError, match=r"params=MLParams\(alpha=1, beta=1, gamma=1"):
            eval_univariate_grid(MLParams(1, 1, 1, 1, 1), LambdaTriple(800, 0, 0), np.linspace(0, 1, 5), CTRL)

    def test_small_abscissa_overflow_raises(self):
        # the probe at rmax = 1 is finite, but r^(delta-1) at r = 1e-300 is not
        rs = np.array([1e-300, 0.5, 1.0])
        with pytest.raises(SeriesOverflowError):
            eval_univariate_grid(MLParams(0.9, 0.7, 0.5, -0.5, 1), LambdaTriple(0.5, -0.4, 0.3), rs, CTRL)

    def test_one_shell_walk_per_call(self, monkeypatch):
        # the shells at rmax are walked once, for the probe and the coefficients alike
        walks = []
        real = series._walk

        def counting(*args):
            walks.append(args[2])
            return real(*args)

        monkeypatch.setattr(series, "_walk", counting)
        p, lam, rs = _GRID_CASES["all-nonzero"]
        eval_univariate_grid(p, LambdaTriple(*lam), rs, CTRL)
        assert walks == [CTRL.max_shell]

    @pytest.mark.usefixtures("cold_tables")
    def test_single_call_stores_no_block(self):
        # one grid call is one call of its key, so parameters used once keep nothing
        p, lam, rs = _GRID_CASES["all-nonzero"]
        eval_univariate_grid(p, LambdaTriple(*lam), rs, CTRL)
        assert series._table.cache_info().currsize == 1
        assert not _stored_blocks(p, tuple(x * rs.max() for x in lam))


class TestPrabhakar:
    def test_exponential(self):
        assert eval_prabhakar(1.0, 1.0, 1.0, 1.0).value == pytest.approx(math.e, rel=1e-13)

    def test_zero_argument(self):
        assert eval_prabhakar(0.7, 1.9, 1.3, 0.0).value == pytest.approx(
            1.0 / math.gamma(1.9), rel=1e-14
        )

    def test_frozen_value(self):
        # frozen from the brute single-series oracle
        assert eval_prabhakar(0.8, 1.0, 1.0, 0.7, CTRL).value == pytest.approx(
            2.248984661491248, rel=1e-13
        )

    def test_reduction_to_trivariate(self):
        got = eval_prabhakar(0.8, 1.0, 1.0, 0.7, CTRL).value
        via_triv = eval_trivariate(MLParams(0.8, 1.1, 0.9, 1.0, 1.0), 0.7, 0.0, 0.0, CTRL).value
        assert abs(got - via_triv) <= 1e-12

    def test_against_live_oracle(self, rng):
        for _ in range(25):
            alpha = rng.uniform(0.4, 1.6)
            delta = rng.uniform(0.5, 2.5)
            eta = rng.uniform(0.3, 2.5)
            s = rng.uniform(-2.5, 2.5)
            ref = brute_prabhakar(alpha, delta, eta, s)
            got = eval_prabhakar(alpha, delta, eta, s, CTRL).value
            assert abs(got - ref.real) <= 1e-12 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.3])
    def test_two_parameter_identity(self, alpha):
        # 1 + s E_{a, a+1}(s) = E_a(s); float64 cancellation in the
        # alternating tail near s = -3 carries ~1e5-magnitude terms
        for s in np.linspace(-3.0, 3.0, 25):
            lhs = 1.0 + s * eval_prabhakar(alpha, alpha + 1.0, 1.0, float(s), CTRL).value
            rhs = eval_prabhakar(alpha, 1.0, 1.0, float(s), CTRL).value
            assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_prabhakar(0.0, 1.0, 1.0, 0.5)


class TestFoxWright:
    def test_exponential_case(self):
        # Gamma(1+k)/(Gamma(1+k) k!) sums to e^s
        res = eval_fox_wright_1psi1((1.0, 1.0), (1.0, 1.0), 1.0)
        assert res.value == pytest.approx(math.e, rel=1e-13)

    def test_zero_argument(self):
        res = eval_fox_wright_1psi1((1.0, 0.0), (1.0, 0.0), 0.0)
        assert res.value == 1.0

    def test_convergence_precondition(self):
        with pytest.raises(DomainError):
            eval_fox_wright_1psi1((1.0, 2.0), (1.0, 0.5), 0.5)

    def test_matches_prabhakar_form(self):
        # eta=1 three-parameter series equals 1Psi1 with numerator (1,1)
        alpha, delta, s = 0.7, 1.3, 0.9
        fw = eval_fox_wright_1psi1((1.0, 1.0), (delta, alpha), s, CTRL).value
        pr = eval_prabhakar(alpha, delta, 1.0, s, CTRL).value
        assert fw == pytest.approx(pr, rel=1e-13)


class TestBivariateReduction:
    def test_w_zero_matches_double_sum(self, rng):
        for _ in range(25):
            p = tame_params(rng)
            u, v = rng.uniform(-2.0, 2.0, 2)
            got = eval_trivariate(p, u, v, 0.0, CTRL).value
            ref = brute_bivariate(p.alpha, p.beta, p.delta, p.eta, u, v)
            assert abs(got - ref.real) <= 1e-11 * max(abs(ref), 1.0)

    def test_exponential_identity_spot(self):
        for u, v, w in ((-2.0, 1.0, 2.0), (2.0, 2.0, 2.0), (-1.0, -1.0, -1.0)):
            got = eval_trivariate(MLParams(1, 1, 1, 1, 1), u, v, w, CTRL).value
            assert abs(got - math.exp(u + v + w)) <= 1e-10 * abs(math.exp(u + v + w))


def _bits(res: EvalResult):
    return (repr(complex(res.value)), repr(res.abs_error_estimate), res.shells_used, res.converged)


@pytest.fixture
def cold_tables():
    """Empty the shell tables before and after the test."""
    series._table.cache_clear()
    yield
    series._table.cache_clear()


def _stored_blocks(params, args) -> dict:
    """The blocks stored for params and the slot pattern of args, by first shell."""
    slots = [series._arg_parts(z) for z in args]
    table = series._table(params, tuple((s[0], s[3] < 0.0) for s in slots))
    return {q0: block for q0, block in table.items() if isinstance(q0, int)}


@pytest.mark.usefixtures("cold_tables")
class TestShellTable:
    P = MLParams(0.9, 1.3, 0.5, 1.2, 1.4)

    def _cold(self, fn):
        series._table.cache_clear()
        return fn()

    def test_warm_matches_cold_across_slot_patterns(self):
        # sign flips, a zero slot and complex arguments share params but not
        # patterns; each filler shares its pattern with the reader beside it
        pairs = [
            ((0.7, 0.4, 1.1), (0.2, 0.9, 0.3)),
            ((-0.7, 0.4, -1.1), (-0.1, 0.8, -2.0)),
            ((-0.7, 0.0, -1.1), (-1.7, 0.0, -0.1)),
            ((0.3 + 0.4j, -0.2, 0.5 - 0.3j), (-0.6j, -1.2, 0.1 + 0.1j)),
        ]
        readers = [reader for _, reader in pairs]
        cold = [self._cold(lambda: _bits(eval_trivariate(self.P, *a, CTRL))) for a in readers]
        for filler, _ in pairs:
            series._table.cache_clear()
            for _ in range(2):
                eval_trivariate(self.P, *filler, CTRL)
            assert [_bits(eval_trivariate(self.P, *a, CTRL)) for a in readers] == cold

    def test_params_are_part_of_the_key(self):
        cold = self._cold(lambda: _bits(eval_trivariate(self.P, 0.7, 0.4, 1.1, CTRL)))
        for _ in range(2):
            eval_trivariate(self.P.shifted(0.5), 0.7, 0.4, 1.1, CTRL)
        assert _bits(eval_trivariate(self.P, 0.7, 0.4, 1.1, CTRL)) == cold

    def test_params_used_once_retain_no_shells(self):
        eval_trivariate(self.P, 0.7, 0.4, 1.1, CTRL)
        assert series._table.cache_info().currsize == 1
        assert not _stored_blocks(self.P, (0.7, 0.4, 1.1))
        eval_trivariate(self.P, 0.2, 0.3, 0.1, CTRL)
        assert _stored_blocks(self.P, (0.7, 0.4, 1.1))

    def test_larger_max_shell_extends_the_table(self):
        cold = self._cold(lambda: _bits(eval_trivariate(self.P, 2.5, -1.5, 2.0, CTRL)))
        series._table.cache_clear()
        for _ in range(2):  # the second call stores the first block
            short = eval_trivariate(self.P, 2.5, -1.5, 2.0, SeriesControl(max_shell=5))
        assert not short.converged
        assert _bits(eval_trivariate(self.P, 2.5, -1.5, 2.0, CTRL)) == cold

    def test_shells_past_the_stored_range(self):
        # exp(60) sums more shells than a table keeps
        p = MLParams(1, 1, 1, 1, 1)
        cold = self._cold(lambda: _bits(eval_trivariate(p, 60.0, 0.0, 0.0, CTRL)))
        assert cold[2] > series._TABLE_MAX_Q + 1
        for _ in range(2):  # the first call stores the table, the second reads it
            assert _bits(eval_trivariate(p, 60.0, 0.0, 0.0, CTRL)) == cold
        assert sorted(_stored_blocks(p, (60.0, 0.0, 0.0))) == list(range(0, series._TABLE_MAX_Q, series._SHELL_BLOCK))
        assert series._TABLE_MAX_Q % series._SHELL_BLOCK == 0  # the stored range ends at q = 95

    def test_terminating_eta(self):
        # (-11)_q vanishes from q = 12 on, inside the second block
        p = MLParams(0.9, 0.7, 0.5, 1.1, -11.0)
        cold = self._cold(lambda: _bits(eval_trivariate(p, 0.8, -0.6, 0.4, CTRL)))
        assert cold[2] == 13
        series._table.cache_clear()
        for _ in range(2):
            eval_trivariate(p, 0.8, -0.6, 0.4, SeriesControl(max_shell=2))
        assert sorted(_stored_blocks(p, (0.8, -0.6, 0.4))) == [0]
        for _ in range(2):  # the first call completes the table, the second reads it
            assert _bits(eval_trivariate(p, 0.8, -0.6, 0.4, CTRL)) == cold
        assert sorted(_stored_blocks(p, (0.8, -0.6, 0.4))) == [0, series._SHELL_BLOCK]

    def test_third_call_builds_no_stored_block(self, monkeypatch):
        # the first call stores nothing, the second stores what it builds
        # below the stored range, the third builds only the shells past it
        real = series._shell_block
        built = []

        def counting(params, pattern, poch, q0):
            built.append(q0)
            return real(params, pattern, poch, q0)

        monkeypatch.setattr(series, "_shell_block", counting)
        p = MLParams(1, 1, 1, 1, 1)
        calls = []
        for _ in range(3):
            built.clear()
            eval_trivariate(p, 60.0, 0.0, 0.0, CTRL)
            calls.append(list(built))
        first, second, third = calls
        assert first == second == list(range(0, first[-1] + 1, series._SHELL_BLOCK))
        assert first[-1] >= series._TABLE_MAX_Q
        assert third == [q0 for q0 in first if q0 >= series._TABLE_MAX_Q]

    def test_univariate_grid_warm_matches_cold(self):
        # the first two calls evaluate freshly built blocks whole, the third
        # reads the stored blocks shell by shell
        lam = LambdaTriple(-0.6, 0.0, 0.3)
        rs = np.linspace(0.0, 1.5, 9)
        cold_vals, cold_probe = self._cold(lambda: eval_univariate_grid(self.P, lam, rs, CTRL))
        for _ in range(2):
            vals, probe = eval_univariate_grid(self.P, lam, rs, CTRL)
            assert vals.tobytes() == cold_vals.tobytes() and _bits(probe) == _bits(cold_probe)
        assert _stored_blocks(self.P, tuple(x * rs.max() for x in lam.as_tuple()))

    def test_one_terms_pass_per_fresh_block(self, monkeypatch):
        # a block built by the walk is evaluated in one _shell_terms call, a
        # stored block shell by shell
        real = series._shell_terms
        calls = []

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(series, "_shell_terms", counting)
        p = MLParams(1, 1, 1, 1, 1)  # E(u, v, w) = exp(u + v + w)
        per_call = []
        for _ in range(3):  # cold, storing, then read from the table
            calls.clear()
            res = eval_trivariate(p, 20.0, 20.0, 20.0, CTRL)
            per_call.append(len(calls))
        past = res.shells_used - series._TABLE_MAX_Q
        assert past > series._SHELL_BLOCK  # the walk reads past the stored range
        blocks = -(-res.shells_used // series._SHELL_BLOCK)
        assert per_call == [blocks, blocks, series._TABLE_MAX_Q + -(-past // series._SHELL_BLOCK)]

    def test_blocks_keep_alive_only_stored_shells(self):
        # a solve reads a few more shells at each larger r, and a budget sweep
        # carries the table past the stored range; every shell of a stored
        # block is a view of that block's arrays, which its shells cover
        lam = LambdaTriple(-0.7, -0.4, -0.6)
        for r in np.linspace(0.05, 6.0, 60):
            eval_univariate(self.P, lam, float(r), CTRL)
        for max_shell in range(1, series._TABLE_MAX_Q + 12, 3):
            eval_trivariate(self.P, 0.7, -0.4, 1.1, SeriesControl(max_shell=max_shell))
        for args in [lam.as_tuple(), (0.7, -0.4, 1.1)]:
            blocks = _stored_blocks(self.P, args).values()
            assert len(blocks) > 2
            for block in blocks:
                arrays = [a for shell in block for a in shell]
                alive = {id(b): b.nbytes for b in (a if a.base is None else a.base for a in arrays)}
                stored = {id(a): a.nbytes for a in arrays if a.base is None}
                stored_views = sum(a.nbytes for a in arrays if a.base is not None)
                assert sum(alive.values()) == sum(stored.values()) + stored_views

    def test_bounded_number_of_tables(self):
        for i in range(3 * series._SHELL_TABLES):
            eval_trivariate(MLParams(0.9, 0.8, 0.7, 1.0 + 0.1 * i, 1.0), 0.5, 0.5, 0.5)
            assert series._table.cache_info().currsize <= series._SHELL_TABLES

    def test_threads_share_a_table(self):
        # more threads than cores, switching often, all growing one table
        args = [(0.1 * i, -0.05 * i, 0.02 * i + 0.3j) for i in range(1, 25)]
        serial = [self._cold(lambda: _bits(eval_trivariate(self.P, *a, CTRL))) for a in args]
        series._table.cache_clear()
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        got = [None] * n_threads

        def work(slot):
            barrier.wait()
            got[slot] = [_bits(eval_trivariate(self.P, *a, CTRL)) for a in args]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [serial] * n_threads


@pytest.mark.usefixtures("cold_tables")
class TestIndexBlocks:
    """The parameter-free index blocks that every shell table is built from."""

    @staticmethod
    def _bytes(block):
        *arrays, sizes, parts = block
        return [a.tobytes() for a in arrays], sizes.tobytes(), parts

    def test_cache_is_bounded_and_parameter_free(self, monkeypatch):
        monkeypatch.setattr(series, "_index_blocks", {})
        rng = np.random.default_rng(5)
        patterns = [(0.7, -0.4, 1.1), (0.0, 0.5, -0.3), (0.6, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3 + 0.2j, 0.0, -0.9)]
        used = []
        for block_size in (series._SHELL_BLOCK, 1):
            with monkeypatch.context() as m:
                m.setattr(series, "_SHELL_BLOCK", block_size)
                for _ in range(3):
                    p = MLParams(*rng.uniform(0.4, 1.4, 3), rng.uniform(-1.0, 2.0), rng.uniform(0.5, 2.0))
                    for args in patterns:
                        for max_shell in (5, series._TABLE_MAX_Q + 14):
                            res = eval_trivariate(p, *[40.0 * z for z in args], SeriesControl(max_shell=max_shell))
                            used.append(res.shells_used)
        assert max(used) > series._TABLE_MAX_Q + 1  # the sweep built blocks past the cached range
        cached = dict(series._index_blocks)
        assert {size for _, _, size in cached} == {series._SHELL_BLOCK, 1}
        n_patterns = 2**3
        assert len(cached) <= n_patterns * sum(series._TABLE_MAX_Q // size for size in (series._SHELL_BLOCK, 1))
        for (q0, zero_dirs, size), block in cached.items():
            assert q0 < series._TABLE_MAX_Q and q0 % size == 0
            l, p, k, *gathers, sizes, parts = block
            assert len(parts) == size and all(a.size == sizes.sum() for a in (l, p, k, *gathers))
            assert not any(a.flags.writeable for a in (l, p, k, *gathers, sizes))
            # the entry is what its key alone builds: no parameter went into it
            monkeypatch.setattr(series, "_index_blocks", {})
            assert self._bytes(series._index_block(q0, zero_dirs, size)) == self._bytes(block)

    def test_blocks_past_the_cached_range_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(series, "_index_blocks", {})
        q0 = series._TABLE_MAX_Q
        first = series._index_block(q0, (), series._SHELL_BLOCK)
        assert not series._index_blocks
        assert self._bytes(series._index_block(q0, (), series._SHELL_BLOCK)) == self._bytes(first)

    def test_shells_enumerate_the_simplex(self):
        for zero_dirs in [(), (1,), (0, 2), (0, 1, 2)]:
            l, p, k, lf_l, lf_p, lf_k, sizes, parts = series._index_block(8, zero_dirs, 8)
            for q, part in zip(range(8, 16), parts):
                want = [
                    (a, b, q - a - b)
                    for a in range(q + 1)
                    for b in range(q - a + 1)
                    if all((a, b, q - a - b)[d] == 0 for d in zero_dirs)
                ]
                got = [] if part is None else list(zip(l[part].tolist(), p[part].tolist(), k[part].tolist()))
                assert got == want
            assert lf_l.tobytes() == series._logfact(16)[l].tobytes()
            assert lf_p.tobytes() == series._logfact(16)[p].tobytes()
            assert lf_k.tobytes() == series._logfact(16)[k].tobytes()
            assert sizes.tolist() == [0 if part is None else part.stop - part.start for part in parts]


def _shell_bytes(walk):
    shells = [sh for arrays, block in walk for sh in (block if arrays is None else series._views(arrays, block))]
    return [None if sh is None else tuple((a.dtype.str, a.tobytes()) for a in sh) for sh in shells]


@pytest.mark.usefixtures("cold_tables")
class TestBlockBuild:
    """Shells and single-index denominators built a block at a time match,
    bit for bit, the same code building one shell or one term per kernel call."""

    SLOTS = {
        "positive": (0.7, 0.4, 1.1),
        "negative-parity": (-0.7, 0.4, -1.1),
        "zero-slot": (-0.7, 0.0, 1.1),
        "all-zero": (0.0, 0.0, 0.0),  # pruning empties every shell past q = 0
        "complex": (0.3 + 0.4j, -0.2, 0.5 - 0.3j),
    }

    @staticmethod
    def _unblocked(monkeypatch, fn):
        with monkeypatch.context() as m:
            m.setattr(series, "_SHELL_BLOCK", 1)
            m.setattr(series, "_TERM_BLOCK", 1)
            series._table.cache_clear()
            out = fn()
        series._table.cache_clear()
        return out

    @staticmethod
    def _outcome(fn):
        try:
            return _bits(fn())
        except (DomainError, SeriesOverflowError) as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("eta", [1.4, -3.0, -9.0, -11.0])
    @pytest.mark.parametrize("slots", list(SLOTS))
    def test_shells_for_every_budget(self, monkeypatch, slots, eta):
        # negative integer eta ends the series inside the first or second block
        p = MLParams(0.9, 1.3, 0.5, -0.7, eta)
        parts = tuple(series._arg_parts(z) for z in self.SLOTS[slots])
        for qmax in range(2 * series._SHELL_BLOCK + 2):
            want = self._unblocked(monkeypatch, lambda: _shell_bytes(series._walk(p, parts, qmax)))
            for _ in range(3):  # cold, storing, then read from the table
                assert _shell_bytes(series._walk(p, parts, qmax)) == want
            series._table.cache_clear()

    @pytest.mark.parametrize("eta", [1.4, -3.0, -9.0, -11.0])
    @pytest.mark.parametrize("slots", list(SLOTS))
    def test_trivariate_values(self, monkeypatch, slots, eta):
        # small arguments stop reading inside the first block, then budgets
        # across two blocks read on; the table carried across these calls
        # must give what a cold, unblocked build gives for each
        p = MLParams(0.9, 1.3, 0.5, 1.2, eta)
        calls = [(1e-3, 700)] * 2 + [(3.0, m) for m in range(1, 2 * series._SHELL_BLOCK + 2)] + [(3.0, 700)]

        def outcomes(cold):
            out = []
            for scale, max_shell in calls:
                if cold:
                    series._table.cache_clear()
                args = [scale * z for z in self.SLOTS[slots]]
                ctrl = SeriesControl(rel_tol=1e-13, max_shell=max_shell)
                out.append(self._outcome(lambda: eval_trivariate(p, *args, ctrl)))
            return out

        assert outcomes(cold=False) == self._unblocked(monkeypatch, lambda: outcomes(cold=True))

    @pytest.mark.parametrize("s", [0.0, 0.8, -2.5, 30.0, 1.5 - 2.0j, 720.0])
    def test_single_index_engines(self, monkeypatch, s):
        # at 720 the first Prabhakar series overflows on a single term and the
        # last two 1Psi1 series in their partial sums; each must raise at the
        # same term
        calls = [
            lambda ctrl: eval_prabhakar(0.7, -0.4, 1.3, s, ctrl),
            lambda ctrl: eval_prabhakar(1.0, 1.0, -9.0, s, ctrl),
            lambda ctrl: eval_fox_wright_1psi1((0.3, 0.5), (-0.6, 0.9), s, ctrl),
            lambda ctrl: eval_fox_wright_1psi1((1.0, 1.0), (1.0, 1.0), s, ctrl),
            lambda ctrl: series._wright_sum((1.0, 1.0), 1.0, [1.0, -0.6], [1.0, -0.5], s, ctrl),
        ]
        budgets = [1, 15, 16, 17, 33, 3000]
        for call in calls:
            for max_shell in budgets:
                run = lambda: self._outcome(lambda: call(SeriesControl(max_shell=max_shell)))
                assert run() == self._unblocked(monkeypatch, run)

    def test_numerator_pole_past_the_stopping_term(self, monkeypatch):
        # Gamma(20 - k) has a pole at k = 20: a series that stops before it
        # must not raise, one that reaches it raises at that term
        quiet = eval_fox_wright_1psi1((20.0, -1.0), (1.0, 1.0), 0.1)
        assert quiet.converged and quiet.shells_used < series._TERM_BLOCK
        assert _bits(quiet) == self._unblocked(
            monkeypatch, lambda: _bits(eval_fox_wright_1psi1((20.0, -1.0), (1.0, 1.0), 0.1)))
        with pytest.raises(DomainError, match="at term 20 "):
            eval_fox_wright_1psi1((20.0, -1.0), (1.0, 1.0), 1e4)

