import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tame_lambdas, tame_params
from oracles import central_difference, grunwald_rl_derivative, rl_integral_quadrature

from trivml.errors import DomainError
from trivml.fractional import (
    FracOrder,
    GridFunction,
    caputo_derivative_univariate,
    caputo_l1_numeric,
    caputo_power,
    nth_derivative_univariate,
    rl_derivative_univariate,
    rl_integral_univariate,
)
from trivml.series import LambdaTriple, MLParams, SeriesControl, eval_univariate, eval_univariate_grid

CTRL = SeriesControl(rel_tol=1e-13, max_shell=700)


class TestNthDerivative:
    def test_n_zero_is_identity(self, rng):
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        assert nth_derivative_univariate(p, lam, 0, 0.8, CTRL) == pytest.approx(
            eval_univariate(p, lam, 0.8, CTRL).value, rel=1e-14
        )

    def test_exponential_case(self):
        # d/dr e^{3r} at r=1
        got = nth_derivative_univariate(MLParams(1, 1, 1, 1, 1), LambdaTriple(1, 1, 1), 1, 1.0, CTRL)
        assert got == pytest.approx(3.0 * math.exp(3.0), rel=1e-12)

    @pytest.mark.parametrize("n", range(6))
    def test_every_order_of_exp(self, n):
        # from n = 3 on the shifted delta puts the first shells on Gamma poles
        got = nth_derivative_univariate(MLParams(1, 1, 1, 1, 1), LambdaTriple(1, 0, 0), n, 1.0, CTRL)
        assert got == pytest.approx(math.e, rel=1e-13)

    def test_against_finite_difference(self, rng):
        for _ in range(10):
            p = tame_params(rng)
            lam = tame_lambdas(rng)
            r = rng.uniform(0.4, 1.5)
            got = nth_derivative_univariate(p, lam, 1, r, CTRL)
            ref = central_difference(lambda x: eval_univariate(p, lam, x, CTRL).value, r)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            nth_derivative_univariate(MLParams(1, 1, 1, 1, 1), LambdaTriple(0, 0, 0), 1, 0.0)


class TestRlIntegral:
    def test_small_order_continuity(self, rng):
        # continuity in the order: the shift delta -> delta + nu has O(1)
        # sensitivity, so nu = 1e-11 must move the value by < 1e-10 relative
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        base = eval_univariate(p, lam, 0.9, CTRL).value
        got = rl_integral_univariate(p, lam, FracOrder(1e-11), 0.9, CTRL)
        assert abs(got - base) <= 1e-10 * max(abs(base), 1.0)

    def test_integral_of_one(self):
        # lambdas 0, delta 1: the R-L half-integral of the constant 1
        got = rl_integral_univariate(
            MLParams(1, 1, 1, 1.0, 1.0), LambdaTriple(0, 0, 0), FracOrder(0.5), 1.0, CTRL
        )
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)

    def test_against_quadrature(self, rng):
        for _ in range(8):
            p = tame_params(rng)
            lam = tame_lambdas(rng)
            nu = rng.uniform(0.2, 1.2)
            y = rng.uniform(0.4, 1.4)
            got = rl_integral_univariate(p, lam, FracOrder(nu), y, CTRL)
            ref = rl_integral_quadrature(
                lambda s: eval_univariate(p, lam, s, CTRL).value,
                nu, y, n=96, endpoint_power=p.delta - 1.0,
            )
            assert got == pytest.approx(ref, rel=1e-7, abs=1e-9)

    def test_domain(self):
        p = MLParams(1, 1, 1, 1, 1)
        with pytest.raises(DomainError):
            rl_integral_univariate(p, LambdaTriple(0, 0, 0), FracOrder(0.5), 0.0)
        with pytest.raises(DomainError):
            rl_integral_univariate(p, LambdaTriple(0, 0, 0), FracOrder(0.5, offset_a=1.0), 0.5)


class TestRlDerivative:
    def test_order_zero_identity(self, rng):
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        assert rl_derivative_univariate(p, lam, FracOrder(0.0), 0.8, CTRL) == pytest.approx(
            eval_univariate(p, lam, 0.8, CTRL).value, rel=1e-14
        )

    def test_half_derivative_of_t(self):
        # D^(1/2) t = t^(1/2)/Gamma(3/2); delta = 2 realizes f(r) = r
        got = rl_derivative_univariate(
            MLParams(1, 1, 1, 2.0, 1.0), LambdaTriple(0, 0, 0), FracOrder(0.5), 1.0, CTRL
        )
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)

    def test_composition_with_integral(self, rng):
        for _ in range(20):
            p = tame_params(rng)
            lam = tame_lambdas(rng)
            nu = rng.uniform(0.1, 0.9)
            y = rng.uniform(0.3, 1.8)
            # integrate (delta -> delta+nu), then differentiate the result
            integrated = p.shifted(nu)
            back = rl_derivative_univariate(integrated, lam, FracOrder(nu), y, CTRL)
            direct = eval_univariate(p, lam, y, CTRL).value
            assert back == pytest.approx(direct, rel=1e-9, abs=1e-12)


class TestCaputo:
    def test_order_zero_identity(self, rng):
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        assert caputo_derivative_univariate(p, lam, FracOrder(0.0), 0.7, CTRL) == pytest.approx(
            eval_univariate(p, lam, 0.7, CTRL).value, rel=1e-14
        )

    def test_integer_order_consistency(self):
        p = MLParams(1, 1, 1, 1, 1)
        lam = LambdaTriple(1, 1, 1)
        got = caputo_derivative_univariate(p, lam, FracOrder(1.0), 0.9, CTRL)
        assert got == pytest.approx(nth_derivative_univariate(p, lam, 1, 0.9, CTRL), rel=1e-12)

    def test_matches_rl_for_delta_above_one(self, rng):
        for _ in range(100):
            a, b, g = rng.uniform(0.5, 1.5, 3)
            p = MLParams(a, b, g, rng.uniform(1.05, 2.5), rng.uniform(0.5, 2.0))
            lam = tame_lambdas(rng)
            nu = rng.uniform(0.05, min(0.95, p.delta - 0.05))
            y = rng.uniform(0.2, 2.0)
            ca = caputo_derivative_univariate(p, lam, FracOrder(nu), y, CTRL)
            rl = rl_derivative_univariate(p, lam, FracOrder(nu), y, CTRL)
            assert abs(ca - rl) <= 1e-10 * max(abs(rl), 1.0)

    def test_refuses_unjustified_region(self):
        p = MLParams(0.8, 0.6, 0.4, 0.5, 1.0)
        with pytest.raises(DomainError):
            caputo_derivative_univariate(p, LambdaTriple(0.1, 0.1, 0.1), FracOrder(0.7), 1.0)

    def test_l1_oracle_convergence(self):
        p = MLParams(1.1, 0.9, 0.7, 3.0, 1.3)
        lam = LambdaTriple(0.5, -0.4, 0.3)
        nu = 0.8
        y = 0.75
        ref = caputo_derivative_univariate(p, lam, FracOrder(nu), y, CTRL)
        errs = []
        for n in (192, 384, 768):
            grid = np.linspace(0.0, y, n + 1)
            vals, _ = eval_univariate_grid(p, lam, grid, CTRL)
            deriv = caputo_l1_numeric(GridFunction(grid, vals), nu)
            errs.append(abs(deriv.values[-1] - ref))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - (2.0 - nu)) <= 0.3


class TestCaputoPower:
    @pytest.mark.parametrize(
        "gexp,nu,r,expected",
        [
            (1.0, 0.5, 1.0, 1.1283791670955126),   # 1/Gamma(1.5)
            (2.0, 1.0, 0.6, 0.6),                  # d/dr r^2/2 = r
            (1.3, 0.6, 2.0, 1.7878445348804704),   # frozen beta-integral route
        ],
    )
    def test_known_values(self, gexp, nu, r, expected):
        assert caputo_power(gexp, FracOrder(nu), r) == pytest.approx(expected, rel=1e-13)

    def test_beta_route_live(self):
        # the proof evaluates (1/Gamma(1-nu)) * B(1-nu, gexp) * gexp / Gamma(gexp+1) * r^(gexp-nu)
        gexp, nu, r = 1.3, 0.6, 2.0
        bval = math.gamma(1.0 - nu) * math.gamma(gexp) / math.gamma(1.0 - nu + gexp)
        ref = bval * gexp / (math.gamma(gexp + 1.0) * math.gamma(1.0 - nu)) * r ** (gexp - nu)
        assert caputo_power(gexp, FracOrder(nu), r) == pytest.approx(ref, rel=1e-13)

    def test_precondition(self):
        with pytest.raises(DomainError):
            caputo_power(0.8, FracOrder(1.5), 1.0)  # gexp <= floor(nu) refused
        with pytest.raises(DomainError):
            caputo_power(2.0, FracOrder(0.5, offset_a=2.0), 1.5)

    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=0.1, max_value=2.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_semigroup(self, nu1, nu2, r):
        gexp = 2.2
        once = caputo_power(gexp, FracOrder(nu1 + nu2), r)
        twice = caputo_power(gexp - nu1, FracOrder(nu2), r)
        assert abs(twice - once) <= 1e-12 * max(abs(once), 1.0)


class TestL1Numeric:
    def test_constant_is_annihilated(self):
        grid = np.linspace(0.0, 1.0, 33)
        out = caputo_l1_numeric(GridFunction(grid, np.full(33, 4.2)), 0.5)
        assert np.max(np.abs(out.values)) == 0.0

    def test_linear_function_target(self):
        # f(r) = r has Caputo half-derivative r^0.5/Gamma(1.5); the L1 scheme
        # interpolates linears exactly, so this is hit at machine precision
        for n in (64, 256):
            grid = np.linspace(0.0, 1.0, n + 1)
            out = caputo_l1_numeric(GridFunction(grid, grid.copy()), 0.5)
            ref = grid[1:] ** 0.5 / math.gamma(1.5)
            assert np.max(np.abs(out.values - ref)) < 1e-12

    def test_order_validation(self):
        grid = np.linspace(0.0, 1.0, 9)
        for nu in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                caputo_l1_numeric(GridFunction(grid, grid.copy()), nu)

    def test_caputo_rl_relation_on_grid(self):
        # Caputo plus the g(0) power correction reproduces a Grunwald R-L
        # derivative at the schemes' shared first order; compared away from
        # the base point, where the r^(-nu) correction is finite
        nu = 0.4
        f = lambda r: np.cos(1.3 * r) + 2.0
        diffs = []
        for n in (128, 256):
            grid = np.linspace(0.0, 1.0, n + 1)
            vals = f(grid)
            caputo = caputo_l1_numeric(GridFunction(grid, vals), nu).values
            correction = vals[0] * grid[1:] ** (-nu) / math.gamma(1.0 - nu)
            rl_gl = grunwald_rl_derivative(vals, grid[1], nu)
            window = grid[1:] >= 0.2
            diffs.append(np.max(np.abs((caputo + correction - rl_gl)[window])))
        order = math.log2(diffs[0] / diffs[1])
        assert abs(order - 1.0) <= 0.3
        assert diffs[1] < 0.05

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 0.1, 0.3]), np.zeros(3))
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 0.1]), np.zeros(3))
        with pytest.raises(DomainError):
            caputo_l1_numeric(GridFunction(np.array([0.0, 0.1]), np.zeros(2)), 0.5)
