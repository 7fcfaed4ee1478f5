import math

import numpy as np
import pytest

from oracles import brute_univariate

from trivml import series, solver, verify
from trivml.errors import DomainError, SeriesNotConvergedError, SeriesOverflowError
from trivml.series import SeriesControl, eval_prabhakar
from trivml.solver import (
    Forcing,
    IVPSpec,
    SolutionTrace,
    _homog_grid,
    ml_params_for,
    numeric_oracle_solve,
    particular_solution,
    residual_check,
    solve,
    solve_homogeneous,
    solve_homogeneous_fox_wright,
    trinomial,
)

CTRL = SeriesControl(rel_tol=1e-13, max_shell=700)

# a decaying configuration every backend handles comfortably
TAME = IVPSpec(0.9, 0.5, 0.3, -0.7, -0.4, -0.6, 1.5)
# a mildly growing one with mixed signs
MIXED = IVPSpec(0.8, 0.6, 0.4, 0.5, 0.3, -0.4, 2.0)


class TestIVPSpec:
    def test_strict_ordering_enforced(self):
        for bad in [(0.8, 0.8, 0.4), (0.6, 0.7, 0.4), (0.8, 0.6, 0.0), (1.1, 0.6, 0.4)]:
            with pytest.raises(DomainError):
                IVPSpec(*bad, 0.1, 0.1, 0.1, 1.0)

    def test_alpha_one_allowed(self):
        spec = IVPSpec(1.0, 0.6, 0.4, 0.1, 0.1, 0.1, 1.0)
        assert solve_homogeneous(spec, 0.5, CTRL) == pytest.approx(
            solve_homogeneous(spec, 0.5, CTRL)
        )

    def test_kernel_parameter_mapping(self):
        # lambda2 rides the (alpha-gamma) slot, lambda3 the (alpha-beta) slot
        spec = IVPSpec(0.8, 0.6, 0.4, 0.5, 3.0, 5.0, 2.0)
        params = ml_params_for(spec, spec.alpha + 1.0)
        assert (params.alpha, params.beta, params.gamma, params.delta) == (
            0.8,
            pytest.approx(0.4),
            pytest.approx(0.2),
            1.8,
        )


class TestTrinomial:
    def test_values(self):
        assert trinomial(0, 0, 0) == 1
        assert trinomial(1, 1, 1) == 6
        assert trinomial(2, 1, 0) == 3

    def test_pascal_tetrahedron_exact(self):
        for q in range(1, 21):
            for l in range(1, q - 1):
                for p in range(1, q - l):
                    k = q - l - p
                    if k < 1:
                        continue
                    assert trinomial(l, p, k) == (
                        trinomial(l - 1, p, k) + trinomial(l, p - 1, k) + trinomial(l, p, k - 1)
                    )


class TestHomogeneous:
    def test_initial_value(self):
        assert solve_homogeneous(TAME, 0.0) == TAME.y0

    def test_single_order_reduces_to_two_parameter_ml(self, rng):
        # lambda2 = lambda3 = 0: y = E_alpha(lambda1 r^alpha) y0 via the
        # identity 1 + x E_{a,a+1}(x) = E_a(x)
        for lam1 in (-0.8, 0.5):
            spec = IVPSpec(0.8, 0.6, 0.4, lam1, 0.0, 0.0, 1.3)
            for r in (0.3, 0.9, 1.5):
                got = solve_homogeneous(spec, r, CTRL)
                ref = 1.3 * eval_prabhakar(0.8, 1.0, 1.0, lam1 * r**0.8, CTRL).value
                assert got == pytest.approx(ref, rel=1e-11)

    def test_against_brute_series(self):
        # brute_univariate already carries the r^(delta-1) = r^alpha prefactor
        spec = MIXED
        for r in (0.25, 0.75, 1.25):
            got = solve_homogeneous(spec, r, CTRL)
            e = brute_univariate(
                0.8, 0.4, 0.2, 1.8, 1.0, spec.lambda1, spec.lambda2, spec.lambda3, r
            )
            assert got == pytest.approx((1.0 + spec.lambda1 * e) * spec.y0, rel=1e-11)

    def test_fox_wright_assembly_matches(self):
        specs = (
            TAME,
            MIXED,
            IVPSpec(0.9, 0.6, 0.3, 0.4, -0.3, 0.5, 1.7),
            IVPSpec(0.9, 0.6, 0.3, 0.0, -0.3, 0.5, 1.7),  # lambda1 = 0
            IVPSpec(0.9, 0.6, 0.3, 0.4, 0.0, 0.5, 1.7),  # lambda2 = 0
            IVPSpec(0.9, 0.6, 0.3, 0.4, -0.3, 0.0, 1.7),  # lambda3 = 0
        )
        for spec in specs:
            for r in (0.25, 0.5, 0.75, 1.0):
                a = solve_homogeneous(spec, r, CTRL)
                b = solve_homogeneous_fox_wright(spec, r, CTRL)
                assert abs(a - b) <= 5e-14 * max(abs(a), 1.0)

    def test_fox_wright_sums_one_series_per_block(self, monkeypatch):
        # each block d = l + p is one weighted 1Psi1 series in k, not three
        # per (l, p) row; its numerator Gamma(d + 1 + k) names the block
        blocks, series_count = [], [0]
        wright_sum, sum_until_quiet = solver._wright_sum, series._sum_until_quiet

        def record_block(lam_num, *args):
            blocks.append(lam_num[0] - 1.0)
            return wright_sum(lam_num, *args)

        def count(*args):
            series_count[0] += 1
            return sum_until_quiet(*args)

        monkeypatch.setattr(solver, "_wright_sum", record_block)
        monkeypatch.setattr(series, "_sum_until_quiet", count)
        solve_homogeneous_fox_wright(MIXED, 0.75, CTRL)
        assert len(blocks) > 3 and blocks == list(range(len(blocks)))
        assert series_count[0] == len(blocks)

    @pytest.mark.parametrize("solver_fn", [solve_homogeneous, solve_homogeneous_fox_wright])
    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_is_a_domain_error(self, solver_fn, r):
        with pytest.raises(DomainError, match="requires a finite r"):
            solver_fn(MIXED, r, CTRL)

    @pytest.mark.parametrize(
        "spec, r, what",
        [
            (IVPSpec(0.9, 0.6, 0.3, 1e3, -0.3, 0.5, 1.7), 1.0, "block sum"),
            (IVPSpec(0.9, 0.6, 0.3, 1e8, -0.3, 0.5, 1.7), 1.0, "block sum"),
            (IVPSpec(0.9, 0.6, 0.3, 1e300, -0.3, 0.5, 1.7), 1.0, "prefactor of block d=2"),
            (IVPSpec(0.9, 0.6, 0.3, 0.4, -0.3, 1e308, 1.7), 100.0, "Wright series argument"),
        ],
    )
    def test_fox_wright_outside_double_range_overflows(self, spec, r, what):
        # finite inputs whose sum leaves the double range raise, with no
        # inf or nan passed on and no numpy overflow warning on the way
        with pytest.raises(SeriesOverflowError, match=what):
            solve_homogeneous_fox_wright(spec, r, CTRL)

    def test_particular_kernel_wright_assembly(self):
        # the forced-problem kernel admits an independent double-sum-of-1Psi1
        # expansion; both must produce the same function of the lag z
        from trivml.series import eval_fox_wright_1psi1, eval_univariate

        spec = IVPSpec(0.9, 0.6, 0.3, 0.4, -0.3, 0.5, 1.0)
        ab, ag, bg = spec.alpha - spec.beta, spec.alpha - spec.gamma, spec.beta - spec.gamma
        params = ml_params_for(spec, spec.alpha)
        for z in (0.1, 0.4, 0.7, 1.0):
            bare = eval_univariate(params, spec.lam, z, CTRL).value * z ** (1.0 - spec.alpha)
            x3 = spec.lambda3 * z**ab
            total = 0.0
            for d in range(60):
                block = 0.0
                for l in range(d + 1):
                    p = d - l
                    pre = (
                        spec.lambda1**l
                        * spec.lambda2**p
                        / (math.factorial(l) * math.factorial(p))
                        * z ** (ab * d + spec.beta * l + bg * p)
                    )
                    c0 = ab * d + spec.alpha + spec.beta * l + bg * p
                    block += pre * eval_fox_wright_1psi1((d + 1.0, 1.0), (c0, ab), x3, CTRL).value
                total += block
                if abs(block) <= 1e-14 * max(abs(total), 1.0) and d > 5:
                    break
            assert abs(total - bare) <= 1e-10 * max(abs(bare), 1.0)


class TestHomogeneousGrid:
    def test_matches_point_path(self):
        # both paths round relative to the sum of |terms|, which grows with r:
        # bound each point by its value at the next of 17 knots on [0, 1]
        # (the scale y0 (1 + |l1| sum|terms of the delta = alpha + 1 kernel|))
        p = ml_params_for(TAME, TAME.alpha + 1.0)
        knots = np.linspace(0.0, 1.0, 17)
        sum_abs = [0.0] + [
            brute_univariate(p.alpha, p.beta, p.gamma, p.delta, p.eta, *TAME.lam.as_tuple(), r, absolute=True)
            for r in knots[1:]
        ]
        for n in (256, 512):
            grid = np.linspace(0.0, 1.0, n + 1)
            got = _homog_grid(TAME, grid, CTRL)
            ref = np.array([solve_homogeneous(TAME, float(r), CTRL) for r in grid])
            scale = abs(TAME.y0) * (1.0 + abs(TAME.lambda1) * np.take(sum_abs, np.searchsorted(knots, grid)))
            assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * scale)

    def test_solve_matches_grid_on_oracle_agreement_grids(self):
        # verify's oracle-agreement check takes the closed form from the grid
        # path; keep solve() on the same values at that check's two grids
        spec, ctrl = verify._DAMPED, verify._CTRL
        for h in (1.0 / 128, 1.0 / 256):
            full = numeric_oracle_solve(spec, None, h, 1.0).grid
            grid = full[:: max(1, full.size // 33)]
            trace = solve(spec, None, grid, ctrl)
            assert trace.converged.all()
            diff = np.abs(trace.values - _homog_grid(spec, grid, ctrl))
            assert np.all(diff <= 16.0 * np.finfo(float).eps * abs(spec.y0))

    def test_initial_value_exact(self):
        for spec in (TAME, MIXED):
            assert _homog_grid(spec, np.array([0.0, 0.5, 1.0]), CTRL)[0] == spec.y0

    def test_budget_miss_raises(self):
        with pytest.raises(SeriesNotConvergedError):
            _homog_grid(TAME, np.linspace(0.0, 1.0, 9), SeriesControl(max_shell=2))


class TestParticular:
    def test_zero_forcing(self):
        assert particular_solution(TAME, Forcing.zero(), 0.8) == 0.0
        assert particular_solution(TAME, Forcing.from_callable(lambda r: 1.0), 0.0) == 0.0

    def test_no_lambdas_unit_forcing(self):
        # kernel collapses to (r-s)^(alpha-1)/Gamma(alpha): integral r^alpha/Gamma(alpha+1)
        spec = IVPSpec(0.8, 0.6, 0.4, 0.0, 0.0, 0.0, 0.0)
        for r in (0.4, 1.0):
            got = particular_solution(spec, Forcing.from_callable(lambda s: 1.0), r, 256, CTRL)
            assert got == pytest.approx(r**0.8 / math.gamma(1.8), rel=1e-10)

    def test_single_order_unit_forcing(self):
        # lambda2 = lambda3 = 0, g = 1: r^alpha E_{a, a+1}(lambda1 r^alpha)
        for alpha, lam1 in ((0.6, 0.7), (0.8, -0.5)):
            spec = IVPSpec(alpha, alpha * 0.7, alpha * 0.4, lam1, 0.0, 0.0, 0.0)
            for r in (0.5, 1.0):
                got = particular_solution(spec, Forcing.from_callable(lambda s: 1.0), r, 2048, CTRL)
                ref = r**alpha * eval_prabhakar(alpha, alpha + 1.0, 1.0, lam1 * r**alpha, CTRL).value
                assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)


class TestSolve:
    def test_zero_forcing_equals_homogeneous(self):
        grid = np.linspace(0.0, 1.0, 9)
        trace = solve(TAME, None, grid, CTRL)
        assert trace.backend == "series"
        for r, y in zip(grid, trace.values):
            assert y == pytest.approx(solve_homogeneous(TAME, float(r), CTRL), rel=1e-12)

    def test_zero_initial_value_equals_particular(self):
        spec = IVPSpec(0.9, 0.5, 0.3, -0.7, -0.4, -0.6, 0.0)
        g = Forcing.from_callable(lambda r: math.sin(r) + 1.2)
        grid = np.linspace(0.0, 1.0, 6)
        trace = solve(spec, g, grid, CTRL, quad_nodes=256)
        for r, y in zip(grid[1:], trace.values[1:]):
            assert y == pytest.approx(particular_solution(spec, g, float(r), 256, CTRL), rel=1e-10)

    def test_initial_condition_exact(self):
        g = Forcing.from_callable(lambda r: 2.0)
        trace = solve(MIXED, g, np.linspace(0.0, 0.8, 5), CTRL)
        assert trace.values[0] == MIXED.y0

    def test_unconverged_point_is_nan(self):
        # the worked example leaves the 400-shell budget at r = 0.125; its
        # partial sum (about 1e113) must not be reported as a value
        trace = solve(IVPSpec(0.8, 0.6, 0.4, 0.5, 3.0, 5.0, 2.0), None, [0.0, 0.125])
        assert trace.values[0] == 2.0 and trace.converged[0]
        assert math.isnan(trace.values[1])
        assert trace.abs_err[1] == math.inf and not trace.converged[1]

    def test_non_finite_forcing_value_is_not_converged(self):
        trace = solve(MIXED, Forcing.from_callable(lambda r: math.nan), np.linspace(0.0, 0.5, 3), CTRL)
        assert trace.values[0] == MIXED.y0 and trace.converged[0]  # g is not sampled at r = 0
        assert np.isnan(trace.values[1:]).all()
        assert (trace.abs_err[1:] == math.inf).all() and not trace.converged[1:].any()

    @pytest.mark.parametrize("quad_nodes", [0, -3, 5.5, True, "64"])
    def test_quad_nodes_validation(self, quad_nodes):
        g = Forcing.from_callable(lambda r: 1.0)
        with pytest.raises(DomainError, match="quad_nodes must be an integer >= 1"):
            solve(TAME, g, [0.0, 0.5], CTRL, quad_nodes=quad_nodes)
        with pytest.raises(DomainError, match="quad_nodes must be an integer >= 1"):
            particular_solution(TAME, g, 0.5, quad_nodes, CTRL)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            solve(TAME, None, [0.5, 1.0])
        with pytest.raises(DomainError):
            solve(TAME, None, [0.0, 0.5, 0.2])


class TestNumericOracle:
    def test_constant_solution(self):
        spec = IVPSpec(0.8, 0.6, 0.4, 0.0, 0.0, 0.0, 7.0)
        trace = numeric_oracle_solve(spec, None, 1.0 / 64, 1.0)
        assert np.max(np.abs(trace.values - 7.0)) < 1e-12
        assert trace.backend == "oracle"

    def test_single_order_converges_to_two_parameter_ml(self):
        spec = IVPSpec(0.8, 0.6, 0.4, -0.9, 0.0, 0.0, 1.0)
        errs = []
        for h in (1.0 / 128, 1.0 / 256):
            trace = numeric_oracle_solve(spec, None, h, 1.0)
            ref = np.array(
                [eval_prabhakar(0.8, 1.0, 1.0, -0.9 * r**0.8, CTRL).value for r in trace.grid]
            )
            errs.append(np.max(np.abs(trace.values - ref)))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3

    def test_converges_to_closed_form(self):
        diffs = []
        for h in (1.0 / 128, 1.0 / 256):
            oracle = numeric_oracle_solve(TAME, None, h, 1.0)
            sub = oracle.grid[:: max(1, oracle.grid.size // 17)]
            trace = solve(TAME, None, sub, CTRL)
            interp = np.interp(sub, oracle.grid, oracle.values)
            diffs.append(float(np.max(np.abs(trace.values - interp))))
        order = math.log2(diffs[0] / diffs[1])
        assert order >= 0.85
        assert diffs[1] < 5e-3

    def test_forced_problem_against_closed_form(self):
        g = Forcing.from_callable(lambda r: 0.5 * math.cos(2.0 * r))
        diffs = []
        for h in (1.0 / 128, 1.0 / 256):
            oracle = numeric_oracle_solve(TAME, g, h, 1.0)
            sub = oracle.grid[:: max(1, oracle.grid.size // 9)]
            trace = solve(TAME, g, sub, CTRL, quad_nodes=128)
            interp = np.interp(sub, oracle.grid, oracle.values)
            diffs.append(float(np.max(np.abs(trace.values - interp))))
        assert diffs[1] < diffs[0]
        assert diffs[1] < 5e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            numeric_oracle_solve(TAME, None, 0.0, 1.0)
        with pytest.raises(DomainError):
            numeric_oracle_solve(TAME, None, 0.5, 0.25)


class TestResidual:
    def test_constant_trace_zero_residual(self):
        # lambda1 = 0, g = 0: any constant is an exact solution and all three
        # discrete Caputo operators annihilate it
        spec = IVPSpec(0.8, 0.6, 0.4, 0.0, 1.7, -2.3, 5.0)
        grid = np.linspace(0.0, 1.0, 65)
        trace = SolutionTrace(grid, np.full(65, 5.0), "series", np.zeros(65), np.ones(65, bool))
        assert residual_check(spec, trace) <= 1e-12

    def test_noise_trace_detected(self, rng):
        grid = np.linspace(0.0, 1.0, 129)
        noise = rng.normal(size=129)
        trace = SolutionTrace(grid, noise, "series", np.zeros(129), np.ones(129, bool))
        assert residual_check(TAME, trace) > 10.0

    @pytest.mark.parametrize("path", ["point", "grid"])
    def test_exact_solution_refinement_order(self, path):
        errs = []
        for n in (256, 512):
            grid = np.linspace(0.0, 1.0, n + 1)
            if path == "grid":
                vals = _homog_grid(TAME, grid, CTRL)
            else:
                vals = np.array([solve_homogeneous(TAME, float(r), CTRL) for r in grid])
            trace = SolutionTrace(grid, vals, "series", np.zeros(n + 1), np.ones(n + 1, bool))
            errs.append(residual_check(TAME, trace, min_r=0.25))
        order = math.log2(errs[0] / errs[1])
        assert abs(order - (2.0 - TAME.alpha)) <= 0.3

    def test_nonuniform_grid_rejected(self):
        grid = np.array([0.0, 0.1, 0.3, 0.4])
        trace = SolutionTrace(grid, np.zeros(4), "series", np.zeros(4), np.ones(4, bool))
        with pytest.raises(DomainError):
            residual_check(TAME, trace)


class TestForcing:
    def test_table_interpolation(self):
        g = Forcing.from_table([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert g(0.5) == 1.0
        assert np.allclose(g(np.array([0.25, 1.5])), [0.5, 1.0])

    def test_table_validation(self):
        with pytest.raises(DomainError):
            Forcing.from_table([0.5, 1.0], [0.0, 1.0])  # must start at 0
        with pytest.raises(DomainError):
            Forcing.from_table([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            Forcing()

    @pytest.mark.parametrize("r, g", [
        ([0.0, math.nan, 1.0], [0.0, 1.0, 2.0]),  # NaN compares false, so a diff check alone passes it
        ([0.0, 0.5, math.inf], [0.0, 1.0, 2.0]),
        ([0.0, 0.5, 1.0], [0.0, math.nan, 2.0]),
        ([0.0, 0.5, 1.0], [0.0, -math.inf, 2.0]),
    ])
    def test_table_rejects_non_finite_samples(self, r, g):
        with pytest.raises(DomainError, match="must be finite"):
            Forcing.from_table(r, g)

    def test_callable_vectorization(self):
        g = Forcing.from_callable(lambda r: r * r)
        assert np.allclose(g(np.array([1.0, 2.0, 3.0])), [1.0, 4.0, 9.0])
