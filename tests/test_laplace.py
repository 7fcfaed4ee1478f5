import math

import numpy as np
import pytest

from conftest import tame_lambdas, tame_params
from oracles import laplace_forward_quadrature, laplace_forward_truncated

from trivml import laplace
from trivml.errors import DomainError, ParameterMismatchError, SingularTransformError, TalbotDivergenceError
from trivml.laplace import (
    TransformValue,
    convolution_closed_form,
    convolve_numeric,
    laplace_closed_form,
    talbot_invert,
    transform_at,
)
from trivml.series import LambdaTriple, MLParams, SeriesControl, eval_univariate

CTRL = SeriesControl(rel_tol=1e-13, max_shell=700)


class TestClosedForm:
    def test_transform_of_one(self):
        p = MLParams(1, 1, 1, 1.0, 1.0)
        for s in (0.5, 2.0, 7.0 + 3.0j):
            assert laplace_closed_form(p, LambdaTriple(0, 0, 0), s) == pytest.approx(1.0 / s)

    def test_transform_of_exp3r(self):
        # e^{3r} transforms to 1/(s-3); equals 1 at s = 4
        p = MLParams(1, 1, 1, 1.0, 1.0)
        got = laplace_closed_form(p, LambdaTriple(1, 1, 1), 4.0)
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_forward_quadrature_tame(self, rng):
        # s = 4 sits right of every draw's growth rate; truncation at r = 6
        # leaves an e^(-24)-scale tail and keeps the series arguments in the
        # cancellation-safe range
        for _ in range(6):
            a, b, g = rng.uniform(0.7, 1.4, 3)
            p = MLParams(a, b, g, rng.uniform(1.0, 2.0), rng.uniform(0.5, 1.5))
            lam = LambdaTriple(*rng.uniform(-0.6, 0.3, 3))
            got = laplace_closed_form(p, lam, 4.0)
            ref = laplace_forward_truncated(
                lambda r: eval_univariate(p, lam, r, CTRL).value,
                4.0, 6.0, n=192, endpoint_power=p.delta - 1.0,
            )
            assert complex(got).real == pytest.approx(ref, rel=5e-7, abs=5e-9)

    def test_forward_quadrature_worked_example_params(self):
        # this transform's convergence abscissa is near 5238, so the forward
        # integral is checked deep inside the half-plane, where the Laguerre
        # nodes also stay in the series-computable range
        p = MLParams(0.8, 0.4, 0.2, 1.8, 1.0)
        lam = LambdaTriple(0.5, 3.0, 5.0)
        s = 30000.0
        got = laplace_closed_form(p, lam, s)
        ref = laplace_forward_quadrature(
            lambda r: eval_univariate(p, lam, r, CTRL).value if r > 0 else 0.0, s, n=64
        )
        assert complex(got).real == pytest.approx(ref, rel=1e-8)

    def test_singular_bracket(self):
        p = MLParams(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(SingularTransformError):
            laplace_closed_form(p, LambdaTriple(3.0, 0.0, 0.0), 3.0)

    def test_branch_cut_rejected(self):
        p = MLParams(1, 1, 1, 1, 1)
        for s in (-2.0, np.array([1.0 + 1.0j, 0.0])):
            with pytest.raises(DomainError):
                laplace_closed_form(p, LambdaTriple(0, 0, 0), s)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(1.0, math.inf)])
    def test_non_finite_s_rejected(self, s):
        p = MLParams(1, 1, 1, 1, 1)
        with pytest.raises(DomainError):
            laplace_closed_form(p, LambdaTriple(0.5, 0, 0), s)
        with pytest.raises(DomainError):
            laplace_closed_form(p, LambdaTriple(0.5, 0, 0), np.array([2.0, s]))

    def test_array_matches_scalar_calls(self, rng):
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        s = np.array([[0.5, 2.0 + 1.0j, 7.0 - 3.0j], [-4.0 + 0.5j, 30.0, 1e-3j]])
        got = laplace_closed_form(p, lam, s)
        assert got.shape == s.shape
        # numpy may take other loops for a 0-d array, so the bits can differ
        ref = np.array([[laplace_closed_form(p, lam, z) for z in row] for row in s.tolist()])
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(ref))
        assert type(laplace_closed_form(p, lam, 2.0)) is complex

    def test_transform_at_bundles_abscissa(self):
        p = MLParams(1, 1, 1, 1.0, 1.0)
        tv = transform_at(p, LambdaTriple(0, 0, 0), 2.0)
        assert isinstance(tv, TransformValue)
        assert tv.s == 2.0 + 0.0j and tv.value == pytest.approx(0.5)

    def test_ray_continuity(self, rng):
        # no jumps along a real ray to the right of the bracket's largest zero
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        sigmas = np.linspace(4.0, 40.0, 400)
        vals = np.array([complex(laplace_closed_form(p, lam, s)).real for s in sigmas])
        steps = np.abs(np.diff(vals))
        scale = np.abs(vals[:-1]) + 1e-30
        assert np.max(steps / scale) < 0.05


class TestTalbot:
    def test_inverse_of_one_over_s(self):
        # the 48-node rule floors out around 1e-9 in double precision
        assert talbot_invert(lambda s: 1.0 / s, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_inverse_of_one_over_s_squared(self):
        assert talbot_invert(lambda s: 1.0 / s**2, 2.0) == pytest.approx(2.0, rel=1e-8)

    def test_duality_random_sets(self, rng):
        for _ in range(8):
            p = tame_params(rng)
            lam = tame_lambdas(rng)
            for t in (0.25, 0.5, 1.0, 1.5):
                ref = eval_univariate(p, lam, t, CTRL).value
                got = talbot_invert(lambda s: laplace_closed_form(p, lam, s), t, nodes=48)
                assert abs(got - ref) <= 1e-6 * max(abs(ref), 1.0)

    def test_divergence_flag(self):
        # pole at 25 sits between the half-node contour radius (19.2) and the
        # full-node one (38.4) at t = 0.5: the two levels disagree hard and
        # the call must flag it
        p = MLParams(0.5, 0.5, 0.5, 1.0, 1.0)
        lam = LambdaTriple(5.0, 0.0, 0.0)
        with pytest.raises(TalbotDivergenceError):
            talbot_invert(lambda s: laplace_closed_form(p, lam, s), 0.5, nodes=48)

    def test_validation(self):
        with pytest.raises(DomainError):
            talbot_invert(lambda s: 1.0 / s, 0.0)
        with pytest.raises(DomainError):
            talbot_invert(lambda s: 1.0 / s, 1.0, nodes=4)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0, np.array([0.5, math.inf]), np.array([0.5, 0.0])])
    def test_non_finite_or_non_positive_t_rejected(self, t):
        with pytest.raises(DomainError):
            talbot_invert(lambda s: 1.0 / s, t)

    @pytest.mark.parametrize("nodes", [48.5, math.nan, math.inf, True, "48"])
    def test_node_count_must_be_an_integer(self, nodes):
        with pytest.raises(DomainError, match="integer"):
            talbot_invert(lambda s: 1.0 / s, 1.0, nodes=nodes)

    def test_array_of_times_matches_one_call_per_time(self, rng):
        p = tame_params(rng)
        lam = tame_lambdas(rng)
        ts = np.array([0.25, 0.5, 1.0, 1.5])
        got = talbot_invert(lambda s: laplace_closed_form(p, lam, s), ts)
        assert got.shape == ts.shape
        assert got.tolist() == [talbot_invert(lambda s: laplace_closed_form(p, lam, s), t) for t in ts.tolist()]
        assert type(talbot_invert(lambda s: 1.0 / s, 1.0)) is float

    def test_transform_called_once_per_rule(self):
        shapes = []

        def F(s):
            shapes.append(s.shape)
            return 1.0 / s

        talbot_invert(F, np.array([0.5, 1.0, 2.0]), nodes=48)
        assert shapes == [(3, 24), (3, 48)]

    def test_half_contour_matches_full_contour(self, rng):
        # real data: the half contour with conjugate symmetry is the full
        # rule; both carry roundoff of about exp(2m/5) eps, so m stays small
        for _ in range(4):
            p = tame_params(rng)
            lam = tame_lambdas(rng)
            ts = np.array([0.25, 0.5, 1.0, 1.5])
            for m in (16, 16.5, 24):
                half, full = (
                    laplace._talbot(lambda s: laplace_closed_form(p, lam, s), ts, 2 * m / (5 * ts), m, real)
                    for real in (True, False)
                )
                assert np.all(np.abs(half - full) <= 1e-13 * np.maximum(np.abs(full), 1.0))

    def test_overflowing_transform_flags_divergence(self):
        # e^(s^3) leaves the double range on the contour: the result is
        # flagged, not returned as inf or nan
        with pytest.raises(TalbotDivergenceError):
            talbot_invert(lambda s: np.exp(s**3), 1.0)


class TestConvolution:
    def test_ones_convolve_to_r(self):
        # delta1 = delta2 = 1, zero lambdas: 1 * 1 = r
        p1 = MLParams(0.9, 0.7, 0.5, 1.0, 1.3)
        p2 = MLParams(0.9, 0.7, 0.5, 1.0, 0.8)
        got = convolution_closed_form(p1, p2, LambdaTriple(0, 0, 0), 0.7, CTRL)
        assert got == pytest.approx(0.7, rel=1e-13)

    def test_exponential_convolution(self):
        # e^{3r} * e^{3r} = r e^{3r}
        p = MLParams(1, 1, 1, 1, 1)
        r = 0.5
        got = convolution_closed_form(p, p, LambdaTriple(1, 1, 1), r, CTRL)
        assert got == pytest.approx(r * math.exp(3 * r), rel=1e-12)

    def test_against_quadrature(self, rng):
        for _ in range(8):
            a, b, g = rng.uniform(0.5, 1.5, 3)
            p1 = MLParams(a, b, g, rng.uniform(0.7, 2.0), rng.uniform(0.5, 1.6))
            p2 = MLParams(a, b, g, rng.uniform(0.7, 2.0), rng.uniform(0.5, 1.6))
            lam = tame_lambdas(rng)
            for r in (0.3, 0.6, 1.0):
                ref = convolution_closed_form(p1, p2, lam, r, CTRL)
                got = convolve_numeric(p1, p2, lam, r, n=512, ctrl=CTRL)
                assert abs(got - ref) <= 1e-6 * max(abs(ref), 1.0)

    def test_array_of_r_matches_closed_form(self, rng):
        a, b, g = rng.uniform(0.5, 1.5, 3)
        p1 = MLParams(a, b, g, 1.3, 0.9)
        p2 = MLParams(a, b, g, 0.8, 1.4)
        lam = tame_lambdas(rng)
        rs = np.array([0.3, 0.6, 1.0])
        got = convolve_numeric(p1, p2, lam, rs, n=512, ctrl=CTRL)
        refs = convolution_closed_form(p1, p2, lam, rs, CTRL)
        assert got.shape == refs.shape == rs.shape
        for r, val, ref in zip(rs.tolist(), got.tolist(), refs.tolist()):
            assert abs(val - ref) <= 1e-6 * max(abs(ref), 1.0)
            assert val == pytest.approx(convolve_numeric(p1, p2, lam, r, n=512, ctrl=CTRL), rel=1e-13)
            assert ref == pytest.approx(convolution_closed_form(p1, p2, lam, r, CTRL), rel=1e-13)

    @pytest.mark.parametrize("r", [0.0, math.inf, math.nan, np.array([0.5, -0.1])])
    def test_non_finite_or_non_positive_r_rejected(self, r):
        p = MLParams(0.9, 0.7, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            convolve_numeric(p, p, LambdaTriple(0, 0, 0), r)
        with pytest.raises(DomainError):
            convolution_closed_form(p, p, LambdaTriple(0, 0, 0), r)

    @pytest.mark.parametrize("n", [0, 5.5, True, "64"])
    def test_node_count_validation(self, n):
        p = MLParams(0.9, 0.7, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            convolve_numeric(p, p, LambdaTriple(0, 0, 0), 0.5, n=n)

    def test_parameter_mismatch(self):
        p1 = MLParams(0.9, 0.7, 0.5, 1.0, 1.0)
        p2 = MLParams(0.9, 0.7, 0.4, 1.0, 1.0)
        with pytest.raises(ParameterMismatchError):
            convolution_closed_form(p1, p2, LambdaTriple(0, 0, 0), 0.5)

    def test_domain(self):
        p = MLParams(0.9, 0.7, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            convolution_closed_form(p, p, LambdaTriple(0, 0, 0), 0.0)
