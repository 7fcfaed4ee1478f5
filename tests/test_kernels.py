import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivml.errors import DomainError, SeriesOverflowError
from trivml.kernels import beta, log_gamma, log_pochhammer, log_pochhammer_table, pochhammer, reciprocal_gamma, signed_log_rgamma


class TestLogGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 0.0),
            (5.0, math.log(24.0)),
            (0.5, 0.5723649429247001),
        ],
    )
    def test_known_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    def test_recurrence_grid(self):
        # log Gamma(x+1) - log Gamma(x) = log x on a 500-point grid
        xs = np.linspace(1.0, 50.0, 500)
        err = max(abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) for x in xs)
        assert err <= 1e-12

    @given(st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_accuracy_against_lgamma(self, x):
        # stdlib lgamma is the independent reference (<= 2 ulp)
        ref = math.lgamma(x)
        assert log_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-14)


class TestReciprocalGamma:
    def test_trivial(self):
        assert reciprocal_gamma(1.0) == 1.0
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-1.0) == 0.0
        assert reciprocal_gamma(-7.0) == 0.0

    def test_at_3_5(self):
        # frozen from a high-precision reference (mpmath, 25 digits)
        assert reciprocal_gamma(3.5) == pytest.approx(0.30090111122547002, rel=1e-14)

    def test_continuity_through_poles(self):
        # values shrink smoothly toward 0 on both sides of x = -3
        eps = np.array([1e-3, 1e-6, 1e-9])
        left = np.array([abs(reciprocal_gamma(-3.0 - e)) for e in eps])
        right = np.array([abs(reciprocal_gamma(-3.0 + e)) for e in eps])
        assert np.all(np.diff(left) < 0) and np.all(np.diff(right) < 0)
        assert left[-1] < 1e-8 and right[-1] < 1e-8

    @given(st.floats(min_value=1e-3, max_value=170.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse_identity(self, x):
        assert reciprocal_gamma(x) * math.exp(log_gamma(x)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_axis_against_reflection(self):
        for x in (-0.5, -2.3, -9.7, -15.2):
            ref = math.sin(math.pi * x) * math.exp(math.lgamma(1.0 - x)) / math.pi
            assert reciprocal_gamma(x) == pytest.approx(ref, rel=1e-10)

    def test_vectorized_signs(self):
        sign, logv = signed_log_rgamma(np.array([2.0, -0.5, -1.0, -1.5]))
        assert sign[0] == 1.0
        assert sign[1] == -1.0  # Gamma(-0.5) < 0 so 1/Gamma < 0
        assert sign[2] == 0.0 and logv[2] == -math.inf
        assert sign[3] == 1.0  # Gamma(-1.5) > 0

    @staticmethod
    def _masked(x):
        # a trailing pole sends the call through the masked (reflection) path
        x = np.asarray(x, dtype=float)
        sign, logv = signed_log_rgamma(np.append(x.ravel(), -1.0))
        return sign[:-1].reshape(x.shape), logv[:-1].reshape(x.shape)

    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(0.5 + 1e-12, 171.5, 1001),  # all positive: the fast path
            np.array([0.7, -1.0, 2.5, -0.5, 0.0, 0.5, 3.0, -7.0, 40.2]),  # mixed, with poles
            np.array([]),
            np.array(2.5),
            np.array(-1.5),
        ],
        ids=["all-positive", "mixed", "empty", "0-d-positive", "0-d-negative"],
    )
    def test_fast_path_matches_masked_path(self, x):
        sign, logv = signed_log_rgamma(x)
        want_sign, want_logv = self._masked(x)
        for got, want in ((sign, want_sign), (logv, want_logv)):
            assert type(got) is np.ndarray and got.shape == x.shape
            assert got.tobytes() == want.tobytes()
        # the entries above 1/2 of a mixed input, taken alone, use the fast path
        pos = x > 0.5
        fast_sign, fast_logv = signed_log_rgamma(x[pos])
        assert fast_sign.tobytes() == sign[pos].tobytes() and fast_logv.tobytes() == logv[pos].tobytes()


class TestPochhammer:
    @pytest.mark.parametrize(
        "eta,m,expected",
        [
            (2.7, 0, 1.0),
            (1.0, 5, 120.0),
            (-3.0, 5, 0.0),
            (-2.5, 4, (-2.5) * (-1.5) * (-0.5) * 0.5),
            (0.5, 3, 0.5 * 1.5 * 2.5),
        ],
    )
    def test_small_m(self, eta, m, expected):
        assert pochhammer(eta, m) == pytest.approx(expected, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("eta", [0.3, 2.0, -50.5, -120.0])
    def test_large_m_matches_direct_product(self, eta):
        m = 90
        direct = 1.0
        for j in range(m):
            direct *= eta + j
        assert pochhammer(eta, m) == pytest.approx(direct, rel=1e-11)

    def test_overflow_reported(self):
        with pytest.raises(SeriesOverflowError):
            pochhammer(5.0, 200)

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    @given(
        st.sampled_from([0.3, 1.0, 2.5]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_identity(self, eta, l, p, k):
        # (eta)_{l+p+k} = (eta)_l (eta+l)_p (eta+l+p)_k
        whole = pochhammer(eta, l + p + k)
        split = pochhammer(eta, l) * pochhammer(eta + l, p) * pochhammer(eta + l + p, k)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_split_identity_grid(self):
        worst = 0.0
        for eta in (0.3, 1.0, 2.5):
            for l in range(0, 13, 3):
                for p in range(0, 13, 3):
                    for k in range(0, 13, 3):
                        whole = pochhammer(eta, l + p + k)
                        split = (
                            pochhammer(eta, l)
                            * pochhammer(eta + l, p)
                            * pochhammer(eta + l + p, k)
                        )
                        worst = max(worst, abs(whole - split) / abs(whole))
        assert worst <= 1e-12

    def test_log_table_matches_scalar(self):
        eta = -4.5
        signs, logs = log_pochhammer_table(eta, 20)
        for q in range(21):
            s, lg = log_pochhammer(eta, q)
            assert signs[q] == s
            if s != 0.0:
                assert logs[q] == pytest.approx(lg, abs=1e-10)

    @pytest.mark.parametrize("eta", [0.7, 1.3, -2.5, -3.0, 5.1])
    def test_table_prefix_keeps_its_bits(self, eta):
        # the series walk regrows its table at twice the length: every entry
        # of the shorter table must come back with the same bits
        signs, logs = log_pochhammer_table(eta, 1000)
        for n in (0, 1, 7, 16, 96, 208, 500):
            s, lg = log_pochhammer_table(eta, n)
            assert s.tobytes() == signs[: n + 1].tobytes() and lg.tobytes() == logs[: n + 1].tobytes()

    @pytest.mark.parametrize("eta", [1e-300, 0.7, 1.0, 1.3, 5.1, 1e6])
    def test_positive_table_has_the_general_bits(self, eta):
        # the general formula, which the eta > 0 path skips: signs from a
        # cumulative product, logs of |eta + j| under an error scope
        factors = eta + np.arange(700, dtype=float)
        with np.errstate(divide="ignore"):
            logs = np.concatenate(([0.0], np.cumsum(np.log(np.abs(factors)))))
        signs = np.concatenate(([1.0], np.cumprod(np.sign(factors))))
        for n in (0, 1, 16, 96, 700):
            s, lg = log_pochhammer_table(eta, n)
            assert s.tobytes() == signs[: n + 1].tobytes() and lg.tobytes() == logs[: n + 1].tobytes()

    def test_terminating_table(self):
        # (-2)_0 = 1, (-2)_1 = -2, (-2)_2 = 2, (-2)_q = 0 from q = 3 on
        signs, _ = log_pochhammer_table(-2.0, 10)
        assert list(signs[:3]) == [1.0, -1.0, 1.0]
        assert all(s == 0.0 for s in signs[3:])


class TestBeta:
    @pytest.mark.parametrize(
        "c,d,expected",
        [(2.0, 3.0, 1.0 / 12.0), (1.0, 1.0, 1.0), (0.5, 0.5, math.pi)],
    )
    def test_known_values(self, c, d, expected):
        assert beta(c, d) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("c,d", [(0.0, 1.0), (-1.0, 2.0), (1.0, -0.5)])
    def test_domain(self, c, d):
        with pytest.raises(DomainError):
            beta(c, d)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.05, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, c, d):
        assert abs(beta(c, d) - beta(d, c)) <= 1e-14 * max(1.0, abs(beta(c, d)))
