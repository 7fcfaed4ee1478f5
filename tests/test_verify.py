import math

import numpy as np
import pytest

from trivml import verify


def test_brute_double_sum_exponential_case():
    # alpha = beta = delta = eta = 1: sum_q (u + v)^q / q! = e^(u + v)
    for u, v in ((0.5, -1.5), (2.0, 2.0), (-2.0, 0.0), (0.0, 0.0)):
        assert verify._brute_double_sum(1.0, 1.0, 1.0, 1.0, u, v) == pytest.approx(math.exp(u + v), rel=1e-14)


def test_brute_double_sum_shares_no_code_with_the_engine():
    names = set(verify._brute_double_sum.__code__.co_names)
    assert not names & {"series", "eval_trivariate", "eval_prabhakar", "eval_univariate", "eval_univariate_grid"}


@pytest.mark.parametrize(
    "check, name, arg, shape",
    [("laplace-duality", "talbot_invert", 1, (4,)), ("convolution-identity", "convolve_numeric", 3, (3,))],
)
def test_one_oracle_call_per_parameter_set(monkeypatch, check, name, arg, shape):
    shapes = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        shapes.append(np.shape(args[arg]))
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    (result,) = verify.run_checks(only=check)
    assert result.passed and shapes == [shape] * 10
