import math

import pytest

from conftest import tame_params

from trivml.contour import ContourSpec, eval_hankel_contour
from trivml.errors import DomainError
from trivml.series import MLParams, SeriesControl, eval_trivariate

CTRL = SeriesControl(rel_tol=1e-13, max_shell=700)


def test_reciprocal_gamma_values():
    # with zero arguments the integral is Hankel's formula for 1/Gamma(delta)
    for delta, expected in ((1.0, 1.0), (2.0, 1.0), (3.0, 0.5), (0.5, 1.0 / math.gamma(0.5))):
        res = eval_hankel_contour(MLParams(1, 1, 1, delta, 1), 0.0, 0.0, 0.0)
        assert res.converged
        assert complex(res.value).real == pytest.approx(expected, rel=1e-9, abs=1e-11)
        assert abs(complex(res.value).imag) < 1e-10


def test_worked_example_parameters_vs_series():
    p = MLParams(0.8, 0.4, 0.2, 1.8, 1.0)
    ref = eval_trivariate(p, 0.25, 0.5, 0.5, CTRL).value
    res = eval_hankel_contour(p, 0.25, 0.5, 0.5)
    assert abs(complex(res.value) - ref) <= 1e-8 * max(abs(ref), 1.0)


def test_random_tame_parameters_vs_series(rng):
    worst = 0.0
    for _ in range(10):
        p = tame_params(rng)
        u, v, w = rng.uniform(-1.0, 1.0, 3)
        ref = eval_trivariate(p, u, v, w, CTRL).value
        res = eval_hankel_contour(p, u, v, w)
        assert res.converged
        worst = max(worst, abs(complex(res.value) - ref) / max(abs(ref), 1.0))
    assert worst <= 1e-8


def test_complex_arguments(rng):
    p = MLParams(0.9, 1.2, 0.6, 1.4, 1.3)
    u, v, w = 0.4 + 0.3j, -0.2 - 0.5j, 0.1 + 0.6j
    ref = eval_trivariate(p, u, v, w, CTRL).value
    res = eval_hankel_contour(p, u, v, w)
    assert abs(complex(res.value) - ref) <= 1e-8 * max(abs(ref), 1.0)


def test_divergence_flag_fires_for_hostile_arguments():
    # arguments far outside the contour's reliable region: the node-doubling
    # estimate must not report convergence
    p = MLParams(0.3, 0.3, 0.3, 1.0, 0.7)
    res = eval_hankel_contour(p, 40.0, -35.0, 25.0, ContourSpec(node_count=16))
    assert not res.converged


def test_node_count_validation():
    for node_count in (4, 64.5, math.nan, math.inf, True):
        with pytest.raises(DomainError):
            ContourSpec(node_count=node_count)
