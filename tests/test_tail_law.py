import math

import numpy as np
import pytest
from scipy import integrate, stats

from rwrc.errors import ArgumentOutOfRange, NonPositiveArgument
from rwrc.tail_law import TailLaw, cdf, log_cdf, log_density, quantile, sample


def test_cdf_values():
    law = TailLaw(1.0, 1.0)
    assert cdf(law, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert cdf(law, 0.1) == pytest.approx(math.exp(-10.0), rel=1e-12)
    assert cdf(TailLaw(2.0, 3.0), 1e9) == pytest.approx(1.0, abs=1e-12)


def test_log_cdf_exact_tail():
    law = TailLaw(1.5, 2.5)
    for x in np.logspace(-3, 3, 25):
        assert log_cdf(law, x) == pytest.approx(-2.5 * x**-1.5, rel=1e-14)


def test_quantile_values():
    law = TailLaw(1.0, 1.0)
    assert quantile(law, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)
    assert quantile(law, math.exp(-2.0)) == pytest.approx(0.5, rel=1e-14)
    assert quantile(TailLaw(2.0, 1.0), math.exp(-4.0)) == pytest.approx(0.5, rel=1e-14)


def test_round_trip():
    # at eta=1, D=1 the cdf underflows below x ~ 1/745, so the full
    # [1e-3, 1e3] range is exercised with a lighter tail exponent
    law = TailLaw(0.75, 1.0)
    xs = np.logspace(-3, 3, 200)
    back = quantile(law, cdf(law, xs))
    assert np.allclose(back, xs, rtol=1e-10)
    law1 = TailLaw(1.0, 1.0)
    xs1 = np.logspace(math.log10(1.5e-3), 3, 200)
    assert np.allclose(quantile(law1, cdf(law1, xs1)), xs1, rtol=1e-10)
    us = np.linspace(1e-6, 1 - 1e-6, 100)
    assert np.allclose(cdf(law1, quantile(law1, us)), us, rtol=1e-10, atol=1e-12)


def test_log_density_values():
    assert log_density(TailLaw(1.0, 1.0), 1.0) == pytest.approx(-1.0, rel=1e-14)
    assert log_density(TailLaw(1.0, 2.0), 2.0) == pytest.approx(-math.log(2.0) - 1.0, rel=1e-14)


def test_density_normalization():
    for law in (TailLaw(1.0, 1.0), TailLaw(0.5, 2.0), TailLaw(3.0, 0.7)):
        total, _ = integrate.quad(lambda x: math.exp(log_density(law, x)), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_density_matches_cdf_derivative():
    law = TailLaw(1.3, 0.9)
    for x in (0.2, 1.0, 4.0):
        h = 1e-6 * x
        num = (cdf(law, x + h) - cdf(law, x - h)) / (2 * h)
        assert math.exp(log_density(law, x)) == pytest.approx(num, rel=1e-7)


def test_sample_empty_and_deterministic():
    law = TailLaw(1.0, 1.0)
    assert sample(law, np.random.default_rng(0), 0).size == 0
    a = sample(law, np.random.default_rng(123), 50)
    b = sample(law, np.random.default_rng(123), 50)
    assert np.array_equal(a, b)
    assert np.all(a > 0)
    # a shaped draw consumes the stream in the same order as a flat one
    grid = sample(law, np.random.default_rng(123), (5, 10))
    assert grid.shape == (5, 10) and np.array_equal(grid.reshape(-1), a)


def test_sample_binomial_check():
    law = TailLaw(1.0, 1.0)
    n = 1_000_000
    draws = sample(law, np.random.default_rng(7), n)
    p = cdf(law, 0.5)
    frac = np.mean(draws <= 0.5)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 3 * se


def test_sample_ks():
    law = TailLaw(1.0, 1.0)
    draws = sample(law, np.random.default_rng(11), 100_000)
    res = stats.kstest(draws, lambda x: cdf(law, x))
    assert res.pvalue > 0.01


def test_sample_beyond_the_float_range_raises():
    # at eta = 0.01 a uniform within 8.3e-4 of 1 gives a draw past 1.8e308
    law = TailLaw(0.01, 1.0)
    with pytest.raises(ArgumentOutOfRange, match="float range"):
        sample(law, np.random.default_rng(1), 10_000)
    assert np.all(np.isfinite(sample(TailLaw(0.05, 1.0), np.random.default_rng(1), 10_000)))


def test_argument_errors():
    law = TailLaw(1.0, 1.0)
    with pytest.raises(NonPositiveArgument):
        cdf(law, -1.0)
    with pytest.raises(NonPositiveArgument):
        log_density(law, 0.0)
    with pytest.raises(ArgumentOutOfRange):
        quantile(law, 0.0)
    with pytest.raises(ArgumentOutOfRange):
        quantile(law, 1.0)
    with pytest.raises(ArgumentOutOfRange):
        sample(law, np.random.default_rng(0), (3, -1))


def test_law_validation():
    with pytest.raises(NonPositiveArgument):
        TailLaw(0.0, 1.0)
    with pytest.raises(NonPositiveArgument):
        TailLaw(1.0, -2.0)
    with pytest.raises(NonPositiveArgument):
        TailLaw(math.nan, 1.0)


def test_float_path_matches_array_path():
    # log_density evaluates a positive Python float with math, an array with numpy
    law = TailLaw(1.3, 0.9)
    xs = np.logspace(-2, 3, 40)
    for x, d in zip(xs, log_density(law, xs)):
        assert type(log_density(law, float(x))) is float
        assert log_density(law, float(x)) == pytest.approx(d, rel=1e-14, abs=1e-14)


def test_float_path_overflow_is_minus_inf():
    # 1e-200**-3 overflows a float: the log density and log cdf are -inf there
    law = TailLaw(3.0, 1.0)
    assert log_density(law, 1e-200) == -math.inf
    assert log_cdf(law, 1e-200) == -math.inf
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(NonPositiveArgument):
            log_density(law, bad)
        with pytest.raises(NonPositiveArgument):
            log_cdf(law, bad)
