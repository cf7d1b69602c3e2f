import math

import numpy as np
import pytest
from scipy import integrate

from rwrc.errors import ArgumentOutOfRange, NonConvergence, NonPositiveArgument
from rwrc.rates import k_const
from rwrc.tail_law import TailLaw, cdf, log_density, sample
from rwrc.transforms import log_laplace_transform, log_pair_sum_tail


def direct_log_laplace(law, s):
    # linear-space quadrature with the peak factored out, so quad's absolute
    # tolerance stays meaningful when the integral is below float epsilon
    xs = (law.dcoef * law.eta / s) ** (1.0 / (law.eta + 1.0))
    peak = -s * xs + log_density(law, xs)
    f = lambda x: math.exp(-s * x + log_density(law, x) - peak)
    lo, _ = integrate.quad(f, 0.0, xs, limit=400)
    hi, _ = integrate.quad(f, xs, np.inf, limit=400)
    return peak + math.log(lo + hi)


def mpmath_log_laplace(eta, dcoef, s):
    """log E[exp(-s*w)] by mpmath quadrature at 30 digits, in u = log(x/x*).

    x* is the peak of the integrand in u, where
    dcoef*eta - eta*x**eta - s*x**(eta+1) = 0, and w its Laplace width."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        eta, dcoef, s = mpmath.mpf(eta), mpmath.mpf(dcoef), mpmath.mpf(s)
        top = dcoef ** (1 / eta)
        lo = min(top, (dcoef * eta / s) ** (1 / (eta + 1))) / 2
        xs = mpmath.findroot(
            lambda x: dcoef * eta - eta * x**eta - s * x ** (eta + 1), (lo, top), solver="anderson"
        )

        def h(u):
            x = xs * mpmath.exp(u)
            return -s * x + mpmath.log(dcoef * eta) - eta * mpmath.log(x) - dcoef * x**-eta

        peak = h(0)
        w = 1 / mpmath.sqrt(s * xs + eta**2 * dcoef * xs**-eta)
        pts = [k * w for k in (-40, -20, -10, -5, -2, 0, 2, 5, 10, 20, 40)]
        integral = mpmath.quad(lambda u: mpmath.exp(h(u) - peak), pts)
        return float(peak + mpmath.log(integral))


# s where the peak x* is below 1e-11: a root search with brentq's default
# absolute tolerance of 2e-12 in x put it many peak widths off, and the
# transform came out up to 12% wrong or failed to converge
HUGE_S = {0.5: (1e18, 1e24, 1e30), 1.0: (1e23, 1e26, 1e30), 2.0: (1e34, 1e36, 1e40)}


@pytest.mark.parametrize("eta", [0.01, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_laplace_matches_mpmath(eta):
    # for the larger s at eta >= 1.5 (at eta = 3 from s = 1e10 on) the peak is
    # narrower than QUADPACK's rule in log x.  At eta = 0.01 the law spreads
    # over hundreds of decades: the peak in log x sits about 450 above the
    # density's mode at 1e-200, and QUADPACK samples x up to exp(700)
    law = TailLaw(eta, 1.0)
    for s in HUGE_S.get(eta, ()):
        assert (eta / s) ** (1.0 / (eta + 1.0)) < 1e-11, s
    for s in (1.0, 1e4, 1e8, 1e12, 1e15) + HUGE_S.get(eta, ()):
        got = log_laplace_transform(law, s)
        assert math.isfinite(got), s
        ref = mpmath_log_laplace(eta, 1.0, s)
        assert abs(got - ref) <= 1e-12 * abs(ref), s


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
def test_laplace_approaches_its_asymptote_up_to_the_float_range(eta):
    # l(s) / (-K * s**(eta/(1+eta))) tends to 1, monotonely, at every decade of
    # s from 1e10 to 1e308; at eta = 0.5 it is still 1.06e-3 short at s = 1e10
    law = TailLaw(eta, 1.0)
    k = k_const(law)
    gaps = []
    for e in range(10, 309):
        s = 10.0**e
        ratio = log_laplace_transform(law, s) / (-k * s ** (eta / (1.0 + eta)))
        gaps.append(abs(ratio - 1.0))
    assert max(gaps) <= 1.1e-3
    assert np.all(np.diff(gaps) <= 1e-13)


@pytest.mark.parametrize("dcoef", [1.0, 0.5])
def test_laplace_mass_beyond_the_float_range_is_rejected(dcoef):
    # at eta = 0.001, P(w < exp(-700)) = exp(-dcoef * exp(0.7)) is 0.13 for
    # dcoef = 1; for dcoef = 0.5 the peak dcoef**(1/eta) is itself below 1e-300
    with pytest.raises(ArgumentOutOfRange, match="float range"):
        log_laplace_transform(TailLaw(0.001, dcoef), 1.0)


def test_laplace_zero():
    assert log_laplace_transform(TailLaw(1.0, 1.0), 0.0) == 0.0


def test_laplace_moderate_matches_direct_quadrature():
    for law in (TailLaw(1.0, 1.0), TailLaw(0.5, 2.0), TailLaw(2.0, 0.7)):
        for s in (0.5, 1.0, 10.0, 100.0):
            got = log_laplace_transform(law, s)
            assert got == pytest.approx(direct_log_laplace(law, s), rel=1e-7, abs=1e-9)


def test_laplace_monotone_in_s():
    law = TailLaw(1.0, 1.0)
    vals = [log_laplace_transform(law, s) for s in (1.0, 10.0, 1e3, 1e5, 1e7)]
    assert np.all(np.diff(vals) < 0)
    assert all(math.isfinite(v) for v in vals)


def test_laplace_extreme_argument_asymptotics():
    # Laplace method: log E[e^{-s w}] ~ -2 sqrt(s) at eta = D = 1
    law = TailLaw(1.0, 1.0)
    s = 1e8
    got = log_laplace_transform(law, s)
    assert abs(got / math.sqrt(s) - (-2.0)) <= 0.02 * 2.0


def test_laplace_vs_mc():
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(3)
    n = 200_000
    draws = sample(law, rng, n)
    s = 2.0
    w = np.exp(-s * draws)
    m, se = w.mean(), w.std(ddof=1) / math.sqrt(n)
    assert abs(math.exp(log_laplace_transform(law, s)) - m) <= 3 * se


def test_laplace_rejects_bad_argument():
    with pytest.raises(ArgumentOutOfRange):
        log_laplace_transform(TailLaw(1.0, 1.0), -1.0)
    with pytest.raises(ArgumentOutOfRange):
        log_laplace_transform(TailLaw(1.0, 1.0), math.inf)


def test_pair_sum_moderate_matches_direct_convolution():
    law = TailLaw(1.0, 1.0)
    for eps in (0.5, 1.0, 3.0):
        direct, _ = integrate.quad(
            lambda x: cdf(law, eps - x) * math.exp(log_density(law, x)), 0.0, eps, limit=400
        )
        assert log_pair_sum_tail(law, eps) == pytest.approx(math.log(direct), rel=1e-8)


def test_pair_sum_vs_mc():
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(7)
    n = 400_000
    a = sample(law, rng, n)
    b = sample(law, rng, n)
    eps = 1.0
    p_hat = np.mean(a + b <= eps)
    exact = math.exp(log_pair_sum_tail(law, eps))
    se = math.sqrt(exact * (1 - exact) / n)
    assert abs(p_hat - exact) <= 3 * se


def test_pair_sum_deep_tail_scaling():
    # eps * log P(w1 + w2 <= eps) -> -4 as eps -> 0 at eta = D = 1
    law = TailLaw(1.0, 1.0)
    scaled = 0.01 * log_pair_sum_tail(law, 0.01)
    assert abs(scaled - (-4.0)) <= 0.05 * 4.0


def test_pair_sum_monotone():
    law = TailLaw(1.0, 1.0)
    vals = [log_pair_sum_tail(law, e) for e in (0.1, 0.5, 1.0, 5.0)]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 0.0


def test_pair_sum_rejects_bad_eps():
    with pytest.raises(NonPositiveArgument):
        log_pair_sum_tail(TailLaw(1.0, 1.0), 0.0)


@pytest.mark.parametrize("eta, eps", [(2.0, 1e-4), (2.0, 1e-6), (1.0, 1e-110)])
def test_pair_sum_narrow_peak_is_finite(eta, eps):
    # at eta = 2, eps = 1e-4 the peak is 7e-10 wide in x, far narrower than
    # QUADPACK's rule on (0, eps); at eps = 1e-110 the curvature's x**-(eta+2)
    # is beyond the float range.  eps**eta * log P -> -dcoef * 2**(eta + 1)
    got = log_pair_sum_tail(TailLaw(eta, 1.0), eps)
    assert math.isfinite(got)
    assert eps**eta * got == pytest.approx(-(2.0 ** (eta + 1.0)), rel=1e-6)


@pytest.mark.parametrize("eta, eps", [(5.0, 1e-70), (2.0, 2.3e-154)])
def test_pair_sum_below_the_float_range_is_rejected(eta, eps):
    # log P = -dcoef * 2**(eta+1) * eps**-eta is -6.4e351 at eta = 5, eps = 1e-70.
    # At eta = 2, eps = 2.3e-154 it is -1.5e308, still a float, but the
    # curvature at the peak, about 1.5 times that, is not
    with pytest.raises(ArgumentOutOfRange, match="below the float range"):
        log_pair_sum_tail(TailLaw(eta, 1.0), eps)


def mpmath_log_pair_sum(eta, dcoef, eps):
    """log P(w1 + w2 <= eps) by mpmath quadrature at 30 digits in z = log(x / (eps - x))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        eta, dcoef, eps = mpmath.mpf(eta), mpmath.mpf(dcoef), mpmath.mpf(eps)

        def h(z):
            x, y = eps / (1 + mpmath.exp(-z)), eps / (1 + mpmath.exp(z))
            return (
                -dcoef * y**-eta + mpmath.log(dcoef * eta) - (eta + 1) * mpmath.log(x)
                - dcoef * x**-eta + mpmath.log(x * y / eps)
            )

        zs = mpmath.findroot(lambda z: mpmath.diff(h, z), 0)
        pts = [zs + k for k in (-1000, -300, -100, -30, -10, -3, -1, 0, 1, 3, 10, 30)]
        return float(h(zs) + mpmath.log(mpmath.quad(lambda z: mpmath.exp(h(z) - h(zs)), pts)))


@pytest.mark.parametrize("eta", [0.01, 0.05])
def test_pair_sum_small_eta_matches_mpmath(eta):
    # in x the integrand peaks at the density's mode, 1e-200 at eta = 0.01; in
    # z it peaks at x/eps = 1.4e-3 with a Laplace width of 25, 11 decades of x
    got = log_pair_sum_tail(TailLaw(eta, 1.0), 1e-3)
    ref = mpmath_log_pair_sum(eta, 1.0, 1e-3)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_pair_sum_mass_beyond_the_float_range_is_rejected():
    # at eta = 0.001, P(w1 < 1e-3 * exp(-699)) / P(w1 < 1e-3) is about 0.36
    with pytest.raises(ArgumentOutOfRange, match="float range"):
        log_pair_sum_tail(TailLaw(0.001, 1.0), 1e-3)
    with pytest.raises(ArgumentOutOfRange, match="float range"):
        log_pair_sum_tail(TailLaw(1.0, 1.0), 1e-305)


@pytest.mark.parametrize(
    "transform, arg", [(log_laplace_transform, 100.0), (log_pair_sum_tail, 0.5)]
)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_quadrature_without_a_positive_finite_value_raises(monkeypatch, transform, arg, bad):
    monkeypatch.setattr(integrate, "quad", lambda *a, **k: (bad, 0.0))
    with pytest.raises(NonConvergence, match="quadrature returned"):
        transform(TailLaw(1.0, 1.0), arg)
