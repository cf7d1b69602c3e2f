"""Log-domain integral transforms of the conductance law.

Both transforms here involve integrands spanning hundreds of orders of
magnitude, so the integrals are evaluated after shifting by the integrand's
log maximum and the results are returned on the log scale.  Each integral is
taken over the whole line in v = u / w, where u is an unbounded coordinate
that is 0 at the peak and w is the peak's Laplace width in u (one over the
square root of minus the curvature there).  The bump then has width about 1
in v however narrow it is in x, so QUADPACK cannot step over it.  The
integrands run on Python floats.  scipy is imported inside the three functions
that call it, so that importing rwrc, and every command that does no
quadrature, never loads scipy.
"""

from __future__ import annotations

import math

from .errors import ArgumentOutOfRange, NonConvergence, require_positive, require_time
from .tail_law import TailLaw, log_cdf, log_density

_EXP_GUARD = 500.0


def _log_peak_integral(h, width: float, ends: tuple[float, float], what: str) -> float:
    """log of the integral of exp(h(u)) du over the real line.

    h peaks near u = 0 with Laplace width about `width`.  Beyond `ends`, x
    leaves the float range and h may return -inf, so the integrand must be
    negligible there; for a small eta the law's mass reaches that far.
    """
    hstar = h(0.0)
    if not max(h(ends[0]), h(ends[1])) < hstar - 40.0:
        raise ArgumentOutOfRange(f"{what}: the integrand reaches beyond the float range")
    # h(u) - h(0) carries a rounding error of a few ulps of |h(0)|; asking
    # for more than that only makes QUADPACK report roundoff
    epsrel = max(1e-12, 16.0 * 2.0**-52 * abs(hstar))
    from scipy import integrate

    val, _ = integrate.quad(
        lambda v: math.exp(min(h(width * v) - hstar, _EXP_GUARD)),
        -math.inf, math.inf, epsabs=0.0, epsrel=epsrel, limit=400,
    )
    if not (math.isfinite(val) and val > 0.0):
        raise NonConvergence(f"{what}: quadrature returned {val!r}")
    return hstar + math.log(width) + math.log(val)


def log_laplace_transform(law: TailLaw, s: float) -> float:
    """log E[exp(-s*w)] for a single conductance w, accurate for huge s.

    exp(-s*w) is the chance that a rate-w clock has not rung by time s, so s
    obeys the time rule."""
    s = require_time(s)
    if s == 0.0:
        return 0.0
    eta, dcoef = law.eta, law.dcoef

    # peak of the integrand in u = log x, -s*x + log_density(x) + u: there
    # dcoef*eta - eta*x**eta - s*x**(eta+1) = 0, strictly decreasing in x with a
    # single positive root below its root at s = 0, dcoef**(1/eta).  The root is
    # found in y = log x, so its tolerance is relative in x: an absolute one
    # misplaces a peak at x of 1e-11 or less by many of its widths
    log_s = math.log(s)

    def gfun(y: float) -> float:
        return dcoef * eta - eta * math.exp(eta * y) - math.exp(log_s + (eta + 1.0) * y)

    log_top = math.log(dcoef) / eta
    if abs(log_top) > 690.0:
        raise ArgumentOutOfRange(
            f"the Laplace peak dcoef**(1/eta) = exp({log_top:.4g}) is beyond the float range"
        )
    hi = lo = log_top
    while gfun(hi) >= 0.0:
        # rounding can leave gfun(hi) at or above 0 when s * hi**(eta+1) is tiny
        hi += math.log(2.0)
        if hi > 690.0:
            raise ArgumentOutOfRange("failed to bracket the Laplace peak")
    while gfun(lo) <= 0.0:
        lo -= math.log(2.0)
        if lo < -690.0:
            raise ArgumentOutOfRange("failed to bracket the Laplace peak")
    from scipy import optimize

    log_xstar = optimize.brentq(gfun, lo, hi, xtol=1e-15, rtol=4.0 * 2.0**-52)
    xstar = math.exp(log_xstar)

    def h(u: float) -> float:
        # u = log(x / xstar); dx = x du
        if abs(log_xstar + u) > 700.0:
            return -math.inf
        x = math.exp(log_xstar + u)
        return -s * x + log_density(law, x) + u

    # minus the second derivative of h at its peak u = 0
    width = 1.0 / math.sqrt(s * xstar + eta * eta * dcoef * xstar**-eta)
    return log_xstar + _log_peak_integral(
        h, width, (-699.0 - log_xstar, 699.0 - log_xstar), f"log Laplace transform at s = {s:g}"
    )


def log_pair_sum_tail(law: TailLaw, eps: float) -> float:
    """log P(w1 + w2 <= eps) for two independent conductances."""
    eps = require_positive(eps, "eps")
    eta, dcoef = law.eta, law.dcoef
    log_eps = math.log(eps)
    # x = eps / (1 + exp(-z)) and y = eps - x stay above 1e-300 for |z| <= zend
    zend = min(699.0, log_eps + 690.0)
    if zend < 1.0:
        raise ArgumentOutOfRange(f"eps = {eps:g} leaves no room for w1 and w2 in the float range")

    def h(z: float) -> float:
        # log of the integrand in z = log(x / (eps - x)), so both ends of (0, eps)
        # are infinitely far; dx = x * (eps - x) / eps dz
        if abs(z) > 700.0:
            return -math.inf
        x = eps / (1.0 + math.exp(-z))
        y = eps / (1.0 + math.exp(z))
        if not (x > 0.0 and y > 0.0):
            return -math.inf
        return log_cdf(law, y) + log_density(law, x) + math.log(x / eps * y)

    def slope(z: float) -> float:
        # h'(z) = dcoef*eta*(x**-eta*b - y**-eta*a) - eta*b - a with a = x/eps,
        # b = y/eps; the two powers are capped where they leave the float range
        la, lb = -math.log1p(math.exp(-z)), -math.log1p(math.exp(z))
        xb = math.exp(min(lb - eta * (log_eps + la), 700.0))
        ya = math.exp(min(la - eta * (log_eps + lb), 700.0))
        return dcoef * eta * (xb - ya) - eta * math.exp(lb) - math.exp(la)

    # h' falls from +inf to -inf; at any zero the curvature below is positive, so
    # h has one peak.  With both powers capped the slope loses its sign change
    below = ArgumentOutOfRange(f"log P(w1 + w2 <= {eps:g}) is below the float range")
    if not slope(-zend) > 0.0 > slope(zend):
        raise below
    from scipy import optimize

    zstar = optimize.brentq(slope, -zend, zend, xtol=1e-14)
    if not h(zstar) > -math.inf:
        raise below
    # y as h(zstar) has it, so y**-eta is finite where log_cdf(y) is
    x, y = eps / (1.0 + math.exp(-zstar)), eps / (1.0 + math.exp(zstar))
    a, b = x / eps, y / eps
    # minus h''(zstar), using h'(zstar) = 0 to write it with y**-eta alone
    curvature = (
        dcoef * eta * (eta + 1.0) * y**-eta * a + eta * eta * b * b + (eta + 1.0) * a * b + a * a
    )
    # it overflows a little before h(zstar) does
    if not curvature < math.inf:
        raise below
    return _log_peak_integral(
        lambda u: h(zstar + u), 1.0 / math.sqrt(curvature), (-zend - zstar, zend - zstar),
        f"log P(w1 + w2 <= {eps:g})",
    )
