"""Log-domain integral transforms of the conductance law.

Both transforms here involve integrands spanning hundreds of orders of
magnitude, so the integrals are evaluated after shifting by the integrand's
log maximum and the results are returned on the log scale.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize

from .errors import ArgumentOutOfRange, NonPositiveArgument, require_time
from .tail_law import TailLaw, log_cdf, log_density

_EXP_GUARD = 500.0


def log_laplace_transform(law: TailLaw, s: float) -> float:
    """log E[exp(-s*w)] for a single conductance w, accurate for huge s.

    exp(-s*w) is the chance that a rate-w clock has not rung by time s, so s
    obeys the time rule."""
    s = require_time(s)
    if s == 0.0:
        return 0.0
    eta, dcoef = law.eta, law.dcoef

    def ell(x: float) -> float:
        return -s * x + log_density(law, x)

    # stationary point of ell: dcoef*eta - (eta+1)*x**eta - s*x**(eta+1) = 0,
    # strictly decreasing in x with a single positive root below the density mode
    def gfun(x: float) -> float:
        return dcoef * eta - (eta + 1.0) * x**eta - s * x ** (eta + 1.0)

    mode = (dcoef * eta / (eta + 1.0)) ** (1.0 / eta)
    hi = mode
    lo = mode
    while gfun(lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ArgumentOutOfRange("failed to bracket the Laplace stationary point")
    xstar = optimize.brentq(gfun, lo, hi, rtol=1e-14)
    lstar = ell(xstar)

    log_xstar = float(np.log(xstar))

    def shifted(u: float) -> float:
        # integrand decays double-exponentially in both directions; beyond the
        # float range of x it is an exact zero
        if abs(log_xstar + u) > 700.0:
            return 0.0
        x = xstar * np.exp(u)
        if x <= 0.0:
            return 0.0
        return float(np.exp(min(ell(x) - lstar + u, _EXP_GUARD)))

    val, _ = integrate.quad(shifted, -np.inf, np.inf, epsabs=0.0, epsrel=1e-10, limit=400)
    return float(lstar + np.log(xstar) + np.log(val))


def log_pair_sum_tail(law: TailLaw, eps: float) -> float:
    """log P(w1 + w2 <= eps) for two independent conductances."""
    if not (np.isfinite(eps) and eps > 0):
        raise NonPositiveArgument(f"eps must be positive and finite, got {eps!r}")

    def ell(x: float) -> float:
        return log_cdf(law, eps - x) + log_density(law, x)

    res = optimize.minimize_scalar(
        lambda x: -ell(x),
        bounds=(eps * 1e-9, eps * (1.0 - 1e-9)),
        method="bounded",
        options={"xatol": eps * 1e-13},
    )
    xstar = float(res.x)
    lstar = float(ell(xstar))

    def shifted(x: float) -> float:
        if x <= 0.0 or x >= eps:
            return 0.0
        return float(np.exp(min(ell(x) - lstar, _EXP_GUARD)))

    val, _ = integrate.quad(
        shifted, 0.0, eps, points=[xstar], epsabs=0.0, epsrel=1e-10, limit=400
    )
    return float(lstar + np.log(val))
