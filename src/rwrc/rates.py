"""Occupation and environment rate functions and their optimality identity.

For a profile g and environment weights w the occupation (Dirichlet) rate is
the quadratic form sum of w*|increment|**2 over edges, the environment rate
is dcoef * sum of w**(-eta), and minimizing their sum edge by edge yields the
closed-form joint rate with constant
``(1 + 1/eta) * (dcoef*eta)**(1/(eta+1))`` and increment exponent
``2*eta/(eta+1)``.
"""

from __future__ import annotations

import numpy as np

from .conductance import DEFAULT_CAP, ConductanceField, optimal_profile, require_same_domain
from .profiles import ProbabilityProfile, edge_differences
from .tail_law import TailLaw
from .variational import exponent, objective


def dv_rate_I(phi: ConductanceField, g: ProbabilityProfile) -> float:
    """Donsker-Varadhan occupation rate of g**2 in the fixed environment phi."""
    require_same_domain(phi, g.domain)
    diffs = edge_differences(g.domain, g.values)
    return float(np.sum(phi.weights * diffs**2))


def env_rate_H(phi: ConductanceField, law: TailLaw) -> float:
    """Environment rate: cost of seeing weights as small as phi under the law."""
    return float(law.dcoef * np.sum(phi.weights ** (-law.eta)))


def k_const(law: TailLaw) -> float:
    """Constant in the joint rate, (1 + 1/eta) * (dcoef*eta)**(1/(eta+1))."""
    return float((1.0 + 1.0 / law.eta) * (law.dcoef * law.eta) ** (1.0 / (law.eta + 1.0)))


def joint_rate_J(g: ProbabilityProfile, law: TailLaw) -> float:
    """Joint rate after optimizing the environment edge by edge: K times the objective."""
    return k_const(law) * objective(g, law.eta)


def check_infimum_identity(
    g: ProbabilityProfile,
    law: TailLaw,
    phi_samples,
    cap: float = DEFAULT_CAP,
) -> dict:
    """Verify J(g**2) = inf over environments of I + H.

    ``max_violation`` is the largest J - (I + H) over the supplied sample
    environments (nonpositive up to rounding).  At the optimal environment
    the identity holds edge by edge wherever g has a nonzero increment;
    capped edges contribute nothing to I and ``dcoef * cap**-eta`` each to H,
    reported separately.
    """
    j_val = joint_rate_J(g, law)
    max_violation = -np.inf
    for phi in phi_samples:
        gap = j_val - (dv_rate_I(phi, g) + env_rate_H(phi, law))
        max_violation = max(max_violation, gap)

    phi_star = optimal_profile(g, law, cap=cap)
    diffs = np.abs(edge_differences(g.domain, g.values))
    active = diffs > 0.0
    lhs = k_const(law) * diffs[active] ** exponent(law.eta)
    w = phi_star.weights[active]
    rhs = w * diffs[active] ** 2 + law.dcoef * w ** (-law.eta)
    equality_gap = float(np.max(np.abs(lhs - rhs))) if active.any() else 0.0
    capped_count = int(np.sum(~active))
    return {
        "joint_rate": j_val,
        "max_violation": float(max_violation),
        "equality_gap": equality_gap,
        "capped_count": capped_count,
        "capped_env_rate": float(law.dcoef * cap ** (-law.eta) * capped_count),
        "cap": float(cap),
    }
