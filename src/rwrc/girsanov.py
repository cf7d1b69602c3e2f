"""Change of measure between environments along walk paths.

The pathwise log density of the walk in environment phi relative to psi is a
sum over traversed edges of log weight ratios, minus the local times weighted
by the jump-rate differences.  Paths stopped at the boundary include the exit
edge's ratio and no further correction, which keeps the density normalized on
the recorded path sigma-field.  Also provides the additive-band comparison bound
and the test-function upper bound for occupation-measure events.
"""

from __future__ import annotations

import numpy as np

from .conductance import ConductanceField, require_same_domain
from .domain import Domain
from .errors import (
    ArgumentOutOfRange,
    DomainMismatch,
    EpsilonTooLarge,
    NonPositiveArgument,
    require_count,
    require_positive,
    require_time,
)
from .spectral import assemble, nonexit_stack, semigroup_nonexit
from .walk import PathRecord, _walk_tables, simulate


def girsanov_log_density(p: PathRecord, phi: ConductanceField, psi: ConductanceField) -> float:
    """log of the density of the phi-walk relative to the psi-walk along p."""
    require_same_domain(phi, p.domain)
    require_same_domain(psi, p.domain)
    a, b = _walk_tables(phi), _walk_tables(psi)
    log_ratio = a.log_weights - b.log_weights
    return float(log_ratio[p.crossed].sum() - p.occupation @ (a.rates - b.rates))


def reweighted_probability(
    event,
    phi: ConductanceField,
    psi: ConductanceField,
    dom: Domain,
    t: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Estimate P(event) under phi by simulating under psi and reweighting."""
    n = require_count(n, 2, "n_paths")
    require_same_domain(phi, dom)
    require_same_domain(psi, dom)
    vals = np.empty(n)
    for i in range(n):
        p = simulate(psi, dom, t, rng)
        if event(p):
            vals[i] = np.exp(girsanov_log_density(p, phi, psi))
        else:
            vals[i] = 0.0
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n))
    return est, se


def nonexit_event(p: PathRecord) -> bool:
    return not p.exited


def comparison_bound_check(
    psi: ConductanceField,
    eps: float,
    dom: Domain,
    t: float,
    n_fields: int,
    rng: np.random.Generator,
    method: str = "exact",
    event=None,
    n_paths: int = 10000,
) -> dict:
    """Check P_phi(F) >= exp(-4*d*eps*t) * P_(psi-eps)(F) over sampled phi.

    Fields phi are drawn uniformly in the band [psi-eps, psi+eps] edge by
    edge.  With method "exact" the event is non-exit and both sides are
    semigroup values; with method "mc" both sides are path Monte Carlo
    estimates of an arbitrary path event and violations are flagged beyond
    three joint standard errors.
    """
    require_same_domain(psi, dom)
    eps = require_positive(eps, "eps")
    n_fields = require_count(n_fields, 1, "n_fields")
    if eps >= float(np.min(psi.weights)):
        raise EpsilonTooLarge(
            f"eps={eps} is not below the smallest weight {float(np.min(psi.weights))}"
        )
    factor = float(np.exp(-4.0 * dom.d * eps * t))
    lowered = ConductanceField(dom, psi.weights - eps)
    if method == "exact":
        base, base_se = semigroup_nonexit(lowered, dom, t), 0.0
        w = psi.weights + eps * (2.0 * rng.random((n_fields, dom.n_edges)) - 1.0)
        lhs, lhs_se = nonexit_stack(dom, w, t), 0.0
    elif method == "mc":
        event = nonexit_event if event is None else event
        base, base_se = _event_mc(event, lowered, dom, t, n_paths, rng)
        lhs, lhs_se = np.empty(n_fields), np.empty(n_fields)
        for i in range(n_fields):
            w = psi.weights + eps * (2.0 * rng.random(dom.n_edges) - 1.0)
            lhs[i], lhs_se[i] = _event_mc(event, ConductanceField(dom, w), dom, t, n_paths, rng)
    else:
        raise ArgumentOutOfRange(f"unknown method {method!r}")
    margins = lhs - factor * base
    tol = 1e-12 if method == "exact" else 3.0 * np.hypot(lhs_se, factor * base_se)
    violations = int(np.sum(margins < -tol))
    return {
        "method": method,
        "factor": factor,
        "base": base,
        "base_se": base_se,
        "n_fields": n_fields,
        "min_margin": float(margins.min()),
        "violations": violations,
        "ok": violations == 0,
    }


def _event_mc(event, f, dom, t, n, rng) -> tuple[float, float]:
    n = require_count(n, 2, "n_paths")
    p = sum(bool(event(simulate(f, dom, t, rng))) for _ in range(n)) / n
    return float(p), float(np.sqrt(p * (1.0 - p) / n))


def feynman_kac_upper_bound(
    f_test, phi: ConductanceField, dom: Domain, masses, t: float
) -> float:
    """Upper bound on the probability that the occupation measure lies in a set.

    For a positive test function f on the domain (zero outside) the bound is
    (f(origin) / min f) * exp(t * sup over the set of sum_x (Lf/f)(x) h(x))
    where L is the environment generator and h runs over the set's mass
    vectors.  The set is the convex hull of the rows of ``masses``, a (k, n)
    array of per-site mass vectors (a point is one row, a box its 2**n
    corners), so the supremum of this linear functional is a maximum over rows.
    """
    require_same_domain(phi, dom)
    t = require_time(t)
    f = np.asarray(f_test, dtype=float).reshape(-1)
    if f.shape[0] != dom.n_sites:
        raise DomainMismatch("test function length does not match the domain")
    if not np.all(np.isfinite(f)) or np.any(f <= 0):
        raise NonPositiveArgument("test function must be strictly positive on the domain")
    h = np.asarray(masses, dtype=float)
    if h.ndim != 2 or h.shape[0] == 0 or not np.all(np.isfinite(h)):
        raise ArgumentOutOfRange("masses must be a nonempty (k, n) array of finite mass vectors")
    if h.shape[1] != dom.n_sites:
        raise DomainMismatch("mass vector length does not match the domain")
    # (Lf/f) with the generator L = -M diag(w) M^T, f extended by zero outside the domain
    coeff = -(assemble(phi, dom).matrix @ f) / f
    origin = dom.origin_index
    return float(f[origin] / np.min(f) * np.exp(t * np.max(h @ coeff)))
