"""Change of measure between environments along walk paths.

The pathwise log density of the walk in environment phi relative to psi is a
sum over traversed edges of log weight ratios, minus the local times weighted
by the jump-rate differences.  Paths stopped at the boundary include the exit
edge's ratio and no further correction, which keeps the density normalized on
the recorded path sigma-field.  Also provides the additive-band comparison bound
and the test-function upper bound for occupation-measure events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conductance import ConductanceField, require_same_domain
from .domain import Domain
from .errors import (
    ArgumentOutOfRange,
    DomainMismatch,
    EpsilonTooLarge,
    NonPositiveArgument,
    UnsupportedSetShape,
)
from .profiles import edge_adjoint, edge_differences
from .spectral import semigroup_nonexit
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
    if n < 1:
        raise ArgumentOutOfRange(f"trial count must be at least 1, got {n}")
    require_same_domain(phi, dom)
    require_same_domain(psi, dom)
    vals = np.empty(int(n))
    for i in range(int(n)):
        p = simulate(psi, dom, t, rng)
        if event(p):
            vals[i] = np.exp(girsanov_log_density(p, phi, psi))
        else:
            vals[i] = 0.0
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
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
    if not (np.isfinite(eps) and eps > 0):
        raise NonPositiveArgument(f"eps must be positive, got {eps!r}")
    if eps >= float(np.min(psi.weights)):
        raise EpsilonTooLarge(
            f"eps={eps} is not below the smallest weight {float(np.min(psi.weights))}"
        )
    factor = float(np.exp(-4.0 * dom.d * eps * t))
    lowered = ConductanceField(dom, psi.weights - eps)
    if method == "exact":
        base, base_se = semigroup_nonexit(lowered, dom, t), 0.0
    elif method == "mc":
        if event is None:
            event = nonexit_event
        base, base_se = _event_mc(event, lowered, dom, t, n_paths, rng)
    else:
        raise ArgumentOutOfRange(f"unknown method {method!r}")
    margins = []
    violations = 0
    for _ in range(int(n_fields)):
        w = psi.weights + eps * (2.0 * rng.random(dom.n_edges) - 1.0)
        phi = ConductanceField(dom, w)
        if method == "exact":
            lhs, lhs_se = semigroup_nonexit(phi, dom, t), 0.0
        else:
            lhs, lhs_se = _event_mc(event, phi, dom, t, n_paths, rng)
        margin = lhs - factor * base
        tol = 1e-12 if method == "exact" else 3.0 * np.hypot(lhs_se, factor * base_se)
        if margin < -tol:
            violations += 1
        margins.append(margin)
    margins = np.asarray(margins)
    return {
        "method": method,
        "factor": factor,
        "base": base,
        "base_se": base_se,
        "n_fields": int(n_fields),
        "min_margin": float(margins.min()),
        "violations": int(violations),
        "ok": violations == 0,
    }


def _event_mc(event, f, dom, t, n, rng) -> tuple[float, float]:
    hits = 0
    for _ in range(int(n)):
        if event(simulate(f, dom, t, rng)):
            hits += 1
    p = hits / n
    return float(p), float(np.sqrt(p * (1.0 - p) / n))


@dataclass(frozen=True)
class PointSet:
    """Single occupation measure, given as the vector of site masses."""

    point: tuple


@dataclass(frozen=True)
class BoxSet:
    """Product of per-site mass intervals [lo, hi]."""

    lo: tuple
    hi: tuple


@dataclass(frozen=True)
class VertexSet:
    """Polytope of occupation measures described by its vertices."""

    vertices: tuple


def feynman_kac_upper_bound(
    f_test, phi: ConductanceField, dom: Domain, target_set, t: float
) -> float:
    """Upper bound on the probability that the occupation measure lies in a set.

    For a positive test function f on the domain (zero outside) the bound is
    (f(origin) / min f) * exp(t * sup over the set of sum_x (Lf/f)(x) h(x))
    where L is the environment generator and h runs over the set's mass
    vectors.  The supremum of this linear functional is closed-form for a
    point or a box and a vertex maximum otherwise.
    """
    require_same_domain(phi, dom)
    if not (np.isfinite(t) and t >= 0):
        raise ArgumentOutOfRange(f"time must be finite and nonnegative, got {t!r}")
    f = np.asarray(f_test, dtype=float).reshape(-1)
    if f.shape[0] != dom.n_sites:
        raise DomainMismatch("test function length does not match the domain")
    if not np.all(np.isfinite(f)) or np.any(f <= 0):
        raise NonPositiveArgument("test function must be strictly positive on the domain")
    # (Lf/f) with the generator L = -D^T W D, f extended by zero outside the domain
    coeff = -edge_adjoint(dom, phi.weights * edge_differences(dom, f)) / f

    if isinstance(target_set, PointSet):
        h = np.asarray(target_set.point, dtype=float)
        if h.shape != coeff.shape:
            raise UnsupportedSetShape("point must be a per-site mass vector")
        sup = float(coeff @ h)
    elif isinstance(target_set, BoxSet):
        lo = np.asarray(target_set.lo, dtype=float)
        hi = np.asarray(target_set.hi, dtype=float)
        if lo.shape != coeff.shape or hi.shape != coeff.shape or np.any(lo > hi):
            raise UnsupportedSetShape("box bounds must be valid per-site intervals")
        sup = float(np.sum(np.where(coeff >= 0, coeff * hi, coeff * lo)))
    elif isinstance(target_set, VertexSet):
        verts = [np.asarray(v, dtype=float) for v in target_set.vertices]
        if not verts or any(v.shape != coeff.shape for v in verts):
            raise UnsupportedSetShape("vertices must be per-site mass vectors")
        sup = max(float(coeff @ v) for v in verts)
    else:
        raise UnsupportedSetShape(f"unsupported target set {type(target_set).__name__}")
    origin = dom.origin_index
    return float(f[origin] / np.min(f) * np.exp(t * sup))
