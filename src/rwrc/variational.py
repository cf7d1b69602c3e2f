"""Minimum edge-increment energy over occupation profiles on a domain.

The domain constant is the infimum over unit-norm nonnegative profiles g of
the sum of |increment|**(2*eta/(eta+1)) over canonical edges, g extended by
zero outside.  Two independent routes are provided: an exhaustive angular
grid search (small domains only) and a multi-start alternation between an
environment step and a profile step.  For a fixed profile the best edge
weights are a closed-form power of its increments.  For fixed weights the
profile takes one inverse-iteration step of the weighted Dirichlet form A:
g -> A^{-1} g, normalized.  That step is enough, for three reasons.  The
smoothed objective is concave in the squared increments, so any step that
lowers the weighted sum of squares lowers it (iteratively reweighted least
squares).  For a symmetric positive definite A the Rayleigh quotient of
A^{-1} x is at most that of x.  A is a nonsingular M-matrix, so A^{-1} g >= 0
for g >= 0 and the new row is already a profile.  A smoothing parameter
kappa, driven to 1e-8, keeps the weights finite where an increment vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .errors import DomainTooLarge, NonConvergence, require_positive
from .profiles import ProbabilityProfile, edge_differences, uniform_profile
from .spectral import dirichlet_matrix, solve

RESTARTS = 32          # the uniform profile, one delta per site, then seeded random starts
SEED = 7
MAX_ITER = 200         # profile steps per smoothing level
DECREASE_TOL = 1e-13   # relative decrease of a step that stops a row at its level
# smoothing levels 1e-2 down to 1e-8.  A level at 1e-1 drew every start into one
# spread profile: on a 3x3 box less a corner at eta = 1.5 it gave 3.4420, where
# the 2x3 profile extended by zero scores 3.4124
KAPPAS = tuple(10.0**-k for k in range(2, 9))
GRID_POINTS = 120      # oracle grid points per angle


@dataclass(eq=False)
class VariationalResult:
    minimizer: ProbabilityProfile
    value: float
    iterations: int
    restarts: int
    converged_restarts: int
    minimizers: list = field(default_factory=list)


def exponent(eta: float) -> float:
    """The edge exponent p = 2*eta/(eta+1) of the domain constant."""
    eta = require_positive(eta, "eta")
    return 2.0 * eta / (eta + 1.0)


def objective(g: ProbabilityProfile, eta: float) -> float:
    """Sum over edges of |g(a) - g(b)|**p, p = exponent(eta)."""
    return float(np.sum(np.abs(edge_differences(g.domain, g.values)) ** exponent(eta)))


def _objective_rows(dom: Domain, gmat: np.ndarray, p: float) -> np.ndarray:
    # edges first and contiguous, so each row adds up its edges in edge order
    u = np.ascontiguousarray(edge_differences(dom, gmat).T)
    return np.sum(np.abs(u) ** p, axis=0)


def _angles_to_profiles(theta: np.ndarray) -> np.ndarray:
    """Map angles in [0, pi/2]**(n-1) to the nonnegative unit sphere in R**n."""
    m, k = theta.shape
    out = np.empty((m, k + 1))
    sin_running = np.ones(m)
    for i in range(k):
        out[:, i] = sin_running * np.cos(theta[:, i])
        sin_running = sin_running * np.sin(theta[:, i])
    out[:, k] = sin_running
    return out


def brute_force_L(dom: Domain, eta: float) -> VariationalResult:
    """Certified grid search over the angular parameterization, |B| <= 4."""
    p = exponent(eta)
    n = dom.n_sites
    if n > 4:
        raise DomainTooLarge(f"brute force supports at most 4 sites, domain has {n}")
    if n == 1:
        g = ProbabilityProfile(dom, np.ones(1))
        return VariationalResult(g, objective(g, eta), 1, 1, 1, [g.values.copy()])

    grids = [np.linspace(0.0, np.pi / 2.0, GRID_POINTS)] * (n - 1)
    mesh = np.stack([m.ravel() for m in np.meshgrid(*grids, indexing="ij")], axis=1)
    best_val = np.inf
    best_theta = None
    evals = 0
    chunk = 200_000
    for lo in range(0, mesh.shape[0], chunk):
        block = mesh[lo : lo + chunk]
        vals = _objective_rows(dom, _angles_to_profiles(block), p)
        evals += block.shape[0]
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_theta = block[i].copy()

    # Local refinement: compass search over the full stencil of angle offsets,
    # doubling the step after each improving move and halving it after a round
    # with none, so a curved valley is not followed at a fixed small step.
    # Axis-only moves stall on the kinks where increments change sign, so
    # diagonals are included.
    theta = best_theta
    k = theta.shape[0]
    spacing = np.pi / 2.0 / (GRID_POINTS - 1)
    offsets = np.stack(
        [m.ravel() for m in np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * k), indexing="ij")],
        axis=1,
    )
    offsets = offsets[np.any(offsets != 0.0, axis=1)]
    step = spacing
    while step > 1e-13:
        cand = np.clip(theta[None, :] + step * offsets, 0.0, np.pi / 2.0)
        vals = _objective_rows(dom, _angles_to_profiles(cand), p)
        evals += cand.shape[0]
        i = int(np.argmin(vals))
        if vals[i] < best_val - 1e-15:
            best_val = float(vals[i])
            theta = cand[i]
            step *= 2.0
        else:
            step *= 0.5

    g = ProbabilityProfile.normalized(dom, _angles_to_profiles(theta[None, :])[0])
    value = objective(g, eta)
    return VariationalResult(g, value, evals, 1, 1, [g.values.copy()])


def _smoothed_rows(u: np.ndarray, p: float, kappa: float) -> np.ndarray:
    return np.sum((u * u + kappa * kappa) ** (p / 2.0), axis=1)


def _reweighted(dom: Domain, g: np.ndarray, p: float) -> tuple[np.ndarray, int, np.ndarray]:
    """Alternate environment and profile steps on every row of g at once.

    At each smoothing level kappa a row's environment step sets the edge
    weights w_e = (u_e**2 + kappa**2)**(p/2 - 1), u = the row's increments.
    Its profile step is one inverse-iteration step of A = M diag(w) M^T:
    the row becomes A^{-1} g, normalized, all live rows in one batched
    solve.  The smoothed objective sum (u**2 + kappa**2)**(p/2) is concave in
    u**2, so it lies below its tangent there, (p/2) sum w_e u_e**2 plus a
    constant.  For a unit row that sum is the Rayleigh quotient of A, and
    for a symmetric positive definite A the quotient of A^{-1} g is at most
    that of g, so the step lowers the objective.  A is a nonsingular
    M-matrix (diagonally dominant, strictly so where an exterior edge meets
    a site), so A^{-1} >= 0 entrywise and the new row is a profile.  A row
    stops at a level when a step lowers the objective by less than
    DECREASE_TOL relative, or after MAX_ITER steps.  Returns the rows, the
    profile steps summed over rows, and which rows stopped before the cap
    at the last level.
    """
    mat = dom.difference_matrix
    g = g.copy()
    steps = 0
    for kap in KAPPAS:
        live = np.arange(g.shape[0])
        u = g @ mat
        f = _smoothed_rows(u, p, kap)
        for _ in range(MAX_ITER):
            w = (u * u + kap * kap) ** (p / 2.0 - 1.0)
            vec = solve(dirichlet_matrix(dom, w), g[live][:, :, None])[:, :, 0]
            g[live] = vec / np.sqrt(np.sum(vec * vec, axis=1, keepdims=True))
            steps += live.size
            u = g[live] @ mat
            fn = _smoothed_rows(u, p, kap)
            moving = f - fn > DECREASE_TOL * f
            live, u, f = live[moving], u[moving], fn[moving]
            if live.size == 0:
                break
    converged = np.ones(g.shape[0], dtype=bool)
    converged[live] = False
    return g, steps, converged


def solve_L(dom: Domain, eta: float) -> VariationalResult:
    """Multi-start alternating minimization with smoothing continuation.

    L(B) is an infimum over profiles and environments together.
    `_reweighted` alternates the exact environment for a profile with one
    inverse-iteration step of the profile for that environment: iteratively
    reweighted least squares for the l**p sum, where a step that lowers the
    weighted Rayleigh quotient is all the majorization needs.  All starts run
    together, one matrix row each, and each profile step is one batched
    linear solve.  The final minimum scores the starts themselves too, so the
    result is never worse than the uniform profile or a delta.  Ties are
    broken toward the largest value at the origin, where the walk starts,
    then toward the lexicographically largest profile.
    """
    p = exponent(eta)
    n = dom.n_sites
    rng = np.random.default_rng(SEED)
    deltas = np.eye(n)[: min(n, RESTARTS - 1)]
    rand = rng.random((RESTARTS - 1 - deltas.shape[0], n))
    starts = np.vstack([
        uniform_profile(dom).values,
        deltas,
        rand / np.linalg.norm(rand, axis=1, keepdims=True),
    ])

    g, iterations, conv = _reweighted(dom, starts, p)
    converged = int(conv.sum())
    if converged == 0:
        raise NonConvergence(
            f"no restart reached stationarity (restarts={RESTARTS}, iterations={iterations})"
        )

    # the starts first: a sort is stable, so an exact start wins a tie with its
    # rounded twin
    cands = np.vstack([starts, g])
    vals = _objective_rows(dom, cands, p)
    o = dom.origin_index
    best = vals.min()
    ties = [row for v, row in zip(vals, cands) if v <= best + 1e-9]
    ties.sort(key=lambda g: (round(g[o], 12), tuple(np.round(g, 12))), reverse=True)
    distinct: list[np.ndarray] = []
    for g in ties:
        if all(np.max(np.abs(g - h)) > 1e-6 for h in distinct):
            distinct.append(g.copy())
    minimizer = ProbabilityProfile.normalized(dom, ties[0])
    return VariationalResult(
        minimizer=minimizer,
        value=objective(minimizer, eta),
        iterations=iterations,
        restarts=RESTARTS,
        converged_restarts=converged,
        minimizers=distinct,
    )
