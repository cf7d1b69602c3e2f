"""Minimum edge-increment energy over occupation profiles on a domain.

The domain constant is the infimum over unit-norm nonnegative profiles g of
the sum of |increment|**(2*eta/(eta+1)) over canonical edges, g extended by
zero outside.  Two independent routes are provided: an exhaustive angular
grid search (small domains only) and a multi-start alternation between the
two exact halves of the joint infimum over profile and environment: for a
fixed profile the best edge weights are a closed-form power of its
increments, and for fixed weights the best profile is the principal
eigenvector of the weighted Dirichlet form.  A smoothing parameter kappa,
driven to 1e-8, keeps the weights finite where an increment vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .errors import DomainTooLarge, NonConvergence, require_positive
from .profiles import ProbabilityProfile, edge_differences, uniform_profile
from .spectral import dirichlet_matrix, eigh

RESTARTS = 32          # the uniform profile, one delta per site, then seeded random starts
SEED = 7
MAX_ITER = 200         # eigen-steps per smoothing level
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
    """Alternate exact environment and profile steps on every row of g at once.

    At each smoothing level kappa a row's environment step sets the edge
    weights w_e = (u_e**2 + kappa**2)**(p/2 - 1), u = the row's increments,
    and its profile step replaces the row by the principal eigenvector of
    the weighted operator M diag(w) M^T.  That eigenvector is of one sign
    (Perron-Frobenius), so its absolute value is a profile.  Each step
    lowers the smoothed objective sum (u**2 + kappa**2)**(p/2).  A row stops
    at a level when a step lowers that by less than DECREASE_TOL relative,
    or after MAX_ITER steps.  Returns the rows, the eigen-steps summed over
    rows, and which rows stopped before the cap at the last level.
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
            vec = eigh(dirichlet_matrix(dom, w))[1][:, :, 0]
            g[live] = np.abs(vec)
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

    L(B) is an infimum over profiles and environments together; each half
    has an exact minimizer, and `_reweighted` alternates them (iteratively
    reweighted least squares for the l**p sum, whose least-squares step is
    an eigenproblem).  All starts run together, one matrix row each.  The
    final minimum scores the starts themselves too, so the result is never
    worse than the uniform profile or a delta.  Ties are broken toward the
    largest value at the origin, where the walk starts, then toward the
    lexicographically largest profile.
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
