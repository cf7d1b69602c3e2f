"""Minimum edge-increment energy over occupation profiles on a domain.

The domain constant is the infimum over unit-norm nonnegative profiles g of
the sum of |increment|**(2*eta/(eta+1)) over canonical edges, g extended by
zero outside.  Two independent routes are provided: an exhaustive angular
grid search (small domains only) and multi-start projected gradient descent
with smoothing continuation for the nonsmooth exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .errors import DomainTooLarge, NonConvergence, NonPositiveArgument
from .profiles import ProbabilityProfile, edge_adjoint, edge_differences, uniform_profile

RESTARTS = 32          # the uniform profile, one delta per site, then seeded random starts
SEED = 7
MAX_ITER = 400         # gradient steps per smoothing level
STEP_INIT = 1.0
TOL = 1e-11            # relative step length that counts as stationary
# smoothing levels 0.1, 0.1*0.1, ... down to 1e-6, as repeated products: decimal
# literals such as 0.01 would be different floats
KAPPAS = (0.1, 0.010000000000000002, 0.0010000000000000002, 0.00010000000000000003,
          1.0000000000000004e-05, 1.0000000000000004e-06)
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
    if not (np.isfinite(eta) and eta > 0):
        raise NonPositiveArgument(f"eta must be positive, got {eta!r}")
    return 2.0 * eta / (eta + 1.0)


def objective(g: ProbabilityProfile, eta: float) -> float:
    """Sum over edges of |g(a) - g(b)|**p, p = exponent(eta)."""
    return float(np.sum(np.abs(edge_differences(g.domain, g.values)) ** exponent(eta)))


def _objective_rows(dom: Domain, gmat: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.abs(edge_differences(dom, gmat)) ** p, axis=1)


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


def _row_norms(x: np.ndarray) -> np.ndarray:
    # one BLAS dot per row, the same bits as np.linalg.norm of that row
    return np.sqrt(np.vecdot(x, x))


def _project(v: np.ndarray) -> np.ndarray:
    """Clip each row to the nonnegative orthant and scale it to unit norm.

    A row that clips to zero becomes the uniform profile.
    """
    w = np.clip(v, 0.0, None)
    dead = _row_norms(w) <= 0.0
    w[dead] = 1.0
    return w / _row_norms(w)[:, None]


def _pgd(dom: Domain, g: np.ndarray, p: float, kappa: float):
    """Projected gradient descent at one smoothing level, on all rows of g in lockstep.

    Each row keeps its own step, objective value and iteration count, and
    stops on its own: when the line search finds no descent, when a step
    moves it by less than TOL relative to its norm (both count as
    converged), or after MAX_ITER steps.  Returns the final rows, the number
    of gradient steps each row took, and which rows converged.
    """

    def fval(x: np.ndarray) -> np.ndarray:
        u = edge_differences(dom, x)
        # summed along contiguous rows, so each row adds up in the order a 1-D sum uses
        return np.sum(np.ascontiguousarray((u * u + kappa * kappa) ** (p / 2.0)), axis=1)

    def grad(x: np.ndarray) -> np.ndarray:
        u = edge_differences(dom, x)
        return edge_adjoint(dom, p * u * (u * u + kappa * kappa) ** (p / 2.0 - 1.0))

    g = g.copy()
    m = g.shape[0]
    step = np.full(m, STEP_INIT)
    f = fval(g)
    iters = np.full(m, MAX_ITER)
    converged = np.zeros(m, dtype=bool)
    live = np.arange(m)
    for it in range(MAX_ITER):
        if live.size == 0:
            break
        x = g[live]
        gr = grad(x)
        cand = np.empty_like(x)
        fc = np.empty(live.size)
        found = np.zeros(live.size, dtype=bool)
        # backtracking line search on the rows (positions in live) still without a trial
        search = np.flatnonzero(step[live] > 1e-16)
        while search.size:
            rows = live[search]
            trial = _project(x[search] - step[rows, None] * gr[search])
            ft = fval(trial)
            ok = ft <= f[rows] - 1e-12 * (1.0 + np.abs(f[rows]))
            cand[search[ok]] = trial[ok]
            fc[search[ok]] = ft[ok]
            found[search[ok]] = True
            step[rows[~ok]] *= 0.5
            search = search[~ok & (step[rows] > 1e-16)]
        moving = found.copy()
        moving[found] = ~(_row_norms(cand[found] - x[found]) <= TOL * (1.0 + _row_norms(x[found])))
        g[live[found]] = cand[found]  # a row with no descent keeps its point
        stopped = live[~moving]
        iters[stopped] = it + 1
        converged[stopped] = True
        live = live[moving]
        f[live] = fc[moving]
        step[live] = np.minimum(step[live] * 1.5, 1e3)
    return g, iters, converged


def solve_L(dom: Domain, eta: float) -> VariationalResult:
    """Multi-start projected gradient descent with smoothing continuation.

    The nonsmooth |u|**p terms are replaced by (u**2 + kappa**2)**(p/2) and
    kappa is driven down a geometric schedule; iterates are projected onto
    the nonnegative part of the unit sphere.  All restarts descend together,
    one matrix row each.  A restart counts as converged when it is
    stationary at the last smoothing level.  Ties between restarts are
    broken toward the lexicographically largest profile.
    """
    p = exponent(eta)
    n = dom.n_sites
    rng = np.random.default_rng(SEED)
    deltas = np.eye(n)[: min(n, RESTARTS - 1)]
    g = np.vstack([
        uniform_profile(dom).values,
        deltas,
        _project(rng.random((RESTARTS - 1 - deltas.shape[0], n))),
    ])

    total_iter = 0
    for kap in KAPPAS:
        g, iters, conv = _pgd(dom, g, p, kap)
        total_iter += int(iters.sum())
    converged = int(conv.sum())
    if converged == 0:
        raise NonConvergence(
            f"no restart reached stationarity (restarts={RESTARTS}, iterations={total_iter})"
        )

    finals = []
    for row in g:
        gp = ProbabilityProfile.normalized(dom, row)
        finals.append((objective(gp, eta), gp.values))
    best_val = min(v for v, _ in finals)
    ties = [g for v, g in finals if v <= best_val + 1e-9]
    ties.sort(key=lambda g: tuple(np.round(g, 12)), reverse=True)
    winner = ties[0]
    distinct: list[np.ndarray] = []
    for g in ties:
        if all(np.max(np.abs(g - h)) > 1e-6 for h in distinct):
            distinct.append(g.copy())
    minimizer = ProbabilityProfile.normalized(dom, winner)
    return VariationalResult(
        minimizer=minimizer,
        value=objective(minimizer, eta),
        iterations=total_iter,
        restarts=RESTARTS,
        converged_restarts=converged,
        minimizers=distinct,
    )
