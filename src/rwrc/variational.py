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
from .errors import ArgumentOutOfRange, DomainTooLarge, NonConvergence, NonPositiveArgument
from .profiles import ProbabilityProfile, edge_adjoint, edge_differences, uniform_profile


@dataclass(eq=False)
class VariationalResult:
    minimizer: ProbabilityProfile
    value: float
    iterations: int
    restarts: int
    converged_restarts: int
    smoothing_final: float
    minimizers: list = field(default_factory=list)


@dataclass
class SolverOptions:
    restarts: int = 32
    max_iter: int = 400
    kappa_init: float = 0.1
    kappa_min: float = 1e-6
    kappa_factor: float = 0.1
    step_init: float = 1.0
    tol: float = 1e-11
    seed: int = 7


def objective(g: ProbabilityProfile, eta: float) -> float:
    """Sum over edges of |g(a) - g(b)|**(2*eta/(eta+1))."""
    if not (np.isfinite(eta) and eta > 0):
        raise NonPositiveArgument(f"eta must be positive, got {eta!r}")
    p = 2.0 * eta / (eta + 1.0)
    return float(np.sum(np.abs(edge_differences(g.domain, g.values)) ** p))


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


def brute_force_L(dom: Domain, eta: float, grid_points_per_axis: int = 120) -> VariationalResult:
    """Certified grid search over the angular parameterization, |B| <= 4."""
    if not (np.isfinite(eta) and eta > 0):
        raise NonPositiveArgument(f"eta must be positive, got {eta!r}")
    n = dom.n_sites
    if n > 4:
        raise DomainTooLarge(f"brute force supports at most 4 sites, domain has {n}")
    if grid_points_per_axis < 100:
        raise ArgumentOutOfRange("grid must have at least 100 points per angle")
    p = 2.0 * eta / (eta + 1.0)
    if n == 1:
        g = ProbabilityProfile(dom, np.ones(1))
        return VariationalResult(g, objective(g, eta), 1, 1, 1, 0.0, [g.values.copy()])

    grids = [np.linspace(0.0, np.pi / 2.0, grid_points_per_axis)] * (n - 1)
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

    # Local refinement: pattern search over the full stencil of angle offsets,
    # bisecting the step each time no neighbor improves.  Axis-only moves stall
    # on the kinks where increments change sign, so diagonals are included.
    theta = best_theta
    k = theta.shape[0]
    spacing = np.pi / 2.0 / (grid_points_per_axis - 1)
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
        else:
            step *= 0.5

    g = ProbabilityProfile.normalized(dom, _angles_to_profiles(theta[None, :])[0])
    value = objective(g, eta)
    return VariationalResult(g, value, evals, 1, 1, 0.0, [g.values.copy()])


def _project(v: np.ndarray) -> np.ndarray:
    w = np.clip(v, 0.0, None)
    nrm = np.linalg.norm(w)
    if nrm <= 0.0:
        w = np.ones_like(v)
        nrm = np.linalg.norm(w)
    return w / nrm


def _pgd(dom: Domain, g: np.ndarray, p: float, kappa: float, opts: SolverOptions):
    def fval(x: np.ndarray) -> float:
        u = edge_differences(dom, x)
        return float(np.sum((u * u + kappa * kappa) ** (p / 2.0)))

    def grad(x: np.ndarray) -> np.ndarray:
        u = edge_differences(dom, x)
        return edge_adjoint(dom, p * u * (u * u + kappa * kappa) ** (p / 2.0 - 1.0))

    step = opts.step_init
    f = fval(g)
    for it in range(opts.max_iter):
        gr = grad(g)
        cand, fc = None, None
        while step > 1e-16:
            trial = _project(g - step * gr)
            ft = fval(trial)
            if ft <= f - 1e-12 * (1.0 + abs(f)):
                cand, fc = trial, ft
                break
            step *= 0.5
        if cand is None:
            return g, it + 1, True
        if np.linalg.norm(cand - g) <= opts.tol * (1.0 + np.linalg.norm(g)):
            return cand, it + 1, True
        g, f = cand, fc
        step = min(step * 1.5, 1e3)
    return g, opts.max_iter, False


def solve_L(dom: Domain, eta: float, opts: SolverOptions | None = None) -> VariationalResult:
    """Multi-start projected gradient descent with smoothing continuation.

    The nonsmooth |u|**p terms are replaced by (u**2 + kappa**2)**(p/2) and
    kappa is driven down a geometric schedule; iterates are projected onto
    the nonnegative part of the unit sphere.  Ties between restarts are
    broken toward the lexicographically largest profile.
    """
    if not (np.isfinite(eta) and eta > 0):
        raise NonPositiveArgument(f"eta must be positive, got {eta!r}")
    opts = opts or SolverOptions()
    n = dom.n_sites
    p = 2.0 * eta / (eta + 1.0)
    rng = np.random.default_rng(opts.seed)

    starts = [uniform_profile(dom).values]
    for i in range(min(n, max(opts.restarts - 1, 0))):
        e = np.zeros(n)
        e[i] = 1.0
        starts.append(e)
    while len(starts) < opts.restarts:
        starts.append(_project(rng.random(n)))
    starts = starts[: max(opts.restarts, 1)]

    total_iter = 0
    converged = 0
    finals: list[tuple[float, np.ndarray, bool]] = []
    kappas = []
    kappa = opts.kappa_init
    while kappa >= opts.kappa_min * (1.0 - 1e-12):
        kappas.append(kappa)
        kappa *= opts.kappa_factor
    for g0 in starts:
        g = g0.copy()
        ok = True
        for kap in kappas:
            g, iters, conv = _pgd(dom, g, p, kap, opts)
            total_iter += iters
            ok = ok and conv
        gp = ProbabilityProfile.normalized(dom, g)
        finals.append((objective(gp, eta), gp.values, ok))
        if ok:
            converged += 1
    if converged == 0:
        raise NonConvergence(
            f"no restart reached stationarity (restarts={len(starts)}, iterations={total_iter})"
        )

    best_val = min(v for v, _, _ in finals)
    ties = [g for v, g, _ in finals if v <= best_val + 1e-9]
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
        restarts=len(starts),
        converged_restarts=converged,
        smoothing_final=kappas[-1] if kappas else 0.0,
        minimizers=distinct,
    )
