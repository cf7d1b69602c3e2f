"""Exact event-driven simulation of the killed conductance walk.

The walk holds at site x for an Exponential(total incident weight) time, then
jumps through an incident edge with probability proportional to its weight.
Jumping through a boundary edge kills the walk.  Each step consumes one
holding-time draw followed by one edge-selection draw, in that order, so runs
are reproducible under a fixed seed.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .conductance import ConductanceField, require_same_domain, site_totals
from .domain import Domain
from .errors import ArgumentOutOfRange


@dataclass(eq=False)
class PathRecord:
    """One killed path: interior jumps plus the optional exit event.

    ``sites`` lists the visited site indices starting at ``start``;
    ``jump_times`` holds the corresponding interior jump times, strictly
    increasing and bounded by the horizon (by the exit time if the walk
    exited).  The exterior endpoint of an exit is kept as a raw lattice
    point since it has no site index.  ``occupation`` is the time spent at
    each site up to ``end_time``, and ``crossed`` lists the traversed edges:
    the jump edges, then the exit edge if the walk exited.
    """

    domain: Domain
    start: int
    jump_times: np.ndarray
    sites: np.ndarray
    jump_edges: np.ndarray
    horizon: float
    exited: bool
    exit_time: float | None
    exit_edge: int | None
    exit_point: tuple[int, ...] | None
    occupation: np.ndarray
    crossed: np.ndarray

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.shape[0])

    @property
    def end_time(self) -> float:
        return float(self.exit_time) if self.exited else self.horizon


class _WalkTables:
    """Jump rates and cumulative edge-selection rows of one field.

    ``rates`` and ``cum`` are arrays for the lockstep engine.  ``lists`` holds
    the same rows, plus the domain's ``site_edges`` and ``site_nbrs``, as
    Python lists, since the per-path engine reads one entry per jump and a
    list index is cheaper than a numpy scalar read.  ``lists`` and
    ``log_weights`` are built on first use.
    """

    def __init__(self, f: ConductanceField):
        self.weights = f.weights
        self.domain = f.domain
        self.rates = site_totals(f)
        probs = f.weights[f.domain.site_edges] / self.rates[:, None]
        self.cum = np.cumsum(probs, axis=1)
        self.cum[:, -1] = 1.0

    @functools.cached_property
    def lists(self) -> tuple[list, list, list, list]:
        edges, nbrs = self.domain.site_edges.tolist(), self.domain.site_nbrs.tolist()
        return self.rates.tolist(), self.cum.tolist(), edges, nbrs

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


def _walk_tables(f: ConductanceField) -> _WalkTables:
    """The field's walk tables, memoized on it."""
    cached = getattr(f, "_walk_tables", None)
    if cached is not None:
        return cached
    tables = _WalkTables(f)
    # the field is frozen with read-only weights, so the tables never go stale
    object.__setattr__(f, "_walk_tables", tables)
    return tables


def simulate(
    f: ConductanceField,
    dom: Domain,
    t: float,
    rng: np.random.Generator,
) -> PathRecord:
    """Run one path from the origin until it exits or reaches the horizon t.

    Local times are booked as the walk runs: each holding interval is added
    to its site in path order, the arithmetic of differencing the jump times.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ArgumentOutOfRange(f"horizon must be a finite nonnegative time, got {t!r}")
    require_same_domain(f, dom)
    rates, cum, site_edges, site_nbrs = _walk_tables(f).lists
    exponential, uniform = rng.standard_exponential, rng.random
    t = float(t)
    site = dom.origin_index
    now = 0.0
    occupation = [0.0] * dom.n_sites
    jump_times: list[float] = []
    visited = [site]
    crossed: list[int] = []
    exited = False
    exit_time = exit_edge = exit_point = None
    while now < t:
        nxt = now + exponential() / rates[site]
        if nxt > t:
            break
        # searchsorted(side="right"); u < 1.0 = the row's last entry, so k is a column
        k = bisect.bisect_right(cum[site], uniform())
        edge = site_edges[site][k]
        target = site_nbrs[site][k]
        occupation[site] += nxt - now
        now = nxt
        crossed.append(edge)
        if target < 0:
            exited = True
            exit_time = now
            exit_edge = edge
            exit_point = dom.edges[edge].b_point
            break
        jump_times.append(now)
        visited.append(target)
        site = target
    if not exited:
        occupation[site] += t - now
    crossed_arr = np.array(crossed, dtype=np.int64)
    return PathRecord(
        domain=dom,
        start=dom.origin_index,
        jump_times=np.array(jump_times, dtype=float),
        sites=np.array(visited, dtype=np.int64),
        jump_edges=crossed_arr[: len(jump_times)],
        horizon=t,
        exited=exited,
        exit_time=exit_time,
        exit_edge=exit_edge,
        exit_point=exit_point,
        occupation=np.array(occupation),
        crossed=crossed_arr,
    )


def _simulate_batch(
    f: ConductanceField,
    dom: Domain,
    t: float,
    n: int,
    rng: np.random.Generator,
    want_occupation: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Lockstep simulation of n independent paths.

    Per step one vector of holding times is drawn for all running walkers,
    then one vector of edge selections for those that jump; deterministic
    under a fixed seed, though the draw order differs from simulate's
    per-path order.
    """
    require_same_domain(f, dom)
    tables = _walk_tables(f)
    rates, cum = tables.rates, tables.cum
    nbr = dom.site_nbrs
    cur = np.full(n, dom.origin_index, dtype=np.int64)
    now = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    exited = np.zeros(n, dtype=bool)
    end_time = np.full(n, float(t))
    occ = np.zeros((n, dom.n_sites)) if want_occupation else None
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        r = rates[cur[idx]]
        dt = rng.standard_exponential(idx.size) / r
        t_new = now[idx] + dt
        over = t_new > t
        fin = idx[over]
        if fin.size and want_occupation:
            occ[fin, cur[fin]] += t - now[fin]
        alive[fin] = False
        mov = idx[~over]
        if mov.size == 0:
            continue
        if want_occupation:
            occ[mov, cur[mov]] += dt[~over]
        now[mov] = t_new[~over]
        u = rng.random(mov.size)
        rows = cum[cur[mov]]
        k = (u[:, None] < rows).argmax(axis=1)
        target = nbr[cur[mov], k]
        out = target < 0
        exd = mov[out]
        exited[exd] = True
        end_time[exd] = now[exd]
        alive[exd] = False
        cur[mov[~out]] = target[~out]
    return exited, end_time, occ


def nonexit_mc(
    f: ConductanceField, dom: Domain, t: float, n: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo non-exit probability with its binomial standard error."""
    if n < 1:
        raise ArgumentOutOfRange(f"trial count must be at least 1, got {n}")
    if not (np.isfinite(t) and t >= 0):
        raise ArgumentOutOfRange(f"horizon must be a finite nonnegative time, got {t!r}")
    exited, _, _ = _simulate_batch(f, dom, t, int(n), rng, want_occupation=False)
    p = float(np.mean(~exited))
    se = float(np.sqrt(p * (1.0 - p) / n))
    return p, se


def occupation_mc(
    f: ConductanceField, dom: Domain, t: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exit flags, end times, and per-site occupation for n independent paths."""
    if n < 1:
        raise ArgumentOutOfRange(f"trial count must be at least 1, got {n}")
    if not (np.isfinite(t) and t >= 0):
        raise ArgumentOutOfRange(f"horizon must be a finite nonnegative time, got {t!r}")
    exited, end_time, occ = _simulate_batch(f, dom, t, int(n), rng, want_occupation=True)
    return exited, end_time, occ
