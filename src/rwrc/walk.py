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

from .conductance import ConductanceField, site_totals
from .domain import Domain
from .errors import require_count, require_time


@dataclass(eq=False)
class PathRecord:
    """One killed path: interior jumps plus the optional exit event.

    ``sites`` lists the visited site indices, starting at the origin;
    ``jump_times`` holds the corresponding interior jump times, strictly
    increasing and bounded by the horizon (by the exit time if the walk
    exited).  ``occupation`` is the time spent at each site up to
    ``end_time``, and ``crossed`` lists the traversed edges: the jump edges,
    then the exit edge if the walk exited, whose ``edge_b_point`` row is the
    exterior endpoint.
    """

    domain: Domain
    jump_times: np.ndarray
    sites: np.ndarray
    horizon: float
    exit_time: float | None
    occupation: np.ndarray
    crossed: np.ndarray

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.shape[0])

    @property
    def exited(self) -> bool:
        return self.exit_time is not None

    @property
    def end_time(self) -> float:
        return float(self.exit_time) if self.exited else self.horizon


class _WalkTables:
    """Jump rates and cumulative edge-selection rows of one field.

    ``rates`` and ``columns``, the columns of ``cum`` but the last, are
    arrays for the lockstep engine, which gathers one entry of each per live
    walker and step.  ``lists`` holds ``rates`` and ``cum``, plus the domain's
    ``site_edges`` and ``site_nbrs``, as Python lists, since the per-path
    engine reads one entry per jump and a list index is cheaper than a numpy
    scalar read.  ``columns``, ``lists`` and ``log_weights`` are built on
    first use.
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
    def columns(self) -> tuple[np.ndarray, ...]:
        """The columns of ``cum`` but the last, each a contiguous array."""
        return tuple(np.ascontiguousarray(col) for col in self.cum[:, :-1].T)

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


def simulate(f: ConductanceField, t: float, rng: np.random.Generator) -> PathRecord:
    """Run one path from the origin until it exits or reaches the horizon t.

    Local times are booked as the walk runs: each holding interval is added
    to its site in path order, the arithmetic of differencing the jump times.
    """
    t = require_time(t)
    dom = f.domain
    rates, cum, site_edges, site_nbrs = _walk_tables(f).lists
    exponential, uniform = rng.standard_exponential, rng.random
    site = dom.origin_index
    now = 0.0
    occupation = [0.0] * dom.n_sites
    jump_times: list[float] = []
    visited = [site]
    crossed: list[int] = []
    exit_time = None
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
            exit_time = now
            break
        jump_times.append(now)
        visited.append(target)
        site = target
    if exit_time is None:
        occupation[site] += t - now
    return PathRecord(
        domain=dom,
        jump_times=np.array(jump_times, dtype=float),
        sites=np.array(visited, dtype=np.int64),
        horizon=t,
        exit_time=exit_time,
        occupation=np.array(occupation),
        crossed=np.array(crossed, dtype=np.int64),
    )


def _simulate_batch(
    f: ConductanceField,
    t: float,
    *,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep simulation of n independent paths.

    Only the live walkers are held: ``ids``, ``cur`` and ``now`` list the
    walkers still running in ascending order, and a walker is dropped, by
    one boolean mask, in the step where it passes the horizon or exits.
    Per step one vector of holding times is drawn for the live walkers, then
    one vector of edge selections for those that jump, both in walker order;
    deterministic under a fixed seed, though the draw order differs from
    simulate's per-path order.  The edge taken is the number of cumulative
    columns, the last excepted, at or below the uniform draw: each row is
    non-decreasing and ends at exactly 1.0, above every draw, so this is the
    first column above the draw.  Each walker's holding intervals are added
    to its occupation in step order.
    """
    dom = f.domain
    tables = _walk_tables(f)
    rates, columns = tables.rates, tables.columns
    n_sites, deg = dom.site_nbrs.shape
    nbr = dom.site_nbrs.ravel()
    exponential, uniform = rng.standard_exponential, rng.random
    exited = np.zeros(n, dtype=bool)
    end_time = np.full(n, float(t))
    occ = np.zeros((n, n_sites))
    # occ[i, x] is cells[i * n_sites + x]; a flat index is cheaper than a pair
    cells = occ.reshape(-1)
    ids = np.arange(n)
    cur = np.full(n, dom.origin_index, dtype=np.int64)
    now = np.zeros(n)
    while ids.size:
        dt = exponential(ids.size) / rates[cur]
        t_new = now + dt
        over = t_new > t
        if np.count_nonzero(over):
            cells[ids[over] * n_sites + cur[over]] += t - now[over]
            keep = ~over
            ids, cur, dt, t_new = ids[keep], cur[keep], dt[keep], t_new[keep]
            if not ids.size:
                break
        cells[ids * n_sites + cur] += dt
        now = t_new
        u = uniform(ids.size)
        slot = cur * deg  # flat index into site_nbrs of the row's first column
        for col in columns:
            slot += u >= col[cur]
        target = nbr[slot]
        out = target < 0
        if np.count_nonzero(out):
            gone = ids[out]
            exited[gone] = True
            end_time[gone] = now[out]
            keep = ~out
            ids, now, target = ids[keep], now[keep], target[keep]
        cur = target
    return exited, end_time, occ


def nonexit_mc(
    f: ConductanceField, t: float, n: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo non-exit probability with its binomial standard error."""
    n = require_count(n, 2, "n_paths")
    exited, _, _ = _simulate_batch(f, require_time(t), n=n, rng=rng)
    p = float(np.mean(~exited))
    se = float(np.sqrt(p * (1.0 - p) / n))
    return p, se


def occupation_mc(
    f: ConductanceField, t: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exit flags, end times, and per-site occupation for n independent paths."""
    n = require_count(n, 1, "n_paths")
    return _simulate_batch(f, require_time(t), n=n, rng=rng)
