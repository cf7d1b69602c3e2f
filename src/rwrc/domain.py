"""Finite connected lattice domains and their edge sets.

A domain is a finite connected subset of the d-dimensional integer lattice
containing the origin.  Its edge set consists of every nearest-neighbour pair
with at least one endpoint inside; edges whose second endpoint lies outside
are the boundary edges through which the walk is killed.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedDomain,
    DuplicateSite,
    OriginMissing,
    require_count,
)


@dataclass(eq=False)
class Domain:
    """Sorted site list plus precomputed edge and incidence tables.

    Sites are stored in lexicographic order so edge enumeration, field
    sampling, and matrix assembly are reproducible.  Every site has exactly
    2d incident edges.  Edge e joins site edge_a[e] to the lattice point
    edge_b_point[e]: site edge_b[e] for an interior edge, an exterior point for
    a boundary edge (edge_b[e] = -1; the walk is killed there, so it carries no
    index).
    """

    d: int
    sites: np.ndarray            # (n, d) int64, lexicographically sorted
    origin_index: int
    edge_a: np.ndarray           # (m,) first endpoint, always a site index
    edge_b: np.ndarray           # (m,) second endpoint index, -1 if exterior
    edge_b_point: np.ndarray     # (m, d) lattice point of the second endpoint
    site_edges: np.ndarray       # (n, 2d) incident edge indices
    site_nbrs: np.ndarray        # (n, 2d) neighbour site index, -1 if exterior

    @property
    def n_sites(self) -> int:
        return int(self.sites.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_a.shape[0])

    def site_tuple(self, i: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self.sites[i])

    @cached_property
    def difference_matrix(self) -> np.ndarray:
        """(n, m) matrix of g -> g(a) - g(b): +1 at (a, e), -1 at (b, e) for interior b."""
        e = np.arange(self.n_edges)
        inside = self.edge_b >= 0
        mat = np.zeros((self.n_sites, self.n_edges))
        mat[self.edge_a, e] = 1.0
        mat[self.edge_b[inside], e[inside]] = -1.0
        mat.flags.writeable = False
        return mat


def _coord(c) -> int:
    if isinstance(c, (bool, np.bool_)) or not (
        isinstance(c, numbers.Real) and math.isfinite(c) and c == int(c)
    ):
        raise DimensionMismatch(f"coordinate {c!r} is not an integer")
    return int(c)


def _normalize_point(p, d: int) -> tuple[int, ...]:
    if isinstance(p, (int, np.integer)) and not isinstance(p, (bool, np.bool_)):
        tp = (int(p),)
    elif isinstance(p, (list, tuple, np.ndarray)):
        tp = tuple(_coord(c) for c in p)
    else:
        raise DimensionMismatch(f"site {p!r} is not a sequence of coordinates")
    if len(tp) != d:
        raise DimensionMismatch(f"site {tp} has dimension {len(tp)}, expected {d}")
    return tp


def _neighbour_offsets(d: int) -> list[tuple[int, ...]]:
    offs = []
    for j in range(d):
        for sgn in (-1, 1):
            v = [0] * d
            v[j] = sgn
            offs.append(tuple(v))
    return sorted(offs)


def build_domain(points, d: int) -> Domain:
    """Validate a site collection and build the full domain structure.

    Raises ArgumentOutOfRange for a d below 1, DimensionMismatch,
    DuplicateSite, OriginMissing, or DisconnectedDomain.  Connectivity is with
    respect to nearest-neighbour adjacency.
    """
    d = require_count(d, 1, "d")
    pts = [_normalize_point(p, d) for p in points]
    if not pts:
        raise OriginMissing("domain is empty")
    seen = set()
    for tp in pts:
        if tp in seen:
            raise DuplicateSite(f"site {tp} listed more than once")
        seen.add(tp)
    origin = (0,) * d
    if origin not in seen:
        raise OriginMissing("domain must contain the origin")

    pts.sort()
    index = {tp: i for i, tp in enumerate(pts)}
    offsets = _neighbour_offsets(d)

    # breadth-first search from the origin
    reached = {origin}
    queue = deque([origin])
    while queue:
        cur = queue.popleft()
        for off in offsets:
            nb = tuple(c + o for c, o in zip(cur, off))
            if nb in index and nb not in reached:
                reached.add(nb)
                queue.append(nb)
    if len(reached) != len(pts):
        missing = sorted(seen - reached)[0]
        raise DisconnectedDomain(f"site {missing} is not connected to the origin")

    n = len(pts)
    edge_a: list[int] = []
    edge_b: list[int] = []
    b_points: list[tuple[int, ...]] = []
    site_edges = np.full((n, 2 * d), -1, dtype=np.int64)
    site_nbrs = np.full((n, 2 * d), -1, dtype=np.int64)
    slot = np.zeros(n, dtype=np.int64)

    def _attach(site: int, eidx: int, nbr: int) -> None:
        k = slot[site]
        site_edges[site, k] = eidx
        site_nbrs[site, k] = nbr
        slot[site] = k + 1

    for i, tp in enumerate(pts):
        for off in offsets:
            q = tuple(c + o for c, o in zip(tp, off))
            j = index.get(q, -1)
            if j < 0 or j > i:
                _attach(i, len(edge_a), j)
                if j >= 0:
                    _attach(j, len(edge_a), i)
                edge_a.append(i)
                edge_b.append(j)
                b_points.append(q)
            # 0 <= j < i: edge was created while scanning site j

    m = len(edge_a)
    return Domain(
        d=d,
        sites=np.array(pts, dtype=np.int64).reshape(n, d),
        origin_index=index[origin],
        edge_a=np.array(edge_a, dtype=np.int64),
        edge_b=np.array(edge_b, dtype=np.int64),
        edge_b_point=np.array(b_points, dtype=np.int64).reshape(m, d),
        site_edges=site_edges,
        site_nbrs=site_nbrs,
    )


def box_domain(d: int, half_width: int) -> Domain:
    """Centered lattice box {-half_width, ..., half_width}^d."""
    d = require_count(d, 1, "d")
    half_width = require_count(half_width, 0, "half_width")
    rng = range(-half_width, half_width + 1)
    return build_domain(itertools.product(rng, repeat=d), d)


def domains_equal(a: Domain, b: Domain) -> bool:
    return a.d == b.d and a.sites.shape == b.sites.shape and bool(np.all(a.sites == b.sites))
