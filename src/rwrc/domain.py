"""Finite connected lattice domains and their edge sets.

A domain is a finite connected subset of the d-dimensional integer lattice
containing the origin.  Its edge set consists of every nearest-neighbour pair
with at least one endpoint inside; edges whose second endpoint lies outside
are the boundary edges through which the walk is killed.
"""

from __future__ import annotations

import itertools
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

@dataclass(frozen=True)
class Edge:
    """Nearest-neighbour edge with at least one endpoint in the domain.

    ``a`` is always a site index.  For interior edges ``b`` is the index of
    the second endpoint.  For boundary edges ``b`` is None and ``b_point``
    holds the exterior lattice point; exterior points carry no index because
    the walk is killed there.
    """

    a: int
    b: int | None
    b_point: tuple[int, ...]


@dataclass(eq=False)
class Domain:
    """Sorted site list plus precomputed edge and incidence tables.

    Sites are stored in lexicographic order so edge enumeration, field
    sampling, and matrix assembly are reproducible.  Every site has exactly
    2d incident edges.
    """

    d: int
    sites: np.ndarray            # (n, d) int64, lexicographically sorted
    origin_index: int
    edges: list[Edge]
    edge_a: np.ndarray           # (m,) first endpoint, always a site index
    edge_b: np.ndarray           # (m,) second endpoint index, -1 if exterior
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
    if isinstance(c, (bool, np.bool_)) or c != int(c):
        raise DimensionMismatch(f"coordinate {c!r} is not an integer")
    return int(c)


def _normalize_point(p, d: int) -> tuple[int, ...]:
    if isinstance(p, (int, np.integer)) and not isinstance(p, (bool, np.bool_)):
        tp = (int(p),)
    else:
        tp = tuple(_coord(c) for c in p)
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
    edges: list[Edge] = []
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
            j = index.get(q)
            if j is None:
                eidx = len(edges)
                edges.append(Edge(i, None, q))
                _attach(i, eidx, -1)
            elif j > i:
                eidx = len(edges)
                edges.append(Edge(i, j, q))
                _attach(i, eidx, j)
                _attach(j, eidx, i)
            # j < i: edge was created while scanning site j

    edge_a = np.array([e.a for e in edges], dtype=np.int64)
    edge_b = np.array([-1 if e.b is None else e.b for e in edges], dtype=np.int64)
    sites = np.array(pts, dtype=np.int64).reshape(n, d)
    return Domain(
        d=d,
        sites=sites,
        origin_index=index[origin],
        edges=edges,
        edge_a=edge_a,
        edge_b=edge_b,
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
