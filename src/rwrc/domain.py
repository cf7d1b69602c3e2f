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
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    DimensionMismatch,
    DisconnectedDomain,
    DuplicateSite,
    OriginMissing,
    UnsupportedDomain,
    _mapping,
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
    n, index = len(pts), {tp: i for i, tp in enumerate(pts)}
    sites = np.array(pts, dtype=np.int64)
    # the lattice point at every (site, offset) pair, the 2d unit offsets in
    # lexicographic order, and the neighbour table: the site there, or -1
    eye = np.eye(d, dtype=np.int64)
    points = sites[:, None, :] + np.concatenate([-eye, eye[::-1]])
    nbrs = np.array(
        [index.get(q, -1) for q in map(tuple, points.reshape(-1, d).tolist())], dtype=np.int64
    ).reshape(n, 2 * d)

    # a search over the table; -1, the exterior, counts as reached
    reached, stack = {-1, index[origin]}, [index[origin]]
    while stack:
        found = set(nbrs[stack.pop()].tolist()) - reached
        reached |= found
        stack += found
    if len(reached) <= n:
        missing = pts[min(set(range(n)) - reached)]
        raise DisconnectedDomain(f"site {missing} is not connected to the origin")

    # an edge per pair whose far end is exterior or a later site, in (site,
    # offset) order; each site's 2d incident edges in edge order, and their far ends
    new = (nbrs < 0) | (nbrs > np.arange(n)[:, None])
    edge_a, edge_b = np.nonzero(new)[0], nbrs[new]
    inside = edge_b >= 0
    ids = np.concatenate([np.arange(edge_a.size), np.flatnonzero(inside)])
    order = np.lexsort((ids, np.concatenate([edge_a, edge_b[inside]])))
    far = np.concatenate([edge_b, edge_a[inside]])
    return Domain(
        d=d, sites=sites, origin_index=index[origin], edge_a=edge_a, edge_b=edge_b,
        edge_b_point=points[new], site_edges=ids[order].reshape(n, 2 * d),
        site_nbrs=far[order].reshape(n, 2 * d),
    )


def box_domain(d: int, half_width: int) -> Domain:
    """Centered lattice box {-half_width, ..., half_width}^d."""
    d = require_count(d, 1, "d")
    half_width = require_count(half_width, 0, "half_width")
    rng = range(-half_width, half_width + 1)
    return build_domain(itertools.product(rng, repeat=d), d)


def domain_from_spec(spec) -> Domain:
    """The one reader of a written domain: a config's ``domain`` section or a
    field JSON's.  ``{"type": "box", "d", "half_width"}`` is a centred box and
    ``{"type": "sites", "d", "sites"}`` a site list; ``type`` defaults to
    ``"sites"`` when ``sites`` is given and to ``"box"`` otherwise."""
    spec = _mapping(spec, "domain")
    kind = spec.get("type", "sites" if "sites" in spec else "box")
    if kind == "box":
        return box_domain(spec.get("d", 1), spec.get("half_width", 0))
    if kind == "sites":
        sites = spec.get("sites")
        if not isinstance(sites, list):
            raise ArgumentOutOfRange(f"sites must be a list of sites, got {sites!r}")
        return build_domain(sites, spec.get("d"))
    raise UnsupportedDomain(f"unknown domain type {kind!r}")


def parse_domain_arg(text: str) -> dict:
    """The spec of a command-line domain shorthand such as box1d:2."""
    m = re.fullmatch(r"box(\d+)d:(\d+)", text.strip())
    if not m:
        raise ArgumentOutOfRange(f"cannot parse domain {text!r}, expected e.g. box1d:2")
    return {"type": "box", "d": int(m.group(1)), "half_width": int(m.group(2))}


def domains_equal(a: Domain, b: Domain) -> bool:
    return a.d == b.d and a.sites.shape == b.sites.shape and bool(np.all(a.sites == b.sites))
