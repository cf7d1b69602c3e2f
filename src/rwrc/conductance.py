"""Edge-weight environments on a domain.

A conductance field assigns a strictly positive weight to every canonical
edge.  Besides sampling, this module computes the profile-optimal
environment shape: for a profile g, the weight that minimizes the
per-edge tradeoff between occupation cost and environment cost is
``(dcoef*eta)**(1/(eta+1)) * |g(a)-g(b)|**(-2/(eta+1))``; edges with equal
profile values are unconstrained and receive the cap value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domain import Domain, domain_from_spec, domains_equal
from .errors import FieldMismatch, NonPositiveWeight, _mapping, _number_list, require_positive
from .profiles import ProbabilityProfile, edge_differences
from .tail_law import TailLaw, sample

DEFAULT_CAP = 1e6


@dataclass(frozen=True, eq=False)
class ConductanceField:
    """Immutable weights on a domain: a read-only copy, validated once and
    trusted by every layer."""

    domain: Domain
    weights: np.ndarray

    def __post_init__(self):
        w = conductance(self.domain, np.array(self.weights, dtype=float).reshape(-1))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def conductance(dom: Domain, w: np.ndarray) -> np.ndarray:
    """The field rule on a nonempty float array of one field's weights, or a
    stack of them, edges on the last axis: raise FieldMismatch unless that
    axis has dom.n_edges entries and NonPositiveWeight unless every weight is
    strictly positive and finite; return w."""
    if w.shape[-1] != dom.n_edges:
        raise FieldMismatch(
            f"field has {w.shape[-1]} weights for a domain with {dom.n_edges} edges"
        )
    if not (w.min() > 0.0 and w.max() < np.inf):  # also false for NaN
        raise NonPositiveWeight("edge weights must be strictly positive and finite")
    return w


def sample_field(law: TailLaw, dom: Domain, rng: np.random.Generator) -> ConductanceField:
    """Independent draw of every edge weight, in canonical edge order."""
    return ConductanceField(dom, sample(law, rng, dom.n_edges))


def optimal_profile(
    g: ProbabilityProfile, law: TailLaw, cap: float = DEFAULT_CAP
) -> ConductanceField:
    """Environment shape minimizing occupation cost plus environment cost for g.

    Edges where g takes equal values at both endpoints impose no constraint
    and are set to ``cap``.
    """
    cap = require_positive(cap, "cap")
    diffs = np.abs(edge_differences(g.domain, g.values))
    pref = (law.dcoef * law.eta) ** (1.0 / (law.eta + 1.0))
    safe = np.where(diffs > 0.0, diffs, 1.0)
    w = np.where(diffs > 0.0, pref * safe ** (-2.0 / (law.eta + 1.0)), cap)
    return ConductanceField(g.domain, w)


def site_totals(f: ConductanceField) -> np.ndarray:
    """Total incident weight at every site (the jump rate of the walk there)."""
    return f.weights[f.domain.site_edges].sum(axis=1)


def require_same_domain(obj, dom: Domain) -> None:
    """Raise FieldMismatch unless obj, anything with a ``.domain`` (a field, a
    profile, a path), lives on a domain equal to dom."""
    if obj.domain is not dom and not domains_equal(obj.domain, dom):
        raise FieldMismatch(f"{type(obj).__name__} domain does not match the requested domain")


def field_to_json(f: ConductanceField) -> str:
    """Domain plus weights in canonical edge order."""
    return json.dumps(
        {"domain": {"d": f.domain.d, "sites": f.domain.sites.tolist()}, "weights": f.weights.tolist()}
    )


def field_from_json(text: str) -> ConductanceField:
    """Read what field_to_json writes, by the config's rules: the domain
    through domain_from_spec and the weights as a list of numbers."""
    doc = _mapping(json.loads(text), "field")
    dom = domain_from_spec(doc.get("domain"))
    return ConductanceField(dom, _number_list(doc.get("weights"), "weights"))
