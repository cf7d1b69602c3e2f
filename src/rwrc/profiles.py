"""Unit-norm nonnegative site profiles.

A profile g lives on the sites of a domain, is entrywise nonnegative, and has
unit 2-norm, so g**2 is a probability measure on the domain.  Profiles are
extended by zero outside the domain when edge increments are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import DomainMismatch, InvalidProfile

NORM_TOL = 1e-12


@dataclass(eq=False)
class ProbabilityProfile:
    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.domain.n_sites:
            raise InvalidProfile(
                f"profile has {v.shape[0]} entries for a domain of {self.domain.n_sites} sites"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidProfile("profile entries must be finite")
        if np.any(v < -NORM_TOL):
            raise InvalidProfile("profile entries must be nonnegative")
        v = np.clip(v, 0.0, None)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > NORM_TOL:
            raise InvalidProfile(f"profile 2-norm is {nrm}, expected 1")
        self.values = v

    @classmethod
    def normalized(cls, domain: Domain, values) -> "ProbabilityProfile":
        """Clip negatives to zero and rescale to unit norm."""
        v = np.clip(np.asarray(values, dtype=float).reshape(-1), 0.0, None)
        nrm = float(np.linalg.norm(v))
        if not np.isfinite(nrm) or nrm <= 0.0:
            raise InvalidProfile("cannot normalize an all-zero profile")
        return cls(domain, v / nrm)

    def measure(self) -> np.ndarray:
        """The occupation measure g**2."""
        return self.values**2


def uniform_profile(domain: Domain) -> ProbabilityProfile:
    n = domain.n_sites
    return ProbabilityProfile(domain, np.full(n, 1.0 / np.sqrt(n)))


def delta_profile(domain: Domain, site_index: int | None = None) -> ProbabilityProfile:
    v = np.zeros(domain.n_sites)
    v[domain.origin_index if site_index is None else site_index] = 1.0
    return ProbabilityProfile(domain, v)


# edge_b == -1 marks an exterior endpoint, where every site function is zero; outside
# the operator assembly in spectral, only these two maps read that convention.


def edge_differences(domain: Domain, values) -> np.ndarray:
    """g(a) - g(b) along every canonical edge, g = 0 outside; sites on the last axis."""
    v = np.asarray(values, dtype=float)
    if v.shape[-1] != domain.n_sites:
        raise DomainMismatch(f"{v.shape[-1]} site values for a domain of {domain.n_sites} sites")
    padded = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))  # the last slot is read by b = -1
    padded[..., :-1] = v
    padded = padded.T  # sites first: plain indexing is cheaper than v[..., i]
    return (padded[domain.edge_a] - padded[domain.edge_b]).T


def edge_adjoint(domain: Domain, s) -> np.ndarray:
    """Transpose of edge_differences: s(e) added at a and subtracted at b; edges on the last axis."""
    out = np.zeros(np.shape(s)[:-1] + (domain.n_sites + 1,))  # the last slot absorbs b = -1
    np.add.at(out, (..., domain.edge_a), s)
    np.subtract.at(out, (..., domain.edge_b), s)
    return out[..., :-1]
