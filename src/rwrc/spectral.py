"""Dirichlet operator of the killed walk: assembly, spectrum, exact non-exit.

The operator is the weighted Dirichlet form M diag(w) M^T, M the domain's +-1
difference matrix, on functions vanishing outside the domain: its diagonal is
the full incident weight of each site (boundary edges included) and its
off-diagonal entries are minus the interior edge weights.  Killing at the
boundary makes it symmetric positive definite, so the non-exit probability is
an explicit eigenvalue sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conductance import ConductanceField, require_same_domain, sample_field
from .domain import Domain
from .errors import (
    ArgumentOutOfRange,
    DegenerateWeights,
    NonConvergence,
    UnsupportedDomain,
    require_count,
    require_positive,
    require_time,
)
from .tail_law import TailLaw
from .transforms import log_pair_sum_tail

_CLAMP_TOL = 1e-10


@dataclass(eq=False)
class DirichletOperator:
    domain: Domain
    matrix: np.ndarray


def dirichlet_matrix(dom: Domain, w: np.ndarray) -> np.ndarray:
    """M diag(w) M^T, M = dom.difference_matrix, edges on w's last axis; a stack gives a stack."""
    mat = dom.difference_matrix
    return (mat * w[..., None, :]) @ mat.T


def assemble(f: ConductanceField, dom: Domain) -> DirichletOperator:
    require_same_domain(f, dom)
    return DirichletOperator(dom, dirichlet_matrix(dom, f.weights))


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's symmetric eigensolver on one matrix or a stack; a failure raises NonConvergence."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"LAPACK eigensolver failed: {exc}") from exc


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK's linear solve a x = b on one system or a stack; a singular matrix raises NonConvergence."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"LAPACK linear solve failed: {exc}") from exc


def eigen(op: DirichletOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition by LAPACK's symmetric eigensolver:
    ascending eigenvalues and the matching orthonormal eigenvector columns.

    The operator is positive definite, so a principal eigenvalue at or below
    zero is rounding error swamping the spectrum (weights spanning some 20
    decades) and raises NonConvergence.
    """
    lam, vec = eigh(op.matrix)
    if not lam[0] > 0.0:
        raise NonConvergence(
            f"principal eigenvalue {lam[0]!r} of a positive definite operator; "
            "the weights span too many decades for the eigensolver"
        )
    return lam, vec


def _nonexit_from_decomposition(lam: np.ndarray, vec: np.ndarray, start: int, t: float) -> float:
    """The eigenvalue sum, clipped to [0, 1]; a sum further out, or nan, raises NonConvergence."""
    weights = vec[start, :] * vec.sum(axis=0)
    val = float(np.sum(np.exp(-t * lam) * weights))
    if not -_CLAMP_TOL <= val <= 1.0 + _CLAMP_TOL:
        raise NonConvergence(f"non-exit probability {val!r} lies outside [0, 1]")
    return min(max(val, 0.0), 1.0)


def semigroup_nonexit(f: ConductanceField, dom: Domain, t: float) -> float:
    """Exact probability that the walk has not exited by time t."""
    t = require_time(t)
    return _nonexit_from_decomposition(*eigen(assemble(f, dom)), dom.origin_index, t)


def sandwich_check(f: ConductanceField, dom: Domain, t: float) -> dict:
    """Two-sided control of the non-exit probability by the principal eigenvalue.

    Checks p0 <= |B|**2 * exp(-t*lambda1) and exp(-t*lambda1) <= sum over
    starting sites of their non-exit probabilities; both margins should be
    nonnegative up to rounding.
    """
    t = require_time(t)
    lam, vec = eigen(assemble(f, dom))
    n = dom.n_sites
    lam1 = float(lam[0])
    p0 = _nonexit_from_decomposition(lam, vec, dom.origin_index, t)
    site_sum = float(sum(_nonexit_from_decomposition(lam, vec, z, t) for z in range(n)))
    principal = float(np.exp(-t * lam1))
    upper = n * n * principal
    return {
        "t": t,
        "lambda1": lam1,
        "p0": p0,
        "upper": upper,
        "upper_margin": upper - p0,
        "principal": principal,
        "site_sum": site_sum,
        "lower_margin": site_sum - principal,
    }


@dataclass
class EigenTailPoint:
    eps: float
    prob: float
    log_prob: float
    scaled_log: float    # eps**eta * log_prob


def eigen_tail(
    law: TailLaw,
    dom: Domain,
    eps_list,
    method: str = "quadrature",
    n_fields: int = 2000,
    rng: np.random.Generator | None = None,
) -> list[EigenTailPoint]:
    """Lower-tail curve of the principal Dirichlet eigenvalue.

    On a single-site domain in d=1 the eigenvalue is the sum of the two
    boundary weights and the tail is computed by quadrature; otherwise it is
    estimated by Monte Carlo over sampled fields, and an eps that no sampled
    field reaches raises DegenerateWeights.
    """
    eps_arr = np.array([require_positive(eps, "eps") for eps in eps_list], dtype=float)
    if eps_arr.size == 0:
        raise ArgumentOutOfRange("the eps grid is empty")
    points: list[EigenTailPoint] = []
    if method == "quadrature":
        if dom.n_sites != 1 or dom.d != 1:
            raise UnsupportedDomain("quadrature tail requires a single-site domain in d=1")
        for eps in eps_arr:
            lp = log_pair_sum_tail(law, float(eps))
            points.append(
                EigenTailPoint(float(eps), float(np.exp(lp)), lp, float(eps**law.eta * lp))
            )
    elif method == "mc":
        if rng is None:
            raise ArgumentOutOfRange("Monte Carlo tail estimation requires an rng")
        lam = np.empty(require_count(n_fields, 1, "n_fields"))
        for i in range(lam.size):
            lam[i] = eigen(assemble(sample_field(law, dom, rng), dom))[0][0]
        for eps in eps_arr:
            p = float(np.mean(lam <= eps))
            if p == 0.0:
                raise DegenerateWeights(
                    f"no field of {lam.size} has lambda1 <= eps = {eps:g}; "
                    "the tail estimate is undefined"
                )
            lp = float(np.log(p))
            points.append(EigenTailPoint(float(eps), p, lp, float(eps**law.eta * lp)))
    else:
        raise ArgumentOutOfRange(f"unknown tail method {method!r}")
    return points
