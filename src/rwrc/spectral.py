"""Dirichlet operator of the killed walk: assembly, spectrum, exact non-exit.

The operator is the weighted Dirichlet form M diag(w) M^T, M the domain's +-1
difference matrix, on functions vanishing outside the domain: its diagonal is
the full incident weight of each site (boundary edges included) and its
off-diagonal entries are minus the interior edge weights.  Killing at the
boundary makes it symmetric positive definite, so the non-exit probability is
an explicit eigenvalue sum.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .conductance import ConductanceField, conductance
from .domain import Domain
from .errors import (
    ArgumentOutOfRange,
    DegenerateWeights,
    FieldMismatch,
    NonConvergence,
    UnsupportedDomain,
    require_count,
    require_positive,
    require_time,
)
from .tail_law import TailLaw, sample
from .transforms import log_pair_sum_tail

_CLAMP_TOL = 1e-10
# rows x sites x edges of one block of a weight stack: the size of the largest
# array `spectra` builds at once (2 MB of floats), so memory does not grow with N
_STACK_ELEMENTS = 1 << 18


@dataclass(eq=False)
class DirichletOperator:
    matrix: np.ndarray


def dirichlet_matrix(dom: Domain, w: np.ndarray) -> np.ndarray:
    """M diag(w) M^T, M = dom.difference_matrix, edges on w's last axis; a stack gives a stack."""
    mat = dom.difference_matrix
    return (mat * w[..., None, :]) @ mat.T


def assemble(f: ConductanceField) -> DirichletOperator:
    return DirichletOperator(dirichlet_matrix(f.domain, f.weights))


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


def spectra(dom: Domain, weights) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``eigen``'s pair for the operator of every row of an (N, m) weight stack.

    Yields the pairs of consecutive blocks of b rows stacked, (b, n) eigenvalues
    and (b, n, n) vectors, with b * n * m at most _STACK_ELEMENTS (b = 1 where
    one row is larger).
    Each block is checked by the field rule of ``ConductanceField`` and
    assembled by one ``dirichlet_matrix`` call; ``eigen`` runs once per row.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise FieldMismatch(f"a weight stack must be an (N, m) array, got shape {w.shape}")
    rows = max(1, _STACK_ELEMENTS // (dom.n_sites * dom.n_edges))
    for lo in range(0, w.shape[0], rows):
        a = dirichlet_matrix(dom, conductance(dom, w[lo:lo + rows]))
        lam = np.empty(a.shape[:2])
        vec = np.empty_like(a)
        for i in range(a.shape[0]):
            lam[i], vec[i] = eigen(DirichletOperator(a[i]))
        yield lam, vec


def _nonexit_sums(lam: np.ndarray, vec: np.ndarray, start, t: float) -> np.ndarray:
    """The eigenvalue sums from ``start`` of a stack of decompositions (or, with
    start = slice(None), from every site of one), clipped to [0, 1]; a sum
    further out, or nan, raises NonConvergence."""
    weights = vec[..., start, :] * vec.sum(axis=-2)
    val = np.sum(np.exp(-t * lam) * weights, axis=-1)
    bad = ~((val >= -_CLAMP_TOL) & (val <= 1.0 + _CLAMP_TOL))
    if bad.any():
        raise NonConvergence(f"non-exit probability {float(val[bad][0])!r} lies outside [0, 1]")
    return np.clip(val, 0.0, 1.0)


def nonexit_stack(dom: Domain, weights, t: float) -> np.ndarray:
    """Exact probability that the walk has not exited by time t, for every row
    of an (N, m) weight stack (see ``spectra``)."""
    t = require_time(t)
    sums = [_nonexit_sums(lam, vec, dom.origin_index, t) for lam, vec in spectra(dom, weights)]
    return np.concatenate([np.empty(0), *sums])


def semigroup_nonexit(f: ConductanceField, t: float) -> float:
    """Exact probability that the walk has not exited by time t: the one-row
    case of ``nonexit_stack``."""
    return float(nonexit_stack(f.domain, f.weights[None, :], t)[0])


def sandwich_check(f: ConductanceField, t: float) -> dict:
    """Two-sided control of the non-exit probability by the principal eigenvalue.

    Checks p0 <= |B|**2 * exp(-t*lambda1) and exp(-t*lambda1) <= sum over
    starting sites of their non-exit probabilities; both margins should be
    nonnegative up to rounding.
    """
    t = require_time(t)
    dom = f.domain
    lam, vec = eigen(assemble(f))
    n = dom.n_sites
    lam1 = float(lam[0])
    sums = _nonexit_sums(lam, vec, slice(None), t)
    p0 = float(sums[dom.origin_index])
    site_sum = float(sum(sums))
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
        w = sample(law, rng, (require_count(n_fields, 1, "n_fields"), dom.n_edges))
        lam = np.concatenate([lam[:, 0] for lam, _ in spectra(dom, w)])
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
