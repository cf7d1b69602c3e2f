"""Marginal law of a single conductance.

The law on (0, inf) is fixed by its exact lower tail
``P(w <= x) = exp(-dcoef * x**-eta)``, so log-cdf, quantile, and density all
have closed forms.  Sampling is by inverse transform, one uniform per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, NonPositiveArgument, require_positive


@dataclass(frozen=True)
class TailLaw:
    eta: float
    dcoef: float

    def __post_init__(self):
        require_positive(self.eta, "eta")
        require_positive(self.dcoef, "dcoef")


def _require_positive(x, name: str):
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0):
        raise NonPositiveArgument(f"{name} must be strictly positive")
    return arr


def log_cdf(law: TailLaw, x):
    """Exact log lower tail, -dcoef * x**-eta."""
    arr = _require_positive(x, "x")
    # x**-eta saturates to inf for tiny x; -inf is the correct limit
    with np.errstate(over="ignore"):
        out = -law.dcoef * arr ** (-law.eta)
    return out if arr.ndim else float(out)


def cdf(law: TailLaw, x):
    arr = _require_positive(x, "x")
    with np.errstate(over="ignore"):
        out = np.exp(-law.dcoef * arr ** (-law.eta))
    return out if arr.ndim else float(out)


def quantile(law: TailLaw, u):
    """Inverse cdf on (0, 1)."""
    arr = np.asarray(u, dtype=float)
    if arr.size and not (np.all(arr > 0) and np.all(arr < 1)):
        raise ArgumentOutOfRange("u must lie strictly between 0 and 1")
    out = (law.dcoef / (-np.log(arr))) ** (1.0 / law.eta)
    return out if arr.ndim else float(out)


def log_density(law: TailLaw, x):
    if type(x) is float and x > 0.0:
        # one valid Python float stays off numpy: quadrature integrands pass one
        # per point.  Anything else, a bad float too, takes the checked array path
        try:
            tail = law.dcoef * x ** -law.eta
        except OverflowError:  # where numpy saturates to inf
            tail = math.inf
        return math.log(law.dcoef * law.eta) - (law.eta + 1.0) * math.log(x) - tail
    arr = _require_positive(x, "x")
    with np.errstate(over="ignore"):
        out = (
            np.log(law.dcoef * law.eta)
            - (law.eta + 1.0) * np.log(arr)
            - law.dcoef * arr ** (-law.eta)
        )
    return out if arr.ndim else float(out)


def sample(law: TailLaw, rng: np.random.Generator, shape) -> np.ndarray:
    """Independent draws of the given shape by inverse transform, one uniform each."""
    if np.any(np.asarray(shape) < 0):
        raise ArgumentOutOfRange(f"sample shape must be nonnegative, got {shape}")
    u = rng.random(shape)
    # rng.random can return exactly 0, which the quantile rejects
    u = np.where(u > 0.0, u, np.nextafter(0.0, 1.0))
    with np.errstate(over="ignore"):
        out = np.asarray(quantile(law, u), dtype=float)
    if out.size and not (out.min() > 0.0 and out.max() < math.inf):
        raise ArgumentOutOfRange(
            f"a draw of the law (eta={law.eta:g}, dcoef={law.dcoef:g}) is 0 or inf: "
            "its mass reaches past the float range"
        )
    return out
