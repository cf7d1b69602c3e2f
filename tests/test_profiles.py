import math

import numpy as np
import pytest

from rwrc.domain import box_domain, build_domain
from rwrc.errors import DomainMismatch, InvalidProfile
from rwrc.profiles import (
    ProbabilityProfile,
    delta_profile,
    edge_adjoint,
    edge_differences,
    uniform_profile,
)


def test_valid_profile():
    dom = build_domain([[0], [1]], 1)
    g = ProbabilityProfile(dom, np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert g.measure().sum() == pytest.approx(1.0, abs=1e-12)


def test_normalized_classmethod():
    dom = build_domain([[0], [1]], 1)
    g = ProbabilityProfile.normalized(dom, np.array([3.0, 4.0]))
    assert np.allclose(g.values, [0.6, 0.8])


def test_invalid_profiles():
    dom = build_domain([[0], [1]], 1)
    with pytest.raises(InvalidProfile):
        ProbabilityProfile(dom, np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(InvalidProfile):
        ProbabilityProfile(dom, np.array([1.0]))  # wrong length
    with pytest.raises(InvalidProfile):
        ProbabilityProfile(dom, np.array([-0.6, 0.8]))  # negative entry
    with pytest.raises(InvalidProfile):
        ProbabilityProfile(dom, np.array([np.nan, 1.0]))
    with pytest.raises(InvalidProfile):
        ProbabilityProfile.normalized(dom, np.zeros(2))


def test_uniform_and_delta():
    dom = box_domain(1, 1)
    u = uniform_profile(dom)
    assert np.allclose(u.values, 1.0 / math.sqrt(3.0))
    d = delta_profile(dom)
    assert d.values[dom.origin_index] == 1.0
    assert d.values.sum() == 1.0
    d2 = delta_profile(dom, 0)
    assert d2.values[0] == 1.0


def test_edge_differences_zero_outside():
    dom = build_domain([[0], [1]], 1)
    diffs = edge_differences(dom, np.array([0.6, 0.8]))
    # canonical edge order: (-1,0) boundary, (0,1) interior, (1,2) boundary
    assert np.allclose(sorted(np.abs(diffs)), sorted([0.6, 0.2, 0.8]))
    # boundary neighbours carry g = 0, so single-site diffs equal the value
    d0 = box_domain(1, 0)
    assert np.allclose(edge_differences(d0, np.array([1.0])), [1.0, 1.0])


def test_edge_differences_rejects_wrong_length():
    dom = box_domain(1, 1)
    for n in (2, 5):
        with pytest.raises(DomainMismatch):
            edge_differences(dom, np.ones(n))
        with pytest.raises(DomainMismatch):
            edge_differences(dom, np.ones((4, n)))


@pytest.mark.parametrize(
    "dom", [box_domain(1, 0), build_domain([[0], [1]], 1), box_domain(1, 2), box_domain(2, 1)]
)
def test_edge_adjoint_is_transpose(dom):
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = rng.normal(size=dom.n_sites)
        s = rng.normal(size=dom.n_edges)
        lhs = s @ edge_differences(dom, g)
        assert lhs == pytest.approx(edge_adjoint(dom, s) @ g, abs=1e-12 * (1.0 + abs(lhs)))
    # the matrix of edge_differences has +1 at a and -1 at an interior b
    mat = np.stack([edge_differences(dom, e) for e in np.eye(dom.n_sites)], axis=1)
    assert set(np.unique(mat)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.stack([edge_adjoint(dom, e) for e in np.eye(dom.n_edges)], axis=1), mat.T)


def test_edge_differences_stacked_rows():
    dom = box_domain(2, 1)
    stack = np.random.default_rng(5).random((3, 4, dom.n_sites))
    rows = edge_differences(dom, stack)
    assert rows.shape == (3, 4, dom.n_edges)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(rows[i, j], edge_differences(dom, stack[i, j]))


@pytest.mark.parametrize("dom", [box_domain(1, 1), box_domain(2, 1)])
def test_edge_adjoint_stacked_rows(dom):
    # the lockstep solver relies on a stack giving each row's bits exactly
    stack = np.random.default_rng(6).normal(size=(3, 4, dom.n_edges))
    sums = edge_adjoint(dom, stack)
    assert sums.shape == (3, 4, dom.n_sites)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(sums[i, j], edge_adjoint(dom, stack[i, j]))
