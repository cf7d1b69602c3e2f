import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rwrc.domain import box_domain, build_domain
from rwrc.errors import DomainMismatch, InvalidProfile
from rwrc.profiles import (
    ProbabilityProfile,
    delta_profile,
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
def test_edge_differences_matrix_is_plus_minus_one(dom):
    # the matrix of edge_differences has +1 at a and -1 at an interior b
    mat = np.stack([edge_differences(dom, e) for e in np.eye(dom.n_sites)], axis=1)
    assert set(np.unique(mat)) <= {-1.0, 0.0, 1.0}
    for e, (a, b) in enumerate(zip(dom.edge_a, dom.edge_b)):
        assert mat[e, a] == 1.0
        assert np.count_nonzero(mat[e]) == (2 if b >= 0 else 1)
        if b >= 0:
            assert mat[e, b] == -1.0


def test_edge_differences_stacked_rows():
    dom = box_domain(2, 1)
    stack = np.random.default_rng(5).random((3, 4, dom.n_sites))
    rows = edge_differences(dom, stack)
    assert rows.shape == (3, 4, dom.n_edges)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(rows[i, j], edge_differences(dom, stack[i, j]))


# The edge map before the difference matrix: a padded gather.  Kept as a
# reference the product must match bit for bit.


def reference_edge_differences(domain, values):
    v = np.asarray(values, dtype=float)
    padded = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))  # the last slot is read by b = -1
    padded[..., :-1] = v
    padded = padded.T
    return (padded[domain.edge_a] - padded[domain.edge_b]).T


EDGE_MAP_DOMAINS = {
    "box1d:2": box_domain(1, 2),
    "box2d:1": box_domain(2, 1),
    "box3d:1": box_domain(3, 1),  # six edges per site
    "sites": build_domain([[0, 0], [1, 0], [1, 1], [2, 1], [0, -1], [-1, -1]], 2),
}

# finite values far enough from the float range that no difference overflows
FINITE = st.floats(min_value=-1e150, max_value=1e150)


def stacked(draw, last):
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))  # 1-D, 2-D and 3-D inputs
    return draw(arrays(np.float64, lead + (last,), elements=FINITE))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("name", list(EDGE_MAP_DOMAINS))
def test_edge_maps_match_gather_and_add_at_bit_for_bit(name, data):
    dom = EDGE_MAP_DOMAINS[name]
    v = stacked(data.draw, dom.n_sites)
    want = reference_edge_differences(dom, v)
    assert np.array_equal(edge_differences(dom, v), want)
    # bit for bit once -0.0 entries read as +0.0: the product may give +0.0
    # where g(a) = -0.0 minus g(b) = +0.0 gave -0.0
    v0 = v + 0.0
    assert edge_differences(dom, v0).tobytes() == reference_edge_differences(dom, v0).tobytes()
