import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrc.conductance import ConductanceField, field_from_json, field_to_json
from rwrc.domain import box_domain, build_domain, domain_from_spec, domains_equal
from rwrc.errors import (
    ArgumentOutOfRange,
    DimensionMismatch,
    DisconnectedDomain,
    DuplicateSite,
    OriginMissing,
)


def edge_counts(dom):
    boundary = int(np.sum(dom.edge_b < 0))
    return len(dom.edge_a) - boundary, boundary


def test_single_site_1d():
    dom = build_domain([[0]], 1)
    assert dom.n_sites == 1
    interior, boundary = edge_counts(dom)
    assert interior == 0 and boundary == 2
    exterior = sorted(dom.edge_b_point.tolist())
    assert exterior == [[-1], [1]]


def test_two_sites_1d():
    dom = build_domain([[0], [1]], 1)
    assert dom.n_sites == 2
    interior, boundary = edge_counts(dom)
    assert interior == 1 and boundary == 2
    assert dom.n_edges == 3


def test_single_site_2d():
    dom = build_domain([[0, 0]], 2)
    interior, boundary = edge_counts(dom)
    assert interior == 0 and boundary == 4


def test_edge_count_identity():
    # |E_B| = 2d|B| - (#interior), each interior edge shared by two sites
    for dom in (box_domain(1, 2), box_domain(2, 1), build_domain([[0], [1], [2], [3]], 1)):
        interior, boundary = edge_counts(dom)
        assert interior + boundary == dom.n_edges
        assert dom.n_edges == 2 * dom.d * dom.n_sites - interior


def test_box_domains():
    assert box_domain(1, 0).n_sites == 1
    dom = box_domain(1, 1)
    assert [tuple(s) for s in dom.sites] == [(-1,), (0,), (1,)]
    assert box_domain(2, 1).n_sites == 9
    with pytest.raises(ArgumentOutOfRange):
        box_domain(1, -1)


def test_disconnected():
    with pytest.raises(DisconnectedDomain):
        build_domain([[0], [2]], 1)


def test_origin_required():
    with pytest.raises(OriginMissing):
        build_domain([[1], [2]], 1)


def test_duplicate_site():
    with pytest.raises(DuplicateSite):
        build_domain([[0], [1], [1]], 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_domain([[0, 0]], 1)
    with pytest.raises(DimensionMismatch):
        build_domain([[0.5]], 1)
    # a coordinate that is not a real number, or a site that is not a sequence
    for bad in ([[0], "a"], [[0], None], [[0], {"x": 1}], [[0], [[1]]], [[float("nan")]]):
        with pytest.raises(DimensionMismatch):
            build_domain(bad, 1)


def test_canonical_ordering():
    a = build_domain([[0], [1], [-1]], 1)
    b = build_domain([[-1], [1], [0]], 1)
    assert domains_equal(a, b)
    assert a.n_edges == b.n_edges
    for name in ("edge_a", "edge_b", "edge_b_point"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_origin_index():
    dom = box_domain(1, 2)
    assert tuple(dom.sites[dom.origin_index]) == (0,)
    dom2 = box_domain(2, 1)
    assert tuple(dom2.sites[dom2.origin_index]) == (0, 0)


def test_neighbor_tables_consistent():
    dom = box_domain(2, 1)
    assert dom.edge_b_point.shape == (dom.n_edges, dom.d)
    for a, b, q in zip(dom.edge_a, dom.edge_b, dom.edge_b_point):
        if b >= 0:
            assert b in dom.site_nbrs[a]
            assert a in dom.site_nbrs[b]
            assert np.array_equal(q, dom.sites[b])
            diff = np.abs(dom.sites[a] - dom.sites[b]).sum()
            assert diff == 1
        else:
            diff = np.abs(dom.sites[a] - q).sum()
            assert diff == 1


@st.composite
def connected_sites(draw):
    """A connected site set with the origin in d = 1..3, grown one neighbour at
    a time, and listed in shuffled order."""
    d = draw(st.integers(1, 3))
    grown = [(0,) * d]
    for _ in range(draw(st.integers(0, 12))):
        base = draw(st.sampled_from(grown))
        axis, step = draw(st.integers(0, d - 1)), draw(st.sampled_from((-1, 1)))
        q = base[:axis] + (base[axis] + step,) + base[axis + 1:]
        if q not in grown:
            grown.append(q)
    return draw(st.permutations(grown)), d


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=connected_sites())
def test_tables_agree_on_random_connected_sets(spec):
    points, d = spec
    dom = build_domain(points, d)
    n, m = dom.n_sites, dom.n_edges
    assert sorted(map(tuple, dom.sites.tolist())) == sorted(points)
    assert dom.site_edges.shape == dom.site_nbrs.shape == (n, 2 * d)
    # each site lists its incident edges in increasing order, with their far ends
    assert np.all(np.diff(dom.site_edges, axis=1) > 0)
    for i in range(n):
        for e, j in zip(dom.site_edges[i].tolist(), dom.site_nbrs[i].tolist()):
            assert i in (dom.edge_a[e], dom.edge_b[e])
            assert j == (dom.edge_b[e] if dom.edge_a[e] == i else dom.edge_a[e])
    # every edge is incident to its endpoints' rows and nowhere else
    assert np.array_equal(np.bincount(dom.site_edges.ravel(), minlength=m), 1 + (dom.edge_b >= 0))
    step = dom.edge_b_point - dom.sites[dom.edge_a]
    assert np.array_equal(np.abs(step).sum(axis=1), np.ones(m, dtype=np.int64))
    inside = dom.edge_b >= 0
    assert np.array_equal(dom.edge_b_point[inside], dom.sites[dom.edge_b[inside]])
    # edges come in (edge_a, offset) order, the offsets sorted lexicographically
    keys = list(zip(dom.edge_a.tolist(), map(tuple, step.tolist())))
    assert keys == sorted(keys)


def test_tables_pin_the_first_slot_to_an_earlier_edge():
    # the origin's first offset (-1, 0) points outside, but its lower
    # neighbour's edge (edge 2) was made first, so it takes the first slot
    dom = build_domain([(0, -1), (0, 0)], 2)
    assert dom.sites.tolist() == [[0, -1], [0, 0]]
    assert dom.site_nbrs.tolist() == [[-1, -1, 1, -1], [0, -1, -1, -1]]
    assert dom.site_edges.tolist() == [[0, 1, 2, 3], [2, 4, 5, 6]]
    assert dom.edge_b.tolist() == [-1, -1, 1, -1, -1, -1, -1]
    assert dom.edge_a.tolist() == [0, 0, 0, 0, 1, 1, 1]
    assert dom.origin_index == 1


def test_errors_name_the_first_duplicate_and_the_smallest_unreached_site():
    with pytest.raises(DuplicateSite, match=r"site \(2,\) listed"):
        build_domain([[0], [2], [1], [2], [1]], 1)
    with pytest.raises(DisconnectedDomain, match=r"site \(-5,\) is not connected"):
        build_domain([[0], [3], [-5], [2]], 1)
    with pytest.raises(OriginMissing, match="empty"):
        build_domain([], 2)


def test_each_edge_listed_once():
    dom = box_domain(2, 1)
    seen = set()
    for a, b, q in zip(dom.edge_a.tolist(), dom.edge_b.tolist(), dom.edge_b_point.tolist()):
        if b >= 0:
            key = (min(a, b), max(a, b))
        else:
            key = (a, tuple(q))
        assert key not in seen
        seen.add(key)


def test_json_round_trip():
    # a domain is written and read as the "domain" part of the field JSON,
    # through the one reader of written domains
    for dom in (box_domain(2, 1), build_domain([[0, 0], [1, 0], [1, 1], [0, -1]], 2)):
        f = ConductanceField(dom, np.linspace(0.5, 2.0, dom.n_edges))
        text = field_to_json(f)
        doc = json.loads(text)["domain"]
        assert doc == {"d": 2, "sites": dom.sites.tolist()}
        assert domains_equal(domain_from_spec(doc), dom)
        back = field_from_json(text)
        assert domains_equal(dom, back.domain)
        assert back.weights.tobytes() == f.weights.tobytes()


def test_domain_spec_type_defaults_to_sites_when_sites_are_given():
    dom = domain_from_spec({"d": 1, "sites": [[0], [1], [2]]})
    assert dom.sites.tolist() == [[0], [1], [2]] and dom.n_edges == 4
    assert domain_from_spec({"d": 2}).n_sites == 1  # a box without sites
