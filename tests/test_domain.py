import json

import numpy as np
import pytest

from rwrc.conductance import ConductanceField, field_from_json, field_to_json
from rwrc.domain import box_domain, build_domain, domains_equal
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
    # a domain is written and read as the "domain" part of the field JSON
    dom = box_domain(2, 1)
    text = field_to_json(ConductanceField(dom, np.ones(dom.n_edges)))
    doc = json.loads(text)["domain"]
    assert doc["d"] == 2 and len(doc["sites"]) == 9
    back = field_from_json(text).domain
    assert domains_equal(dom, back)
