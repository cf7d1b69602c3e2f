import json
import math

import numpy as np
import pytest

from rwrc.conductance import (
    DEFAULT_CAP,
    ConductanceField,
    field_from_json,
    field_to_json,
    optimal_profile,
    sample_field,
    site_totals,
)
from rwrc.domain import box_domain, build_domain, domains_equal
from rwrc.errors import FieldMismatch, NonPositiveWeight, RwrcError
from rwrc.profiles import ProbabilityProfile, delta_profile, uniform_profile
from rwrc.tail_law import TailLaw, cdf, log_density


def test_sample_field_shape_and_determinism():
    dom = box_domain(1, 0)
    law = TailLaw(1.0, 1.0)
    f = sample_field(law, dom, np.random.default_rng(3))
    assert f.weights.shape == (2,)
    g = sample_field(law, dom, np.random.default_rng(3))
    assert np.array_equal(f.weights, g.weights)


def test_sample_field_joint_tail():
    dom = box_domain(1, 0)
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(17)
    n = 20_000
    hits = 0
    for _ in range(n):
        f = sample_field(law, dom, rng)
        if np.all(f.weights <= 0.5):
            hits += 1
    p = cdf(law, 0.5) ** 2  # = e^{-4}, independence across edges
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * se


def test_optimal_profile_single_site():
    dom = box_domain(1, 0)
    g = delta_profile(dom)
    f = optimal_profile(g, TailLaw(1.0, 1.0))
    assert np.allclose(f.weights, [1.0, 1.0], rtol=1e-14)
    f4 = optimal_profile(g, TailLaw(1.0, 4.0))
    assert np.allclose(f4.weights, [2.0, 2.0], rtol=1e-14)


def test_optimal_profile_cap_on_flat_edges():
    dom = build_domain([[0], [1]], 1)
    g = uniform_profile(dom)  # equal values, interior increment zero
    f = optimal_profile(g, TailLaw(1.0, 1.0), cap=123.0)
    inner = int(np.flatnonzero(dom.edge_b >= 0)[0])
    assert f.weights[inner] == 123.0
    f_default = optimal_profile(g, TailLaw(1.0, 1.0))
    assert f_default.weights[inner] == DEFAULT_CAP


def test_optimal_profile_scale_consistency():
    # D -> D * c**(eta+1) multiplies every non-capped weight by c
    dom = build_domain([[0], [1]], 1)
    g = ProbabilityProfile.normalized(dom, np.array([2.0, 1.0]))
    eta, dcoef, c = 1.5, 0.8, 3.0
    f1 = optimal_profile(g, TailLaw(eta, dcoef))
    f2 = optimal_profile(g, TailLaw(eta, dcoef * c ** (eta + 1.0)))
    assert np.allclose(f2.weights, c * f1.weights, rtol=1e-12)


def test_field_log_prior_sums_edge_densities():
    # the joint log prior of a field sums the per-edge log densities
    dom = box_domain(1, 0)
    law = TailLaw(1.0, 1.0)
    f = ConductanceField(dom, np.array([1.0, 1.0]))
    assert log_density(law, f.weights).sum() == pytest.approx(-2.0, rel=1e-14)
    f2 = ConductanceField(dom, np.array([0.7, 2.2]))
    expect = log_density(law, 0.7) + log_density(law, 2.2)
    assert log_density(law, f2.weights).sum() == pytest.approx(expect, rel=1e-14)


def test_field_log_prior_unimodal():
    dom = box_domain(1, 0)
    law = TailLaw(1.0, 1.0)
    mode = (law.dcoef * law.eta / (law.eta + 1.0)) ** (1.0 / law.eta)
    grid = np.linspace(mode, 50.0, 200)
    vals = [log_density(law, ConductanceField(dom, np.array([x, mode])).weights).sum() for x in grid]
    assert np.all(np.diff(vals) < 0)


def test_site_totals():
    dom = build_domain([[0], [1]], 1)
    # canonical edges: (-1,0), (0,1), (1,2)
    f = ConductanceField(dom, np.array([1.0, 2.0, 4.0]))
    totals = site_totals(f)
    assert np.allclose(totals, [3.0, 6.0])


def test_field_validation():
    dom = box_domain(1, 0)
    with pytest.raises(FieldMismatch):
        ConductanceField(dom, np.array([1.0]))
    for bad in (0.0, np.inf, np.nan, -1.0, -np.inf):
        with pytest.raises(NonPositiveWeight):
            ConductanceField(dom, np.array([1.0, bad]))
        with pytest.raises(NonPositiveWeight):
            ConductanceField(dom, np.array([bad, 1.0]))


def test_field_json_round_trip():
    dom = build_domain([[0], [1]], 1)
    f = ConductanceField(dom, np.array([0.5, 1.5, 2.5]))
    back = field_from_json(field_to_json(f))
    assert domains_equal(back.domain, dom)
    assert np.allclose(back.weights, f.weights, rtol=0, atol=0)


GOOD_FIELD = {"domain": {"d": 1, "sites": [[0]]}, "weights": [1.0, 2.0]}

# each of these crashed with a bare TypeError, ValueError or KeyError
MALFORMED_FIELDS = [
    {**GOOD_FIELD, "domain": {"d": 1, "sites": 5}},
    [1],
    {**GOOD_FIELD, "weights": "ab"},
    {**GOOD_FIELD, "domain": {"d": "x", "sites": [[0]]}},
    {"weights": [1.0, 2.0]},
]


@pytest.mark.parametrize("doc", MALFORMED_FIELDS, ids=json.dumps)
def test_field_from_json_rejects_malformed_documents(doc):
    assert field_from_json(json.dumps(GOOD_FIELD)).weights.tolist() == [1.0, 2.0]
    with pytest.raises(RwrcError):
        field_from_json(json.dumps(doc))
