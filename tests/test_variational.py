import math

import numpy as np
import pytest

from rwrc.domain import box_domain, build_domain
from rwrc.errors import DomainTooLarge, NonPositiveArgument
from rwrc.profiles import ProbabilityProfile, edge_differences, uniform_profile
from rwrc.rates import joint_rate_J, k_const
from rwrc.tail_law import TailLaw
from rwrc.variational import brute_force_L, objective, solve_L


def chain(n):
    return build_domain([[i] for i in range(n)], 1)


def test_objective_values():
    dom = box_domain(1, 0)
    g = ProbabilityProfile(dom, np.array([1.0]))
    for eta in (0.5, 1.0, 2.0):
        assert objective(g, eta) == pytest.approx(2.0, rel=1e-14)
    dom2 = box_domain(2, 0)
    g2 = ProbabilityProfile(dom2, np.array([1.0]))
    assert objective(g2, 1.0) == pytest.approx(4.0, rel=1e-14)
    g3 = uniform_profile(chain(2))
    assert objective(g3, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_brute_force_known_values():
    assert brute_force_L(box_domain(1, 0), 1.0).value == pytest.approx(2.0, rel=1e-12)
    assert brute_force_L(box_domain(2, 0), 1.0).value == pytest.approx(4.0, rel=1e-12)
    res = brute_force_L(chain(2), 1.0)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert np.allclose(res.minimizer.values, [1 / math.sqrt(2)] * 2, atol=1e-3)


def test_brute_force_three_site_derived_value():
    # minimizer is the uniform profile, value 2/sqrt(3)
    res = brute_force_L(chain(3), 1.0)
    assert res.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-6)
    assert np.allclose(res.minimizer.values, [1 / math.sqrt(3)] * 3, atol=1e-4)


def test_brute_force_guards():
    with pytest.raises(DomainTooLarge):
        brute_force_L(box_domain(1, 2), 1.0)
    with pytest.raises(NonPositiveArgument):
        brute_force_L(chain(2), 0.0)


def test_solver_known_values():
    assert solve_L(box_domain(1, 0), 1.0).value == pytest.approx(2.0, abs=1e-6)
    assert solve_L(box_domain(2, 0), 1.0).value == pytest.approx(4.0, abs=1e-6)
    res = solve_L(chain(2), 1.0)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_solver_matches_oracle_all_small_domains():
    domains = [box_domain(1, 0), chain(2), chain(3), chain(4), box_domain(2, 0)]
    for eta in (0.5, 1.0, 2.0):
        for dom in domains:
            sv = solve_L(dom, eta)
            bf = brute_force_L(dom, eta)
            assert abs(sv.value - bf.value) <= 1e-3, (eta, dom.n_sites)


def boundary_ratio_min(dom):
    """min over nonempty A of |dA| / sqrt(|A|), exterior edges included."""
    best = math.inf
    for mask in range(1, 2**dom.n_sites):
        inside = np.array([(mask >> i) & 1 for i in range(dom.n_sites)], dtype=bool)
        cut = sum(
            1
            for a, b in zip(dom.edge_a, dom.edge_b)
            if inside[a] != (b >= 0 and inside[b])
        )
        best = min(best, cut / math.sqrt(inside.sum()))
    return best


SMALL_DOMAINS = {
    "box1d:0": box_domain(1, 0),
    "chain2": chain(2),
    "chain3": chain(3),
    "chain4": chain(4),
    "box2d:0": box_domain(2, 0),
    "square": build_domain([[0, 0], [0, 1], [1, 0], [1, 1]], 2),
    "L-tromino": build_domain([[0, 0], [1, 0], [0, 1]], 2),
}


@pytest.mark.parametrize("name", list(SMALL_DOMAINS))
def test_oracle_matches_indicator_closed_form_at_eta_one(name):
    # at eta = 1 (p = 1) the coarea formula makes normalized indicators optimal
    dom = SMALL_DOMAINS[name]
    assert brute_force_L(dom, 1.0).value == pytest.approx(boundary_ratio_min(dom), abs=1e-9)


def test_solver_box2d_at_eta_one():
    # every planar domain has L = 4 at eta = 1 (edge-isoperimetric inequality)
    assert solve_L(box_domain(2, 1), 1.0).value == pytest.approx(4.0, abs=1e-5)


def test_solver_deterministic():
    a = solve_L(chain(3), 1.0)
    b = solve_L(chain(3), 1.0)
    assert a.value == b.value
    assert np.array_equal(a.minimizer.values, b.minimizer.values)


def test_solver_result_structure():
    res = solve_L(chain(2), 1.0)
    assert res.restarts == 32
    assert res.converged_restarts >= 1
    assert len(res.minimizers) >= 1
    for v in res.minimizers:
        g = ProbabilityProfile(chain(2), v)
        assert objective(g, 1.0) <= res.value + 1e-6


def test_abs_profile_never_worse():
    dom = box_domain(1, 1)
    rng = np.random.default_rng(9)
    for eta in (0.5, 1.0, 2.0):
        p = 2 * eta / (eta + 1)
        for _ in range(50):
            v = rng.normal(size=dom.n_sites)
            v /= np.linalg.norm(v)
            signed = (np.abs(edge_differences(dom, v)) ** p).sum()
            nonneg = (np.abs(edge_differences(dom, np.abs(v))) ** p).sum()
            assert nonneg <= signed + 1e-12


def test_trivial_upper_bound():
    for dom in (chain(2), chain(3), box_domain(2, 0)):
        for eta in (0.5, 1.0, 2.0):
            upper = objective(uniform_profile(dom), eta)
            assert 0.0 < brute_force_L(dom, eta).value <= upper + 1e-9
            # the solver carries its own certified slack
            assert 0.0 < solve_L(dom, eta).value <= upper + 1e-3


def test_joint_rate_consistency():
    # K_{eta,D} * L equals J at the minimizer
    law = TailLaw(1.0, 1.0)
    dom = box_domain(1, 0)
    res = solve_L(dom, 1.0)
    assert k_const(law) * res.value == pytest.approx(4.0, abs=1e-6)
    assert joint_rate_J(res.minimizer, law) == pytest.approx(k_const(law) * res.value, rel=1e-12)


def test_eta_guard():
    with pytest.raises(NonPositiveArgument):
        solve_L(chain(2), -1.0)
