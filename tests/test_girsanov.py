import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrc.conductance import ConductanceField, sample_field, site_totals
from rwrc.domain import box_domain, build_domain
from rwrc.errors import (
    ArgumentOutOfRange,
    DomainMismatch,
    EpsilonTooLarge,
    FieldMismatch,
    NonPositiveArgument,
)
from rwrc.girsanov import (
    comparison_bound_check,
    feynman_kac_upper_bound,
    girsanov_log_density,
    nonexit_event,
    reweighted_probability,
)
from rwrc.spectral import assemble, semigroup_nonexit
from rwrc.tail_law import TailLaw
from rwrc.walk import PathRecord, occupation_mc, simulate


def two_site():
    return build_domain([[0], [1]], 1)


def stay_path(dom, t):
    return PathRecord(
        domain=dom,
        jump_times=np.empty(0),
        sites=np.array([dom.origin_index]),
        horizon=t,
        exit_time=None,
        occupation=np.where(np.arange(dom.n_sites) == dom.origin_index, float(t), 0.0),
        crossed=np.empty(0, dtype=np.int64),
    )


def test_identity_fields_give_zero():
    dom = two_site()
    f = ConductanceField(dom, np.array([0.5, 1.5, 2.0]))
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = simulate(f, 2.0, rng)
        assert girsanov_log_density(p, f, f) == 0.0


def test_no_jump_formula():
    dom = two_site()
    phi = ConductanceField(dom, np.array([0.5, 1.5, 2.0]))
    psi = ConductanceField(dom, np.array([1.0, 1.0, 1.0]))
    t = 1.7
    p = stay_path(dom, t)
    expect = -t * (site_totals(phi) - site_totals(psi))[dom.origin_index]
    assert girsanov_log_density(p, phi, psi) == pytest.approx(expect, rel=1e-14)


def test_normalization():
    dom = two_site()
    psi = ConductanceField(dom, np.ones(3))
    rng = np.random.default_rng(6)
    phi = ConductanceField(dom, rng.uniform(0.5, 2.0, 3))
    n = 20_000
    w = np.empty(n)
    for i in range(n):
        p = simulate(psi, 1.0, rng)
        w[i] = math.exp(girsanov_log_density(p, phi, psi))
    m, se = w.mean(), w.std(ddof=1) / math.sqrt(n)
    assert abs(m - 1.0) <= 3 * se


def test_cocycle_and_antisymmetry():
    dom = two_site()
    rng = np.random.default_rng(8)
    phi = ConductanceField(dom, rng.uniform(0.5, 2.0, 3))
    psi = ConductanceField(dom, rng.uniform(0.5, 2.0, 3))
    chi = ConductanceField(dom, rng.uniform(0.5, 2.0, 3))
    for _ in range(300):
        p = simulate(psi, 2.0, rng)
        ab = girsanov_log_density(p, phi, psi)
        bc = girsanov_log_density(p, psi, chi)
        ac = girsanov_log_density(p, phi, chi)
        assert abs(ab + bc - ac) <= 1e-12
        assert girsanov_log_density(p, psi, phi) == -ab


def reference_log_density(p, phi, psi):
    """The density summed jump by jump, as a check on the local-time form."""
    log_ratio = np.log(phi.weights) - np.log(psi.weights)
    rate_diff = site_totals(phi) - site_totals(psi)
    total = 0.0
    prev = 0.0
    for i in range(p.n_jumps):
        tau = p.jump_times[i]
        total += log_ratio[p.crossed[i]] - (tau - prev) * rate_diff[p.sites[i]]
        prev = tau
    last_site = p.sites[-1]
    if p.exited:
        total += log_ratio[p.crossed[-1]] - (p.exit_time - prev) * rate_diff[last_site]
    else:
        total += -(p.horizon - prev) * rate_diff[last_site]
    return total


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_density_matches_per_jump_reference(seed):
    dom = box_domain(2, 1)
    rng = np.random.default_rng(seed)
    phi = ConductanceField(dom, rng.uniform(0.2, 3.0, dom.n_edges))
    psi = ConductanceField(dom, rng.uniform(0.2, 3.0, dom.n_edges))
    paths = [simulate(psi, 0.0, rng)] + [simulate(psi, 1.0, rng) for _ in range(100)]
    assert paths[0].n_jumps == 0
    assert any(p.exited for p in paths)
    assert any(p.n_jumps > 0 and not p.exited for p in paths)
    for p in paths:
        ref = reference_log_density(p, phi, psi)
        assert abs(girsanov_log_density(p, phi, psi) - ref) <= 1e-12


def test_field_mismatch():
    dom = two_site()
    other = box_domain(1, 0)
    phi = ConductanceField(dom, np.ones(3))
    psi = ConductanceField(other, np.ones(2))
    p = stay_path(dom, 1.0)
    with pytest.raises(FieldMismatch):
        girsanov_log_density(p, phi, psi)


def test_reweighted_always_true_event():
    dom = two_site()
    psi = ConductanceField(dom, np.ones(3))
    phi = ConductanceField(dom, np.array([1.4, 0.6, 1.1]))
    est, se = reweighted_probability(
        lambda p: True, phi, psi, 1.0, 20_000, np.random.default_rng(10)
    )
    assert abs(est - 1.0) <= 3 * se


def test_reweighted_needs_two_trials():
    # the sample standard deviation of one draw is undefined; 0.0 would call it exact
    dom = box_domain(1, 1)
    psi = ConductanceField(dom, np.ones(dom.n_edges))
    for n in (1, 0):
        with pytest.raises(ArgumentOutOfRange):
            reweighted_probability(lambda p: True, psi, psi, 1.0, n, np.random.default_rng(0))


def test_reweighted_nonexit_vs_semigroup():
    dom = two_site()
    psi = ConductanceField(dom, np.ones(3))
    phi = ConductanceField(dom, np.array([1.7, 0.6, 0.9]))
    est, se = reweighted_probability(
        nonexit_event, phi, psi, 1.0, 20_000, np.random.default_rng(11)
    )
    exact = semigroup_nonexit(phi, 1.0)
    assert abs(est - exact) <= 3 * se


def test_comparison_bound_exact():
    dom = two_site()
    psi = ConductanceField(dom, np.ones(3))
    rep = comparison_bound_check(psi, 0.1, 1.0, 100, np.random.default_rng(12), method="exact")
    assert rep["method"] == "exact"
    assert rep["factor"] == pytest.approx(math.exp(-4 * dom.d * 0.1 * 1.0), rel=1e-14)
    assert rep["violations"] == 0 and rep["ok"]
    assert rep["min_margin"] >= 0


def test_comparison_bound_small_eps_tight():
    dom = box_domain(1, 0)
    psi = ConductanceField(dom, np.ones(2))
    rep = comparison_bound_check(psi, 1e-9, 1.0, 10, np.random.default_rng(13), method="exact")
    # phi pinned to psi: both sides equal up to the e^{-4*d*eps*t} factor
    assert rep["ok"]
    assert rep["min_margin"] <= 1e-6


def test_comparison_bound_empty_event():
    dom = two_site()
    psi = ConductanceField(dom, np.ones(3))
    rep = comparison_bound_check(
        psi, 0.1, 1.0, 5, np.random.default_rng(14), method="mc",
        event=lambda p: False, n_paths=200,
    )
    assert rep["violations"] == 0 and rep["ok"]


def test_comparison_bound_mc():
    dom = two_site()
    psi = ConductanceField(dom, np.ones(3))
    rep = comparison_bound_check(
        psi, 0.2, 1.0, 10, np.random.default_rng(15), method="mc", n_paths=4000
    )
    assert rep["violations"] == 0 and rep["ok"]


@pytest.mark.parametrize("n_paths", [0, 1])
def test_comparison_bound_mc_needs_two_paths(n_paths):
    # one path gives a binomial standard error of 0.0, which passes every margin
    dom = box_domain(1, 1)
    psi = ConductanceField(dom, np.ones(dom.n_edges))
    with pytest.raises(ArgumentOutOfRange):
        comparison_bound_check(
            psi, 0.2, 1.0, 3, np.random.default_rng(0), method="mc", n_paths=n_paths
        )


def test_comparison_bound_eps_too_large():
    dom = two_site()
    psi = ConductanceField(dom, np.array([0.3, 1.0, 1.0]))
    with pytest.raises(EpsilonTooLarge):
        comparison_bound_check(psi, 0.3, 1.0, 5, np.random.default_rng(16))


def box_corners(lo, hi):
    """The 2**n corners of the box of per-site masses [lo, hi], one per row."""
    return np.array(list(itertools.product(*zip(lo, hi))))


def box_bound_reference(f_test, phi, dom, lo, hi, t):
    """The box's closed form: the supremum is sum_x max(c_x lo_x, c_x hi_x)."""
    f = np.asarray(f_test, dtype=float)
    coeff = -(assemble(phi).matrix @ f) / f
    sup = float(np.sum(np.where(coeff >= 0, coeff * hi, coeff * lo)))
    return float(f[dom.origin_index] / np.min(f) * np.exp(t * sup))


def test_feynman_kac_single_site_exact():
    dom = box_domain(1, 0)
    phi = ConductanceField(dom, np.array([1.0, 1.0]))
    for t in (0.5, 1.0, 3.0):
        ub = feynman_kac_upper_bound(np.array([1.0]), phi, np.array([[1.0]]), t)
        assert ub == pytest.approx(math.exp(-2.0 * t), rel=1e-13)
        assert ub >= semigroup_nonexit(phi, t) - 1e-13


def test_feynman_kac_t_zero():
    dom = two_site()
    phi = ConductanceField(dom, np.ones(3))
    ub = feynman_kac_upper_bound(np.array([1.0, 2.0]), phi, np.array([[0.5, 0.5]]), 0.0)
    assert ub == pytest.approx(1.0, rel=1e-14)  # f(origin)/min f with f(origin) = min f


def test_feynman_kac_dominates_mc():
    dom = two_site()
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(18)
    t, n = 1.0, 20_000
    for _ in range(20):
        phi = sample_field(law, dom, rng)
        lo = rng.uniform(0.0, 0.4, dom.n_sites)
        hi = lo + rng.uniform(0.2, 0.6, dom.n_sites)
        hi = np.minimum(hi, 1.0)
        exited, _, occ = occupation_mc(phi, t, n, rng)
        h = occ / t
        hit = (~exited) & np.all((h >= lo[None, :]) & (h <= hi[None, :]), axis=1)
        p_hat = hit.mean()
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n)
        f_test = rng.uniform(0.5, 2.0, dom.n_sites)
        ub = feynman_kac_upper_bound(f_test, phi, box_corners(lo, hi), t)
        assert ub >= p_hat - 3 * se


_BOX_DOMAINS = (build_domain([[0], [1]], 1), box_domain(1, 1))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_feynman_kac_corners_keep_the_box_bound(data):
    dom = data.draw(st.sampled_from(_BOX_DOMAINS))
    n = dom.n_sites

    def vector(size, lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    phi = ConductanceField(dom, vector(dom.n_edges, 0.1, 5.0))
    f_test = vector(n, 0.5, 2.0)
    lo = vector(n, 0.0, 1.0)
    hi = lo + vector(n, 0.0, 1.0)
    t = data.draw(st.floats(0.0, 2.0))
    ub = feynman_kac_upper_bound(f_test, phi, box_corners(lo, hi), t)
    assert ub == pytest.approx(box_bound_reference(f_test, phi, dom, lo, hi, t), rel=1e-12)


def test_feynman_kac_vertex_route():
    dom = two_site()
    phi = ConductanceField(dom, np.ones(3))
    simplex = np.array([[1.0, 0.0], [0.0, 1.0]])
    ub = feynman_kac_upper_bound(np.array([1.0, 1.0]), phi, simplex, 1.0)
    assert ub >= semigroup_nonexit(phi, 1.0) - 1e-13


def test_feynman_kac_errors():
    dom = two_site()
    phi = ConductanceField(dom, np.ones(3))
    f = np.array([1.0, 1.0])
    with pytest.raises(DomainMismatch):
        feynman_kac_upper_bound(f, phi, np.array([[1.0]]), 1.0)
    with pytest.raises(DomainMismatch):
        feynman_kac_upper_bound(np.array([1.0]), phi, np.array([[0.5, 0.5]]), 1.0)
    for masses in (np.empty((0, 2)), np.array([0.5, 0.5]), np.array([[0.5, np.nan]]),
                   np.array([[np.inf, 0.0]])):
        with pytest.raises(ArgumentOutOfRange):
            feynman_kac_upper_bound(f, phi, masses, 1.0)
    with pytest.raises(NonPositiveArgument):
        feynman_kac_upper_bound(np.array([1.0, 0.0]), phi, np.array([[0.5, 0.5]]), 1.0)
