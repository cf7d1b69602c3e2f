import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrc.conductance import ConductanceField
from rwrc.domain import box_domain, build_domain
import rwrc.variational as variational
from rwrc.errors import DomainTooLarge, NonPositiveArgument
from rwrc.profiles import ProbabilityProfile, edge_differences, uniform_profile
from rwrc.rates import joint_rate_J, k_const
from rwrc.spectral import assemble, dirichlet_matrix, eigen
from rwrc.tail_law import TailLaw
from rwrc.variational import (
    DECREASE_TOL, KAPPAS, MAX_ITER, RESTARTS, SEED, brute_force_L, exponent, objective, solve_L,
)


def chain(n):
    return build_domain([[i] for i in range(n)], 1)


def continuum_constant(eta):
    """C_p = min over phi on [-1, 1], phi(+-1) = 0, of int |phi'|**p / (int phi**2)**(p/2).

    The l**p - l**2 Poincare constant of an interval.  The Euler-Lagrange
    equation -(|phi'|**(p-2) phi')' = mu phi has the first integral
    ((p-1)/p)|phi'|**p + mu phi**2/2 = const, and the half-length and int phi**2
    are two Beta integrals: C_p = (2(p-1)/p) 2**-p B1**p (2 B3/B1)**(1-p/2),
    B1 = B(1/2, 1-1/p), B3 = B(3/2, 1-1/p).  For p > 1 (eta > 1) smooth profiles
    win on long chains, and L(box1d:R) (R+1)**(3p/2-1) tends to C_p.
    """
    p = exponent(eta)

    def beta(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)

    b1, b3 = beta(0.5, 1.0 - 1.0 / p), beta(1.5, 1.0 - 1.0 / p)
    return (2.0 * (p - 1.0) / p) * 2.0**-p * b1**p * (2.0 * b3 / b1) ** (1.0 - p / 2.0)


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


def test_oracle_rows_add_up_their_edges_in_edge_order():
    # the oracle's bits: with 8 or more edges a pairwise row sum rounds differently
    dom = build_domain([[0, 0], [1, 0], [0, 1], [1, 1]], 2)  # 12 edges
    g = np.random.default_rng(8).random((200, dom.n_sites))
    p = exponent(0.5)
    terms = np.abs(edge_differences(dom, g)) ** p
    want = terms[:, 0].copy()
    for e in range(1, dom.n_edges):
        want += terms[:, e]
    assert np.array_equal(variational._objective_rows(dom, g, p), want)


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


PROPERTY_DOMAINS = {
    "box1d:0": box_domain(1, 0),
    "box1d:1": box_domain(1, 1),
    "box1d:3": box_domain(1, 3),
    "box2d:1": box_domain(2, 1),
    "box3d:0": box_domain(3, 0),
    "chain2": chain(2),
    "L-tromino": build_domain([[0, 0], [1, 0], [0, 1]], 2),
}


@pytest.mark.parametrize("name", list(PROPERTY_DOMAINS))
def test_solver_is_nonincreasing_in_eta_and_above_unit_eigenvalue(name):
    # a unit profile has |grad_e g| <= 1, so |grad_e g|**p falls as p = 2*eta/(eta+1)
    # grows, and for p < 2 it is at least (grad_e g)**2, whose infimum is lambda1(1)
    dom = PROPERTY_DOMAINS[name]
    lam1 = eigen(assemble(ConductanceField(dom, np.ones(dom.n_edges))))[0][0]
    values = [solve_L(dom, eta).value for eta in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi * (1.0 + 1e-12), values
    assert min(values) >= lam1 * (1.0 - 1e-12), (values, lam1)


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


# The alternation one restart at a time, one vector per call.  Kept as a
# reference the solver, which runs its restarts as the rows of one stack, must
# match bit for bit.


def reference_alternation(dom, g, p):
    mat = dom.difference_matrix
    steps = 0
    for kap in KAPPAS:
        u = g @ mat
        f = np.sum((u * u + kap * kap) ** (p / 2.0))
        stopped = False
        for _ in range(MAX_ITER):
            w = (u * u + kap * kap) ** (p / 2.0 - 1.0)
            g = np.linalg.solve((mat * w) @ mat.T, g)
            g = g / np.sqrt(np.sum(g * g))
            steps += 1
            u = g @ mat
            fn = np.sum((u * u + kap * kap) ** (p / 2.0))
            if not f - fn > DECREASE_TOL * f:
                stopped = True
                break
            f = fn
    return g, steps, stopped


def reference_solve_L(dom, eta):
    """(value, iterations, converged restarts, minimizer, minimizers) of the per-restart solver."""
    p = exponent(eta)
    n = dom.n_sites
    rng = np.random.default_rng(SEED)
    starts = [uniform_profile(dom).values]
    for i in range(min(n, RESTARTS - 1)):
        e = np.zeros(n)
        e[i] = 1.0
        starts.append(e)
    while len(starts) < RESTARTS:
        # rng.random((k, n)) fills row after row, as k calls of rng.random(n) do
        r = rng.random(n)
        starts.append(r / np.sqrt(np.sum(r * r)))
    total_iter = 0
    converged = 0
    ends = []
    for g in starts:
        g, steps, stopped = reference_alternation(dom, g, p)
        total_iter += steps
        converged += stopped  # stopped before the cap at the last smoothing level
        ends.append(g)
    cands = starts + ends
    vals = [float(np.sum(np.abs(edge_differences(dom, g)) ** p)) for g in cands]
    ties = [g for v, g in zip(vals, cands) if v <= min(vals) + 1e-9]
    o = dom.origin_index
    ties.sort(key=lambda g: (round(g[o], 12), tuple(np.round(g, 12))), reverse=True)
    distinct = []
    for g in ties:
        if all(np.max(np.abs(g - h)) > 1e-6 for h in distinct):
            distinct.append(g.copy())
    minimizer = ProbabilityProfile.normalized(dom, ties[0])
    return objective(minimizer, eta), total_iter, converged, minimizer.values, distinct


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "dom", [chain(2), chain(3), box_domain(1, 1), box_domain(2, 0), box_domain(2, 1)],
    ids=["chain2", "chain3", "box1d:1", "box2d:0", "box2d:1"],
)
def test_lockstep_solver_matches_per_restart_reference(dom, eta):
    res = solve_L(dom, eta)
    value, iterations, converged, minimizer, minimizers = reference_solve_L(dom, eta)
    assert res.value == value
    assert res.iterations == iterations
    assert res.converged_restarts == converged
    assert np.array_equal(res.minimizer.values, minimizer)
    assert len(res.minimizers) == len(minimizers)
    for got, want in zip(res.minimizers, minimizers):
        assert np.array_equal(got, want)


def test_solver_counts_restarts_converged_at_the_last_level():
    # on box1d:5 at eta = 2 every restart stops on a relative decrease below
    # DECREASE_TOL at kappa = 1e-8, well before MAX_ITER steps
    res = solve_L(box_domain(1, 5), 2.0)
    assert res.converged_restarts == 32
    # the normalized indicator of all 11 sites: 2 exterior edges, |A|**(p/2) = 11**(2/3)
    assert res.value < 2.0 / 11.0 ** (2.0 / 3.0)


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
def test_solver_solve_calls_are_per_step_not_per_restart(monkeypatch, eta):
    # each profile step solves every live restart in one call on a stack of systems
    sizes = []
    solve = variational.solve

    def counted(a, b):
        sizes.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(variational, "solve", counted)
    res = solve_L(box_domain(1, 1), eta)
    assert sizes[0] == RESTARTS and sum(sizes) == res.iterations
    assert len(sizes) <= len(KAPPAS) * MAX_ITER


@st.composite
def _grown_domains(draw):
    """A connected domain of 1 to 16 sites, grown from the origin one neighbour at a time."""
    d = draw(st.integers(1, 3))
    sites = [(0,) * d]
    for _ in range(draw(st.integers(0, 15))):
        base = draw(st.sampled_from(sites))
        axis = draw(st.integers(0, d - 1))
        step = draw(st.sampled_from((-1, 1)))
        site = tuple(x + step * (i == axis) for i, x in enumerate(base))
        if site not in sites:
            sites.append(site)
    return build_domain(sites, d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_inverse_iteration_step_keeps_a_profile_and_lowers_the_rayleigh_quotient(data):
    # the solver's profile step: A is a nonsingular M-matrix, so A^{-1} g >= 0 for
    # g >= 0, and one inverse-iteration step does not raise the Rayleigh quotient
    dom = data.draw(_grown_domains())
    w = 10.0 ** np.array(data.draw(st.lists(
        st.floats(-3.0, 3.0), min_size=dom.n_edges, max_size=dom.n_edges)))
    g = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=dom.n_sites, max_size=dom.n_sites)))
    g[data.draw(st.integers(0, dom.n_sites - 1))] += 1.0
    g /= np.sqrt(np.sum(g * g))
    x = variational.solve(dirichlet_matrix(dom, w), g)
    x /= np.sqrt(np.sum(x * x))
    assert np.all(x >= 0.0)

    # v^T A v as the edge sum of w_e (grad_e v)**2: its terms are all >= 0, where
    # v @ A @ v cancels and, with weights six decades apart, rounds to ~1e-10
    def quad(v):
        return np.sum(w * edge_differences(dom, v) ** 2)

    assert quad(x) <= quad(g) * (1.0 + 1e-12)


def test_solver_keeps_an_exact_start_that_ties():
    # on chain2 the uniform start ties with the solved rows and wins, so the
    # interior increment of g* is exactly 0 and the tilt built on g* leaves that
    # edge untilted
    for eta in (1.0, 1.5):
        assert solve_L(chain(2), eta).minimizer.values.tolist() == [math.sqrt(0.5)] * 2


NESTED_PLANAR = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1), (0, -1), (1, -1), (-1, -1)]


@pytest.mark.parametrize("eta", [0.5, 1.0, 1.5, 2.0])
def test_solver_is_monotone_in_the_domain_and_below_a_delta(eta):
    # a profile on B, extended by zero, scores the same on any B' containing B,
    # so L(B') <= L(B); a delta scores 2d
    for d, seq in ((1, [chain(n) for n in range(1, 10)]),
                   (2, [build_domain(NESTED_PLANAR[:k], 2) for k in range(1, 10)])):
        values = [solve_L(dom, eta).value for dom in seq]
        assert max(values) <= 2.0 * d
        for smaller, larger in zip(values, values[1:]):
            assert larger <= smaller + 1e-9, (d, values)


def test_solver_chain_closed_form_at_eta_one():
    # at eta = 1 the minimum over connected A of |dA| / sqrt(|A|) on a chain of
    # n sites is the whole chain, 2 / sqrt(n)
    for r in range(9):
        value = solve_L(box_domain(1, r), 1.0).value
        assert value == pytest.approx(2.0 / math.sqrt(2 * r + 1), abs=1e-6), r


@pytest.mark.parametrize("eta, want", [(0.5, 0.777822), (2.0, 0.220658)])
def test_solver_converges_on_box1d_8(eta, want):
    # the smoothed projected gradient solver raised NonConvergence here
    assert solve_L(box_domain(1, 8), eta).value == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("eta", [1.5, 2.0, 3.0])
def test_solver_approaches_the_continuum_limit_on_chains(eta):
    # a profile a*phi(x/(R+1)) scores (R+1)**(1-3p/2) * C_p to O(R**-2); measured
    # gaps to C_p at R = 16 are 0.059%, 0.054% and 0.056% at eta = 1.5, 2 and 3
    p = exponent(eta)
    scaled = [solve_L(box_domain(1, r), eta).value * (r + 1) ** (1.5 * p - 1.0)
              for r in (2, 4, 8, 16)]
    assert all(a < b for a, b in zip(scaled, scaled[1:])), scaled
    assert scaled[-1] == pytest.approx(continuum_constant(eta), rel=1e-3)


def test_solver_never_above_a_delta_on_box2d_4():
    # the smoothed levels walked every start away from the delta, to 7.652
    assert solve_L(box_domain(2, 4), 0.5).value <= 4.0
