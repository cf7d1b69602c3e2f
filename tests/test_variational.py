import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrc.domain import box_domain, build_domain
import rwrc.variational as variational
from rwrc.errors import DomainTooLarge, NonPositiveArgument
from rwrc.profiles import (
    ProbabilityProfile, delta_profile, edge_adjoint, edge_differences, uniform_profile,
)
from rwrc.rates import joint_rate_J, k_const
from rwrc.tail_law import TailLaw
from rwrc.variational import (
    KAPPAS, MAX_ITER, RESTARTS, SEED, STEP_INIT, TOL, _project, brute_force_L, exponent, objective,
    solve_L,
)


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


# The solver before its restarts ran in lockstep: one restart at a time, one
# vector per call.  Kept as a reference the lockstep solver must match bit for bit.


def reference_project(v):
    w = np.clip(v, 0.0, None)
    nrm = np.linalg.norm(w)
    if nrm <= 0.0:
        w = np.ones_like(v)
        nrm = np.linalg.norm(w)
    return w / nrm


def reference_pgd(dom, g, p, kappa):
    def fval(x):
        u = edge_differences(dom, x)
        return float(np.sum((u * u + kappa * kappa) ** (p / 2.0)))

    def grad(x):
        u = edge_differences(dom, x)
        return edge_adjoint(dom, p * u * (u * u + kappa * kappa) ** (p / 2.0 - 1.0))

    step = STEP_INIT
    f = fval(g)
    for it in range(MAX_ITER):
        gr = grad(g)
        cand, fc = None, None
        while step > 1e-16:
            trial = reference_project(g - step * gr)
            ft = fval(trial)
            if ft <= f - 1e-12 * (1.0 + abs(f)):
                cand, fc = trial, ft
                break
            step *= 0.5
        if cand is None:
            return g, it + 1, True
        if np.linalg.norm(cand - g) <= TOL * (1.0 + np.linalg.norm(g)):
            return cand, it + 1, True
        g, f = cand, fc
        step = min(step * 1.5, 1e3)
    return g, MAX_ITER, False


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
        starts.append(reference_project(rng.random(n)))
    total_iter = 0
    converged = 0
    finals = []
    for g in starts:
        for kap in KAPPAS:
            g, iters, conv = reference_pgd(dom, g, p, kap)
            total_iter += iters
        converged += conv  # stationary at the last smoothing level
        gp = ProbabilityProfile.normalized(dom, g)
        finals.append((objective(gp, eta), gp.values))
    best_val = min(v for v, _ in finals)
    ties = [g for v, g in finals if v <= best_val + 1e-9]
    ties.sort(key=lambda g: tuple(np.round(g, 12)), reverse=True)
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
    # on box1d:5 at eta = 2 every restart stalls at MAX_ITER at kappa = 1e-3 and
    # 1e-4, then is stationary at the finer levels
    res = solve_L(box_domain(1, 5), 2.0)
    assert res.converged_restarts == 32
    # the normalized indicator of all 11 sites: 2 exterior edges, |A|**(p/2) = 11**(2/3)
    assert res.value < 2.0 / 11.0 ** (2.0 / 3.0)


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
def test_solver_edge_difference_calls_are_per_step_not_per_restart(monkeypatch, eta):
    # lockstep restarts make 162-357 calls on box1d:1; one restart at a time made 13,264-16,396
    calls = 0

    def counted(dom, values):
        nonlocal calls
        calls += 1
        return edge_differences(dom, values)

    monkeypatch.setattr(variational, "edge_differences", counted)
    solve_L(box_domain(1, 1), eta)
    assert 0 < calls <= 400


@pytest.mark.parametrize("eta, bound", [(0.5, 200), (1.0, 125), (2.0, 85)])
def test_solver_line_search_rounds_per_solve(monkeypatch, eta, bound):
    # each line-search round projects its trials in one call.  A first round of
    # four halvings takes 198, 121 and 83 calls on box1d:1 at these eta; rounds
    # of 1, 2, 4, ... halvings took 325, 195 and 135
    calls = 0
    project = variational._project

    def counted(v):
        nonlocal calls
        calls += 1
        return project(v)

    monkeypatch.setattr(variational, "_project", counted)
    solve_L(box_domain(1, 1), eta)
    assert 0 < calls <= bound


PGD_DOMAINS = {
    "box1d:0": box_domain(1, 0),
    "box1d:1": box_domain(1, 1),
    "box1d:2": box_domain(1, 2),
    "box1d:3": box_domain(1, 3),
    "box2d:1": box_domain(2, 1),
    "chain2": chain(2),
}


def assert_same_pgd(dom, g, p, kappa):
    # each row of the batched line search must match a one-halving-at-a-time
    # search on that row alone, bit for bit
    out, iters, converged = variational._pgd(dom, g, p, kappa)
    for i, row in enumerate(g):
        want, want_iters, want_conv = reference_pgd(dom, row, p, kappa)
        assert np.array_equal(out[i], want)
        assert iters[i] == want_iters
        assert converged[i] == want_conv
    return out


@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("eta", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("name", list(PGD_DOMAINS))
def test_batched_line_search_matches_one_halving_per_round(name, eta, data):
    dom = PGD_DOMAINS[name]
    n = dom.n_sites
    rows = data.draw(
        st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=1, max_size=3)
    )
    # a delta row too; zero rows project to the uniform profile
    g = _project(np.vstack([np.array(rows).reshape(-1, n), np.eye(n)[:1]]))
    p = exponent(eta)
    for kap in KAPPAS:
        g = assert_same_pgd(dom, g, p, kap)
    # the rows are now stationary or stalled: rerunning the last level sends
    # the searches that find no descent down to the 1e-16 step floor
    assert_same_pgd(dom, g, p, KAPPAS[-1])


def test_line_search_doubles_its_round_down_to_the_step_floor(monkeypatch):
    # a delta start on box2d:1 at eta = 1, descended through every level, is
    # stationary: one gradient step whose search tries 4, 8, 16, ... halvings
    # per round until the step falls below 1e-16 (60 halvings of the unit step)
    dom = box_domain(2, 1)
    p = exponent(1.0)
    g = delta_profile(dom).values[None, :]
    for kap in KAPPAS:
        g = assert_same_pgd(dom, g, p, kap)
    sizes = []
    project = variational._project

    def counted(v):
        sizes.append(v.shape[0])
        return project(v)

    monkeypatch.setattr(variational, "_project", counted)
    out, iters, converged = variational._pgd(dom, g, p, KAPPAS[-1])
    assert sizes == [4, 8, 16, 32]
    assert np.array_equal(out, g)
    assert iters.tolist() == [1] and converged.tolist() == [True]
    monkeypatch.undo()
    assert_same_pgd(dom, g, p, KAPPAS[-1])
