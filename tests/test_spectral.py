import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrc import spectral
from rwrc.conductance import ConductanceField, sample_field
from rwrc.domain import box_domain, build_domain
from rwrc.errors import (
    DomainMismatch,
    FieldMismatch,
    NonConvergence,
    NonPositiveWeight,
    UnsupportedDomain,
)
from rwrc.profiles import ProbabilityProfile
from rwrc.rates import dv_rate_I
from rwrc.spectral import (
    assemble,
    dirichlet_matrix,
    eigen,
    eigen_tail,
    nonexit_stack,
    sandwich_check,
    semigroup_nonexit,
    solve,
    spectra,
)
from rwrc.tail_law import TailLaw, cdf, sample
from rwrc.transforms import log_pair_sum_tail
from rwrc.variational import solve_L
from rwrc.walk import nonexit_mc


def test_assemble_single_site():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([2.0, 5.0]))
    op = assemble(f, dom)
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0] == 7.0


def test_assemble_two_sites():
    dom = build_domain([[0], [1]], 1)
    # canonical edge order: (-1,0), (0,1), (1,2)
    f = ConductanceField(dom, np.array([3.0, 2.0, 4.0]))
    op = assemble(f, dom)
    assert np.allclose(op.matrix, [[5.0, -2.0], [-2.0, 6.0]])
    assert np.allclose(op.matrix, op.matrix.T)


def test_assemble_domain_mismatch():
    f = ConductanceField(box_domain(1, 0), np.array([1.0, 1.0]))
    with pytest.raises(DomainMismatch):
        assemble(f, box_domain(1, 1))


def test_quadratic_form_is_dirichlet_rate():
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(3)
    for dom in (build_domain([[0], [1]], 1), box_domain(1, 1), box_domain(2, 1)):
        for _ in range(30):
            f = sample_field(law, dom, rng)
            op = assemble(f, dom)
            g = ProbabilityProfile.normalized(dom, rng.random(dom.n_sites) + 0.05)
            quad = float(g.values @ op.matrix @ g.values)
            assert quad == pytest.approx(dv_rate_I(f, g), rel=1e-12, abs=1e-12)


def reference_dirichlet_matrix(dom, w):
    # the operator scattered edge by edge: w at both diagonal ends, -w off it
    a = np.zeros((dom.n_sites, dom.n_sites))
    for e, (i, j) in enumerate(zip(dom.edge_a, dom.edge_b)):
        a[i, i] += w[e]
        if j >= 0:
            a[j, j] += w[e]
            a[i, j] = a[j, i] = -w[e]
    return a


# bit for bit where the product sums each diagonal in edge order; within
# 1e-15 relative where BLAS adds a site's incident weights in another order
DIRICHLET_DOMAINS = [
    ("box2d:1", box_domain(2, 1), 0.0),
    ("chain2", build_domain([[0], [1]], 1), 0.0),
    ("box2d:2", box_domain(2, 2), 1e-15),
    ("box3d:1", box_domain(3, 1), 1e-15),
]


@pytest.mark.parametrize(
    "dom,rel", [c[1:] for c in DIRICHLET_DOMAINS], ids=[c[0] for c in DIRICHLET_DOMAINS]
)
def test_dirichlet_matrix_matches_scatter_reference(dom, rel):
    rng = np.random.default_rng(12)
    for eta in (0.5, 1.0, 2.0):
        w = sample(TailLaw(eta, 1.0), rng, (20, dom.n_edges))
        stack = dirichlet_matrix(dom, w)
        assert stack.shape == (20, dom.n_sites, dom.n_sites)
        for row, got in zip(w, stack):
            # a stack gives each row's matrix bit for bit
            assert dirichlet_matrix(dom, row).tobytes() == got.tobytes()
            want = reference_dirichlet_matrix(dom, row)
            if rel == 0.0:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.all(np.abs(got - want) <= rel * np.abs(want))


def test_eigen_1x1():
    dom = box_domain(1, 0)
    lam, vec = eigen(assemble(ConductanceField(dom, np.array([1.5, 2.5])), dom))
    assert lam[0] == pytest.approx(4.0, rel=1e-14)
    assert abs(vec[0, 0]) == pytest.approx(1.0, rel=1e-14)


def test_eigen_2x2_hand_values():
    dom = build_domain([[0], [1]], 1)
    f = ConductanceField(dom, np.array([1.0, 1.0, 1.0]))
    lam, _ = eigen(assemble(f, dom))
    assert np.allclose(lam, [1.0, 3.0], rtol=1e-12)


def test_eigen_decomposition_invariants():
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(9)
    for dom in (box_domain(1, 2), box_domain(2, 1)):
        for _ in range(25):
            f = sample_field(law, dom, rng)
            op = assemble(f, dom)
            a = op.matrix
            assert np.array_equal(a, reference_dirichlet_matrix(dom, f.weights))
            lam, v = eigen(op)
            scale = np.linalg.norm(a)
            assert np.abs(a @ v - v * lam[None, :]).max() <= 1e-10 * scale
            assert np.allclose(v.T @ v, np.eye(dom.n_sites), atol=1e-10)
            assert lam.sum() == pytest.approx(np.trace(a), rel=1e-12)
            assert np.all(np.diff(lam) >= 0.0)
            assert lam[0] > 0


# box1d:1, the three-site chain started at an end, box2d:1
_PROPERTY_DOMAINS = (box_domain(1, 1), build_domain([[0], [1], [2]], 1), box_domain(2, 1))


@st.composite
def _fields(draw):
    dom = draw(st.sampled_from(_PROPERTY_DOMAINS))
    w = draw(st.lists(st.floats(0.05, 20.0), min_size=dom.n_edges, max_size=dom.n_edges))
    return ConductanceField(dom, np.array(w))


@settings(max_examples=40, deadline=None)
@given(f=_fields(), t1=st.floats(0.0, 20.0), dt=st.floats(0.0, 20.0))
def test_semigroup_in_unit_interval_and_nonincreasing(f, t1, dt):
    dom = f.domain
    p1 = semigroup_nonexit(f, dom, t1)
    p2 = semigroup_nonexit(f, dom, t1 + dt)
    assert 0.0 <= p2 <= 1.0 and 0.0 <= p1 <= 1.0
    assert p2 <= p1 + 1e-12


@settings(max_examples=40, deadline=None)
@given(f=_fields(), data=st.data())
def test_lambda1_nondecreasing_in_each_weight(f, data):
    dom = f.domain
    e = data.draw(st.integers(0, dom.n_edges - 1))
    factor = data.draw(st.floats(1.0, 50.0))
    raised = f.weights.copy()
    raised[e] *= factor
    op = assemble(f, dom)
    lam_raised = eigen(assemble(ConductanceField(dom, raised), dom))[0][0]
    assert lam_raised >= eigen(op)[0][0] - 1e-12 * np.linalg.norm(op.matrix)


def test_solve_takes_a_stack_and_maps_a_singular_matrix_to_nonconvergence():
    dom = box_domain(2, 1)
    w = np.random.default_rng(3).uniform(0.5, 2.0, (4, dom.n_edges))
    a = dirichlet_matrix(dom, w)
    b = np.random.default_rng(4).random((4, dom.n_sites, 1))
    x = solve(a, b)
    for k in range(4):
        assert np.allclose(a[k] @ x[k], b[k], rtol=0.0, atol=1e-12)
    with pytest.raises(NonConvergence, match="linear solve"):
        solve(np.zeros((2, 3, 3)), np.ones((2, 3, 1)))


def test_semigroup_values():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.0, 1.0]))
    assert semigroup_nonexit(f, dom, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert semigroup_nonexit(f, dom, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_semigroup_monotone_in_t():
    dom = box_domain(1, 1)
    f = sample_field(TailLaw(1.0, 1.0), dom, np.random.default_rng(12))
    ts = np.linspace(0.0, 6.0, 25)
    vals = [semigroup_nonexit(f, dom, t) for t in ts]
    assert np.all(np.diff(vals) <= 1e-14)


def test_semigroup_vs_mc():
    dom = build_domain([[0], [1]], 1)
    f = sample_field(TailLaw(1.0, 1.0), dom, np.random.default_rng(14))
    p = semigroup_nonexit(f, dom, 1.0)
    est, _ = nonexit_mc(f, dom, 1.0, 100_000, np.random.default_rng(15))
    se = math.sqrt(p * (1 - p) / 100_000)
    assert abs(est - p) <= 3 * se


def test_rayleigh_bound():
    dom = build_domain([[0], [1], [2]], 1)
    f = sample_field(TailLaw(1.0, 1.0), dom, np.random.default_rng(16))
    lam, _ = eigen(assemble(f, dom))
    g = solve_L(dom, 1.0).minimizer
    assert lam[0] <= dv_rate_I(f, g) + 1e-12


def test_sandwich_single_site_equalities():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.2, 0.7]))
    for t in (0.0, 1.0, 5.0):
        rep = sandwich_check(f, dom, t)
        assert rep["upper_margin"] == pytest.approx(0.0, abs=1e-14)
        assert rep["lower_margin"] == pytest.approx(0.0, abs=1e-14)
    rep0 = sandwich_check(f, dom, 0.0)
    assert rep0["p0"] == 1.0 and rep0["upper"] == 1.0


def test_sandwich_property():
    dom = build_domain([[0], [1]], 1)
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(18)
    for _ in range(100):
        f = sample_field(law, dom, rng)
        for t in (1.0, 10.0):
            rep = sandwich_check(f, dom, t)
            assert rep["upper_margin"] >= -1e-10
            assert rep["lower_margin"] >= -1e-10


def test_eigen_tail_quadrature():
    law = TailLaw(1.0, 1.0)
    dom = box_domain(1, 0)
    pts = eigen_tail(law, dom, [0.01], method="quadrature")
    # scaled tail heads to -D*L^(eta+1) = -4
    assert abs(pts[0].scaled_log - (-4.0)) <= 0.05 * 4.0
    probs = [p.prob for p in eigen_tail(law, dom, [0.1, 0.5, 1.0, 2.0], method="quadrature")]
    assert np.all(np.diff(probs) >= 0)


def test_eigen_tail_containment_bound():
    # P(lambda <= eps) >= P(both weights <= eps/2) = cdf(eps/2)^2
    law = TailLaw(1.0, 1.0)
    dom = box_domain(1, 0)
    for eps in (0.5, 1.0, 3.0):
        p = eigen_tail(law, dom, [eps], method="quadrature")[0].prob
        assert p >= cdf(law, eps / 2.0) ** 2


def test_eigen_tail_mc_vs_quadrature():
    law = TailLaw(1.0, 1.0)
    dom = box_domain(1, 0)
    n = 40_000
    pts = eigen_tail(law, dom, [0.8, 1.5], method="mc", n_fields=n, rng=np.random.default_rng(25))
    for pt in pts:
        exact = math.exp(log_pair_sum_tail(law, pt.eps))
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(pt.prob - exact) <= 3 * se
    probs = [p.prob for p in pts]
    assert np.all(np.diff(probs) >= 0)


def test_eigen_tail_mc_multisite():
    law = TailLaw(1.0, 1.0)
    dom = build_domain([[0], [1]], 1)
    pts = eigen_tail(law, dom, [0.5], method="mc", n_fields=4000, rng=np.random.default_rng(26))
    assert 0.0 <= pts[0].prob <= 1.0


def test_eigen_tail_quadrature_requires_single_site():
    with pytest.raises(UnsupportedDomain):
        eigen_tail(TailLaw(1.0, 1.0), build_domain([[0], [1]], 1), [0.1], method="quadrature")


# ---------------------------------------------------------------------------
# the weight-stack path against the per-field one


STACK_DOMAINS = [build_domain([[0], [1]], 1), box_domain(1, 1), box_domain(2, 1)]


def reference_nonexit(f: ConductanceField, dom, t: float) -> float:
    """One field at a time: one operator, one eigensolve and one scalar sum."""
    lam, vec = eigen(assemble(f, dom))
    val = float(np.sum(np.exp(-t * lam) * vec[dom.origin_index, :] * vec.sum(axis=0)))
    return min(max(val, 0.0), 1.0)


def rows_per_block(monkeypatch, dom, rows: int) -> None:
    monkeypatch.setattr(spectral, "_STACK_ELEMENTS", rows * dom.n_sites * dom.n_edges)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, len(STACK_DOMAINS) - 1),
    n=st.integers(1, 12),
    block=st.none() | st.integers(1, 5),
    eta=st.sampled_from([0.5, 1.0, 2.0]),
    t=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_matches_per_field_reference(k, n, block, eta, t, seed):
    dom = STACK_DOMAINS[k]
    w = sample(TailLaw(eta, 1.0), np.random.default_rng(seed), (n, dom.n_edges))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            rows_per_block(mp, dom, block)
        got = nonexit_stack(dom, w, t)
        lam1 = np.concatenate([lam[:, 0] for lam, _ in spectra(dom, w)])
    fields = [ConductanceField(dom, row) for row in w]
    ref = [reference_nonexit(f, dom, t) for f in fields]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
    ref_lam1 = [eigen(assemble(f, dom))[0][0] for f in fields]
    np.testing.assert_allclose(lam1, ref_lam1, rtol=1e-12, atol=0.0)


def test_stack_splits_into_blocks(monkeypatch):
    dom = box_domain(2, 1)
    w = sample(TailLaw(1.0, 1.0), np.random.default_rng(4), (10, dom.n_edges))
    whole = nonexit_stack(dom, w, 3.0)
    rows_per_block(monkeypatch, dom, 3)
    assert [lam.shape[0] for lam, _ in spectra(dom, w)] == [3, 3, 3, 1]
    assert np.array_equal(nonexit_stack(dom, w, 3.0), whole)
    assert nonexit_stack(dom, w[:0], 3.0).shape == (0,)


def raised_by(fn):
    with pytest.raises((FieldMismatch, NonPositiveWeight)) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("row", [0, 4, 9])
def test_stack_with_one_bad_row_raises_what_the_field_raises(monkeypatch, bad, row):
    dom = box_domain(1, 1)
    w = np.ones((10, dom.n_edges))
    w[row, 2] = bad
    want = raised_by(lambda: ConductanceField(dom, w[row]))
    assert want[0] is NonPositiveWeight
    assert raised_by(lambda: nonexit_stack(dom, w, 1.0)) == want
    rows_per_block(monkeypatch, dom, 3)  # the bad row in a later block
    assert raised_by(lambda: nonexit_stack(dom, w, 1.0)) == want


@pytest.mark.parametrize("m", [3, 5])
def test_stack_with_the_wrong_row_length_raises_what_the_field_raises(m):
    dom = box_domain(1, 1)  # 4 edges
    w = np.ones((6, m))
    want = raised_by(lambda: ConductanceField(dom, w[0]))
    assert want[0] is FieldMismatch
    assert raised_by(lambda: nonexit_stack(dom, w, 1.0)) == want
    with pytest.raises(FieldMismatch):
        nonexit_stack(dom, np.ones(dom.n_edges), 1.0)  # one field is a (1, m) stack
