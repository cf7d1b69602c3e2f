import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rwrc.conductance import ConductanceField, sample_field, site_totals
from rwrc.domain import box_domain, build_domain
from rwrc.spectral import semigroup_nonexit
from rwrc.tail_law import TailLaw
from rwrc.errors import ArgumentOutOfRange
from rwrc.walk import _simulate_batch, _walk_tables, nonexit_mc, occupation_mc, simulate


def two_site():
    return build_domain([[0], [1]], 1)


def test_zero_horizon():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.0, 1.0]))
    p = simulate(f, 0.0, np.random.default_rng(0))
    assert p.n_jumps == 0 and not p.exited
    occ = p.occupation
    assert occ.sum() == 0.0


def test_single_site_exit_time_mean():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.0, 3.0]))
    rng = np.random.default_rng(21)
    n = 100_000
    times = np.empty(n)
    right = 0
    for i in range(n):
        p = simulate(f, 1e9, rng)
        assert p.exited
        times[i] = p.exit_time
        if dom.edge_b_point[p.crossed[-1]].tolist() == [1]:
            right += 1
    # holding time ~ Exponential(4)
    mean, se = times.mean(), times.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 0.25) <= 3 * se
    # jump probability 3/4 to the right
    pr = right / n
    se_p = math.sqrt(0.75 * 0.25 / n)
    assert abs(pr - 0.75) <= 3 * se_p


def test_local_time_conservation():
    dom = two_site()
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(5)
    f = sample_field(law, dom, rng)
    t = 3.0
    for _ in range(500):
        p = simulate(f, t, rng)
        occ = p.occupation
        end = p.exit_time if p.exited else t
        assert abs(occ.sum() - end) <= 1e-12 * t
        assert np.all(occ >= 0)


def test_path_structure():
    dom = box_domain(1, 2)
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(8)
    f = sample_field(law, dom, rng)
    for _ in range(200):
        p = simulate(f, 5.0, rng)
        assert np.all(np.diff(p.jump_times) > 0)
        if p.n_jumps:
            assert p.jump_times[-1] <= p.end_time
        for a, b in zip(p.sites[:-1], p.sites[1:]):
            assert np.abs(dom.sites[a] - dom.sites[b]).sum() == 1
        if p.exited:
            assert dom.edge_b[p.crossed[-1]] == -1
            assert p.exit_time <= 5.0


def test_two_site_local_times_split():
    dom = two_site()
    f = ConductanceField(dom, np.array([0.01, 5.0, 0.01]))
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = simulate(f, 1.0, rng)
        if p.exited or p.n_jumps != 1:
            continue
        occ = p.occupation
        assert occ[p.sites[0]] == pytest.approx(p.jump_times[0], rel=1e-14)
        other = p.sites[1]
        assert occ[other] == pytest.approx(1.0 - p.jump_times[0], rel=1e-12)


def test_holding_time_ks():
    dom = two_site()
    f = ConductanceField(dom, np.array([0.7, 1.1, 0.4]))
    rate0 = 0.7 + 1.1
    rng = np.random.default_rng(13)
    holds = []
    for _ in range(4000):
        p = simulate(f, 1e9, rng)
        first = p.jump_times[0] if p.n_jumps else p.exit_time
        holds.append(first)
    res = stats.kstest(holds, stats.expon(scale=1.0 / rate0).cdf)
    assert res.pvalue > 0.01


def test_simulate_deterministic():
    dom = two_site()
    f = ConductanceField(dom, np.array([1.0, 2.0, 3.0]))
    a = simulate(f, 4.0, np.random.default_rng(77))
    b = simulate(f, 4.0, np.random.default_rng(77))
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.sites, b.sites)
    assert a.exited == b.exited and a.exit_time == b.exit_time


def test_nonexit_mc_single_site():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.0, 1.0]))
    est, se = nonexit_mc(f, 1.0, 100_000, np.random.default_rng(31))
    p = math.exp(-2.0)
    assert abs(est - p) <= 3 * math.sqrt(p * (1 - p) / 100_000)
    assert se == pytest.approx(math.sqrt(est * (1 - est) / 100_000), rel=1e-9)
    est0, se0 = nonexit_mc(f, 0.0, 100, np.random.default_rng(0))
    assert est0 == 1.0 and se0 == 0.0


def test_nonexit_mc_needs_two_trials():
    # the binomial standard error of one draw is 0.0, which would report it as exact
    dom = box_domain(1, 1)
    f = ConductanceField(dom, np.ones(dom.n_edges))
    for n in (1, 0):
        with pytest.raises(ArgumentOutOfRange):
            nonexit_mc(f, 1.0, n, np.random.default_rng(0))


def test_nonexit_mc_vs_semigroup():
    dom = two_site()
    law = TailLaw(1.0, 1.0)
    f = sample_field(law, dom, np.random.default_rng(19))
    p = semigroup_nonexit(f, 1.0)
    est, _ = nonexit_mc(f, 1.0, 100_000, np.random.default_rng(20))
    se = math.sqrt(p * (1 - p) / 100_000)
    assert abs(est - p) <= 3 * se


def test_occupation_mc_conservation():
    dom = two_site()
    law = TailLaw(1.0, 1.0)
    f = sample_field(law, dom, np.random.default_rng(23))
    t = 2.0
    exited, end_time, occ = occupation_mc(f, t, 5000, np.random.default_rng(24))
    assert np.all(np.abs(occ.sum(axis=1) - end_time) <= 1e-12 * t)
    assert np.all(end_time[~exited] == t)
    assert np.all(end_time[exited] < t)


def test_occupation_mc_matches_per_path_engine():
    dom = two_site()
    f = ConductanceField(dom, np.array([0.4, 0.9, 0.3]))
    t, n = 2.0, 30_000
    exited, _, occ = occupation_mc(f, t, n, np.random.default_rng(40))
    rng = np.random.default_rng(41)
    occ2 = np.empty((n, dom.n_sites))
    exited2 = np.empty(n, dtype=bool)
    for i in range(n):
        p = simulate(f, t, rng)
        occ2[i] = p.occupation
        exited2[i] = p.exited
    for z in range(dom.n_sites):
        m1, m2 = occ[:, z].mean(), occ2[:, z].mean()
        se = math.sqrt(occ[:, z].var(ddof=1) / n + occ2[:, z].var(ddof=1) / n)
        assert abs(m1 - m2) <= 3 * se
    p1, p2 = exited.mean(), exited2.mean()
    se_p = math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
    assert abs(p1 - p2) <= 3 * se_p


def test_scaling_identity_paired():
    # (1/t) l_t under omega has the law of (1/s) l_s under t^r omega, s = t^(1-r)
    dom = two_site()
    f = ConductanceField(dom, np.array([0.6, 0.8, 0.5]))
    t, r = 4.0, 0.5
    s = t ** (1 - r)
    f2 = ConductanceField(dom, t**r * f.weights)
    e1, et1, o1 = occupation_mc(f, t, 20_000, np.random.default_rng(42))
    e2, et2, o2 = occupation_mc(f2, s, 20_000, np.random.default_rng(42))
    assert np.array_equal(e1, e2)
    assert np.abs(o1 / t - o2 / s).max() == 0.0
    # independent streams: distributional agreement
    e3, _, o3 = occupation_mc(f2, s, 20_000, np.random.default_rng(43))
    for z in range(dom.n_sites):
        m1, m3 = (o1[:, z] / t).mean(), (o3[:, z] / s).mean()
        se = math.sqrt((o1[:, z] / t).var(ddof=1) / 20_000 + (o3[:, z] / s).var(ddof=1) / 20_000)
        assert abs(m1 - m3) <= 3 * se


def test_walk_tables_follow_field_weights():
    dom = box_domain(1, 0)
    w = np.array([2.0, 2.0])
    f = ConductanceField(dom, w)
    w[:] = 7.0  # the field keeps its own copy
    assert _walk_tables(f).rates[0] == 4.0
    with pytest.raises(ValueError):
        f.weights[:] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.weights = np.array([10.0, 10.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.domain = box_domain(1, 1)
    assert _walk_tables(ConductanceField(f.domain, 5.0 * f.weights)).rates[0] == 20.0
    assert _walk_tables(f).rates[0] == 4.0


def reference_simulate(f, dom, t, rng):
    """The per-path engine on numpy tables: searchsorted edge choice, numpy
    scalar reads, and local times from the differenced jump times."""
    rates = site_totals(f)
    cum = np.cumsum(f.weights[dom.site_edges] / rates[:, None], axis=1)
    cum[:, -1] = 1.0
    site = dom.origin_index
    now = 0.0
    jump_times, visited, jump_edges = [], [site], []
    exit_time = exit_edge = None
    while now < t:
        nxt = now + rng.standard_exponential() / rates[site]
        if nxt > t:
            break
        row = cum[site]
        k = int(np.searchsorted(row, rng.random(), side="right"))
        if k >= row.shape[0]:
            k = row.shape[0] - 1
        edge = int(dom.site_edges[site, k])
        target = int(dom.site_nbrs[site, k])
        now = nxt
        if target < 0:
            exit_time, exit_edge = now, edge
            break
        jump_times.append(now)
        visited.append(target)
        jump_edges.append(edge)
        site = target
    end = t if exit_edge is None else exit_time
    occ = np.zeros(dom.n_sites)
    np.add.at(occ, visited, np.diff(np.concatenate(([0.0], jump_times, [end]))))
    crossed = jump_edges + ([] if exit_edge is None else [exit_edge])
    return {
        "jump_times": np.asarray(jump_times, dtype=float),
        "sites": np.asarray(visited, dtype=np.int64),
        "exited": exit_edge is not None,
        "exit_time": exit_time,
        "occupation": occ,
        "crossed": np.asarray(crossed, dtype=np.int64),
    }


ENGINE_DOMAINS = {
    "box1d:0": box_domain(1, 0),
    "two-site": two_site(),
    "box1d:1": box_domain(1, 1),
    "box2d:1": box_domain(2, 1),
}
WEIGHTS = st.one_of(st.floats(1e-6, 3e-6), st.floats(0.05, 5.0))
HORIZONS = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(50.0, 2000.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(ENGINE_DOMAINS)),
    data=st.data(),
    t=HORIZONS,
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_matches_numpy_reference_bit_for_bit(name, data, t, seed):
    dom = ENGINE_DOMAINS[name]
    w = data.draw(st.lists(WEIGHTS, min_size=dom.n_edges, max_size=dom.n_edges))
    f = ConductanceField(dom, np.array(w))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        p = simulate(f, t, rng)
        ref = reference_simulate(f, dom, t, ref_rng)
        for key in ("jump_times", "sites", "occupation", "crossed"):
            got, want = getattr(p, key), ref[key]
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert np.all(got == want), key
        for key in ("exited", "exit_time"):
            assert getattr(p, key) == ref[key], key
        assert p.horizon == t
    assert rng.random() == ref_rng.random()


def reference_simulate_batch(f, dom, t, n, rng):
    """The lockstep engine on full-size arrays: an ``alive`` mask gathered and
    scattered every step, and the edge picked by argmax over the row."""
    tables = _walk_tables(f)
    rates, cum = tables.rates, tables.cum
    nbr = dom.site_nbrs
    cur = np.full(n, dom.origin_index, dtype=np.int64)
    now = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    exited = np.zeros(n, dtype=bool)
    end_time = np.full(n, float(t))
    occ = np.zeros((n, dom.n_sites))
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        r = rates[cur[idx]]
        dt = rng.standard_exponential(idx.size) / r
        t_new = now[idx] + dt
        over = t_new > t
        fin = idx[over]
        if fin.size:
            occ[fin, cur[fin]] += t - now[fin]
        alive[fin] = False
        mov = idx[~over]
        if mov.size == 0:
            continue
        occ[mov, cur[mov]] += dt[~over]
        now[mov] = t_new[~over]
        u = rng.random(mov.size)
        rows = cum[cur[mov]]
        k = (u[:, None] < rows).argmax(axis=1)
        target = nbr[cur[mov], k]
        out = target < 0
        exd = mov[out]
        exited[exd] = True
        end_time[exd] = now[exd]
        alive[exd] = False
        cur[mov[~out]] = target[~out]
    return exited, end_time, occ


BATCH_DOMAINS = {
    "two-site": two_site(),
    "box1d:1": box_domain(1, 1),
    "box2d:1": box_domain(2, 1),
    "box2d:2": box_domain(2, 2),
}


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("name", sorted(BATCH_DOMAINS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    data=st.data(),
    t=st.one_of(st.just(0.0), st.floats(1e-3, 0.5), st.just(16.0)),
    faint_site=st.one_of(st.none(), st.integers(0, 24)),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_engine_matches_reference_bit_for_bit(
    name, data, t, n, faint_site, seed
):
    dom = BATCH_DOMAINS[name]
    w = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=dom.n_edges, max_size=dom.n_edges)))
    if faint_site is not None:
        # the site's last incident edge carries about 1e-300 of its rate, so the
        # row's second-to-last cumulative entry rounds to 1.0 and counting the
        # columns at or below the draw meets the row's end
        site = faint_site % dom.n_sites
        w[dom.site_edges[site, -1]] *= 1e-300
    f = ConductanceField(dom, w)
    if faint_site is not None:
        assert abs(_walk_tables(f).cum[site, -2] - 1.0) <= 4e-16
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    exited, end_time, occ = _simulate_batch(f, t, n=n, rng=rng)
    want_exited, want_end, want_occ = reference_simulate_batch(f, dom, t, n, ref_rng)
    assert exited.dtype == want_exited.dtype and np.array_equal(exited, want_exited)
    assert end_time.dtype == want_end.dtype and np.all(end_time == want_end)
    assert occ.shape == want_occ.shape and np.all(occ == want_occ)
    assert rng.random() == ref_rng.random()
