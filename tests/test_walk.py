import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from rwrc.conductance import ConductanceField, sample_field, scale_field
from rwrc.domain import box_domain, build_domain
from rwrc.spectral import semigroup_nonexit
from rwrc.tail_law import TailLaw
from rwrc.walk import _walk_tables, local_times, nonexit_mc, occupation_mc, simulate


def two_site():
    return build_domain([[0], [1]], 1)


def test_zero_horizon():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.0, 1.0]))
    p = simulate(f, dom, 0.0, np.random.default_rng(0))
    assert p.n_jumps == 0 and not p.exited
    occ = local_times(p)
    assert occ.sum() == 0.0


def test_single_site_exit_time_mean():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.0, 3.0]))
    rng = np.random.default_rng(21)
    n = 100_000
    times = np.empty(n)
    right = 0
    for i in range(n):
        p = simulate(f, dom, 1e9, rng)
        assert p.exited
        times[i] = p.exit_time
        if p.exit_point == (1,):
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
        p = simulate(f, dom, t, rng)
        occ = local_times(p)
        end = p.exit_time if p.exited else t
        assert abs(occ.sum() - end) <= 1e-12 * t
        assert np.all(occ >= 0)


def test_path_structure():
    dom = box_domain(1, 2)
    law = TailLaw(1.0, 1.0)
    rng = np.random.default_rng(8)
    f = sample_field(law, dom, rng)
    for _ in range(200):
        p = simulate(f, dom, 5.0, rng)
        assert np.all(np.diff(p.jump_times) > 0)
        if p.n_jumps:
            assert p.jump_times[-1] <= p.end_time
        for a, b in zip(p.sites[:-1], p.sites[1:]):
            assert np.abs(dom.sites[a] - dom.sites[b]).sum() == 1
        if p.exited:
            assert p.exit_edge is not None and p.exit_point is not None
            assert p.exit_time <= 5.0


def test_two_site_local_times_split():
    dom = two_site()
    f = ConductanceField(dom, np.array([0.01, 5.0, 0.01]))
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = simulate(f, dom, 1.0, rng)
        if p.exited or p.n_jumps != 1:
            continue
        occ = local_times(p)
        assert occ[p.start] == pytest.approx(p.jump_times[0], rel=1e-14)
        other = p.sites[1]
        assert occ[other] == pytest.approx(1.0 - p.jump_times[0], rel=1e-12)


def test_holding_time_ks():
    dom = two_site()
    f = ConductanceField(dom, np.array([0.7, 1.1, 0.4]))
    rate0 = 0.7 + 1.1
    rng = np.random.default_rng(13)
    holds = []
    for _ in range(4000):
        p = simulate(f, dom, 1e9, rng)
        first = p.jump_times[0] if p.n_jumps else p.exit_time
        holds.append(first)
    res = stats.kstest(holds, stats.expon(scale=1.0 / rate0).cdf)
    assert res.pvalue > 0.01


def test_simulate_deterministic():
    dom = two_site()
    f = ConductanceField(dom, np.array([1.0, 2.0, 3.0]))
    a = simulate(f, dom, 4.0, np.random.default_rng(77))
    b = simulate(f, dom, 4.0, np.random.default_rng(77))
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.sites, b.sites)
    assert a.exited == b.exited and a.exit_time == b.exit_time


def test_nonexit_mc_single_site():
    dom = box_domain(1, 0)
    f = ConductanceField(dom, np.array([1.0, 1.0]))
    est, se = nonexit_mc(f, dom, 1.0, 100_000, np.random.default_rng(31))
    p = math.exp(-2.0)
    assert abs(est - p) <= 3 * math.sqrt(p * (1 - p) / 100_000)
    assert se == pytest.approx(math.sqrt(est * (1 - est) / 100_000), rel=1e-9)
    est0, se0 = nonexit_mc(f, dom, 0.0, 100, np.random.default_rng(0))
    assert est0 == 1.0 and se0 == 0.0


def test_nonexit_mc_vs_semigroup():
    dom = two_site()
    law = TailLaw(1.0, 1.0)
    f = sample_field(law, dom, np.random.default_rng(19))
    p = semigroup_nonexit(f, dom, 1.0)
    est, _ = nonexit_mc(f, dom, 1.0, 100_000, np.random.default_rng(20))
    se = math.sqrt(p * (1 - p) / 100_000)
    assert abs(est - p) <= 3 * se


def test_occupation_mc_conservation():
    dom = two_site()
    law = TailLaw(1.0, 1.0)
    f = sample_field(law, dom, np.random.default_rng(23))
    t = 2.0
    exited, end_time, occ = occupation_mc(f, dom, t, 5000, np.random.default_rng(24))
    assert np.all(np.abs(occ.sum(axis=1) - end_time) <= 1e-12 * t)
    assert np.all(end_time[~exited] == t)
    assert np.all(end_time[exited] < t)


def test_occupation_mc_matches_per_path_engine():
    dom = two_site()
    f = ConductanceField(dom, np.array([0.4, 0.9, 0.3]))
    t, n = 2.0, 30_000
    exited, _, occ = occupation_mc(f, dom, t, n, np.random.default_rng(40))
    rng = np.random.default_rng(41)
    occ2 = np.empty((n, dom.n_sites))
    exited2 = np.empty(n, dtype=bool)
    for i in range(n):
        p = simulate(f, dom, t, rng)
        occ2[i] = local_times(p)
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
    from rwrc.conductance import scale_field

    f2 = scale_field(f, t**r)
    e1, et1, o1 = occupation_mc(f, dom, t, 20_000, np.random.default_rng(42))
    e2, et2, o2 = occupation_mc(f2, dom, s, 20_000, np.random.default_rng(42))
    assert np.array_equal(e1, e2)
    assert np.abs(o1 / t - o2 / s).max() == 0.0
    # independent streams: distributional agreement
    e3, _, o3 = occupation_mc(f2, dom, s, 20_000, np.random.default_rng(43))
    for z in range(dom.n_sites):
        m1, m3 = (o1[:, z] / t).mean(), (o3[:, z] / s).mean()
        se = math.sqrt((o1[:, z] / t).var(ddof=1) / 20_000 + (o3[:, z] / s).var(ddof=1) / 20_000)
        assert abs(m1 - m3) <= 3 * se


def test_walk_tables_follow_field_weights():
    dom = box_domain(1, 0)
    w = np.array([2.0, 2.0])
    f = ConductanceField(dom, w)
    w[:] = 7.0  # the field keeps its own copy
    rates, _ = _walk_tables(f)
    assert rates[0] == 4.0
    with pytest.raises(ValueError):
        f.weights[:] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.weights = np.array([10.0, 10.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.domain = box_domain(1, 1)
    assert _walk_tables(scale_field(f, 5.0))[0][0] == 20.0
    assert _walk_tables(f)[0][0] == 4.0
