"""End-to-end checks, one per shipped guarantee.

Each test prints a single PASS/FAIL verdict line (the suite runs with
tee-sys capture so the lines reach the log) and enforces its own wall-time
budget.  Tolerances are stated inline next to the quantities they bound.
"""

import time

import numpy as np

from rwrc.conductance import ConductanceField, sample_field
from rwrc.domain import box_domain, build_domain
from rwrc.experiments import annealed_nonexit_quadrature, tauberian_check
from rwrc.girsanov import comparison_bound_check, girsanov_log_density
from rwrc.rates import check_infimum_identity
from rwrc.spectral import eigen_tail, sandwich_check, semigroup_nonexit
from rwrc.tail_law import TailLaw
from rwrc.variational import brute_force_L, solve_L
from rwrc.walk import nonexit_mc, occupation_mc, simulate

LAW11 = TailLaw(1.0, 1.0)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def chain(n):
    return build_domain([(i,) for i in range(n)], 1)


def test_acceptance_1_nonexit_constant():
    start = time.monotonic()
    est = annealed_nonexit_quadrature(LAW11, 1e8)
    elapsed = time.monotonic() - start
    err = abs(est.rescaled - (-4.0)) / 4.0
    ok = err <= 0.02 and elapsed < 1.0
    _report(1, ok, f"rescaled log non-exit {est.rescaled:.6f} vs -4, rel err {err:.3%}, {elapsed:.2f}s")


def test_acceptance_2_laplace_tail_identity():
    start = time.monotonic()
    errs = []
    for m in (1.0, 4.0):
        pt = tauberian_check(LAW11, m, [1e4])[0]
        target = -2.0 * np.sqrt(m)
        errs.append(abs(pt.value - target) / abs(target))
    elapsed = time.monotonic() - start
    ok = max(errs) <= 0.02 and elapsed < 1.0
    _report(2, ok, f"scaled log averages off by {errs[0]:.3%} (M=1), {errs[1]:.3%} (M=4), {elapsed:.2f}s")


def test_acceptance_3_eigenvalue_lower_tail():
    start = time.monotonic()
    pt = eigen_tail(LAW11, box_domain(1, 0), [0.01])[0]
    elapsed = time.monotonic() - start
    err = abs(pt.scaled_log - (-4.0)) / 4.0
    ok = err <= 0.05 and elapsed < 1.0
    _report(3, ok, f"eps^eta * log P = {pt.scaled_log:.4f} vs -4, rel err {err:.3%}, {elapsed:.2f}s")


def test_acceptance_4_variational_certification():
    start = time.monotonic()
    domains = [box_domain(1, 0), chain(2), chain(3), box_domain(2, 0)]
    worst = 0.0
    for dom in domains:
        for eta in (0.5, 1.0, 2.0):
            solved = solve_L(dom, eta).value
            brute = brute_force_L(dom, eta).value
            worst = max(worst, abs(solved - brute))
    two_site = abs(solve_L(chain(2), 1.0).value - np.sqrt(2.0))
    exact_single = (
        solve_L(box_domain(1, 0), 1.0).value == 2.0
        and solve_L(box_domain(2, 0), 1.0).value == 4.0
    )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and two_site <= 1e-3 and exact_single and elapsed < 30.0
    _report(
        4,
        ok,
        f"max |solve - brute| {worst:.2e}, sqrt(2) gap {two_site:.2e}, "
        f"single-site exact {exact_single}, {elapsed:.1f}s",
    )


def test_acceptance_5_reweighting_normalization():
    start = time.monotonic()
    dom = chain(2)
    rng = np.random.default_rng(55)
    psi = ConductanceField(dom, np.ones(dom.n_edges))
    phi = ConductanceField(dom, 0.5 + 1.5 * rng.random(dom.n_edges))
    chi = ConductanceField(dom, 0.5 + 1.5 * rng.random(dom.n_edges))
    n = 100_000
    t = 1.0
    vals = np.empty(n)
    cocycle = 0.0
    antisym = 0.0
    for i in range(n):
        p = simulate(psi, t, rng)
        lp = girsanov_log_density(p, phi, psi)
        vals[i] = np.exp(lp)
        cocycle = max(cocycle, abs(lp + girsanov_log_density(p, chi, phi) - girsanov_log_density(p, chi, psi)))
        antisym = max(antisym, abs(lp + girsanov_log_density(p, psi, phi)))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n))
    z = (mean - 1.0) / se
    elapsed = time.monotonic() - start
    ok = abs(z) <= 3.0 and cocycle <= 1e-12 and antisym <= 1e-12 and elapsed < 30.0
    _report(
        5,
        ok,
        f"mean density {mean:.5f} (z={z:.2f}), cocycle {cocycle:.1e}, "
        f"antisymmetry {antisym:.1e} over {n} paths, {elapsed:.1f}s",
    )


def test_acceptance_6_band_comparison_bound():
    start = time.monotonic()
    dom = chain(2)
    psi = ConductanceField(dom, np.ones(dom.n_edges))
    res = comparison_bound_check(psi, 0.1, 1.0, 100, np.random.default_rng(66), method="exact")
    elapsed = time.monotonic() - start
    ok = res["violations"] == 0 and res["ok"] and elapsed < 10.0
    _report(
        6,
        ok,
        f"{res['n_fields']} fields, min margin {res['min_margin']:.3e} vs factor "
        f"{res['factor']:.4f}, violations {res['violations']}, {elapsed:.1f}s",
    )


def test_acceptance_7_eigenvalue_sandwich():
    start = time.monotonic()
    dom = chain(2)
    rng = np.random.default_rng(77)
    worst = np.inf
    for _ in range(100):
        f = sample_field(LAW11, dom, rng)
        for t in (1.0, 10.0):
            res = sandwich_check(f, t)
            worst = min(worst, res["upper_margin"], res["lower_margin"])
    elapsed = time.monotonic() - start
    ok = worst >= -1e-10 and elapsed < 10.0
    _report(7, ok, f"smallest sandwich margin {worst:.3e} over 100 fields at t in (1, 10), {elapsed:.1f}s")


def test_acceptance_8_rate_optimality():
    start = time.monotonic()
    dom = chain(3)
    g = solve_L(dom, 1.0).minimizer
    rng = np.random.default_rng(88)
    phis = [sample_field(LAW11, dom, rng) for _ in range(1000)]
    res = check_infimum_identity(g, LAW11, phis)
    elapsed = time.monotonic() - start
    ok = res["max_violation"] <= 1e-10 and res["equality_gap"] <= 1e-10 and elapsed < 5.0
    _report(
        8,
        ok,
        f"max J - (I+H) = {res['max_violation']:.2e} over 1000 fields, "
        f"optimality gap {res['equality_gap']:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_9_simulator_cross_validation():
    start = time.monotonic()
    dom = chain(2)
    field_rng = np.random.default_rng(101)
    n = 100_000
    t = 1.0
    worst_z = 0.0
    worst_cons = 0.0
    for k in range(10):
        f = sample_field(LAW11, dom, field_rng)
        p_exact = semigroup_nonexit(f, t)
        p_hat, _ = nonexit_mc(f, t, n, np.random.default_rng(101000 + k))
        se = np.sqrt(p_exact * (1.0 - p_exact) / n)
        worst_z = max(worst_z, abs(p_hat - p_exact) / se)
        exited, end_time, occ = occupation_mc(f, t, n, np.random.default_rng(201000 + k))
        worst_cons = max(worst_cons, float(np.max(np.abs(occ.sum(axis=1) - end_time))))
    elapsed = time.monotonic() - start
    ok = worst_z <= 3.0 and worst_cons <= 1e-12 * t and elapsed < 60.0
    _report(
        9,
        ok,
        f"worst |z| {worst_z:.2f} over 10 fields x {n} trials, "
        f"worst occupation drift {worst_cons:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_10_scaling_identity():
    start = time.monotonic()
    dom = chain(2)
    w = np.array([0.6, 0.8, 0.5])
    t, r = 4.0, 0.5
    f1 = ConductanceField(dom, w)
    f2 = ConductanceField(dom, t**r * w)
    s = t ** (1.0 - r)
    n = 100_000

    ex1, _, occ1 = occupation_mc(f1, t, n, np.random.default_rng(42))
    ex2, _, occ2 = occupation_mc(f2, s, n, np.random.default_rng(42))
    paired_exact = bool(np.array_equal(ex1, ex2)) and float(np.max(np.abs(occ1 / t - occ2 / s))) == 0.0

    ex3, _, occ3 = occupation_mc(f2, s, n, np.random.default_rng(43))
    p1, p3 = float(np.mean(~ex1)), float(np.mean(~ex3))
    se = np.sqrt(p1 * (1 - p1) / n + p3 * (1 - p3) / n)
    freq_ok = abs(p1 - p3) <= 3.0 * se
    m1, m3 = occ1.mean(axis=0) / t, occ3.mean(axis=0) / s
    se_occ = np.sqrt(occ1.std(axis=0, ddof=1) ** 2 / t**2 + occ3.std(axis=0, ddof=1) ** 2 / s**2) / np.sqrt(n)
    occ_ok = bool(np.all(np.abs(m1 - m3) <= 3.0 * se_occ))
    elapsed = time.monotonic() - start
    ok = paired_exact and freq_ok and occ_ok and elapsed < 60.0
    _report(
        10,
        ok,
        f"paired run identical {paired_exact}, independent-run gaps "
        f"{abs(p1 - p3):.2e} (freq) / {float(np.max(np.abs(m1 - m3))):.2e} (occupation) within 3 SE, {elapsed:.1f}s",
    )
