"""Experiment drivers: annealed estimators, asymptotic checks, command line.

Annealed quantities average over the conductance law.  The single-site
non-exit average and the Laplace-transform identity are evaluated by
log-domain quadrature; general domains use plain Monte Carlo over prior
fields or importance sampling with per-edge scale-tilted proposals whose
medians track the time-rescaled optimal environment shape.  Inside the
annealed estimators quenched non-exit probabilities are always spectral,
never path Monte Carlo.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import os
import re
import sys
import time as _time
from dataclasses import dataclass

import numpy as np

from .conductance import ConductanceField, field_to_json, optimal_profile, sample_field
from .domain import Domain, box_domain, build_domain, domains_equal
from .errors import (
    ArgumentOutOfRange,
    DegenerateWeights,
    DomainMismatch,
    DomainTooLarge,
    NonConvergence,
    RwrcError,
    UnsupportedDomain,
    require_count,
    require_positive,
    require_time,
)
from .girsanov import girsanov_log_density
from .profiles import ProbabilityProfile
from .rates import joint_rate_J, k_const
from .spectral import eigen_tail, nonexit_stack
from .tail_law import TailLaw, log_density, quantile, sample
from .transforms import log_laplace_transform
from .variational import brute_force_L, solve_L
from .walk import occupation_mc, simulate


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    domain: dict
    eta: float
    dcoef: float
    times: list
    trials: int
    inner_trials: int
    deltas: list
    seed: int | None
    out: str | None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        spec = _mapping(doc.get("law", {}), "law")
        law = TailLaw(_real(spec.get("eta", 1.0), "eta"), _real(spec.get("D", 1.0), "D"))
        times = [require_time(t) for t in _number_list(doc.get("times", [1.0]), "times")]
        if not times:
            raise ArgumentOutOfRange("the time grid is empty")
        deltas = _number_list(doc.get("deltas", [0.4, 0.2]), "deltas")
        if not deltas:
            raise ArgumentOutOfRange("the delta grid is empty")
        deltas = sorted((require_positive(x, "delta") for x in deltas), reverse=True)
        seed, out = doc.get("seed"), doc.get("out")
        if not (out is None or isinstance(out, str)):
            raise ArgumentOutOfRange(f"out must be a path, got {out!r}")
        domain = _mapping(doc.get("domain", {"type": "box", "d": 1, "half_width": 0}), "domain")
        return cls(
            domain=dict(domain),
            eta=law.eta,
            dcoef=law.dcoef,
            times=times,
            trials=require_count(doc.get("trials", 10000), 1, "trials"),
            inner_trials=require_count(doc.get("inner_trials", 200), 1, "inner_trials"),
            deltas=deltas,
            seed=None if seed is None else require_count(seed, 0, "seed"),
            out=out,
        )

    def to_dict(self) -> dict:
        return {
            "domain": dict(self.domain),
            "law": {"eta": self.eta, "D": self.dcoef},
            "times": list(self.times),
            "trials": self.trials,
            "inner_trials": self.inner_trials,
            "deltas": list(self.deltas),
            "seed": self.seed,
            "out": self.out,
        }

    def law(self) -> TailLaw:
        return TailLaw(self.eta, self.dcoef)

    def build_domain(self) -> Domain:
        return domain_from_spec(self.domain)


def _number_list(value, key: str) -> list:
    """A grid read from a config: a list of real numbers, returned as floats."""
    if not isinstance(value, (list, tuple)):
        raise ArgumentOutOfRange(f"{key} must be a list of numbers, got {value!r}")
    return [_real(x, f"{key}[{i}]") for i, x in enumerate(value)]


def _real(value, key: str) -> float:
    """A real number read from a config (not a bool), returned as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ArgumentOutOfRange(f"{key} must be a number, got {value!r}")
    return float(value)


def _mapping(value, key: str) -> dict:
    """A section read from a config: a JSON object."""
    if not isinstance(value, dict):
        raise ArgumentOutOfRange(f"{key} must be a JSON object, got {value!r}")
    return value


def _parse_grid(text: str, flag: str) -> list:
    """A comma-separated grid from the command line; empty items are skipped."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ArgumentOutOfRange(f"cannot parse {flag} {text!r} as numbers") from None


def domain_from_spec(spec: dict) -> Domain:
    kind = spec.get("type", "box")
    if kind == "box":
        return box_domain(spec.get("d", 1), spec.get("half_width", 0))
    if kind == "sites":
        return build_domain(spec["sites"], spec["d"])
    raise UnsupportedDomain(f"unknown domain type {kind!r}")


def parse_domain_arg(text: str) -> dict:
    m = re.fullmatch(r"box(\d+)d:(\d+)", text.strip())
    if not m:
        raise ArgumentOutOfRange(f"cannot parse domain {text!r}, expected e.g. box1d:2")
    return {"type": "box", "d": int(m.group(1)), "half_width": int(m.group(2))}


# ---------------------------------------------------------------------------
# annealed estimators


@dataclass
class AnnealedEstimate:
    t: float
    estimate: float
    se: float
    log_estimate: float
    rescaled: float      # t**(-eta/(eta+1)) * log estimate
    method: str
    rel_se: float = 0.0
    ess: float | None = None


def _rescale(law: TailLaw, t: float, log_est: float) -> float:
    if t == 0.0:
        return 0.0
    return float(t ** (-law.eta / (law.eta + 1.0)) * log_est)


def annealed_nonexit_quadrature(law: TailLaw, t: float) -> AnnealedEstimate:
    """Exact annealed non-exit average for the single-site domain in d=1.

    The average factorizes over the two boundary edges, so it is the squared
    Laplace transform of one conductance at argument t.
    """
    t = require_time(t)
    log_est = 2.0 * log_laplace_transform(law, t)
    return AnnealedEstimate(
        t=t,
        estimate=float(np.exp(log_est)),
        se=0.0,
        log_estimate=log_est,
        rescaled=_rescale(law, t, log_est),
        method="quadrature",
    )


def annealed_nonexit_mc(config: ExperimentConfig) -> list[AnnealedEstimate]:
    """Plain Monte Carlo: prior fields, spectral inner probability."""
    require_count(config.trials, 2, "trials")
    dom = config.build_domain()
    law = config.law()
    rng = _require_rng(config)
    out = []
    for t in config.times:
        probs = nonexit_stack(dom, sample(law, rng, (config.trials, dom.n_edges)), t)
        est = float(np.mean(probs))
        se = float(np.std(probs, ddof=1) / np.sqrt(config.trials))
        log_est = float(np.log(est)) if est > 0 else float("-inf")
        out.append(
            AnnealedEstimate(
                t=float(t),
                estimate=est,
                se=se,
                log_estimate=log_est,
                rescaled=_rescale(law, float(t), log_est),
                method="mc",
                rel_se=se / est if est > 0 else float("nan"),
            )
        )
    return out


def _tilt_scales(g: ProbabilityProfile, law: TailLaw, t: float) -> np.ndarray:
    """Per-edge proposal scales: the proposal median tracks t**-r times the
    optimal environment shape, r = 1/(1+eta), and edges with no profile
    increment are capped at t**r times the median, so they stay untilted."""
    r = 1.0 / (1.0 + law.eta)
    med = float(quantile(law, 0.5))
    cap = float(t**r) * med
    target = float(t) ** (-r) * optimal_profile(g, law, cap=cap).weights
    return target / med


def _sample_tilted(
    law: TailLaw, scales: np.ndarray, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw fields from the scale-tilted proposal; return them with log weights."""
    x = sample(law, rng, (n, scales.shape[0])) * scales[None, :]
    log_prior = np.asarray(log_density(law, x)).sum(axis=1)
    log_prop = (np.asarray(log_density(law, x / scales[None, :])) - np.log(scales)[None, :]).sum(
        axis=1
    )
    return x, log_prior - log_prop


def _log_weighted_mean(logterm: np.ndarray) -> tuple[float, float]:
    """Log of the mean of exp(logterm), over at least two terms, and the
    relative standard error."""
    n = logterm.shape[0]
    finite = np.isfinite(logterm)
    if not finite.any():
        return float("-inf"), float("nan")
    shift = float(logterm[finite].max())
    y = np.where(finite, np.exp(logterm - shift), 0.0)
    mean_y = float(np.mean(y))
    sd_y = float(np.std(y, ddof=1))
    return shift + float(np.log(mean_y)), sd_y / (mean_y * np.sqrt(n))


def _ess(logw: np.ndarray) -> float:
    lw = logw - logw.max()
    w = np.exp(lw)
    return float(w.sum() ** 2 / np.sum(w * w))


def annealed_nonexit_is(config: ExperimentConfig) -> list[AnnealedEstimate]:
    """Importance sampling with tilted fields, spectral inner probability."""
    require_count(config.trials, 2, "trials")
    dom = config.build_domain()
    law = config.law()
    rng = _require_rng(config)
    g_star = solve_L(dom, law.eta).minimizer
    out = []
    for t in config.times:
        if t == 0.0:
            out.append(AnnealedEstimate(0.0, 1.0, 0.0, 0.0, 0.0, "is", 0.0, float(config.trials)))
            continue
        scales = _tilt_scales(g_star, law, t)
        x, logw = _sample_tilted(law, scales, config.trials, rng)
        ess = _ess(logw)
        if ess < 10.0:
            raise DegenerateWeights(f"effective sample size {ess:.2f} is below 10")
        with np.errstate(divide="ignore"):  # -inf where p = 0
            logp = np.log(nonexit_stack(dom, x, t))
        integrand_ess = _ess(logw + logp)
        # not >= rather than <: a nan from all -inf terms fails the gate too
        if not integrand_ess >= 10.0:
            raise DegenerateWeights(
                f"integrand effective sample size {integrand_ess:.2f} is below 10"
            )
        log_est, rel_se = _log_weighted_mean(logw + logp)
        est = float(np.exp(log_est))
        out.append(
            AnnealedEstimate(
                t=float(t),
                estimate=est,
                se=est * rel_se,
                log_estimate=log_est,
                rescaled=_rescale(law, float(t), log_est),
                method="is",
                rel_se=rel_se,
                ess=ess,
            )
        )
    return out


# ---------------------------------------------------------------------------
# asymptotic identities


@dataclass
class TauberianPoint:
    t: float
    value: float     # (1/t) log E exp(-t**((1+eta)/eta) * M * w)
    target: float    # -k_const * M**(eta/(1+eta))


def tauberian_check(law: TailLaw, m_const: float, t_list) -> list[TauberianPoint]:
    """Laplace-transform form of the lower-tail assumption along a time grid."""
    m_const = require_positive(m_const, "M")
    target = float(-k_const(law) * m_const ** (law.eta / (1.0 + law.eta)))
    points = []
    for t in t_list:
        t = require_positive(t, "time")
        try:
            s = t ** ((1.0 + law.eta) / law.eta) * m_const
        except OverflowError:
            raise ArgumentOutOfRange(f"t**((1+eta)/eta) overflows at t = {t:g}") from None
        val = log_laplace_transform(law, s) / t
        points.append(TauberianPoint(t, float(val), target))
    return points


def ldp_point_check(config: ExperimentConfig, g: ProbabilityProfile) -> dict:
    """Annealed probability of tracking the occupation profile g.

    Estimates the average over environments of the probability that the walk
    survives to time t with normalized occupation within delta of g**2, by
    tilted-field importance sampling with an inner path Monte Carlo.  Reports
    rescaled values against the joint rate and checks the lower-bound side
    within the empirical delta slack: the gap between the widest delta and
    the narrowest one that any walker landed within.  A delta with no hits
    keeps its row, with a log-estimate of -inf.
    """
    require_count(config.trials, 2, "trials")
    dom = config.build_domain()
    if dom.n_sites > 3:
        raise DomainTooLarge("profile tracking check supports at most 3 sites")
    if g.domain is not dom and not domains_equal(g.domain, dom):
        raise DomainMismatch("profile domain does not match the config domain")
    law = config.law()
    rng = _require_rng(config)
    j_val = joint_rate_J(g, law)
    g2 = g.measure()
    q = law.eta / (law.eta + 1.0)
    deltas = config.deltas
    rows = []
    by_time = []
    ok_all = True
    for t in config.times:
        scales = _tilt_scales(g, law, t)
        x, logw = _sample_tilted(law, scales, config.trials, rng)
        ess = _ess(logw)
        fracs = np.zeros((len(deltas), config.trials))
        for i in range(config.trials):
            f = ConductanceField(dom, x[i])
            exited, _, occ = occupation_mc(f, dom, t, config.inner_trials, rng)
            dist = np.linalg.norm(occ / t - g2[None, :], axis=1)
            for k, delta in enumerate(deltas):
                fracs[k, i] = np.mean(~exited & (dist <= delta))
        rescaled = {}
        for k, delta in enumerate(deltas):
            with np.errstate(divide="ignore"):
                log_frac = np.log(fracs[k])
            log_est, rel_se = _log_weighted_mean(logw + log_frac)
            resc = float(t ** (-q) * log_est)
            rescaled[delta] = (resc, rel_se)
            rows.append(
                {
                    "t": float(t),
                    "delta": float(delta),
                    "log_estimate": float(log_est),
                    "rescaled": resc,
                    "rel_se": float(rel_se),
                }
            )
        resc_big, rel_se_big = rescaled[deltas[0]]
        # the slack comes from the narrowest delta that any walker landed within:
        # an empty one has a -inf row and would make the slack inf
        hit = [rescaled[d][0] for d in deltas if np.isfinite(rescaled[d][0])]
        slack = abs(resc_big - hit[-1]) if hit else 0.0
        tol = 3.0 * t ** (-q) * (rel_se_big if np.isfinite(rel_se_big) else 0.0)
        ok = bool(resc_big >= -j_val - slack - tol)
        ok_all = ok_all and ok
        by_time.append(
            {"t": float(t), "slack": float(slack), "rescaled": float(resc_big), "ess": ess, "ok": ok}
        )
    return {
        "rate_value": float(j_val),
        "profile": g.values.tolist(),
        "deltas": [float(d) for d in deltas],
        "rows": rows,
        "by_time": by_time,
        "lower_bound_ok": bool(ok_all),
    }


# ---------------------------------------------------------------------------
# command line


def _require_rng(config: ExperimentConfig) -> np.random.Generator:
    if config.seed is None:
        raise ArgumentOutOfRange("a seed is required for stochastic estimation")
    return np.random.default_rng(config.seed)


def _run_sample_field(args, config: ExperimentConfig, law: TailLaw):
    dom = config.build_domain()
    f = sample_field(law, dom, _require_rng(config))
    status = f"sample-field: {dom.n_edges} weights"
    return "field.json", field_to_json(f), {"n_edges": dom.n_edges}, status, 0


def _run_simulate(args, config: ExperimentConfig, law: TailLaw):
    dom = config.build_domain()
    rng = _require_rng(config)
    f = sample_field(law, dom, rng)
    t = config.times[0]
    p = simulate(f, dom, t, rng)
    header = ["step", "time"] + [f"x{i}" for i in range(dom.d)]
    rows = [header, [0, 0.0, *dom.site_tuple(dom.origin_index)]]
    for i in range(p.n_jumps):
        rows.append([i + 1, p.jump_times[i], *dom.site_tuple(int(p.sites[i + 1]))])
    if p.exited:
        rows.append([p.n_jumps + 1, p.exit_time, *dom.edges[p.crossed[-1]].b_point])
    status = f"exited at {p.exit_time:.6g}" if p.exited else f"survived to {t:g}"
    status = f"simulate: {p.n_jumps} jumps, {status}"
    return "path.csv", rows, {"exited": p.exited, "jumps": p.n_jumps}, status, 0


def _run_solve_variational(args, config: ExperimentConfig, law: TailLaw):
    dom = config.build_domain()
    res = solve_L(dom, law.eta)
    doc = {
        "L": res.value,
        "minimizer": res.minimizer.values.tolist(),
        "minimizers": [m.tolist() for m in res.minimizers],
        "iterations": res.iterations,
        "restarts": res.restarts,
        "converged_restarts": res.converged_restarts,
    }
    if args.brute_force:
        doc["brute_force_L"] = brute_force_L(dom, law.eta).value
    return "variational.json", doc, {}, f"solve-variational: L={res.value:.9g}", 0


def _run_nonexit(args, config: ExperimentConfig, law: TailLaw):
    if args.method == "quadrature":
        dom = config.build_domain()
        if dom.n_sites != 1 or dom.d != 1:
            raise UnsupportedDomain("quadrature non-exit requires the single-site domain in d=1")
        estimates = [annealed_nonexit_quadrature(law, t) for t in config.times]
    elif args.method == "mc":
        estimates = annealed_nonexit_mc(config)
    else:
        estimates = annealed_nonexit_is(config)
    rows = [["t", "estimate", "se", "log_estimate", "rescaled", "method"]]
    rows += [[e.t, e.estimate, e.se, e.log_estimate, e.rescaled, e.method] for e in estimates]
    last = estimates[-1]
    status = f"nonexit[{args.method}]: t={last.t:g} rescaled={last.rescaled:.6g}"
    return "nonexit.csv", rows, {"rows": len(estimates)}, status, 0


def _run_eigen_tail(args, config: ExperimentConfig, law: TailLaw):
    dom = config.build_domain()
    eps_list = _parse_grid(args.eps, "--eps")
    rng = _require_rng(config) if args.method == "mc" else None
    points = eigen_tail(law, dom, eps_list, method=args.method, n_fields=config.trials, rng=rng)
    rows = [["eps", "prob", "log_prob", "eps_eta_log_prob"]]
    rows += [[pt.eps, pt.prob, pt.log_prob, pt.scaled_log] for pt in points]
    status = f"eigen-tail[{args.method}]: eps={points[-1].eps:g} scaled={points[-1].scaled_log:.6g}"
    return "eigen_tail.csv", rows, {"rows": len(points)}, status, 0


def _run_tauberian(args, config: ExperimentConfig, law: TailLaw):
    points = tauberian_check(law, args.m_const, config.times)
    rows = [["t", "value", "target"]] + [[p.t, p.value, p.target] for p in points]
    pt = points[-1]
    status = f"tauberian: M={args.m_const:g} t={pt.t:g} value={pt.value:.6g} target={pt.target:.6g}"
    return "tauberian.csv", rows, {"rows": len(points)}, status, 0


def _run_ldp_check(args, config: ExperimentConfig, law: TailLaw):
    dom = config.build_domain()
    g = solve_L(dom, law.eta).minimizer
    report = ldp_point_check(config, g)
    status = "ok" if report["lower_bound_ok"] else "violated"
    status = f"ldp-check: rate={report['rate_value']:.6g} lower bound {status}"
    return "ldp_check.json", report, {}, status, 0 if report["lower_bound_ok"] else 2


def _run_girsanov_test(args, config: ExperimentConfig, law: TailLaw):
    lo, hi = args.lo, args.hi
    if not (0 < lo <= hi):
        raise ArgumentOutOfRange("the target band must satisfy 0 < lo <= hi")
    require_count(config.trials, 2, "trials")
    dom = config.build_domain()
    rng = _require_rng(config)
    t = config.times[0]
    psi = ConductanceField(dom, np.ones(dom.n_edges))
    phi = ConductanceField(dom, lo + (hi - lo) * rng.random(dom.n_edges))
    chi = ConductanceField(dom, lo + (hi - lo) * rng.random(dom.n_edges))
    vals = np.empty(config.trials)
    cocycle_err = 0.0
    antisym_err = 0.0
    check_paths = min(200, config.trials)
    for i in range(config.trials):
        p = simulate(psi, dom, t, rng)
        lp = girsanov_log_density(p, phi, psi)
        vals[i] = np.exp(lp)
        if i < check_paths:
            lq = girsanov_log_density(p, chi, phi)
            lr = girsanov_log_density(p, chi, psi)
            cocycle_err = max(cocycle_err, abs(lp + lq - lr))
            antisym_err = max(antisym_err, abs(lp + girsanov_log_density(p, psi, phi)))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(config.trials))
    z = (mean - 1.0) / se if se > 0 else 0.0
    ok = abs(z) <= 3.0 and cocycle_err <= 1e-12 and antisym_err <= 1e-12
    report = {
        "t": float(t),
        "trials": config.trials,
        "mean": mean,
        "se": se,
        "z": float(z),
        "cocycle_err": float(cocycle_err),
        "antisym_err": float(antisym_err),
        "ok": bool(ok),
    }
    status = f"girsanov-test: mean={mean:.6f} z={z:.3f} cocycle={cocycle_err:.3g}"
    return "girsanov_test.json", report, {}, status, 0 if ok else 2


# name: (help, runner, extra arguments as (flag, add_argument keywords) pairs).  A runner
# returns (default output name, body, sidecar extras, status, exit code); run_cli
# writes the body and prints "<status> -> <output path>".
COMMANDS = {
    "sample-field": ("draw one conductance field as JSON", _run_sample_field, []),
    "simulate": ("simulate one path and dump it as CSV", _run_simulate, []),
    "solve-variational": ("domain constant and minimizer", _run_solve_variational, [
        ("--brute-force", dict(action="store_true", help="also run the grid oracle")),
    ]),
    "nonexit": ("annealed non-exit estimates", _run_nonexit, [
        ("--method", dict(choices=("quadrature", "mc", "is"), default="quadrature")),
    ]),
    "eigen-tail": ("principal eigenvalue lower tail", _run_eigen_tail, [
        ("--eps", dict(help="comma-separated eps grid", default="0.01")),
        ("--method", dict(choices=("quadrature", "mc"), default="quadrature")),
    ]),
    "tauberian": ("Laplace-transform tail identity", _run_tauberian, [
        ("--M", dict(type=float, default=1.0, dest="m_const")),
    ]),
    "ldp-check": ("profile-tracking lower bound check", _run_ldp_check, []),
    "girsanov-test": ("reweighting normalization check", _run_girsanov_test, [
        ("--lo", dict(type=float, default=0.5, help="lower edge of the target band")),
        ("--hi", dict(type=float, default=2.0, help="upper edge of the target band")),
    ]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--eta", type=float, help="tail exponent")
    common.add_argument("--D", type=float, dest="dcoef", help="tail scale coefficient")
    common.add_argument("--domain", help="domain shorthand, e.g. box1d:2")
    common.add_argument("--times", help="comma-separated time grid")
    common.add_argument("--t", type=float, help="single time, overrides --times")
    common.add_argument("--trials", type=int, help="Monte Carlo trial count")
    common.add_argument("--seed", type=int, help="RNG seed")
    common.add_argument("--out", help="output path")
    parser = argparse.ArgumentParser(
        prog="rwrc",
        description="Walks among heavy-tailed random conductances on finite domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, extra) in COMMANDS.items():
        sp = sub.add_parser(name, help=text, parents=[common])
        for flag, kwargs in extra:
            sp.add_argument(flag, **kwargs)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    doc.setdefault("law", {})
    if args.eta is not None:
        doc["law"]["eta"] = args.eta
    if args.dcoef is not None:
        doc["law"]["D"] = args.dcoef
    if args.domain is not None:
        doc["domain"] = parse_domain_arg(args.domain)
    if args.t is not None:
        doc["times"] = [args.t]
    elif args.times is not None:
        doc["times"] = _parse_grid(args.times, "--times")
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out"] = args.out
    return ExperimentConfig.from_dict(doc)


def _null_nonfinite(value):
    """A JSON document with every nan or infinite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v) for v in value]
    return value


def _write_json(doc: dict, fh) -> None:
    """Strict JSON: a non-finite float (a delta with no hits has a -inf
    log-estimate) is written as null, not as the non-JSON -Infinity or NaN."""
    json.dump(_null_nonfinite(doc), fh, indent=2, allow_nan=False)


def run_cli(argv) -> int:
    """Entry point; returns 0 on success, 1 on invalid input, 2 on numerical failure.

    A dict body is written as JSON with the config, version and wall time
    merged in, a non-finite float as null.  A list body is written as CSV rows
    and a str body as is; both get a ``<stem>.summary.json`` sidecar with that
    metadata and the runner's extras.
    """
    from . import __version__

    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if not exc.code else 1
    started = _time.monotonic()
    try:
        config = _config_from_args(args)
        default, body, extras, status, code = COMMANDS[args.command][1](args, config, config.law())
        out = config.out or default
        meta = {
            "config": config.to_dict(),
            "version": __version__,
            "wall_time_s": _time.monotonic() - started,
        }
        with open(out, "w", newline="") as fh:
            if isinstance(body, dict):
                _write_json({**body, **meta}, fh)
            elif isinstance(body, list):
                csv.writer(fh).writerows(body)
            else:
                fh.write(body)
        if not isinstance(body, dict):
            stem = os.path.splitext(out)[0] if out.endswith((".csv", ".json")) else out
            with open(stem + ".summary.json", "w") as fh:
                _write_json({**meta, **extras}, fh)
        print(f"{status} -> {out}")
    except (NonConvergence, DegenerateWeights) as exc:
        print(f"rwrc: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (RwrcError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"rwrc: invalid input: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
