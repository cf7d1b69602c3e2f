import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from rwrc.domain import box_domain, build_domain
from rwrc.errors import ArgumentOutOfRange, UnsupportedDomain
from rwrc.experiments import (
    AnnealedEstimate,
    ExperimentConfig,
    annealed_nonexit_is,
    annealed_nonexit_mc,
    annealed_nonexit_quadrature,
    domain_from_spec,
    ldp_point_check,
    parse_domain_arg,
    run_cli,
    tauberian_check,
)
from rwrc import spectral
from rwrc.conductance import field_from_json
from rwrc.rates import joint_rate_J, k_const
from rwrc.tail_law import TailLaw
from rwrc.variational import solve_L


def make_config(**kw):
    doc = {
        "domain": {"type": "box", "d": 1, "half_width": 0},
        "law": {"eta": 1.0, "D": 1.0},
        "times": [100.0],
        "trials": 2000,
        "inner_trials": 200,
        "seed": 7,
    }
    doc.update(kw)
    return ExperimentConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_round_trip():
    doc = {
        "domain": {"type": "sites", "sites": [[0], [1]], "d": 1},
        "law": {"eta": 0.5, "D": 2.0},
        "times": [1.0, 10.0],
        "trials": 123,
        "inner_trials": 45,
        "deltas": [0.1, 0.5],
        "seed": 11,
        "out": "x.csv",
    }
    c1 = ExperimentConfig.from_dict(doc)
    c2 = ExperimentConfig.from_dict(c1.to_dict())
    assert c1 == c2
    assert c1.deltas == [0.5, 0.1]  # sorted largest first
    # unknown keys, such as an old tilt block, are ignored
    assert ExperimentConfig.from_dict(dict(doc, **{"is": {"cap_M": 9.0, "r": 0.25}})) == c1


def test_domain_from_spec():
    dom = domain_from_spec({"type": "box", "d": 2, "half_width": 1})
    ref = box_domain(2, 1)
    assert dom.n_sites == ref.n_sites and np.array_equal(dom.sites, ref.sites)
    dom = domain_from_spec({"type": "sites", "sites": [[0], [1]], "d": 1})
    ref = build_domain([(0,), (1,)], 1)
    assert np.array_equal(dom.sites, ref.sites)
    with pytest.raises(UnsupportedDomain):
        domain_from_spec({"type": "torus"})


def test_parse_domain_arg():
    assert parse_domain_arg("box2d:3") == {"type": "box", "d": 2, "half_width": 3}
    assert parse_domain_arg(" box1d:0 ") == {"type": "box", "d": 1, "half_width": 0}
    with pytest.raises(ArgumentOutOfRange):
        parse_domain_arg("ball:3")


# ---------------------------------------------------------------------------
# annealed estimators


def test_quadrature_t_zero():
    est = annealed_nonexit_quadrature(TailLaw(1.0, 1.0), 0.0)
    assert est.estimate == 1.0 and est.rescaled == 0.0 and est.se == 0.0


def test_quadrature_rescaled_trend():
    # rescaled log estimate decreases toward -2 * k_const = -4 at eta = D = 1
    law = TailLaw(1.0, 1.0)
    vals = [annealed_nonexit_quadrature(law, t).rescaled for t in (1e4, 1e6, 1e8)]
    assert vals[0] > vals[1] > vals[2] > -4.0
    assert abs(vals[-1] - (-4.0)) <= 0.02 * 4.0


def test_quadrature_rejects_bad_time():
    with pytest.raises(ArgumentOutOfRange):
        annealed_nonexit_quadrature(TailLaw(1.0, 1.0), -1.0)


def test_tauberian_values():
    law = TailLaw(1.0, 1.0)
    for m in (1.0, 4.0):
        pts = tauberian_check(law, m, [1e4])
        target = -2.0 * math.sqrt(m)
        assert pts[0].target == pytest.approx(target, rel=1e-12)
        assert abs(pts[0].value - target) <= 0.02 * abs(target)
    # target scales like M**(eta/(1+eta)) and vanishes with M
    small = tauberian_check(law, 1e-8, [10.0])[0]
    assert abs(small.target) == pytest.approx(k_const(law) * 1e-4, rel=1e-12)


def test_tauberian_rejects_bad_arguments():
    from rwrc.errors import NonPositiveArgument

    with pytest.raises(NonPositiveArgument):
        tauberian_check(TailLaw(1.0, 1.0), 0.0, [1.0])
    with pytest.raises(ArgumentOutOfRange):
        tauberian_check(TailLaw(1.0, 1.0), 1.0, [0.0])


def test_estimators_at_t_zero():
    c = make_config(times=[0.0], trials=64)
    for run in (annealed_nonexit_mc, annealed_nonexit_is):
        est = run(c)[0]
        assert est.estimate == 1.0 and est.rescaled == 0.0


def test_is_matches_quadrature():
    c = make_config(times=[1000.0], trials=10000, seed=1)
    est = annealed_nonexit_is(c)[0]
    ref = annealed_nonexit_quadrature(c.law(), 1000.0)
    assert est.ess is not None and est.ess >= 10.0
    # rel_se is the standard error of the log estimate to first order
    assert abs(est.log_estimate - ref.log_estimate) <= 3.0 * est.rel_se
    assert est.method == "is"


def test_plain_mc_consistent_at_moderate_horizon():
    c = make_config(times=[10.0], trials=2000, seed=7)
    mc = annealed_nonexit_mc(c)[0]
    ref = annealed_nonexit_quadrature(c.law(), 10.0)
    assert abs(mc.estimate - ref.estimate) <= 3.0 * mc.se


def test_is_beats_plain_mc():
    # at t = 100 the true average is carried by fields too rare for 2000 prior
    # draws, so the plain estimate collapses; the tilted one stays on target
    c = make_config(times=[100.0], trials=2000, seed=7)
    mc = annealed_nonexit_mc(c)[0]
    isa = annealed_nonexit_is(c)[0]
    ref = annealed_nonexit_quadrature(c.law(), 100.0)
    assert isa.rel_se < 0.5 * mc.rel_se
    assert abs(isa.log_estimate - ref.log_estimate) <= 3.0 * isa.rel_se
    assert mc.estimate < 0.01 * ref.estimate


def test_plain_mc_one_eigensolve_per_field(monkeypatch):
    calls = []
    eigen = spectral.eigen

    def counting_eigen(op):
        calls.append(op)
        return eigen(op)

    monkeypatch.setattr(spectral, "eigen", counting_eigen)
    c = make_config(domain={"type": "box", "d": 2, "half_width": 1}, times=[10.0, 20.0], trials=40)
    annealed_nonexit_mc(c)
    assert len(calls) == 2 * 40
    assert all(op.matrix.shape == (9, 9) for op in calls)


def test_estimates_reproducible():
    c = make_config(times=[50.0, 100.0], trials=500, seed=13)
    a = annealed_nonexit_is(c)
    b = annealed_nonexit_is(c)
    assert [e.log_estimate for e in a] == [e.log_estimate for e in b]
    m1 = annealed_nonexit_mc(c)
    m2 = annealed_nonexit_mc(c)
    assert [e.estimate for e in m1] == [e.estimate for e in m2]


# ---------------------------------------------------------------------------
# profile-tracking lower bound


def test_ldp_point_check_two_sites():
    doc = {
        "domain": {"type": "sites", "sites": [[0], [1]], "d": 1},
        "law": {"eta": 1.0, "D": 1.0},
        "times": [16.0],
        "trials": 4000,
        "inner_trials": 400,
        "deltas": [0.6, 0.3],
        "seed": 21,
    }
    c = ExperimentConfig.from_dict(doc)
    g = solve_L(c.build_domain(), 1.0).minimizer
    report = ldp_point_check(c, g)
    assert report["rate_value"] == pytest.approx(joint_rate_J(g, c.law()), abs=1e-12)
    assert report["deltas"] == [0.6, 0.3]
    assert {(r["t"], r["delta"]) for r in report["rows"]} == {(16.0, 0.6), (16.0, 0.3)}
    bt = report["by_time"][0]
    assert bt["ess"] >= 10.0
    assert bt["ok"] and report["lower_bound_ok"]
    # tracking within the larger radius can only be more likely
    big = next(r for r in report["rows"] if r["delta"] == 0.6)
    small = next(r for r in report["rows"] if r["delta"] == 0.3)
    assert big["log_estimate"] >= small["log_estimate"]


def test_ldp_huge_delta_reduces_to_survival():
    # any two points of the occupation simplex are within sqrt(2), so both
    # radii capture every surviving path and the delta slack collapses to zero
    doc = {
        "domain": {"type": "sites", "sites": [[0], [1]], "d": 1},
        "law": {"eta": 1.0, "D": 1.0},
        "times": [4.0],
        "trials": 300,
        "inner_trials": 200,
        "deltas": [3.0, 2.9],
        "seed": 5,
    }
    c = ExperimentConfig.from_dict(doc)
    g = solve_L(c.build_domain(), 1.0).minimizer
    report = ldp_point_check(c, g)
    assert report["by_time"][0]["slack"] == 0.0
    rows = report["rows"]
    assert rows[0]["log_estimate"] == rows[1]["log_estimate"]


def test_ldp_slack_skips_a_delta_with_no_hits():
    # no walker lands within 0.001 of g*^2: that row's log-estimate is -inf, and
    # taken as the slack it made the slack inf, so the check could not fail.
    # Deltas draw no random numbers, so the run matches one without that delta
    doc = {
        "domain": {"type": "sites", "d": 1, "sites": [[0], [1]]},
        "law": {"eta": 1.5, "D": 1.0},
        "times": [16.0],
        "trials": 100,
        "inner_trials": 400,
        "seed": 1,
    }
    g = solve_L(ExperimentConfig.from_dict(doc).build_domain(), 1.5).minimizer
    both = ldp_point_check(ExperimentConfig.from_dict({**doc, "deltas": [0.6, 0.001]}), g)
    wide = ldp_point_check(ExperimentConfig.from_dict({**doc, "deltas": [0.6]}), g)
    assert both["rows"][1]["log_estimate"] == -math.inf
    assert both["rows"][0] == wide["rows"][0]
    for key in ("slack", "ok"):
        assert both["by_time"][0][key] == wide["by_time"][0][key]
    assert both["lower_bound_ok"] == wide["lower_bound_ok"]


def readme_ldp_config() -> dict:
    """The ldp.json block of the README's command-line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"^```json\n(.*?)^```$", readme, flags=re.M | re.S).group(1))


def test_cli_ldp_check_writes_no_hits_as_null(tmp_path):
    # the no-hit row's -inf log-estimate and rescaled value and its nan relative
    # SE used to be written as -Infinity and NaN, which are not JSON
    cfg, out = tmp_path / "ldp.json", tmp_path / "out.json"
    cfg.write_text(json.dumps({**readme_ldp_config(), "deltas": [0.6, 0.001]}))
    assert run(["ldp-check", "--config", cfg, "--out", out]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=reject)
    wide, narrow = doc["rows"]
    assert narrow["delta"] == 0.001
    assert narrow["log_estimate"] is None and narrow["rescaled"] is None
    assert narrow["rel_se"] is None
    assert all(isinstance(v, float) for v in wide.values())


def test_ldp_needs_two_trials():
    # with one field the relative standard error, and so the test's tolerance, was 0.0
    doc = {
        "domain": {"type": "sites", "sites": [[0], [1]], "d": 1},
        "law": {"eta": 1.5, "D": 1.0},
        "times": [16.0],
        "trials": 1,
        "inner_trials": 400,
        "deltas": [0.6, 0.3],
        "seed": 6,
    }
    c = ExperimentConfig.from_dict(doc)
    g = solve_L(c.build_domain(), 1.5).minimizer
    with pytest.raises(ArgumentOutOfRange):
        ldp_point_check(c, g)


def test_ldp_rejects_wrong_domain():
    from rwrc.errors import DomainMismatch

    c = make_config()
    g = solve_L(box_domain(1, 1), 1.0).minimizer
    with pytest.raises(DomainMismatch):
        ldp_point_check(c, g)


# ---------------------------------------------------------------------------
# command line


def run(args):
    return run_cli([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_summary(path):
    with open(str(path).rsplit(".", 1)[0] + ".summary.json") as fh:
        return json.load(fh)


def test_cli_sample_field(tmp_path):
    out = tmp_path / "field.json"
    assert run(["sample-field", "--domain", "box1d:1", "--seed", 5, "--out", out]) == 0
    f = field_from_json(out.read_text())
    assert f.domain.n_sites == 3 and f.weights.shape == (4,)
    summary = read_summary(out)
    assert summary["n_edges"] == 4
    assert summary["config"]["seed"] == 5
    assert "version" in summary and summary["wall_time_s"] >= 0.0


def test_cli_simulate(tmp_path):
    out = tmp_path / "path.csv"
    assert run(["simulate", "--domain", "box1d:1", "--t", 5.0, "--seed", 2, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["step", "time", "x0"]
    assert rows[0] == ["0", "0.0", "0"]
    times = [float(r[1]) for r in rows]
    assert times == sorted(times)
    summary = read_summary(out)
    assert summary["exited"] in (True, False)
    assert summary["jumps"] == len(rows) - 1 - int(summary["exited"])


def test_cli_solve_variational(tmp_path):
    out = tmp_path / "var.json"
    code = run(
        ["solve-variational", "--domain", "box1d:1", "--eta", 1.0, "--brute-force", "--out", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["L"] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-3)
    assert doc["brute_force_L"] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-6)
    assert len(doc["minimizer"]) == 3 and doc["restarts"] >= 1


def test_cli_nonexit_quadrature(tmp_path):
    out = tmp_path / "ne.csv"
    assert run(["nonexit", "--t", 100.0, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "estimate", "se", "log_estimate", "rescaled", "method"]
    ref = annealed_nonexit_quadrature(TailLaw(1.0, 1.0), 100.0)
    assert float(rows[0][4]) == pytest.approx(ref.rescaled, rel=1e-12)
    assert rows[0][5] == "quadrature"


def test_cli_nonexit_is(tmp_path):
    out = tmp_path / "ne_is.csv"
    code = run(
        ["nonexit", "--method", "is", "--t", 100.0, "--trials", 2000, "--seed", 3, "--out", out]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][5] == "is"
    ref = annealed_nonexit_quadrature(TailLaw(1.0, 1.0), 100.0)
    assert float(rows[0][3]) == pytest.approx(ref.log_estimate, abs=1.0)


def test_cli_eigen_tail(tmp_path):
    out = tmp_path / "et.csv"
    assert run(["eigen-tail", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["eps", "prob", "log_prob", "eps_eta_log_prob"]
    assert float(rows[0][0]) == 0.01
    assert abs(float(rows[0][3]) - (-4.0)) <= 0.05 * 4.0


def test_cli_tauberian(tmp_path):
    out = tmp_path / "tb.csv"
    assert run(["tauberian", "--M", 4.0, "--times", "100,10000", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "value", "target"]
    assert len(rows) == 2
    assert float(rows[1][2]) == pytest.approx(-4.0, rel=1e-12)
    assert abs(float(rows[1][1]) - (-4.0)) <= 0.02 * 4.0


def test_cli_ldp_check(tmp_path):
    out = tmp_path / "ldp.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "domain": {"type": "box", "d": 1, "half_width": 0},
                "times": [4.0],
                "trials": 200,
                "inner_trials": 100,
                "deltas": [0.4, 0.2],
                "seed": 3,
            }
        )
    )
    assert run(["ldp-check", "--config", cfg, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["lower_bound_ok"] is True
    assert doc["rate_value"] == pytest.approx(4.0, abs=1e-9)


def test_cli_girsanov_test(tmp_path):
    out = tmp_path / "g.json"
    code = run(
        ["girsanov-test", "--domain", "box1d:1", "--t", 1.0, "--trials", 2000, "--seed", 11, "--out", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["cocycle_err"] <= 1e-12 and doc["antisym_err"] <= 1e-12
    assert abs(doc["z"]) <= 3.0


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": {"eta": 1.0, "D": 1.0}, "times": [50.0], "seed": 1}))
    out = tmp_path / "ne.csv"
    assert run(["nonexit", "--config", cfg, "--eta", 2.0, "--t", 10.0, "--out", out]) == 0
    summary = read_summary(out)
    assert summary["config"]["law"]["eta"] == 2.0
    assert summary["config"]["times"] == [10.0]


def test_cli_summary_sidecar_naming(tmp_path):
    out = tmp_path / "runs"
    out.mkdir()
    target = out / "no_extension_out"
    assert run(["nonexit", "--t", 1.0, "--out", target]) == 0
    assert (out / "no_extension_out.summary.json").exists()


def test_cli_exit_codes(tmp_path):
    # unknown subcommand: argparse rejection maps to 1
    assert run(["does-not-exist"]) == 1
    # stochastic estimation without a seed: 1
    assert run(["simulate", "--t", 1.0, "--out", tmp_path / "p.csv"]) == 1
    # quadrature non-exit needs the single-site domain: 1
    assert run(["nonexit", "--t", 1.0, "--domain", "box1d:2", "--out", tmp_path / "n.csv"]) == 1
    # unreadable config: 1
    assert run(["nonexit", "--config", tmp_path / "missing.json", "--t", 1.0]) == 1
    # importance sampling with too few trials degenerates: 2
    code = run(
        [
            "nonexit", "--method", "is", "--t", 1000.0, "--trials", 5,
            "--seed", 2, "--out", tmp_path / "d.csv",
        ]
    )
    assert code == 2
    # --help exits cleanly
    assert run(["--help"]) == 0


# every command that reads a grid, given an empty one (flags, config): invalid input, no output
EMPTY_GRIDS = [
    (["nonexit", "--times", ","], None),
    (["nonexit", "--method", "mc", "--times", ",", "--seed", 1], None),
    (["tauberian", "--times", ","], None),
    (["simulate", "--times", ",", "--seed", 1], None),
    (["girsanov-test", "--times", ",", "--seed", 1], None),
    (["eigen-tail", "--eps", ","], None),
    (["nonexit"], {"times": [], "seed": 1}),
]


@pytest.mark.parametrize(
    "args,config",
    EMPTY_GRIDS,
    ids=[" ".join(map(str, a)) + (" config" if c else "") for a, c in EMPTY_GRIDS],
)
def test_cli_empty_grid_exits_1(tmp_path, capsys, args, config):
    assert_invalid_input_without_output(tmp_path, capsys, args, config)


def assert_invalid_input_without_output(tmp_path, capsys, args, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = args + ["--config", tmp_path / "cfg.json"]
    assert run(args + ["--out", tmp_path / "out.csv"]) == 1
    assert "rwrc: invalid input" in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json"}


# grids that are not lists of numbers (flags, config): invalid input, no output
MALFORMED_GRIDS = [
    (["nonexit", "--times", "1,abc"], None),
    (["eigen-tail", "--eps", "0.1,abc"], None),
    (["nonexit"], {"times": 5}),
    (["nonexit"], {"times": "10"}),
    (["nonexit"], {"times": [1.0, "abc"]}),
    (["nonexit"], {"deltas": 0.4}),
    (["nonexit"], {"deltas": "0.4"}),
    (["nonexit"], {"deltas": [0.4, None]}),
]


@pytest.mark.parametrize(
    "args,config",
    MALFORMED_GRIDS,
    ids=[" ".join(map(str, a)) + (f" config {c}" if c else "") for a, c in MALFORMED_GRIDS],
)
def test_cli_malformed_grid_exits_1(tmp_path, capsys, args, config):
    assert_invalid_input_without_output(tmp_path, capsys, args, config)


# trial counts that leave a reported standard error undefined (flags, config): invalid input
BAD_TRIALS = [
    (["girsanov-test", "--trials", 0, "--seed", 1], None),
    (["girsanov-test", "--trials", 1, "--seed", 1], None),
    (["girsanov-test", "--trials", -3, "--seed", 1], None),
    (["nonexit", "--method", "mc", "--trials", 1, "--seed", 1], None),
    (["nonexit", "--method", "is", "--trials", 1, "--seed", 1], None),
    (["nonexit"], {"trials": 0}),
    (["ldp-check"], {"inner_trials": 0, "seed": 1}),
    (["ldp-check"], {"trials": 1, "seed": 1}),
    (["nonexit"], {"trials": "many"}),
    (["nonexit"], {"trials": 10.5}),
    (["nonexit"], {"trials": True}),
    (["eigen-tail", "--method", "mc", "--domain", "box1d:0", "--eps", 0.5, "--trials", 0,
      "--seed", 1], None),
    (["eigen-tail", "--method", "mc", "--domain", "box1d:0", "--eps", 0.5, "--trials", -1,
      "--seed", 1], None),
]


@pytest.mark.parametrize(
    "args,config",
    BAD_TRIALS,
    ids=[" ".join(map(str, a)) + (f" config {c}" if c else "") for a, c in BAD_TRIALS],
)
def test_cli_bad_trial_count_exits_1(tmp_path, capsys, args, config):
    assert_invalid_input_without_output(tmp_path, capsys, args, config)


# the README's ldp.json, with fewer tilted fields
TWO_SITE_LDP = {
    "domain": {"type": "sites", "d": 1, "sites": [[0], [1]]},
    "law": {"eta": 1.5, "D": 1.0},
    "times": [16.0],
    "trials": 4,
    "inner_trials": 40,
    "seed": 1,
}


# config values of the wrong type or sign (flags, config): invalid input, no output
BAD_CONFIG_VALUES = [
    (["sample-field", "--seed", -1], None),
    (["sample-field"], {"seed": -1}),
    (["sample-field"], {"seed": "abc"}),
    (["sample-field"], {"seed": 1.5}),
    (["sample-field"], {"seed": True}),
    (["sample-field"], {"law": {"eta": "x"}, "seed": 1}),
    (["sample-field"], {"law": {"D": None}, "seed": 1}),
    (["sample-field"], {"law": [1], "seed": 1}),
    (["sample-field"], {"domain": {"type": "box", "d": "x"}, "seed": 1}),
    (["sample-field"], {"domain": {"type": "box", "d": 1.5}, "seed": 1}),
    (["sample-field"], {"domain": {"type": "box", "half_width": -1}, "seed": 1}),
    (["sample-field"], {"domain": {"type": "box", "half_width": True}, "seed": 1}),
    (["sample-field"], {"domain": [1], "seed": 1}),
    (["sample-field"], {"domain": {"type": "sites", "d": "x", "sites": [[0]]}, "seed": 1}),
    # inf used to pass the eps check and write a tail probability of nan
    (["eigen-tail", "--method", "mc", "--domain", "box1d:1", "--eps", "inf", "--trials", 20,
      "--seed", 1], None),
    # no delta used to die with an IndexError; a delta of 0 or below gave an
    # infinite slack, so the lower-bound check could not fail
    (["ldp-check"], {**TWO_SITE_LDP, "deltas": []}),
    (["ldp-check"], {**TWO_SITE_LDP, "deltas": [0.6, 0.0]}),
    (["ldp-check"], {**TWO_SITE_LDP, "deltas": [0.6, -1]}),
]


@pytest.mark.parametrize(
    "args,config",
    BAD_CONFIG_VALUES,
    ids=[" ".join(map(str, a)) + (f" config {c}" if c else "") for a, c in BAD_CONFIG_VALUES],
)
def test_cli_bad_config_value_exits_1(tmp_path, capsys, args, config):
    assert_invalid_input_without_output(tmp_path, capsys, args, config)


@pytest.mark.parametrize("out", [1, True, ["x.csv"]])
def test_cli_config_out_that_is_not_a_path_exits_1(tmp_path, monkeypatch, capsys, out):
    # an integer out would be opened as a file descriptor
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": out, "seed": 1}))
    assert run(["sample-field", "--config", tmp_path / "cfg.json"]) == 1
    assert "rwrc: invalid input" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_reads_integral_floats_as_integers():
    c = ExperimentConfig.from_dict(
        {"seed": 3.0, "domain": {"type": "box", "d": 2.0, "half_width": 1.0}}
    )
    assert c.seed == 3 and type(c.seed) is int
    assert c.build_domain().n_sites == 9


# times that are negative or not finite (flags, config): invalid input, no output
BAD_TIMES = [
    (["nonexit", "--method", "is", "--t", -1, "--trials", 4, "--seed", 1], None),
    (["ldp-check", "--domain", "box1d:0", "--t", -1, "--trials", 4, "--seed", 1], None),
    (["nonexit", "--t", "inf"], None),
    (["girsanov-test", "--t", "nan", "--seed", 1], None),
    (["nonexit"], {"times": [-1.0]}),
]


@pytest.mark.parametrize(
    "args,config",
    BAD_TIMES,
    ids=[" ".join(map(str, a)) + (f" config {c}" if c else "") for a, c in BAD_TIMES],
)
def test_cli_bad_time_exits_1(tmp_path, capsys, args, config):
    assert_invalid_input_without_output(tmp_path, capsys, args, config)


def test_cli_nonexit_is_degenerate_integrand_exits_2(tmp_path, capsys):
    # the proposal weights pass their ESS gate, but the non-exit probabilities
    # put almost all the mass on a few fields
    args = ["nonexit", "--method", "is", "--domain", "box2d:1", "--t", 10, "--trials", 1000]
    assert run(args + ["--seed", 1, "--out", tmp_path / "is.csv"]) == 2
    assert "integrand effective sample size 4.94" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_nonexit_is_agrees_with_plain_mc_or_exits_2(tmp_path):
    # with interior increments of 3.5e-7 in g* instead of 0, the tilt put those
    # edges at about 1e6 and seeds 4 and 6 exited 0 at 147 and 74 SE from plain MC
    mc = annealed_nonexit_mc(
        make_config(domain={"type": "box", "d": 1, "half_width": 1}, times=[10.0],
                    trials=20_000, seed=11)
    )[0]
    args = ["nonexit", "--method", "is", "--domain", "box1d:1", "--t", 10, "--trials", 1000]
    for seed in range(1, 9):
        out = tmp_path / f"is{seed}.csv"
        code = run(args + ["--seed", seed, "--out", out])
        if code == 2:
            continue
        assert code == 0
        _, rows = read_csv(out)
        est, se, log_est = (float(v) for v in rows[0][1:4])
        combined = math.hypot(se / est, mc.se / mc.estimate)
        assert abs(log_est - mc.log_estimate) <= 3.0 * combined, seed


# Each peak below is narrower than QUADPACK's rule in the variable it used
# to be integrated in; the quadrature returned 0 and the command wrote -inf
# with exit 0.  The last row is the narrow one.
NARROW_PEAKS = [
    # (args, output column, target)
    (["tauberian", "--eta", 2, "--times", "1e6,1e8"], 1, -k_const(TailLaw(2.0, 1.0))),
    (["nonexit", "--method", "quadrature", "--eta", 3, "--times", "1e8,1e10"], 4,
     -2.0 * k_const(TailLaw(3.0, 1.0))),
    (["eigen-tail", "--eta", 2, "--eps", "1e-3,1e-4"], 3, -(2.0**3)),
]


@pytest.mark.parametrize("args,column,target", NARROW_PEAKS, ids=[a[0][0] for a in NARROW_PEAKS])
def test_cli_narrow_quadrature_peaks_are_finite(tmp_path, args, column, target):
    out = tmp_path / "narrow.csv"
    assert run(args + ["--out", out]) == 0
    _, rows = read_csv(out)
    for row in rows:
        value = float(row[column])
        assert math.isfinite(value)
        assert abs(value - target) <= 0.02 * abs(target)


# at eta = 0.01 the law spreads over hundreds of decades, and the quadrature
# samples x up to exp(700)
SMALL_ETA = [
    (["tauberian", "--eta", 0.01, "--times", "1,100"], 1),
    (["nonexit", "--method", "quadrature", "--eta", 0.01, "--times", "1,1e8"], 4),
    (["eigen-tail", "--eta", 0.01, "--eps", "1e-3,1e-2"], 3),
]


@pytest.mark.parametrize("args,column", SMALL_ETA, ids=[a[0][0] for a in SMALL_ETA])
def test_cli_small_eta_quadrature_is_finite(tmp_path, args, column):
    out = tmp_path / "small.csv"
    assert run(args + ["--out", out]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2
    assert all(math.isfinite(float(row[column])) for row in rows)


# beyond the float range: s = t**((1+eta)/eta) at eta = 0.5, t = 1e200, the
# law's mass below exp(-700) at eta = 0.001, and draws past 1.8e308 at eta = 0.01
BEYOND_FLOATS = [
    ["tauberian", "--eta", 0.5, "--times", "1e200"],
    ["tauberian", "--eta", 0.001, "--times", "1"],
    ["eigen-tail", "--eta", 0.001, "--eps", "1e-3"],
    ["nonexit", "--method", "mc", "--eta", 0.01, "--domain", "box2d:1", "--t", 10,
     "--trials", 40, "--seed", 1],
]


@pytest.mark.parametrize("args", BEYOND_FLOATS, ids=[" ".join(map(str, a)) for a in BEYOND_FLOATS])
def test_cli_beyond_the_float_range_exits_1(tmp_path, capsys, args):
    assert_invalid_input_without_output(tmp_path, capsys, args, None)


# at small eta one field's weights span 20 decades or more, and LAPACK gives a
# principal eigenvalue <= 0 for some fields: a nan estimate, a -inf rescaled
# value and a tail probability of 0.191 used to exit 0
SMALL_ETA_MC = [
    ["nonexit", "--method", "mc", "--eta", 0.1, "--domain", "box2d:1", "--t", 10,
     "--trials", 200, "--seed", 1],
    ["nonexit", "--method", "mc", "--eta", 0.05, "--domain", "box2d:1", "--t", 10,
     "--trials", 40, "--seed", 1],
    ["eigen-tail", "--method", "mc", "--eta", 0.1, "--domain", "box2d:1", "--eps", "0.5,0.01",
     "--trials", 2000, "--seed", 1],
]


@pytest.mark.parametrize("args", SMALL_ETA_MC, ids=[" ".join(map(str, a[:5])) for a in SMALL_ETA_MC])
def test_cli_small_eta_monte_carlo_exits_2(tmp_path, capsys, args):
    assert run(args + ["--out", tmp_path / "mc.csv"]) == 2
    assert "rwrc: numerical failure" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_quadrature_without_a_positive_value_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(integrate, "quad", lambda *a, **k: (0.0, 0.0))
    assert run(["nonexit", "--t", 100.0, "--out", tmp_path / "ne.csv"]) == 2
    assert "quadrature returned 0.0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_solve_variational_reports_converged_restarts(tmp_path):
    out = tmp_path / "var.json"
    assert run(["solve-variational", "--domain", "box1d:5", "--eta", 2.0, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["restarts"] == 32 and doc["converged_restarts"] == 32


def test_cli_girsanov_test_seeded_values(tmp_path):
    out = tmp_path / "g.json"
    args = ["girsanov-test", "--domain", "box2d:1", "--t", 2, "--trials", 500, "--seed", 0]
    assert run(args + ["--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["mean"] == 0.9728115528956243
    assert doc["se"] == 0.06333656729238141
    assert doc["cocycle_err"] == 2.220446049250313e-15


MC_BOX2D_ARGS = [
    "nonexit", "--method", "mc", "--domain", "box2d:1", "--t", 10, "--trials", 40, "--seed", 101,
]


def test_cli_nonexit_mc_seeded_value(tmp_path):
    # computed with the earlier hand-written Jacobi eigensolver; LAPACK must reproduce it
    out = tmp_path / "mc.csv"
    assert run(MC_BOX2D_ARGS + ["--out", out]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(3.60857421791594e-07, rel=1e-9)


def test_cli_eigensolver_failure_exits_2(tmp_path, monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    assert run(MC_BOX2D_ARGS + ["--out", tmp_path / "mc.csv"]) == 2


def test_cli_eigen_tail_mc_without_hits_exits_2(tmp_path, capsys):
    args = ["eigen-tail", "--method", "mc", "--domain", "box2d:1", "--eps", 0.5, "--trials", 2000,
            "--seed", 1]
    assert run(args + ["--out", tmp_path / "et.csv"]) == 2
    err = capsys.readouterr().err
    assert "eps = 0.5" in err and "2000" in err
    assert not (tmp_path / "et.csv").exists()


def test_cli_eigen_tail_mc_counts_its_fields_with_trials(tmp_path, capsys):
    args = ["eigen-tail", "--method", "mc", "--domain", "box2d:1", "--eps", 0.5, "--trials", 500,
            "--seed", 1]
    assert run(args + ["--out", tmp_path / "et.csv"]) == 2
    assert "no field of 500 " in capsys.readouterr().err


def test_cli_eigen_tail_mc_seeded_values(tmp_path):
    # written by the former --fields flag at its default of 2000, byte for byte
    out = tmp_path / "tail_mc.csv"
    args = ["eigen-tail", "--method", "mc", "--domain", "box1d:1", "--eps", "0.5,0.25",
            "--trials", 2000, "--seed", 1]
    assert run(args + ["--out", out]) == 0
    assert out.read_bytes() == (
        b"eps,prob,log_prob,eps_eta_log_prob\r\n"
        b"0.5,0.239,-1.4312917270506265,-0.7156458635253132\r\n"
        b"0.25,0.022,-3.816712825623821,-0.9541782064059553\r\n"
    )


def test_cli_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(
            ["nonexit", "--method", "mc", "--t", 20.0, "--trials", 200, "--seed", 9, "--out", out]
        ) == 0
    assert a.read_text() == b.read_text()


# (subcommand, label, default output, arguments): each runs without --out
OUTPUT_CONTRACT = [
    ("sample-field", "sample-field", "field.json", ["--domain", "box1d:1", "--seed", 5]),
    ("simulate", "simulate", "path.csv", ["--domain", "box1d:1", "--t", 1.0, "--seed", 2]),
    ("solve-variational", "solve-variational", "variational.json", ["--domain", "box1d:0"]),
    ("nonexit", "nonexit[quadrature]", "nonexit.csv", ["--t", 10.0]),
    ("eigen-tail", "eigen-tail[quadrature]", "eigen_tail.csv", ["--eps", 0.1]),
    ("tauberian", "tauberian", "tauberian.csv", ["--times", 100]),
    ("ldp-check", "ldp-check", "ldp_check.json", ["--t", 4.0, "--trials", 200, "--seed", 3]),
    (
        "girsanov-test", "girsanov-test", "girsanov_test.json",
        ["--domain", "box1d:1", "--t", 1.0, "--trials", 200, "--seed", 11],
    ),
]


@pytest.mark.parametrize("command,label,default,args", OUTPUT_CONTRACT, ids=[c[0] for c in OUTPUT_CONTRACT])
def test_cli_output_contract(tmp_path, monkeypatch, capsys, command, label, default, args):
    monkeypatch.chdir(tmp_path)
    assert run([command] + args) == 0
    stem, ext = default.rsplit(".", 1)
    inline = ext == "json" and command != "sample-field"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [default] + ([] if inline else [stem + ".summary.json"])
    )
    meta = json.loads((tmp_path / (default if inline else stem + ".summary.json")).read_text())
    assert meta["config"]["out"] is None and meta["wall_time_s"] >= 0.0 and "version" in meta
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(label + ": ") and lines[0].endswith(" -> " + default)
