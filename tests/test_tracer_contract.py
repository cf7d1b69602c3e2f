"""The benchmark's tracer (perfbench/tracer.py) against the package.

The tracer wraps package functions by name and reads some of their arguments
by position or keyword, so a renamed function or a changed signature breaks
it.  This runs it over a small lockstep walk, a small spectral Monte Carlo and
small copies of the four workloads' call shapes, and checks that every traced
name resolves, that its counters read what they expect, and that
uninstalling restores every binding.
"""

import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np

import rwrc
from rwrc.conductance import ConductanceField
from rwrc.domain import box_domain, build_domain
from rwrc.experiments import run_cli
from rwrc.variational import solve_L
from rwrc.walk import occupation_mc

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def package_bindings() -> dict:
    """Every attribute of every loaded package module, plus the field's __init__."""
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "rwrc" or name.startswith("rwrc.")
        for attr, value in vars(mod).items()
    }
    out["ConductanceField.__init__"] = ConductanceField.__init__
    return out


def traced(monkeypatch, run):
    """Call ``run`` under the tracer; return the tracer once it has checked
    that uninstalling restored every package binding."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    before = package_bindings()
    tracer.install()  # raises AttributeError if a traced name is gone
    try:
        run()
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    return tracer


def test_tracer_counts_and_restores(monkeypatch, tmp_path):
    dom = box_domain(1, 1)

    def run():
        f = ConductanceField(dom, np.ones(dom.n_edges))
        occupation_mc(f, 1.0, 5, np.random.default_rng(0))
        argv = ["nonexit", "--method", "mc", "--domain", "box1d:1", "--trials", "3", "--seed",
                "1", "--out", str(tmp_path / "mc.csv")]
        assert run_cli(argv) == 0

    tracer = traced(monkeypatch, run)
    totals = tracer.layer_totals()
    assert tracer.counts["walk._simulate_batch.paths"] == 5
    assert totals["walk._simulate_batch"][0] == 1
    assert totals["spectral.eigen"][0] == 3
    assert tracer.counts["spectral.eigen.n3_sum"] == 3 * dom.n_sites**3


def test_tracer_reads_the_ldp_track_call_shape(monkeypatch):
    # as in perfbench/workloads.py: g is solved in set-up, then each job builds
    # its config and calls the package's ldp_point_check on the two-site chain
    g = solve_L(build_domain([[0], [1]], 1), 1.5).minimizer

    def run():
        config = rwrc.ExperimentConfig.from_dict(
            {
                "domain": {"type": "sites", "sites": [[0], [1]], "d": 1},
                "law": {"eta": 1.5, "D": 1.0},
                "times": [1.0],
                "trials": 2,
                "inner_trials": 10,
                "deltas": [0.6, 0.3],
                "seed": 1,
            }
        )
        rwrc.ldp_point_check(config, g)

    tracer = traced(monkeypatch, run)
    totals = tracer.layer_totals()
    assert totals["domain.build_domain"][0] == 1
    assert totals["experiments.ldp_point_check"][0] == 1
    assert totals["walk._simulate_batch"][0] == 2
    assert tracer.counts["walk._simulate_batch.paths"] == 20
    assert tracer.counts["experiments.ess_trials"] == 2


def test_tracer_reads_the_path_reweight_call_shape(monkeypatch, tmp_path):
    # the path_reweight job with 5 paths: a density per path, three more per checked path
    argv = ["girsanov-test", "--domain", "box2d:1", "--t", "2", "--trials", "5", "--seed", "1",
            "--out", str(tmp_path / "g.json")]
    totals = traced(monkeypatch, lambda: run_cli(argv)).layer_totals()
    assert totals["walk.simulate"][0] == 5
    assert totals["girsanov.girsanov_log_density"][0] == 20
    assert totals["domain.build_domain"][0] == 1


def test_tracer_reads_the_variational_cert_call_shape(monkeypatch, tmp_path):
    def run():
        assert run_cli(["solve-variational", "--domain", "box1d:1", "--brute-force",
                        "--out", str(tmp_path / "v.json")]) == 0
        assert run_cli(["nonexit", "--method", "quadrature", "--times", "1e2,1e8",
                        "--out", str(tmp_path / "q.csv")]) == 0

    totals = traced(monkeypatch, run).layer_totals()
    assert totals["variational.solve_L"][0] == 1
    assert totals["variational.brute_force_L"][0] == 1
    assert totals["domain.build_domain"][0] == 2  # one per command


def test_tracer_sees_one_domain_build_per_ldp_check(monkeypatch, tmp_path):
    # the README's ldp.json with 2 tilted fields: the command builds its domain
    # once, for the config, and the check reads it from there
    readme = (ROOT / "README.md").read_text()
    doc = json.loads(re.search(r"^```json\n(.*?)^```$", readme, flags=re.M | re.S).group(1))
    (tmp_path / "ldp.json").write_text(json.dumps({**doc, "trials": 2}))
    argv = ["ldp-check", "--config", str(tmp_path / "ldp.json"), "--out", str(tmp_path / "r.json")]
    totals = traced(monkeypatch, lambda: run_cli(argv)).layer_totals()
    assert totals["domain.build_domain"][0] == 1
    assert totals["experiments.ldp_point_check"][0] == 1
    assert totals["walk._simulate_batch"][0] == 2
