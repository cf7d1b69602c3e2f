"""The benchmark's tracer (perfbench/tracer.py) against the package.

The tracer wraps package functions by name and reads some of their arguments
by position or keyword, so a renamed function or a changed signature breaks
it.  This runs it over a small lockstep walk, a small spectral Monte Carlo and
the ``ldp_track`` workload's call shape, and checks that every traced name
resolves, that its counters read what they expect, and that uninstalling
restores every binding.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import rwrc
from rwrc.conductance import ConductanceField
from rwrc.domain import box_domain, build_domain
from rwrc.experiments import run_cli
from rwrc.variational import solve_L
from rwrc.walk import occupation_mc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_tracer_counts_and_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    before = package_bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()  # raises AttributeError if a traced name is gone
    try:
        dom = box_domain(1, 1)
        f = ConductanceField(dom, np.ones(dom.n_edges))
        occupation_mc(f, 1.0, 5, np.random.default_rng(0))
        argv = ["nonexit", "--method", "mc", "--domain", "box1d:1", "--trials", "3", "--seed",
                "1", "--out", str(tmp_path / "mc.csv")]
        assert run_cli(argv) == 0
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert tracer.counts["walk._simulate_batch.paths"] == 5
    assert totals["walk._simulate_batch"][0] == 1
    assert totals["spectral.eigen"][0] == 3
    assert tracer.counts["spectral.eigen.n3_sum"] == 3 * dom.n_sites**3
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_reads_the_ldp_track_call_shape(monkeypatch):
    # as in perfbench/workloads.py: g is solved in set-up, then each job builds
    # its config and calls the package's ldp_point_check on the two-site chain
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    g = solve_L(build_domain([[0], [1]], 1), 1.5).minimizer
    before = package_bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
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
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["domain.build_domain"][0] == 1
    assert totals["experiments.ldp_point_check"][0] == 1
    assert totals["walk._simulate_batch"][0] == 2
    assert tracer.counts["walk._simulate_batch.paths"] == 20
    assert tracer.counts["experiments.ess_trials"] == 2
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
