"""The four workloads: job shape, set-up, output collection and checks.

A job is one call into an rwrc entry point with a seed derived from the
workload seed.  `run` is the timed call; `collect`, `check`, `perturb` and
`finish` run outside the timed region.  `check` returns None for a good
output, "z_alarm" for an expected false alarm of a 3-SE test, or a reason.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _strip_wall(doc: dict) -> str:
    """Canonical text of a JSON output without its wall-clock field."""
    return json.dumps({k: v for k, v in doc.items() if k != "wall_time_s"}, sort_keys=True)


class Workload:
    name = ""
    # traced calls every job must make: {"<module>.<fn>": count}
    calls_per_job: dict = {}

    def setup(self, rwrc, workdir: str) -> list[str]:
        """Build what every job shares; return problems found (empty if none)."""
        self.rwrc = rwrc
        self.workdir = workdir
        return []

    def _out(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _take(self, name: str) -> str:
        """Read a job's output file and delete it, so no later job reads it."""
        path = self._out(name)
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        return text

    def finish(self, outs: list[dict]) -> list[str]:
        return []


class AnnealedMC(Workload):
    """`nonexit --method mc --domain box2d:1 --t 10`, checked against an
    independent LAPACK re-computation of the same seeded estimate."""

    name = "annealed_mc"
    trials = 40
    t = 10.0
    calls_per_job = {"spectral.eigen": trials}

    def setup(self, rwrc, workdir):
        super().setup(rwrc, workdir)
        self.dom = rwrc.box_domain(2, 1)
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)["annealed_mc"]
        problems = []
        for row in golden["rows"]:
            ref = self.oracle(row["seed"], golden["trials"])
            if abs(ref - row["estimate"]) > 1e-9 * row["estimate"]:
                problems.append(f"oracle {ref!r} != golden {row['estimate']!r} at seed {row['seed']}")
        return problems

    def oracle(self, seed: int, trials: int) -> float:
        """Same draws as the estimator, eigen-decomposed with LAPACK."""
        dom = self.dom
        rng = np.random.default_rng(seed)
        u = rng.random((trials, dom.n_edges))
        u = np.where(u > 0.0, u, np.nextafter(0.0, 1.0))
        w = 1.0 / -np.log(u)                       # quantile of the eta = D = 1 law
        n = dom.n_sites
        inside = dom.edge_b >= 0
        a = np.zeros((trials, n, n))
        a[:, np.arange(n), np.arange(n)] = w[:, dom.site_edges].sum(axis=2)
        ia, ib = dom.edge_a[inside], dom.edge_b[inside]
        a[:, ia, ib] = -w[:, inside]
        a[:, ib, ia] = -w[:, inside]
        lam, vec = np.linalg.eigh(a)
        weights = vec[:, dom.origin_index, :] * vec.sum(axis=1)
        p = np.clip(np.sum(np.exp(-self.t * lam) * weights, axis=1), 0.0, 1.0)
        return float(np.mean(p))

    def run(self, k, seed):
        return self.rwrc.run_cli(
            ["nonexit", "--method", "mc", "--domain", "box2d:1", "--t", "10",
             "--trials", str(self.trials), "--seed", str(seed), "--out", self._out("mc.csv")]
        )

    def collect(self, k, seed, code):
        text = self._take("mc.csv")
        est = float(text.splitlines()[1].split(",")[1])
        return {"code": code, "estimate": est, "ref": self.oracle(seed, self.trials), "bits": text}

    def check(self, out):
        if out["code"] != 0:
            return f"exit code {out['code']}"
        est, ref = out["estimate"], out["ref"]
        if not 0.0 < est <= 1.0:
            return f"estimate {est!r} outside (0, 1]"
        if abs(est - ref) > 1e-9 * ref:
            return f"estimate {est!r} differs from reference {ref!r}"
        return None

    def perturb(self, out):
        return dict(out, estimate=out["estimate"] * (1.0 + 1e-6))


class PathReweight(Workload):
    """`girsanov-test --domain box2d:1 --t 2 --trials 2000`."""

    name = "path_reweight"
    trials = 2000
    calls_per_job = {
        "walk.simulate": trials,
        "girsanov.girsanov_log_density": trials + 3 * min(200, trials),
    }

    def run(self, k, seed):
        return self.rwrc.run_cli(
            ["girsanov-test", "--domain", "box2d:1", "--t", "2", "--trials", str(self.trials),
             "--seed", str(seed), "--out", self._out("girsanov.json")]
        )

    def collect(self, k, seed, code):
        doc = json.loads(self._take("girsanov.json"))
        return {"code": code, "bits": _strip_wall(doc), **doc}

    def check(self, out):
        if max(out["cocycle_err"], out["antisym_err"]) > 1e-12:
            return f"identity error {max(out['cocycle_err'], out['antisym_err'])!r} above 1e-12"
        if out["code"] == 0:
            return None
        if out["code"] == 2 and abs(out["z"]) > 3.0:
            return "z_alarm"
        return f"exit code {out['code']} with z={out['z']!r}"

    def perturb(self, out):
        return dict(out, cocycle_err=out["cocycle_err"] + 1e-9)

    def finish(self, outs):
        """The mean weight over every job's paths is within 3 SE of 1."""
        if not outs:
            return []
        mean = sum(o["mean"] for o in outs) / len(outs)
        se = math.sqrt(sum(o["se"] ** 2 for o in outs)) / len(outs)
        if abs(mean - 1.0) > 3.0 * se:
            return [f"pooled mean weight {mean!r} is more than 3 SE ({se!r}) from 1"]
        return []


class LdpTrack(Workload):
    """`ldp_point_check` on the two-site chain at t = 16 with g* from set-up.

    eta is 1.5, not 1: at eta = 1 the chain's interior edge is drawn from the
    untilted prior, whose tail P(w > x) ~ 1/x gives the number of jumps per
    job an infinite mean, so job time has no stable average.  100 trials, not
    50, keep the 3-SE lower-bound test from false alarms.
    """

    name = "ldp_track"
    trials = 100
    eta = 1.5
    calls_per_job = {"walk._simulate_batch": trials}

    def setup(self, rwrc, workdir):
        super().setup(rwrc, workdir)
        self.dom = rwrc.build_domain([[0], [1]], 1)
        self.g = rwrc.solve_L(self.dom, self.eta).minimizer
        return []

    def run(self, k, seed):
        config = self.rwrc.ExperimentConfig.from_dict(
            {
                "domain": {"type": "sites", "sites": [[0], [1]], "d": 1},
                "law": {"eta": self.eta, "D": 1.0},
                "times": [16.0],
                "trials": self.trials,
                "inner_trials": 400,
                "deltas": [0.6, 0.3],
                "seed": seed,
            }
        )
        return self.rwrc.ldp_point_check(config, self.g)

    def collect(self, k, seed, report):
        logs = {row["delta"]: row["log_estimate"] for row in report["rows"]}
        return {
            "ok": report["lower_bound_ok"],
            "log_wide": logs[0.6],
            "log_narrow": logs[0.3],
            "bits": json.dumps(report, sort_keys=True),
        }

    def check(self, out):
        if not out["ok"]:
            return "lower bound check failed"
        if not out["log_wide"] >= out["log_narrow"]:
            return f"delta 0.6 log-estimate {out['log_wide']!r} below delta 0.3 {out['log_narrow']!r}"
        return None

    def perturb(self, out):
        return dict(out, log_wide=out["log_narrow"] - 1.0)


def k_const(eta: float) -> float:
    """(1 + 1/eta) * eta**(1/(eta+1)) at D = 1, written out independently of rwrc."""
    return (1.0 + 1.0 / eta) * eta ** (1.0 / (eta + 1.0))


class VariationalCert(Workload):
    """`solve-variational --domain box1d:1 --brute-force`, then
    `nonexit --method quadrature --times 1e2,1e4,1e6,1e8`, eta cycling."""

    name = "variational_cert"
    etas = ("0.5", "1", "2")
    calls_per_job = {"variational.solve_L": 1, "variational.brute_force_L": 1}

    def run(self, k, seed):
        eta = self.etas[(seed + k) % 3]
        return (
            self.rwrc.run_cli(
                ["solve-variational", "--domain", "box1d:1", "--eta", eta, "--brute-force",
                 "--out", self._out("variational.json")]
            ),
            self.rwrc.run_cli(
                ["nonexit", "--method", "quadrature", "--eta", eta, "--times", "1e2,1e4,1e6,1e8",
                 "--out", self._out("quadrature.csv")]
            ),
        )

    def collect(self, k, seed, codes):
        doc = json.loads(self._take("variational.json"))
        text = self._take("quadrature.csv")
        last = text.splitlines()[-1].split(",")
        return {
            "codes": codes,
            "eta": doc["config"]["law"]["eta"],
            "L": doc["L"],
            "brute_force_L": doc["brute_force_L"],
            "t": float(last[0]),
            "rescaled": float(last[4]),
            "bits": _strip_wall(doc) + text,
        }

    def check(self, out):
        if out["codes"] != (0, 0):
            return f"exit codes {out['codes']}"
        if abs(out["L"] - out["brute_force_L"]) > 1e-3:
            return f"L {out['L']!r} and brute force {out['brute_force_L']!r} differ by more than 1e-3"
        target = -2.0 * k_const(out["eta"])
        if out["t"] != 1e8 or abs(out["rescaled"] - target) > 0.02 * abs(target):
            return f"rescaled {out['rescaled']!r} at t={out['t']!r} not within 2% of {target!r}"
        return None

    def perturb(self, out):
        return dict(out, brute_force_L=out["brute_force_L"] + 2e-3)


WORKLOADS = {w.name: w for w in (AnnealedMC, PathReweight, LdpTrack, VariationalCert)}
