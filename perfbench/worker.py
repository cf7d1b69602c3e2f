"""One benchmark process: set up a workload, run its jobs, check their outputs.

Started by run.py.  It prints "ready" once set-up is done, so the parent can
time set-up from process start, then (unless --setup-only) runs jobs for the
given number of busy seconds and prints one JSON line with its measurements.
With --trace 1 it runs the same job seeds twice, untraced and then traced,
each for half the seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

from probe import local_scale, probe_ms
from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def job_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def run_jobs(wl, seeds, budget_s: float, tracer=None) -> tuple[list[float], list[float], list]:
    """Run jobs until they have been busy for budget_s.

    Returns each job's time in seconds, the machine probe (ms) taken before
    each job and once after the last, and each job's output.  A job that
    raises is recorded with output None and counts as failed.
    """
    times, probes, outs = [], [], []
    started = time.perf_counter()
    busy = 0.0
    k = 0
    while busy < budget_s and time.perf_counter() - started < 3.0 * budget_s + 30.0:
        seed = seeds[k % len(seeds)]
        probes.append(probe_ms())
        if tracer is not None:
            tracer.job = k
        t0 = time.perf_counter()
        try:
            raw = wl.run(k, seed)
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            raw = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = -1
        busy += dt
        times.append(dt)
        outs.append(None if raw is None else collect(wl, k, seed, raw))
        k += 1
    probes.append(probe_ms())
    return times, probes, outs


def collect(wl, k, seed, raw):
    """The job's output, or None when it left none that can be read."""
    try:
        return wl.collect(k, seed, raw)
    except (OSError, ValueError, KeyError, IndexError):
        return None


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Job times scaled to the reference machine speed (see probe.py)."""
    return [t * local_scale(probes, i) for i, t in enumerate(times)]


def check_outputs(wl, outs) -> tuple[int, int, list[str]]:
    """Failed job count, z-alarm count and the first few failure reasons."""
    failed = alarms = 0
    reasons = []
    for out in outs:
        why = "job raised or left no output" if out is None else wl.check(out)
        if why == "z_alarm":
            alarms += 1
        elif why is not None:
            failed += 1
            reasons.append(why)
    return failed, alarms, reasons[:5]


def self_check_perturbed(wl, outs) -> list[str]:
    """A perturbed good output must be counted as a failure."""
    good = [o for o in outs if o is not None and wl.check(o) is None]
    if good and wl.check(wl.perturb(good[0])) in (None, "z_alarm"):
        return ["perturbed output passed the output check"]
    return []


def timing_metrics(times: list[float]) -> dict:
    ms = [t * 1e3 for t in times]
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
    }


def trace_metrics(tracer, n_jobs: int, untraced_jps: float, traced_jps: float, probe: float) -> dict:
    out = {}
    totals = tracer.layer_totals()
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        out[f"{name}.calls"] = (calls / n_jobs, "count/job")
        out[f"{name}.self_ms"] = (self_s * 1e3 / n_jobs, "ms/job")
    c = tracer.counts
    for key in (
        "spectral.eigen.n3_sum",
        "spectral.semigroup_nonexit.zeros",
        "spectral.clamp_warnings",
        "walk.simulate.jumps",
        "walk._simulate_batch.paths",
        "variational.solve_L.iterations",
        "variational.brute_force_L.evals",
    ):
        out[key] = (c[key] / n_jobs, "count/job")
    restarts = c["variational.solve_L.restarts"]
    out["variational.solve_L.converged_frac"] = (
        c["variational.solve_L.converged_restarts"] / restarts if restarts else 0.0, "ratio")
    ess_trials = c["experiments.ess_trials"]
    out["experiments.ess_frac"] = (c["experiments.ess"] / ess_trials if ess_trials else 0.0, "ratio")
    out["trace.spans"] = (len(tracer.spans) / n_jobs, "count/job")
    out["trace.untraced_jobs_per_s"] = (untraced_jps, "1/s")
    out["trace.traced_jobs_per_s"] = (traced_jps, "1/s")
    out["trace.slowdown"] = (untraced_jps / traced_jps, "ratio")
    out["machine.probe_ms"] = (probe, "ms")
    return out


def self_check_trace(wl, tracer, plain_outs, traced_outs) -> list[str]:
    """Every traced job made the calls its shape implies and gave the
    untraced output bit for bit."""
    problems = []
    for name, expected in wl.calls_per_job.items():
        per_job = tracer.calls_by_job(name)
        bad = [k for k in range(len(traced_outs)) if per_job.get(k, 0) != expected]
        if bad:
            problems.append(
                f"{name}: job {bad[0]} made {per_job.get(bad[0], 0)} calls, expected {expected}"
            )
    for k, (a, b) in enumerate(zip(plain_outs, traced_outs)):
        if a is None or b is None or a["bits"] != b["bits"]:
            problems.append(f"traced job {k} output differs from the untraced one")
            break
    return problems


def _blas_threads(numpy) -> int | None:
    """Thread count the bundled OpenBLAS runs with, if it can be asked."""
    libs = glob.glob(
        os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*.so*")
    )
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(rwrc) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rwrc": rwrc.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(numpy),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import rwrc

    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        wl = WORKLOADS[args.workload]()
        problems = wl.setup(rwrc, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        seeds = job_seeds(args.seed, 10_000)
        result_stream = sys.stdout
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if args.trace:
                times, probes, outs = run_jobs(wl, seeds, args.seconds / 2.0)
                tracer = Tracer()
                tracer.install()
                try:
                    ttimes, tprobes, touts = run_jobs(wl, seeds, args.seconds / 2.0, tracer)
                finally:
                    tracer.uninstall()
                tracer.write_spans(os.path.join(workroot, f"spans_{wl.name}.csv"))
                problems += self_check_trace(wl, tracer, outs, touts)
                plain, traced = scaled(times, probes), scaled(ttimes, tprobes)
                metrics = trace_metrics(
                    tracer, len(ttimes), len(plain) / sum(plain), len(traced) / sum(traced),
                    statistics.median(tprobes),
                )
                times, probes, outs = times + ttimes, probes + tprobes, outs + touts
            else:
                times, probes, outs = run_jobs(wl, seeds, args.seconds)
                metrics = timing_metrics(scaled(times, probes))
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        failed, alarms, reasons = check_outputs(wl, outs)
        good = [o for o in outs if o is not None and wl.check(o) in (None, "z_alarm")]
        problems += wl.finish(good) + self_check_perturbed(wl, outs)
        if args.trace:
            metrics["checks.z_alarms"] = (alarms, "count")
        doc = {
            "raw": {k: v for k, (v, _) in timing_metrics(times).items()},
            "probe_ms_median": statistics.median(probes),
            "attempted": len(times),
            "failed": failed,
            "z_alarms": alarms,
            "failure_reasons": reasons,
            "problems": problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "environment": environment(rwrc),
        }
        print(json.dumps(doc), file=result_stream, flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
