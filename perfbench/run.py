"""rwrc benchmark: one workload per call, one result line.

    python3 perfbench/run.py --workload annealed_mc --seed 1 --seconds 26 --trace 0

Runs from the root of a source checkout (rwrc is imported from src/).  The
workload runs as a closed loop of jobs in its own single-threaded process
(worker.py).  Set-up, from process start to the first job, is measured in
that process and in SETUPS - 1 more that only set up; the median is
reported.  Times are scaled to a reference machine speed by an interleaved
probe (probe.py); the raw figures are in the run record.  With --trace 0 the last line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The exit code is 0 only if
every process ran to the end; "correct" says whether every output check and
self-check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from probe import REFERENCE_MS, probe_ms
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 4
TIMEOUT_S = 170.0


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker and wait for its "ready" line.

    Returns the process, the raw set-up seconds and the machine probe (ms)
    taken just before the start.
    """
    probe = statistics.median(probe_ms() for _ in range(5))
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    if time.monotonic() > deadline:
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up ran past the time limit")
    return proc, setup_s, probe


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="busy time of the measured jobs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rwrc", "__init__.py")):
        print("perfbench: no rwrc sources under src/rwrc; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    load_start = loadavg()
    setups = []                  # (raw seconds, probe ms)
    proc = None
    try:
        for _ in range(0 if args.trace else SETUPS - 1):    # a traced run reports no setup_s
            p, s, pr = start_worker(args, True, deadline)
            p.communicate(timeout=max(1.0, deadline - time.monotonic()))
            setups.append((s, pr))
        proc, s, pr = start_worker(args, False, deadline)
        setups.append((s, pr))
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    doc = json.loads(out.strip().splitlines()[-1])

    metrics = doc["metrics"]
    if not args.trace:
        scaled = [s * REFERENCE_MS / pr for s, pr in setups]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": doc["attempted"],
        "z_alarms": doc["z_alarms"],
        "setup_raw_s": [s for s, _ in setups],
        "setup_probe_ms": [pr for _, pr in setups],
        "raw": doc["raw"],
        "probe_ms_median": doc["probe_ms_median"],
        "failure_reasons": doc["failure_reasons"],
        "problems": doc["problems"],
        "environment": dict(doc["environment"], git_commit=git_commit()),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
    }
    print(json.dumps(run_info))
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]['value']:14.6g} {metrics[name]['unit']}")
    result = {
        "correct": doc["failed"] == 0 and not doc["problems"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
