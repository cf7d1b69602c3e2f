"""Machine-speed probe, used to scale timings to one reference speed.

On a shared host the CPU time this benchmark gets per second drifts, by up
to 1.6x within minutes, for every workload and for set-up alike.  The probe
is a fixed piece of interpreter-bound work (numpy scalar indexing and a Python
integer loop, the kind of work rwrc's hot loops do) that shares nothing with
rwrc.  Every timing is reported as ``t * REFERENCE_MS / probe``, where
``probe`` is the probe's time measured next to ``t``: the time the work would
take on a machine where the probe takes REFERENCE_MS.  Raw times are kept in
the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 2.0


def probe_ms() -> float:
    """Wall time of one fixed unit of interpreter-bound work, in ms."""
    t0 = time.perf_counter()
    a = np.arange(81, dtype=float).reshape(9, 9) / 81.0
    s = 0.0
    for _ in range(12):
        for p in range(9):
            for q in range(9):
                s += a[p, q] * a[q, p] - a[p, p]
                a[p, q] = s * 1e-9
    x = 0
    for i in range(20000):
        x += i * i
    return (time.perf_counter() - t0) * 1e3


def local_scale(probes: list[float], i: int, half: int = 2) -> float:
    """REFERENCE_MS over the median probe within `half` places of i."""
    window = probes[max(0, i - half) : i + half + 1]
    return REFERENCE_MS / statistics.median(window)
