"""Tracer that wraps the public functions of the rwrc modules from outside.

Every traced function is replaced, in every ``rwrc`` module that binds its
name, by a wrapper that records a span (name, start, end, parent span, job
id) and optional counters derived from its arguments and result.  Names
copied by ``from .spectral import semigroup_nonexit`` are patched too, so no
call escapes.  ``ConductanceField`` construction is traced by wrapping the
class's ``__init__``, which covers every binding of the class at once.

Spans are kept in memory; ``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from collections import Counter

# (module, attribute) pairs, each traced under the name "<module>.<attribute>".
TRACED = [
    ("spectral", "assemble"),
    ("spectral", "eigen"),
    ("spectral", "semigroup_nonexit"),
    ("tail_law", "quantile"),
    ("tail_law", "sample"),
    ("tail_law", "log_density"),
    ("conductance", "ConductanceField"),
    ("conductance", "site_totals"),
    ("walk", "simulate"),
    ("walk", "_simulate_batch"),
    ("girsanov", "girsanov_log_density"),
    ("variational", "solve_L"),
    ("variational", "brute_force_L"),
    ("profiles", "edge_differences"),
    ("transforms", "log_laplace_transform"),
    ("domain", "build_domain"),
    ("experiments", "run_cli"),
    ("experiments", "annealed_nonexit_mc"),
    ("experiments", "ldp_point_check"),
    ("experiments", "annealed_nonexit_quadrature"),
]

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in TRACED]


def _eigen_work(c, args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    c["spectral.eigen.n3_sum"] += op.matrix.shape[0] ** 3


def _nonexit_zeros(c, args, kwargs, result):
    c["spectral.semigroup_nonexit.zeros"] += result == 0.0


def _jumps(c, args, kwargs, result):
    c["walk.simulate.jumps"] += result.n_jumps


def _batch_paths(c, args, kwargs, result):
    c["walk._simulate_batch.paths"] += args[3] if len(args) > 3 else kwargs["n"]


def _solver_work(c, args, kwargs, result):
    c["variational.solve_L.iterations"] += result.iterations
    c["variational.solve_L.restarts"] += result.restarts
    c["variational.solve_L.converged_restarts"] += result.converged_restarts


def _oracle_evals(c, args, kwargs, result):
    # brute_force_L stores its objective evaluation count in `iterations`
    c["variational.brute_force_L.evals"] += result.iterations


def _ldp_ess(c, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    for row in result["by_time"]:
        c["experiments.ess"] += row["ess"]
        c["experiments.ess_trials"] += config.trials


COUNTERS = {
    "spectral.eigen": _eigen_work,
    "spectral.semigroup_nonexit": _nonexit_zeros,
    "walk.simulate": _jumps,
    "walk._simulate_batch": _batch_paths,
    "variational.solve_L": _solver_work,
    "variational.brute_force_L": _oracle_evals,
    "experiments.ldp_point_check": _ldp_ess,
}


class _WarningCounter(logging.Handler):
    def __init__(self, counts, key):
        super().__init__(logging.WARNING)
        self.counts = counts
        self.key = key

    def emit(self, record):
        self.counts[self.key] += 1


class Tracer:
    """Holds spans and counters; `install` patches rwrc, `uninstall` restores it."""

    def __init__(self):
        self.spans: list = []       # [name_id, start, end, parent_index, job]
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self._patched: list = []
        self._handler = None

    def _wrap(self, name_id: int, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "rwrc" or n.startswith("rwrc.")]
        for name_id, (mod, attr) in enumerate(TRACED):
            home = sys.modules[f"rwrc.{mod}"]
            original = getattr(home, attr)
            name = SPAN_NAMES[name_id]
            if isinstance(original, type):
                init = original.__init__
                self._patched.append((original, "__init__", init))
                original.__init__ = self._wrap(name_id, init, COUNTERS.get(name))
                continue
            wrapper = self._wrap(name_id, original, COUNTERS.get(name))
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)
        self._handler = _WarningCounter(self.counts, "spectral.clamp_warnings")
        logging.getLogger("rwrc.spectral").addHandler(self._handler)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._handler is not None:
            logging.getLogger("rwrc.spectral").removeHandler(self._handler)
            self._handler = None

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Call count and self time in seconds of every traced name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run has one thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_s[name_id] += (end - start) - child[i]
        return {SPAN_NAMES[k]: (calls[k], self_s[k]) for k in range(len(SPAN_NAMES))}

    def calls_by_job(self, name: str) -> dict[int, int]:
        name_id = SPAN_NAMES.index(name)
        out: dict[int, int] = {}
        for span in self.spans:
            if span[0] == name_id:
                out[span[4]] = out.get(span[4], 0) + 1
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for name_id, start, end, parent, job in self.spans:
                fh.write(f"{SPAN_NAMES[name_id]},{start!r},{end!r},{parent},{job}\n")
