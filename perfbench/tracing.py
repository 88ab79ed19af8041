"""Spans around netalloc's public functions, installed at their import sites.

Each entry of ``SITES`` names a module attribute that some caller looks up
at call time, and the span name its calls are recorded under. Installing
the tracer swaps each attribute for a wrapper that records a span (name,
parent, start, end) in memory and, for some functions, adds counts read
from the arguments or the result. Nothing inside the package changes.
While ``Tracer.only`` is active, calls of other functions run unrecorded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_allocations(c, fn, args, kwargs, result):
    shape = getattr(_bind(fn, args, kwargs)["allocations"], "shape", ())
    c["exact.allocations_evaluated"] += shape[0] if len(shape) == 2 else 1


def _count_batch(c, fn, args, kwargs, result):
    c["meanfield.batch_calls"] += 1
    c["meanfield.batch_iterations"] += int(result.iterations)
    c["meanfield.batch_nonconverged"] += int((~result.converged).sum())


def _count_solve(c, fn, args, kwargs, result):
    c["meanfield.solve_calls"] += 1
    c["meanfield.solve_nonconverged"] += int(not result.converged)


def _count_fixed_point(c, fn, args, kwargs, result):
    c["meanfield.fixed_point_iterations"] += int(result.iterations)


def _count_steps(c, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    per_sweep = a["steps_per_sweep"] or a["instance"].n
    c["dynamics.steps"] += int(a["sweeps"]) * int(per_sweep)


def _count_greedy(c, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    n, rounds = a["instance"].n, len(result[1])
    c["allocate.greedy_rounds"] += rounds
    c["allocate.candidates_evaluated"] += rounds * n - rounds * (rounds - 1) // 2
    c["allocate.nonconverged_candidates"] += sum(len(s.nonconverged) for s in result[1])


def _count_weights(c, fn, args, kwargs, result):
    c["model.weights_calls"] += 1


# (module, attribute, span name, counter). One function imported into several
# modules appears once per module that calls it.
SITES = (
    ("netalloc.network", "erdos_renyi", "network.erdos_renyi", None),
    ("netalloc.experiments", "load_network", "network.load_network", None),
    ("netalloc.experiments", "load_covariates", "network.load_covariates", None),
    ("netalloc.model", "similarity_matrix", "network.similarity_matrix", None),
    ("netalloc.model", "make_instance", "model.make_instance", None),
    ("netalloc.experiments", "make_instance", "model.make_instance", None),
    ("netalloc.meanfield", "weights", "model.weights", _count_weights),
    ("netalloc.exact", "weights", "model.weights", _count_weights),
    ("netalloc.dynamics", "weights", "model.weights", _count_weights),
    ("netalloc.exact", "brute_force_optimal", "exact.brute_force_optimal", None),
    ("netalloc.exact", "welfare_of_allocations", "exact.welfare_of_allocations",
     _count_allocations),
    ("netalloc.exact", "exact_welfare", "exact.exact_welfare", None),
    ("netalloc.exact", "enumerate_gibbs", "exact.enumerate_gibbs", None),
    ("netalloc.allocate", "batch_fixed_point", "meanfield.batch_fixed_point", _count_batch),
    ("netalloc.allocate", "solve_allocation", "meanfield.solve_allocation", _count_solve),
    ("netalloc.meanfield", "solve_allocation", "meanfield.solve_allocation", _count_solve),
    ("netalloc.meanfield", "fixed_point_solve", "meanfield.fixed_point_solve",
     _count_fixed_point),
    ("netalloc.meanfield", "approx_welfare", "meanfield.approx_welfare", None),
    ("netalloc.dynamics", "mcmc_welfare", "dynamics.mcmc_welfare", _count_steps),
    ("netalloc.allocate", "greedy", "allocate.greedy", _count_greedy),
    ("netalloc.allocate", "bfva", "allocate.bfva", None),
    ("netalloc.bounds", "bounds_report", "bounds.bounds_report", None),
    ("netalloc.experiments", "load_instance", "experiments.load_instance", None),
    ("netalloc.experiments", "run_allocate", "experiments.run_allocate", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SITES))
# The functions that build an instance; the only ones recorded during set-up.
SETUP_SPANS = (
    "network.erdos_renyi",
    "network.load_network",
    "network.load_covariates",
    "network.similarity_matrix",
    "model.make_instance",
    "experiments.load_instance",
)
COUNT_NAMES = (
    "exact.allocations_evaluated",
    "meanfield.batch_calls",
    "meanfield.batch_iterations",
    "meanfield.batch_nonconverged",
    "meanfield.solve_calls",
    "meanfield.fixed_point_iterations",
    "meanfield.solve_nonconverged",
    "dynamics.steps",
    "allocate.candidates_evaluated",
    "allocate.nonconverged_candidates",
    "model.weights_calls",
)


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._only: frozenset | None = None

    @contextlib.contextmanager
    def only(self, names):
        """Record only the spans named in ``names`` inside the block."""
        saved, self._only = self._only, frozenset(names)
        try:
            yield
        finally:
            self._only = saved

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._only is not None and name not in self._only:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1,
                               time.perf_counter(), None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if counter is not None:
                counter(self.counts, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, counter in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self) -> tuple[dict, dict]:
        """Total and self seconds per span name. Self time is a span's
        duration minus the durations of its direct children, which run
        one after another in this single-threaded process."""
        total, child = Counter(), Counter()
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for idx, (name, _, start, end) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        return dict(total), dict(own)
