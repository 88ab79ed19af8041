"""netalloc benchmark: one workload per process, run as a closed loop.

Run from the root of a netalloc checkout:

    python3 perfbench/run.py --workload greedy_dense --seed 1 --seconds 34 --trace 0

The workload's inputs come from ``--seed``. The run alternates set-up
(instance building and first-use caches, timed on its own) with passes of
the workload, one operation after another on the same inputs, and stops
before the next pass would overrun ``--seconds``. Every output is checked,
outside the timed region, against invariants and, for seeds in
``reference.json``, against outputs frozen from an earlier version.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced, and reports per-layer metrics per pass,
their self times, and the tracing overhead; the spans are written to
``.perfbench-out/``. The last line of standard output is one JSON object
with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import COUNT_NAMES, SETUP_SPANS, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: on a shared two-core machine a second thread made run
# times spread more from run to run (see README.md).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in chunks, one before the first pass and one after every
# pass, each of at least SETUP_CHUNK_REPS repetitions and SETUP_CHUNK_SECONDS;
# setup_s is the median of all repetitions. The machine's speed drifts over
# seconds, so set-ups timed all in one stretch spread more from run to run.
SETUP_CHUNK_REPS, SETUP_CHUNK_SECONDS = 3, 1.0
# glibc serves blocks above its mmap threshold with fresh mappings whose pages
# fault in on first touch, and raises the threshold, for good, to the size of
# the largest such block freed (up to 32 MiB). Freeing one block of this size
# before anything is timed puts every run in the state a long-lived process
# reaches; otherwise greedy_dense set-up took 12 ms before its first pass and
# 6 ms after it, and setup_s flipped between the two from run to run.
WARM_ALLOCATOR_BYTES = 24 << 20

# run_s is the timed phase's wall time divided by its passes. The machine's
# speed drifts over seconds, and the mean averages that drift over the whole
# timed phase, where a median of a few passes keeps a single one of them.
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{name}{suffix}": "s" for name in SPAN_NAMES for suffix in ("_s", "_self_s")},
    **{name: "count" for name in COUNT_NAMES},
    "exact.allocations_per_s": "1/s",
    "dynamics.steps_per_s": "1/s",
    "allocate.candidates_per_s": "1/s",
    "allocate.greedy_round_s": "s",
    "model.coupling_bytes": "bytes",
    "model.similarity_bytes": "bytes",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def prepare():
    """Pin the BLAS thread count and import netalloc from ``src/`` of the
    checkout that holds this file; exit with an error when it is absent."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    pkg = ROOT / "src" / "netalloc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no netalloc package at {pkg}; run from a netalloc checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import netalloc

    if Path(netalloc.__file__).resolve().parent != pkg:
        sys.exit(f"error: imported netalloc from {netalloc.__file__}, not from {pkg}")


def clear_caches():
    """Empty every functools cache in the package, so set-up pays for them."""
    for name, module in list(sys.modules.items()):
        if name == "netalloc" or name.startswith("netalloc."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def cold_setup(workload, seed, workdir):
    """Build the workload's context with every package cache emptied."""
    clear_caches()
    return workload.setup(seed, workdir)


def setup_chunk(workload, seed, workdir, times):
    """Repeated cold set-ups for one chunk; append their times to ``times``
    and return the last context."""
    start, count = time.perf_counter(), 0
    while count < SETUP_CHUNK_REPS or time.perf_counter() - start < SETUP_CHUNK_SECONDS:
        ctx = None  # drop the previous instances before building new ones
        clear_caches()
        t0 = time.perf_counter()
        ctx = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
        count += 1
    return ctx


@dataclass
class Outcome:
    """Pass times and correctness tallies of a run."""

    passes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_passes(workload, budget, outcome, reference, setup, tracer=None):
    """Build a context with ``setup()`` and run one pass on it, over and over,
    until the next round would end after ``budget`` seconds (one at least).
    Only the ``op`` calls are timed. Checks run unrecorded by ``tracer``.
    Returns the last context."""
    from workloads import compare_reference

    start, count, ctx = time.perf_counter(), 0, None
    while True:
        ctx = None  # drop the previous instances before building new ones
        ctx = setup()
        elapsed_ops = 0.0
        for i in range(workload.ops_per_pass):
            # A raising op or check is a failed op, not a crash of the run.
            t0 = time.perf_counter()
            try:
                out = workload.op(ctx, i)
            except Exception as exc:
                out, problems = None, [f"{type(exc).__name__}: {exc}"]
            elapsed_ops += time.perf_counter() - t0
            if out is not None:
                try:
                    with tracer.only(()) if tracer else contextlib.nullcontext():
                        allocations, problems = workload.check(ctx, i, out)
                    if reference is not None:
                        problems += compare_reference(reference[i], allocations, workload.n)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            outcome.attempted += workload.units
            if problems:
                outcome.failed += workload.units
                outcome.problems += [f"op {i}: {p}" for p in problems]
        outcome.passes.append(elapsed_ops)
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count > budget:
            return ctx


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "caches": _cache_sizes(),
        "working_set_mb": round(workload.working_set_mb(), 3),
    }


def load_reference(workload, seed):
    """The frozen outputs for this seed, for the full-size workloads only."""
    from workloads import WORKLOADS

    path = HERE / "reference.json"
    if workload != WORKLOADS[workload.name] or not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh).get(workload.name, {}).get(str(seed))


def layer_metrics(tracer, passes: int, footprint: dict) -> dict:
    """Per-pass layer times, self times, counts and rates from the trace."""
    total, own = tracer.totals()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = total.get(name, 0.0) / passes
        metrics[f"{name}_self_s"] = own.get(name, 0.0) / passes
    counts = {k: v / passes for k, v in tracer.counts.items()}
    for name in COUNT_NAMES:
        metrics[name] = counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["exact.allocations_per_s"] = ratio(
        metrics["exact.allocations_evaluated"], metrics["exact.welfare_of_allocations_s"])
    metrics["dynamics.steps_per_s"] = ratio(
        metrics["dynamics.steps"], metrics["dynamics.mcmc_welfare_s"])
    metrics["allocate.candidates_per_s"] = ratio(
        metrics["allocate.candidates_evaluated"], metrics["allocate.greedy_s"])
    metrics["allocate.greedy_round_s"] = ratio(
        metrics["allocate.greedy_s"], counts.get("allocate.greedy_rounds", 0))
    metrics.update(footprint)
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    import numpy as np

    # Allocated and freed at once, never touched: it adds nothing to the RSS.
    np.empty(WARM_ALLOCATOR_BYTES // 8)
    reference = load_reference(workload, seed)
    outcome = Outcome()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if hasattr(workload, "write_inputs"):
            workload.write_inputs(seed, workdir)
        report = {"reference": reference is not None}
        if not trace:
            times = []

            def chunk():
                return setup_chunk(workload, seed, workdir, times)

            run_passes(workload, seconds - SETUP_CHUNK_SECONDS, outcome, reference, chunk)
            chunk()  # after the last pass too, so set-up is sampled through the run
            report["setup_reps"] = len(times)
            values = {"run_s": statistics.fmean(outcome.passes),
                      "setup_s": statistics.median(times), "peak_rss_mb": peak_rss_mb()}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        else:
            run_passes(workload, seconds / 2, outcome, reference,
                       lambda: cold_setup(workload, seed, workdir))
            untraced = statistics.fmean(outcome.passes)
            first = len(outcome.passes)
            with Tracer() as tracer:
                # Set-up records only the layers that build the instance; the
                # warm-up calls it makes into the run's layers stay out.
                def traced_setup():
                    with tracer.only(SETUP_SPANS):
                        return cold_setup(workload, seed, workdir)

                ctx = run_passes(workload, seconds / 2, outcome, reference, traced_setup,
                                 tracer)
            traced_passes = outcome.passes[first:]
            traced = statistics.fmean(traced_passes)
            values = layer_metrics(tracer, len(traced_passes), ctx["footprint"])
            values.update({"trace.run_s": traced, "trace.untraced_run_s": untraced,
                           "trace.overhead_s": traced - untraced})
            metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
            report["missing_sites"] = tracer.missing
            if out_dir is not None:
                out_dir.mkdir(exist_ok=True)
                path = out_dir / f"spans-{workload.name}-seed{seed}.json"
                with open(path, "w") as fh:
                    json.dump({"fields": ["name", "parent", "start", "end"],
                               "spans": tracer.spans}, fh)
                report["spans_file"] = os.path.relpath(path, ROOT)
    report.update(passes=len(outcome.passes), problems=outcome.problems[:20],
                  failed_frac=outcome.failed / outcome.attempted)
    return {
        "report": report,
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    prepare()
    from workloads import WORKLOADS, GuardError

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(workload), sort_keys=True), flush=True)
    try:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                               out_dir=ROOT / ".perfbench-out")
    except GuardError as exc:
        sys.exit(f"error: path guard failed: {exc}")
    print("report " + json.dumps(outcome["report"], sort_keys=True))
    for name, m in outcome["result"]["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
