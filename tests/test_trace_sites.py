"""The benchmark's tracer wraps package functions by module attribute and reads
some of their arguments by name. A rename or a moved import would make it
record nothing for that layer without failing, so check its sites here.

Loads ``perfbench/tracing.py`` by path; does not run the benchmark.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from netalloc.allocate import GreedyStep
from netalloc.meanfield import BatchSolution, MeanFieldSolution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_exists(tracing):
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in tracing.SITES
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_counters_find_their_arguments(tracing):
    # Parameters each counter reads from the bound call arguments.
    reads = {
        tracing._count_allocations: {"allocations"},
        tracing._count_steps: {"instance", "sweeps", "steps_per_sweep"},
        tracing._count_greedy: {"instance"},
    }
    seen = set()
    for mod, attr, _, counter in tracing.SITES:
        if counter not in reads:
            continue
        seen.add(counter)
        fn = getattr(importlib.import_module(mod), attr)
        params = set(inspect.signature(fn).parameters)
        assert reads[counter] <= params, f"{mod}.{attr} lacks {reads[counter] - params}"
    assert seen == set(reads)


def test_counters_find_their_result_fields():
    # Fields the counters read from results: ``_count_batch`` from a
    # BatchSolution, ``_count_solve`` and ``_count_fixed_point`` from a
    # MeanFieldSolution, ``_count_greedy`` from each GreedyStep of the trace.
    reads = {
        BatchSolution: {"iterations", "converged"},
        MeanFieldSolution: {"iterations", "converged"},
        GreedyStep: {"nonconverged"},
    }
    for cls, names in reads.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert names <= fields, f"{cls.__name__} lacks {names - fields}"
