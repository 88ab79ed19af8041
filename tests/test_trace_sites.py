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

from netalloc import allocate
from netalloc.allocate import GreedyStep
from netalloc.meanfield import BatchSolution, MeanFieldSolution, instance_certified
from netalloc.model import feasible_allocations
from tests.conftest import protocol_instance

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


def test_allocate_calls_go_through_its_module_attributes(monkeypatch):
    # The tracer counts solves and batches by swapping ``allocate``'s
    # attributes; a call routed around them would be recorded nowhere.
    calls = {"solve_allocation": 0, "batch_fixed_point": 0}

    def counting(name):
        fn = getattr(allocate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(allocate, name, counting(name))

    def run(fn, *args):
        calls.update(dict.fromkeys(calls, 0))
        return fn(*args), dict(calls)

    certified = protocol_instance(30, density=0.3, seed=4)
    assert instance_certified(certified)
    _, seen = run(allocate.greedy, certified, 4)
    assert seen == {"solve_allocation": 1, "batch_fixed_point": 4}

    uncertified = protocol_instance(25, density=0.4, set_id=2, seed=0)
    assert not instance_certified(uncertified)
    (_, trace), seen = run(allocate.greedy, uncertified, 3)
    assert seen == {"solve_allocation": 1 + 25 + 24 + 23, "batch_fixed_point": 0}
    assert sum(s.screened for s in trace) == 25 + 24 + 23

    small = protocol_instance(14, density=0.3, seed=1)
    assert instance_certified(small)
    count = len(feasible_allocations(14, 4))  # 1,471: two chunks of 1,024
    _, seen = run(allocate.bfva, small, 4)
    assert seen == {"solve_allocation": 0, "batch_fixed_point": -(-count // 1024)}
