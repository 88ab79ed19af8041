"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, through the same code path and correctness checks as a real run.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json

import pytest

import run

run.prepare()

import workloads  # noqa: E402  (needs the package path set by prepare)

TINY = {
    "oracle_n15": workloads.OracleN15(n=8, densities=(0.3, 0.6)),
    "greedy_dense": workloads.GreedyDense(n=40, kappa=5),
    "sparse_allocate": workloads.SparseAllocate(n=60, mean_degree=4, sweeps=2000, burn_in=500),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tiny_set_covers_every_workload():
    listed = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(TINY) == set(workloads.WORKLOADS) == listed


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name, trace, tmp_path):
    result = run.run_workload(TINY[name], seed=3, seconds=0.1, trace=trace,
                              out_dir=tmp_path)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_path_guard_stops_a_workload_off_its_path(tmp_path):
    # Parameter set 2 at a_n = 1/N breaks the certificate greedy_dense needs.
    wrong = workloads.GreedyDense(n=40, kappa=5, param_set=2)
    with pytest.raises(workloads.GuardError):
        run.run_workload(wrong, seed=3, seconds=0.1, trace=False)


def test_reference_mismatch_is_a_failure():
    ref = {"greedy": {"treated": [1, 2], "objective": 5.0, "scores": {"va": 5.0}}}
    same = {"greedy": {"treated": [1, 2], "objective": 5.0, "scores": {"va": 5.0}}}
    tied = {"greedy": {"treated": [1, 3], "objective": 5.0, "scores": {"va": 5.0}}}
    worse = {"greedy": {"treated": [1, 3], "objective": 4.9, "scores": {"va": 4.9}}}
    drift = {"greedy": {"treated": [1, 2], "objective": 5.0, "scores": {"va": 5.1}}}
    assert workloads.compare_reference(ref, same, n=10) == []
    assert workloads.compare_reference(ref, tied, n=10) == []
    assert workloads.compare_reference(ref, worse, n=10)
    assert workloads.compare_reference(ref, drift, n=10)


def test_raising_op_counts_as_failed():
    class Broken(workloads.GreedyDense):
        def op(self, ctx, i):
            raise RuntimeError("solver blew up")

    result = run.run_workload(Broken(n=40, kappa=5), seed=3, seconds=0.1,
                              trace=False)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 5


def test_traced_run_leaves_out_checks_and_setup_warm_up():
    # greedy_dense calls approx_welfare only in its check.
    dense = run.run_workload(TINY["greedy_dense"], seed=3, seconds=0.1,
                             trace=True)["result"]["metrics"]
    assert dense["meanfield.approx_welfare_s"]["value"] == 0
    assert dense["network.erdos_renyi_s"]["value"] > 0
    assert dense["allocate.greedy_s"]["value"] > 0
    sparse = run.run_workload(TINY["sparse_allocate"], seed=3, seconds=0.1,
                              trace=True)["result"]["metrics"]
    assert sparse["model.coupling_bytes"]["value"] == 60 * 60 * 8
