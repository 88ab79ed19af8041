"""Golden outputs: fixed-seed CLI runs must reproduce stored files byte for byte.

The files under ``tests/data`` were written by the code before the run layer
was consolidated into one method table and one evaluator registry; any
change to seeds, dispatch order or arithmetic shows up here.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from netalloc.cli import main
from test_cli import make_toy_files

DATA = Path(__file__).parent / "data"
METHODS = ("brute", "bfva", "greedy", "random", "none")
EVALUATORS = ("exact", "va", "mcmc")


def simulate_args(tmp_path, workers):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {"sampler": {"sweeps": 60, "burn_in": 20}, "random_draws": 3, "exact_cap": 6}
        )
    )
    args = [
        "simulate", "--config", str(cfg), "--param-set", "1", "--param-set", "2",
        "--n", "6", "--n", "8", "--density", "0.4", "--reps", "2", "--seed", "11",
        "--workers", str(workers), "--out", str(tmp_path / "out"),
    ]
    for m in METHODS:
        args += ["--method", m]
    for e in EVALUATORS:
        args += ["--evaluator", e]
    return args


@pytest.mark.parametrize("workers", [1, 2])
def test_welfare_table_matches_golden(tmp_path, workers):
    """Covers every method and evaluator, uncertified (set 2) solves, and
    exact_infeasible rows (n = 8 above exact_cap = 6); two worker processes
    must write the same bytes as one."""
    result = CliRunner().invoke(main, simulate_args(tmp_path, workers))
    assert result.exit_code == 0, result.output
    got = (tmp_path / "out" / "welfare_table.csv").read_bytes()
    assert got == (DATA / "welfare_table_golden.csv").read_bytes()


@pytest.mark.parametrize("method", ["greedy", "bfva", "brute", "none"])
def test_allocation_matches_golden(tmp_path, method):
    """allocation.json equals the golden file once the per-round
    ``nonconverged`` lists, added after the golden files were written, are
    checked and removed."""
    cfg = make_toy_files(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["allocate", "--config", str(cfg), "--method", method, "--mcmc-check",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    record = json.loads((out / "allocation.json").read_text())
    for step in record["trace"]:
        assert step.pop("nonconverged") == []
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert text == (DATA / f"allocation_{method}_golden.json").read_text()
