"""Freeze the outputs that later runs are checked against.

Runs one pass of every workload for each of the seeds 0-19 and writes the
treated sets and welfare values to ``reference.json``:

    python3 perfbench/freeze_reference.py

Freeze from a version whose results are trusted; a benchmark run on a
seed listed here fails when its outputs leave the stated tolerances.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

SEEDS = range(20)


def _dump(frozen: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, rows in frozen.items():
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(records, sort_keys=True)}"
                          for seed, records in rows.items())
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    run.prepare()
    from workloads import WORKLOADS

    frozen, failures = {}, []
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
                if hasattr(workload, "write_inputs"):
                    workload.write_inputs(seed, workdir)
                ctx = workload.setup(seed, workdir)
                records, problems = [], []
                for i in range(workload.ops_per_pass):
                    allocations, found = workload.check(ctx, i, workload.op(ctx, i))
                    records.append(allocations)
                    problems += found
            if problems:
                failures.append(f"{name} seed {seed}: {problems}")
            frozen.setdefault(name, {})[str(seed)] = records
            print(f"ran {name} seed {seed}", flush=True)
    if failures:
        sys.exit("not frozen, checks failed:\n" + "\n".join(failures))
    (run.HERE / "reference.json").write_text(_dump(frozen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
