"""Command line entry point.

Subcommands:
  simulate  - benchmark sweeps over random networks, CSV output
  allocate  - compute an allocation for user network/covariate files
  validate  - cross-check mean-field, sampling, and exact welfare
  bounds    - emit the closed-form guarantee report for an instance

Exit codes: 0 success, 2 validation failure, 1 runtime error.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click

from .experiments import (
    ALLOCATORS,
    EVALUATORS,
    METHODS,
    ExperimentConfig,
    run_allocate,
    run_bounds,
    run_simulate,
    run_validate,
    write_json,
    write_simulate_csv,
)


def _load_config(config_path, **overrides) -> ExperimentConfig:
    if config_path:
        cfg = ExperimentConfig.from_file(config_path)
    else:
        cfg = ExperimentConfig()
    updates = {k: v for k, v in overrides.items() if v is not None}
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _common_options(fn):
    decorators = [
        click.option("--config", "config_path", type=click.Path(exists=True)),
        click.option("--n", "sizes", type=int, multiple=True),
        click.option("--density", "densities", type=float, multiple=True),
        click.option("--param-set", "param_sets", type=click.Choice(["1", "2"]), multiple=True),
        click.option("--kappa", type=int),
        click.option("--kappa-frac", type=float),
        click.option("--reps", "replications", type=int),
        click.option("--seed", type=int),
        click.option("--out", type=click.Path(), default="."),
        click.option("--evaluator", "evaluators", type=click.Choice(list(EVALUATORS)), multiple=True),
        click.option("--mode", type=click.Choice(["gauss-seidel", "jacobi"])),
        click.option("--workers", type=int),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def _build_config(config_path, out, mode, **kw):
    overrides = {}
    for key in ("sizes", "densities", "evaluators"):
        if kw.get(key):
            overrides[key] = tuple(kw[key])
        kw.pop(key, None)
    if kw.get("param_sets"):
        overrides["param_sets"] = tuple(int(s) for s in kw["param_sets"])
    kw.pop("param_sets", None)
    overrides.update({k: v for k, v in kw.items() if v is not None})
    cfg = _load_config(config_path, **overrides)
    if mode:
        cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, mode=mode))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


@click.group()
def main():
    """Equilibrium-welfare treatment targeting on social networks."""


@main.command()
@_common_options
@click.option("--method", "methods", multiple=True,
              type=click.Choice(METHODS))
def simulate(config_path, out, mode, methods, **kw):
    """Run a benchmark sweep and write welfare_table.csv."""
    cfg, out_dir = _build_config(config_path, out, mode, **kw)
    if methods:
        cfg = dataclasses.replace(cfg, methods=tuple(methods))
    rows = run_simulate(cfg)
    target = out_dir / "welfare_table.csv"
    write_simulate_csv(target, rows)
    click.echo(f"wrote {target}")


@main.command()
@_common_options
def validate(config_path, out, mode, **kw):
    """Cross-check approximations; exits 2 when any check fails."""
    cfg, out_dir = _build_config(config_path, out, mode, **kw)
    report, ok = run_validate(cfg)
    target = out_dir / "validation_report.json"
    write_json(target, report)
    summary = report["summary"]
    click.echo(
        f"wrote {target} ({summary['checks']} checks, {summary['failed']} failed)"
    )
    if not ok:
        sys.exit(2)


@main.command()
@_common_options
@click.option("--network", "network_file", type=click.Path(exists=True))
@click.option("--covariates", "covariates_file", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(list(ALLOCATORS)))
@click.option("--mcmc-check", is_flag=True, default=None)
def allocate(config_path, out, mode, **kw):
    """Compute an allocation for user data; writes allocation.json and
    bounds_report.json."""
    cfg, out_dir = _build_config(config_path, out, mode, **kw)
    result = run_allocate(cfg)
    alloc_path = out_dir / "allocation.json"
    bounds_path = out_dir / "bounds_report.json"
    write_json(alloc_path, result["allocation"])
    write_json(bounds_path, result["bounds"])
    click.echo(f"wrote {alloc_path}")
    click.echo(f"wrote {bounds_path}")


@main.command()
@_common_options
@click.option("--network", "network_file", type=click.Path(exists=True))
@click.option("--covariates", "covariates_file", type=click.Path(exists=True))
def bounds(config_path, out, mode, **kw):
    """Emit the guarantee report for a file-based instance."""
    cfg, out_dir = _build_config(config_path, out, mode, **kw)
    report = run_bounds(cfg)
    target = out_dir / "bounds_report.json"
    write_json(target, report)
    click.echo(f"wrote {target}")


def entry():
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:  # pragma: no cover - click plumbing
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entry()
