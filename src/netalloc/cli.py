"""Command line entry point.

Subcommands:
  simulate  - benchmark sweeps over random networks, CSV output
  allocate  - compute an allocation for user network/covariate files
  validate  - cross-check mean-field, sampling, and exact welfare
  bounds    - emit the closed-form guarantee report for an instance

Exit codes: 0 success, 2 validation failure, 1 runtime error.
"""

from __future__ import annotations

import json
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
from .model import PARAM_SETS

# Every flag, by the parameter it fills; apart from config_path and out, that
# is the config key it overrides.
OPTIONS = {
    "config_path": click.option("--config", "config_path", type=click.Path(exists=True)),
    "sizes": click.option("--n", "sizes", type=int, multiple=True),
    "densities": click.option("--density", "densities", type=float, multiple=True),
    "param_sets": click.option("--param-set", "param_sets", multiple=True,
                               type=click.Choice(list(map(str, PARAM_SETS))),
                               callback=lambda c, p, v: tuple(map(int, v))),
    "kappa": click.option("--kappa", type=int),
    "kappa_frac": click.option("--kappa-frac", type=float),
    "replications": click.option("--reps", "replications", type=int),
    "seed": click.option("--seed", type=int),
    "out": click.option("--out", type=click.Path(), default="."),
    "evaluators": click.option("--evaluator", "evaluators", multiple=True,
                               type=click.Choice(list(EVALUATORS))),
    "workers": click.option("--workers", type=int),
    "methods": click.option("--method", "methods", type=click.Choice(METHODS), multiple=True),
    "method": click.option("--method", type=click.Choice(list(ALLOCATORS))),
    "network_file": click.option("--network", "network_file", type=click.Path(exists=True)),
    "covariates_file": click.option("--covariates", "covariates_file",
                                    type=click.Path(exists=True)),
    "mcmc_check": click.option("--mcmc-check", is_flag=True, default=None),
}
_SWEEP = ("config_path", "sizes", "densities", "param_sets", "kappa", "kappa_frac",
          "replications", "seed", "out", "evaluators")
_FILES = ("config_path", "out", "network_file", "covariates_file")
# The flags each command reads.
COMMAND_OPTIONS = {
    "simulate": (*_SWEEP, "workers", "methods"),
    "validate": _SWEEP,
    "allocate": (*_FILES, "kappa", "kappa_frac", "seed", "method", "mcmc_check"),
    "bounds": _FILES,
}


def _options(fn):
    """Attach the flags that COMMAND_OPTIONS lists for the command ``fn``."""
    for name in reversed(COMMAND_OPTIONS[fn.__name__]):
        fn = OPTIONS[name](fn)
    return fn


def _build_config(config_path=None, out=".", **flags):
    """The config file's settings with the given flags laid over them, read
    once by ``ExperimentConfig.from_dict``; and the output directory, which
    the writers make only once there is a result to write."""
    raw = {}
    if config_path:
        with open(config_path) as fh:
            raw = json.load(fh)
    if isinstance(raw, dict):  # the reader names a config that is not a mapping
        raw.update({k: v for k, v in flags.items() if v not in (None, ())})
    return ExperimentConfig.from_dict(raw), Path(out)


@click.group()
def main():
    """Equilibrium-welfare treatment targeting on social networks."""


@main.command()
@_options
def simulate(**flags):
    """Run a benchmark sweep and write welfare_table.csv."""
    cfg, out_dir = _build_config(**flags)
    rows = run_simulate(cfg)
    target = out_dir / "welfare_table.csv"
    write_simulate_csv(target, rows)
    click.echo(f"wrote {target}")


@main.command()
@_options
def validate(**flags):
    """Cross-check approximations; exits 2 when any check fails."""
    cfg, out_dir = _build_config(**flags)
    report, ok = run_validate(cfg)
    target = out_dir / "validation_report.json"
    write_json(target, report)
    summary = report["summary"]
    click.echo(f"wrote {target} ({summary['checks']} checks, {summary['failed']} failed)")
    if not ok:
        sys.exit(2)


@main.command()
@_options
def allocate(**flags):
    """Compute an allocation for user data; writes allocation.json and
    bounds_report.json."""
    cfg, out_dir = _build_config(**flags)
    result = run_allocate(cfg)
    alloc_path = out_dir / "allocation.json"
    bounds_path = out_dir / "bounds_report.json"
    write_json(alloc_path, result["allocation"])
    write_json(bounds_path, result["bounds"])
    click.echo(f"wrote {alloc_path}")
    click.echo(f"wrote {bounds_path}")


@main.command()
@_options
def bounds(**flags):
    """Emit the guarantee report for a file-based instance."""
    cfg, out_dir = _build_config(**flags)
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
