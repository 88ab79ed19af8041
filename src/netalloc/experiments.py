"""Experiment orchestration: benchmark sweeps, validation, and allocation runs.

Implements the simulation protocol used throughout the package benchmarks:
random fixed-edge-count networks, binary covariates drawn fair-coin per
unit, L1-distance similarity, a 30 percent treatment capacity, and
per-person welfare averaged over replications. Every random stream is
derived from one master seed, so full runs are reproducible bit for bit.

Allocation rules and welfare evaluators live in one table each
(``ALLOCATORS`` and ``EVALUATORS``); every run mode dispatches through them.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import numbers
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import allocate as alloc
from . import bounds as bnd
from . import dynamics, exact, meanfield
from .dynamics import SamplerSettings
from .model import (
    PARAM_SETS,
    Allocation,
    EnumerationCapError,
    Instance,
    ThetaParams,
    check_capacity,
    derive_seed,
    make_instance,
    weights,
)
from .network import SimilarityKernel, erdos_renyi, load_covariates, load_network


# ---------------------------------------------------------------------------
# welfare evaluators and allocation rules
# ---------------------------------------------------------------------------
# The package functions are looked up on their modules at call time, so a
# caller that swaps a module attribute (a profiler, a test double) sees
# every call.


def _exact(d, instance, cfg, seed) -> float:
    return exact.exact_welfare(d, instance, max_units=cfg.exact_cap)


def _va(d, instance, cfg, seed) -> float:
    return meanfield.approx_welfare(d, instance, cfg.solver, seed=seed)


def _mcmc(d, instance, cfg, seed) -> tuple[float, float]:
    """Simulated total welfare and its batch-means standard error."""
    s = cfg.sampler
    est, se = dynamics.mcmc_welfare(d, instance, sweeps=s.sweeps, burn_in=s.burn_in, seed=seed)
    return est * instance.n, se * instance.n


# name -> (seed base, fn). fn(d, instance, cfg, seed) is the total welfare
# of allocation d; within a simulate replication, the evaluator of the rule
# with seed tag t draws its seed from tag base + t.
EVALUATORS = {
    "exact": (0, _exact),
    "va": (10, _va),
    "mcmc": (20, lambda d, instance, cfg, seed: _mcmc(d, instance, cfg, seed)[0]),
}


def _none(instance, kappa, cfg, seed):
    return Allocation.zeros(instance.n), None, ()


def _greedy(instance, kappa, cfg, seed):
    allocation, steps = alloc.greedy(instance, kappa, cfg.solver, seed=seed)
    return allocation, None, steps


def _bfva(instance, kappa, cfg, seed):
    allocation, welfare = alloc.bfva(instance, kappa, cfg.solver, seed=seed)
    return allocation, welfare, ()


def _brute(instance, kappa, cfg, seed):
    allocation, _ = exact.brute_force_optimal(instance, kappa, max_units=cfg.exact_cap)
    return allocation, None, ()


# name -> (seed tag within a simulate replication, rule). A rule
# fn(instance, kappa, cfg, seed) returns the allocation, its mean-field
# welfare when the rule computed one (else None), and its greedy trace.
ALLOCATORS = {
    "none": (0, _none),
    "greedy": (1, _greedy),
    "bfva": (2, _bfva),
    "brute": (3, _brute),
}
# Methods of a simulate sweep: the allocation rules plus random allocations.
METHODS = (*ALLOCATORS, "random")


def simulation_instance(
    n: int,
    density: float,
    theta: ThetaParams,
    seed: int,
    kernel: SimilarityKernel | None = None,
) -> Instance:
    """One benchmark instance: random network plus binary covariates."""
    net = erdos_renyi(n, density, seed=derive_seed(seed, 0))
    rng = np.random.default_rng(derive_seed(seed, 1))
    x = rng.integers(0, 2, size=(n, 1)).astype(float)
    return make_instance(net, x, theta, kernel=kernel)


def capacity(n: int, kappa: int | None, kappa_frac: float) -> int:
    # The floor of the decimal product; in binary, 0.7 * 90 is 62.99999999999999.
    return math.floor(Decimal(str(kappa_frac)) * n) if kappa is None else check_capacity(n, kappa)


# validate's fixed tolerances: the largest mean-field vs sampler gap per
# person, the stationarity residual, how far below zero an exact KL may
# round, and the slack on the Pinsker bound.
VA_MCMC_TOL = 0.01
STATIONARITY_TOL = 1e-12
KL_NONNEG_TOL = -1e-10
PINSKER_SLACK = 1e-9


# What a scalar annotation accepts, and how a message names it.
_KINDS = {
    int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
    str: (str, "a string"), bool: (bool, "a boolean"), dict: (dict, "a mapping"),
}


def _checked(name: str, value, kind):
    """``value`` of setting ``name`` checked against its annotation ``kind``
    (a bool is not a number); a list becomes a tuple, a numpy scalar its
    Python value, and a mapping for a settings dataclass is read into one."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:  # X | None
        return None if value is None else _checked(name, value, args[0])
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(_checked(f"{name} entries", v, args[0]) for v in value)
    if dataclasses.is_dataclass(kind):
        return value if isinstance(value, kind) else _read_settings(kind, value, name)
    accepted, what = _KINDS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def _read_settings(cls, raw, section: str | None = None):
    """The settings dataclass ``cls`` built from the mapping ``raw``, with
    unknown keys and values that do not match their annotation rejected;
    messages name the nested ``section`` the settings come from."""
    if not isinstance(raw, dict):
        raise ValueError(f"{section or 'config'} must be a mapping, got {raw!r}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section or 'config'} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    prefix = f"{section}." if section else ""
    return cls(**{k: _checked(prefix + k, v, hints[k]) for k, v in raw.items()})


@dataclass
class ExperimentConfig:
    """Settings for a run, each checked when the config is built (unknown
    keys too, to catch typos); ``similarity_kernel`` is ``kernel`` parsed,
    and ``theta_params`` is ``theta`` parsed when it is given."""

    param_sets: tuple[int, ...] = (1,)
    densities: tuple[float, ...] = (0.3,)
    sizes: tuple[int, ...] = (15,)
    methods: tuple[str, ...] = ("greedy", "random", "none")
    evaluators: tuple[str, ...] = ("va",)
    replications: int = 100
    seed: int = 0
    kappa: int | None = None
    kappa_frac: float = 0.3
    theta: dict | None = None
    a_n: float | None = None
    kernel: str = "absdiff"
    random_draws: int | None = None
    exact_cap: int = exact.BATCH_MAX_UNITS
    solver: meanfield.SolverSettings = field(default_factory=meanfield.SolverSettings)
    sampler: SamplerSettings = field(default_factory=SamplerSettings)
    workers: int = 1
    network_file: str | None = None
    covariates_file: str | None = None
    method: str = "greedy"
    mcmc_check: bool = False

    def __post_init__(self):
        hints = typing.get_type_hints(ExperimentConfig)
        for f in dataclasses.fields(self):
            setattr(self, f.name, _checked(f.name, getattr(self, f.name), hints[f.name]))
        bad = {n for n in self.sizes if n < 2}
        if bad:
            raise ValueError(f"sizes must be at least 2, got {sorted(bad)}")
        bad = {x for x in self.densities if not 0 < x <= 1}
        if bad:
            raise ValueError(f"densities must lie in (0, 1], got {sorted(bad)}")
        bad = set(self.param_sets) - set(PARAM_SETS)
        if bad:
            raise ValueError(
                f"unknown param_sets: {sorted(bad)}; choose from {sorted(PARAM_SETS)}"
            )
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ValueError(f"unknown methods: {sorted(bad)}")
        bad = set(self.evaluators) - set(EVALUATORS)
        if bad:
            raise ValueError(f"unknown evaluators: {sorted(bad)}")
        if self.method not in ALLOCATORS:
            raise ValueError(
                f"unknown allocation method {self.method!r}; "
                f"choose one of {sorted(ALLOCATORS)}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.kappa is not None and self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        # Generated networks have the swept sizes; a network file's size is
        # known only when it is loaded, and ``capacity`` checks it then.
        if self.kappa is not None and self.network_file is None:
            check_capacity(min(self.sizes, default=math.inf), self.kappa)
        if not 0 <= self.kappa_frac <= 1:
            raise ValueError(f"kappa_frac must lie in [0, 1], got {self.kappa_frac}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.random_draws is not None and self.random_draws < 1:
            raise ValueError(f"random_draws must be at least 1, got {self.random_draws}")
        if self.exact_cap < 0:
            raise ValueError(f"exact_cap must be nonnegative, got {self.exact_cap}")
        if self.exact_cap > exact.MAX_EXACT_UNITS:
            raise ValueError(
                f"exact_cap must be at most {exact.MAX_EXACT_UNITS}, got {self.exact_cap}"
            )
        if self.a_n is not None and not 0 < self.a_n < math.inf:
            raise ValueError(f"a_n must be positive and finite, got {self.a_n}")
        self.theta_params = None if self.theta is None else ThetaParams.from_dict(self.theta)
        try:
            self.similarity_kernel = SimilarityKernel.parse(self.kernel)
        except ValueError as exc:
            raise ValueError(f"kernel {self.kernel!r}: {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return _read_settings(cls, raw)

    def resolved_theta(self, set_id: int, n: int, generated: bool) -> ThetaParams:
        """Parameters for one cell. a_n is the config's ``a_n``, else the one
        in ``theta``, else the spillover-scaling default: 1/N for generated
        (dense) networks, 1 for file-loaded (sparse) data."""
        theta = self.theta_params or ThetaParams.from_set(set_id)
        if self.a_n is not None:
            return dataclasses.replace(theta, a_n=self.a_n)
        if "a_n" in (self.theta or {}):
            return theta
        return dataclasses.replace(theta, a_n=1.0 / n if generated else 1.0)

    def draws_for(self, n: int) -> int:
        if self.random_draws is not None:
            return self.random_draws
        return 50 if n <= 15 else 10


def sig6(x) -> str:
    return f"{float(x):.6g}"


def _round6(obj):
    """Round every float in a JSON-ready structure to 6 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def write_json(path, payload):
    """Write payload as JSON, making the parent directory if needed."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_round6(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_COLUMNS = (
    "param_set",
    "density",
    "n",
    "method",
    "evaluator",
    "mean",
    "stderr",
    "replications",
    "reason",
)


def _cell_key(set_id: int, density: float, n: int) -> tuple:
    return (set_id, int(round(density * 1000)), n)


def _reason(exc: ValueError) -> str:
    """Reason string for a computation refused as too large, chosen by the
    exception type; re-raises every other error."""
    if isinstance(exc, exact.ExactSizeError):
        return "exact_infeasible"
    if isinstance(exc, EnumerationCapError):
        return "enumeration_infeasible"
    raise exc


def _replication(cfg: ExperimentConfig, set_id: int, density: float, n: int, rep: int):
    """(instance, kappa, seed) of one replication of a simulate or validate
    cell, where seed(tag) derives the replication's child seed for a tag."""
    seed = functools.partial(derive_seed, cfg.seed, *_cell_key(set_id, density, n), rep)
    theta = cfg.resolved_theta(set_id, n, generated=True)
    instance = simulation_instance(n, density, theta, seed(0), cfg.similarity_kernel)
    return instance, capacity(n, cfg.kappa, cfg.kappa_frac), seed


def _replication_task(payload) -> dict:
    """Welfare of every requested (method, evaluator) pair for one replication.

    Returns per-person values keyed by (method, evaluator); infeasible pairs
    map to a reason string instead of a number.
    """
    cfg, (set_id, density, n), rep = payload
    instance, kappa, seed = _replication(cfg, set_id, density, n, rep)

    def per_person(call):
        try:
            return call() / n
        except exact.ExactSizeError as exc:
            return _reason(exc)

    def evaluator(ev: str, tag: int):
        """Evaluator ev as a function of the allocation alone."""
        s = seed(tag)
        return lambda d: EVALUATORS[ev][1](d, instance, cfg, s)

    out = {}
    for method in cfg.methods:
        if method == "random":
            out[method] = {
                ev: per_person(lambda: alloc.random_allocation_welfare(
                    instance, kappa, cfg.draws_for(n), seed(4), evaluator(ev, 30 + j)
                ))
                for j, ev in enumerate(cfg.evaluators)
            }
            continue
        tag, rule = ALLOCATORS[method]
        try:
            d = rule(instance, kappa, cfg, seed(tag))[0].d
        except ValueError as exc:
            out[method] = dict.fromkeys(cfg.evaluators, _reason(exc))
            continue
        out[method] = {
            ev: per_person(lambda: evaluator(ev, EVALUATORS[ev][0] + tag)(d))
            for ev in cfg.evaluators
        }
    return out


def run_simulate(cfg: ExperimentConfig) -> list[dict]:
    """Benchmark sweep over the configured grid; one CSV row per cell,
    method, and evaluator, aggregated across replications."""
    cells = list(itertools.product(cfg.param_sets, cfg.densities, cfg.sizes))
    payloads = [(cfg, cell, rep) for cell in cells for rep in range(cfg.replications)]
    if cfg.workers > 1:
        # Spawned workers import the package afresh instead of forking a
        # process whose BLAS threads may hold locks.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=cfg.workers, mp_context=spawn) as pool:
            results = list(pool.map(_replication_task, payloads))
    else:
        results = [_replication_task(p) for p in payloads]
    rows = []
    for c, cell in enumerate(cells):
        reps = results[c * cfg.replications : (c + 1) * cfg.replications]
        for method, ev in itertools.product(cfg.methods, cfg.evaluators):
            cell_values = [res[method][ev] for res in reps]
            reasons = [v for v in cell_values if isinstance(v, str)]
            mean = stderr = "NA"
            if not reasons:
                values = np.array(cell_values, dtype=float)
                mean = float(values.mean())
                stderr = (
                    float(values.std(ddof=1) / math.sqrt(values.size))
                    if values.size > 1
                    else 0.0
                )
            rows.append(dict(zip(SIMULATE_COLUMNS, (
                *cell, method, ev, mean, stderr, cfg.replications,
                reasons[0] if reasons else "",
            ))))
    return rows


def write_simulate_csv(path, rows):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SIMULATE_COLUMNS)
        writer.writeheader()
        for row in rows:
            formatted = dict(row)
            for col in ("mean", "stderr"):
                if not isinstance(formatted[col], str):
                    formatted[col] = sig6(formatted[col])
            formatted["density"] = sig6(formatted["density"])
            writer.writerow(formatted)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def run_validate(cfg: ExperimentConfig) -> tuple[dict, bool]:
    """Cross-check the approximation stack on the configured grid.

    Per instance: agreement of mean-field, sampled, and (small networks)
    exact welfare; stationarity of the enumerated distribution under the
    simulation kernel; nonnegativity and boundedness of the exact KL
    divergence; the greedy guarantee inequality, where ``bounds._guarantee``
    admits its premises. Returns the report and an overall pass flag.
    """
    entries = []
    grid = itertools.product(
        cfg.param_sets, cfg.densities, cfg.sizes, range(cfg.replications)
    )
    for set_id, density, n, rep in grid:
        instance, kappa, seed = _replication(cfg, set_id, density, n, rep)
        checks = {}
        entries.append({
            "param_set": set_id,
            "density": density,
            "n": n,
            "replication": rep,
            "checks": checks,
        })
        rules = {name: ALLOCATORS[name][1](instance, kappa, cfg, seed(1))[0].d
                 for name in ("greedy", "none")}
        solutions = {
            name: meanfield.solve_allocation(instance, d, cfg.solver, seed=seed(2))
            for name, d in rules.items()
        }
        if "mcmc" in cfg.evaluators:
            for name, d in rules.items():
                sampled = EVALUATORS["mcmc"][1](d, instance, cfg, seed(3))
                gap = abs(solutions[name].welfare - sampled) / n
                checks[f"va_vs_mcmc_{name}"] = {
                    "value": gap,
                    "pass": bool(gap <= VA_MCMC_TOL),
                }
        if n > cfg.exact_cap:
            continue
        report = bnd.bounds_report(instance)
        for name, d in rules.items():
            sol = solutions[name]
            dist = exact.enumerate_gibbs(weights(instance, d))
            kl = exact.exact_kl(sol.mu, dist)
            checks[f"kl_bounds_{name}"] = {
                "value": kl,
                "upper": report.kl_upper_bound,
                "pass": bool(KL_NONNEG_TOL <= kl <= report.kl_upper_bound),
            }
            gap = abs(dist.welfare - sol.welfare)
            pinsker = math.sqrt(max(2.0 * kl, 0.0)) + PINSKER_SLACK
            checks[f"va_vs_exact_{name}"] = {
                "value": gap / n,
                "upper": pinsker / n,
                "pass": bool(gap <= pinsker),
            }
        if n <= dynamics.STATIONARITY_MAX_UNITS:
            stat = dynamics.stationarity_check(instance, rules["greedy"])
            checks["stationarity"] = {
                "value": stat,
                "pass": bool(stat <= STATIONARITY_TOL),
            }
        if report.guarantee_factor > 0:
            bf_w = ALLOCATORS["bfva"][1](instance, kappa, cfg, seed(5))[1]
            lower = report.guarantee_factor * bf_w
            checks["greedy_guarantee"] = {
                "value": solutions["greedy"].welfare,
                "lower": lower,
                "pass": bool(solutions["greedy"].welfare >= lower - 1e-9),
            }
    failed = sum(1 for e in entries for c in e["checks"].values() if not c["pass"])
    total = sum(len(e["checks"]) for e in entries)
    report = {
        "instances": entries,
        "summary": {"checks": total, "failed": failed, "passed": failed == 0},
    }
    return report, failed == 0


# ---------------------------------------------------------------------------
# allocate / bounds on user data
# ---------------------------------------------------------------------------


def load_instance(cfg: ExperimentConfig) -> Instance:
    if not cfg.network_file or not cfg.covariates_file:
        raise ValueError("allocate/bounds runs need network_file and covariates_file")
    if cfg.theta is None:
        raise ValueError("allocate/bounds runs need explicit theta parameters")
    x = load_covariates(cfg.covariates_file)
    net = load_network(cfg.network_file, n=x.shape[0])
    theta = cfg.resolved_theta(set_id=1, n=net.n, generated=False)
    return make_instance(net, x, theta, kernel=cfg.similarity_kernel)


def run_allocate(cfg: ExperimentConfig) -> dict:
    """Compute an allocation for user-supplied network and covariate files.

    Returns the allocation record (with per-round trace, including the
    candidates whose fixed-point solve did not converge) plus the bounds
    report; optionally cross-checks the final welfare by simulation.
    """
    instance = load_instance(cfg)
    n = instance.n
    kappa = capacity(n, cfg.kappa, cfg.kappa_frac)
    _, rule = ALLOCATORS[cfg.method]
    allocation, welfare, steps = rule(instance, kappa, cfg, derive_seed(cfg.seed, 1))
    if welfare is None:
        welfare = EVALUATORS["va"][1](allocation.d, instance, cfg, derive_seed(cfg.seed, 2))
    record = {
        "n": n,
        "kappa": kappa,
        "treated": list(allocation.treated),
        "welfare_va": welfare,
        "trace": [
            {"round": s.round, "unit": s.unit, "delta": s.delta,
             "nonconverged": list(s.nonconverged)}
            for s in steps
        ],
    }
    if cfg.mcmc_check:
        record["welfare_mcmc"], record["welfare_mcmc_stderr"] = _mcmc(
            allocation.d, instance, cfg, derive_seed(cfg.seed, 3)
        )
    bounds = dataclasses.asdict(bnd.bounds_report(instance))
    return {"allocation": record, "bounds": bounds}


def run_bounds(cfg: ExperimentConfig) -> dict:
    """Bounds report (with asymptotic constants) for a file-based instance."""
    instance = load_instance(cfg)
    report = dataclasses.asdict(bnd.bounds_report(instance))
    report["asymptotic_constants"] = bnd.asymptotic_kl_constants(instance)
    return report
