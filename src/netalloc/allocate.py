"""Treatment allocation strategies.

The workhorse is the greedy rule: repeatedly treat the unit whose
treatment raises the mean-field welfare the most until the capacity binds.
Exhaustive maximization of the mean-field welfare over every feasible
allocation is available for small networks, together with random and
no-treatment baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import _argmax_lexicographic
from .meanfield import (
    SolverSettings,
    batch_fixed_point,
    instance_certified,
    solve_allocation,
)
from .model import Allocation, Instance, derive_seed, feasible_allocations


@dataclass(frozen=True)
class GreedyStep:
    """One greedy round: the treated unit, its welfare gain, and any
    candidate evaluations that failed to converge."""

    round: int
    unit: int
    delta: float
    nonconverged: tuple = ()


def no_treatment(instance: Instance) -> Allocation:
    """The all-zeros baseline allocation."""
    return Allocation.zeros(instance.n)


def greedy(
    instance: Instance,
    kappa: int,
    settings: SolverSettings | None = None,
    seed: int = 0,
    strict: bool = False,
) -> tuple[Allocation, list[GreedyStep]]:
    """Greedy welfare maximization under a capacity constraint.

    Each round evaluates the mean-field welfare gain of treating every
    untreated unit and treats the best one, breaking ties toward the
    smallest index. Candidate fixed points warm-start from the incumbent
    solution and, on certified instances, all candidates of a round are
    solved in one batched iteration; pass ``strict=True`` to force fresh
    random initializations and per-candidate solves instead.
    """
    settings = settings or SolverSettings()
    n = instance.n
    if not 0 <= kappa <= n:
        raise ValueError("kappa must be between 0 and n")
    incumbent = Allocation.zeros(n)
    trace: list[GreedyStep] = []
    if kappa == 0:
        return incumbent, trace
    base = solve_allocation(instance, incumbent, settings, seed=derive_seed(seed, 0))
    base_mu, base_welfare = base.mu, base.welfare
    use_batch = instance_certified(instance) and not strict
    for round_idx in range(1, kappa + 1):
        untreated = [i for i in range(n) if incumbent.d[i] == 0]
        candidates = np.tile(incumbent.d, (len(untreated), 1))
        candidates[np.arange(len(untreated)), untreated] = 1
        failed = []
        if use_batch:
            batch = batch_fixed_point(
                instance, candidates, settings, init=base_mu
            )
            values = batch.welfare
            mus = batch.mu
            failed = [untreated[k] for k in np.flatnonzero(~batch.converged)]
        else:
            values = np.empty(len(untreated))
            mus = np.empty((n, len(untreated)))
            for k, i in enumerate(untreated):
                init = None if strict else base_mu
                cand_seed = derive_seed(seed, round_idx * n + i)
                sol = solve_allocation(
                    instance, candidates[k], settings, seed=cand_seed, init=init
                )
                values[k] = sol.welfare
                mus[:, k] = sol.mu
                if not sol.converged:
                    failed.append(i)
        best = int(np.argmax(values))
        unit = untreated[best]
        delta = float(values[best] - base_welfare)
        trace.append(
            GreedyStep(round=round_idx, unit=unit, delta=delta,
                       nonconverged=tuple(failed))
        )
        incumbent = incumbent.with_unit(unit)
        base_welfare = float(values[best])
        base_mu = mus[:, best].copy()
    return incumbent, trace


def bfva(
    instance: Instance,
    kappa: int,
    settings: SolverSettings | None = None,
    seed: int = 0,
    max_allocations: int = 200_000,
) -> tuple[Allocation, float]:
    """Exhaustive mean-field welfare maximization over feasible allocations.

    Evaluates every allocation with at most kappa treated units and returns
    the best, breaking welfare ties toward the lexicographically smallest
    treated set. On certified instances the whole enumeration is solved in
    batched chunks.
    """
    settings = settings or SolverSettings()
    allocations = feasible_allocations(instance.n, kappa, max_count=max_allocations)
    count = allocations.shape[0]
    if instance_certified(instance):
        values = np.empty(count)
        chunk = 1024
        for start in range(0, count, chunk):
            block = allocations[start : start + chunk]
            values[start : start + chunk] = batch_fixed_point(
                instance, block, settings, seed=seed
            ).welfare
    else:
        values = np.array(
            [
                solve_allocation(
                    instance, allocations[k], settings, seed=derive_seed(seed, k)
                ).welfare
                for k in range(count)
            ]
        )
    best = _argmax_lexicographic(values, allocations)
    return Allocation.from_vector(allocations[best]), float(values[best])


def random_allocation_welfare(
    instance: Instance,
    kappa: int,
    draws: int,
    seed: int,
    evaluator,
) -> float:
    """Average welfare of uniformly drawn allocations with exactly kappa
    treated units, under a caller-supplied welfare evaluator d -> float."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(draws):
        d = np.zeros(instance.n, dtype=np.int8)
        if kappa > 0:
            d[rng.choice(instance.n, size=kappa, replace=False)] = 1
        total += float(evaluator(d))
    return total / draws
