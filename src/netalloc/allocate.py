"""Treatment allocation strategies.

The workhorse is the greedy rule: repeatedly treat the unit whose
treatment raises the mean-field welfare the most until the capacity binds.
Exhaustive maximization of the mean-field welfare over every feasible
allocation is available for small networks, together with a random
baseline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .exact import _argmax_lexicographic
from .meanfield import (
    Incumbent,
    SolverSettings,
    _coupling_products,
    _linear_response,
    _tie_tolerance,
    batch_fixed_point,
    instance_certified,
    solve_allocation,
)
from .model import (Allocation, Instance, check_capacity, check_count, derive_seed,
                     feasible_allocations)

log = logging.getLogger(__name__)
# Most allocations bfva evaluates; above it, bfva raises EnumerationCapError.
BFVA_MAX_ALLOCATIONS = 200_000


@dataclass(frozen=True)
class GreedyStep:
    """One greedy round: the treated unit, its welfare gain, the candidates
    whose exact solve failed to converge, and how many candidates were
    solved exactly (all of them unless the screen ruled some out)."""

    round: int
    unit: int
    delta: float
    nonconverged: tuple = ()
    screened: int = 0


def greedy(
    instance: Instance,
    kappa: int,
    settings: SolverSettings = SolverSettings(),
    seed: int = 0,
) -> tuple[Allocation, list[GreedyStep]]:
    """Greedy welfare maximization under a capacity constraint.

    Each round evaluates the mean-field welfare gain of treating every
    untreated unit and treats the best one, breaking ties toward the
    lexicographically smallest treated set (the smallest index) as ``bfva``
    does; on certified instances values within ``meanfield._tie_tolerance``
    of the best are ties. Candidate fixed points warm-start from the
    incumbent solution, so ``seed`` feeds only the round-0 solve. On
    certified instances the candidates of a round are first screened:
    ``meanfield._linear_response`` scores every one of them at the
    incumbent fixed point with a proven error bound, and only those that
    the bound cannot rule out as the round's winner or a tie are solved
    exactly, in one batched iteration. When the incumbent solve did not
    converge or the bound certifies nothing, every candidate is solved.
    ``GreedyStep.nonconverged`` lists only candidates solved exactly.
    Between rounds the incumbent is one ``meanfield.Incumbent``, from the
    round-0 solve and then the winning row of each round's candidates and
    column of its batch; the screen and the next batch start from it, and
    the ``Allocation`` is built at return. At DEBUG level one record per
    round reports the screened and candidate counts and the batch iterations.
    """
    check_capacity(instance.n, kappa)
    trace: list[GreedyStep] = []
    if kappa == 0:
        return Allocation.zeros(instance.n), trace
    d = np.zeros(instance.n, dtype=np.int8)
    base = solve_allocation(instance, d, settings, seed=derive_seed(seed, 0))
    base_welfare, base_converged = base.welfare, base.converged
    certified = instance_certified(instance)
    incumbent = Incumbent(d, base.mu,
                          _coupling_products(instance, d, base.mu) if certified else None)
    tie = _tie_tolerance(instance, settings)
    for round_idx in range(1, kappa + 1):
        untreated = np.flatnonzero(incumbent.d == 0)
        rows = untreated
        screen = base_converged and _linear_response(instance, incumbent, settings)
        if screen:
            scores, eps, margin = screen
            rows = untreated[scores + eps >= np.max(scores - eps) - margin - tie]
        candidates = np.tile(incumbent.d, (len(rows), 1))
        candidates[np.arange(len(rows)), rows] = 1
        if certified:
            batch = batch_fixed_point(instance, candidates, settings, init=incumbent)
            values, mus, converged = batch.welfare, batch.mu, batch.converged
            iterations = batch.iterations
        else:
            sols = [solve_allocation(instance, c, settings, init=incumbent.mu) for c in candidates]
            values = np.array([sol.welfare for sol in sols])
            mus = np.column_stack([sol.mu for sol in sols])
            converged = np.array([sol.converged for sol in sols])
            iterations = None
        best = _argmax_lexicographic(values, candidates, tie=tie)
        unit = int(rows[best])
        delta = float(values[best] - base_welfare)
        log.debug("greedy round %d: %d of %d candidates solved exactly",
                  round_idx, len(rows), len(untreated), extra={
                      "round": round_idx, "screened": len(rows), "candidates": len(untreated),
                      "batch_iterations": iterations})
        trace.append(
            GreedyStep(round=round_idx, unit=unit, delta=delta,
                       nonconverged=tuple(int(i) for i in rows[~converged]),
                       screened=len(rows))
        )
        incumbent = Incumbent(
            candidates[best].copy(), mus[:, best].copy(),
            tuple(p[:, best].copy() for p in batch.products) if certified else None)
        base_welfare = float(values[best])
        base_converged = bool(converged[best])
    return Allocation.from_vector(incumbent.d), trace


def bfva(
    instance: Instance,
    kappa: int,
    settings: SolverSettings = SolverSettings(),
    seed: int = 0,
) -> tuple[Allocation, float]:
    """Exhaustive mean-field welfare maximization over feasible allocations.

    Evaluates every allocation with at most kappa treated units and returns
    the best, breaking welfare ties toward the lexicographically smallest
    treated set (within ``meanfield._tie_tolerance`` on certified
    instances, whose whole enumeration is solved in batched chunks).
    Solves that stopped at max_iter are counted in one WARNING record.
    """
    allocations = feasible_allocations(instance.n, kappa, max_count=BFVA_MAX_ALLOCATIONS)
    count = allocations.shape[0]
    values = np.empty(count)
    converged = np.empty(count, dtype=bool)
    if instance_certified(instance):
        chunk = 1024
        for start in range(0, count, chunk):
            block = allocations[start : start + chunk]
            batch = batch_fixed_point(instance, block, settings, seed=seed)
            values[start : start + chunk] = batch.welfare
            converged[start : start + chunk] = batch.converged
    else:
        for k in range(count):
            sol = solve_allocation(instance, allocations[k], settings, seed=derive_seed(seed, k))
            values[k], converged[k] = sol.welfare, sol.converged
    failed = int(count - converged.sum())
    if failed:
        log.warning("bfva: %d of %d allocation solves stopped at max_iter", failed, count,
                    extra={"nonconverged": failed})
    best = _argmax_lexicographic(values, allocations, tie=_tie_tolerance(instance, settings))
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
    check_count("draws", draws, minimum=1)
    check_capacity(instance.n, kappa)
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(draws):
        d = np.zeros(instance.n, dtype=np.int8)
        if kappa > 0:
            d[rng.choice(instance.n, size=kappa, replace=False)] = 1
        total += float(evaluator(d))
    return total / draws
