"""Shared helpers: benchmark-style random instances, an index-order sweep,
an all-steps sampler loop and an unscreened greedy reference."""

import warnings
from itertools import compress, islice
from operator import mul

import numpy as np
import pytest

from netalloc import Allocation, SimilarityKernel, SolverSettings, ThetaParams, make_instance
from netalloc.allocate import GreedyStep
from netalloc.exact import _argmax_lexicographic
from netalloc.experiments import simulation_instance
from netalloc.meanfield import CLAMP, _tie_tolerance, solve_allocation
from netalloc.model import derive_seed, sigmoid
from netalloc.network import erdos_renyi


def protocol_instance(n, density=0.3, set_id=1, seed=0, a_n=None):
    """Random network + fair-coin binary covariates + L1 similarity."""
    theta = ThetaParams.from_set(set_id, a_n=(1.0 / n if a_n is None else a_n))
    return simulation_instance(n, density, theta, seed=seed)


def random_theta(rng, positivity=False, a_n=1.0):
    """Moderate random parameters; positivity restricts signs for the
    monotone-welfare profile."""
    if positivity:
        vals = dict(
            theta0=rng.uniform(-2.5, 0.0),
            theta1=rng.uniform(0.1, 1.0),
            theta2=rng.uniform(0.0, 0.5),
            theta3=rng.uniform(0.0, 1.0),
            theta4=rng.uniform(0.1, 1.0),
            theta5=rng.uniform(0.0, 1.0),
            theta6=rng.uniform(0.0, 1.0),
        )
    else:
        vals = {f"theta{k}": rng.uniform(-1.0, 1.0) for k in range(7)}
    return ThetaParams(**vals, a_n=a_n)


def random_instance(rng, n, density=0.4, positivity=False, a_n=None):
    """Instance with random structure, covariates, and parameters."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        net = erdos_renyi(n, density, seed=int(rng.integers(2**31)))
    x = rng.integers(0, 2, size=(n, 1)).astype(float)
    theta = random_theta(rng, positivity=positivity, a_n=(1.0 / n if a_n is None else a_n))
    return make_instance(net, x, theta, kernel=SimilarityKernel.abs_diff())


def index_order_sweep(mu, w):
    """One in-place Gauss-Seidel sweep over the units in index order, each
    from its row of ``w.row_lists``: a reference for the fixed point that
    the chromatic sweep reaches, not for its bits."""
    (cols, vals), w1, m = w.row_lists, w.w1.tolist(), mu.tolist()
    lo, hi = CLAMP, 1.0 - CLAMP
    for i, (c, v) in enumerate(zip(cols, vals)):
        m[i] = min(max(sigmoid(w1[i] + sum(map(mul, v, map(m.__getitem__, c)))), lo), hi)
    mu[:] = m
    return mu


def all_steps_redraw(y, w, sites, draws, per_sweep):
    """``dynamics._redraw`` visiting every step: the same screen and row
    sums, with the screen's decision made in the loop, step by step.
    Returns the count of ones after every sweep of ``per_sweep`` steps, and
    the number of steps the screen did not decide; steps past the last whole
    sweep are not run."""
    cols, vals = w.row_lists
    lo, hi = (b.tolist() for b in w.screen)
    w1 = w.w1.tolist()
    state = y.tolist()
    ones = int(np.count_nonzero(y))
    counts, read = [], 0
    steps = zip(sites, draws)
    for _ in range(len(sites) // per_sweep):
        for i, u in islice(steps, per_sweep):
            if u < lo[i]:
                new = True
            elif u >= hi[i]:
                new = False
            else:
                read += 1
                new = u < sigmoid(w1[i] + sum(compress(vals[i], map(state.__getitem__, cols[i]))))
            if new != state[i]:
                state[i] = new
                ones += 1 if new else -1
        counts.append(ones)
    y[:] = state
    return counts, read


def _unscreened_greedy(instance, kappa, settings=None, seed=0, warm=False):
    """Greedy without the candidate screen or the batch: each round solves
    every untreated candidate on its own with ``solve_allocation`` and picks
    by greedy's tie rule. With ``warm=False`` each candidate starts from
    its own seeded random draw, ``derive_seed(seed, round * n + i)``; with
    ``warm=True`` it starts from the incumbent's marginals, which is what
    ``greedy`` does on uncertified instances. Returns the allocation and a
    ``GreedyStep`` per round, each counting every candidate as screened."""
    settings = settings or SolverSettings()
    n = instance.n
    incumbent = Allocation.zeros(n)
    trace = []
    if kappa == 0:
        return incumbent, trace
    base = solve_allocation(instance, incumbent, settings, seed=derive_seed(seed, 0))
    base_mu, base_welfare = base.mu, base.welfare
    tie = _tie_tolerance(instance, settings)
    for round_idx in range(1, kappa + 1):
        rows = np.flatnonzero(incumbent.d == 0)
        candidates = np.tile(incumbent.d, (len(rows), 1))
        candidates[np.arange(len(rows)), rows] = 1
        sols = [
            solve_allocation(instance, c, settings, init=base_mu) if warm else
            solve_allocation(instance, c, settings, seed=derive_seed(seed, round_idx * n + int(i)))
            for c, i in zip(candidates, rows)
        ]
        values = np.array([sol.welfare for sol in sols])
        best = _argmax_lexicographic(values, candidates, tie=tie)
        unit = int(rows[best])
        trace.append(GreedyStep(
            round=round_idx, unit=unit, delta=float(values[best] - base_welfare),
            nonconverged=tuple(int(i) for i, sol in zip(rows, sols) if not sol.converged),
            screened=len(rows)))
        incumbent = Allocation.from_vector(candidates[best])
        base_welfare = float(values[best])
        base_mu = sols[best].mu.copy()
    return incumbent, trace


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
