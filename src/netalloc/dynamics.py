"""Sequential decision process simulation and stationarity diagnostics.

One step of the process picks a unit uniformly at random and redraws its
binary choice from the logit conditional given everyone else's current
choice. Long-run time averages of the resulting single-site Markov chain
estimate equilibrium welfare. Most steps need no neighbour state: a uniform
draw outside the unit's reachable choice-probability interval
(``WeightSystem.screen``) decides the step alone. Only the other steps read
the unit's logit argument, summed from its row over the current state or,
for units whose interval is wide, kept up to date as their neighbours flip.
``mcmc_welfare`` runs the chain in blocks of whole sweeps, at least 8N and
``BLOCK_STEPS`` steps, one call each. A call classifies its steps in numpy
and its loop visits only those that can change the state: steps that read,
and screened steps that set a unit to a value it may not hold. The count of
ones at every sweep end comes from the sweeps of the flips. For small
networks the one-step image of the enumerated Gibbs distribution is
computed directly from the choice probabilities, without the transition
matrix, to verify stationarity.
"""

from __future__ import annotations

import logging
import time
from itertools import compress

import numpy as np
from scipy.special import expit, logsumexp

from .model import Instance, WeightSystem, check_count, sigmoid, weights

log = logging.getLogger(__name__)

# Batches of the batch-means standard error of mcmc_welfare.
MCMC_BATCHES = 50
# Fewest steps in one block of mcmc_welfare's chain (one _redraw call).
BLOCK_STEPS = 2**14
# Largest network whose 2^N configurations stationarity_check lists.
STATIONARITY_MAX_UNITS = 12


def _redraw(y: np.ndarray, w: WeightSystem, sites: np.ndarray, draws: np.ndarray,
            per_sweep: int) -> tuple[np.ndarray, int, int]:
    """Redraw unit sites[k] of y in place from its logit conditional with
    uniform draws[k], for k in order: one step of the process per site. Steps
    past the last whole sweep of ``per_sweep`` steps are not run.

    A step whose draw the screen does not decide reads unit i's logit
    argument w1_i + (2 w2 y)_i: a kept unit's comes from a vector built once
    per call and updated when a neighbour flips, any other unit's is summed
    from its row of ``w.row_lists``. Every other step sets the unit to the
    screen's value, which changes nothing when the unit holds it already.
    So the loop visits only the read steps and the screened steps whose
    value differs from the unit's value before them, known from its previous
    screened step or from y, or not known because its previous step read.

    Returns the count of ones in y after every sweep, the number of read
    steps and the number of visited steps."""
    cols, vals = w.row_lists
    lo, hi, kept, push_cols, push_vals = w.screen
    sweeps = len(sites) // per_sweep
    size = sweeps * per_sweep
    sites = np.asarray(sites, dtype=np.intp)[:size]
    draws = np.asarray(draws, dtype=float)[:size]
    # The value each step sets its unit to: 1 below p_lo, 0 from p_hi on, and
    # -1 in between, where the step reads the unit's logit argument.
    code = 2 * (draws < lo[sites]) - (draws < hi[sites])
    # Each unit's steps in time order, as sorted keys (unit, step); sorting
    # these unique keys is about 10x faster than a stable argsort of sites.
    shift = size.bit_length()
    key = np.sort(sites << shift | np.arange(size))
    unit, order = key >> shift, key & ((1 << shift) - 1)
    # A step's value before it: the code of the unit's previous step, or y.
    after, before = code[order], y.astype(np.int8)[unit]
    same = unit[1:] == unit[:-1]
    before[1:][same] = after[:-1][same]
    visit = np.empty(size, dtype=bool)
    visit[order] = (after != before) | (after < 0)
    steps = np.flatnonzero(visit)
    w1 = w.w1.tolist()
    h = (w.w1 + 2.0 * (w.w2 @ y)).tolist() if any(kept) else []
    state = y.tolist()
    ups, downs = [], []  # the sweep of each flip to 1 and to 0
    for sweep, i, new, u in zip((steps // per_sweep).tolist(), sites[steps].tolist(),
                                code[steps].tolist(), draws[steps].tolist()):
        if new < 0:
            if kept[i]:
                a = h[i]
            else:
                a = w1[i] + sum(compress(vals[i], map(state.__getitem__, cols[i])))
            new = u < sigmoid(a)
        if new == state[i]:
            continue
        state[i] = new
        (ups if new else downs).append(sweep)
        if push_cols[i]:  # most units have no kept neighbour: skip the zip
            if new:
                for j, v in zip(push_cols[i], push_vals[i]):
                    h[j] += v
            else:
                for j, v in zip(push_cols[i], push_vals[i]):
                    h[j] -= v
    ones = np.count_nonzero(y) + np.cumsum(
        np.bincount(ups, minlength=sweeps) - np.bincount(downs, minlength=sweeps))
    y[:] = state
    return ones, int(np.count_nonzero(code < 0)), steps.size


def mcmc_welfare(
    d,
    instance: Instance,
    sweeps: int = 10_000,
    burn_in: int = 5_000,
    seed: int | None = None,
    steps_per_sweep: int | None = None,
) -> tuple[float, float]:
    """Per-person welfare estimated by time-averaging the simulated chain.

    A sweep is ``steps_per_sweep`` single-site updates (defaults to one per
    unit; pass 1 to read the iteration counts literally as single steps).
    The per-sweep population mean is recorded after the burn-in period and
    averaged; the standard error comes from batch means.
    """
    check_count("sweeps", sweeps)
    check_count("burn_in", burn_in)
    if steps_per_sweep is not None:
        check_count("steps_per_sweep", steps_per_sweep)
    if sweeps <= burn_in:
        raise ValueError("sweeps must exceed burn_in")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if steps_per_sweep is not None and steps_per_sweep < 1:
        raise ValueError(f"steps_per_sweep must be at least 1, got {steps_per_sweep}")
    start = time.perf_counter()
    w = weights(instance, d)
    n = w.n
    per_sweep = n if steps_per_sweep is None else int(steps_per_sweep)
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n).astype(float)
    # One call runs a block of whole sweeps of at least 8N and BLOCK_STEPS
    # steps, so the call's set-up, O(N + nnz) and a few dozen numpy calls, is
    # spread over many steps at any N and sweep length.
    block = max(8 * -(-n // per_sweep), -(-BLOCK_STEPS // per_sweep))
    ones = np.empty(sweeps, dtype=np.int64)
    read = visited = 0
    for first in range(0, sweeps, block):
        last = min(first + block, sweeps)
        sites = np.empty((last - first, per_sweep), dtype=np.intp)
        draws = np.empty((last - first, per_sweep))
        for sweep_sites, sweep_draws in zip(sites, draws):  # sites, then uniforms
            sweep_sites[:] = rng.integers(0, n, size=per_sweep)
            rng.random(out=sweep_draws)
        ones[first:last], block_read, block_visited = _redraw(
            y, w, sites.ravel(), draws.ravel(), per_sweep)
        read += block_read
        visited += block_visited
    # A count of ones over N equals y.mean() of the 0/1 vector to the bit.
    kept = ones[burn_in:] / n
    estimate = float(kept.mean())
    n_batches = min(MCMC_BATCHES, kept.size)
    usable = kept[: kept.size - kept.size % n_batches]
    batch_means = usable.reshape(n_batches, -1).mean(axis=1)
    stderr = float(batch_means.std(ddof=1) / np.sqrt(n_batches)) if n_batches > 1 else 0.0
    if log.isEnabledFor(logging.DEBUG):
        steps = sweeps * per_sweep
        share = 1.0 - read / steps
        log.debug("sampler: %d steps, %.4f decided by the draw alone", steps, share, extra={
            "steps": steps, "screened_share": share, "visited_share": visited / steps,
            "kept_field_units": sum(w.screen[2]),
            "steps_per_s": steps / (time.perf_counter() - start)})
    return estimate, stderr


def _chain(instance: Instance, d) -> tuple[np.ndarray, np.ndarray]:
    """Choice probabilities p1[c, i] = P(y_i = 1 | c_-i) and the energy of
    each of the 2^N configurations c, in code order: y_i = (c >> i) & 1."""
    n = instance.n
    if n > STATIONARITY_MAX_UNITS:
        raise ValueError(f"stationarity check infeasible for {n} units "
                         f"(cap {STATIONARITY_MAX_UNITS})")
    w = weights(instance, d).dense()
    codes = np.arange(1 << n)
    y = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
    # The choice probabilities do not read y_i because w2 has a zero diagonal.
    field = y @ w.w2
    return expit(w.w1 + 2.0 * field), y @ w.w1 + (field * y).sum(axis=1)


def _one_step_image(p1: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """One-step image pi K of the law pi under the single-site chain with
    choice probabilities p1 (from ``_chain``), without the 2^N x 2^N matrix:
    (pi K)(c) = (1/N) sum_i [pi(c) + pi(c ^ 2^i)] P(y_i = c_i | c_-i)."""
    total, n = p1.shape
    codes = np.arange(total)[:, None]
    bits = 1 << np.arange(n)
    stay = np.where(codes & bits, p1, 1.0 - p1)
    return ((pi[:, None] + pi[codes ^ bits]) * stay).sum(axis=1) / n


def stationarity_check(instance: Instance, d) -> float:
    """L1 distance between allocation d's Gibbs distribution and its one-step
    image under the single-site chain. Zero (to rounding) certifies stationarity."""
    p1, e = _chain(instance, d)
    pi = np.exp(e - logsumexp(e))
    return float(np.abs(_one_step_image(p1, pi) - pi).sum())
