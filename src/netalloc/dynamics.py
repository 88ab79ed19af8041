"""Sequential decision process simulation and stationarity diagnostics.

One step of the process picks a unit uniformly at random and redraws its
binary choice from the logit conditional given everyone else's current
choice. Long-run time averages of the resulting single-site Markov chain
estimate equilibrium welfare. For small networks the one-step image of
the enumerated Gibbs distribution is computed directly from the choice
probabilities, without the transition matrix, to verify stationarity.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logsumexp

from .model import Instance, WeightSystem, sigmoid, weights

# Batches of the batch-means standard error of mcmc_welfare.
MCMC_BATCHES = 50
# Largest network whose 2^N configurations stationarity_check lists.
STATIONARITY_MAX_UNITS = 12


def _redraw(y: np.ndarray, w: WeightSystem, sites, draws) -> None:
    """Redraw unit sites[k] of y in place from its logit conditional with
    uniform draws[k], for k in order: one step of the process per site."""
    w1, (cols, vals) = w.w1, w.rows
    for i, u in zip(sites.tolist(), draws.tolist()):
        y[i] = u < sigmoid(w1[i] + float(vals[i] @ y[cols[i]]))


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
    if sweeps <= burn_in:
        raise ValueError("sweeps must exceed burn_in")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if steps_per_sweep is not None and steps_per_sweep < 1:
        raise ValueError(f"steps_per_sweep must be at least 1, got {steps_per_sweep}")
    w = weights(instance, d)
    n = w.n
    per_sweep = n if steps_per_sweep is None else int(steps_per_sweep)
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n).astype(float)
    kept = np.empty(sweeps - burn_in)
    for sweep_idx in range(sweeps):
        sites = rng.integers(0, n, size=per_sweep)
        _redraw(y, w, sites, rng.random(per_sweep))
        if sweep_idx >= burn_in:
            kept[sweep_idx - burn_in] = y.mean()
    estimate = float(kept.mean())
    n_batches = min(MCMC_BATCHES, kept.size)
    usable = kept[: kept.size - kept.size % n_batches]
    batch_means = usable.reshape(n_batches, -1).mean(axis=1)
    stderr = float(batch_means.std(ddof=1) / np.sqrt(n_batches)) if n_batches > 1 else 0.0
    return estimate, stderr


def _chain(instance: Instance, d) -> tuple[np.ndarray, np.ndarray]:
    """Choice probabilities p1[c, i] = P(y_i = 1 | c_-i) and the energy of
    each of the 2^N configurations c, in code order: y_i = (c >> i) & 1."""
    n = instance.n
    if n > STATIONARITY_MAX_UNITS:
        raise ValueError(f"stationarity check infeasible for {n} units "
                         f"(cap {STATIONARITY_MAX_UNITS})")
    if d is None:
        d = np.zeros(n, dtype=np.int8)
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


def stationarity_check(instance: Instance, d=None) -> float:
    """L1 distance between the Gibbs distribution and its one-step image
    under the single-site chain. Zero (to rounding) certifies stationarity."""
    p1, e = _chain(instance, d)
    pi = np.exp(e - logsumexp(e))
    return float(np.abs(_one_step_image(p1, pi) - pi).sum())
