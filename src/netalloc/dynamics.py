"""Sequential decision process simulation and stationarity diagnostics.

One step of the process picks a unit uniformly at random and redraws its
binary choice from the logit conditional given everyone else's current
choice. Long-run time averages of the resulting single-site Markov chain
estimate equilibrium welfare; for small networks the full transition
kernel can be assembled to verify stationarity of the enumerated Gibbs
distribution.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logsumexp

from .model import Instance, WeightSystem, sigmoid, weights

# Batches of the batch-means standard error of mcmc_welfare.
MCMC_BATCHES = 50


def _redraw(y: np.ndarray, w: WeightSystem, sites, draws) -> None:
    """Redraw unit sites[k] of y in place from its logit conditional with
    uniform draws[k], for k in order: one step of the process per site."""
    w1, (cols, vals) = w.w1, w.rows
    for i, u in zip(sites, draws):
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
    y = rng.integers(0, 2, size=n).astype(np.int8)
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


def _chain(instance: Instance, d, max_units: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix of the single-site chain and the energy of each
    configuration, both over the 2^N configurations in code order:
    configuration c has y_i = (c >> i) & 1."""
    n = instance.n
    if n > max_units:
        raise ValueError(f"kernel assembly infeasible for {n} units (cap {max_units})")
    if d is None:
        d = np.zeros(n, dtype=np.int8)
    w = weights(instance, d).dense()
    total = 1 << n
    codes = np.arange(total)
    y = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
    # Choice probabilities p[c, i] do not depend on y_i because w2 has a
    # zero diagonal.
    p1 = expit(w.w1 + 2.0 * (y @ w.w2))
    kernel = np.zeros((total, total))
    for i in range(n):
        up = codes | (1 << i)
        down = codes & ~(1 << i)
        np.add.at(kernel, (codes, up), p1[:, i] / n)
        np.add.at(kernel, (codes, down), (1.0 - p1[:, i]) / n)
    return kernel, y @ w.w1 + ((y @ w.w2) * y).sum(axis=1)


def single_site_kernel(instance: Instance, d=None, max_units: int = 12) -> np.ndarray:
    """Full 2^N x 2^N transition matrix of the single-site chain; row c is
    the configuration with y_i = (c >> i) & 1."""
    return _chain(instance, d, max_units)[0]


def stationarity_check(instance: Instance, d=None, max_units: int = 12) -> float:
    """L1 distance between the Gibbs distribution and its one-step image
    under the single-site kernel. Zero (to rounding) certifies stationarity."""
    kernel, e = _chain(instance, d, max_units)
    pi = np.exp(e - logsumexp(e))
    return float(np.abs(pi @ kernel - pi).sum())
