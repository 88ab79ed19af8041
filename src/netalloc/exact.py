"""Exact Gibbs-distribution computations for small networks.

Enumerates all 2^N binary configurations to obtain the stationary outcome
distribution, exact equilibrium welfare, exact KL divergences against
independent-Bernoulli approximations, and exact optimal allocations under
a capacity constraint. These routines are the ground-truth oracle that
every approximation in the package is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .meanfield import variational_objective
from .model import (
    Allocation,
    Instance,
    WeightSystem,
    feasible_allocations,
    to_dense,
    weights,
)

# Above this many units the 2^N enumeration is refused outright.
MAX_EXACT_UNITS = 20
# Configurations are listed in blocks of this many codes, so every N <= 15
# is one cached block and larger N stream in bounded memory.
_BLOCK = 1 << 15


class ExactSizeError(ValueError):
    """Raised when a network is too large for exact enumeration."""


@dataclass(frozen=True)
class ExactDistribution:
    """Stationary distribution computed by full enumeration.

    ``probs`` follows binary-code order: configuration index c has
    y_i = (c >> i) & 1. It is populated only on request.
    """

    log_partition: float
    marginals: np.ndarray
    weights: WeightSystem
    probs: np.ndarray | None = None

    @property
    def welfare(self) -> float:
        return float(self.marginals.sum())


@lru_cache(maxsize=8)
def _configs(n: int, start: int, stop: int) -> np.ndarray:
    """Configurations with codes start..stop-1 as a float matrix, one row per
    code: row r has y_i = ((start + r) >> i) & 1."""
    codes = np.arange(start, stop, dtype=np.uint32)
    y = ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)
    y.flags.writeable = False  # the cache hands the same block to every caller
    return y


def _check_size(n: int, cap: int):
    if n > cap:
        raise ExactSizeError(
            f"exact enumeration infeasible: {n} units exceeds cap {cap}"
        )


def _energies(y: np.ndarray, w: WeightSystem) -> np.ndarray:
    return y @ w.w1 + ((y @ w.w2) * y).sum(axis=1)


def enumerate_gibbs(
    w: WeightSystem,
    max_units: int = MAX_EXACT_UNITS,
    with_probs: bool = False,
) -> ExactDistribution:
    """Exact stationary distribution for a weight system.

    Normalization is log-sum-exp stabilized; marginals are exact sums of
    configuration probabilities. A sparse w2 is densified first.
    """
    n = w.n
    _check_size(n, max_units)
    w = w.dense()
    # Two passes over the configuration blocks: energies, then marginals.
    total = 1 << n
    blocks = [(start, min(start + _BLOCK, total)) for start in range(0, total, _BLOCK)]
    e = np.empty(total)
    for start, stop in blocks:
        e[start:stop] = _energies(_configs(n, start, stop), w)
    log_z = float(logsumexp(e))
    p = np.exp(e - log_z)
    marginals = np.zeros(n)
    for start, stop in blocks:
        marginals += p[start:stop] @ _configs(n, start, stop)
    return ExactDistribution(
        log_partition=log_z,
        marginals=marginals,
        weights=w,
        probs=p if with_probs else None,
    )


def exact_welfare(d, instance: Instance, max_units: int = MAX_EXACT_UNITS) -> float:
    """Equilibrium welfare, the sum of exact stationary choice marginals."""
    dist = enumerate_gibbs(weights(instance, d), max_units=max_units)
    return dist.welfare


def welfare_of_allocations(
    instance: Instance,
    allocations: np.ndarray,
    max_units: int = 15,
    chunk: int = 256,
) -> np.ndarray:
    """Exact welfare for a batch of allocations (rows of a 0/1 matrix).

    The table holds the 2^N configurations followed by one column y_i * y_j
    per coupled pair i < j, the pairs where m_ij * G_ij is nonzero: no other
    pair enters the energy. The energies of all configurations for a block
    of allocations are then one matrix product of the table against
    per-allocation linear and doubled pair weights, which keeps
    hundred-network sweeps tractable.
    """
    n = instance.n
    _check_size(n, max_units)
    allocations = np.asarray(allocations, dtype=float)
    if allocations.ndim == 1:
        allocations = allocations[None, :]
    n_alloc = allocations.shape[0]
    th = instance.theta
    sm = to_dense(instance.coupling)
    iu, ju = np.nonzero(np.triu(sm, k=1))  # row-major, as np.triu_indices
    y = _configs(n, 0, 1 << n)
    table = np.concatenate([y, y[:, iu] * y[:, ju]], axis=1)
    s = y.sum(axis=1)
    base = th.theta0 + instance.x_effect2
    smp = sm[iu, ju]
    out = np.empty(n_alloc)
    for start in range(0, n_alloc, chunk):
        dt = allocations[start : start + chunk].T  # (n, block)
        coef = np.empty((n + iu.size, dt.shape[1]))
        coef[:n] = (
            base[:, None]
            + (th.theta1 + instance.x_effect3)[:, None] * dt
            + th.a_n * th.theta4 * (sm @ dt)
        )
        # Doubled upper-triangle weights reproduce the full quadratic form.
        coef[n:] = th.a_n * smp[:, None] * (th.theta5 + th.theta6 * dt[iu] * dt[ju])
        e = table @ coef
        e -= e.max(axis=0)
        np.exp(e, out=e)
        out[start : start + chunk] = (s @ e) / e.sum(axis=0)
    return out


def brute_force_optimal(
    instance: Instance,
    kappa: int,
    max_units: int = 15,
) -> tuple[Allocation, float]:
    """Exact argmax of equilibrium welfare over allocations of size <= kappa.

    Welfare ties are broken toward the lexicographically smallest treated
    index set, so the result is deterministic. Capacities with more than
    2,000,000 feasible allocations (the default cap of
    ``feasible_allocations``) raise ``EnumerationCapError``.
    """
    n = instance.n
    _check_size(n, max_units)
    allocations = feasible_allocations(n, kappa)
    values = welfare_of_allocations(instance, allocations, max_units=max_units)
    best = _argmax_lexicographic(values, allocations)
    return Allocation.from_vector(allocations[best]), float(values[best])


def _argmax_lexicographic(values: np.ndarray, allocations: np.ndarray) -> int:
    """Index of the maximal value; exact ties resolve to the row whose
    treated index tuple is lexicographically smallest."""
    top = values.max()
    tied = np.flatnonzero(values == top)
    if tied.size == 1:
        return int(tied[0])
    keys = [tuple(np.flatnonzero(allocations[i])) for i in tied]
    return int(tied[int(np.argmin(np.array(keys, dtype=object)))])


def exact_kl(mu: np.ndarray, dist: ExactDistribution) -> float:
    """KL divergence of the independent Bernoulli law with means mu from the
    exact stationary distribution carried by ``dist``.

    Evaluates log Z minus the unclamped variational objective at mu, which
    is exact for interior mu.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != dist.weights.w1.shape:
        raise ValueError("mu length does not match the distribution")
    if (mu <= 0).any() or (mu >= 1).any():
        raise ValueError("mu entries must lie strictly inside (0, 1)")
    return dist.log_partition - variational_objective(mu, dist.weights, clamp=0.0)
