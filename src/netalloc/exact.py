"""Exact Gibbs-distribution computations for small networks.

The stationary law p(y) ~ exp(w1'y + y'w2y) has a pair term only where
m_ij * G_ij is nonzero. One routine, ``_eliminate``, sums the units out in
min-fill order over that coupled-pair graph (bucket elimination; Dechter,
1999), in O(N 2^(w+1)) work per allocation for elimination width w. The
order is the instance's ``elimination_order``, computed once, since every
allocation's pairs are among the coupling's. Factors keep a batch's
allocations on their last axis, so every elementwise loop runs along them,
and a unit is summed out by a log-sum-exp of exp, log and a maximum,
without ``np.logaddexp`` (over ten times dearer per element than
``np.exp``). From it come
log Z and the choice marginals, exact welfare of one or a batch of
allocations, exact KL divergences against independent-Bernoulli laws, and
the exact optimal allocation under a capacity: the ground truth every
approximation in the package is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meanfield import variational_objective
from .model import (
    Allocation,
    Instance,
    WeightSystem,
    allocation_vector,
    feasible_allocations,
    linear_weights,
    min_fill_order,
    nonzero_entries,
    pair_weights,
    weights,
)

# Above this many units exact computation of one allocation is refused.
MAX_EXACT_UNITS = 20
# The same cap for a batch of allocations, lower because a batch costs
# allocations x 2^(width + 1) table entries and the allocations grow with N.
BATCH_MAX_UNITS = 15
# brute_force_optimal ties: rounding moves a welfare by up to ~1e-13, and
# distinct allocations of the benchmark instances differ by 1e-9 or more.
_TIE = 1e-10
# Table entries (allocations x 2^scope x statistic length) of the largest
# factor of one allocation block: the size of a (2^15, 256) energy block.
_BUDGET = 1 << 23


class ExactSizeError(ValueError):
    """Raised when a network is too large for exact computation."""


@dataclass(frozen=True)
class ExactDistribution:
    """Normalizing constant and choice marginals of the stationary law."""

    log_partition: float
    marginals: np.ndarray
    weights: WeightSystem

    @property
    def welfare(self) -> float:
        return float(self.marginals.sum())


def _check_size(n: int, cap: int):
    if n > cap:
        raise ExactSizeError(
            f"exact enumeration infeasible: {n} units exceeds cap {cap}"
        )


def _sum_out(v: int, mine: list, stat: np.ndarray) -> tuple:
    """The factor over the other units of ``mine`` (every factor that holds
    v) left by summing unit v out of them: log-weights by a log-sum-exp over
    y_v, statistics averaged under the conditional law of y_v, with v's own
    row of ``stat`` added where y_v = 1.

    Each factor is aligned to the joint scope by a copy-free reshape that
    gives it a length-1 axis for every unit it lacks. The factors in
    ``mine`` are spent, so their sum may be one of them, and it is
    overwritten in place.
    """
    scope = sorted({u for units, _, _ in mine for u in units})
    tables, parts = [], []
    for units, table, part in mine:
        lead = tuple([2 if u in units else 1 for u in scope])
        tables.append(table.reshape(lead + table.shape[len(units):]))
        if part is not None:
            parts.append(part.reshape(lead + part.shape[len(units):]))
    logw = tables[0]
    if len(tables) > 1:  # summed in place into one table over the whole scope
        logw = np.add(logw, tables[1], out=np.empty((2,) * len(scope) + logw.shape[-1:]))
        for table in tables[2:]:
            logw += table
    axis = (slice(None),) * scope.index(v)
    l0, l1 = logw[axis + (0,)], logw[axis + (1,)]
    # log(e^l0 + e^l1) = hi + log(s) for hi = max(l0, l1) and s = e^(l0 - hi)
    # + e^(l1 - hi) in [1, 2], and P(y_v = 1 | rest) = e^(l1 - hi) / s: the
    # halves of logw hold the exponentials, then s and that probability.
    new = np.maximum(l0, l1)
    np.exp(np.subtract(l0, new, out=l0), out=l0)
    np.exp(np.subtract(l1, new, out=l1), out=l1)
    s = np.add(l0, l1, out=l0)
    p1 = np.divide(l1, s, out=l1)[..., None]
    new += np.log(s, out=s)
    # E[statistic | rest] = st0 + P(y_v = 1 | rest) (st1 + stat_v - st0),
    # where st0 = st1 = 0 if no factor carries a statistic yet.
    if parts:
        st = sum(parts[1:], parts[0])
        st0, st1 = st[axis + (0,)], st[axis + (1,)]
        out = st1 + stat[v]
        out -= st0
        out = p1 * out
        out += st0
    else:
        out = p1 * stat[v]
    scope.remove(v)
    return tuple(scope), new, out


def _eliminate(w1, iu, ju, pair_w, stat, order):
    """log Z, shape (B,), and E[y @ stat], shape (B, L), of the laws
    p(y) ~ exp(w1[b] @ y + sum_k pair_w[b, k] y[iu[k]] y[ju[k]]), one per row b.

    Units are summed out in ``order``, which the caller chooses: a
    ``min_fill_order`` of a graph that holds every pair (iu[k], ju[k]). A
    factor is (sorted units, log-weight table with an axis of length 2 per
    unit and the rows last, and None or the expected statistic of the units
    summed into it, with axes (units, rows, L)): every elementwise loop runs
    along the rows. Rows run in blocks whose largest factor stays within
    ``_BUDGET`` entries.
    """
    (n_rows, n), n_stat = w1.shape, stat.shape[1]
    widest = max((len(rest) for _, rest in order), default=0) + 1
    block = max(1, _BUDGET // ((1 << widest) * n_stat))
    log_z, mean = np.empty(n_rows), np.empty((n_rows, n_stat))
    for start in range(0, n_rows, block):
        rows = slice(start, start + block)
        b = w1[rows].shape[0]
        unary, pairs = np.zeros((n, 2, b)), np.zeros((len(iu), 2, 2, b))
        unary[:, 1], pairs[:, 1, 1] = w1[rows].T, pair_w[rows].T
        factors = [((i,), t, None) for i, t in enumerate(unary)]
        factors += [((i, j), t, None) for i, j, t in zip(iu.tolist(), ju.tolist(), pairs)]
        for v, _ in order:
            mine = [f for f in factors if v in f[0]]
            factors = [f for f in factors if v not in f[0]]
            factors.append(_sum_out(v, mine, stat))
        # Every unit is summed out: one scalar factor per connected component.
        log_z[rows] = sum(f[1] for f in factors)
        mean[rows] = sum(f[2] for f in factors)
    return log_z, mean


def _moments(w: WeightSystem, stat: np.ndarray) -> tuple[float, np.ndarray]:
    """log Z and the expectation of y @ stat under one weight system."""
    r, c, v = w.entries
    upper = r < c  # the pairs i < j, with their pair weights 2 w2_ij
    iu, ju = r[upper], c[upper]
    order = (min_fill_order(w.n, iu, ju) if w.instance is None
             else w.instance.elimination_order)
    log_z, mean = _eliminate(w.w1[None], iu, ju, v[upper][None], stat, order)
    return float(log_z[0]), mean[0]


def enumerate_gibbs(w: WeightSystem) -> ExactDistribution:
    """Exact stationary distribution for a weight system: log Z and the
    choice marginals. The result carries the system as given, with w2 in
    its own storage, dense or CSR."""
    _check_size(w.n, MAX_EXACT_UNITS)
    log_z, marginals = _moments(w, np.eye(w.n))
    return ExactDistribution(log_partition=log_z, marginals=marginals, weights=w)


def exact_welfare(d, instance: Instance, max_units: int = MAX_EXACT_UNITS) -> float:
    """Equilibrium welfare, the sum of exact stationary choice marginals."""
    _check_size(instance.n, max_units)
    return float(_moments(weights(instance, d), np.ones((instance.n, 1)))[1][0])


def welfare_of_allocations(
    instance: Instance,
    allocations: np.ndarray,
    max_units: int = BATCH_MAX_UNITS,
) -> np.ndarray:
    """Exact welfare for a batch of allocations (rows of a 0/1 matrix).

    Only the coupled pairs i < j, where m_ij * G_ij is nonzero, enter the
    energy, so every allocation shares the instance's
    ``elimination_order``; the allocations ride along as the last axis of
    every factor.
    """
    n = instance.n
    _check_size(n, max_units)
    allocations = allocation_vector(allocations, n, block=True).astype(float)
    r, c, coupled = nonzero_entries(instance.coupling)
    upper = r < c
    iu, ju = r[upper], c[upper]
    w1 = linear_weights(instance, allocations.T).T
    dd = allocations[:, iu] * allocations[:, ju]
    # 2 w2_ij: doubling is exact, so this is the pair term of ``weights``.
    pair_w = 2.0 * pair_weights(instance.theta, coupled[upper], dd)
    _, mean = _eliminate(w1, iu, ju, pair_w, np.ones((n, 1)), instance.elimination_order)
    return mean[:, 0]


def brute_force_optimal(
    instance: Instance,
    kappa: int,
    max_units: int = BATCH_MAX_UNITS,
) -> tuple[Allocation, float]:
    """Exact argmax of equilibrium welfare over allocations of size <= kappa.

    Welfare values within 1e-10 (``_TIE``) of the best count as tied, and
    the tie goes to the lexicographically smallest treated index set, so
    mirror-image allocations, equal but for rounding, give one answer.
    Capacities with more than 2,000,000 feasible allocations (the default
    cap of ``feasible_allocations``) raise ``EnumerationCapError``.
    """
    n = instance.n
    _check_size(n, max_units)
    allocations = feasible_allocations(n, kappa)
    values = welfare_of_allocations(instance, allocations, max_units=max_units)
    best = _argmax_lexicographic(values, allocations, tie=_TIE)
    return Allocation.from_vector(allocations[best]), float(values[best])


def _argmax_lexicographic(values: np.ndarray, allocations: np.ndarray, tie: float) -> int:
    """Index of the maximal value; values within ``tie`` of the maximum
    resolve to the row whose treated index tuple is lexicographically
    smallest."""
    tied = np.flatnonzero(values >= values.max() - tie).tolist()
    # Lists of Python ints compare about twice as fast as tuples of numpy ints.
    return min(tied, key=lambda i: np.flatnonzero(allocations[i]).tolist())


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
