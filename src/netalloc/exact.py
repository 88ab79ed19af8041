"""Exact Gibbs-distribution computations for small networks.

The stationary law p(y) ~ exp(w1'y + y'w2y) has a pair term only where
m_ij * G_ij is nonzero. One routine, ``_eliminate``, sums the units out in
min-fill order over that coupled-pair graph (bucket elimination), in
O(N 2^(w+1)) work per allocation for elimination width w. From it come
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
    nonzero_entries,
    pair_weights,
    weights,
)

# Above this many units exact computation is refused outright.
MAX_EXACT_UNITS = 20
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


def _min_fill_order(n: int, iu, ju) -> list[tuple[int, list[int]]]:
    """(unit, its neighbours) per min-fill elimination step over the graph with
    edges (iu[k], ju[k]): the unit whose neighbours have the fewest unlinked
    pairs goes next (then fewest neighbours, lowest index); they get linked."""
    nbrs = [set() for _ in range(n)]
    for i, j in zip(iu.tolist(), ju.tolist()):
        nbrs[i].add(j)
        nbrs[j].add(i)
    order, left = [], set(range(n))
    while left:
        # A neighbour a of u misses len(nbrs[u] - nbrs[a]) - 1 others.
        v = min(left, key=lambda u: (
            sum(len(nbrs[u] - nbrs[a]) - 1 for a in nbrs[u]), len(nbrs[u]), u))
        for a in nbrs[v]:
            nbrs[a] = (nbrs[a] | nbrs[v]) - {a, v}
        order.append((v, sorted(nbrs[v])))
        left.remove(v)
    return order


def _sum_out(v: int, rest: list[int], mine: list, stat: np.ndarray) -> tuple:
    """The factor over ``rest`` left by summing unit v out of the factors
    ``mine`` (every factor that holds v): log-weights by ``logaddexp`` over
    y_v, statistics averaged under the conditional law of y_v, with v's own
    row of ``stat`` added where y_v = 1."""
    scope = sorted([v, *rest])
    logw, parts = 0.0, []
    for units, table, part in mine:
        missing = [1 + k for k, u in enumerate(scope) if u not in units]
        logw = logw + np.expand_dims(table, missing)
        if part is not None:
            parts.append(np.expand_dims(part, missing))
    axis = (slice(None),) * (1 + scope.index(v))
    new = np.logaddexp(logw[axis + (0,)], logw[axis + (1,)])
    p1 = np.exp(logw[axis + (1,)] - new)[..., None]
    st = np.broadcast_to(sum(parts[1:], parts[0]) if parts else 0.0, logw.shape + stat.shape[1:])
    st0, st1 = st[axis + (0,)], st[axis + (1,)]
    # E[statistic | rest] = st0 + P(y_v = 1 | rest) (st1 + stat_v - st0)
    out = st1 + stat[v]
    out -= st0
    out *= p1
    out += st0
    return tuple(rest), new, out


def _eliminate(w1, iu, ju, pair_w, stat):
    """log Z, shape (B,), and E[y @ stat], shape (B, L), of the laws
    p(y) ~ exp(w1[b] @ y + sum_k pair_w[b, k] y[iu[k]] y[ju[k]]), one per row b.

    A factor is (sorted units, log-weight table with an axis of length 2 per
    unit after the row axis, expected statistic of the units summed into it
    or None, with length-1 axes for units it does not depend on). Rows run
    in blocks whose largest factor stays within ``_BUDGET`` entries.
    """
    (n_rows, n), n_stat = w1.shape, stat.shape[1]
    order = _min_fill_order(n, iu, ju)
    widest = max((len(rest) for _, rest in order), default=0) + 1
    block = max(1, _BUDGET // ((1 << widest) * n_stat))
    log_z, mean = np.empty(n_rows), np.empty((n_rows, n_stat))
    for start in range(0, n_rows, block):
        rows = slice(start, start + block)
        b = w1[rows].shape[0]
        unary, pairs = np.zeros((n, b, 2)), np.zeros((len(iu), b, 2, 2))
        unary[..., 1], pairs[..., 1, 1] = w1[rows].T, pair_w[rows].T
        factors = [((i,), t, None) for i, t in enumerate(unary)]
        factors += [((i, j), t, None) for i, j, t in zip(iu.tolist(), ju.tolist(), pairs)]
        for v, rest in order:
            mine = [f for f in factors if v in f[0]]
            factors = [f for f in factors if v not in f[0]]
            factors.append(_sum_out(v, rest, mine, stat))
        # Every unit is summed out: one scalar factor per connected component.
        log_z[rows] = sum(f[1] for f in factors)
        mean[rows] = sum(f[2] for f in factors)
    return log_z, mean


def _moments(w: WeightSystem, stat: np.ndarray) -> tuple[float, np.ndarray]:
    """log Z and the expectation of y @ stat under one weight system."""
    r, c, v = w.entries
    upper = r < c  # the pairs i < j, with their pair weights 2 w2_ij
    log_z, mean = _eliminate(w.w1[None], r[upper], c[upper], v[upper][None], stat)
    return float(log_z[0]), mean[0]


def enumerate_gibbs(w: WeightSystem) -> ExactDistribution:
    """Exact stationary distribution for a weight system: log Z and the
    choice marginals. The result carries the system with a dense w2."""
    _check_size(w.n, MAX_EXACT_UNITS)
    log_z, marginals = _moments(w, np.eye(w.n))
    return ExactDistribution(log_partition=log_z, marginals=marginals, weights=w.dense())


def exact_welfare(d, instance: Instance, max_units: int = MAX_EXACT_UNITS) -> float:
    """Equilibrium welfare, the sum of exact stationary choice marginals."""
    _check_size(instance.n, max_units)
    return float(_moments(weights(instance, d), np.ones((instance.n, 1)))[1][0])


def welfare_of_allocations(
    instance: Instance,
    allocations: np.ndarray,
    max_units: int = 15,
) -> np.ndarray:
    """Exact welfare for a batch of allocations (rows of a 0/1 matrix).

    Only the coupled pairs i < j, where m_ij * G_ij is nonzero, enter the
    energy, so every allocation shares one elimination order; the
    allocations ride along as the leading axis of every factor.
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
    _, mean = _eliminate(w1, iu, ju, pair_w, np.ones((n, 1)))
    return mean[:, 0]


def brute_force_optimal(
    instance: Instance,
    kappa: int,
    max_units: int = 15,
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


def _argmax_lexicographic(values: np.ndarray, allocations: np.ndarray, tie: float = 0.0) -> int:
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
