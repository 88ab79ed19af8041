"""Structural utility model for the sequential binary-choice network game.

Houses the structural parameters, problem instances, per-unit utilities,
the potential function whose Gibbs measure is the stationary outcome
distribution, and the linear/quadratic weight system (w1, w2) that the
potential factors through:

    Phi(y) = w1'y + y' w2 y.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import expit

from .network import (
    Network,
    SimilarityKernel,
    check_count,
    check_covariates,
    pair_similarity,
    similarity_bounds,
    similarity_matrix,
)

if TYPE_CHECKING:
    from scipy import sparse

log = logging.getLogger(__name__)

# Networks whose edge density 2E / (N (N - 1)) is at most this store their
# coupling in CSR form; denser ones keep a dense array. Measured with one
# BLAS thread on a 2-core x86_64 host: a CSR product with an (N, batch)
# block is 1.6-1.9x slower than dense BLAS at a 14.9% coupling fill and
# 6.3x faster at 0.5%; they break even near 8%.
SPARSE_DENSITY = 0.05

# Widening of each unit's choice-probability interval in
# ``WeightSystem.screen``. The sampler's unscreened decision is
# u < sigmoid(a) for the logit argument a summed from the unit's row over the
# current state. For any state of the other units, a differs from the exact
# argument by at most t 2^-53 A_i, where t, the row length plus one, bounds
# the additions behind a and A_i = |w1_i| + sum_j |2 w2_ij| bounds every
# partial sum. The logistic is 1/4-Lipschitz, and ``sigmoid`` and ``expit``
# are good to a few 2^-53; the bounds' own sums add at most the row length to
# t. So u < p_lo[i] implies u < sigmoid(a), and u >= p_hi[i] implies the
# opposite, while (t + row length) A_i < 4e-9 2^53, about 3.6e7: for A_i of
# order one (about 2.5 at most on ``sparse_allocate``) that holds for rows of
# millions of entries. No sum outlives its step, so the bound does not depend
# on how long the sampler runs or on its block length.
SCREEN_MARGIN = 1e-9


def derive_seed(master: int, *key) -> int:
    """Stable child seed from a master seed and an integer key path."""
    entropy = [int(master)] + [int(k) for k in key]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def sigmoid(a: float) -> float:
    """Logistic function of one float, without overflow for large |a|."""
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


# Dense arrays are told from CSR matrices by ``isinstance(a, np.ndarray)``,
# so that runs on dense networks never import scipy.sparse (about 1 MB).


def to_dense(a):
    """``a`` itself, or a dense copy when it is a scipy sparse matrix."""
    return a if isinstance(a, np.ndarray) else a.toarray()


def nonzero_entries(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero entries of a dense array or a
    CSR matrix, row by row in ascending column order."""
    if isinstance(a, np.ndarray):
        r, c = a.nonzero()
        return r, c, a[r, c]
    if not a.has_canonical_format:  # unsorted or repeated column indices
        a = a.copy()
        a.sum_duplicates()
    r = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    keep = a.data != 0  # stored zeros are not entries
    return r[keep], a.indices[keep], a.data[keep]


def greedy_colouring(a) -> tuple[np.ndarray, ...]:
    """Colour classes of the graph whose edges are the nonzero entries of a
    (dense or CSR): each class lists its units in ascending order, and no
    entry joins two units of one class. Units take, largest degree first
    and ties by index, the smallest colour no neighbour has yet."""
    r, c, _ = nonzero_entries(a)
    degree = np.bincount(r, minlength=a.shape[0])
    ptr = np.concatenate(([0], np.cumsum(degree))).tolist()
    cols = c.tolist()
    colour = [-1] * a.shape[0]
    # Python's sort is stable, so equal degrees stay in index order; a stable
    # np.argsort does the same but faults in 128 KB more of numpy's code.
    for i in sorted(range(a.shape[0]), key=(-degree).tolist().__getitem__):
        taken = {colour[j] for j in cols[ptr[i]:ptr[i + 1]]}
        k = 0
        while k in taken:
            k += 1
        colour[i] = k
    count = max(colour, default=-1) + 1
    colour = np.array(colour)
    return tuple(np.flatnonzero(colour == k) for k in range(count))


def min_fill_order(n: int, iu, ju) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(unit, its neighbours) per min-fill elimination step over the graph on
    n units with edges (iu[k], ju[k]): the unit whose neighbours have the
    fewest unlinked pairs goes next (then fewest neighbours, lowest index);
    they get linked."""
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
        order.append((v, tuple(sorted(nbrs[v]))))
        left.remove(v)
    return tuple(order)


def logistic_slope(x):
    """Derivative of the logistic function, logistic(x) logistic(-x): the
    same as logistic(x) (1 - logistic(x)) without its cancellation for large x."""
    return expit(x) * expit(-x)


def _coef_array(value, k: int) -> np.ndarray:
    """Broadcast a scalar or length-K coefficient to a length-K array."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape == (1,) and k > 1:
        arr = np.full(k, arr[0])
    if arr.shape != (k,):
        raise ValueError(f"coefficient of shape {arr.shape} incompatible with K={k}")
    return arr


# Benchmark parameter profiles: (theta0, ..., theta6). The second profile
# has spillover terms large enough to break the contraction condition.
PARAM_SETS = {
    1: (-2.0, 0.5, 0.1, 0.6, 0.7, 0.8, 0.9),
    2: (-2.0, 0.5, 0.1, 0.6, 0.7, 7.0, 7.0),
}


@dataclass(frozen=True)
class ThetaParams:
    """Structural parameters theta0..theta6 plus the spillover scaling a_n.

    theta2 and theta3 may be scalars (K = 1, or one shared coefficient per
    covariate column) or length-K sequences. Every entry must be finite.
    a_n rescales every spillover term and must be positive; a_n *
    max_degree should stay bounded as the network grows, which is reported
    (not enforced) at instance assembly.
    """

    theta0: float
    theta1: float
    theta2: float | tuple
    theta3: float | tuple
    theta4: float
    theta5: float
    theta6: float
    a_n: float = 1.0

    def __post_init__(self):
        if not isinstance(self.a_n, numbers.Real) or isinstance(self.a_n, bool):
            raise ValueError(f"a_n must be a number, got {self.a_n!r}")
        if not 0 < self.a_n < math.inf:
            raise ValueError("a_n must be positive and finite")
        object.__setattr__(self, "a_n", float(self.a_n))
        for k in range(7):
            name = f"theta{k}"
            v = getattr(self, name)
            entries = np.ravel(np.asarray(v, dtype=object))
            if not all(isinstance(u, numbers.Real) and not isinstance(u, bool) for u in entries):
                raise ValueError(f"{name} must be a number or a list of numbers, got {v!r}")
            if not np.isfinite(entries.astype(float)).all():
                raise ValueError(f"{name} must be finite, got {v!r}")
            if np.ndim(v) > 0:
                object.__setattr__(self, name, tuple(float(u) for u in v))

    @classmethod
    def from_set(cls, set_id: int, a_n: float = 1.0) -> "ThetaParams":
        if set_id not in PARAM_SETS:
            raise ValueError(f"unknown parameter set {set_id}")
        return cls(*PARAM_SETS[set_id], a_n=a_n)

    @classmethod
    def from_dict(cls, d: dict) -> "ThetaParams":
        names = [f"theta{k}" for k in range(7)]
        missing = [k for k in names if k not in d]
        unknown = sorted(set(d) - {*names, "a_n"})
        if missing or unknown:
            raise ValueError(f"theta keys missing: {missing}, unknown: {unknown}")
        return cls(**d)

    def to_dict(self) -> dict:
        out = {}
        for k in range(7):
            v = getattr(self, f"theta{k}")
            out[f"theta{k}"] = list(v) if isinstance(v, tuple) else v
        out["a_n"] = self.a_n
        return out


@dataclass(frozen=True)
class Allocation:
    """Binary treatment vector with its treated index set."""

    d: np.ndarray
    treated: tuple

    @classmethod
    def from_vector(cls, d) -> "Allocation":
        d = np.asarray(d)
        d = allocation_vector(d, d.size)
        return cls(d=d, treated=tuple(int(i) for i in np.flatnonzero(d)))

    @classmethod
    def zeros(cls, n: int) -> "Allocation":
        return cls(d=np.zeros(n, dtype=np.int8), treated=())

    def with_unit(self, i: int) -> "Allocation":
        d = self.d.copy()
        d[i] = 1
        return Allocation.from_vector(d)


def allocation_vector(d, n: int, block: bool = False) -> np.ndarray:
    """Check an Allocation or array-like and return it as an int8 0/1 array:
    one allocation of length n, or with ``block`` a (B, n) block of them
    (one allocation becomes a block of one). Entries are compared with 0
    and 1 before the cast, so 0.5 or 2 is rejected, not truncated."""
    vec = d.d if isinstance(d, Allocation) else np.asarray(d)
    if vec.shape[-1:] != (n,) or vec.ndim > 1 + block:
        raise ValueError(f"allocation must have length {n}, got shape {vec.shape}")
    if not ((vec == 0) | (vec == 1)).all():
        raise ValueError("allocation entries must be 0 or 1")
    vec = vec.astype(np.int8, copy=False)
    return np.atleast_2d(vec) if block else vec


class EnumerationCapError(ValueError):
    """Raised when a capacity admits more allocations than may be listed."""


def check_capacity(n: int, kappa: int) -> int:
    """kappa, after checking that it is an integer between 0 and n."""
    check_count("kappa", kappa)
    if not 0 <= kappa <= n:
        raise ValueError(f"kappa must be between 0 and n, got {kappa} for n = {n}")
    return kappa


def feasible_allocations(n: int, kappa: int, max_count: int = 2_000_000) -> np.ndarray:
    """All allocations with at most kappa treated units, as a (count, n) matrix.

    Rows are ordered by treated-set size and lexicographically within each
    size, so the first row is the empty allocation.
    """
    check_capacity(n, kappa)
    total = sum(math.comb(n, k) for k in range(kappa + 1))
    if total > max_count:
        raise EnumerationCapError(
            f"{total} feasible allocations exceed the enumeration cap {max_count}"
        )
    out = np.zeros((total, n), dtype=np.int8)
    row = 0
    for k in range(kappa + 1):
        count = math.comb(n, k)
        treated = itertools.chain.from_iterable(itertools.combinations(range(n), k))
        cols = np.fromiter(treated, dtype=np.intp, count=count * k).reshape(count, k)
        out[np.arange(row, row + count)[:, None], cols] = 1
        row += count
    return out


@dataclass(frozen=True)
class WeightSystem:
    """Linear weights w1 (length N) and symmetric quadratic weights w2 (N x N).

    w2 has zero diagonal; the potential of a configuration y is
    w1'y + y' w2 y. w2 has the storage of the instance's coupling: a dense
    array or a ``scipy.sparse.csr_array`` of its nonzero entries. Systems
    from ``weights`` are symmetric by construction; one built without an
    instance is checked: w2 must be square of side len(w1), finite,
    symmetric and zero on the diagonal, since the solvers and the exact
    oracle read only its pairs i < j.
    """

    w1: np.ndarray
    w2: np.ndarray | sparse.csr_array
    # The instance whose coupling's pattern holds w2's (set by ``weights``):
    # its colouring and elimination order serve this system, and are not
    # redone per allocation. A system built without one is checked, and
    # colours and orders its own w2.
    instance: Instance | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.instance is not None:
            return
        w1, w2 = self.w1, self.w2
        if np.ndim(w1) != 1 or w2.shape != (len(w1), len(w1)):
            raise ValueError(f"w2 must be square with side len(w1); got w1 of shape "
                             f"{np.shape(w1)} and w2 of shape {w2.shape}")
        dense = isinstance(w2, np.ndarray)
        if not (np.isfinite(w1).all() and np.isfinite(w2 if dense else w2.data).all()):
            raise ValueError("weights must be finite")
        asymmetric = w2 != w2.T
        if asymmetric.any() if dense else asymmetric.nnz:
            raise ValueError("w2 must be symmetric")
        if w2.diagonal().any():
            raise ValueError("w2 must have a zero diagonal")

    @property
    def n(self) -> int:
        return self.w1.shape[0]

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and weights 2 w2_ij of the entries w2_ij != 0, row by
        row (``nonzero_entries``), from either storage."""
        r, c, v = nonzero_entries(self.w2)
        return r, c, 2.0 * v

    @cached_property
    def colour_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """``(units, w1[units], w2[units])`` per class of the instance's
        ``colour_classes``, or of ``greedy_colouring(w2)`` for a system built
        without an instance, for sweeps that update one class at a time: no
        unit of a class has a w2 entry with another unit of it. The rows keep
        w2's storage, dense or CSR."""
        classes = (greedy_colouring(self.w2) if self.instance is None
                   else self.instance.colour_classes)
        return tuple((units, self.w1[units], self.w2[units]) for units in classes)

    @cached_property
    def row_lists(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per-unit rows (cols, vals) of 2 w2 as Python lists, for the sampler,
        which updates one unit at a time: cols[i] lists the j with w2_ij != 0 in
        ascending order and vals[i] the weights 2 w2_ij, so unit i's logit
        argument is w1_i + sum_k vals[i][k] y[cols[i][k]]. Either storage gives
        the same rows. Cached on the system itself, so they live and die with it."""
        r, c, v = self.entries
        ptr = np.searchsorted(r, np.arange(self.n + 1)).tolist()
        empty = []  # shared by the empty rows
        return tuple([f[a:b] if a < b else empty for a, b in zip(ptr, ptr[1:])]
                     for f in (c.tolist(), v.tolist()))

    @cached_property
    def screen(self) -> tuple[np.ndarray, np.ndarray]:
        """What the single-site sampler needs besides ``row_lists``: arrays
        ``(p_lo, p_hi)`` with p_lo[i] <= P(y_i = 1 | y_-i) < p_hi[i] for every
        state of the other units. Each is the logistic of w1_i plus the sum of
        the negative (positive) entries of row i, widened by ``SCREEN_MARGIN``.
        A draw below p_lo[i] or at least p_hi[i] decides unit i's step without
        its logit argument; the sampler screens a block of draws at once."""
        r, _, v = self.entries
        lo = expit(self.w1 + np.bincount(r, np.minimum(v, 0.0), self.n)) - SCREEN_MARGIN
        hi = expit(self.w1 + np.bincount(r, np.maximum(v, 0.0), self.n)) + SCREEN_MARGIN
        return lo, hi


@dataclass(frozen=True)
class Instance:
    """A full problem instance: network, covariates, parameters, kernel.

    The similarity m(X_i, X_j) is ``kernel`` evaluated on the covariates.
    Covariates are checked with ``check_covariates`` and stored as a float
    (N, K) array. All fields are immutable after construction; derived
    arrays are cached.
    """

    net: Network
    x: np.ndarray
    theta: ThetaParams
    kernel: SimilarityKernel

    def __post_init__(self):
        if not isinstance(self.kernel, SimilarityKernel):
            raise TypeError(f"kernel must be a SimilarityKernel, got {self.kernel!r}")
        object.__setattr__(self, "x", check_covariates(self.x))
        if self.x.shape[0] != self.net.n:
            raise ValueError(
                f"covariate rows ({self.x.shape[0]}) do not match "
                f"network size ({self.net.n})"
            )

    @property
    def n(self) -> int:
        return self.net.n

    @cached_property
    def m(self) -> np.ndarray:
        """Dense all-pairs similarity matrix, built on first access."""
        return similarity_matrix(self.x, self.kernel)

    @cached_property
    def coupling(self) -> np.ndarray | sparse.csr_array:
        """Similarity masked by adjacency: entry (i, j) is m_ij * G_ij.

        Networks with edge density above ``SPARSE_DENSITY`` get the dense
        array ``m * adjacency``. Sparser ones get a ``scipy.sparse.csr_array``
        holding the nonzero entries, built from the neighbour lists with the
        similarity on the edges only, so no N x N array is built. Both forms
        hold the same values bit for bit; every consumer follows the format.
        """
        net = self.net
        if net.edge_density > SPARSE_DENSITY:
            return self.m * net.adjacency
        from scipy import sparse  # loaded only once a network is sparse

        rows, cols = net.rows, net.indices
        values = pair_similarity(self.x, self.kernel, rows, cols)
        # Copies, since eliminate_zeros compacts the index arrays in place.
        out = sparse.csr_array((values, cols.copy(), net.indptr.copy()), shape=(net.n, net.n))
        out.eliminate_zeros()
        return out

    @cached_property
    def colour_classes(self) -> tuple[np.ndarray, ...]:
        """``greedy_colouring`` of the coupling. Every w2 of this instance has
        its nonzero entries among the coupling's, so the classes serve the
        weight system of every allocation."""
        return greedy_colouring(self.coupling)

    @cached_property
    def elimination_order(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``min_fill_order`` of the coupled pairs i < j. Every w2 of this
        instance has its pairs among the coupling's, so the exact oracle sums
        the units out in this one order for every allocation."""
        r, c, _ = nonzero_entries(self.coupling)
        upper = r < c
        return min_fill_order(self.n, r[upper], c[upper])

    @cached_property
    def coupling_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Row sums and column maxima of the coupling, from either storage:
        the constants of greedy's candidate screen."""
        sm = self.coupling
        return np.asarray(sm.sum(axis=1)).ravel(), to_dense(sm.max(axis=0)).ravel()

    @cached_property
    def x_effect2(self) -> np.ndarray:
        k = self.x.shape[1]
        return self.x @ _coef_array(self.theta.theta2, k)

    @cached_property
    def x_effect3(self) -> np.ndarray:
        k = self.x.shape[1]
        return self.x @ _coef_array(self.theta.theta3, k)

    @cached_property
    def m_bounds(self) -> tuple[float, float]:
        """(lower, upper) similarity bounds over distinct pairs, computed in
        row blocks without the dense similarity matrix."""
        return similarity_bounds(self.x, self.kernel)

    @property
    def m_lower(self) -> float:
        return self.m_bounds[0]

    @property
    def m_upper(self) -> float:
        return self.m_bounds[1]

    @property
    def spillover_scale(self) -> float:
        """a_n times the maximum degree; should stay bounded as networks
        grow for the approximations to behave."""
        return self.theta.a_n * self.net.max_degree


def make_instance(
    net: Network,
    x,
    theta: ThetaParams,
    kernel: SimilarityKernel | None = None,
) -> Instance:
    """Assemble an Instance, logging a large spillover scale.

    The default kernel is the L1-distance similarity. The kernel is
    evaluated lazily: on the edges for a sparse coupling, on all pairs only
    when ``Instance.m`` is read.
    """
    instance = Instance(net=net, x=x, theta=theta, kernel=kernel or SimilarityKernel.abs_diff())
    if instance.spillover_scale > 10.0:
        log.info(
            "spillover scale a_n * max_degree = %.3g is large; consider a "
            "smaller a_n for this network",
            instance.spillover_scale,
        )
    return instance


def linear_weights(instance: Instance, d, coupled=None) -> np.ndarray:
    """w1 of one allocation d (length N) or of an (N, batch) block: the terms
    linear in y_i, (theta0 + x2) + (theta1 + x3) d + a_n theta4 (coupling @ d).
    ``coupled`` is ``coupling @ d`` when the caller already has it."""
    th = instance.theta
    if coupled is None:
        coupled = instance.coupling @ d
    col = (slice(None),) + (None,) * (np.ndim(d) - 1)  # unit coefficients down the columns
    return ((th.theta0 + instance.x_effect2)[col] + (th.theta1 + instance.x_effect3)[col] * d
            + th.a_n * th.theta4 * coupled)


def pair_weights(theta: ThetaParams, coupling, dd):
    """w2 entries a_n / 2 * m_ij G_ij * (theta5 + theta6 d_i d_j), from the
    coupling entries m_ij G_ij and the matching products dd = d_i d_j."""
    return 0.5 * theta.a_n * coupling * (theta.theta5 + theta.theta6 * dd)


def weights(instance: Instance, d) -> WeightSystem:
    """Weight system (w1, w2) induced by a treatment allocation: the
    ``linear_weights`` and the ``pair_weights`` of the coupling. A CSR
    coupling gives a CSR w2 of the nonzero entries, computed on the edges.
    """
    d = allocation_vector(d, instance.n)
    sm = instance.coupling
    w1 = linear_weights(instance, d)
    if isinstance(sm, np.ndarray):
        w2 = pair_weights(instance.theta, sm, np.outer(d, d))
    else:
        rows = np.repeat(np.arange(instance.n), np.diff(sm.indptr))
        values = pair_weights(instance.theta, sm.data, d[rows] * d[sm.indices])
        # Copies, since eliminate_zeros compacts the coupling's index arrays
        # in place; the entries where theta5 + theta6 d_i d_j = 0 go.
        w2 = type(sm)((values, sm.indices.copy(), sm.indptr.copy()), shape=sm.shape)
        w2.eliminate_zeros()
    return WeightSystem(w1=w1, w2=w2, instance=instance)


def utility(i: int, y, instance: Instance, d) -> float:
    """Utility of unit i choosing y_i relative to choosing 0.

    Only the coordinates y_j with j a neighbor of i matter besides y_i
    itself; utility is identically 0 whenever y_i = 0.
    """
    y = np.asarray(y, dtype=float)
    d = allocation_vector(d, instance.n)
    if y[i] == 0:
        return 0.0
    th = instance.theta
    sm = instance.coupling
    if isinstance(sm, np.ndarray):
        sm_row, cols = sm[i], slice(None)
    else:  # the indptr slice; ``sm[i]`` would build a row object (~30 us)
        span = slice(sm.indptr[i], sm.indptr[i + 1])
        sm_row, cols = sm.data[span], sm.indices[span]
    linear = (
        th.theta0
        + th.theta1 * d[i]
        + instance.x_effect2[i]
        + instance.x_effect3[i] * d[i]
        + th.a_n * th.theta4 * float(sm_row @ d[cols])
    )
    interact = th.a_n * float(
        sm_row @ ((th.theta5 + th.theta6 * d[i] * d[cols]) * y[cols])
    )
    # sm_row[i] = 0, so the j = i term vanishes from the interaction sum.
    return float(linear * y[i] + interact * y[i])


def potential(y, instance: Instance, d) -> float:
    """Potential of a configuration; unilateral-change differences in the
    potential equal the corresponding utility differences."""
    w = weights(instance, d)
    y = np.asarray(y, dtype=float)
    return float(w.w1 @ y + y @ w.w2 @ y)

