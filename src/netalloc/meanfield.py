"""Naive mean-field approximation of the stationary outcome distribution.

Approximates the Gibbs measure by the best independent Bernoulli law,
found by fixed-point iteration on the first-order conditions

    mu_i = logistic(w1_i + 2 (w2 mu)_i).

The iteration sweeps units in index order updating in place by default
(each coordinate update exactly maximizes the variational objective along
that coordinate, so the objective never decreases). A simultaneous-update
mode is available for literal replication of the published iteration. The
contraction certificate bounds the sup-norm Lipschitz constant of the
first-order-condition map by one: when the bound is strict the map is a
contraction and both modes reach the unique maximizer; at equality the map
is only shown to be non-expansive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .model import Instance, ThetaParams, WeightSystem, sigmoid, weights

GAUSS_SEIDEL = "gauss-seidel"
JACOBI = "jacobi"


@dataclass(frozen=True)
class SolverSettings:
    """Fixed-point solver controls.

    rho is the objective-increment stopping threshold; foc_tol bounds the
    residual of the first-order conditions at termination. restarts only
    applies when the contraction certificate fails for the instance.
    """

    rho: float = 1e-9
    foc_tol: float = 1e-8
    max_iter: int = 100_000
    mode: str = GAUSS_SEIDEL
    restarts: int = 10
    clamp: float = 1e-15

    def __post_init__(self):
        if self.mode not in (GAUSS_SEIDEL, JACOBI):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not 0 < self.clamp < 0.5:
            raise ValueError(f"clamp must lie in (0, 0.5), got {self.clamp}")
        if not self.foc_tol >= 0:
            raise ValueError(f"foc_tol must be nonnegative, got {self.foc_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class MeanFieldSolution:
    """Converged (or best-effort) mean-field fixed point with diagnostics."""

    mu: np.ndarray
    objective: float
    iterations: int
    converged: bool
    foc_residual: float
    contraction_certified: bool = False

    @property
    def welfare(self) -> float:
        return float(self.mu.sum())


def _clamped(mu: np.ndarray, clamp: float) -> np.ndarray:
    return np.clip(mu, clamp, 1.0 - clamp)


def variational_objective(mu, w: WeightSystem, clamp: float = 1e-15) -> float:
    """Energy-plus-entropy objective whose maximizer minimizes the KL
    divergence from the Gibbs measure.

    Boundary values are clamped so the entropy term takes its limiting
    value 0 instead of producing log(0).
    """
    mu = _clamped(np.asarray(mu, dtype=float), clamp)
    energy = float(w.w1 @ mu + mu @ w.w2 @ mu)
    negentropy = float(np.sum(mu * np.log(mu) + (1 - mu) * np.log(1 - mu)))
    return energy - negentropy


def foc_map(mu, w: WeightSystem) -> np.ndarray:
    """One simultaneous application of the first-order-condition map."""
    return expit(w.w1 + 2.0 * (w.w2 @ mu))


def foc_residual(mu, w: WeightSystem) -> float:
    """Sup-norm distance of mu from the first-order-condition map."""
    return float(np.abs(mu - foc_map(mu, w)).max())


def contraction_certificate(
    theta: ThetaParams, m_upper: float, max_degree: int
) -> bool:
    """True when a_n * m_upper * (|theta5| + |theta6|) * max_degree <= 4.

    A quarter of the left side bounds the sup-norm Lipschitz constant of the
    first-order-condition map. Below 4 the map is a contraction, so the
    iteration converges to the unique maximizer from any initialization.
    At exactly 4 the bound is 1, which makes the map only non-expansive;
    the boundary still counts as certified.
    """
    magnitude = theta.a_n * m_upper * (abs(theta.theta5) + abs(theta.theta6))
    return magnitude * max_degree <= 4.0


def instance_certified(instance: Instance) -> bool:
    return contraction_certificate(
        instance.theta, instance.m_upper, instance.net.max_degree
    )


def _sweep_gauss_seidel(mu: np.ndarray, w: WeightSystem, clamp: float) -> np.ndarray:
    w1, w2 = w.w1, w.w2
    lo, hi = clamp, 1.0 - clamp
    if not isinstance(w2, np.ndarray):
        # CSR rows through their indptr slices; ``w2[i]`` costs ~30 us.
        ptr, cols, vals = w2.indptr, w2.indices, w2.data
        for i in range(mu.shape[0]):
            a, b = ptr[i], ptr[i + 1]
            v = sigmoid(w1[i] + 2.0 * float(vals[a:b] @ mu[cols[a:b]]))
            mu[i] = min(max(v, lo), hi)
        return mu
    for i in range(mu.shape[0]):
        v = sigmoid(w1[i] + 2.0 * float(w2[i] @ mu))
        mu[i] = min(max(v, lo), hi)
    return mu


def _sweep_jacobi(mu: np.ndarray, w: WeightSystem, clamp: float) -> np.ndarray:
    return _clamped(foc_map(mu, w), clamp)


def fixed_point_solve(
    w: WeightSystem,
    settings: SolverSettings | None = None,
    seed: int | None = None,
    init: np.ndarray | None = None,
    certified: bool = False,
) -> MeanFieldSolution:
    """Iterate the first-order-condition map to a fixed point.

    Starts from ``init`` when given, otherwise from a uniform random draw
    controlled by ``seed``. A sweep updates every unit once; iteration
    stops once the objective increment is at most rho and the FOC residual
    is at most foc_tol, or at max_iter with ``converged`` set to False.
    """
    settings = settings or SolverSettings()
    n = w.n
    if init is not None:
        mu = _clamped(np.asarray(init, dtype=float).copy(), settings.clamp)
    else:
        rng = np.random.default_rng(seed)
        mu = _clamped(rng.uniform(size=n), settings.clamp)
    sweep = _sweep_gauss_seidel if settings.mode == GAUSS_SEIDEL else _sweep_jacobi
    obj = variational_objective(mu, w, settings.clamp)
    converged = False
    iterations = 0
    residual = foc_residual(mu, w)
    for iterations in range(1, settings.max_iter + 1):
        mu = sweep(mu, w, settings.clamp)
        new_obj = variational_objective(mu, w, settings.clamp)
        residual = foc_residual(mu, w)
        if new_obj - obj <= settings.rho and residual <= settings.foc_tol:
            obj = new_obj
            converged = True
            break
        obj = new_obj
    return MeanFieldSolution(
        mu=mu,
        objective=obj,
        iterations=iterations,
        converged=converged,
        foc_residual=residual,
        contraction_certified=certified,
    )


def solve_allocation(
    instance: Instance,
    d,
    settings: SolverSettings | None = None,
    seed: int | None = None,
    init: np.ndarray | None = None,
) -> MeanFieldSolution:
    """Mean-field solution for the weight system induced by an allocation.

    When the contraction certificate fails the solve is repeated from
    ``settings.restarts`` random initializations and the fixed point with
    the best objective is kept; under the certificate a single run finds
    the unique maximizer.
    """
    settings = settings or SolverSettings()
    w = weights(instance, d)
    certified = instance_certified(instance)
    if certified or init is not None or settings.restarts <= 1:
        return fixed_point_solve(w, settings, seed=seed, init=init, certified=certified)
    seeds = np.random.SeedSequence(seed).generate_state(settings.restarts)
    best = None
    for s in seeds:
        sol = fixed_point_solve(w, settings, seed=int(s), certified=certified)
        if best is None or sol.objective > best.objective:
            best = sol
    return best


def approx_welfare(
    d,
    instance: Instance,
    settings: SolverSettings | None = None,
    seed: int | None = None,
    init: np.ndarray | None = None,
) -> float:
    """Approximated equilibrium welfare, the sum of mean-field marginals."""
    return solve_allocation(instance, d, settings, seed=seed, init=init).welfare


def _product(sm, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sm @ x`` for a coupling ``sm`` and an (n, batch) block ``x``.

    A dense coupling multiplies by BLAS into ``out`` (a new array when it
    is None) and returns it. A CSR coupling returns a new array, because
    scipy's product has no ``out=``; callers rebind their buffer to the
    result.
    """
    if isinstance(sm, np.ndarray):
        return np.matmul(sm, x, out=out)
    return sm @ x


@dataclass(frozen=True)
class BatchSolution:
    """Mean-field fixed points for a batch of allocations, one per column."""

    mu: np.ndarray  # (n, batch)
    objectives: np.ndarray
    welfare: np.ndarray
    converged: np.ndarray
    iterations: int


def batch_fixed_point(
    instance: Instance,
    allocations: np.ndarray,
    settings: SolverSettings | None = None,
    seed: int | None = None,
    init: np.ndarray | None = None,
) -> BatchSolution:
    """Solve the fixed-point conditions for many allocations at once.

    Runs the simultaneous-update iteration on an (n, batch) matrix of
    marginals, which turns a candidate sweep into a handful of coupling
    products (dense BLAS, or CSR for a sparse coupling). Intended for
    certified instances, where the fixed point is unique and independent of
    the update schedule; callers should fall back to per-allocation solves
    when the certificate fails.

    Each iteration does two coupling products, ``sm @ mu`` and
    ``sm @ (d * mu)``, for the iterate it evaluates. They give its
    objective, its first-order residual and the next iterate, which the
    following iteration evaluates, so a call does ``3 + 2 * iterations``
    products, all through ``_product``. Every (n, batch) array lives in one
    of seven buffers allocated up front: the allocations, w1, the current
    and the next iterate, the two products and one scratch array. (A CSR
    product returns a fresh array that replaces its product buffer.)
    """
    settings = settings or SolverSettings()
    th = instance.theta
    sm = instance.coupling
    dt = np.asarray(allocations, dtype=float).T.copy()  # (n, batch)
    n, batch = dt.shape
    base = th.theta0 + instance.x_effect2
    w1 = (
        base[:, None]
        + (th.theta1 + instance.x_effect3)[:, None] * dt
        + th.a_n * th.theta4 * _product(sm, dt)
    )
    if init is not None:
        init = np.asarray(init, dtype=float)
        mu = np.tile(init[:, None], (1, batch)) if init.ndim == 1 else init.copy()
    else:
        rng = np.random.default_rng(seed)
        mu = rng.uniform(size=(n, batch))
    lo, hi = settings.clamp, 1.0 - settings.clamp
    cur = np.clip(mu, lo, hi, out=mu)
    nxt = np.empty_like(cur)
    p1 = np.empty_like(cur)  # sm @ cur
    p2 = np.empty_like(cur)  # sm @ (dt * cur)
    tmp = np.empty_like(cur)
    scale = 0.5 * th.a_n

    def evaluate(mu, free):
        """Objective of ``mu``; leaves its two products in p1 and p2.

        ``free`` is a buffer the caller does not need; it is overwritten.
        Here and in ``step`` the order of the elementwise operations fixes
        every rounding; tests pin the output bit for bit to a reference.
        """
        nonlocal p1, p2
        np.multiply(dt, mu, out=tmp)
        p2 = _product(sm, tmp, p2)
        p1 = _product(sm, mu, p1)
        quad6 = np.multiply(tmp, p2, out=tmp).sum(axis=0)
        quad5 = np.multiply(mu, p1, out=tmp).sum(axis=0)
        energy = np.multiply(w1, mu, out=tmp).sum(axis=0) + scale * (
            th.theta5 * quad5 + th.theta6 * quad6
        )
        np.subtract(1.0, mu, out=free)
        np.log(free, out=tmp)
        np.multiply(free, tmp, out=free)
        np.log(mu, out=tmp)
        np.multiply(mu, tmp, out=tmp)
        negent = np.add(tmp, free, out=tmp).sum(axis=0)
        return energy - negent

    def step(out):
        """Next iterate from p1 and p2 (both overwritten) into ``out``."""
        np.multiply(p1, th.theta5, out=p1)
        np.multiply(dt, th.theta6, out=tmp)
        np.multiply(tmp, p2, out=p2)
        np.add(p1, p2, out=p1)
        np.multiply(p1, th.a_n, out=p1)
        np.add(w1, p1, out=out)
        expit(out, out=out)
        np.clip(out, lo, hi, out=out)

    obj = evaluate(cur, nxt)
    step(nxt)
    done = np.zeros(batch, dtype=bool)
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        cur, nxt = nxt, cur  # cur: the iterate this iteration evaluates
        new_obj = evaluate(cur, nxt)
        step(nxt)
        residual = np.abs(np.subtract(nxt, cur, out=tmp), out=tmp).max(axis=0)
        done = (new_obj - obj <= settings.rho) & (residual <= settings.foc_tol)
        obj = new_obj
        if done.all():
            break
    return BatchSolution(
        mu=cur,
        objectives=obj,
        welfare=cur.sum(axis=0),
        converged=done.copy(),
        iterations=iterations,
    )


def with_mode(settings: SolverSettings, mode: str) -> SolverSettings:
    return replace(settings, mode=mode)
