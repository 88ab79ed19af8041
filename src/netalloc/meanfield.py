"""Naive mean-field approximation of the stationary outcome distribution.

Approximates the Gibbs measure by the best independent Bernoulli law,
found by fixed-point iteration on the first-order conditions

    mu_i = logistic(w1_i + 2 (w2 mu)_i).

A per-allocation solve sweeps in place, one colour class of the
coupled-pair graph at a time (units of one class share no pair term, so
each class update exactly maximizes the variational objective along each
of its coordinates, and the objective never decreases). The simultaneous
iteration of the published method is ``batch_fixed_point``'s, which solves
many allocations at once. Every solve stops once the residual of the
first-order conditions is at most foc_tol. The contraction certificate
bounds the sup-norm Lipschitz constant of that map strictly below one, so
both update orders reach the unique maximizer. Under the certificate, greedy
screens its candidates with the linear-response scores of ``_linear_response``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .model import Instance, WeightSystem, allocation_vector, check_count, linear_weights, weights

CLAMP = 1e-15  # iterates are clipped to [CLAMP, 1 - CLAMP], keeping their logs finite
RESTARTS = 10  # random starts of a per-allocation solve without the certificate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverSettings:
    """Fixed-point solver controls.

    Every solve stops once the residual of the first-order conditions is at
    most foc_tol, or at max_iter.
    """

    foc_tol: float = 1e-8
    max_iter: int = 100_000

    def __post_init__(self):
        if not 0 <= self.foc_tol < math.inf:
            raise ValueError(f"foc_tol must be finite and nonnegative, got {self.foc_tol}")
        check_count("max_iter", self.max_iter, minimum=1)


@dataclass(frozen=True)
class MeanFieldSolution:
    """Converged (or best-effort) mean-field fixed point with diagnostics."""

    mu: np.ndarray
    objective: float
    iterations: int
    converged: bool
    foc_residual: float

    @property
    def welfare(self) -> float:
        return float(self.mu.sum())


def variational_objective(mu, w: WeightSystem, clamp: float = CLAMP) -> float:
    """Energy-plus-entropy objective whose maximizer minimizes the KL
    divergence from the Gibbs measure.

    Boundary values are clamped so the entropy term takes its limiting
    value 0 instead of producing log(0).
    """
    mu = np.clip(np.asarray(mu, dtype=float), clamp, 1.0 - clamp)
    energy = float(w.w1 @ mu + mu @ w.w2 @ mu)
    negentropy = float(np.sum(mu * np.log(mu) + (1 - mu) * np.log(1 - mu)))
    return energy - negentropy


def foc_map(mu, w: WeightSystem) -> np.ndarray:
    """One simultaneous application of the first-order-condition map."""
    return expit(w.w1 + 2.0 * (w.w2 @ mu))


def foc_residual(mu, w: WeightSystem) -> float:
    """Sup-norm distance of mu from the first-order-condition map."""
    return float(np.abs(mu - foc_map(mu, w)).max())


def instance_certified(instance: Instance) -> bool:
    """True when a_n * m_upper * (|theta5| + |theta6|) * max_degree < 4.

    A quarter of the left side bounds the sup-norm Lipschitz constant of the
    first-order-condition map. Below 4 the map is a contraction, so the
    iteration converges to the unique maximizer from any initialization.
    """
    th = instance.theta
    magnitude = th.a_n * instance.m_upper * (abs(th.theta5) + abs(th.theta6))
    return magnitude * instance.net.max_degree < 4.0


def _sweep_gauss_seidel(mu: np.ndarray, w: WeightSystem) -> np.ndarray:
    """One in-place sweep over the colour classes of ``w.colour_blocks``, in
    order: each class moves at once to its first-order conditions given the
    current mu. No two units of a class share a pair term, so this is
    coordinate ascent unit by unit. Doubling after the product is exact."""
    for units, w1, rows in w.colour_blocks:
        mu[units] = np.clip(expit(w1 + 2.0 * (rows @ mu)), CLAMP, 1.0 - CLAMP)
    return mu


def _checked_init(init, n: int) -> np.ndarray:
    """A solver's start ``init`` as a float vector, after checking that it
    has shape (n,) and finite entries; a NaN start never converges."""
    start = np.asarray(init, dtype=float)
    if start.shape != (n,):
        raise ValueError(f"init must have shape ({n},), got {start.shape}")
    if not np.isfinite(start).all():
        raise ValueError("init must be finite")
    return start


def fixed_point_solve(
    w: WeightSystem,
    settings: SolverSettings = SolverSettings(),
    seed: int | None = None,
    init: np.ndarray | None = None,
) -> MeanFieldSolution:
    """Iterate the first-order-condition map to a fixed point.

    Starts from ``init`` when given (a finite vector of length N, clipped
    into [CLAMP, 1 - CLAMP]), otherwise from a uniform random draw
    controlled by ``seed``. A sweep updates the units in place one colour
    class at a time (chromatic Gauss-Seidel, ``_sweep_gauss_seidel``);
    iteration stops once the FOC residual is at most foc_tol, or at max_iter
    with ``converged`` False. The objective is evaluated once, at the
    returned marginals. At DEBUG level one record reports the sweeps, the
    colours, the residual and whether the solve converged.
    """
    start = (np.random.default_rng(seed).uniform(size=w.n) if init is None
             else _checked_init(init, w.n))
    mu = np.clip(start, CLAMP, 1.0 - CLAMP)
    converged = False
    for iterations in range(1, settings.max_iter + 1):
        mu = _sweep_gauss_seidel(mu, w)
        residual = foc_residual(mu, w)
        if residual <= settings.foc_tol:
            converged = True
            break
    if log.isEnabledFor(logging.DEBUG):
        colours = len(w.colour_blocks)
        log.debug("fixed point: %d sweeps over %d colours, residual %.3g, converged %s",
                  iterations, colours, residual, converged, extra={
                      "sweeps": iterations, "colours": colours, "residual": residual,
                      "converged": converged})
    return MeanFieldSolution(
        mu=mu,
        objective=variational_objective(mu, w),
        iterations=iterations,
        converged=converged,
        foc_residual=residual,
    )


def solve_allocation(
    instance: Instance,
    d,
    settings: SolverSettings = SolverSettings(),
    seed: int | None = None,
    init: np.ndarray | None = None,
) -> MeanFieldSolution:
    """Mean-field solution for the weight system induced by an allocation.

    When the contraction certificate fails the solve is repeated from
    ``RESTARTS`` random initializations and the fixed point with the best
    objective is kept; under the certificate a single run finds the unique
    maximizer.
    """
    w = weights(instance, d)
    if instance_certified(instance) or init is not None:
        return fixed_point_solve(w, settings, seed=seed, init=init)
    seeds = np.random.SeedSequence(seed).generate_state(RESTARTS)
    best = None
    for s in seeds:
        sol = fixed_point_solve(w, settings, seed=int(s))
        if best is None or sol.objective > best.objective:
            best = sol
    return best


def approx_welfare(
    d,
    instance: Instance,
    settings: SolverSettings = SolverSettings(),
    seed: int | None = None,
) -> float:
    """Approximated equilibrium welfare, the sum of mean-field marginals.
    A solve that stopped at max_iter is reported in one WARNING record."""
    sol = solve_allocation(instance, d, settings, seed=seed)
    if not sol.converged:
        log.warning("approximate welfare from a solve that stopped at max_iter, residual %.3g",
                    sol.foc_residual, extra={"nonconverged": 1})
    return sol.welfare


@dataclass(frozen=True)
class BatchSolution:
    """Mean-field fixed points for a batch of allocations, one per column.
    ``products`` are the coupling products of the returned marginals, each
    (n, batch): ``sm @ (d * mu)``, ``sm @ mu`` and ``sm @ d``; None, like
    ``iterations``, for a batch stacked from per-allocation solves."""

    mu: np.ndarray  # (n, batch)
    welfare: np.ndarray
    converged: np.ndarray
    iterations: int | None
    products: tuple | None


class Incumbent(NamedTuple):
    """A solved allocation, greedy's state between rounds: the allocation d,
    its marginals mu, and the coupling products (sm @ (d * mu), sm @ mu,
    sm @ d) of that mu, as ``_coupling_products`` or a ``BatchSolution``
    column gives them. Products are None on an uncertified instance."""

    d: np.ndarray
    mu: np.ndarray
    products: tuple


def _coupling_products(instance: Instance, d, mu: np.ndarray) -> tuple:
    """(sm @ (d * mu), sm @ mu, sm @ d) for one allocation and its
    marginals, from one stacked product."""
    dd = np.asarray(d, dtype=float)
    return tuple((instance.coupling @ np.stack([dd * mu, mu, dd], axis=1)).T)


def batch_fixed_point(
    instance: Instance,
    allocations: np.ndarray,
    settings: SolverSettings = SolverSettings(),
    seed: int | None = None,
    init: np.ndarray | Incumbent | None = None,
) -> BatchSolution:
    """Solve the fixed-point conditions for many allocations at once.

    Runs the simultaneous-update iteration on an (n, batch) matrix of
    marginals, which turns a candidate sweep into a handful of coupling
    products (dense BLAS, or CSR for a sparse coupling). ``allocations`` is
    one allocation or a (batch, n) block of them. Every column starts from
    ``init`` when given (a finite vector of length n, or an ``Incumbent``
    whose marginals are the start), otherwise from its own uniform random
    draw controlled by ``seed``. Intended for certified instances, where
    the fixed point is unique and independent of the update schedule;
    callers should fall back to per-allocation solves when the certificate
    fails.

    A column has converged once one more step moves it by at most foc_tol
    in the sup norm, and the call returns when every column has, or at
    max_iter. Under the certificate the first-order map is an
    (R/4)-contraction, R < 4 (see ``_linear_response``), so a converged
    column lies within (foc_tol + CLAMP) / (1 - R/4) of the unique fixed
    point.

    w1 (``linear_weights``) takes one coupling product. Each iteration
    does two more, ``sm @ mu`` and ``sm @ (d * mu)``, for the iterate it
    checks, and takes the next iterate from them: a call does
    ``3 + 2 * iterations`` products. ``BatchSolution.products`` keeps the
    last ones, which are those of the returned marginals. w1's ``sm @ d``
    and ``sm @ (d * mu)`` only need the block's treated support (the units
    some column treats), so they read only those columns of the coupling,
    gathered once per call: an iteration costs n (n + |support|)
    multiply-adds per column against 2 n^2, and a greedy round (an
    incumbent of r units plus one unit per column) has |support| <= r +
    batch. A block that treats every unit uses the coupling itself.

    An ``Incumbent`` start (d0, x0, products) replaces the products of w1
    and of the first step: ``sm @ d`` and ``sm @ (d * x0)`` are the
    incumbent's plus one product with the coupling's columns of the units
    where some column differs from d0, and ``sm @ x0`` is the incumbent's.
    The call then does ``1 + 2 * iterations`` products, and its marginals
    differ from a start at the vector x0 by rounding alone.

    Besides the products and the gathered arrays, every (n, batch) array
    lives in one of five buffers allocated up front: the allocations, w1,
    the current and the next iterate, and one scratch array.
    """
    th = instance.theta
    sm = instance.coupling
    dt = allocation_vector(allocations, instance.n, block=True).T.astype(float, order="C")
    n, batch = dt.shape
    support = np.flatnonzero(dt.any(axis=1))
    if len(support) < n:
        sm_d = sm[:, support]
    else:
        sm_d, support = sm, slice(None)
    if isinstance(init, Incumbent):
        start = _checked_init(init.mu, n)
        moved = dt - allocation_vector(init.d, n).astype(float)[:, None]
        diff = np.flatnonzero(moved.any(axis=1))
        moved = moved[diff]
        shift = sm[:, diff] @ np.hstack([moved, moved * start[diff, None]])
        d_mu, mu_sum, d_sum = init.products
        coupled = d_sum[:, None] + shift[:, :batch]
        first = (mu_sum[:, None], d_mu[:, None] + shift[:, batch:])
    else:
        coupled = sm_d @ dt[support]
        start = None if init is None else _checked_init(init, n)
    w1 = linear_weights(instance, dt, coupled=coupled)
    if start is not None:
        mu = np.tile(start[:, None], (1, batch))
    else:
        rng = np.random.default_rng(seed)
        mu = rng.uniform(size=(n, batch))
    lo, hi = CLAMP, 1.0 - CLAMP
    cur = np.clip(mu, lo, hi, out=mu)
    nxt = np.empty_like(cur)
    tmp = np.empty_like(cur)

    def advance(p1, p2, out):
        """The iterate whose ``sm @ mu`` is p1 and ``sm @ (d * mu)`` p2,
        into ``out``. The order of the elementwise operations fixes every
        rounding; tests pin the output bit for bit to a reference."""
        np.multiply(p1, th.theta5, out=out)
        np.multiply(dt, th.theta6, out=tmp)
        np.multiply(tmp, p2, out=tmp)
        np.add(out, tmp, out=out)
        np.multiply(out, th.a_n, out=out)
        np.add(w1, out, out=out)
        expit(out, out=out)
        np.clip(out, lo, hi, out=out)

    def step(mu, out):
        """The iterate after ``mu``, into ``out``; returns mu's products."""
        np.multiply(dt, mu, out=tmp)
        p2 = sm_d @ tmp[support]
        p1 = sm @ mu
        advance(p1, p2, out)
        return p2, p1

    if isinstance(init, Incumbent):
        advance(*first, nxt)
    else:
        step(cur, nxt)
    for iterations in range(1, settings.max_iter + 1):
        cur, nxt = nxt, cur  # cur: the iterate this iteration checks
        d_mu, mu_sum = step(cur, nxt)
        residual = np.abs(np.subtract(nxt, cur, out=tmp), out=tmp).max(axis=0)
        done = residual <= settings.foc_tol
        if done.all():
            break
    return BatchSolution(
        mu=cur, welfare=cur.sum(axis=0), converged=done, iterations=iterations,
        products=(d_mu, mu_sum, coupled),
    )


# Half the largest curvature of the logistic function, 1 / (12 sqrt 3):
# sigma(a + c) - sigma(a) - sigma'(a) c lies within this times c^2.
_HALF_CURVATURE = 1.0 / (12.0 * math.sqrt(3.0))


def _reach(instance: Instance) -> float:
    """R of the proof in ``_linear_response``: R/4 bounds the map's sup-norm slope."""
    th = instance.theta
    return th.a_n * (abs(th.theta5) + abs(th.theta6)) * instance.coupling_bounds[0].max()


def _tie_tolerance(instance: Instance, settings: SolverSettings) -> float:
    """2 tau, tau = N (foc_tol + CLAMP) / (1 - R/4) with R = ``_reach``:
    under the certificate a converged solve's welfare lies within tau of
    the exact one, so values within 2 tau are ties. Without the certificate
    values compare exactly: 0."""
    if not instance_certified(instance):
        return 0.0
    return 2.0 * instance.n * (settings.foc_tol + CLAMP) / (1.0 - _reach(instance) / 4.0)


def _linear_response(
    instance: Instance,
    incumbent: Incumbent,
    settings: SolverSettings,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Linear-response scores of treating each untreated unit, with proven
    error bounds, from the incumbent fixed point alone.

    ``incumbent`` is greedy's state (d, mu, products); its products
    (sm @ (d o mu), sm @ mu, sm @ d) also give its w1 and may be None only
    on an uncertified instance, where they are not read. Returns
    ``(s, eps, margin)`` over the units ``np.flatnonzero(d == 0)``, or None
    when the bound certifies nothing: the instance is not certified, a
    denominator below is not positive, or a bound is not finite. S_k and
    C_k below are ``instance.coupling_bounds``. The cost is one product of
    the coupling (a block of two vectors) per iteration of the v solve,
    whose last input gives u's products too. Nothing of size N x N or
    N x candidates is built.

    Notation: sm is the coupling (nonnegative, symmetric, zero diagonal),
    a = a_n, S_k and C_k the row sum and column maximum of sm,
    R = a (|theta5| + |theta6|) max_k S_k (``_reach``), sigma the logistic function,
    D = mu (1 - mu), and M x = a (theta5 sm x + theta6 d o sm (d o x)), the
    coupling term of the first-order argument at the incumbent d. The
    first-order-condition map mu -> sigma(w1 + M mu) is R/4-Lipschitz in
    the sup norm, and R < 4 under the contraction certificate.

    Score. Treating unit k adds b_kk = theta1 + x3_k + a theta6 (sm (d o mu))_k
    to its own argument and b_ik = a sm_ik (theta4 + theta6 d_i mu'_k) to
    the argument of unit i != k, where mu' is the candidate's fixed point.
    With v = 1 + M (D o v) (solved by fixed-point iteration), u = D o v,
    mu_hat_k = sigma(logit mu_k + b_kk) and J_k = mu_hat_k - mu_k:

        s_k = v_k J_k + a [theta4 (sm u)_k + theta6 mu_hat_k (sm (d o u))_k].

    The own jump is exact; the spillover of k on the other units is
    linearized, with mu_hat_k standing in for mu'_k.

    Bound. mu is the exact fixed point of the weights with w1 shifted by
    eta = logit mu - w1 - M mu (zero for an exact solve); let g_k be the
    welfare gain of k under the shifted weights. The shift of the fixed
    point, Delta = mu' - mu, satisfies, with c_i the change in the argument
    of unit i != k,

        Delta_i = D_i c_i + r_i,  c_i = b_ik + (M Delta)_i,
        Delta_k = J_k + sigma'_k e_k + r_k,
        e_k = a theta5 (sm Delta)_k + a theta6 (sm (d o Delta))_k,

    where sigma'_k = mu_hat_k (1 - mu_hat_k), and by Taylor's theorem with
    |sigma''| <= 1 / (6 sqrt 3), |r_i| <= c_i^2 / (12 sqrt 3) and
    |r_k| <= e_k^2 / (12 sqrt 3). As d_k = 0, (M Delta)_k is the theta5
    part of e_k, so Delta = D M Delta + beta + rho with beta_i = D_i b_ik
    (b_ik at mu_hat_k), beta_k = J_k, and

        rho_k = (sigma'_k - D_k) (M Delta)_k
                + sigma'_k a theta6 (sm (d o Delta))_k + r_k,
        rho_i = D_i a sm_ik theta6 d_i (mu'_k - mu_hat_k) + r_i.

    M is symmetric, so 1'(I - D M)^{-1} = v' and g_k = 1'Delta =
    v'beta + v'rho = s_k + v'rho. To bound rho, let q = max_{i != k}
    |Delta_i|, p = sum_{i != k} |Delta_i| and t = |Delta_k| <= 1, and let
    h = max(|theta4|, |theta4 + theta6|) >= |theta4 + theta6 mu'_k|. Only
    treated units i carry theta6 in b_ik, and for them sm_ik <= (sm d)_k,
    so max_i |b_ik| <= a H_k and sum_i |b_ik| <= a B_k with

        H_k = |theta4| C_k + (h - |theta4|) min(C_k, (sm d)_k),
        B_k = |theta4| S_k + (h - |theta4|) (sm d)_k.

    As sigma is 1/4-Lipschitz and sm_kk = 0, |c_i| <= |b_ik| +
    a |theta5| sm_ik t + R q, and summing over i, sum |c_i| <=
    a (B_k + |theta5| S_k t) + R p. Hence

        q <= a (H_k + |theta5| C_k t) / (4 - R),
        p <= a (B_k + |theta5| S_k t) / (4 - R),
        |e_k| <= E_k q,   E_k = a (|theta5| S_k + |theta6| (sm d)_k),
        t <= |J_k| + E_k q / 4,

    a 2 x 2 system in q and t, solved here by substitution from t <= 1
    (every step gives a valid bound). The same steps give max |c_i| <= 4 q
    and sum |c_i| <= 4 p, so sum_{i != k} c_i^2 <= 16 q p, and with
    D <= 1/4 and |mu'_k - mu_hat_k| <= |e_k| / 4,

        |rho_k| <= q a (|sigma'_k - D_k| |theta5| S_k
                        + sigma'_k |theta6| (sm d)_k) + (E_k q)^2 / (12 sqrt 3),
        sum_{i != k} |rho_i| <= a |theta6| (E_k q / 4) (sm d)_k / 4
                                + 16 q p / (12 sqrt 3).

    The v iteration stops once its last step is at most foc_tol in the sup
    norm, or at max_iter, like every solver loop, and keeps that step's
    input v. Wherever it stops, that v differs from the exact one by at
    most err = change / (1 - L), with change the sup norm of its last step
    and L = R max D the sup-norm Lipschitz constant bound of
    v -> M (D o v); s_k then moves by at most
    err sum |beta| <= err (|J_k| + a B_k / 4). So

        |g_k - s_k| <= eps_k = (|v_k| + err) |rho_k|
                               + (max |v| + err) sum_{i != k} |rho_i|
                               + err (|J_k| + a B_k / 4).

    Margin. A batch solve that stops at residual foc_tol lies within
    tau = N (foc_tol + CLAMP) / (1 - R/4) of the exact welfare, and the
    shift eta moves each candidate's exact welfare by at most
    tau_eta = N max |eta| / (4 - R). If unit j has the largest batch
    welfare of all candidates, s_j + eps_j >= s_k - eps_k - margin for
    every k, with margin = 2 (tau + tau_eta) <= 4 max(tau, tau_eta). A
    unit whose upper end s_k + eps_k falls below max(s - eps) - margin
    therefore cannot win the round, and one below that less 2 tau cannot
    come within 2 tau of the winner (``_tie_tolerance``).
    """
    if not instance_certified(instance):
        return None
    d, mu, (dmu_sum, mu_sum, d_sum) = incumbent
    th = instance.theta
    sm = instance.coupling
    row_sums, col_max = instance.coupling_bounds
    a, t5, t6 = th.a_n, abs(th.theta5), abs(th.theta6)
    n = mu.shape[0]
    reach = _reach(instance)  # R
    gap = 4.0 - reach
    slope = mu * (1.0 - mu)  # D
    lip = reach * float(slope.max())  # L
    if not (gap > 0 and lip < 1):
        return None
    dd = d.astype(float)
    logit = np.log(mu) - np.log1p(-mu)
    eta = (logit - linear_weights(instance, dd, coupled=d_sum)
           - a * (th.theta5 * mu_sum + th.theta6 * dd * dmu_sum))

    new = np.ones(n)
    for _ in range(settings.max_iter):
        v = new
        u = slope * v
        u_sum, du_sum = (sm @ np.stack([u, dd * u], axis=1)).T
        new = 1.0 + a * (th.theta5 * u_sum + th.theta6 * dd * du_sum)
        change = float(np.abs(new - v).max())
        if change <= settings.foc_tol:
            break
    err = change / (1.0 - lip)

    mu_hat = expit(logit + th.theta1 + instance.x_effect3 + a * th.theta6 * dmu_sum)
    jump = mu_hat - mu
    scores = v * jump + a * (th.theta4 * u_sum + th.theta6 * mu_hat * du_sum)

    t4 = abs(th.theta4)
    extra = max(t4, abs(th.theta4 + th.theta6)) - t4
    b_max = t4 * col_max + extra * np.minimum(col_max, d_sum)  # H_k
    b_sum = t4 * row_sums + extra * d_sum  # B_k
    own = a * (t5 * row_sums + t6 * d_sum)  # E_k
    t = np.ones(n)
    for _ in range(2):
        q = a * (b_max + t5 * col_max * t) / gap
        t = np.minimum(1.0, np.abs(jump) + own * q / 4.0)
    q = a * (b_max + t5 * col_max * t) / gap
    p = a * (b_sum + t5 * row_sums * t) / gap
    own_slope = mu_hat * (1.0 - mu_hat)
    rho_own = (q * a * (np.abs(own_slope - slope) * t5 * row_sums + own_slope * t6 * d_sum)
               + _HALF_CURVATURE * (own * q) ** 2)
    rho_rest = a * t6 * (own * q / 4.0) * d_sum / 4.0 + 16.0 * _HALF_CURVATURE * q * p
    eps = ((np.abs(v) + err) * rho_own + (np.abs(v).max() + err) * rho_rest
           + err * (np.abs(jump) + a * b_sum / 4.0))
    tau_eta = n * float(np.abs(eta).max()) / gap
    margin = _tie_tolerance(instance, settings) + 2.0 * tau_eta
    keep = np.flatnonzero(d == 0)
    scores, eps = scores[keep], eps[keep]
    if not (np.isfinite(scores).all() and np.isfinite(eps).all() and math.isfinite(margin)):
        return None
    return scores, eps, margin
