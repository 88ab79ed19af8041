"""Naive mean-field approximation of the stationary outcome distribution.

Approximates the Gibbs measure by the best independent Bernoulli law,
found by fixed-point iteration on the first-order conditions

    mu_i = logistic(w1_i + 2 (w2 mu)_i).

The iteration sweeps units in index order updating in place by default
(each coordinate update exactly maximizes the variational objective along
that coordinate, so the objective never decreases). A simultaneous-update
mode is available for literal replication of the published iteration.
Every solve, per allocation or batched, stops once the residual of the
first-order conditions is at most foc_tol. The contraction certificate
bounds the sup-norm Lipschitz constant of that map strictly below one, so
both modes reach the unique maximizer. Under the certificate, greedy screens
its candidates with the linear-response scores of ``_linear_response``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import (Instance, ThetaParams, WeightSystem, allocation_vector, linear_weights,
                    sigmoid, to_dense, weights)

GAUSS_SEIDEL = "gauss-seidel"
JACOBI = "jacobi"


@dataclass(frozen=True)
class SolverSettings:
    """Fixed-point solver controls.

    Every solve stops once the residual of the first-order conditions is at
    most foc_tol, or at max_iter. restarts only applies when the
    contraction certificate fails for the instance.
    """

    foc_tol: float = 1e-8
    max_iter: int = 100_000
    mode: str = GAUSS_SEIDEL
    restarts: int = 10
    clamp: float = 1e-15

    def __post_init__(self):
        if self.mode not in (GAUSS_SEIDEL, JACOBI):
            raise ValueError(f"unknown solver mode {self.mode!r}")
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
    """True when a_n * m_upper * (|theta5| + |theta6|) * max_degree < 4.

    A quarter of the left side bounds the sup-norm Lipschitz constant of the
    first-order-condition map. Below 4 the map is a contraction, so the
    iteration converges to the unique maximizer from any initialization.
    """
    magnitude = theta.a_n * m_upper * (abs(theta.theta5) + abs(theta.theta6))
    return magnitude * max_degree < 4.0


def instance_certified(instance: Instance) -> bool:
    return contraction_certificate(
        instance.theta, instance.m_upper, instance.net.max_degree
    )


def _sweep_gauss_seidel(mu: np.ndarray, w: WeightSystem, clamp: float) -> np.ndarray:
    w1, (cols, vals) = w.w1, w.rows
    lo, hi = clamp, 1.0 - clamp
    for i in range(mu.shape[0]):
        v = sigmoid(w1[i] + float(vals[i] @ mu[cols[i]]))
        mu[i] = min(max(v, lo), hi)
    return mu


def _sweep_jacobi(mu: np.ndarray, w: WeightSystem, clamp: float) -> np.ndarray:
    return _clamped(foc_map(mu, w), clamp)


def fixed_point_solve(
    w: WeightSystem,
    settings: SolverSettings | None = None,
    seed: int | None = None,
    init: np.ndarray | None = None,
) -> MeanFieldSolution:
    """Iterate the first-order-condition map to a fixed point.

    Starts from ``init`` when given, otherwise from a uniform random draw
    controlled by ``seed``. A sweep updates every unit once; iteration
    stops once the FOC residual is at most foc_tol, or at max_iter with
    ``converged`` set to False. The objective is evaluated once, at the
    returned marginals.
    """
    settings = settings or SolverSettings()
    n = w.n
    if init is not None:
        mu = _clamped(np.asarray(init, dtype=float).copy(), settings.clamp)
    else:
        rng = np.random.default_rng(seed)
        mu = _clamped(rng.uniform(size=n), settings.clamp)
    sweep = _sweep_gauss_seidel if settings.mode == GAUSS_SEIDEL else _sweep_jacobi
    converged = False
    for iterations in range(1, settings.max_iter + 1):
        mu = sweep(mu, w, settings.clamp)
        residual = foc_residual(mu, w)
        if residual <= settings.foc_tol:
            converged = True
            break
    return MeanFieldSolution(
        mu=mu,
        objective=variational_objective(mu, w, settings.clamp),
        iterations=iterations,
        converged=converged,
        foc_residual=residual,
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
    if instance_certified(instance) or init is not None or settings.restarts <= 1:
        return fixed_point_solve(w, settings, seed=seed, init=init)
    seeds = np.random.SeedSequence(seed).generate_state(settings.restarts)
    best = None
    for s in seeds:
        sol = fixed_point_solve(w, settings, seed=int(s))
        if best is None or sol.objective > best.objective:
            best = sol
    return best


def approx_welfare(
    d,
    instance: Instance,
    settings: SolverSettings | None = None,
    seed: int | None = None,
) -> float:
    """Approximated equilibrium welfare, the sum of mean-field marginals."""
    return solve_allocation(instance, d, settings, seed=seed).welfare


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
    products (dense BLAS, or CSR for a sparse coupling). ``allocations`` is
    one allocation or a (batch, n) block of them. Intended for certified
    instances, where the fixed point is unique and independent of the
    update schedule; callers should fall back to per-allocation solves
    when the certificate fails.

    A column has converged once one more step moves it by at most foc_tol
    in the sup norm, and the call returns when every column has, or at
    max_iter. Under the certificate the first-order map is an
    (R/4)-contraction, R < 4 (see ``_linear_response``), so a converged
    column lies within (foc_tol + clamp) / (1 - R/4) of the unique fixed
    point.

    w1 (``linear_weights``) takes one coupling product. Each iteration
    does two more through ``_product``, ``sm @ mu`` and ``sm @ (d * mu)``,
    for the iterate it checks, and takes the next iterate from them: a call
    does ``3 + 2 * iterations`` products. Every (n, batch) array lives in
    one of seven buffers allocated up front: the allocations, w1, the
    current and the next iterate, the two products and one scratch array.
    (A CSR product returns a fresh array that replaces its product buffer.)
    """
    settings = settings or SolverSettings()
    th = instance.theta
    sm = instance.coupling
    dt = allocation_vector(allocations, instance.n, block=True).T.astype(float, order="C")
    n, batch = dt.shape
    w1 = linear_weights(instance, dt)
    if init is not None:
        init = np.asarray(init, dtype=float)
        mu = np.tile(init[:, None], (1, batch)) if init.ndim == 1 else init.copy()
    else:
        rng = np.random.default_rng(seed)
        mu = rng.uniform(size=(n, batch))
    lo, hi = settings.clamp, 1.0 - settings.clamp
    cur = np.clip(mu, lo, hi, out=mu)
    nxt = np.empty_like(cur)
    p1 = np.empty_like(cur)  # sm @ mu
    p2 = np.empty_like(cur)  # sm @ (dt * mu)
    tmp = np.empty_like(cur)

    def step(mu, out):
        """The iterate after ``mu``, into ``out``. The order of the
        elementwise operations fixes every rounding; tests pin the output
        bit for bit to a reference."""
        nonlocal p1, p2
        np.multiply(dt, mu, out=tmp)
        p2 = _product(sm, tmp, p2)
        p1 = _product(sm, mu, p1)
        np.multiply(p1, th.theta5, out=p1)
        np.multiply(dt, th.theta6, out=tmp)
        np.multiply(tmp, p2, out=p2)
        np.add(p1, p2, out=p1)
        np.multiply(p1, th.a_n, out=p1)
        np.add(w1, p1, out=out)
        expit(out, out=out)
        np.clip(out, lo, hi, out=out)

    step(cur, nxt)
    for iterations in range(1, settings.max_iter + 1):
        cur, nxt = nxt, cur  # cur: the iterate this iteration checks
        step(cur, nxt)
        residual = np.abs(np.subtract(nxt, cur, out=tmp), out=tmp).max(axis=0)
        done = residual <= settings.foc_tol
        if done.all():
            break
    return BatchSolution(
        mu=cur, welfare=cur.sum(axis=0), converged=done, iterations=iterations
    )


# Half the largest curvature of the logistic function, 1 / (12 sqrt 3):
# sigma(a + c) - sigma(a) - sigma'(a) c lies within this times c^2.
_HALF_CURVATURE = 1.0 / (12.0 * math.sqrt(3.0))


def _coupling_constants(sm) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and column maxima of a dense or CSR coupling."""
    return np.asarray(sm.sum(axis=1)).ravel(), to_dense(sm.max(axis=0)).ravel()


def _linear_response(
    instance: Instance,
    d: np.ndarray,
    mu: np.ndarray,
    settings: SolverSettings,
    row_sums: np.ndarray,
    col_max: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Linear-response scores of treating each untreated unit, with proven
    error bounds, from the incumbent fixed point alone.

    Returns ``(s, eps, margin)`` over the units ``np.flatnonzero(d == 0)``,
    or None when the bound certifies nothing: a denominator below is not
    positive, or a bound is not finite. ``row_sums`` and ``col_max`` come
    from ``_coupling_constants(instance.coupling)``. The cost is two products
    of the coupling for the incumbent (its w1, and a block of three
    vectors), one per iteration of the v solve and one for u; nothing of size N x N
    or N x candidates is built.

    Notation: sm is the coupling (nonnegative, symmetric, zero diagonal),
    a = a_n, S_k and C_k the row sum and column maximum of sm,
    R = a (|theta5| + |theta6|) max_k S_k, sigma the logistic function,
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

    The iterated v differs from the exact one by at most err = L / (1 - L)
    times its last step, where L = R max D bounds the sup-norm Lipschitz
    constant of v -> M (D o v); s_k then moves by at most
    err sum |beta| <= err (|J_k| + a B_k / 4). So

        |g_k - s_k| <= eps_k = (|v_k| + err) |rho_k|
                               + (max |v| + err) sum_{i != k} |rho_i|
                               + err (|J_k| + a B_k / 4).

    Margin. A batch solve that stops at residual foc_tol lies within
    tau = N (foc_tol + clamp) / (1 - R/4) of the exact welfare, and the
    shift eta moves each candidate's exact welfare by at most
    tau_eta = N max |eta| / (4 - R). If unit j has the largest batch
    welfare of all candidates, s_j + eps_j >= s_k - eps_k - margin for
    every k, with margin = 2 (tau + tau_eta) <= 4 max(tau, tau_eta). A
    unit whose upper end s_k + eps_k falls below max(s - eps) - margin
    therefore cannot win the round.
    """
    th = instance.theta
    sm = instance.coupling
    a, t5, t6 = th.a_n, abs(th.theta5), abs(th.theta6)
    n = mu.shape[0]
    reach = a * (t5 + t6) * row_sums.max()  # R
    gap = 4.0 - reach
    slope = mu * (1.0 - mu)  # D
    lip = reach * float(slope.max())  # L
    if not (gap > 0 and lip < 1):
        return None
    dd = d.astype(float)
    dmu_sum, mu_sum, d_sum = _product(sm, np.stack([dd * mu, mu, dd], axis=1)).T
    logit = np.log(mu) - np.log1p(-mu)
    eta = (logit - linear_weights(instance, dd)
           - a * (th.theta5 * mu_sum + th.theta6 * dd * dmu_sum))

    v = np.ones(n)
    change = last = math.inf
    for _ in range(settings.max_iter):
        dv = slope * v
        p5, p6 = _product(sm, np.stack([dv, dd * dv], axis=1)).T
        new = 1.0 + a * (th.theta5 * p5 + th.theta6 * dd * p6)
        change = float(np.abs(new - v).max())
        v = new
        # Stop at the target or once rounding stalls the contraction.
        if change <= 1e-14 or change >= last:
            break
        last = change
    err = lip / (1.0 - lip) * change

    u = slope * v
    u_sum, du_sum = _product(sm, np.stack([u, dd * u], axis=1)).T
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
    tau = n * (settings.foc_tol + settings.clamp) / (1.0 - reach / 4.0)
    tau_eta = n * float(np.abs(eta).max()) / gap
    margin = 2.0 * (tau + tau_eta)
    keep = np.flatnonzero(d == 0)
    scores, eps = scores[keep], eps[keep]
    if not (np.isfinite(scores).all() and np.isfinite(eps).all() and math.isfinite(margin)):
        return None
    return scores, eps, margin
