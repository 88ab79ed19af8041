"""Mean-field fixed-point solver: ascent, convergence, uniqueness."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from netalloc import (
    Network,
    SolverSettings,
    ThetaParams,
    approx_welfare,
    batch_fixed_point,
    contraction_certificate,
    enumerate_gibbs,
    exact_kl,
    fixed_point_solve,
    foc_residual,
    make_instance,
    solve_allocation,
    variational_objective,
    weights,
)
from netalloc import meanfield
from netalloc.meanfield import GAUSS_SEIDEL, JACOBI, instance_certified
from tests.conftest import protocol_instance, random_instance

SETTINGS = SolverSettings()


def _three_product_kernel(instance, allocations, settings, seed=None, init=None):
    """Unfused reference for ``batch_fixed_point``, which must match it bit
    for bit.

    Each iteration computes both coupling products in ``step`` and again
    for the residual: four where two are enough. A column has converged once
    the residual of the iterate is at most foc_tol.
    """
    th = instance.theta
    sm = instance.coupling
    dt = np.asarray(allocations, dtype=float).T.copy()
    n, batch = dt.shape
    base = th.theta0 + instance.x_effect2
    w1 = (
        base[:, None]
        + (th.theta1 + instance.x_effect3)[:, None] * dt
        + th.a_n * th.theta4 * (sm @ dt)
    )
    if init is not None:
        init = np.asarray(init, dtype=float)
        mu = np.tile(init[:, None], (1, batch)) if init.ndim == 1 else init.copy()
    else:
        mu = np.random.default_rng(seed).uniform(size=(n, batch))
    mu = np.clip(mu, settings.clamp, 1.0 - settings.clamp)

    def step(cur):
        arg = w1 + th.a_n * (th.theta5 * (sm @ cur) + th.theta6 * dt * (sm @ (dt * cur)))
        return np.clip(expit(arg), settings.clamp, 1.0 - settings.clamp)

    done = np.zeros(batch, dtype=bool)
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        mu = step(mu)
        done = np.abs(step(mu) - mu).max(axis=0) <= settings.foc_tol
        if done.all():
            break
    return mu, done, iterations


class _CountingCoupling(np.ndarray):
    """Coupling matrix that counts the matrix products it enters.

    Both ``sm @ x`` and ``np.matmul(sm, x, out=...)`` reach numpy through
    ``__array_ufunc__``, so neither spelling escapes the count.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products += 1
        inputs = tuple(
            x.view(np.ndarray) if isinstance(x, _CountingCoupling) else x
            for x in inputs
        )
        return getattr(ufunc, method)(*inputs, **kwargs)


def _count_helper_calls(monkeypatch) -> list:
    """Count the calls of the kernel's coupling-product helper; the count is
    the single entry of the returned list."""
    calls = [0]
    helper = meanfield._product

    def counted(sm, x, out=None):
        calls[0] += 1
        return helper(sm, x, out)

    monkeypatch.setattr(meanfield, "_product", counted)
    return calls


class TestObjective:
    def test_pure_entropy_at_half(self):
        from netalloc import WeightSystem

        n = 7
        w = WeightSystem(np.zeros(n), np.zeros((n, n)))
        assert variational_objective(np.full(n, 0.5), w) == pytest.approx(
            n * math.log(2.0), abs=1e-12
        )

    def test_equals_log_partition_when_independent(self, rng):
        # With no coupling the independent fit is exact, so the objective
        # at the logistic marginals reaches the log partition function.
        net = Network.from_edges(5, [])
        inst = make_instance(net, rng.random((5, 1)), ThetaParams.from_set(1))
        d = rng.integers(0, 2, 5)
        w = weights(inst, d)
        dist = enumerate_gibbs(w)
        assert variational_objective(expit(w.w1), w) == pytest.approx(
            dist.log_partition, abs=1e-10
        )

    def test_boundary_clamp_finite(self):
        from netalloc import WeightSystem

        w = WeightSystem(np.zeros(2), np.zeros((2, 2)))
        val = variational_objective(np.array([0.0, 1.0]), w)
        assert np.isfinite(val)
        assert val == pytest.approx(0.0, abs=1e-12)


class TestFixedPoint:
    def test_independent_instance_hits_exact_marginals(self, rng):
        net = Network.from_edges(6, [])
        inst = make_instance(net, rng.random((6, 1)), ThetaParams.from_set(1))
        d = rng.integers(0, 2, 6)
        sol = solve_allocation(inst, d, SETTINGS, seed=0)
        assert sol.converged
        np.testing.assert_allclose(sol.mu, expit(weights(inst, d).w1), atol=1e-12)

    @pytest.mark.parametrize("mode", [GAUSS_SEIDEL, JACOBI])
    def test_uncoupled_instance_stops_after_one_sweep(self, rng, mode):
        # Without edges the first sweep lands on the fixed point, and the
        # residual test stops there; the objective test took a second sweep.
        inst = make_instance(Network.from_edges(6, []), rng.random((6, 1)),
                             ThetaParams.from_set(1))
        d = rng.integers(0, 2, 6)
        w = weights(inst, d)
        sol = fixed_point_solve(w, replace(SETTINGS, mode=mode), seed=0)
        assert sol.iterations == 1 and sol.converged
        np.testing.assert_allclose(sol.mu, expit(w.w1), atol=1e-12)
        assert sol.objective == variational_objective(sol.mu, w)

    def test_foc_residual_small_at_convergence(self, rng):
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(3, 12)))
            d = rng.integers(0, 2, inst.n)
            sol = solve_allocation(inst, d, SETTINGS, seed=1)
            assert sol.converged
            assert sol.foc_residual <= SETTINGS.foc_tol
            w = weights(inst, d)
            assert foc_residual(sol.mu, w) <= SETTINGS.foc_tol

    def test_interior_solution(self, rng):
        for set_id in (1, 2):
            inst = protocol_instance(12, set_id=set_id, seed=3)
            sol = solve_allocation(inst, np.zeros(12, dtype=int), SETTINGS, seed=0)
            assert np.all(sol.mu > 1e-12)
            assert np.all(sol.mu < 1 - 1e-12)

    def test_objective_never_decreases_across_sweeps(self, rng):
        # In-place coordinate updates each maximize the objective along one
        # coordinate, so sweep values must be monotone.
        from netalloc.meanfield import _sweep_gauss_seidel

        for _ in range(10):
            inst = random_instance(rng, 10, density=0.5)
            d = rng.integers(0, 2, 10)
            w = weights(inst, d)
            mu = rng.uniform(size=10)
            prev = variational_objective(mu, w)
            increased = False
            for _ in range(60):
                mu = _sweep_gauss_seidel(mu, w, 1e-15)
                cur = variational_objective(mu, w)
                assert cur >= prev - 1e-12
                increased = increased or cur > prev
                prev = cur
            assert increased

    def test_unique_fixed_point_from_many_starts(self):
        inst = protocol_instance(20, seed=5)
        assert instance_certified(inst)
        d = np.zeros(20, dtype=int)
        d[:6] = 1
        w = weights(inst, d)
        reference = fixed_point_solve(w, SETTINGS, seed=0).mu
        for seed in range(1, 30):
            mu = fixed_point_solve(w, SETTINGS, seed=seed).mu
            assert np.abs(mu - reference).max() <= 1e-8

    def test_jacobi_and_gauss_seidel_agree_under_certificate(self):
        inst = protocol_instance(15, seed=9)
        d = np.zeros(15, dtype=int)
        d[[2, 5, 11]] = 1
        gs = solve_allocation(inst, d, SETTINGS, seed=4)
        jacobi = solve_allocation(inst, d, replace(SETTINGS, mode=JACOBI), seed=4)
        assert jacobi.converged
        assert np.abs(gs.mu - jacobi.mu).max() <= 1e-7

    def test_nonconvergence_reported(self, rng):
        inst = protocol_instance(10, seed=2)
        w = weights(inst, np.zeros(10, dtype=int))
        sol = fixed_point_solve(w, SolverSettings(max_iter=1), seed=0)
        assert not sol.converged
        assert sol.iterations == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("clamp", 0.7),  # used to report convergence at welfare N * 0.3
            ("clamp", 0.5),
            ("clamp", 0.0),
            ("clamp", -1e-3),
            ("foc_tol", -1e-8),  # could never converge
            ("max_iter", 0),  # returned the starting point
        ],
    )
    def test_settings_that_give_wrong_results_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})

    def test_monotone_in_treatment(self, rng):
        # Treating one more unit never lowers any mean-field marginal when
        # effects are nonnegative and the contraction condition holds.
        for _ in range(30):
            n = int(rng.integers(4, 25))
            inst = random_instance(rng, n, positivity=True)
            if not instance_certified(inst):
                continue
            d = (rng.random(n) < 0.3).astype(int)
            untreated = np.flatnonzero(d == 0)
            if untreated.size == 0:
                continue
            k = int(rng.choice(untreated))
            base = solve_allocation(inst, d, SETTINGS, seed=7)
            d2 = d.copy()
            d2[k] = 1
            more = solve_allocation(inst, d2, SETTINGS, seed=7)
            assert np.all(more.mu >= base.mu - 1e-10)


class TestCertificate:
    def test_no_spillover_always_certified(self):
        theta = ThetaParams(-1.0, 0.5, 0.1, 0.2, 0.7, 0.0, 0.0)
        assert contraction_certificate(theta, m_upper=5.0, max_degree=100)

    def test_strong_coupling_fails(self):
        theta = ThetaParams.from_set(2, a_n=1.0)
        # 1.0 * 1.0 * (7 + 7) * 10 = 140 > 4.
        assert not contraction_certificate(theta, m_upper=1.0, max_degree=10)

    def test_boundary_is_not_certified(self):
        # 0.5 * 1.0 * (1 + 1) * 4 == 4 exactly: the Lipschitz bound is 1, so
        # the map is only non-expansive there, which does not give a unique
        # fixed point. One neighbor fewer, or a slightly smaller similarity,
        # restores the certificate.
        theta = ThetaParams(-1.0, 0.5, 0.1, 0.2, 0.7, 1.0, -1.0, a_n=0.5)
        assert not contraction_certificate(theta, m_upper=1.0, max_degree=4)
        assert contraction_certificate(theta, m_upper=1.0, max_degree=3)
        assert contraction_certificate(theta, m_upper=1.0 - 1e-12, max_degree=4)

    def test_scaled_benchmark_profile_certified(self):
        for n in (2, 10, 50, 500):
            theta = ThetaParams.from_set(1, a_n=1.0 / n)
            # (0.8 + 0.9) * (n - 1) / n < 4 for every n.
            assert contraction_certificate(theta, m_upper=1.0, max_degree=n - 1)


class TestApproxWelfare:
    def test_independent_no_treatment(self, rng):
        net = Network.from_edges(5, [])
        x = rng.random((5, 1))
        inst = make_instance(net, x, ThetaParams.from_set(1))
        w = weights(inst, np.zeros(5, dtype=int))
        assert approx_welfare(np.zeros(5, dtype=int), inst, SETTINGS, seed=0) == (
            pytest.approx(float(expit(w.w1).sum()), abs=1e-10)
        )

    def test_within_pinsker_of_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 10))
            inst = random_instance(rng, n)
            d = rng.integers(0, 2, n)
            sol = solve_allocation(inst, d, SETTINGS, seed=3)
            dist = enumerate_gibbs(weights(inst, d))
            kl = exact_kl(sol.mu, dist)
            assert abs(dist.welfare - sol.welfare) <= math.sqrt(2 * max(kl, 0)) + 1e-9

    def test_restarts_deterministic_without_certificate(self):
        inst = protocol_instance(8, set_id=2, seed=1, a_n=1.0)
        assert not instance_certified(inst)
        d = np.zeros(8, dtype=int)
        a = solve_allocation(inst, d, SETTINGS, seed=11)
        b = solve_allocation(inst, d, SETTINGS, seed=11)
        np.testing.assert_array_equal(a.mu, b.mu)
        assert a.objective == b.objective


class TestBatchSolver:
    def test_matches_per_allocation_solves(self, rng):
        inst = protocol_instance(12, seed=8)
        allocations = rng.integers(0, 2, size=(25, 12))
        batch = batch_fixed_point(inst, allocations, SETTINGS, seed=0)
        assert batch.converged.all()
        for k in range(25):
            sol = solve_allocation(inst, allocations[k], SETTINGS, seed=k)
            assert abs(batch.welfare[k] - sol.welfare) <= 1e-6
            assert np.abs(batch.mu[:, k] - sol.mu).max() <= 1e-6

    @pytest.mark.parametrize("set_id", [1, 2])
    @pytest.mark.parametrize("start", ["random", "init1d", "init2d"])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 100_000])
    def test_bit_identical_to_three_product_kernel(self, set_id, start, max_iter):
        n, batch = 30, 17
        inst = protocol_instance(n, set_id=set_id, seed=set_id)
        rng = np.random.default_rng(max_iter)
        allocations = rng.integers(0, 2, size=(batch, n))
        kwargs = {
            "random": {"seed": 5},
            "init1d": {"init": rng.uniform(size=n)},
            "init2d": {"init": rng.uniform(size=(n, batch))},
        }[start]
        settings = SolverSettings(max_iter=max_iter)
        mu, done, iterations = _three_product_kernel(inst, allocations, settings, **kwargs)
        batch_sol = batch_fixed_point(inst, allocations, settings, **kwargs)
        assert batch_sol.iterations == iterations
        assert batch_sol.mu.tobytes() == mu.tobytes()
        assert batch_sol.welfare.tobytes() == mu.sum(axis=0).tobytes()
        assert batch_sol.converged.tobytes() == done.tobytes()
        if max_iter == 100_000:
            assert done.all()

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 100_000])
    def test_two_coupling_products_per_iteration(self, rng, max_iter, monkeypatch):
        # One product builds w1 (in ``linear_weights``), two evaluate the
        # starting iterate and two evaluate each iterate after it. The
        # iteration's products go through the storage-dispatching helper.
        inst = protocol_instance(20, seed=6)
        counting = inst.coupling.view(_CountingCoupling)
        counting.products = 0
        inst.__dict__["coupling"] = counting
        helper_calls = _count_helper_calls(monkeypatch)
        allocations = rng.integers(0, 2, size=(11, 20))
        sol = batch_fixed_point(
            inst, allocations, SolverSettings(max_iter=max_iter), seed=0
        )
        assert counting.products == 3 + 2 * sol.iterations
        assert helper_calls == [2 + 2 * sol.iterations]

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 100_000])
    def test_two_csr_products_per_iteration(self, rng, max_iter, monkeypatch):
        inst = protocol_instance(20, seed=6)
        inst.__dict__["coupling"] = sparse.csr_array(inst.coupling)
        helper_calls = _count_helper_calls(monkeypatch)
        allocations = rng.integers(0, 2, size=(11, 20))
        sol = batch_fixed_point(
            inst, allocations, SolverSettings(max_iter=max_iter), seed=0
        )
        assert helper_calls == [2 + 2 * sol.iterations]

    @pytest.mark.parametrize("start", ["random", "init1d"])
    def test_invariant_under_batch_split(self, rng, start):
        # A shared starting point (greedy's case) gives every column the same
        # iteration in either split. Random starts depend on the split, so
        # they only agree to the stopping tolerance, which is tightened here.
        inst = protocol_instance(25, seed=12)
        assert instance_certified(inst)
        allocations = rng.integers(0, 2, size=(40, 25))
        if start == "random":
            kwargs = {"seed": 3}
            settings = SolverSettings(foc_tol=1e-13)
        else:
            kwargs = {"init": rng.uniform(size=25)}
            settings = SETTINGS
        whole = batch_fixed_point(inst, allocations, settings, **kwargs)
        parts = [
            batch_fixed_point(inst, block, settings, **kwargs)
            for block in (allocations[:13], allocations[13:])
        ]
        assert whole.converged.all()
        assert all(part.converged.all() for part in parts)
        split = np.concatenate([part.welfare for part in parts])
        assert np.abs(whole.welfare - split).max() <= 1e-9

    def test_converged_columns_meet_the_residual_tolerance(self, rng):
        # The stopping rule's guarantee, checked against the per-allocation
        # weights: the clamp may hold a column up to clamp from the map.
        inst = protocol_instance(9, seed=4)
        allocations = rng.integers(0, 2, size=(8, 9))
        batch = batch_fixed_point(inst, allocations, SETTINGS, seed=1)
        assert batch.converged.all()
        for k in range(8):
            w = weights(inst, allocations[k])
            assert foc_residual(batch.mu[:, k], w) <= SETTINGS.foc_tol + SETTINGS.clamp

    def test_uncoupled_instance_stops_after_one_iteration(self, rng):
        # Without edges the first step lands on the fixed point, and the
        # second moves nothing.
        inst = make_instance(Network.from_edges(6, []), rng.integers(0, 2, size=(6, 1)),
                             ThetaParams.from_set(1))
        sol = batch_fixed_point(inst, rng.integers(0, 2, size=(4, 6)), SETTINGS, seed=0)
        assert sol.iterations == 1 and sol.converged.all()

    @pytest.mark.parametrize("bad", [[[2, 0, 0, 0, 0, 0]], [[0.5, 1, 0, 0, 0, 0]],
                                     [[0, 1, 0, 0, 0]], [[[0] * 6]]])
    def test_rejects_invalid_allocation_blocks(self, bad):
        inst = protocol_instance(6, seed=1)
        with pytest.raises(ValueError, match="allocation"):
            batch_fixed_point(inst, np.array(bad), SETTINGS, seed=0)
