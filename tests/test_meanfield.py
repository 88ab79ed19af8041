"""Mean-field fixed-point solver: ascent, convergence, uniqueness."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from netalloc import (
    Network,
    SimilarityKernel,
    SolverSettings,
    ThetaParams,
    approx_welfare,
    batch_fixed_point,
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
from netalloc.meanfield import Incumbent, _coupling_products, instance_certified
from netalloc.model import sigmoid, to_dense
from tests.conftest import index_order_sweep, protocol_instance, random_instance
from tests.test_storage import csr_twin

SETTINGS = SolverSettings()
# Solver starts for 10 units that ``init`` rejects, with the message's pattern.
BAD_STARTS = [
    pytest.param(np.full(10, np.nan), r"^init must be finite$", id="nan"),
    pytest.param(np.r_[np.full(9, 0.5), np.inf], r"^init must be finite$", id="inf"),
    pytest.param(np.full(9, 0.5), r"^init must have shape \(10,\), got \(9,\)$", id="short"),
    pytest.param(np.full((10, 1), 0.5), r"^init must have shape \(10,\), got \(10, 1\)$",
                 id="column"),
]


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
        mu = np.tile(np.asarray(init, dtype=float)[:, None], (1, batch))
    else:
        mu = np.random.default_rng(seed).uniform(size=(n, batch))
    mu = np.clip(mu, meanfield.CLAMP, 1.0 - meanfield.CLAMP)

    def step(cur):
        arg = w1 + th.a_n * (th.theta5 * (sm @ cur) + th.theta6 * dt * (sm @ (dt * cur)))
        return np.clip(expit(arg), meanfield.CLAMP, 1.0 - meanfield.CLAMP)

    done = np.zeros(batch, dtype=bool)
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        mu = step(mu)
        done = np.abs(step(mu) - mu).max(axis=0) <= settings.foc_tol
        if done.all():
            break
    return mu, done, iterations


class _SharedCountCoupling(np.ndarray):
    """Dense coupling that logs the width of every matrix product it enters
    in ``widths``, a list that arrays indexed from it share.

    Both ``sm @ x`` and ``np.matmul(sm, x, out=...)`` reach numpy through
    ``__array_ufunc__``, so neither spelling escapes the log.
    """

    def __array_finalize__(self, obj):
        self.widths = getattr(obj, "widths", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.widths.append(self.shape[1])
        inputs = tuple(x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class _SharedCountCSR(sparse.csr_array):
    """CSR coupling that logs the width of every matrix product it enters in
    ``widths``, a list that matrices indexed from it share."""

    def __getitem__(self, key):
        out = _SharedCountCSR(super().__getitem__(key))
        out.widths = self.widths
        return out

    def __matmul__(self, other):
        self.widths.append(self.shape[1])
        return super().__matmul__(other)


def _greedy_block(n, treated, rng):
    """An incumbent treating ``treated`` random units, and one column per
    further unit drawn: the block shape of a greedy round."""
    units = rng.permutation(n)
    incumbent = np.zeros(n, dtype=np.int8)
    incumbent[units[:treated]] = 1
    candidates = units[treated:treated + 6]
    block = np.tile(incumbent, (len(candidates), 1))
    block[np.arange(len(candidates)), candidates] = 1
    return block


def _incumbent_block(n, treated, change, rng):
    """An incumbent treating ``treated`` random units, and five columns that
    differ from it: each adds one unit (``one``), adds two or three
    (``several``), or drops a treated unit, every other column also adding
    one (``removed``)."""
    units = rng.permutation(n)
    incumbent = np.zeros(n, dtype=np.int8)
    incumbent[units[:treated]] = 1
    free = units[treated:]
    block = np.tile(incumbent, (5, 1))
    for j in range(5):
        if change == "one":
            block[j, free[j]] = 1
        elif change == "several":
            block[j, free[3 * j:3 * j + 2 + j % 2]] = 1
        else:
            block[j, units[j % treated]] = 0
            block[j, free[j]] = j % 2
    return incumbent, block


# (treated units of the incumbent, how the columns differ from it)
HANDOFF_CASES = [(treated, change) for treated in (0, 1, 9)
                 for change in ("one", "several", "removed")
                 if treated or change != "removed"]


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

    def test_uncoupled_instance_stops_after_one_sweep(self, rng):
        # Without edges the first sweep lands on the fixed point, and the
        # residual test stops there; the objective test took a second sweep.
        inst = make_instance(Network.from_edges(6, []), rng.random((6, 1)),
                             ThetaParams.from_set(1))
        d = rng.integers(0, 2, 6)
        w = weights(inst, d)
        sol = fixed_point_solve(w, SETTINGS, seed=0)
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
                mu = _sweep_gauss_seidel(mu, w)
                cur = variational_objective(mu, w)
                assert cur >= prev - 1e-12
                increased = increased or cur > prev
                prev = cur
            assert increased

    @pytest.mark.parametrize("set_id", [1, 2])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_sweep_matches_one_dot_product_per_unit(self, rng, set_id, storage):
        # One chromatic sweep against a reference that updates the colour
        # classes in turn, each unit of a class from one dot product of its
        # dense w2 row with the iterate as the class found it.
        inst = protocol_instance(40, density=0.3, set_id=set_id, seed=6)
        if storage == "csr":
            inst = csr_twin(inst)
        w = weights(inst, rng.integers(0, 2, size=40))
        assert isinstance(w.w2, np.ndarray) == (storage == "dense")
        w2 = to_dense(w.w2)
        mu = rng.uniform(size=40)
        want = mu.copy()
        for units in inst.colour_classes:
            args = [w.w1[i] + 2.0 * (w2[i] @ want) for i in units]
            want[units] = np.clip([sigmoid(a) for a in args],
                                  meanfield.CLAMP, 1.0 - meanfield.CLAMP)
        assert meanfield._sweep_gauss_seidel(mu, w) is mu
        np.testing.assert_allclose(mu, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_chromatic_and_index_order_reach_one_fixed_point(self, rng, storage):
        # Under the certificate the fixed point is unique, so the order in
        # which a sweep visits the units moves it by the stopping rule only.
        tight = SolverSettings(foc_tol=1e-11)
        for seed, kernel in itertools.product(range(3), ("absdiff", "invdist")):
            inst = protocol_instance(30, density=0.3, seed=seed)
            if kernel == "invdist":
                inst = replace(inst, kernel=SimilarityKernel.inverse_distance())
            if storage == "csr":
                inst = csr_twin(inst)
            assert instance_certified(inst)
            w = weights(inst, rng.integers(0, 2, size=30))
            start = rng.uniform(size=30)
            chromatic = fixed_point_solve(w, tight, init=start)
            mu = start.copy()
            for _ in range(10_000):
                mu = index_order_sweep(mu, w)
                if foc_residual(mu, w) <= tight.foc_tol:
                    break
            assert chromatic.converged and foc_residual(mu, w) <= tight.foc_tol
            assert np.abs(chromatic.mu - mu).max() <= 1e-8

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_hand_built_system_solves_like_the_one_weights_builds(self, rng, storage):
        # A system built without ``weights`` colours its own w2. Set 1 keeps
        # every coupling entry in w2, so its classes, and so every sweep, are
        # the instance's.
        from netalloc import WeightSystem

        inst = protocol_instance(30, density=0.3, seed=1)
        if storage == "csr":
            inst = csr_twin(inst)
        w = weights(inst, rng.integers(0, 2, size=30))
        built = fixed_point_solve(w, SETTINGS, seed=0)
        hand = fixed_point_solve(WeightSystem(w.w1, w.w2), SETTINGS, seed=0)
        assert hand.converged and hand.iterations == built.iterations
        np.testing.assert_array_equal(hand.mu, built.mu)

    def test_hand_built_uncoupled_system_solves(self):
        from netalloc import WeightSystem

        sol = fixed_point_solve(WeightSystem(np.zeros(3), np.zeros((3, 3))))
        assert sol.converged and sol.iterations == 1
        np.testing.assert_array_equal(sol.mu, np.full(3, 0.5))

    def test_debug_record_reports_the_solve(self, caplog):
        inst = protocol_instance(20, seed=5)
        w = weights(inst, np.zeros(20, dtype=int))
        with caplog.at_level("DEBUG", logger="netalloc.meanfield"):
            sol = fixed_point_solve(w, SETTINGS, seed=0)
        (record,) = [r for r in caplog.records if r.name == "netalloc.meanfield"]
        assert record.levelname == "DEBUG"
        assert record.sweeps == sol.iterations
        assert record.colours == len(inst.colour_classes)
        assert record.residual == sol.foc_residual
        assert record.converged is sol.converged is True

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

    @pytest.mark.parametrize("solver", ["fixed_point_solve", "solve_allocation"])
    @pytest.mark.parametrize("init,message", BAD_STARTS)
    def test_rejects_a_bad_start(self, solver, init, message):
        # A NaN start ran all max_iter sweeps and never converged; a start of
        # the wrong length failed inside numpy.
        inst = protocol_instance(10, seed=2)
        d = np.zeros(10, dtype=int)
        with pytest.raises(ValueError, match=message):
            if solver == "fixed_point_solve":
                fixed_point_solve(weights(inst, d), SETTINGS, init=init)
            else:
                solve_allocation(inst, d, SETTINGS, init=init)

    def test_start_outside_the_unit_interval_is_clipped(self):
        inst = protocol_instance(10, seed=2)
        w = weights(inst, np.zeros(10, dtype=int))
        sol = fixed_point_solve(w, SETTINGS, init=np.linspace(-3.0, 4.0, 10))
        assert sol.converged
        assert np.abs(sol.mu - fixed_point_solve(w, SETTINGS, seed=0).mu).max() <= 1e-8

    def test_nonconvergence_reported(self, rng):
        inst = protocol_instance(10, seed=2)
        w = weights(inst, np.zeros(10, dtype=int))
        sol = fixed_point_solve(w, SolverSettings(max_iter=1), seed=0)
        assert not sol.converged
        assert sol.iterations == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("foc_tol", -1e-8),  # could never converge
            ("max_iter", 0),  # returned the starting point
            ("max_iter", True),  # ran one sweep
            ("max_iter", 2.5),  # failed inside range with a bare TypeError
            ("max_iter", "3"),
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


def star_instance(theta, m_upper, max_degree):
    """A star with ``max_degree`` leaves whose similarity is ``m_upper`` on
    every pair: an instance with that m_upper and that max_degree."""
    net = Network.from_edges(max_degree + 1, [(0, i) for i in range(1, max_degree + 1)])
    return make_instance(net, np.zeros((max_degree + 1, 1)), theta,
                         kernel=SimilarityKernel.constant(m_upper))


class TestCertificate:
    def test_no_spillover_always_certified(self):
        theta = ThetaParams(-1.0, 0.5, 0.1, 0.2, 0.7, 0.0, 0.0)
        assert instance_certified(star_instance(theta, m_upper=5.0, max_degree=100))

    def test_strong_coupling_fails(self):
        theta = ThetaParams.from_set(2, a_n=1.0)
        # 1.0 * 1.0 * (7 + 7) * 10 = 140 > 4.
        assert not instance_certified(star_instance(theta, m_upper=1.0, max_degree=10))

    def test_boundary_is_not_certified(self):
        # 0.5 * 1.0 * (1 + 1) * 4 == 4 exactly: the Lipschitz bound is 1, so
        # the map is only non-expansive there, which does not give a unique
        # fixed point. One neighbor fewer, or a slightly smaller similarity,
        # restores the certificate.
        theta = ThetaParams(-1.0, 0.5, 0.1, 0.2, 0.7, 1.0, -1.0, a_n=0.5)
        assert not instance_certified(star_instance(theta, m_upper=1.0, max_degree=4))
        assert instance_certified(star_instance(theta, m_upper=1.0, max_degree=3))
        assert instance_certified(star_instance(theta, m_upper=1.0 - 1e-12, max_degree=4))

    def test_scaled_benchmark_profile_certified(self):
        for n in (2, 10, 50, 500):
            theta = ThetaParams.from_set(1, a_n=1.0 / n)
            # (0.8 + 0.9) * (n - 1) / n < 4 for every n.
            assert instance_certified(star_instance(theta, m_upper=1.0, max_degree=n - 1))


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

    def test_stopped_solve_is_reported(self, caplog):
        inst = protocol_instance(10, seed=1)
        d = np.zeros(10, dtype=int)
        with caplog.at_level("WARNING", logger="netalloc.meanfield"):
            approx_welfare(d, inst, SolverSettings(max_iter=1), seed=0)
        (record,) = caplog.records
        assert record.levelname == "WARNING" and record.nonconverged == 1
        caplog.clear()
        with caplog.at_level("WARNING", logger="netalloc.meanfield"):
            approx_welfare(d, inst, SETTINGS, seed=0)
        assert caplog.records == []

    def test_restarts_deterministic_without_certificate(self):
        inst = protocol_instance(8, set_id=2, seed=1, a_n=1.0)
        assert not instance_certified(inst)
        d = np.zeros(8, dtype=int)
        a = solve_allocation(inst, d, SETTINGS, seed=11)
        b = solve_allocation(inst, d, SETTINGS, seed=11)
        np.testing.assert_array_equal(a.mu, b.mu)
        assert a.objective == b.objective

    @pytest.mark.parametrize("seed", [11, 12])
    def test_keeps_the_best_objective_restart(self, seed):
        # The restarts end at one fixed point, apart by rounding alone, so the
        # run kept is told by its bits; here it is neither the first nor the last.
        inst = protocol_instance(8, set_id=2, seed=1, a_n=1.0)
        assert not instance_certified(inst)
        d = np.zeros(8, dtype=int)
        runs = [fixed_point_solve(weights(inst, d), SETTINGS, seed=int(s))
                for s in np.random.SeedSequence(seed).generate_state(meanfield.RESTARTS)]
        best = max(runs, key=lambda sol: sol.objective)
        assert best is not runs[0] and best is not runs[-1]
        sol = solve_allocation(inst, d, SETTINGS, seed=seed)
        np.testing.assert_array_equal(sol.mu, best.mu)
        assert sol.objective == best.objective

    def test_restarts_find_the_better_of_two_fixed_points(self):
        # Every pair of units coupled with a strong positive spillover: a
        # low-uptake and a high-uptake fixed point both draw random starts,
        # and the first start ends at the low one. theta0 = -4 keeps the
        # all-zeros and all-ones configurations well apart in potential.
        n = 8
        net = Network.from_edges(n, list(itertools.combinations(range(n), 2)))
        theta = ThetaParams(-4.0, 0.5, 0.0, 0.0, 0.0, 1.2, 0.0, a_n=1.0)
        inst = make_instance(net, np.zeros((n, 1)), theta, kernel=SimilarityKernel.constant(1.0))
        assert not instance_certified(inst)
        d = np.zeros(n, dtype=int)
        runs = [fixed_point_solve(weights(inst, d), SETTINGS, seed=int(s))
                for s in np.random.SeedSequence(0).generate_state(meanfield.RESTARTS)]
        low, high = (0.171708, 0.158098), (7.891414, 1.703140)
        ends = [low if abs(r.welfare - low[0]) < abs(r.welfare - high[0]) else high for r in runs]
        for run, (welfare, objective) in zip(runs, ends):
            assert run.welfare == pytest.approx(welfare, abs=1e-6)
            assert run.objective == pytest.approx(objective, abs=1e-6)
        assert ends[0] == low and high in ends
        sol = solve_allocation(inst, d, SETTINGS, seed=0)
        assert sol.welfare == pytest.approx(high[0], abs=1e-6)
        assert sol.objective == pytest.approx(high[1], abs=1e-6)


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
    @pytest.mark.parametrize("start", ["random", "init1d"])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 100_000])
    def test_bit_identical_to_three_product_kernel(self, set_id, start, max_iter):
        n, batch = 30, 17
        inst = protocol_instance(n, set_id=set_id, seed=set_id)
        rng = np.random.default_rng(max_iter)
        allocations = rng.integers(0, 2, size=(batch, n))
        kwargs = {
            "random": {"seed": 5},
            "init1d": {"init": rng.uniform(size=n)},
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
    def test_two_coupling_products_per_iteration(self, rng, max_iter):
        # One product builds w1 (in ``linear_weights``), two evaluate the
        # starting iterate and two evaluate each iterate after it. The block
        # treats every unit, so no product reads gathered columns.
        inst = protocol_instance(20, seed=6)
        counting = inst.coupling.view(_SharedCountCoupling)
        counting.widths = []
        inst.__dict__["coupling"] = counting
        allocations = rng.integers(0, 2, size=(11, 20))
        assert allocations.any(axis=0).all()
        sol = batch_fixed_point(
            inst, allocations, SolverSettings(max_iter=max_iter), seed=0
        )
        assert counting.widths == [20] * (3 + 2 * sol.iterations)

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 100_000])
    def test_two_csr_products_per_iteration(self, rng, max_iter):
        inst = protocol_instance(20, seed=6)
        counting = _SharedCountCSR(inst.coupling)
        counting.widths = []
        inst.__dict__["coupling"] = counting
        allocations = rng.integers(0, 2, size=(11, 20))
        assert allocations.any(axis=0).all()
        sol = batch_fixed_point(
            inst, allocations, SolverSettings(max_iter=max_iter), seed=0
        )
        assert counting.widths == [20] * (3 + 2 * sol.iterations)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("set_id", [1, 2])
    @pytest.mark.parametrize("start", ["random", "init1d"])
    @pytest.mark.parametrize("treated", [None, 0, 1, 9])
    def test_greedy_blocks_match_three_product_kernel(self, storage, set_id, start, treated):
        # The d-masked products read only the treated columns, which moves
        # the marginals by rounding alone. None: an all-untreated block,
        # whose support is empty.
        n = 30
        inst = protocol_instance(n, set_id=set_id, seed=set_id)
        if storage == "csr":
            inst = csr_twin(inst)
        rng = np.random.default_rng(treated)
        allocations = (np.zeros((4, n), dtype=np.int8) if treated is None
                       else _greedy_block(n, treated, rng))
        assert allocations.any(axis=0).sum() < n
        kwargs = {"seed": 5} if start == "random" else {"init": rng.uniform(size=n)}
        mu, done, iterations = _three_product_kernel(inst, allocations, SETTINGS, **kwargs)
        sol = batch_fixed_point(inst, allocations, SETTINGS, **kwargs)
        assert sol.iterations == iterations
        assert sol.converged.tobytes() == done.tobytes()
        np.testing.assert_allclose(sol.mu, mu, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("max_iter", [1, 2, 100_000])
    def test_gathered_columns_keep_the_product_count(self, rng, storage, max_iter):
        # w1 and each evaluated iterate's d-masked product read the gathered
        # treated columns; each iterate's ``sm @ mu`` reads the whole coupling.
        n = 20
        inst = protocol_instance(n, seed=6)
        dense = inst.coupling
        counting = (dense.view(_SharedCountCoupling) if storage == "dense"
                    else _SharedCountCSR(dense))
        counting.widths = []
        inst.__dict__["coupling"] = counting
        allocations = _greedy_block(n, 4, rng)
        support = int(allocations.any(axis=0).sum())
        assert support < n
        sol = batch_fixed_point(inst, allocations, SolverSettings(max_iter=max_iter),
                                init=np.full(n, 0.5))
        assert len(counting.widths) == 3 + 2 * sol.iterations
        assert sorted(counting.widths) == [support] * (2 + sol.iterations) + [n] * (
            1 + sol.iterations)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("max_iter", [1, 100_000])
    def test_products_are_those_of_the_returned_marginals(self, rng, storage, max_iter):
        n = 30
        inst = protocol_instance(n, seed=3)
        dense = inst.coupling
        if storage == "csr":
            inst = csr_twin(inst)
        allocations = _greedy_block(n, 5, rng)
        sol = batch_fixed_point(inst, allocations, SolverSettings(max_iter=max_iter), seed=2)
        dt = allocations.T.astype(float)
        expected = (dense @ (dt * sol.mu), dense @ sol.mu, dense @ dt)
        for got, want in zip(sol.products, expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("set_id", [1, 2])
    @pytest.mark.parametrize("treated,change", HANDOFF_CASES)
    def test_incumbent_start_matches_the_vector_start(self, storage, set_id, treated, change):
        # The incumbent and its products come from a solve, as greedy hands
        # them on; only the rounding of the first products differs.
        n = 30
        inst = protocol_instance(n, set_id=set_id, seed=set_id)
        if storage == "csr":
            inst = csr_twin(inst)
        incumbent, block = _incumbent_block(n, treated, change, np.random.default_rng(treated))
        solved = batch_fixed_point(inst, incumbent, SETTINGS, seed=4)
        start = solved.mu[:, 0]
        held = Incumbent(incumbent, start, tuple(p[:, 0] for p in solved.products))
        plain = batch_fixed_point(inst, block, SETTINGS, init=start)
        sol = batch_fixed_point(inst, block, SETTINGS, init=held)
        assert sol.iterations == plain.iterations
        assert sol.converged.tobytes() == plain.converged.tobytes()
        np.testing.assert_allclose(sol.mu, plain.mu, rtol=0, atol=1e-12)
        for got, want in zip(sol.products, plain.products):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("max_iter", [1, 2, 100_000])
    def test_incumbent_start_takes_one_product_before_the_iterations(
            self, rng, storage, max_iter):
        # One product reads the columns of the units where a column differs
        # from the incumbent; each iteration then reads the gathered treated
        # columns and the whole coupling.
        n = 20
        inst = protocol_instance(n, seed=6)
        incumbent, block = _incumbent_block(n, 4, "several", rng)
        start = rng.uniform(size=n)
        held = Incumbent(incumbent, start, _coupling_products(inst, incumbent, start))
        dense = inst.coupling
        counting = (dense.view(_SharedCountCoupling) if storage == "dense"
                    else _SharedCountCSR(dense))
        counting.widths = []
        inst.__dict__["coupling"] = counting
        sol = batch_fixed_point(inst, block, SolverSettings(max_iter=max_iter), init=held)
        diff = int((block != incumbent).any(axis=0).sum())
        support = int(block.any(axis=0).sum())
        assert diff < support < n
        assert counting.widths == [diff] + [support, n] * sol.iterations

    @pytest.mark.parametrize("init,message", BAD_STARTS)
    def test_rejects_a_bad_incumbent_start(self, rng, init, message):
        inst = protocol_instance(10, seed=2)
        held = Incumbent(np.zeros(10, dtype=np.int8), init, None)
        with pytest.raises(ValueError, match=message):
            batch_fixed_point(inst, rng.integers(0, 2, size=(3, 10)), SETTINGS, init=held)

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
            assert foc_residual(batch.mu[:, k], w) <= SETTINGS.foc_tol + meanfield.CLAMP

    def test_uncoupled_instance_stops_after_one_iteration(self, rng):
        # Without edges the first step lands on the fixed point, and the
        # second moves nothing.
        inst = make_instance(Network.from_edges(6, []), rng.integers(0, 2, size=(6, 1)),
                             ThetaParams.from_set(1))
        sol = batch_fixed_point(inst, rng.integers(0, 2, size=(4, 6)), SETTINGS, seed=0)
        assert sol.iterations == 1 and sol.converged.all()

    @pytest.mark.parametrize("init,message", BAD_STARTS)
    def test_rejects_a_bad_start(self, rng, init, message):
        inst = protocol_instance(10, seed=2)
        with pytest.raises(ValueError, match=message):
            batch_fixed_point(inst, rng.integers(0, 2, size=(3, 10)), SETTINGS, init=init)

    @pytest.mark.parametrize("bad", [[[2, 0, 0, 0, 0, 0]], [[0.5, 1, 0, 0, 0, 0]],
                                     [[0, 1, 0, 0, 0]], [[[0] * 6]]])
    def test_rejects_invalid_allocation_blocks(self, bad):
        inst = protocol_instance(6, seed=1)
        with pytest.raises(ValueError, match="allocation"):
            batch_fixed_point(inst, np.array(bad), SETTINGS, seed=0)
