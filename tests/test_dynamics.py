"""Simulation chain: kernel correctness, stationarity, welfare estimates."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from netalloc import (
    Network,
    ThetaParams,
    conditional_choice_prob,
    enumerate_gibbs,
    make_instance,
    mcmc_welfare,
    stationarity_check,
    weights,
)
from netalloc.dynamics import STATIONARITY_MAX_UNITS, _chain, _one_step_image, _redraw
from tests.conftest import protocol_instance, random_instance
from tests.test_exact import _dense_enumeration
from tests.test_storage import csr_twin


def _step(y, w, rng):
    """One step of the process: redraw one uniformly chosen unit of y."""
    _redraw(y, w, rng.integers(0, w.n, size=1), rng.random(1))


def _reference_kernel(instance, d):
    """Full 2^N x 2^N transition matrix of the single-site chain, assembled
    entry by entry; row c is the configuration with y_i = (c >> i) & 1."""
    n = instance.n
    w = weights(instance, d).dense()
    codes = np.arange(1 << n)
    y = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
    p1 = expit(w.w1 + 2.0 * (y @ w.w2))
    kernel = np.zeros((1 << n, 1 << n))
    for i in range(n):
        np.add.at(kernel, (codes, codes | (1 << i)), p1[:, i] / n)
        np.add.at(kernel, (codes, codes & ~(1 << i)), (1.0 - p1[:, i]) / n)
    return kernel


class TestStep:
    def test_changes_at_most_one_coordinate(self, rng):
        inst = random_instance(rng, 8, density=0.5)
        w = weights(inst, rng.integers(0, 2, 8))
        chain_rng = np.random.default_rng(0)
        y = chain_rng.integers(0, 2, size=8).astype(np.int8)
        for _ in range(200):
            before = y.copy()
            _step(y, w, chain_rng)
            assert (before != y).sum() <= 1

    def test_single_unit_marginal(self):
        net = Network.from_edges(1, [])
        inst = make_instance(net, np.array([[1.0]]), ThetaParams(-0.5, 0, 0, 0, 0, 0, 0))
        w = weights(inst, np.zeros(1, dtype=int))
        chain_rng = np.random.default_rng(42)
        y = chain_rng.integers(0, 2, size=1).astype(np.int8)
        hits = 0
        n_steps = 20000
        for _ in range(n_steps):
            _step(y, w, chain_rng)
            hits += int(y[0])
        target = float(expit(-0.5))
        se = np.sqrt(target * (1 - target) / n_steps) * 3  # ignores autocorrelation
        assert abs(hits / n_steps - target) < 6 * se

    def test_two_unit_transition_frequencies(self, rng):
        # Empirical one-step transitions from a held state match the
        # single-site chain's probabilities.
        inst = random_instance(rng, 2, density=1.0)
        d = np.array([1, 0])
        w = weights(inst, d)
        start = np.array([1, 0], dtype=np.int8)
        counts = {}
        trials = 100_000
        master = np.random.default_rng(7)
        for _ in range(trials):
            y = start.copy()
            _step(y, w, np.random.default_rng(int(master.integers(2**63))))
            key = tuple(y)
            counts[key] = counts.get(key, 0) + 1
        # Each unit is picked with probability 1/2 and redrawn given the other.
        p0 = conditional_choice_prob(0, start, inst, d)
        p1 = conditional_choice_prob(1, start, inst, d)
        expected = {(0, 0): (1 - p0) / 2, (1, 0): (p0 + 1 - p1) / 2, (1, 1): p1 / 2}
        for key, p in expected.items():
            freq = counts.get(key, 0) / trials
            se = np.sqrt(p * (1 - p) / trials)
            assert abs(freq - p) <= 4 * se + 1e-12


class TestKernel:
    def test_rows_sum_to_one(self, rng):
        inst = random_instance(rng, 5, density=0.5)
        kernel = _reference_kernel(inst, rng.integers(0, 2, 5))
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)

    def test_kernel_entries_match_choice_probabilities(self, rng):
        inst = random_instance(rng, 4, density=0.7)
        d = rng.integers(0, 2, 4)
        kernel = _reference_kernel(inst, d)
        y = np.array([1, 0, 1, 0])
        code = 0b0101
        i = 1
        flipped = code | (1 << i)
        p = conditional_choice_prob(i, y, inst, d)
        assert kernel[code, flipped] == pytest.approx(p / 4, abs=1e-12)

    def test_detailed_balance(self, rng):
        # pi(y) K(y, y') = pi(y') K(y', y) for single-site moves.
        for _ in range(5):
            n = int(rng.integers(2, 8))
            inst = random_instance(rng, n, density=0.6)
            d = rng.integers(0, 2, n)
            kernel = _reference_kernel(inst, d)
            pi = _dense_enumeration(weights(inst, d))[2]
            for code in range(1 << n):
                for i in range(n):
                    other = code ^ (1 << i)
                    lhs = pi[code] * kernel[code, other]
                    rhs = pi[other] * kernel[other, code]
                    assert abs(lhs - rhs) <= 1e-12

    def test_size_cap(self, rng):
        n = STATIONARITY_MAX_UNITS + 1
        inst = random_instance(rng, n)
        with pytest.raises(ValueError, match=rf"infeasible for {n} units \(cap {n - 1}\)"):
            stationarity_check(inst, np.zeros(n, dtype=int))


class TestStationarity:
    def test_single_unit(self):
        net = Network.from_edges(1, [])
        inst = make_instance(net, np.array([[1.0]]), ThetaParams.from_set(1))
        assert stationarity_check(inst) <= 1e-15

    @pytest.mark.parametrize("set_id,n", [(1, 5), (2, 8)])
    def test_benchmark_instances(self, set_id, n):
        inst = protocol_instance(n, set_id=set_id, seed=31)
        rng = np.random.default_rng(5)
        d = rng.integers(0, 2, n)
        assert stationarity_check(inst, d) <= 1e-12

    def test_random_instances(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            inst = random_instance(rng, n)
            d = rng.integers(0, 2, n)
            assert stationarity_check(inst, d) <= 1e-12

    @pytest.mark.parametrize("law", ["gibbs", "half_pair", "uniform"])
    def test_image_matches_reference_kernel(self, rng, law):
        for n in (2, 4, 7, 9):
            inst = protocol_instance(n, density=0.6, set_id=2, seed=n)
            d = rng.integers(0, 2, n)
            p1, e = _chain(inst, d)
            if law == "half_pair":  # the Gibbs energy with its pair term halved
                y = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
                w = weights(inst, d).dense()
                e = y @ w.w1 + 0.5 * ((y @ w.w2) * y).sum(axis=1)
            elif law == "uniform":
                e = np.zeros(1 << n)
            pi = np.exp(e - e.max())
            pi /= pi.sum()
            image = _one_step_image(p1, pi)
            assert np.abs(image - pi @ _reference_kernel(inst, d)).max() <= 1e-15
            residual = np.abs(image - pi).sum()
            if law == "gibbs":
                assert residual <= 1e-12
            else:
                assert residual > 1e-3

    def test_memory_at_the_cap(self):
        # The 2^12 x 2^12 transition matrix alone would take 128 MiB.
        n = STATIONARITY_MAX_UNITS
        inst = protocol_instance(n, set_id=1, seed=31)
        d = np.random.default_rng(5).integers(0, 2, n)
        tracemalloc.start()
        try:
            residual = stationarity_check(inst, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual <= 1e-12
        assert peak < 16 * 2**20


class TestMcmcWelfare:
    def test_independent_instance_matches_logistic_mean(self, rng):
        net = Network.from_edges(6, [])
        inst = make_instance(net, rng.random((6, 1)), ThetaParams.from_set(1))
        d = rng.integers(0, 2, 6)
        target = float(expit(weights(inst, d).w1).mean())
        est, se = mcmc_welfare(d, inst, sweeps=4000, burn_in=1000, seed=3)
        assert abs(est - target) <= max(4 * se, 0.01)

    def test_matches_exact_welfare(self, rng):
        inst = protocol_instance(5, seed=17)
        d = np.array([1, 0, 0, 1, 0])
        from netalloc import exact_welfare

        exact_pp = exact_welfare(d, inst) / 5
        est, _ = mcmc_welfare(d, inst, sweeps=40_000, burn_in=5_000, seed=11)
        assert abs(est - exact_pp) <= 0.005

    def test_empirical_marginals_near_exact(self):
        # Per-site occupation frequencies over a million steps sit within
        # 0.02 of the enumerated stationary marginals.
        inst = protocol_instance(5, seed=29)
        d = np.array([0, 1, 0, 0, 1])
        w = weights(inst, d)
        chain_rng = np.random.default_rng(13)
        y = chain_rng.integers(0, 2, size=5).astype(np.int8)
        total_steps = 1_000_000
        burn = 50_000
        counts = np.zeros(5)
        for t in range(total_steps):
            _step(y, w, chain_rng)
            if t >= burn:
                counts += y
        empirical = counts / (total_steps - burn)
        exact = enumerate_gibbs(weights(inst, d)).marginals
        assert np.abs(empirical - exact).max() <= 0.02

    def test_reproducible(self, rng):
        inst = protocol_instance(10, seed=23)
        d = np.zeros(10, dtype=int)
        a = mcmc_welfare(d, inst, sweeps=500, burn_in=100, seed=9)
        b = mcmc_welfare(d, inst, sweeps=500, burn_in=100, seed=9)
        assert a == b

    def test_steps_per_sweep_flag(self, rng):
        inst = protocol_instance(10, seed=23)
        d = np.zeros(10, dtype=int)
        est, se = mcmc_welfare(
            d, inst, sweeps=2000, burn_in=500, seed=9, steps_per_sweep=1
        )
        assert 0.0 <= est <= 1.0
        assert se >= 0.0

    def test_requires_sweeps_beyond_burn_in(self, rng):
        inst = protocol_instance(5, seed=1)
        with pytest.raises(ValueError, match="burn_in"):
            mcmc_welfare(np.zeros(5, dtype=int), inst, sweeps=100, burn_in=100, seed=0)

    def test_rejects_negative_burn_in(self, rng):
        # A negative burn-in used to leave unfilled entries in the kept
        # series and bias the estimate toward zero.
        inst = protocol_instance(5, seed=1)
        with pytest.raises(ValueError, match="burn_in must be nonnegative"):
            mcmc_welfare(np.zeros(5, dtype=int), inst, sweeps=20, burn_in=-5, seed=0)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_rejects_steps_per_sweep_below_one(self, steps):
        # Zero steps left the chain at its random start and reported a
        # standard error of ~1e-17; a negative count failed inside numpy.
        inst = protocol_instance(5, seed=1)
        with pytest.raises(ValueError, match="steps_per_sweep must be at least 1"):
            mcmc_welfare(np.zeros(5, dtype=int), inst, sweeps=20, burn_in=5, seed=0,
                         steps_per_sweep=steps)


ROW_CASES = [(30, 0.3, 4), (25, 0.6, 1), (12, 0.1, 7)]


class TestRows:
    @pytest.mark.parametrize("n,density,seed", ROW_CASES)
    def test_dense_rows_equal_csr_rows_bit_for_bit(self, rng, n, density, seed):
        inst = protocol_instance(n, density=density, seed=seed)
        d = rng.integers(0, 2, size=n)
        dense, csr = weights(inst, d), weights(csr_twin(inst), d)
        assert isinstance(dense.w2, np.ndarray) and sparse.issparse(csr.w2)
        (cols_d, vals_d), (cols_s, vals_s) = dense.rows, csr.rows
        assert len(cols_d) == len(vals_d) == len(cols_s) == len(vals_s) == n
        for a, b in zip(cols_d, cols_s):
            assert np.array_equal(a, b)
        for a, b in zip(vals_d, vals_s):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n,density,seed", ROW_CASES)
    def test_rows_list_exactly_the_nonzero_weights(self, rng, n, density, seed):
        # absdiff on binary covariates zeroes about half the couplings, and
        # theta5 = 0 zeroes every pair with an untreated end, which a CSR w2
        # stores as explicit zeros. The rows leave all of them out.
        inst = protocol_instance(n, density=density, seed=seed)
        d = rng.integers(0, 2, size=n)
        no_theta5 = replace(inst, theta=replace(inst.theta, theta5=0.0))
        for case in (inst, csr_twin(inst), no_theta5, csr_twin(no_theta5)):
            w = weights(case, d)
            w2 = w.dense().w2
            cols, vals = w.rows
            for i in range(n):
                want = np.flatnonzero(w2[i])
                assert np.array_equal(cols[i], want)
                assert vals[i].tobytes() == (2.0 * w2[i, want]).tobytes()
            assert sum(map(len, cols)) < inst.net.indices.size
