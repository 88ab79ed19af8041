"""Exact enumeration against an independent brute-force transcription."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.special import logsumexp

import netalloc.exact as ex
from netalloc import (
    Network,
    SimilarityKernel,
    ThetaParams,
    WeightSystem,
    brute_force_optimal,
    enumerate_gibbs,
    exact_kl,
    exact_welfare,
    feasible_allocations,
    make_instance,
    potential,
    weights,
    welfare_of_allocations,
)
from netalloc.exact import MAX_EXACT_UNITS, ExactSizeError
from netalloc.experiments import simulation_instance
from netalloc import model
from netalloc.model import (
    linear_weights,
    min_fill_order,
    nonzero_entries,
    pair_weights,
    to_dense,
)
from tests.conftest import protocol_instance, random_instance, random_theta
from tests.test_storage import csr_twin


def reference_enumeration(inst, d):
    """Plain-loop enumeration over all configurations using the potential
    directly; independent of the vectorized energy tables."""
    n = inst.n
    values = {}
    for y in itertools.product((0, 1), repeat=n):
        values[y] = math.exp(potential(np.array(y, dtype=float), inst, d))
    z = sum(values.values())
    marginals = np.zeros(n)
    for y, v in values.items():
        for i in range(n):
            marginals[i] += y[i] * v / z
    return math.log(z), marginals


class TestEnumerateGibbs:
    def test_single_unit_balanced(self):
        w = WeightSystem(w1=np.zeros(1), w2=np.zeros((1, 1)))
        dist = enumerate_gibbs(w)
        assert dist.marginals[0] == pytest.approx(0.5)
        assert dist.log_partition == pytest.approx(math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(_dense_enumeration(w)[2], [0.5, 0.5])

    def test_two_unit_closed_form(self):
        # With no linear terms and coupling a on the off-diagonal, the
        # four configuration weights are 1, 1, 1, e^{2a}.
        a = 0.8
        w2 = np.array([[0.0, a], [a, 0.0]])
        w = WeightSystem(np.zeros(2), w2)
        dist = enumerate_gibbs(w)
        p11 = math.exp(2 * a) / (3 + math.exp(2 * a))
        assert _dense_enumeration(w)[2][3] == pytest.approx(p11, abs=1e-14)
        assert dist.log_partition == pytest.approx(math.log(3 + math.exp(2 * a)), abs=1e-14)
        assert dist.marginals[0] == pytest.approx(
            (1 + math.exp(2 * a)) / (3 + math.exp(2 * a)), abs=1e-14
        )

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 9)))
            d = rng.integers(0, 2, inst.n)
            w = weights(inst, d)
            probs = _dense_enumeration(w)[2]
            assert abs(probs.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(
                enumerate_gibbs(w).marginals, probs @ _configs(inst.n), atol=1e-12
            )

    def test_matches_reference_enumeration(self, rng):
        for _ in range(5):
            inst = random_instance(rng, 6, density=0.5)
            d = rng.integers(0, 2, 6)
            dist = enumerate_gibbs(weights(inst, d))
            log_z, marginals = reference_enumeration(inst, d)
            assert dist.log_partition == pytest.approx(log_z, abs=1e-11)
            np.testing.assert_allclose(dist.marginals, marginals, atol=1e-11)

    def test_block_count_invariance(self, rng, monkeypatch):
        # Allocations are eliminated in blocks sized from the widest factor;
        # every allocation is computed on its own, so any block size gives
        # the same bits.
        inst = random_instance(rng, 9, density=0.5)
        allocations = rng.integers(0, 2, size=(300, 9))
        w = weights(inst, allocations[0])
        one = welfare_of_allocations(inst, allocations), enumerate_gibbs(w)
        monkeypatch.setattr(ex, "_BUDGET", 1 << 7)  # 16 allocations a block here
        several = welfare_of_allocations(inst, allocations), enumerate_gibbs(w)
        assert several[0].tobytes() == one[0].tobytes()
        assert several[1].log_partition == one[1].log_partition
        assert several[1].marginals.tobytes() == one[1].marginals.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 9, 12, 15])
    def test_matches_dense_enumeration(self, n):
        # Agreement to 1e-12: elimination sums in another order than the
        # listing, so the last bits differ.
        inst = simulation_instance(n, 0.5, ThetaParams.from_set(1, a_n=1 / n), seed=n)
        w = weights(inst, np.random.default_rng(n).integers(0, 2, n))
        log_z, marginals, _ = _dense_enumeration(w)
        dist = enumerate_gibbs(w)
        assert abs(dist.log_partition - log_z) <= 1e-12
        assert np.abs(dist.marginals - marginals).max() <= 1e-12

    def test_ring_of_max_units(self, rng):
        n = MAX_EXACT_UNITS
        net = Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        inst = make_instance(net, rng.random((n, 1)), random_theta(rng, a_n=0.5),
                             kernel=SimilarityKernel.constant(0.7))
        w = weights(inst, rng.integers(0, 2, n))
        log_z, marginals, _ = _dense_enumeration(w)
        dist = enumerate_gibbs(w)
        assert abs(dist.log_partition - log_z) <= 1e-12
        assert np.abs(dist.marginals - marginals).max() <= 1e-12

    def test_disconnected_components(self, rng):
        # Two triangles, a path, and isolated units: one factor is left per
        # component, and log Z and the welfare add up over them.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8)]
        net = Network.from_edges(11, edges)
        inst = make_instance(net, rng.random((11, 1)), random_theta(rng, a_n=0.5),
                             kernel=SimilarityKernel.constant(0.7))
        allocations = rng.integers(0, 2, size=(20, 11))
        for d in allocations[:5]:
            log_z, marginals, _ = _dense_enumeration(weights(inst, d))
            dist = enumerate_gibbs(weights(inst, d))
            assert abs(dist.log_partition - log_z) <= 1e-12
            assert np.abs(dist.marginals - marginals).max() <= 1e-12
        listed = [_dense_enumeration(weights(inst, d))[1].sum() for d in allocations]
        np.testing.assert_allclose(
            welfare_of_allocations(inst, allocations), listed, rtol=0, atol=1e-12
        )

    def test_size_cap(self):
        w = WeightSystem(np.zeros(25), np.zeros((25, 25)))
        with pytest.raises(ExactSizeError, match="infeasible"):
            enumerate_gibbs(w)


def _configs(n, start=0, stop=None):
    """Configurations with codes start..stop-1: row r has y_i = ((start + r) >> i) & 1."""
    codes = np.arange(start, 1 << n if stop is None else stop)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(float)


def _dense_enumeration(w):
    """Reference listing of all 2^N configurations, in blocks of 2^16 codes:
    log Z, the marginals, and the probability of each code."""
    n, w2 = w.n, to_dense(w.w2)
    blocks = [(s, min(s + (1 << 16), 1 << n)) for s in range(0, 1 << n, 1 << 16)]
    e = np.concatenate([y @ w.w1 + ((y @ w2) * y).sum(axis=1)
                        for y in (_configs(n, *b) for b in blocks)])
    log_z = float(logsumexp(e))
    p = np.exp(e - log_z)
    return log_z, sum(p[slice(*b)] @ _configs(n, *b) for b in blocks), p


class TestExactWelfare:
    def test_independent_units(self, rng):
        from scipy.special import expit

        net = Network.from_edges(4, [])
        x = rng.random((4, 1))
        inst = make_instance(net, x, ThetaParams.from_set(1))
        d = np.array([1, 0, 0, 1])
        w = weights(inst, d)
        assert exact_welfare(d, inst) == pytest.approx(float(expit(w.w1).sum()), abs=1e-12)

    def test_no_treatment_benchmark_band(self):
        # Average per-person equilibrium outcome with no treatment, over
        # benchmark instances at N=5 and density 0.3.
        values = []
        theta = ThetaParams.from_set(1, a_n=1 / 5)
        for seed in range(100):
            inst = simulation_instance(5, 0.3, theta, seed=seed)
            values.append(exact_welfare(np.zeros(5, dtype=int), inst) / 5)
        mean = float(np.mean(values))
        assert 0.124 <= mean <= 0.130

    def test_adding_treatment_never_lowers_welfare(self, rng):
        # Positive-effect profiles make equilibrium welfare monotone in
        # the treated set.
        for _ in range(100):
            n = int(rng.integers(2, 9))
            inst = random_instance(rng, n, positivity=True)
            d = rng.integers(0, 2, n)
            untreated = np.flatnonzero(d == 0)
            if untreated.size == 0:
                continue
            base = exact_welfare(d, inst)
            d2 = d.copy()
            d2[int(rng.choice(untreated))] = 1
            assert exact_welfare(d2, inst) >= base - 1e-10

    def test_batch_matches_single(self, rng):
        inst = random_instance(rng, 8, density=0.5)
        allocations = rng.integers(0, 2, size=(40, 8))
        batch = welfare_of_allocations(inst, allocations)
        single = np.array([exact_welfare(d, inst) for d in allocations])
        np.testing.assert_allclose(batch, single, atol=1e-9)

    def test_invariant_under_chunk_size(self, rng, monkeypatch):
        # Shrink the factor budget so the allocations run 7 to a block.
        inst = random_instance(rng, 9, density=0.5)
        allocations = rng.integers(0, 2, size=(300, 9))
        default = welfare_of_allocations(inst, allocations)
        widest = max((len(rest) for _, rest in inst.elimination_order), default=0) + 1
        monkeypatch.setattr(ex, "_BUDGET", 7 << widest)
        small = welfare_of_allocations(inst, allocations)
        assert np.abs(small - default).max() <= 1e-12

    @pytest.mark.parametrize("bad", [[[2, 0, 0, 0, 0, 0]], [[0.5, 1, 0, 0, 0, 0]],
                                     [[0, 1, 0, 0, 0]], [[[0] * 6]]])
    def test_invalid_allocation_blocks_rejected(self, bad):
        inst = protocol_instance(6, seed=1)
        with pytest.raises(ValueError, match="allocation"):
            welfare_of_allocations(inst, np.array(bad))

    def test_fractional_allocation_rejected_before_the_cast(self):
        # An int8 cast would read 0.5 as 0.
        with pytest.raises(ValueError, match="0 or 1"):
            exact_welfare([0.5, 1, 0, 0, 0, 0], protocol_instance(6, seed=1))


class TestCoupledPairTable:
    """``welfare_of_allocations`` eliminates over the coupled pairs, however
    many there are, and must agree with the per-allocation computation."""

    @staticmethod
    def _check(inst, rng):
        n = inst.n
        allocations = np.vstack(
            [np.zeros(n), np.ones(n), rng.integers(0, 2, size=(30, n))]
        ).astype(int)
        batch = welfare_of_allocations(inst, allocations)
        single = np.array([exact_welfare(d, inst) for d in allocations])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_no_edges(self, rng):
        x = rng.integers(0, 2, size=(8, 1)).astype(float)
        inst = make_instance(Network.from_edges(8, []), x, random_theta(rng, a_n=1 / 8))
        assert not to_dense(inst.coupling).any()
        self._check(inst, rng)

    def test_equal_covariates_under_absdiff(self, rng):
        net = Network.from_edges(8, list(itertools.combinations(range(8), 2)))
        inst = make_instance(net, np.ones((8, 2)), random_theta(rng, a_n=1 / 8),
                             kernel=SimilarityKernel.abs_diff())
        assert not to_dense(inst.coupling).any()
        self._check(inst, rng)

    def test_every_pair_coupled(self, rng):
        n = 9
        net = Network.from_edges(n, list(itertools.combinations(range(n), 2)))
        inst = make_instance(net, rng.random((n, 1)), random_theta(rng, a_n=1 / n),
                             kernel=SimilarityKernel.constant(0.7))
        assert np.count_nonzero(np.triu(to_dense(inst.coupling), k=1)) == n * (n - 1) // 2
        self._check(inst, rng)

    def test_csr_coupling(self, rng):
        net = Network.from_edges(12, [(0, 1), (1, 2), (5, 9)])
        x = rng.integers(0, 3, size=(12, 1)).astype(float)
        x[[0, 1, 2, 5, 9]] = [[0.0], [1.0], [3.0], [2.0], [0.0]]  # every edge coupled
        inst = make_instance(net, x, random_theta(rng, a_n=0.5))
        assert sparse.issparse(inst.coupling)
        assert inst.coupling.nnz == 6
        self._check(inst, rng)


class TestPairsFromEntries:
    """The oracle takes its coupled pairs i < j from ``model.nonzero_entries``.
    They must be the pairs, in the order, of the dense upper triangle
    ``np.nonzero(np.triu(to_dense(a), k=1))``, so that the elimination gives
    the same bits on either storage as with that reference list."""

    @staticmethod
    def _upper_pairs(a):
        return np.nonzero(np.triu(to_dense(a), k=1))

    @pytest.mark.parametrize("set_id", [1, 2])
    @pytest.mark.parametrize("density", [0.2, 0.5])
    def test_moments(self, set_id, density, rng):
        dense = protocol_instance(12, density=density, set_id=set_id, seed=3)
        d = rng.integers(0, 2, size=12)
        w = weights(dense, d)
        iu, ju = self._upper_pairs(w.w2)
        stat = np.eye(12)
        log_z, mean = ex._eliminate(w.w1[None], iu, ju, 2.0 * w.w2[iu, ju][None], stat,
                                    min_fill_order(12, iu, ju))
        for inst in (dense, csr_twin(dense)):
            got_z, got_mean = ex._moments(weights(inst, d), stat)
            assert np.float64(got_z).tobytes() == log_z[0].tobytes()
            assert got_mean.tobytes() == mean[0].tobytes()

    @pytest.mark.parametrize("set_id", [1, 2])
    @pytest.mark.parametrize("density", [0.2, 0.5])
    def test_welfare_of_allocations(self, set_id, density, rng):
        dense = protocol_instance(12, density=density, set_id=set_id, seed=3)
        allocations = rng.integers(0, 2, size=(20, 12)).astype(float)
        sm = dense.coupling
        iu, ju = self._upper_pairs(sm)
        w1 = linear_weights(dense, allocations.T).T
        dd = allocations[:, iu] * allocations[:, ju]
        pair_w = 2.0 * pair_weights(dense.theta, sm[iu, ju], dd)
        _, mean = ex._eliminate(w1, iu, ju, pair_w, np.ones((12, 1)), min_fill_order(12, iu, ju))
        for inst in (dense, csr_twin(dense)):
            assert welfare_of_allocations(inst, allocations).tobytes() == mean[:, 0].tobytes()


def _frozen_sum_out(v, rest, mine, stat):
    """``exact._sum_out`` as it was with the allocations on the leading axis
    of every factor and ``np.logaddexp`` over y_v: the reference the engine
    must match to rounding."""
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
    out = st1 + stat[v]
    out -= st0
    out *= p1
    out += st0
    return tuple(rest), new, out


def _frozen_eliminate(w1, iu, ju, pair_w, stat):
    """``exact._eliminate`` with rows-first factors, one block of rows."""
    n = w1.shape[1]
    unary, pairs = np.zeros((n, w1.shape[0], 2)), np.zeros((len(iu), w1.shape[0], 2, 2))
    unary[..., 1], pairs[..., 1, 1] = w1.T, pair_w.T
    factors = [((i,), t, None) for i, t in enumerate(unary)]
    factors += [((i, j), t, None) for i, j, t in zip(iu.tolist(), ju.tolist(), pairs)]
    for v, rest in min_fill_order(n, iu, ju):
        mine = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append(_frozen_sum_out(v, rest, mine, stat))
    return sum(f[1] for f in factors), sum(f[2] for f in factors)


def _frozen_welfare(inst, allocations):
    allocations = np.asarray(allocations, dtype=float)
    r, c, coupled = nonzero_entries(inst.coupling)
    upper = r < c
    iu, ju = r[upper], c[upper]
    w1 = linear_weights(inst, allocations.T).T
    dd = allocations[:, iu] * allocations[:, ju]
    pair_w = 2.0 * pair_weights(inst.theta, coupled[upper], dd)
    return _frozen_eliminate(w1, iu, ju, pair_w, np.ones((inst.n, 1)))[1][:, 0]


def _frozen_moments(w, stat):
    r, c, v = w.entries
    upper = r < c
    log_z, mean = _frozen_eliminate(w.w1[None], r[upper], c[upper], v[upper][None], stat)
    return float(log_z[0]), mean[0]


class TestAgainstFrozenEngine:
    """The engine with the rows last and a log-sum-exp against the frozen
    rows-first ``logaddexp`` engine: equal to 1e-12, and the same argmax."""

    @pytest.mark.parametrize("set_id", [1, 2])
    @pytest.mark.parametrize("n, density, seed", [(2, 0.5, 2), (5, 0.5, 5), (9, 0.5, 9),
                                                  (12, 0.5, 12), (15, 0.5, 15), (15, 0.8, 0)])
    def test_matches_frozen_engine(self, n, density, seed, set_id, monkeypatch):
        inst = protocol_instance(n, density=density, set_id=set_id, seed=seed)
        widest = max(len(rest) for _, rest in inst.elimination_order) + 1
        if density == 0.8:
            assert widest - 1 >= 8  # elimination width 8: tables of 2^9 entries a row
        rng = np.random.default_rng(n)
        allocations = np.vstack([feasible_allocations(n, min(n, 2)),
                                 rng.integers(0, 2, size=(100, n))])
        frozen = _frozen_welfare(inst, allocations)
        assert np.abs(welfare_of_allocations(inst, allocations) - frozen).max() <= 1e-12
        for d in allocations[-5:]:
            w = weights(inst, d)
            assert abs(exact_welfare(d, inst) - _frozen_moments(w, np.ones((n, 1)))[1][0]) <= 1e-12
            log_z, marginals = _frozen_moments(w, np.eye(n))
            dist = enumerate_gibbs(w)
            assert abs(dist.log_partition - log_z) <= 1e-12
            assert np.abs(dist.marginals - marginals).max() <= 1e-12
        # 16 rows a block: the allocations run in several blocks.
        monkeypatch.setattr(ex, "_BUDGET", 16 << widest)
        assert np.abs(welfare_of_allocations(inst, allocations) - frozen).max() <= 1e-12

    @pytest.mark.parametrize("density", [0.3, 0.6])
    def test_brute_force_picks_the_frozen_treated_set(self, density):
        allocations = feasible_allocations(15, 4)
        for seed in range(20):
            inst = protocol_instance(15, density=density, set_id=1, seed=seed)
            frozen = _frozen_welfare(inst, allocations)
            best = ex._argmax_lexicographic(frozen, allocations, tie=ex._TIE)
            allocation, value = brute_force_optimal(inst, 4)
            assert allocation.treated == tuple(np.flatnonzero(allocations[best]).tolist())
            assert abs(value - frozen[best]) <= 1e-12


def _listing(w1, w2):
    """log Z and the marginals by a ``logsumexp`` over all 2^N states."""
    y = _configs(len(w1))
    e = y @ w1 + ((y @ w2) * y).sum(axis=1)
    log_z = logsumexp(e)
    return log_z, np.exp(e - log_z) @ y


class TestLogSumExpStability:
    """Weights of order 1e3 put log Z near 1e4, far beyond what exp can take;
    the elimination must stay finite and warning-free."""

    def test_large_weights_of_both_signs_match_the_listing(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            # Multiples of 1/64, so the listing's energies are exact.
            w1 = np.round(rng.uniform(-1e3, 1e3, n) * 64) / 64
            pairs = np.round(rng.uniform(-1e3, 1e3, (n, n)) * 64) / 64
            upper = np.triu(pairs * (rng.random((n, n)) < 0.5), k=1)
            w2 = upper + upper.T
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                dist = enumerate_gibbs(WeightSystem(w1, w2))
            log_z, marginals = _listing(w1, w2)
            assert np.isfinite(dist.log_partition) and np.isfinite(dist.marginals).all()
            assert abs(dist.log_partition - log_z) <= 1e-12 * max(1.0, abs(log_z))
            # The marginals' scale is 1. A log-weight near 1e4 carries a
            # rounding of ulp(1e4) = 1.8e-12, which moves a conditional
            # probability p by about that times p (1 - p).
            np.testing.assert_allclose(dist.marginals, marginals, rtol=1e-12, atol=1e-12)

    def test_three_states_tied_at_a_large_weight(self):
        # States 10, 01 and 11 all weigh e^1000; state 00 weighs 1.
        w = WeightSystem(np.array([1e3, 1e3]), np.array([[0.0, -500.0], [-500.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dist = enumerate_gibbs(w)
        assert dist.log_partition == pytest.approx(1e3 + math.log(3.0), rel=1e-15)
        np.testing.assert_allclose(dist.marginals, [2 / 3, 2 / 3], rtol=1e-12)


class TestEliminationOrder:
    def test_computed_once_per_instance(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return min_fill_order(*args)

        monkeypatch.setattr(model, "min_fill_order", counting)
        monkeypatch.setattr(ex, "min_fill_order", counting)
        inst = protocol_instance(9, density=0.5, seed=4)
        allocation, _ = brute_force_optimal(inst, 2)
        for d in (allocation.d, np.zeros(9, dtype=int), np.ones(9, dtype=int)):
            exact_welfare(d, inst)
        enumerate_gibbs(weights(inst, allocation.d))
        assert calls == [9]

    @pytest.mark.parametrize("density", [0.2, 0.5])
    def test_dense_and_csr_twins_share_it(self, density):
        for seed in range(5):
            inst = protocol_instance(12, density=density, seed=seed)
            assert csr_twin(inst).elimination_order == inst.elimination_order

    def test_hand_built_system_orders_its_own_pairs(self):
        # A path 0 - 1 - 2: the ends go first, then the middle alone.
        w2 = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.2], [0.0, 0.2, 0.0]])
        w = WeightSystem(np.array([0.1, -0.2, 0.3]), w2)
        assert ex.min_fill_order(3, *np.nonzero(np.triu(w2, k=1))) == (
            (0, (1,)), (1, (2,)), (2, ()))
        log_z, marginals = _listing(w.w1, w2)
        dist = enumerate_gibbs(w)
        assert dist.log_partition == pytest.approx(log_z, abs=1e-14)
        np.testing.assert_allclose(dist.marginals, marginals, atol=1e-14)


class TestBruteForce:
    def test_zero_capacity(self, rng):
        inst = random_instance(rng, 5)
        allocation, _ = brute_force_optimal(inst, 0)
        assert allocation.treated == ()

    def test_full_capacity_with_positive_effects(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            inst = random_instance(rng, n, positivity=True)
            allocation, value = brute_force_optimal(inst, n)
            assert allocation.treated == tuple(range(n))
            assert value == pytest.approx(
                exact_welfare(np.ones(n, dtype=int), inst), abs=1e-9
            )

    def test_beats_every_feasible_allocation(self, rng):
        from netalloc import feasible_allocations

        inst = random_instance(rng, 7, density=0.5)
        allocation, value = brute_force_optimal(inst, 2)
        for d in feasible_allocations(7, 2):
            assert value >= exact_welfare(d, inst) - 1e-9

    def test_relabeling_invariance(self, rng):
        # Permuting unit labels permutes the optimal treated set.
        inst = random_instance(rng, 6, density=0.5, positivity=True)
        perm = np.array([3, 0, 5, 1, 4, 2])
        net_p = Network.from_edges(6, np.argwhere(inst.net.adjacency[np.ix_(perm, perm)]))
        inst_p = make_instance(net_p, inst.x[perm], inst.theta, kernel=inst.kernel)
        a, v = brute_force_optimal(inst, 2)
        a_p, v_p = brute_force_optimal(inst_p, 2)
        assert v == pytest.approx(v_p, abs=1e-9)
        # The relabeled image of the original argmax must itself be optimal
        # (structural ties may resolve to a different member of the set).
        mapped = tuple(sorted(int(np.flatnonzero(perm == i)[0]) for i in a.treated))
        d = np.zeros(6, dtype=int)
        d[list(mapped)] = 1
        assert exact_welfare(d, inst_p) >= v_p - 1e-9

    @pytest.mark.parametrize("n, a_n, c, kappa, want", [
        (2, 0.1, 0.7, 1, (0,)),         # one linked pair
        (4, 0.3, 1.0, 1, (1,)),         # the middle pair of a path
        (3, 1.0, 1.0, 2, (0, 1)),       # an end and the middle of a path
    ])
    def test_rounding_ties_go_to_the_smallest_treated_set(self, n, a_n, c, kappa, want):
        # The welfare of mirror-image allocations of a path is equal in exact
        # arithmetic but not after rounding.
        net = Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        inst = make_instance(net, np.ones((n, 1)), ThetaParams.from_set(1, a_n=a_n),
                             kernel=SimilarityKernel.constant(c))
        allocation, value = brute_force_optimal(inst, kappa)
        assert allocation.treated == want
        assert value == pytest.approx(welfare_of_allocations(inst, np.flip(allocation.d)),
                                      abs=1e-10)

    def test_size_errors(self, rng):
        inst = random_instance(rng, 6)
        with pytest.raises(ExactSizeError):
            brute_force_optimal(inst, 2, max_units=4)

    @pytest.mark.parametrize("values, tie, want", [
        ([0.5, 0.9, 0.2, 0.7], 0.0, 1),          # one maximum
        ([0.5, 0.9, 0.2, 0.7], 0.1, 1),          # no other row within the tie
        ([0.9, 0.9, 0.2, 0.7], 0.0, 0),          # exact tie, smallest treated set
        ([0.5, 0.9, 0.2, 0.85], 0.1, 3),         # tied within the tolerance
        ([0.9, 0.9, 0.9, 0.9], 0.0, 3),          # every row tied
    ])
    def test_argmax_takes_the_smallest_tied_treated_set(self, values, tie, want):
        # Treated sets in row order {1, 3}, {2}, {0, 3}, {0, 1}: the tuple
        # order is (0, 1) < (0, 3) < (1, 3) < (2,).
        allocations = np.array([[0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]])
        values = np.array(values)
        tied = np.flatnonzero(values >= values.max() - tie)
        reference = min(tied, key=lambda i: tuple(np.flatnonzero(allocations[i])))
        got = ex._argmax_lexicographic(values, allocations, tie=tie)
        assert got == reference == want


class TestExactKL:
    def test_zero_for_independent_instance(self, rng):
        from scipy.special import expit

        net = Network.from_edges(5, [])
        inst = make_instance(net, rng.random((5, 1)), ThetaParams.from_set(1))
        d = rng.integers(0, 2, 5)
        w = weights(inst, d)
        dist = enumerate_gibbs(w)
        assert abs(exact_kl(expit(w.w1), dist)) <= 1e-10

    def test_nonnegative(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            inst = random_instance(rng, n)
            d = rng.integers(0, 2, n)
            dist = enumerate_gibbs(weights(inst, d))
            mu = rng.uniform(0.05, 0.95, n)
            assert exact_kl(mu, dist) >= -1e-10

    def test_matches_direct_kl(self, rng):
        # KL computed from the definition over all configurations.
        inst = random_instance(rng, 5, density=0.6)
        d = rng.integers(0, 2, 5)
        w = weights(inst, d)
        dist, probs = enumerate_gibbs(w), _dense_enumeration(w)[2]
        mu = rng.uniform(0.1, 0.9, 5)
        direct = 0.0
        for code, y in enumerate(itertools.product((0, 1), repeat=5)):
            # Configuration codes use bit i for unit i.
            idx = sum(b << i for i, b in enumerate(y))
            q = np.prod([mu[i] if y[i] else 1 - mu[i] for i in range(5)])
            direct += q * (math.log(q) - math.log(probs[idx]))
        assert exact_kl(mu, dist) == pytest.approx(direct, abs=1e-10)

    def test_domain_errors(self, rng):
        inst = random_instance(rng, 3)
        dist = enumerate_gibbs(weights(inst, np.zeros(3, dtype=int)))
        with pytest.raises(ValueError, match="strictly inside"):
            exact_kl(np.array([0.0, 0.5, 0.5]), dist)
        with pytest.raises(ValueError, match="length"):
            exact_kl(np.array([0.5, 0.5]), dist)

    def test_welfare_gap_within_pinsker(self, rng):
        from netalloc import solve_allocation

        for _ in range(10):
            n = int(rng.integers(3, 10))
            inst = random_instance(rng, n, density=0.5)
            d = rng.integers(0, 2, n)
            sol = solve_allocation(inst, d, seed=0)
            dist = enumerate_gibbs(weights(inst, d))
            kl = exact_kl(sol.mu, dist)
            gap = abs(dist.welfare - sol.welfare)
            assert gap <= math.sqrt(2.0 * max(kl, 0.0)) + 1e-9
