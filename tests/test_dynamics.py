"""Simulation chain: kernel correctness, stationarity, welfare estimates."""

import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from netalloc import (
    Network,
    ThetaParams,
    enumerate_gibbs,
    make_instance,
    mcmc_welfare,
    stationarity_check,
    utility,
    weights,
)
from netalloc import dynamics
from netalloc.dynamics import (
    MCMC_BATCHES,
    STATIONARITY_MAX_UNITS,
    _chain,
    _one_step_image,
    _redraw,
)
from netalloc.exact import ExactSizeError
from netalloc.model import SCREEN_MARGIN, sigmoid, to_dense
from tests.conftest import all_steps_redraw, protocol_instance, random_instance
from tests.test_exact import _dense_enumeration
from tests.test_storage import csr_twin


def _step(y, w, rng):
    """One step of the process: redraw one uniformly chosen unit of y."""
    _redraw(y, w, rng.integers(0, w.n, size=1).tolist(), rng.random(1).tolist(), 1)


def _reference_redraw(y, w, sites, draws):
    """``_redraw`` as one dot product per step: each step reads unit i's
    logit argument w1[i] + vals[i] @ y[cols[i]] from the current y, over
    array rows built here from the dense w2, not from the table it checks."""
    w2 = to_dense(w.w2)
    cols = [np.flatnonzero(row) for row in w2]
    vals = [2.0 * row[c] for row, c in zip(w2, cols)]
    for i, u in zip(sites, draws):
        y[i] = u < sigmoid(w.w1[i] + float(vals[i] @ y[cols[i]]))


def _paired_chains(w, y, calls, rng, draw=None):
    """Run ``_redraw`` and ``_reference_redraw`` from y on the same sites and
    draws, one sweep of w.n steps per call; return both final states, the
    number of flips the chain made and the number of steps that read a logit
    argument. ``draw`` maps (sites, rng) to the draws; by default they are
    uniform."""
    y_ref, flips, reads = y.copy(), 0, 0
    for _ in range(calls):
        sites = rng.integers(0, w.n, size=w.n).tolist()
        draws = rng.random(w.n).tolist() if draw is None else draw(sites, rng)
        before = y.copy()
        ones, read, _ = _redraw(y, w, sites, draws, w.n)
        _reference_redraw(y_ref, w, sites, draws)
        assert ones == [int(y.sum())]
        lo, hi = w.screen
        assert read == sum(lo[i] <= u < hi[i] for i, u in zip(sites, draws))
        flips += int((before != y).sum())
        reads += read
    return y, y_ref, flips, reads


def _reference_mcmc(d, inst, sweeps, burn_in, seed, steps_per_sweep=None):
    """``mcmc_welfare`` sweep by sweep: the same random stream, each sweep
    redrawn by ``_reference_redraw`` and its mean recorded."""
    w = weights(inst, d)
    per_sweep = w.n if steps_per_sweep is None else steps_per_sweep
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=w.n).astype(float)
    kept = []
    for sweep in range(sweeps):
        sites = rng.integers(0, w.n, size=per_sweep).tolist()
        _reference_redraw(y, w, sites, rng.random(per_sweep).tolist())
        if sweep >= burn_in:
            kept.append(y.mean())
    kept = np.array(kept)
    n_batches = min(MCMC_BATCHES, kept.size)
    batch_means = kept[: kept.size - kept.size % n_batches].reshape(n_batches, -1).mean(axis=1)
    stderr = batch_means.std(ddof=1) / np.sqrt(n_batches) if n_batches > 1 else 0.0
    return float(kept.mean()), float(stderr)


def _reference_kernel(instance, d):
    """Full 2^N x 2^N transition matrix of the single-site chain, assembled
    entry by entry; row c is the configuration with y_i = (c >> i) & 1."""
    n = instance.n
    w = weights(instance, d)
    codes = np.arange(1 << n)
    y = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
    p1 = expit(w.w1 + 2.0 * (y @ to_dense(w.w2)))
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
        n_steps = 20000
        # The draws of 20,000 calls of _step, run as one call of one-step sweeps.
        sites, draws = zip(*[(chain_rng.integers(0, 1, size=1), chain_rng.random(1))
                             for _ in range(n_steps)])
        ones, _, _ = _redraw(y, w, np.concatenate(sites), np.concatenate(draws), 1)
        hits = int(ones.sum())
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
        step_rng = np.random.default_rng(7)
        sites = step_rng.integers(0, 2, size=trials)
        draws = step_rng.random(trials)
        # One call per unit runs that unit's trials as one-step sweeps: the
        # other unit keeps its start value, and a unit's own value does not
        # enter its conditional, so every step redraws it from the start.
        for i in (0, 1):
            y = start.copy()
            ones, _, _ = _redraw(y, w, sites[sites == i], draws[sites == i], 1)
            for redrawn in (ones - start[1 - i]).tolist():
                y[i] = redrawn
                key = tuple(y)
                counts[key] = counts.get(key, 0) + 1
        # Each unit is picked with probability 1/2 and redrawn given the other.
        # P(y_i = 1 | y_-i) = logistic(U_i(1, y_-i)) at the start state.
        p0 = expit(utility(0, [1, start[1]], inst, d))
        p1 = expit(utility(1, [start[0], 1], inst, d))
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
        y1 = y.copy()
        y1[i] = 1
        p = expit(utility(i, y1, inst, d))
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

    def test_size_cap_refuses_as_every_exact_computation(self, rng):
        n = STATIONARITY_MAX_UNITS + 1
        with pytest.raises(ExactSizeError):
            stationarity_check(random_instance(rng, n), np.zeros(n, dtype=int))


class TestStationarity:
    def test_single_unit(self):
        net = Network.from_edges(1, [])
        inst = make_instance(net, np.array([[1.0]]), ThetaParams.from_set(1))
        assert stationarity_check(inst, np.zeros(1, dtype=int)) <= 1e-15

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
                w = weights(inst, d)
                e = y @ w.w1 + 0.5 * ((y @ to_dense(w.w2)) * y).sum(axis=1)
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
        # Per-site occupation frequencies over a million steps, the state
        # recorded every 50 steps, sit within 0.02 of the enumerated
        # stationary marginals.
        inst = protocol_instance(5, seed=29)
        d = np.array([0, 1, 0, 0, 1])
        w = weights(inst, d)
        chain_rng = np.random.default_rng(13)
        y = chain_rng.integers(0, 2, size=5).astype(np.int8)
        total_steps, burn, every = 1_000_000, 50_000, 50
        sites = chain_rng.integers(0, 5, size=total_steps)
        draws = chain_rng.random(total_steps)
        counts = np.zeros(5)
        for t in range(0, total_steps, every):
            _redraw(y, w, sites[t:t + every], draws[t:t + every], every)
            if t >= burn:
                counts += y
        empirical = counts / ((total_steps - burn) // every)
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
        with pytest.raises(ValueError, match=r"sweeps > burn_in >= 0, got sweeps=20, burn_in=-5"):
            mcmc_welfare(np.zeros(5, dtype=int), inst, sweeps=20, burn_in=-5, seed=0)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_rejects_steps_per_sweep_below_one(self, steps):
        # Zero steps left the chain at its random start and reported a
        # standard error of ~1e-17; a negative count failed inside numpy.
        inst = protocol_instance(5, seed=1)
        with pytest.raises(ValueError, match="steps_per_sweep must be at least 1"):
            mcmc_welfare(np.zeros(5, dtype=int), inst, sweeps=20, burn_in=5, seed=0,
                         steps_per_sweep=steps)

    @pytest.mark.parametrize("name,value", [
        ("sweeps", 100.5), ("sweeps", True), ("burn_in", 5.0), ("burn_in", False),
        ("steps_per_sweep", 2.7), ("steps_per_sweep", True), ("steps_per_sweep", "3"),
    ])
    def test_rejects_non_integer_counts(self, name, value):
        # steps_per_sweep=2.7 used to run as 2 and True as 1; a fractional
        # sweeps or burn_in failed inside numpy with a TypeError.
        inst = protocol_instance(5, seed=1)
        args = dict(sweeps=20, burn_in=5, steps_per_sweep=None) | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            mcmc_welfare(np.zeros(5, dtype=int), inst, seed=0, **args)

    # Each chain here is one block of BLOCK_STEPS steps or more;
    # test_block_length_leaves_the_chain_alone moves the block ends.
    @pytest.mark.parametrize("sweeps,burn_in,steps_per_sweep", [
        (45, 11, None),
        (300, 100, 1),
        (77, 40, 3),
        (9, 8, None),  # one sweep kept
    ])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_equals_sweep_by_sweep_reference(self, rng, sweeps, burn_in, steps_per_sweep,
                                             storage):
        inst = protocol_instance(12, density=0.5, seed=3, a_n=0.5)
        if storage == "csr":
            inst = csr_twin(inst)
        d = rng.integers(0, 2, size=12)
        got = mcmc_welfare(d, inst, sweeps=sweeps, burn_in=burn_in, seed=21,
                           steps_per_sweep=steps_per_sweep)
        want = _reference_mcmc(d, inst, sweeps, burn_in, 21, steps_per_sweep)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    # (estimate, stderr) in hex of strongly coupled chains, frozen from the
    # sampler that kept the logit arguments of 23 and 45 of their units up to
    # date across neighbour flips: summing every read step's row gives the
    # same bits.
    @pytest.mark.parametrize("n,density,set_id,seed,a_n,storage,sweeps,burn_in,want", [
        pytest.param(30, 0.5, 1, 3, 1.0, "dense", 2000, 500,
                     ("0x1.fa5e353f7ced9p-1", "0x1.74a33326224a9p-11"), id="strong-dense"),
        pytest.param(30, 0.5, 1, 3, 1.0, "csr", 2000, 500,
                     ("0x1.fa5e353f7ced9p-1", "0x1.74a33326224a9p-11"), id="strong-csr"),
        pytest.param(100, 0.6, 2, 0, None, "dense", 1000, 200,
                     ("0x1.28ebedfa43fe6p-2", "0x1.bc9030fc850bep-9"), id="set2-100-0.6"),
    ])
    def test_pinned_chains(self, n, density, set_id, seed, a_n, storage, sweeps, burn_in,
                           want):
        inst = protocol_instance(n, density=density, set_id=set_id, seed=seed, a_n=a_n)
        if storage == "csr":
            inst = csr_twin(inst)
        d = (np.arange(n) % 10 < 3).astype(int)  # 30% treated
        got = mcmc_welfare(d, inst, sweeps=sweeps, burn_in=burn_in, seed=7)
        assert tuple(v.hex() for v in got) == want

    def test_debug_record(self, caplog):
        inst = protocol_instance(20, density=0.5, seed=3, a_n=0.5)
        d = np.zeros(20, dtype=int)
        with caplog.at_level(logging.DEBUG, logger="netalloc.dynamics"):
            mcmc_welfare(d, inst, sweeps=30, burn_in=10, seed=2, steps_per_sweep=7)
        (record,) = caplog.records
        assert record.steps == 30 * 7 and not hasattr(record, "kept_field_units")
        assert 0.0 < record.screened_share < 1.0 and record.steps_per_s > 0
        # Every read step is visited; screened steps that repeat a unit's
        # value are not.
        assert 1.0 - record.screened_share <= record.visited_share < 1.0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="netalloc.dynamics"):
            mcmc_welfare(d, inst, sweeps=30, burn_in=10, seed=2)
        assert not caplog.records


ROW_CASES = [(30, 0.3, 4), (25, 0.6, 1), (12, 0.1, 7)]
# (n, density, seed, a_n, flips per unit at least). Under a_n = 1 the
# screen leaves wide intervals, and the chain soon settles near all ones.
CHAIN_CASES = [
    pytest.param(n, density, seed, None, 20, id=f"{n}-{density}-{seed}")
    for n, density, seed in ROW_CASES
] + [
    pytest.param(30, 0.5, 3, 1.0, 1, id="strong-30-0.5-3"),
    pytest.param(60, 0.3, 5, 0.3, 20, id="mixed-60-0.3-5"),
]


class TestFlipOnlyRedraw:
    """``_redraw`` screens each step by its draw and sums the logit argument
    from the unit's row where a step needs it; the per-site dot product is
    its reference."""

    @pytest.mark.parametrize("n,density,seed,a_n,min_flips", CHAIN_CASES)
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("dtype", [float, np.int8])
    def test_chain_equals_per_site_reference(self, rng, n, density, seed, a_n, min_flips,
                                             storage, dtype):
        inst = protocol_instance(n, density=density, seed=seed, a_n=a_n)
        if storage == "csr":
            inst = csr_twin(inst)
        w = weights(inst, rng.integers(0, 2, size=n))
        y0 = rng.integers(0, 2, size=n).astype(dtype)
        y, y_ref, flips, reads = _paired_chains(w, y0, 200, np.random.default_rng(seed))
        assert y.dtype == dtype
        assert np.array_equal(y, y_ref)
        assert flips > min_flips * n and reads > 0

    def test_csr_w2_without_entries(self, rng):
        # theta5 = 0 and no treatment: every w2 entry is zero, so a CSR w2
        # stores none and every row is empty.
        inst = protocol_instance(30, density=0.3, seed=4)
        inst = csr_twin(replace(inst, theta=replace(inst.theta, theta5=0.0)))
        w = weights(inst, np.zeros(30, dtype=int))
        assert sparse.issparse(w.w2) and w.w2.nnz == 0
        assert all(not c for c in w.row_lists[0])
        y, y_ref, flips, _ = _paired_chains(w, rng.integers(0, 2, size=30).astype(float),
                                            100, np.random.default_rng(1))
        assert np.array_equal(y, y_ref) and flips > 0

    def test_row_lists_belong_to_their_weight_system(self):
        # Each weight system is dropped before the next is built, so CPython
        # hands its id to a later one: rows cached by id(w) would be stale.
        inst = protocol_instance(30, density=0.3, seed=4, a_n=0.2)
        rng = np.random.default_rng(5)
        ids = set()
        for _ in range(12):
            w = weights(inst, rng.integers(0, 2, size=30))
            ids.add(id(w))
            y, y_ref, _, _ = _paired_chains(w, rng.integers(0, 2, size=30).astype(float),
                                            50, rng)
            assert np.array_equal(y, y_ref)
            del w
        assert len(ids) < 12


def _edge_draws(w, sites, draw_rng):
    """A draw per site on p_lo or p_hi of its unit, or up to 3 ULP to either
    side of it."""
    lo, hi = w.screen
    edge = np.where(draw_rng.random(len(sites)) < 0.5, np.take(lo, sites), np.take(hi, sites))
    for _ in range(3):
        shift = draw_rng.integers(-1, 2, size=len(sites))
        edge = np.where(shift < 0, np.nextafter(edge, -np.inf),
                        np.where(shift > 0, np.nextafter(edge, np.inf), edge))
    return edge


SCREEN_CASES = [
    pytest.param(30, 0.3, 4, None, id="weak"),
    pytest.param(30, 0.5, 3, 1.0, id="strong"),
    pytest.param(60, 0.3, 5, 0.3, id="mixed"),
]


class TestScreen:
    @pytest.mark.parametrize("n,density,seed,a_n", SCREEN_CASES)
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_draws_on_the_interval_edges(self, rng, n, density, seed, a_n, storage):
        # Every draw sits on p_lo or p_hi of its unit, or up to 3 ULP to
        # either side: a step exactly on p_lo reads the argument, one exactly
        # on p_hi sets the unit to 0.
        inst = protocol_instance(n, density=density, seed=seed, a_n=a_n)
        if storage == "csr":
            inst = csr_twin(inst)
        w = weights(inst, rng.integers(0, 2, size=n))
        y, y_ref, flips, reads = _paired_chains(
            w, rng.integers(0, 2, size=n).astype(float), 100, np.random.default_rng(seed),
            lambda sites, draw_rng: _edge_draws(w, sites, draw_rng).tolist())
        assert np.array_equal(y, y_ref) and flips > 0 and reads > 0

    @pytest.mark.parametrize("density,seed,a_n", [(0.3, 4, None), (0.5, 3, 1.0), (0.5, 5, 0.3)])
    def test_interval_is_the_range_over_every_state(self, rng, density, seed, a_n):
        # On 10 units every state is listed: each unit's choice probability
        # stays inside [p_lo, p_hi), and both ends are reached to within the
        # margin.
        inst = protocol_instance(10, density=density, seed=seed, a_n=a_n)
        w = weights(inst, rng.integers(0, 2, size=10))
        y = ((np.arange(1 << 10)[:, None] >> np.arange(10)) & 1).astype(float)
        p = expit(w.w1 + 2.0 * (y @ to_dense(w.w2)))
        lo, hi = w.screen
        assert (lo <= p.min(axis=0)).all() and (p.max(axis=0) < hi).all()
        np.testing.assert_allclose(p.min(axis=0) - lo, SCREEN_MARGIN, rtol=0, atol=1e-15)
        np.testing.assert_allclose(hi - p.max(axis=0), SCREEN_MARGIN, rtol=0, atol=1e-15)


class TestVisitedSteps:
    """``_redraw`` runs only the steps that can change the state; the loop
    over every step, ``tests.conftest.all_steps_redraw``, is its reference
    to the bit: counts of ones, read steps and final state."""

    @staticmethod
    def _check(w, y, sites, draws, per_sweep):
        """Run both loops from y on the same steps; return the visited count."""
        y_ref = y.copy()
        ones, read, visited = _redraw(y, w, sites, draws, per_sweep)
        ones_ref, read_ref = all_steps_redraw(y_ref, w, sites.tolist(), draws.tolist(),
                                              per_sweep)
        assert ones.tolist() == ones_ref and read == read_ref
        assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
        assert read <= visited <= len(sites) // per_sweep * per_sweep
        return visited

    # 2,000 steps: whole sweeps of 1, but not of 7 or N (the last 5 or 20
    # steps are not run by either loop).
    @pytest.mark.parametrize("n,density,seed,a_n", SCREEN_CASES)
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("dtype", [float, np.int8])
    @pytest.mark.parametrize("per_sweep", [None, 7, 1])
    @pytest.mark.parametrize("on_edges", [False, True], ids=["uniform", "edges"])
    def test_equals_all_steps_loop(self, rng, n, density, seed, a_n, storage, dtype,
                                   per_sweep, on_edges):
        inst = protocol_instance(n, density=density, seed=seed, a_n=a_n)
        if storage == "csr":
            inst = csr_twin(inst)
        w = weights(inst, rng.integers(0, 2, size=n))
        draw_rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n).astype(dtype)
        for _ in range(3):
            sites = draw_rng.integers(0, n, size=2000)
            draws = _edge_draws(w, sites, draw_rng) if on_edges else draw_rng.random(2000)
            visited = self._check(w, y, sites, draws, per_sweep or n)
            assert visited < 2000

    @pytest.mark.parametrize("n,density,seed,a_n", SCREEN_CASES)
    def test_one_step_blocks(self, rng, n, density, seed, a_n):
        inst = protocol_instance(n, density=density, seed=seed, a_n=a_n)
        w = weights(inst, rng.integers(0, 2, size=n))
        y = rng.integers(0, 2, size=n).astype(float)
        draw_rng = np.random.default_rng(seed)
        visited = sum(self._check(w, y, draw_rng.integers(0, n, size=1), draw_rng.random(1), 1)
                      for _ in range(300))
        assert 0 < visited <= 300

    def test_fewer_steps_than_a_sweep(self, rng):
        inst = protocol_instance(30, density=0.5, seed=3, a_n=1.0)
        w = weights(inst, rng.integers(0, 2, size=30))
        y = rng.integers(0, 2, size=30).astype(float)
        assert self._check(w, y, np.arange(5), np.zeros(5), 7) == 0

    @pytest.mark.parametrize("steps_per_sweep", [None, 3])
    def test_block_length_leaves_the_chain_alone(self, rng, monkeypatch, steps_per_sweep):
        # No value but the state outlives a block, so the chain is the same
        # for blocks of 8 sweeps (the floor that BLOCK_STEPS = 1 leaves), the
        # default length and one block for the whole chain; and it is the
        # sweep-by-sweep reference's. The weak chain reads the logit argument
        # at about 3% of its steps, the a_n = 1 chain at about half.
        sweeps, burn_in = 200, 50
        steps = sweeps * (steps_per_sweep or 30)
        default = dynamics.BLOCK_STEPS
        for a_n, density, seed in ((None, 0.3, 4), (1.0, 0.5, 3)):
            inst = protocol_instance(30, density=density, seed=seed, a_n=a_n)
            d = rng.integers(0, 2, size=30)
            got = set()
            for block in (1, default, steps):
                monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
                got.add(tuple(v.hex() for v in mcmc_welfare(
                    d, inst, sweeps=sweeps, burn_in=burn_in, seed=8,
                    steps_per_sweep=steps_per_sweep)))
            want = _reference_mcmc(d, inst, sweeps, burn_in, 8, steps_per_sweep)
            assert got == {tuple(v.hex() for v in want)}


class TestRows:
    @pytest.mark.parametrize("n,density,seed", ROW_CASES)
    def test_dense_rows_equal_csr_rows_bit_for_bit(self, rng, n, density, seed):
        inst = protocol_instance(n, density=density, seed=seed)
        d = rng.integers(0, 2, size=n)
        dense, csr = weights(inst, d), weights(csr_twin(inst), d)
        assert isinstance(dense.w2, np.ndarray) and sparse.issparse(csr.w2)
        (cols_d, vals_d), (cols_s, vals_s) = dense.row_lists, csr.row_lists
        assert len(cols_d) == len(vals_d) == len(cols_s) == len(vals_s) == n
        assert cols_d == cols_s
        for a, b in zip(vals_d, vals_s):
            assert all(type(v) is float for v in a + b)
            assert np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()

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
            w2 = to_dense(w.w2)
            cols, vals = w.row_lists
            for i in range(n):
                want = np.flatnonzero(w2[i])
                assert cols[i] == want.tolist() and all(type(j) is int for j in cols[i])
                assert np.array(vals[i], dtype=float).tobytes() == (2.0 * w2[i, want]).tobytes()
            assert sum(map(len, cols)) < inst.net.indices.size
