"""Coupling storage: CSR for sparse networks, dense otherwise.

Results must not depend on the storage. Each invariance test forces CSR on
an instance built dense, by seeding its cached ``coupling``, and compares
the two. Also covers the storage rule itself, ``m_bounds`` without the
dense similarity matrix, and the memory of a large sparse run.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import netalloc
from netalloc import model
from netalloc import (
    Network,
    SimilarityKernel,
    SolverSettings,
    ThetaParams,
    batch_fixed_point,
    bfva,
    brute_force_optimal,
    enumerate_gibbs,
    erdos_renyi,
    exact_kl,
    exact_welfare,
    fixed_point_solve,
    greedy,
    make_instance,
    mcmc_welfare,
    potential,
    solve_allocation,
    stationarity_check,
    utility,
    weights,
    welfare_of_allocations,
)
from netalloc.meanfield import instance_certified
from netalloc.model import SPARSE_DENSITY
from tests.conftest import _unscreened_greedy, protocol_instance

TOL = 1e-9
# Sampled versus mean-field welfare per person: acceptance criterion 3.
MCMC_TOL = 0.01
KERNELS = [
    SimilarityKernel.abs_diff(),
    SimilarityKernel.inverse_distance(),
    SimilarityKernel.constant(0.7),
]


def csr_twin(inst):
    """A copy of a dense-coupling instance whose coupling is stored as CSR."""
    assert isinstance(inst.coupling, np.ndarray)
    twin = replace(inst)
    csr = sparse.csr_array(inst.coupling)
    csr.eliminate_zeros()
    twin.__dict__["coupling"] = csr
    return twin


@pytest.fixture
def pair():
    inst = protocol_instance(30, density=0.3, seed=4)
    assert instance_certified(inst)
    return inst, csr_twin(inst)


def ring(n):
    return Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def dense_twin(inst):
    """A copy of a CSR-coupling instance whose coupling is stored dense."""
    assert sparse.issparse(inst.coupling)
    twin = replace(inst)
    twin.__dict__["coupling"] = inst.coupling.toarray()
    return twin


class TestStorageRule:
    def test_density_picks_the_format(self, rng):
        x = rng.integers(0, 2, size=(200, 1)).astype(float)
        theta = ThetaParams.from_set(1, a_n=0.1)
        sparse_net, dense_net = ring(200), erdos_renyi(200, 0.1, seed=1)
        assert sparse_net.edge_density <= SPARSE_DENSITY < dense_net.edge_density
        assert sparse.issparse(make_instance(sparse_net, x, theta).coupling)
        assert isinstance(make_instance(dense_net, x, theta).coupling, np.ndarray)

    def test_edge_density(self):
        assert ring(10).edge_density == pytest.approx(10 / 45)
        assert Network.from_edges(1, []).edge_density == 0.0
        assert Network.from_edges(2, [(0, 1)]).edge_density == 1.0

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("k", [1, 3])
    def test_csr_values_equal_dense_bit_for_bit(self, rng, kernel, k):
        n = 120
        net = ring(n)
        # Few covariate values, so absdiff has zero-similarity edges.
        x = rng.integers(0, 2, size=(n, k)).astype(float)
        inst = make_instance(net, x, ThetaParams.from_set(1), kernel=kernel)
        csr = inst.coupling
        assert sparse.issparse(csr) and csr.format == "csr"
        assert np.array_equal(csr.toarray(), inst.m * net.adjacency)
        assert (csr.data != 0).all()
        if kernel.kind == "absdiff":
            assert csr.nnz < 2 * net.edge_count


class TestMBounds:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 50])
    @pytest.mark.parametrize("rows", ["repeated", "distinct", "equal"])
    def test_equals_off_diagonal_extremes(self, rng, kernel, k, n, rows):
        if rows == "repeated":
            x = rng.integers(0, 3, size=(n, k)).astype(float)
            if n > 2:
                x[5] = x[7]  # a duplicate row: absdiff similarity 0
        elif rows == "distinct":
            x = rng.uniform(0, 5, size=(n, k))
        else:
            x = np.full((n, k), 1.5)
        inst = make_instance(Network.from_edges(n, []), x, ThetaParams.from_set(1),
                             kernel=kernel)
        assert "m" not in inst.__dict__
        got = inst.m_bounds
        assert "m" not in inst.__dict__  # computed without the dense matrix
        if n < 2:
            assert got == (0.0, 0.0)
        else:
            off = inst.m[~np.eye(n, dtype=bool)]
            assert got == (off.min(), off.max())

    def test_bounds_span_blocks(self, rng, monkeypatch):
        from netalloc import network

        monkeypatch.setattr(network, "_BOUNDS_BLOCK", 7)
        x = rng.uniform(size=(33, 2))
        inst = make_instance(Network.from_edges(33, []), x, ThetaParams.from_set(1),
                             kernel=SimilarityKernel.inverse_distance())
        off = inst.m[~np.eye(33, dtype=bool)]
        assert inst.m_bounds == (off.min(), off.max())


class TestInvariance:
    def test_weights(self, pair, rng):
        dense, csr = pair
        for _ in range(5):
            d = rng.integers(0, 2, size=dense.n)
            wd, ws = weights(dense, d), weights(csr, d)
            assert sparse.issparse(ws.w2)
            assert np.array_equal(ws.w2.toarray(), wd.w2)
            assert np.abs(ws.w1 - wd.w1).max() <= 1e-12

    @pytest.mark.parametrize("start", ["random", "init1d"])
    def test_batch_fixed_point(self, pair, rng, start):
        dense, csr = pair
        allocations = rng.integers(0, 2, size=(23, dense.n))
        kwargs = {"seed": 2} if start == "random" else {"init": rng.uniform(size=dense.n)}
        a = batch_fixed_point(dense, allocations, SolverSettings(), **kwargs)
        b = batch_fixed_point(csr, allocations, SolverSettings(), **kwargs)
        assert np.abs(a.welfare - b.welfare).max() <= TOL
        assert np.array_equal(a.converged, b.converged) and a.converged.all()
        assert a.iterations == b.iterations

    def test_fixed_point_solve(self, pair, rng):
        dense, csr = pair
        d = rng.integers(0, 2, size=dense.n)
        a = fixed_point_solve(weights(dense, d), SolverSettings(), seed=3)
        b = fixed_point_solve(weights(csr, d), SolverSettings(), seed=3)
        assert a.converged and b.converged
        assert np.abs(a.mu - b.mu).max() <= TOL
        assert abs(a.objective - b.objective) <= TOL

    def test_greedy(self, pair):
        dense, csr = pair
        for run in (greedy, _unscreened_greedy):
            a, trace_a = run(dense, 6, seed=1)
            b, trace_b = run(csr, 6, seed=1)
            assert a.treated == b.treated
            assert [s.unit for s in trace_a] == [s.unit for s in trace_b]
            assert all(abs(s.delta - t.delta) <= TOL for s, t in zip(trace_a, trace_b))

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("seed", range(4))
    def test_uncertified_greedy_is_the_warm_unscreened_loop(self, storage, seed):
        # Uncertified greedy solves every candidate from the incumbent's
        # marginals, one solve_allocation call each: the reference's warm
        # loop, to the bit.
        inst = protocol_instance(25, density=0.4, set_id=2, seed=seed)
        assert not instance_certified(inst)
        inst = inst if storage == "dense" else csr_twin(inst)
        _, trace = greedy(inst, 6, seed=seed)
        _, ref = _unscreened_greedy(inst, 6, seed=seed, warm=True)

        def key(steps):
            return [(s.unit, s.delta.hex(), s.nonconverged, s.screened) for s in steps]

        assert key(trace) == key(ref)

    def test_bfva(self):
        dense = protocol_instance(9, density=0.3, seed=2)
        csr = csr_twin(dense)
        a, va = bfva(dense, 3, seed=1)
        b, vb = bfva(csr, 3, seed=1)
        assert a.treated == b.treated and abs(va - vb) <= TOL

    def test_mcmc_welfare(self, pair, rng):
        dense, csr = pair
        d = rng.integers(0, 2, size=dense.n)
        a, _ = mcmc_welfare(d, dense, sweeps=3000, burn_in=500, seed=5)
        b, _ = mcmc_welfare(d, csr, sweeps=3000, burn_in=500, seed=5)
        assert abs(a - b) <= MCMC_TOL

    def test_utility_potential_choice_argument(self, pair, rng):
        dense, csr = pair
        for _ in range(5):
            d = rng.integers(0, 2, size=dense.n)
            y = rng.integers(0, 2, size=dense.n)
            i = int(rng.integers(dense.n))
            y[i] = 1
            assert utility(i, y, csr, d) == pytest.approx(utility(i, y, dense, d), abs=1e-12)
            assert potential(y, csr, d) == pytest.approx(potential(y, dense, d), abs=1e-12)
            w_csr, w_dense = weights(csr, d), weights(dense, d)
            assert w_csr.w1[i] + 2.0 * (w_csr.w2 @ y)[i] == pytest.approx(
                w_dense.w1[i] + 2.0 * (w_dense.w2 @ y)[i], abs=1e-12
            )

    def test_exact_oracle_result_keeps_the_storage(self, rng):
        # ``exact_kl`` evaluates the variational objective on the result's
        # w2, and the stationarity check reads the system's own w2: both
        # take either storage.
        dense = protocol_instance(10, density=0.3, seed=5)
        csr = csr_twin(dense)
        d = rng.integers(0, 2, size=10)
        a = enumerate_gibbs(weights(dense, d))
        b = enumerate_gibbs(weights(csr, d))
        assert isinstance(a.weights.w2, np.ndarray)
        assert isinstance(b.weights.w2, sparse.csr_array)
        assert abs(a.log_partition - b.log_partition) <= 1e-12
        assert np.abs(a.marginals - b.marginals).max() <= 1e-12
        mu = solve_allocation(dense, d, seed=0).mu
        assert abs(exact_kl(mu, a) - exact_kl(mu, b)) <= 1e-12
        assert abs(stationarity_check(dense, d) - stationarity_check(csr, d)) <= 1e-12
        allocations = rng.integers(0, 2, size=(6, 10))
        assert np.abs(welfare_of_allocations(dense, allocations)
                      - welfare_of_allocations(csr, allocations)).max() <= 1e-12


def test_exact_oracle_builds_no_square_array(rng, monkeypatch):
    # On CSR storage the oracle reads its coupled pairs through
    # ``model.nonzero_entries``: densifying the coupling or a w2 raises.
    csr = csr_twin(protocol_instance(12, density=0.3, seed=5))
    n = csr.n
    for name in ("toarray", "todense"):
        def guarded(self, *args, _original=getattr(sparse.csr_array, name), **kwargs):
            if self.shape == (n, n):
                raise AssertionError("an N x N array was built")
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(sparse.csr_array, name, guarded)
    d = rng.integers(0, 2, size=n)
    assert 0.0 < exact_welfare(d, csr) < n
    allocations = rng.integers(0, 2, size=(6, n))
    assert welfare_of_allocations(csr, allocations).shape == (6,)
    allocation, value = brute_force_optimal(csr, 2)
    assert len(allocation.treated) <= 2 and 0.0 < value < n
    dist = enumerate_gibbs(weights(csr, d))
    assert 0.0 < dist.welfare < n
    mu = solve_allocation(csr, d, seed=0).mu
    assert exact_kl(mu, dist) >= 0.0


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_rows_and_screen_extract_the_entries_once(storage, rng, monkeypatch):
    inst = protocol_instance(30, density=0.3, seed=4)
    if storage == "csr":
        inst = csr_twin(inst)
    calls = []
    real = model.nonzero_entries
    monkeypatch.setattr(model, "nonzero_entries", lambda a: calls.append(a) or real(a))
    w = weights(inst, rng.integers(0, 2, size=inst.n))
    assert len(w.row_lists[0]) == len(w.screen[0]) == inst.n
    assert len(calls) == 1 and calls[0] is w.w2


def test_large_ring_stays_below_one_dense_matrix():
    # One N x N float64 array at N = 3000 is 72 MB, and the int8 adjacency
    # is 9 MB. The network is built while tracing, and only as neighbour
    # lists.
    n = 3000
    x = np.random.default_rng(0).integers(0, 3, size=(n, 2)).astype(float)
    theta = ThetaParams.from_set(1, a_n=0.2)
    d = np.zeros(n, dtype=np.int8)
    d[::7] = 1
    tracemalloc.start()
    try:
        net = ring(n)
        inst = make_instance(net, x, theta, kernel=SimilarityKernel.inverse_distance())
        assert instance_certified(inst)
        w = weights(inst, d)
        sol = fixed_point_solve(w, seed=0)
        mcmc_welfare(d, inst, sweeps=4, burn_in=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert sparse.issparse(inst.coupling) and "m" not in inst.__dict__
    assert "adjacency" not in net.__dict__
    assert peak < 72e6 / 8


def test_ring_of_50000_units_stays_small():
    # At N = 50,000 the int8 adjacency alone would take 2.5 GB and one
    # N x N float64 array 20 GB.
    n = 50_000
    x = np.random.default_rng(0).integers(0, 3, size=(n, 2)).astype(float)
    theta = ThetaParams.from_set(1, a_n=0.2)
    d = np.zeros(n, dtype=np.int8)
    d[::7] = 1
    tracemalloc.start()
    try:
        net = ring(n)
        inst = make_instance(net, x, theta, kernel=SimilarityKernel.inverse_distance())
        assert instance_certified(inst)
        w = weights(inst, d)
        mcmc_welfare(d, inst, sweeps=2, burn_in=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sparse.issparse(w.w2) and w.w2.nnz == 2 * n
    assert "adjacency" not in net.__dict__ and "m" not in inst.__dict__
    assert peak < 64e6


def test_coupling_leaves_the_network_intact(rng):
    # The CSR coupling drops zero-similarity edges in place; the network's
    # own lists must keep them.
    n = 60
    net = ring(n)
    indptr, indices = net.indptr.copy(), net.indices.copy()
    x = rng.integers(0, 2, size=(n, 1)).astype(float)
    inst = make_instance(net, x, ThetaParams.from_set(1), kernel=SimilarityKernel.abs_diff())
    assert inst.coupling.nnz < net.indices.size
    assert np.array_equal(net.indptr, indptr) and np.array_equal(net.indices, indices)


def test_csr_weights_store_only_nonzero_entries(rng):
    # With theta5 = 0 only pairs of treated units carry weight. Zeros are
    # dropped from w2's own copies of the index arrays, never the coupling's.
    inst = protocol_instance(30, density=0.3, seed=4)
    inst = replace(inst, theta=replace(inst.theta, theta5=0.0))
    csr = csr_twin(inst)
    coupling = csr.coupling.copy()
    d = rng.integers(0, 2, size=inst.n)
    ws, wd = weights(csr, d), weights(inst, d)
    assert 0 < ws.w2.nnz == np.count_nonzero(wd.w2) < coupling.nnz
    assert np.array_equal(ws.w2.toarray(), wd.w2)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(csr.coupling, name), getattr(coupling, name))


@pytest.mark.parametrize("case", ["ring_theta5_zero", "edgeless"])
def test_rows_of_a_w2_without_entries_are_empty_lists(case):
    # A CSR w2 that stores no entries gives sparse 0-length slices of its
    # values; the rows must still be plain empty lists.
    n = 60
    x = np.random.default_rng(0).integers(0, 3, size=(n, 2)).astype(float)
    theta = ThetaParams.from_set(1, a_n=0.2)
    if case == "edgeless":
        net = Network.from_edges(n, [])
    else:
        net, theta = ring(n), replace(theta, theta5=0.0)
    inst = make_instance(net, x, theta)
    d = np.zeros(n, dtype=np.int8)
    w = weights(inst, d)
    assert sparse.issparse(w.w2) and w.w2.nnz == 0
    cols, vals = w.row_lists
    assert len(cols) == len(vals) == n
    assert all(type(c) is list and c == [] for c in cols + vals)
    twin = dense_twin(inst)
    assert mcmc_welfare(d, inst, sweeps=60, burn_in=10, seed=3) == mcmc_welfare(
        d, twin, sweeps=60, burn_in=10, seed=3)
    a = fixed_point_solve(w, SolverSettings(), seed=3)
    b = fixed_point_solve(weights(twin, d), SolverSettings(), seed=3)
    assert a.mu.tobytes() == b.mu.tobytes() and a.objective == b.objective
    assert a.converged and b.converged


def test_dense_runs_never_import_scipy_sparse():
    # A dense coupling is told from a CSR one by isinstance(a, np.ndarray),
    # so dense runs need not load scipy.sparse.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from netalloc import ThetaParams, approx_welfare, greedy, mcmc_welfare\n"
        "from netalloc.experiments import simulation_instance\n"
        "inst = simulation_instance(40, 0.3, ThetaParams.from_set(1, a_n=1 / 40), seed=0)\n"
        "alloc, _ = greedy(inst, 4, seed=0)\n"
        "approx_welfare(alloc.d, inst, seed=0)\n"
        "mcmc_welfare(alloc.d, inst, sweeps=50, burn_in=10, seed=0)\n"
        "assert isinstance(inst.coupling, np.ndarray)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    root = str(Path(netalloc.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": root}, check=True)
    assert result.stdout.strip() == "[]"


def test_large_ring_greedy_stays_below_one_dense_matrix():
    # Solving all 3000 candidates of a round at once would take seven
    # (3000, 3000) float blocks; the screen leaves a handful of columns.
    n = 3000
    net = ring(n)
    x = np.random.default_rng(0).integers(0, 3, size=(n, 2)).astype(float)
    theta = ThetaParams.from_set(1, a_n=0.2)
    tracemalloc.start()
    try:
        inst = make_instance(net, x, theta, kernel=SimilarityKernel.inverse_distance())
        assert instance_certified(inst)
        allocation, trace = greedy(inst, 2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(allocation.treated) == 2
    assert all(step.nonconverged == () for step in trace)
    assert sparse.issparse(inst.coupling) and "m" not in inst.__dict__
    assert peak < 72e6 / 8


def test_uncertified_near_ties_agree_across_storage_to_the_solver_tolerance():
    # The chromatic sweep multiplies dense class rows on dense storage and
    # CSR rows on CSR storage, so the twins' per-allocation solves round
    # differently and may stop a sweep apart: they agree within N foc_tol,
    # not bit for bit. Replication 0 of the welfare table's (set 2, density
    # 0.4, N = 8) cell is uncertified and its leading bfva allocations lie
    # within 2e-8 of each other, so the twins may pick different members
    # (dense {4, 7}, CSR {2, 7} when this test was written).
    from netalloc import experiments
    from netalloc.model import derive_seed, feasible_allocations
    from netalloc.meanfield import solve_allocation

    cfg = experiments.ExperimentConfig(seed=11)
    n, kappa = 8, 2
    key = (cfg.seed, *experiments._cell_key(2, 0.4, n), 0)
    inst = experiments.simulation_instance(n, 0.4, cfg.resolved_theta(2, n, generated=True),
                                           derive_seed(*key, 0), cfg.similarity_kernel)
    twin = csr_twin(inst)
    assert not instance_certified(inst)
    seed, tol = derive_seed(*key, 2), n * cfg.solver.foc_tol
    allocations = feasible_allocations(n, kappa)
    values = [np.array([solve_allocation(i, a, cfg.solver, seed=derive_seed(seed, k)).welfare
                        for k, a in enumerate(allocations)]) for i in (inst, twin)]
    assert np.abs(values[0] - values[1]).max() <= tol
    leaders = np.flatnonzero(values[0] >= values[0].max() - tol)
    assert len(leaders) >= 4
    for i, v in zip((inst, twin), values):
        pick, welfare = bfva(i, kappa, cfg.solver, seed=seed)
        k = next(k for k, a in enumerate(allocations) if np.array_equal(a, pick.d))
        assert welfare == v[k] == v.max() and k in leaders
