"""Utilities, the potential function, and the weight system."""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from netalloc import (
    Allocation,
    Instance,
    Network,
    SimilarityKernel,
    ThetaParams,
    WeightSystem,
    approx_welfare,
    bounds_report,
    erdos_renyi,
    exact_welfare,
    feasible_allocations,
    greedy,
    make_instance,
    mcmc_welfare,
    potential,
    utility,
    weights,
)
from netalloc import model
from netalloc.model import allocation_vector, derive_seed, nonzero_entries, sigmoid, to_dense
from tests.conftest import protocol_instance, random_instance
from tests.test_storage import csr_twin

SET1 = ThetaParams.from_set(1)


def reference_utility(i, y, inst, d):
    """Independent transcription of the payoff formula, written directly
    from its definition with explicit loops."""
    th = inst.theta
    n = inst.n
    linear = (
        th.theta0
        + th.theta1 * d[i]
        + float(inst.x[i] @ np.atleast_1d(th.theta2))
        + float(inst.x[i] @ np.atleast_1d(th.theta3)) * d[i]
    )
    for j in range(n):
        if inst.net.adjacency[i, j]:
            linear += th.a_n * th.theta4 * inst.m[i, j] * d[j]
    total = linear * y[i]
    for j in range(n):
        if inst.net.adjacency[i, j]:
            total += (
                th.a_n
                * inst.m[i, j]
                * (th.theta5 + th.theta6 * d[i] * d[j])
                * y[i]
                * y[j]
            )
    return total


class TestUtility:
    def test_zero_choice_gives_zero(self, rng):
        inst = random_instance(rng, 6)
        y = rng.integers(0, 2, 6)
        d = rng.integers(0, 2, 6)
        for i in range(6):
            y_i0 = y.copy()
            y_i0[i] = 0
            assert utility(i, y_i0, inst, d) == 0.0

    def test_isolated_untreated_unit(self):
        net = Network.from_edges(1, [])
        x = np.array([[2.0]])
        inst = make_instance(net, x, SET1, kernel=SimilarityKernel.abs_diff())
        got = utility(0, [1], inst, [0])
        assert got == pytest.approx(SET1.theta0 + SET1.theta2 * 2.0, abs=1e-14)

    def test_treated_pair_all_components(self):
        # Connected pair, both treated, both choosing 1, unit similarity:
        # every payoff component switches on exactly once.
        net = Network.from_edges(2, [(0, 1)])
        x = np.array([[1.0], [1.0]])
        theta = ThetaParams.from_set(1, a_n=1.0)
        inst = make_instance(net, x, theta, kernel=SimilarityKernel.constant(1.0))
        got = utility(0, [1, 1], inst, [1, 1])
        expected = (
            theta.theta0
            + theta.theta1
            + 1.0 * (theta.theta2 + theta.theta3)
            + theta.theta4
            + theta.theta5
            + theta.theta6
        )
        assert expected == pytest.approx(1.6)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_matches_reference_formula(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            inst = random_instance(rng, n, a_n=0.7)
            y = rng.integers(0, 2, n)
            d = rng.integers(0, 2, n)
            i = int(rng.integers(n))
            assert utility(i, y, inst, d) == pytest.approx(
                reference_utility(i, y, inst, d), abs=1e-12
            )


class TestPotential:
    def test_all_zero_configuration(self, rng):
        inst = random_instance(rng, 5)
        assert potential(np.zeros(5), inst, np.zeros(5, dtype=int)) == 0.0

    def test_single_unit(self):
        net = Network.from_edges(1, [])
        inst = make_instance(net, np.array([[3.0]]), SET1)
        assert potential([1], inst, [0]) == pytest.approx(
            SET1.theta0 + 3.0 * SET1.theta2, abs=1e-14
        )

    def test_unilateral_difference_equals_utility_difference(self, rng):
        # The defining property of the potential, checked at tight tolerance.
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            inst = random_instance(rng, n, a_n=float(rng.uniform(0.1, 1.0)))
            y = rng.integers(0, 2, n)
            d = rng.integers(0, 2, n)
            i = int(rng.integers(n))
            y1, y0 = y.copy(), y.copy()
            y1[i], y0[i] = 1, 0
            dphi = potential(y1, inst, d) - potential(y0, inst, d)
            du = utility(i, y1, inst, d) - utility(i, y0, inst, d)
            assert dphi == pytest.approx(du, abs=1e-12)

    def test_relabeling_symmetric_units_preserves_potential(self, rng):
        # Units 0 and 1: same covariates, treatment, and neighborhoods.
        net = Network.from_edges(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        x = np.array([[1.0], [1.0], [0.0], [1.0]])
        inst = make_instance(net, x, SET1)
        d = np.array([1, 1, 0, 1])
        for _ in range(20):
            y = rng.integers(0, 2, 4)
            y_swapped = y.copy()
            y_swapped[[0, 1]] = y[[1, 0]]
            assert potential(y, inst, d) == pytest.approx(
                potential(y_swapped, inst, d), abs=1e-12
            )


class TestWeights:
    def test_no_edges(self, rng):
        net = Network.from_edges(3, [])
        x = rng.random((3, 1))
        inst = make_instance(net, x, SET1)
        d = np.array([1, 0, 1])
        w = weights(inst, d)
        # No edges: the coupling, hence w2, is CSR with nothing stored.
        assert w.w2.nnz == 0
        assert np.all(to_dense(w.w2) == 0.0)
        expected = SET1.theta0 + SET1.theta1 * d + x[:, 0] * (SET1.theta2 + SET1.theta3 * d)
        np.testing.assert_allclose(w.w1, expected, atol=1e-14)

    def test_untreated_edge_weight(self):
        net = Network.from_edges(2, [(0, 1)])
        theta = ThetaParams.from_set(1, a_n=0.5)
        inst = make_instance(net, np.array([[0.0], [1.0]]), theta)
        w = weights(inst, np.zeros(2, dtype=int))
        # d_i d_j = 0 leaves only the plain spillover coefficient.
        assert w.w2[0, 1] == pytest.approx(0.5 / 2 * 1.0 * theta.theta5)

    def test_quadratic_form_matches_potential_exhaustively(self, rng):
        inst = random_instance(rng, 3, density=0.9)
        for d in feasible_allocations(3, 3):
            w = weights(inst, d)
            assert np.array_equal(w.w2, w.w2.T)
            assert np.all(np.diag(w.w2) == 0.0)
            for y in itertools.product((0, 1), repeat=3):
                y = np.array(y, dtype=float)
                quad = float(w.w1 @ y + y @ w.w2 @ y)
                assert quad == pytest.approx(potential(y, inst, d), abs=1e-12)

    def test_quadratic_form_matches_potential_larger(self, rng):
        for n in (6, 10):
            inst = random_instance(rng, n)
            d = rng.integers(0, 2, n)
            w = weights(inst, d)
            for _ in range(64):
                y = rng.integers(0, 2, n).astype(float)
                quad = float(w.w1 @ y + y @ w.w2 @ y)
                assert quad == pytest.approx(potential(y, inst, d), abs=1e-12)


class TestConditionalChoice:
    """P(y_i = 1 | y_-i) is the logistic of U_i(1, y_-i), the utility of
    choosing 1 against 0."""

    def test_balanced_isolated_unit(self):
        net = Network.from_edges(1, [])
        theta = ThetaParams(0.0, 0.5, 0.0, 0.0, 0.7, 0.8, 0.9)
        inst = make_instance(net, np.array([[1.0]]), theta)
        assert expit(utility(0, [1], inst, [0])) == pytest.approx(0.5)

    def test_logistic_value(self):
        net = Network.from_edges(1, [])
        theta = ThetaParams(-2.0, 0.5, 0.0, 0.0, 0.7, 0.8, 0.9)
        inst = make_instance(net, np.array([[1.0]]), theta)
        p = expit(utility(0, [1], inst, [0]))
        assert p == pytest.approx(0.11920292202211755, abs=1e-12)

    def test_probability_interior(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            inst = random_instance(rng, n)
            y = rng.integers(0, 2, n)
            d = rng.integers(0, 2, n)
            i = int(rng.integers(n))
            y[i] = 1
            p = expit(utility(i, y, inst, d))
            assert 0.0 < p < 1.0

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_choice_argument_is_the_field(self, rng, storage):
        # Unit i's log-odds read from its list row against w1 + 2 (w2 @ y).
        inst = protocol_instance(30, density=0.3, seed=4)
        if storage == "csr":
            inst = csr_twin(inst)
        for _ in range(5):
            w = weights(inst, rng.integers(0, 2, size=30))
            y = rng.integers(0, 2, size=30)
            want = w.w1 + 2.0 * (w.w2 @ y)
            cols, vals = w.row_lists
            got = [w.w1[i] + sum(v * y[c] for c, v in zip(cols[i], vals[i])) for i in range(30)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_equals_the_logistic_of_the_choice_argument(self, rng, storage):
        inst = protocol_instance(30, density=0.3, seed=4)
        if storage == "csr":
            inst = csr_twin(inst)
        for _ in range(3):
            d = rng.integers(0, 2, size=30)
            y = rng.integers(0, 2, size=30)
            w = weights(inst, d)
            field = w.w1 + 2.0 * (w.w2 @ y)
            for i in range(30):
                y1 = y.copy()
                y1[i] = 1
                assert expit(utility(i, y1, inst, d)) == pytest.approx(
                    float(expit(field[i])), abs=1e-12)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_builds_no_row_table(self, rng, storage, monkeypatch):
        # One unit's probability reads that unit's coupling row only.
        inst = protocol_instance(30, density=0.3, seed=4)
        if storage == "csr":
            inst = csr_twin(inst)

        def built(self):
            raise AssertionError("row_lists built")

        monkeypatch.setattr(WeightSystem, "row_lists", property(built))
        y = rng.integers(0, 2, size=30)
        y[3] = 1
        p = expit(utility(3, y, inst, rng.integers(0, 2, size=30)))
        assert 0.0 < p < 1.0


def _kernel_instances():
    """A dense instance per kernel and its CSR twin."""
    for kernel in (SimilarityKernel.abs_diff(), SimilarityKernel.inverse_distance()):
        dense = replace(protocol_instance(40, density=0.3, seed=2), kernel=kernel)
        yield kernel.kind, dense, csr_twin(dense)


class TestColouring:
    def test_no_coupled_pair_shares_a_class(self):
        for name, dense, csr in _kernel_instances():
            for inst in (dense, csr):
                classes = inst.colour_classes
                colour = np.full(inst.n, -1)
                for k, units in enumerate(classes):
                    colour[units] = k
                assert (colour >= 0).all()
                assert sum(len(units) for units in classes) == inst.n
                r, c, _ = nonzero_entries(inst.coupling)
                assert len(r) > 0 and (colour[r] != colour[c]).all()
                # Greedy never needs more colours than the largest degree plus one.
                assert len(classes) <= np.bincount(r).max() + 1
            if name == "absdiff":
                # On one binary covariate absdiff couples only units whose
                # covariates differ, so the graph is bipartite. Largest degree
                # first need not find two colours on it; this one takes three.
                x = dense.x[:, 0]
                assert (x[r] != x[c]).all() and len(dense.colour_classes) == 3
            else:
                # invdist couples every edge, and the network has triangles.
                assert len(dense.colour_classes) > 2

    def test_dense_and_csr_twins_get_identical_classes(self):
        for _, dense, csr in _kernel_instances():
            assert isinstance(dense.coupling, np.ndarray)
            assert not isinstance(csr.coupling, np.ndarray)
            assert len(dense.colour_classes) == len(csr.colour_classes)
            for a, b in zip(dense.colour_classes, csr.colour_classes):
                np.testing.assert_array_equal(a, b)

    def test_colour_blocks_slice_w1_and_w2_by_class(self, rng):
        inst = protocol_instance(30, density=0.3, seed=4)
        w = weights(inst, rng.integers(0, 2, size=30))
        blocks = w.colour_blocks
        assert [u.tolist() for u, _, _ in blocks] == [u.tolist() for u in inst.colour_classes]
        for units, w1, rows in blocks:
            np.testing.assert_array_equal(w1, w.w1[units])
            np.testing.assert_array_equal(rows, w.w2[units])

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_built_once_per_instance(self, rng, storage, monkeypatch):
        inst = protocol_instance(30, density=0.3, seed=4)
        if storage == "csr":
            inst = csr_twin(inst)
        calls = []
        real = model.greedy_colouring
        monkeypatch.setattr(model, "greedy_colouring", lambda a: calls.append(a) or real(a))
        for _ in range(4):
            w = weights(inst, rng.integers(0, 2, size=30))
            assert len(w.colour_blocks) == 2
        assert len(calls) == 1 and calls[0] is inst.coupling


class TestNonzeroEntries:
    def test_csr_read_matches_the_dense_array(self, rng):
        a = rng.uniform(size=(30, 30)) * (rng.random((30, 30)) < 0.2)
        a[3] = 0.0  # an empty row
        r, c, v = nonzero_entries(sparse.csr_array(a))
        want = nonzero_entries(a)
        for got, ref in zip((r, c, v), want):
            np.testing.assert_array_equal(got, ref)

    def test_stored_zeros_and_unsorted_columns_are_read_as_entries_are(self):
        # Row 0 stores a zero and lists its columns out of order; row 1
        # repeats a column, whose values add up.
        a = sparse.csr_array((np.array([2.0, 0.0, 1.0, 3.0, 4.0]), np.array([2, 1, 0, 2, 2]),
                              np.array([0, 3, 5, 5])), shape=(3, 3))
        r, c, v = nonzero_entries(a)
        assert r.tolist() == [0, 0, 1] and c.tolist() == [0, 2, 2] and v.tolist() == [1, 2, 7]
        empty = nonzero_entries(sparse.csr_array((3, 3)))
        assert [len(x) for x in empty] == [0, 0, 0]


class TestAllocationType:
    def test_from_treated_and_count(self):
        a = Allocation.from_vector([0, 1, 0, 1, 0])
        assert a.treated == (1, 3)
        assert len(a.treated) == 2
        assert a.d.tolist() == [0, 1, 0, 1, 0]

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            Allocation.from_vector([0, 2, 1])

    @pytest.mark.parametrize("bad", [[0.5, 1, 0], [0, 1.5, 1], [0, -1, 1], [0, np.nan, 1]])
    def test_entries_are_checked_before_the_cast(self, bad):
        # An int8 cast would read 0.5 and 1.5 as 0 and 1.
        with pytest.raises(ValueError, match="0 or 1"):
            allocation_vector(bad, 3)
        with pytest.raises(ValueError, match="0 or 1"):
            allocation_vector([bad, [0, 0, 1]], 3, block=True)
        with pytest.raises(ValueError, match="0 or 1"):
            Allocation.from_vector(bad)

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 3), (2, 2)])
    def test_shape_is_checked(self, shape):
        block = shape == (2, 2)
        with pytest.raises(ValueError, match="length 3"):
            allocation_vector(np.zeros(shape), 3, block=block)

    def test_block_form(self):
        block = allocation_vector([True, False, True], 3, block=True)
        assert block.dtype == np.int8 and block.tolist() == [[1, 0, 1]]
        assert allocation_vector(np.ones((0, 3)), 3, block=True).shape == (0, 3)

    def test_feasible_allocations_order_and_cap(self):
        allocs = feasible_allocations(3, 2)
        assert allocs.shape == (7, 3)
        assert allocs[0].tolist() == [0, 0, 0]
        assert allocs[1].tolist() == [1, 0, 0]
        with pytest.raises(ValueError, match="cap"):
            feasible_allocations(30, 15, max_count=100)

    @pytest.mark.parametrize("n,kappa", [(15, 4), (15, 0), (6, 6), (20, 5)])
    def test_feasible_allocations_match_a_row_by_row_listing(self, n, kappa):
        rows = [[int(i in combo) for i in range(n)]
                for k in range(kappa + 1) for combo in itertools.combinations(range(n), k)]
        allocs = feasible_allocations(n, kappa)
        assert allocs.dtype == np.int8 and allocs.tolist() == rows

    def test_theta_param_set_values(self):
        s1, s2 = ThetaParams.from_set(1), ThetaParams.from_set(2)
        assert (s1.theta0, s1.theta1, s1.theta2, s1.theta3) == (-2.0, 0.5, 0.1, 0.6)
        assert (s1.theta4, s1.theta5, s1.theta6) == (0.7, 0.8, 0.9)
        assert (s2.theta5, s2.theta6) == (7.0, 7.0)
        with pytest.raises(ValueError):
            ThetaParams.from_set(3)
        with pytest.raises(ValueError):
            ThetaParams(0, 0, 0, 0, 0, 0, 0, a_n=0.0)


class TestInputContract:
    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_theta_rejects_non_finite(self, k, bad):
        vals = list(ThetaParams.from_set(1).to_dict().values())[:7]
        vals[k] = bad
        with pytest.raises(ValueError, match=f"theta{k} must be finite"):
            ThetaParams(*vals)

    def test_theta_rejects_non_finite_tuple_entry(self):
        with pytest.raises(ValueError, match="theta3 must be finite"):
            ThetaParams(-2.0, 0.5, (0.1, 0.2), (0.6, np.nan), 0.7, 0.8, 0.9)

    @pytest.mark.parametrize("k, bad", [(0, True), (0, "x"), (4, None), (6, {"a": 1}),
                                        (2, (0.1, False)), (3, (0.6, "y")),
                                        (3, (0.6, [0.1])), (2, [[0.1, 0.2]])])
    def test_theta_rejects_non_numbers(self, k, bad):
        vals = list(ThetaParams.from_set(1).to_dict().values())[:7]
        vals[k] = bad
        with pytest.raises(ValueError, match=f"theta{k} must be a number or a list of numbers"):
            ThetaParams(*vals)

    def test_theta_accepts_numpy_numbers(self):
        theta = ThetaParams(np.float64(-2.0), np.int64(1), [0.1, np.float32(0.2)],
                            np.array([0.6, 0.7]), 0.7, 0.8, 0.9)
        assert theta.theta2 == (0.1, pytest.approx(0.2)) and theta.theta3 == (0.6, 0.7)

    @pytest.mark.parametrize("name", ["theta2", "theta3"])
    def test_coefficient_length_must_match_the_covariates(self, name):
        theta = replace(SET1, **{name: (0.1, 0.2, 0.3)})
        x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=f"^{name} has 3 entries for 2 covariate columns$"):
            make_instance(Network.from_edges(3, [(0, 1), (1, 2)]), x, theta)

    def test_one_coefficient_serves_every_column(self):
        x = np.random.default_rng(4).uniform(0, 3, size=(9, 3))
        net = Network.from_edges(9, [(0, 1), (1, 2)])
        effects = [(inst.x_effect2, inst.x_effect3) for inst in (
            make_instance(net, x, replace(SET1, theta2=c2, theta3=c3))
            for c2, c3 in [(0.1, 0.6), ((0.1,), (0.6,)), ((0.1,) * 3, (0.6,) * 3)])]
        for x2, x3 in effects[1:]:
            assert x2.tobytes() == effects[0][0].tobytes()
            assert x3.tobytes() == effects[0][1].tobytes()

    def test_no_covariate_columns_equal_one_zero_column(self):
        # K = 0 gives x'theta = 0 and invdist similarity 1, as one all-zero
        # column does; invdist keeps the coupling the adjacency, not zero.
        net = erdos_renyi(12, 0.4, seed=5)
        theta = ThetaParams.from_set(1, a_n=1 / 12)
        kernel = SimilarityKernel.inverse_distance()
        none, zero = (make_instance(net, np.zeros((12, k)), theta, kernel) for k in (0, 1))
        assert (to_dense(none.coupling) == net.adjacency).all() and net.adjacency.sum() > 40

        def outcome(inst):
            allocation, steps = greedy(inst, 3)
            d = allocation.d
            return (allocation.treated, steps, approx_welfare(d, inst, seed=7),
                    exact_welfare(d, inst), bounds_report(inst),
                    mcmc_welfare(d, inst, sweeps=300, burn_in=50, seed=7))

        assert outcome(none) == outcome(zero)

    def test_theta_must_be_theta_params(self):
        theta = SET1.to_dict()
        message = f"^theta must be a ThetaParams, got {re.escape(repr(theta))}$"
        with pytest.raises(TypeError, match=message):
            Instance(Network.from_edges(3, [(0, 1)]), np.zeros((3, 1)), theta,
                     kernel=SimilarityKernel.abs_diff())

    @pytest.mark.parametrize("a_n, records", [(5.5, 1), (5.0, 0), (1.0, 0)])
    def test_large_spillover_scale_is_logged_once(self, caplog, a_n, records):
        # The path's maximum degree is 2, so the scale is 2 a_n.
        with caplog.at_level("INFO", logger="netalloc.model"):
            make_instance(Network.from_edges(3, [(0, 1), (1, 2)]), np.zeros((3, 1)),
                          ThetaParams.from_set(1, a_n=a_n))
        logged = [r for r in caplog.records if "spillover scale" in r.getMessage()]
        assert len(logged) == records
        if records:
            assert logged[0].levelname == "INFO" and "= 11 is large" in logged[0].getMessage()

    @pytest.mark.parametrize("a_n", [np.inf, np.nan, -1.0])
    def test_theta_rejects_bad_scaling(self, a_n):
        with pytest.raises(ValueError, match="a_n must be positive and finite"):
            ThetaParams.from_set(1, a_n=a_n)

    @pytest.mark.parametrize("a_n", [True, "0.5", None, [0.5]])
    def test_theta_rejects_non_number_scaling(self, a_n):
        # a_n used to be coerced with float(), so True read as 1.0.
        theta = ThetaParams.from_set(1).to_dict()
        with pytest.raises(ValueError, match=f"a_n must be a number, got {re.escape(repr(a_n))}"):
            ThetaParams.from_dict({**theta, "a_n": a_n})
        with pytest.raises(ValueError, match="a_n must be a number"):
            ThetaParams.from_set(1, a_n=a_n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_make_instance_rejects_non_finite_covariates(self, bad):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        x = np.array([[1.0], [bad], [0.0]])
        with pytest.raises(ValueError, match="covariates must be finite"):
            make_instance(net, x, SET1)

    @pytest.mark.parametrize("kernel", ["invdist", None])
    def test_instance_rejects_non_kernel(self, kernel):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(TypeError, match=f"kernel must be a SimilarityKernel, got {kernel!r}"):
            Instance(net, np.zeros((3, 1)), SET1, kernel=kernel)

    @pytest.mark.parametrize(
        "x,message",
        [
            ([[1.0], [np.nan], [0.0]], "covariates must be finite"),
            ([[1.0], [-2.0], [0.0]], "covariates must be nonnegative"),
            (np.zeros((3, 1, 1)), "covariates must be 2-dimensional"),
        ],
    )
    def test_instance_rejects_bad_covariates(self, x, message):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=message):
            Instance(net, x, SET1, kernel=SimilarityKernel.abs_diff())

    # Hand-built systems: the oracle reads only the pairs i < j, doubled,
    # and no diagonal. Unchecked, the upper-only HALF read log Z 2.6964
    # against 2.4040 from listing all 8 states, and PATH plus 0.7 at (0, 0)
    # read 2.4040 against 2.8739.
    W1 = np.array([0.1, -0.2, 0.3])
    HALF = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
    PATH = (HALF + HALF.T) / 2

    @pytest.mark.parametrize("w1, w2, message", [
        (W1, HALF, "symmetric"),
        (W1, PATH + np.diag([0.7, 0.0, 0.0]), "zero diagonal"),
        (W1, np.zeros((3, 2)), "square"),
        (W1, np.zeros((2, 2)), "len\\(w1\\)"),
        (np.zeros((3, 1)), np.zeros((3, 3)), "len\\(w1\\)"),
        (np.array([0.1, np.nan, 0.3]), PATH, "finite"),
        (W1, np.where(PATH > 0.2, np.inf, PATH), "finite"),
        (W1, sparse.csr_array(HALF), "symmetric"),
        (W1, sparse.csr_array(np.diag([0.0, 0.0, 0.7])), "zero diagonal"),
        (W1, sparse.csr_array(np.where(PATH > 0.2, np.nan, PATH)), "finite"),
    ], ids=["upper-only", "diagonal", "not-square", "short-w2", "2d-w1", "nan-w1", "inf-w2",
            "csr-upper-only", "csr-diagonal", "csr-nan"])
    def test_hand_built_weight_system_rejected(self, w1, w2, message):
        with pytest.raises(ValueError, match=message):
            WeightSystem(w1, w2)

    def test_hand_built_weight_system_accepted(self):
        for w2 in (self.PATH, sparse.csr_array(self.PATH)):
            assert WeightSystem(self.W1, w2).n == 3

    def test_systems_from_weights_carry_their_instance(self):
        inst = protocol_instance(6, seed=1)
        w = weights(inst, np.ones(6, dtype=int))
        assert w.instance is inst

    def test_instance_stores_float_arrays(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(net, [1, 0, 2], SET1, kernel=SimilarityKernel.constant(1.0))
        assert inst.x.dtype == float and inst.x.shape == (3, 1)
        assert inst.m.dtype == float
        assert np.array_equal(inst.coupling, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


class TestSharedHelpers:
    def test_sigmoid_matches_expit(self):
        for a in (-800.0, -30.0, -1.5, 0.0, 0.25, 30.0, 800.0):
            assert sigmoid(a) == pytest.approx(float(expit(a)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x", [30.0, 37.0, 50.0, -50.0])
    def test_logistic_slope_keeps_its_precision_in_the_tails(self, x):
        # p (1 - p) with p = expit(x) cancels: 0.1% low at x = 30 and 0 from
        # x = 37. The slope is exp(-|x|) / (1 + exp(-|x|))^2 at any x.
        tail = np.exp(-abs(x))
        want = tail / (1.0 + tail) ** 2
        assert model.logistic_slope(x) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert model.logistic_slope(np.array([x, -x])) == pytest.approx(
            [want, want], rel=1e-14, abs=0.0)

    def test_derive_seed_is_pinned(self):
        # Every simulate stream, greedy candidate and bfva restart descends
        # from this scheme; a change here silently changes all outputs.
        assert derive_seed(0, 1) == 3964924996
        assert derive_seed(11, 1, 400, 6, 0, 0) == 284536805
        assert derive_seed(2**63 + 11, 5) == int(
            np.random.SeedSequence((2**63 + 11, 5)).generate_state(1)[0]
        )
