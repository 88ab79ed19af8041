"""Network construction, generation, loading, and similarity kernels."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netalloc import (
    Network,
    SimilarityKernel,
    erdos_renyi,
    load_covariates,
    load_network,
    network,
    similarity_matrix,
)


def triu_draw(n, density, seed):
    """Frozen copy of the erdos_renyi draw that looked the chosen pair codes
    up in the full list of unordered pairs, ``np.triu_indices(n, k=1)``."""
    n_pairs = n * (n - 1) // 2
    chosen = np.random.default_rng(seed).choice(
        n_pairs, size=int(np.floor(density * n_pairs + 0.5)), replace=False
    )
    iu, ju = np.triu_indices(n, k=1)
    return Network.from_edges(n, np.stack([iu[chosen], ju[chosen]], axis=1))


class TestErdosRenyi:
    def test_density_one_is_complete_graph(self):
        net = erdos_renyi(5, 1.0, seed=3)
        assert net.edge_count == 10
        assert (net.max_degree, net.min_degree) == (4, 4)

    def test_edge_count_matches_rounded_density(self):
        # 0.3 * 105 = 31.5 rounds up to 32.
        net = erdos_renyi(15, 0.3, seed=11)
        assert net.edge_count == 32

    # (10, 0.7): 0.7 * 45 is 31.499999999999996 and rounds to 31, while
    # 0.7 * 10 * 9 / 2 evaluates to 31.5; the count scales the integer
    # number of pairs.
    @pytest.mark.parametrize(
        "n,density", [(5, 0.3), (10, 0.45), (12, 0.8), (7, 0.09), (10, 0.7)]
    )
    def test_edge_count_formula(self, n, density):
        expected = int(np.floor(density * (n * (n - 1) // 2) + 0.5))
        assert erdos_renyi(n, density, seed=0).edge_count == expected

    def test_seeds_give_different_graphs_same_count(self):
        a = erdos_renyi(5, 0.3, seed=1)
        b = erdos_renyi(5, 0.3, seed=2)
        assert a.edge_count == b.edge_count == 3
        assert not np.array_equal(a.adjacency, b.adjacency)

    def test_same_seed_bit_identical(self):
        a = erdos_renyi(20, 0.4, seed=99)
        b = erdos_renyi(20, 0.4, seed=99)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_degenerate_density_warns_and_allows_empty(self):
        with pytest.warns(UserWarning, match="degenerate density"):
            net = erdos_renyi(2, 0.4, seed=0)
        assert net.edge_count == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 5.0$"):
            erdos_renyi(5.0, 0.5, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.2, seed=0)

    @given(st.integers(2, 30), st.floats(0.05, 1.0), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_generated_graphs_are_simple_and_symmetric(self, n, density, seed):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            net = erdos_renyi(n, density, seed=seed)
        a = net.adjacency
        assert np.array_equal(a, a.T)
        assert (np.diag(a) == 0).all()
        assert net.edge_count == int(np.floor(density * (n * (n - 1) // 2) + 0.5))

    @given(st.integers(2, 90), st.floats(0.01, 1.0), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_pair_codes_decode_as_triu_indices(self, n, density, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = erdos_renyi(n, density, seed=seed)
        want = triu_draw(n, density, seed)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    @pytest.mark.parametrize("n", [500, 1999, 3000])
    def test_large_graphs_match_triu_draw(self, n):
        got, want = erdos_renyi(n, 0.01, seed=5), triu_draw(n, 0.01, 5)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    def test_sparse_draw_builds_no_pair_list(self):
        # np.triu_indices(3000) alone holds two int64 arrays of 4.5M entries
        # (72 MB); the 9,000 edges need well under 1 MB.
        tracemalloc.start()
        try:
            net = erdos_renyi(3000, 0.002, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.edge_count == 8997
        assert peak < 8e6


class TestDegreeStats:
    def test_empty_graph(self):
        net = Network.from_edges(4, [])
        assert (net.max_degree, net.min_degree) == (0, 0)

    def test_star(self):
        net = Network.from_edges(5, [(0, i) for i in range(1, 5)])
        assert (net.max_degree, net.min_degree) == (4, 1)

    def test_complete(self):
        net = erdos_renyi(5, 1.0, seed=0)
        assert (net.max_degree, net.min_degree) == (4, 4)


class TestNetworkValidation:
    def test_rejects_self_links(self):
        with pytest.raises(ValueError, match="self-links"):
            Network.from_edges(3, [(0, 1), (2, 2)])

    @pytest.mark.parametrize("n, edges, message", [
        (-1, [], r"^n must be at least 0, got -1$"),
        (-1, [(0, 1)], r"^n must be at least 0, got -1$"),
        (2.5, [(0, 1)], r"^n must be an integer, got 2.5$"),
        (True, [], r"^n must be an integer, got True$"),
    ])
    def test_rejects_a_bad_size_by_name(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Network.from_edges(n, edges)

    def test_numpy_integer_size_is_accepted(self):
        assert Network.from_edges(np.int64(3), [(0, 2)]).edge_count == 1


class TestFromEdges:
    def test_matches_pairwise_scatter(self, rng):
        pairs = rng.integers(0, 12, size=(40, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        want = np.zeros((12, 12), dtype=np.int8)
        for i, j in pairs:
            want[i, j] = want[j, i] = 1
        got = Network.from_edges(12, [tuple(p) for p in pairs])
        assert np.array_equal(got.adjacency, want)
        assert Network.from_edges(12, pairs).edge_count == got.edge_count

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2), (0, 9)], r"self-links not allowed: \(2,2\)"),
            ([(0, 1), (0, 9), (2, 2)], r"edge \(0,9\) out of range for n=4"),
            ([(0, 1), (-1, 2), (3, 3)], r"edge \(-1,2\) out of range for n=4"),
        ],
    )
    def test_first_bad_edge_is_reported(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Network.from_edges(4, edges)

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            Network.from_edges(4, [(0, 1, 2)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1.9, 2)], r"edge \(1.9,2.0\) is not a pair of integers"),
            ([(0.5, 2)], r"edge \(0.5,2.0\) is not a pair of integers"),
            ([(0, 1), (1, 2.5), (0, 9)], r"edge \(1.0,2.5\) is not a pair of integers"),
            ([(0, 1), (np.nan, 2)], r"edge \(nan,2.0\) is not a pair of integers"),
            ([(0, 1), (0, np.inf)], r"edge \(0.0,inf\) is not a pair of integers"),
        ],
    )
    def test_rejects_non_integer_pairs(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Network.from_edges(3, edges)

    def test_rejects_non_numeric_entries(self):
        with pytest.raises(ValueError, match="pairs of integers"):
            Network.from_edges(3, [("0", "1")])

    def test_integer_valued_floats_are_integers(self):
        got = Network.from_edges(3, np.array([[0.0, 2.0], [2.0, 1.0]]))
        assert np.array_equal(got.adjacency, Network.from_edges(3, [(0, 2), (1, 2)]).adjacency)


def dense_scatter_erdos_renyi(n, density, seed):
    """Adjacency of erdos_renyi(n, density, seed) as it was built when
    networks were stored as dense matrices: a scatter of the chosen pairs."""
    n_pairs = n * (n - 1) // 2
    n_edges = int(np.floor(density * n_pairs + 0.5))
    chosen = np.random.default_rng(seed).choice(n_pairs, size=n_edges, replace=False)
    iu, ju = np.triu_indices(n, k=1)
    a = np.zeros((n, n), dtype=np.int8)
    a[iu[chosen], ju[chosen]] = 1
    a[ju[chosen], iu[chosen]] = 1
    return a


class TestNeighbourLists:
    @given(st.integers(2, 40), st.floats(0.01, 1.0), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_erdos_renyi_matches_dense_scatter(self, n, density, seed):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            net = erdos_renyi(n, density, seed=seed)
        want = dense_scatter_erdos_renyi(n, density, seed)
        assert net.adjacency.dtype == np.int8
        assert np.array_equal(net.adjacency, want)
        assert np.array_equal(net.degree, want.sum(axis=1))
        for i in range(n):
            assert np.array_equal(net.indices[net.indptr[i]:net.indptr[i + 1]],
                                  np.flatnonzero(want[i]))

    @given(st.integers(1, 25), st.floats(0.0, 1.0), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_from_edges_round_trips(self, n, p, seed):
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
        a = (upper | upper.T).astype(np.int8)
        net = Network.from_edges(n, np.argwhere(a))
        assert net.n == n and net.edge_count == int(upper.sum())
        assert np.array_equal(net.adjacency, a)
        assert np.array_equal(net.rows, np.nonzero(a)[0])
        assert np.array_equal(net.indices, np.nonzero(a)[1])

    def test_lists_are_sorted_and_deduplicated(self):
        net = Network.from_edges(4, [(3, 0), (0, 3), (2, 0), (0, 1), (1, 0)])
        assert net.indptr.tolist() == [0, 3, 4, 5, 6]
        assert net.indices.tolist() == [1, 2, 3, 0, 0, 0]
        assert net.indptr.dtype == net.indices.dtype == np.int64

    def test_arrays_are_read_only(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        for array in (net.indptr, net.indices, net.adjacency):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert net.indices.tolist() == [1, 0, 2, 1]

    def test_caller_arrays_stay_writable(self):
        indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
        net = Network(2, indptr, indices)
        indptr[0] = 0
        assert net.edge_count == 1 and net.adjacency.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_empty_graph(self, n):
        net = Network.from_edges(n, [])
        assert net.indptr.tolist() == [0] * (n + 1) and net.indices.size == 0
        assert net.edge_count == 0 and net.adjacency.shape == (n, n)


class TestSimilarity:
    def test_absdiff_scalar(self):
        m = similarity_matrix(np.array([[0.0], [1.0], [1.0]]), SimilarityKernel.abs_diff())
        assert m[0, 1] == 1.0
        assert m[1, 2] == 0.0
        assert m[0, 2] == 1.0

    def test_inverse_distance(self):
        m = similarity_matrix(np.array([[0.0], [1.0]]), SimilarityKernel.inverse_distance())
        assert m[0, 1] == pytest.approx(0.5)
        assert m[0, 0] == 1.0

    def test_constant(self):
        m = similarity_matrix(np.zeros((4, 2)), SimilarityKernel.constant(0.7))
        assert (m == 0.7).all()

    def test_negative_covariates_rejected(self):
        with pytest.raises(ValueError, match="covariates must be nonnegative"):
            similarity_matrix(np.array([[-0.1], [1.0]]), SimilarityKernel.abs_diff())

    def test_multidimensional_l1(self):
        x = np.array([[0.0, 2.0], [1.0, 0.5]])
        m = similarity_matrix(x, SimilarityKernel.abs_diff())
        assert m[0, 1] == pytest.approx(1.0 + 1.5)

    @given(
        st.lists(
            st.lists(st.floats(0, 50, allow_nan=False), min_size=2, max_size=2),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_symmetry(self, rows):
        x = np.array(rows)
        for kernel in (SimilarityKernel.abs_diff(), SimilarityKernel.inverse_distance()):
            m = similarity_matrix(x, kernel)
            assert np.array_equal(m, m.T)
            assert (m >= 0).all()

    def test_parse(self):
        assert SimilarityKernel.parse("absdiff").kind == "absdiff"
        assert SimilarityKernel.parse("constant:0.3").value == 0.3
        with pytest.raises(ValueError):
            SimilarityKernel.parse("fancy")

    @pytest.mark.parametrize("spec", ["constant:inf", "constant:nan", "constant:0",
                                      "constant:-1", "constant"])
    def test_constant_needs_a_positive_finite_value(self, spec):
        # An infinite constant made the coupling inf/NaN, and every
        # Gauss-Seidel solve then ran to max_iter.
        with pytest.raises(ValueError, match="constant kernel value must be positive and finite"):
            SimilarityKernel.parse(spec)

    @pytest.mark.parametrize("spec", ["absdiff:3", "invdist:2", "invdist:1"])
    def test_distance_kernels_take_no_value(self, spec):
        # The value used to be accepted and ignored.
        with pytest.raises(ValueError, match="takes no value"):
            SimilarityKernel.parse(spec)


class TestFileLoading:
    def test_edge_list_roundtrip_with_dedup(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# comment line\n0,1\n1,0\n\n1,2\n")
        net = load_network(path, n=3)
        assert net.n == 3
        assert net.edge_count == 2
        assert net.adjacency[0, 1] == net.adjacency[1, 0] == 1

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("0,0\n")
        with pytest.raises(ValueError, match="self-links not allowed"):
            load_network(path, n=1)

    @pytest.mark.parametrize("text", ["", "# i,j\n\n# nothing else\n"])
    def test_file_without_edges_rejected(self, tmp_path, text):
        path = tmp_path / "net.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{path}: no edges$"):
            load_network(path, n=1)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("0,5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_network(path, n=3)

    @pytest.mark.parametrize("bad", ["1,x", "1.5,2", "1,2,3", "7"])
    def test_malformed_line_is_located(self, tmp_path, bad):
        path = tmp_path / "net.txt"
        path.write_text(f"# i,j\n0,1\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 'i,j', got '{bad}'")):
            load_network(path, n=3)

    @pytest.mark.parametrize("text", [
        "0,1\n   \n\t\n1,2\n",  # whitespace-only lines
        "0,1\n 3 , 4 \n",
        "+1,2\n0,1\n",
        "1_0,2\n0,1\n",  # int() reads 10; numpy refuses it
        "# i,j\n1.0,2\n",  # both refuse it, at line 2
        "0,1\n1,2 # note\n",  # no comments after a pair: refused at line 2
        "0,1\n2,2\n-1,3\n",  # the first of two bad lines is named
    ])
    @pytest.mark.filterwarnings("error")
    def test_numpy_parse_equals_line_loop(self, tmp_path, text):
        path = tmp_path / "net.txt"
        path.write_text(text)
        try:
            edges = network._edge_lines(path)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                load_network(path, n=11)
            assert str(err).startswith(f"{path}:2: ")
            return
        want = Network.from_edges(max(map(max, edges)) + 1, edges)
        got = load_network(path, n=want.n)
        assert got.n == want.n
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    @pytest.mark.filterwarnings("error")
    def test_large_file_takes_one_numpy_parse(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        i = rng.integers(0, 3000, size=10_000)
        j = (i + rng.integers(1, 3000, size=10_000)) % 3000
        path = tmp_path / "net.txt"
        path.write_text("# i,j\n" + "".join(f"{a},{b}\n\n" for a, b in zip(i, j)))
        edges = network._edge_lines(path)
        want = Network.from_edges(max(map(max, edges)) + 1, edges)

        def refuse(path):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(network, "_edge_lines", refuse)
        got = load_network(path, n=3000)
        assert got.n == want.n == 3000
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    def test_negative_index_is_located(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("0,1\n-1,3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: negative unit index$"):
            load_network(path, n=4)

    def test_covariates_csv(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("x1,x2\n0.5,1.0\n2.0,0.0\n")
        x = load_covariates(path)
        assert x.shape == (2, 2)
        assert x[1, 0] == 2.0

    @pytest.mark.parametrize("text", ["x\n", "x\n\n", ""])
    @pytest.mark.filterwarnings("error")
    def test_covariate_file_without_rows_rejected(self, tmp_path, text):
        # numpy used to warn "Empty input file", and the run then failed on
        # the covariate count.
        path = tmp_path / "cov.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no covariate rows$"):
            load_covariates(path)

    @pytest.mark.parametrize("text", ["x\n1.0\nabc\n", "x,y\n1.0,2.0\n3.0,\n"])
    def test_non_numeric_covariates_rejected(self, tmp_path, text):
        path = tmp_path / "cov.csv"
        path.write_text(text)
        message = f"^{re.escape(str(path))}: non-numeric or missing covariate entries$"
        with pytest.raises(ValueError, match=message):
            load_covariates(path)

    def test_negative_covariates_rejected(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("x\n-1.0\n2.0\n")
        with pytest.raises(ValueError, match="covariates must be nonnegative"):
            load_covariates(path)

    def test_row_count_mismatch_detected_at_assembly(self, tmp_path):
        from netalloc import ThetaParams, make_instance

        net_path = tmp_path / "net.txt"
        net_path.write_text("0,1\n")
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text("x\n1.0\n0.0\n1.0\n")
        net = load_network(net_path, n=2)
        x = load_covariates(cov_path)
        with pytest.raises(ValueError, match="do not match"):
            make_instance(net, x, ThetaParams.from_set(1))

    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    def test_infinite_covariates_rejected(self, tmp_path, bad):
        path = tmp_path / "cov.csv"
        path.write_text(f"x\n1.0\n{bad}\n")
        with pytest.raises(ValueError, match="covariates must be finite"):
            load_covariates(path)

    def test_nan_covariates_rejected_in_memory(self):
        with pytest.raises(ValueError, match="covariates must be finite"):
            similarity_matrix(np.array([[0.0], [np.nan]]), SimilarityKernel.abs_diff())
