"""Social networks, covariate matrices, and pairwise similarity kernels.

Networks are undirected simple graphs stored as sorted neighbour lists
(O(N + E) memory). Covariates are finite, nonnegative N x K arrays, one row
per unit. The similarity kernel can be evaluated on all pairs
(``similarity_matrix``), on a list of pairs such as the edges
(``pair_similarity``), or reduced to its range over distinct pairs in row
blocks (``similarity_bounds``); the last two never build an N x N array,
which is what lets ``Instance.coupling`` store sparse networks in CSR form.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def check_count(name: str, value, minimum: int | None = None) -> None:
    """Reject, by name, a count that is not an integer (a bool included) or
    that is below ``minimum`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


@dataclass(frozen=True)
class Network:
    """Undirected simple graph on units 0..n-1.

    The neighbours of unit i are ``indices[indptr[i]:indptr[i + 1]]``, sorted
    and without repeats (read-only int64 arrays built by ``from_edges``). The
    dense adjacency matrix is built on first access. Immutable and shareable.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices"):
            a = np.asarray(getattr(self, name), dtype=np.int64).view()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Network":
        """Build a network from an iterable of integer (i, j) pairs.

        ``n`` must be a nonnegative integer. Duplicate and reversed pairs
        collapse to a single undirected edge. Integer-valued floats are
        accepted as indices. The first bad pair, in input order, is the one
        reported.
        """
        check_count("n", n, minimum=0)
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        e = e.reshape(0, 2) if e.size == 0 else e
        if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iuf":
            raise ValueError("edges must be (i, j) pairs of integers")
        i, j = e[:, 0], e[:, 1]
        bad = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)
        if e.dtype.kind == "f":
            bad |= (e != np.trunc(e)).any(axis=1)  # NaN included
        if bad.any():
            bi, bj = e[np.argmax(bad)].tolist()
            if bi % 1 or bj % 1:  # also true of NaN and infinity
                raise ValueError(f"edge ({bi},{bj}) is not a pair of integers")
            if bi == bj:
                raise ValueError(f"self-links not allowed: ({bi},{bj})")
            raise ValueError(f"edge ({bi},{bj}) out of range for n={n}")
        i, j = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
        codes = np.sort(np.concatenate([i * n + j, j * n + i]))  # np.unique: ~20x slower
        codes = codes[np.diff(codes, prepend=-1) != 0]  # drop repeats
        indptr = np.searchsorted(codes, np.arange(n + 1) * n)  # row i: codes in [i n, i n + n)
        return cls(n, indptr, codes - codes // n * n)

    @cached_property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def rows(self) -> np.ndarray:
        """The unit whose list holds each entry of ``indices``."""
        return np.repeat(np.arange(self.n), self.degree)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense read-only int8 adjacency matrix, built on first access."""
        a = np.zeros(self.n * self.n, dtype=np.int8)
        flat = np.repeat(np.arange(self.n) * self.n, self.degree) + self.indices
        a[flat] = 1  # 2x faster than a 2-d scatter, and leaves ``rows`` uncached
        a.setflags(write=False)
        return a.reshape(self.n, self.n)

    @cached_property
    def max_degree(self) -> int:
        return int(self.degree.max()) if self.n else 0

    @cached_property
    def min_degree(self) -> int:
        return int(self.degree.min()) if self.n else 0

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def edge_density(self) -> float:
        """Share of unordered pairs that are edges, 2E / (N (N - 1)); 0 below two units."""
        return 2.0 * self.edge_count / (self.n * (self.n - 1)) if self.n > 1 else 0.0


def erdos_renyi(n: int, density: float, seed: int) -> Network:
    """Uniform random simple graph with a fixed number of edges.

    The edge count is floor(density * P + 0.5) in floating point, where
    P = n * (n - 1) // 2 is the integer number of unordered pairs: density
    times P, rounded half up. The edge set is drawn uniformly without
    replacement from all unordered pairs. Deterministic given the seed.
    """
    check_count("n", n, minimum=2)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    n_pairs = n * (n - 1) // 2
    n_edges = int(np.floor(density * n_pairs + 0.5))
    if n_edges == 0:
        warnings.warn(f"degenerate density: {density} yields zero edges on {n} units",
                      UserWarning, stacklevel=2)
    rng = np.random.default_rng(seed)
    code = rng.choice(n_pairs, size=n_edges, replace=False)
    # Code c is pair c in np.triu_indices(n, k=1) order. Row i starts at code
    # i (b - i) / 2 with b = 2n - 1; the quadratic root is within one of i.
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * code)) / 2).astype(np.int64)
    i += (i + 1) * (b - i - 1) // 2 <= code
    i -= i * (b - i) // 2 > code
    return Network.from_edges(n, np.stack([i, code - i * (b - i) // 2 + i + 1], axis=1))


@dataclass(frozen=True)
class SimilarityKernel:
    """Pairwise similarity m(X_i, X_j), symmetric and nonnegative.

    Variants:
      * ``absdiff``  - L1 distance between covariate rows
      * ``invdist``  - 1 / (1 + L1 distance)
      * ``constant`` - a fixed positive, finite ``value`` for every pair

    Only ``constant`` takes a value.
    """

    kind: str
    value: float | None = None

    _KINDS = ("absdiff", "invdist", "constant")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind != "constant" and self.value is not None:
            raise ValueError(f"kernel {self.kind!r} takes no value, got {self.value!r}")
        if self.kind == "constant" and not (
            isinstance(self.value, numbers.Real) and 0 < self.value < np.inf
        ):
            raise ValueError(
                f"constant kernel value must be positive and finite, got {self.value!r}"
            )

    @classmethod
    def abs_diff(cls) -> "SimilarityKernel":
        return cls("absdiff")

    @classmethod
    def inverse_distance(cls) -> "SimilarityKernel":
        return cls("invdist")

    @classmethod
    def constant(cls, value: float) -> "SimilarityKernel":
        return cls("constant", float(value))

    @classmethod
    def parse(cls, spec: str) -> "SimilarityKernel":
        """Parse 'absdiff', 'invdist', or 'constant:<value>'."""
        if ":" in spec:
            kind, _, raw = spec.partition(":")
            return cls(kind.strip(), float(raw))
        return cls(spec.strip())


def check_covariates(x) -> np.ndarray:
    """Validate and return covariates as a finite, nonnegative float (N, K)
    array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"covariates must be 2-dimensional, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("covariates must be finite")
    if (x < 0).any():
        raise ValueError("covariates must be nonnegative")
    return x


def _similarity(a, b, kernel: SimilarityKernel) -> np.ndarray:
    """Similarity of covariate rows a and b, broadcast against each other:
    the kernel applied to their L1 distance over the last axis."""
    if kernel.kind == "constant":
        return np.full(np.broadcast_shapes(a.shape, b.shape)[:-1], kernel.value, dtype=float)
    l1 = np.abs(a - b).sum(axis=-1)
    return l1 if kernel.kind == "absdiff" else 1.0 / (1.0 + l1)


def similarity_matrix(x, kernel: SimilarityKernel) -> np.ndarray:
    """Pairwise similarity matrix for the given covariates and kernel.

    The result is exactly symmetric with nonnegative entries. The diagonal
    is computed but never enters any downstream quantity because networks
    have no self-links.
    """
    x = check_covariates(x)
    return _similarity(x[:, None, :], x[None, :, :], kernel)


def pair_similarity(x, kernel: SimilarityKernel, rows, cols) -> np.ndarray:
    """Similarity of the pairs (rows[k], cols[k]).

    Entry k equals ``similarity_matrix(x, kernel)[rows[k], cols[k]]`` bit
    for bit: the same differences are summed over the same covariate axis.
    """
    x = check_covariates(x)
    return _similarity(x[rows], x[cols], kernel)


# Elements per row block of similarity_bounds: 1 MiB of float64.
_BOUNDS_BLOCK = 1 << 17


def similarity_bounds(x, kernel: SimilarityKernel) -> tuple[float, float]:
    """(min, max) similarity over distinct pairs; (0, 0) below two units.

    Equal to the min and max of the off-diagonal entries of
    ``similarity_matrix(x, kernel)``. Equal covariate rows give equal
    similarities, so only pairs of distinct rows are evaluated, plus one
    zero distance when some row repeats. They are evaluated in row blocks
    of at most ``_BOUNDS_BLOCK`` differences, so memory stays O(N K).
    """
    x = check_covariates(x)
    n = x.shape[0]
    if n < 2:
        return 0.0, 0.0
    rows = np.unique(x, axis=0)
    u, k = rows.shape
    found = [_similarity(rows[:1], rows[:1], kernel)] if u < n else []  # a repeated row
    step = max(1, _BOUNDS_BLOCK // (u * max(k, 1)))
    for start in range(0, u if u > 1 else 0, step):
        idx = np.arange(start, min(start + step, u))
        block = _similarity(rows[idx, None, :], rows[None, :, :], kernel)
        block[idx - start, idx] = np.nan  # the diagonal is not a pair
        found.append([np.nanmin(block), np.nanmax(block)])
    both = np.concatenate(found)
    return float(both.min()), float(both.max())


def load_network(path, n: int) -> Network:
    """Read an edge list file into a Network of ``n`` units.

    The file holds one "i,j" pair per line with 0-based unit indices below
    n. Blank lines and lines starting with '#' are ignored. Duplicate and
    reversed pairs are deduplicated. The caller gives n (``load_instance``
    takes the covariate row count), since units without edges appear in no
    line. A file with no edges is rejected.
    """
    with open(path) as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    # One numpy parse; anything it refuses or that fails a check below goes
    # through the line loop, which accepts what int() accepts and names the
    # first bad line.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 read "1.0" as 1, with a warning
            edges = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.int64, ndmin=2)
        valid = (edges.shape[1] == 2 and (edges[:, 0] != edges[:, 1]).all()
                 and (edges >= 0).all())
    except (ValueError, Warning):  # no lines warns
        valid = False
    if not valid:
        edges = np.array(_edge_lines(path))
    return Network.from_edges(n, edges)


def _edge_lines(path) -> list[tuple[int, int]]:
    """The edges of an edge list file, read line by line with int()."""
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j = map(int, line.split(","))
            except ValueError:  # not two fields, or not integers
                raise ValueError(f"{path}:{lineno}: expected 'i,j', got {line!r}") from None
            if i == j:
                raise ValueError(f"{path}:{lineno}: self-links not allowed")
            if i < 0 or j < 0:
                raise ValueError(f"{path}:{lineno}: negative unit index")
            edges.append((i, j))
    if not edges:
        raise ValueError(f"{path}: no edges")
    return edges


def load_covariates(path) -> np.ndarray:
    """Read a covariate CSV (header row, one row per unit) as an (N, K) array.
    A file with no rows is rejected."""
    with warnings.catch_warnings():  # the empty file is reported below
        warnings.filterwarnings("ignore", "genfromtxt: Empty input file", UserWarning)
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: no covariate rows")
    if np.isnan(data).any():
        raise ValueError(f"{path}: non-numeric or missing covariate entries")
    return check_covariates(data)
