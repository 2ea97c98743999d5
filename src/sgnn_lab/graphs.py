"""Graph construction, shift-operator algebra, and random edge sampling.

Everything is dense float64: the graphs this package targets have at most a
couple hundred nodes, where exactness and simplicity beat sparse storage.
A :class:`ShiftOperator` couples a symmetric matrix with its kind tag and
edge list.  Its one constructor checks every matrix, whoever builds it: a
known kind, real entries, a square shape, finite entries, exact symmetry,
then a zero diagonal and entries >= 0 (adjacency kinds) or zero row sums and
off-diagonal entries <= 0 (Laplacian).  It reads the strict upper triangle
through index arrays cached per node count, which the graph builders share.
A realization, one sample of the random edge-sampling model, is
its N x N matrix: every edge of the base graph survives independently with
probability ``p``, realized through a symmetric 0/1 mask applied entrywise
to the adjacency.  One 32-bit Philox lane per edge decides its keep (``p``
rounded down to a multiple of 2^-32, ``ceil(count * M / 2)`` words per set of
``count``; nothing at p = 1).  Laplacian realizations are the weighted
Laplacian of the surviving edges; realizations of a spectrally normalized
adjacency are masked without re-normalizing (re-normalizing per realization
would need global knowledge, which a distributed deployment does not have).
"""

from __future__ import annotations

import functools

import numpy as np

from . import spectral
from .errors import ConfigError, DegenerateInputError, UnsupportedKindError
from .rng import Rng

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"
NORMALIZED_ADJACENCY = "normalized_adjacency"
KINDS = (ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY)


@functools.lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices ``iu``, ``ju`` of the strict upper triangle of an
    n x n matrix in row-major order, and the same pairs as (n(n-1)/2, 2) rows:
    read-only, built once per node count and shared by every caller."""
    iu, ju = np.triu_indices(n, 1)
    pairs = np.column_stack((iu, ju))
    for arr in (iu, ju, pairs):
        arr.setflags(write=False)
    return iu, ju, pairs


class ShiftOperator:
    """Symmetric N x N shift operator tagged with its kind.

    The constructor copies ``mat`` to float and checks, in this order: a known
    kind (``ConfigError``); then, each failure a ``ValueError``, a real dtype
    (complex input is rejected before the copy, which would drop its imaginary
    part), a square 2-D shape, finite entries (no NaN or inf), exact symmetry,
    and for the adjacency kinds a zero diagonal and entries >= 0, for a
    Laplacian row sums within 1e-12 of 0 and off-diagonal entries <= 0.  Past
    the symmetry check it reads the strict upper triangle only.

    ``edges`` is the off-diagonal support of ``mat`` as an (M, 2) int array
    with i < j in lexicographic order.
    """

    __slots__ = ("n", "kind", "mat", "edges", "_weights")

    def __init__(self, kind: str, mat: np.ndarray):
        if kind not in KINDS:
            raise ConfigError(f"unknown shift kind {kind!r}")
        if np.iscomplexobj(mat):
            raise ValueError("shift matrix entries must be real, got a complex dtype")
        mat = np.array(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"shift matrix must be square, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("shift matrix entries must be finite, got NaN or inf")
        iu, ju, pairs = _upper_pairs(len(mat))
        upper = mat[iu, ju]
        if not (upper == mat[ju, iu]).all():
            raise ValueError("shift matrix must be exactly symmetric")
        if kind == LAPLACIAN:
            if np.abs(mat.sum(axis=1)).max(initial=0.0) > 1e-12:
                raise ValueError("laplacian rows must sum to 0")
            if (upper > 0).any():
                raise ValueError("laplacian off-diagonal entries must be <= 0")
        elif mat.diagonal().any():
            raise ValueError(f"{kind} must have a zero diagonal")
        elif (upper < 0).any():
            raise ValueError(f"{kind} entries must be >= 0")
        nz = upper.nonzero()[0]
        edges = pairs[nz]
        mat.setflags(write=False)
        edges.setflags(write=False)
        self.n = len(mat)
        self.kind = kind
        self.mat = mat
        self.edges = edges
        self._weights = np.abs(upper[nz])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        """Unweighted degree (edge count) per node of the underlying graph."""
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(float)

    def __repr__(self) -> str:
        return f"ShiftOperator(kind={self.kind!r}, n={self.n}, m={self.num_edges})"


def _adjacency_from_pairs(n: int, pairs: np.ndarray) -> ShiftOperator:
    mat = np.zeros((n, n))
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    if len(pairs):
        mat[pairs[:, 0], pairs[:, 1]] = 1.0
        mat[pairs[:, 1], pairs[:, 0]] = 1.0
    return ShiftOperator(ADJACENCY, mat)


def build_sbm(n: int, c: int, p_in: float, p_out: float, rng: Rng) -> ShiftOperator:
    """Stochastic block model adjacency: ``c`` equal communities of
    consecutive nodes; edge probability ``p_in`` within a community and
    ``p_out`` across."""
    if n <= 0 or c <= 0 or n % c != 0:
        raise ConfigError(f"community count {c} must divide node count {n}")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"{name}={p} outside [0, 1]")
    labels = np.repeat(np.arange(c), n // c)
    iu, ju, pairs = _upper_pairs(n)
    edge_p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(len(iu)) < edge_p
    return _adjacency_from_pairs(n, pairs[keep])


def build_disc_graph(positions: np.ndarray, radius: float) -> ShiftOperator:
    """Disc (communication-radius) graph: edge iff Euclidean distance <= radius."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (N, 2), got {positions.shape}")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    if not (np.isfinite(radius) and radius > 0):
        raise ConfigError(f"radius must be finite and > 0, got {radius}")
    iu, ju, pairs = _upper_pairs(len(positions))
    diff = positions[iu] - positions[ju]
    keep = np.sqrt((diff**2).sum(axis=1)) <= radius
    return _adjacency_from_pairs(len(positions), pairs[keep])


def to_shift(adj: ShiftOperator, kind: str) -> ShiftOperator:
    """Convert an adjacency to the requested shift kind."""
    if adj.kind != ADJACENCY:
        raise ConfigError(f"to_shift expects an adjacency, got {adj.kind!r}")
    if kind == ADJACENCY:
        return adj
    if kind == LAPLACIAN:
        mat = np.diag(adj.mat.sum(axis=1)) - adj.mat
        return ShiftOperator(LAPLACIAN, mat)
    if kind == NORMALIZED_ADJACENCY:
        if adj.num_edges == 0:
            raise DegenerateInputError("cannot normalize a graph with no edges")
        return ShiftOperator(NORMALIZED_ADJACENCY, adj.mat / spectral.eig_sym(adj.mat).values[-1])
    raise ConfigError(f"unknown shift kind {kind!r}")


def _edge_values(base: ShiftOperator, keep: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The edge values of a (..., M) boolean keep array, which :func:`_realized_mats`
    builds from: each kept edge's weight, 0 for a dropped one (``keep * weights`` bit for
    bit), formed in one float array, the start of the flat buffer ``out`` when given."""
    vals = np.empty(keep.shape) if out is None else out[:keep.size].reshape(keep.shape)
    vals[...] = keep
    vals *= base._weights
    return vals


def _realized_mats(base: ShiftOperator, vals: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Dense realized shift matrices for a (B, M) array of edge values (see
    :func:`_edge_values`), built in ``out`` when given: a (B, N, N) array of zeros or of
    earlier realizations of ``base``.  Its entries off the edges and the diagonal are then
    zero already, so a refill rewrites only the edge entries (dropped ones to 0) and a
    Laplacian's diagonal.  A caller forms a drawn set's values once and builds every
    stage of it from them."""
    b = vals.shape[0]
    n = base.n
    mats = np.zeros((b, n, n)) if out is None else out
    if base.num_edges == 0:
        return mats
    iu, ju = base.edges[:, 0], base.edges[:, 1]
    if base.kind == LAPLACIAN:  # of the surviving edges: base degrees less dropped weights
        # per node, the dropped weights (weights - values, exact on finite weights) summed
        # through the (M, N) edge-node incidence: exact, so equal to any other order of
        # summation, on integer weights
        ends, rows = np.zeros((len(iu), n)), np.arange(len(iu))
        ends[rows, iu] = ends[rows, ju] = 1.0
        mats[:, np.arange(n), np.arange(n)] = np.diag(base.mat) - (base._weights - vals) @ ends
        vals = -vals
    mats[:, iu, ju] = vals
    mats[:, ju, iu] = vals
    return mats


def check_edge_probability(p: float) -> None:
    """Raise ``ConfigError`` unless the edge probability ``p`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")


def sample_realizations(base: ShiftOperator, p: float, rng: Rng, count: int) -> np.ndarray:
    """Draw ``count`` independent realized shifts as a (count, N, N) array.

    Keeps are ``rng.bernoulli(p, (count, M))``: one 32-bit lane per edge, ``p``
    rounded down to a multiple of 2^-32, ``ceil(count * M / 2)`` words consumed.  The
    set's edge values (:func:`_edge_values`) are formed once, and every realization is
    built from them.  At p = 1 every realization is the base: the result is a read-only
    view of ``base.mat`` (stride 0 along ``count``) and nothing is drawn.
    Callers never write into a realization.  A count that is no integer >= 0 (numpy
    integers are integers) raises ``ValueError`` before any draw.
    """
    check_edge_probability(p)
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"realization count must be an integer >= 0, got {count!r}")
    if p == 1.0:
        return np.broadcast_to(base.mat, (count, base.n, base.n))
    return _realized_mats(base, _edge_values(base, rng.bernoulli(p, (count, base.num_edges))))


def sample_realization(base: ShiftOperator, p: float, rng: Rng) -> np.ndarray:
    """Draw one (N, N) realization: each base edge kept independently w.p. ``p``
    (rounded down to a multiple of 2^-32; one 32-bit lane per edge, ``ceil(M / 2)``
    words), or at p = 1 a read-only view of the base, drawing nothing."""
    return sample_realizations(base, p, rng, 1)[0]


def expected_shift(base: ShiftOperator, p: float) -> np.ndarray:
    """Mean realized shift, ``p * S`` for every supported kind (both the
    masked adjacency and the Laplacian of the surviving edges are linear in
    the mask)."""
    check_edge_probability(p)
    return p * base.mat


def expected_shift_square(base: ShiftOperator, p: float) -> np.ndarray:
    """Closed form of ``E[S_k^2]`` for adjacency and Laplacian bases, with
    ``W2`` the squared edge weights (on unit weights, the adjacency itself).

    Adjacency: ``(p S)^2 + p (1-p) diag(W2 1)``.
    Laplacian: ``(p S)^2 + 2 p (1-p) L(W2)``, ``L(W2)`` the Laplacian of ``W2``.
    """
    check_edge_probability(p)
    sbar = p * base.mat
    w2 = (base.mat - np.diag(np.diag(base.mat))) ** 2
    if base.kind == ADJACENCY:
        return sbar @ sbar + p * (1.0 - p) * np.diag(w2.sum(axis=1))
    if base.kind == LAPLACIAN:
        return sbar @ sbar + 2.0 * p * (1.0 - p) * (np.diag(w2.sum(axis=1)) - w2)
    raise UnsupportedKindError("expected_shift_square supports adjacency and laplacian only")


def save_edge_list(shift: ShiftOperator, path) -> None:
    """Write ``N M kind`` then one ``i j`` line per edge (i < j, sorted)."""
    lines = [f"{shift.n} {shift.num_edges} {shift.kind}"]
    lines.extend(f"{i} {j}" for i, j in shift.edges)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path) -> ShiftOperator:
    """Load a graph saved by :func:`save_edge_list`; non-adjacency kinds are
    rebuilt from the edge set (the normalization factor is recomputed).  An oracle
    that no library code calls: the round trip through it gates :func:`save_edge_list`."""
    # a non-ASCII byte decodes to U+FFFD, which no header or edge field accepts
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().split()
        if (len(header) != 3 or not all(t.isdigit() for t in header[:2])
                or header[2] not in KINDS):
            raise ValueError(f"{path} line 1: expected a header 'N M kind' with counts "
                             f">= 0 and kind in {KINDS}, got {' '.join(header)!r}")
        n, m, kind = int(header[0]), int(header[1]), header[2]
        first_line = {}  # undirected edge (min, max) -> line it was read from
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                i, j = (int(t) for t in line.split())
            except ValueError:  # not exactly two tokens, or not integers
                i = j = -1
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"{path} line {lineno}: expected two node indices in "
                                 f"0..{n - 1}, got {line.strip()!r}")
            if i == j:
                raise ValueError(f"{path} line {lineno}: self-loop on node {i}")
            edge = (min(i, j), max(i, j))
            if edge in first_line:
                raise ValueError(f"{path} line {lineno}: edge {i} {j} repeats the edge "
                                 f"on line {first_line[edge]}")
            first_line[edge] = lineno
    if len(first_line) != m:
        raise ValueError(f"{path}: header declares {m} edges, found {len(first_line)}")
    adj = _adjacency_from_pairs(n, np.array(list(first_line), dtype=int).reshape(-1, 2))
    return to_shift(adj, kind)
