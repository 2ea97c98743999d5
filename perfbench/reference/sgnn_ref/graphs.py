"""Graph construction, shift-operator algebra, and random edge sampling.

Everything is dense float64: the graphs this package targets have at most a
couple hundred nodes, where exactness and simplicity beat sparse storage.
A :class:`ShiftOperator` couples a symmetric matrix with its kind tag and
edge list.  A :class:`ShiftRealization` is one sample of the random
edge-sampling model: every edge of the base graph survives independently
with probability ``p``, realized through a symmetric 0/1 mask applied
entrywise to the adjacency.  Laplacian realizations are the Laplacian of the
surviving edge set; realizations of a spectrally normalized adjacency are
masked without re-normalizing (re-normalizing per realization would need
global knowledge, which a distributed deployment does not have).
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .errors import ConfigError, DegenerateInputError, UnsupportedKindError
from .rng import Rng

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"
NORMALIZED_ADJACENCY = "normalized_adjacency"
KINDS = (ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY)


class ShiftOperator:
    """Symmetric N x N shift operator tagged with its kind.

    ``edges`` is the undirected support as an (M, 2) int array with i < j in
    lexicographic order; it always matches the off-diagonal support of
    ``mat`` exactly.
    """

    __slots__ = ("n", "kind", "mat", "edges", "_weights", "_degrees")

    def __init__(self, kind: str, mat: np.ndarray, edges: np.ndarray | None = None):
        if kind not in KINDS:
            raise ConfigError(f"unknown shift kind {kind!r}")
        mat = np.array(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"shift matrix must be square, got {mat.shape}")
        if not np.array_equal(mat, mat.T):
            raise ValueError("shift matrix must be exactly symmetric")
        n = mat.shape[0]
        iu, ju = np.nonzero(np.triu(mat, 1))
        support = np.column_stack([iu, ju])
        if edges is None:
            edges = support
        else:
            edges = np.asarray(edges, dtype=int).reshape(-1, 2)
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            if not np.array_equal(edges, support):
                raise ValueError("edge list does not match the matrix support")
        diag = np.diag(mat)
        if kind in (ADJACENCY, NORMALIZED_ADJACENCY):
            if np.any(diag != 0):
                raise ValueError(f"{kind} must have a zero diagonal")
            if np.any(mat < 0):
                raise ValueError(f"{kind} entries must be >= 0")
        else:  # laplacian
            row_sums = mat.sum(axis=1)
            if np.abs(row_sums).max(initial=0.0) > 1e-12:
                raise ValueError("laplacian rows must sum to 0")
            off = mat - np.diag(diag)
            if np.any(off > 0):
                raise ValueError("laplacian off-diagonal entries must be <= 0")
        mat.setflags(write=False)
        edges = np.ascontiguousarray(edges)
        edges.setflags(write=False)
        self.n = n
        self.kind = kind
        self.mat = mat
        self.edges = edges
        self._weights = np.abs(mat[edges[:, 0], edges[:, 1]]) if len(edges) else np.empty(0)
        degrees = np.zeros(n)
        if len(edges):
            np.add.at(degrees, edges[:, 0], 1.0)
            np.add.at(degrees, edges[:, 1], 1.0)
        self._degrees = degrees

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        """Unweighted degree (edge count) per node of the underlying graph."""
        return self._degrees

    def __repr__(self) -> str:
        return f"ShiftOperator(kind={self.kind!r}, n={self.n}, m={self.num_edges})"


class ShiftRealization:
    """One random-edge-sampling realization of a base shift operator."""

    __slots__ = ("base", "p", "kept", "mat")

    def __init__(self, base: ShiftOperator, p: float, kept: np.ndarray, mat: np.ndarray):
        self.base = base
        self.p = float(p)
        self.kept = kept
        self.mat = mat

    @property
    def mask(self) -> np.ndarray:
        """Symmetric 0/1 mask; entries on non-edges of the base are 0."""
        m = np.zeros((self.base.n, self.base.n))
        edges = self.base.edges[self.kept]
        if len(edges):
            m[edges[:, 0], edges[:, 1]] = 1.0
            m[edges[:, 1], edges[:, 0]] = 1.0
        return m

    @property
    def kept_edges(self) -> np.ndarray:
        return self.base.edges[self.kept]

    def __repr__(self) -> str:
        return f"ShiftRealization(p={self.p}, kept={int(self.kept.sum())}/{self.base.num_edges})"


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
    iu, ju = np.triu_indices(n, 1)
    edge_p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(len(iu)) < edge_p
    return _adjacency_from_pairs(n, np.column_stack([iu[keep], ju[keep]]))


def build_disc_graph(positions: np.ndarray, radius: float) -> ShiftOperator:
    """Disc (communication-radius) graph: edge iff Euclidean distance <= radius."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (N, 2), got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    if radius <= 0:
        raise ConfigError(f"radius must be > 0, got {radius}")
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu, ju = np.triu_indices(len(positions), 1)
    keep = dist[iu, ju] <= radius
    return _adjacency_from_pairs(len(positions), np.column_stack([iu[keep], ju[keep]]))


def to_shift(adj: ShiftOperator, kind: str) -> ShiftOperator:
    """Convert an adjacency to the requested shift kind."""
    if adj.kind != ADJACENCY:
        raise ConfigError(f"to_shift expects an adjacency, got {adj.kind!r}")
    if kind == ADJACENCY:
        return adj
    if kind == LAPLACIAN:
        mat = np.diag(adj.mat.sum(axis=1)) - adj.mat
        return ShiftOperator(LAPLACIAN, mat, adj.edges)
    if kind == NORMALIZED_ADJACENCY:
        lam_max = spectral.eig_sym(adj.mat).values[-1]
        if lam_max <= 0:
            raise DegenerateInputError("cannot normalize a graph with no edges")
        return ShiftOperator(NORMALIZED_ADJACENCY, adj.mat / lam_max, adj.edges)
    raise ConfigError(f"unknown shift kind {kind!r}")


def _realized_mats(base: ShiftOperator, keep: np.ndarray) -> np.ndarray:
    """Dense realized shift matrices for a (B, M) boolean keep array."""
    b = keep.shape[0]
    n = base.n
    mats = np.zeros((b, n, n))
    if base.num_edges == 0:
        return mats
    iu, ju = base.edges[:, 0], base.edges[:, 1]
    if base.kind in (ADJACENCY, NORMALIZED_ADJACENCY):
        vals = keep * base._weights
        mats[:, iu, ju] = vals
        mats[:, ju, iu] = vals
    else:  # laplacian of the surviving edge set
        kept = keep.astype(float)
        mats[:, iu, ju] = -kept
        mats[:, ju, iu] = -kept
        degrees = np.zeros((b, n))
        np.add.at(degrees, (slice(None), iu), kept)
        np.add.at(degrees, (slice(None), ju), kept)
        mats[:, np.arange(n), np.arange(n)] = degrees
    return mats


def sample_realizations(base: ShiftOperator, p: float, rng: Rng, count: int) -> list[ShiftRealization]:
    """Draw ``count`` independent realizations, vectorized over the batch."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    keep = rng.random((count, base.num_edges)) < p
    mats = _realized_mats(base, keep)
    return [ShiftRealization(base, p, keep[i], mats[i]) for i in range(count)]


def sample_realization(base: ShiftOperator, p: float, rng: Rng) -> ShiftRealization:
    """Draw one realization: each base edge kept independently w.p. ``p``."""
    return sample_realizations(base, p, rng, 1)[0]


def expected_shift(base: ShiftOperator, p: float) -> np.ndarray:
    """Mean realized shift, ``p * S`` for every supported kind (both the
    masked adjacency and the Laplacian of the surviving edges are linear in
    the mask)."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    return p * base.mat


def expected_shift_square(base: ShiftOperator, p: float) -> np.ndarray:
    """Closed form of ``E[S_k^2]`` for adjacency and Laplacian bases.

    Adjacency: ``(p S)^2 + p (1-p) D`` with ``D`` the diagonal degree matrix.
    Laplacian: ``(p S)^2 + 2 p (1-p) S``.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    sbar = p * base.mat
    if base.kind == ADJACENCY:
        return sbar @ sbar + p * (1.0 - p) * np.diag(base.degrees)
    if base.kind == LAPLACIAN:
        return sbar @ sbar + 2.0 * p * (1.0 - p) * base.mat
    raise UnsupportedKindError("expected_shift_square supports adjacency and laplacian only")


def save_edge_list(shift: ShiftOperator, path) -> None:
    """Write ``N M kind`` then one ``i j`` line per edge (i < j, sorted)."""
    lines = [f"{shift.n} {shift.num_edges} {shift.kind}"]
    lines.extend(f"{i} {j}" for i, j in shift.edges)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path) -> ShiftOperator:
    """Load a graph saved by :func:`save_edge_list`; non-adjacency kinds are
    rebuilt from the edge set (the normalization factor is recomputed)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed header in {path}")
        n, m, kind = int(header[0]), int(header[1]), header[2]
        pairs = [tuple(map(int, line.split())) for line in fh if line.strip()]
    if len(pairs) != m:
        raise ValueError(f"expected {m} edges, found {len(pairs)}")
    adj = _adjacency_from_pairs(n, np.array(pairs, dtype=int).reshape(-1, 2))
    return to_shift(adj, kind)
