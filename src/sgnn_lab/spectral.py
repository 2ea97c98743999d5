"""Symmetric eigendecomposition, graph Fourier transforms, and filter
frequency responses.

The eigensolver is LAPACK's symmetric driver behind :func:`numpy.linalg.eigh`.
:func:`eig_sym` is its one entry point: it rejects non-square, non-finite
and asymmetric input, and returns an orthonormal eigenvector basis with
ascending eigenvalues, which the rest of the package relies on.

A graph filter with taps ``h = (h_0, ..., h_K)`` has the scalar frequency
response ``h(lam) = sum_k h_k lam^k``.  When every diffusion step runs on a
*different* shift operator, the filter is instead characterized by the
generalized frequency response over a vector of frequencies, one per step:

    h(lam_1, ..., lam_K) = sum_k h_k * lam_1 * ... * lam_k

with the empty product equal to 1.  The gradient of this multilinear map is
what drives the variance bounds in :mod:`sgnn_lab.variance`, so this module
also estimates the two filter constants those bounds need: a sup bound on
``|h(lam)|`` and a Lipschitz constant of the generalized response.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainViolationError
from .filters import _taps, diffusion_stages
from .rng import Rng

# Safety factor applied to estimated constants: conservative constants keep
# the variance-bound checks sound even if an estimate misses the exact sup.
SAFETY = 1.05


@dataclass(frozen=True)
class EigPair:
    """Orthonormal eigenvectors (columns) and ascending eigenvalues."""

    vectors: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class FilterConstants:
    """Constants of a filter used by the variance bounds.

    ``response_bound`` bounds ``|h(lam)|`` on ``domain``;
    ``response_lipschitz`` is a Lipschitz constant of the generalized
    frequency response on ``domain**K``; ``nonlinearity_lipschitz`` is the
    Lipschitz constant of the pointwise nonlinearity (1 for relu/abs/tanh).
    """

    response_bound: float
    response_lipschitz: float
    nonlinearity_lipschitz: float
    domain: tuple[float, float]

    def __post_init__(self):
        _check_domain(self.domain)
        for name in ("response_bound", "response_lipschitz", "nonlinearity_lipschitz"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def _check_domain(domain) -> tuple[float, float]:
    """``domain`` as ``(lo, hi)``: both ends finite and lo <= hi (``ConfigError`` otherwise)."""
    lo, hi = domain
    if not (lo <= hi and np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"frequency domain ({lo}, {hi}) needs finite ends with lo <= hi")
    return lo, hi


def _as_matrix(s) -> np.ndarray:
    return np.asarray(getattr(s, "mat", s), dtype=float)


def eig_sym(s) -> EigPair:
    """Eigendecomposition of a symmetric matrix by LAPACK
    (:func:`numpy.linalg.eigh`).

    Raises ``ValueError`` if the input is not square, has a NaN or infinite
    entry, or is not symmetric to within 1e-10.
    """
    a = _as_matrix(s)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a NaN or infinite entry")
    asym = np.abs(a - a.T).max() if a.size else 0.0
    if asym > 1e-10:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    return EigPair(vectors=vectors, values=values)


def _basis(v) -> np.ndarray:
    return v.vectors if isinstance(v, EigPair) else np.asarray(v, dtype=float)


def gft(v, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: project ``x`` onto the eigenvector basis."""
    basis = _basis(v)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != basis.shape[0]:
        raise ValueError(f"signal length {x.shape[0]} != basis size {basis.shape[0]}")
    return basis.T @ x


def igft(v, xhat: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform.  An oracle that no library code calls: the
    round trip through it gates :func:`gft`."""
    basis = _basis(v)
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape[0] != basis.shape[1]:
        raise ValueError(f"coefficient length {xhat.shape[0]} != basis size {basis.shape[1]}")
    return basis @ xhat


def _taps_and_frequencies(h, lamvec) -> tuple[np.ndarray, np.ndarray]:
    """Taps ``h`` and a vector ``lamvec`` of one frequency per realization, as float
    arrays (``ValueError`` otherwise)."""
    h = _taps(h)
    lamvec = np.asarray(lamvec, dtype=float)
    if lamvec.shape != (len(h) - 1,):
        raise ValueError(f"expected {len(h) - 1} frequencies, got shape {lamvec.shape}")
    return h, lamvec


def freq_response(h, lam):
    """Evaluate ``sum_k h_k lam^k`` (Horner); ``lam`` may be scalar or array."""
    h = _taps(h)
    lam = np.asarray(lam, dtype=float)
    out = np.full(lam.shape, h[-1], dtype=float)
    for k in range(len(h) - 2, -1, -1):
        out = out * lam + h[k]
    return out if out.ndim else float(out)


def generalized_freq_response(h, lamvec) -> float:
    """Evaluate ``sum_k h_k * prod_{j<=k} lam_j`` with the empty product = 1.  An
    oracle that no library code calls: its central differences gate :func:`gfr_partial`."""
    h, lamvec = _taps_and_frequencies(h, lamvec)
    prods = np.concatenate(([1.0], np.cumprod(lamvec)))
    return float(h @ prods)


def gfr_partial(h, lamvec, r: int) -> float:
    """Partial derivative of the generalized frequency response w.r.t. the
    ``r``-th frequency (1-based), i.e.
    ``sum_{k>=r} h_k * prod_{j<r} lam_j * prod_{r<j<=k} lam_j``.  An oracle that no
    library code calls: per candidate, it gates the one-pass gradient of
    :func:`estimate_response_lipschitz`."""
    h, lamvec = _taps_and_frequencies(h, lamvec)
    k_order = len(lamvec)
    if not 1 <= r <= k_order:
        raise ValueError(f"tap index r={r} out of range 1..{k_order}")
    prefix = float(np.prod(lamvec[: r - 1]))
    total = 0.0
    tail = 1.0
    for k in range(r, k_order + 1):
        # tail = prod of lam_{r+1}..lam_k (0-based slice lamvec[r:k])
        if k > r:
            tail *= lamvec[k - 1]
        total += h[k] * prefix * tail
    return float(total)


def default_domain(s) -> tuple[float, float]:
    """Frequency interval covering the spectrum of ``s`` and of every
    edge-masked version of it, inflated by the safety factor."""
    vals = eig_sym(s).values
    rho = SAFETY * max(abs(vals[0]), abs(vals[-1]), 0.0)
    return (-rho, rho)


def estimate_response_bound(h, domain) -> float:
    """Sup of ``|h(lam)|`` over a uniform 512-point grid on ``domain`` times the
    safety factor."""
    lo, hi = _check_domain(domain)
    grid = np.linspace(lo, hi, 512)
    return SAFETY * float(np.abs(freq_response(h, grid)).max())


def _prefix_products(lam: np.ndarray) -> np.ndarray:
    """Per candidate row ``lam`` (C, K), ``prod_{j<r} lam_j`` for r = 1..K."""
    return np.cumprod(np.concatenate([np.ones((len(lam), 1)), lam[:, :-1]], axis=1), axis=1)


@functools.lru_cache(maxsize=4)
def _box_candidates(k_order: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of :func:`estimate_response_lipschitz` that draw nothing, and their
    prefix products: read-only, built once per box ``[lo, hi]**K`` and shared by every
    filter on it."""
    # row r-1 of ``head`` marks the r-1 leading entries that take the value a
    head = np.tri(k_order, k=-1, dtype=bool)
    rows = [np.where(head, a, b) for a, b in itertools.product((lo, hi), repeat=2)]
    if k_order <= 12:  # vertex i takes hi where bit K-1-j of i is set: itertools.product order
        rows.append(np.where(np.arange(2**k_order)[:, None] >> np.arange(k_order)[::-1] & 1, hi, lo))
    lam = np.concatenate(rows)
    prefix = _prefix_products(lam)
    lam.flags.writeable = prefix.flags.writeable = False
    return lam, prefix


def estimate_response_lipschitz(h, domain, rng: Rng) -> float:
    """Lipschitz constant of the generalized frequency response on
    ``domain**K``, estimated as the sup of the gradient norm.

    Candidate points are (a) 256 uniform draws from ``rng``, (b) the structured
    vectors ``(a, ..., a, b, ..., b)`` built from the domain endpoints that
    drive the variance-bound proofs, and (c) for small K, every vertex of the
    box.  The gradient-norm square is coordinate-wise convex, so its maximum
    over the box sits at a vertex and (c) makes the estimate exact before the
    safety factor.  (b) and (c) and their prefix products depend on the box
    alone: they are built once per (K, lo, hi) and shared read-only, so that a
    call draws (a) and runs the gradient over both blocks.
    """
    h = _taps(h)
    k_order = len(h) - 1
    if k_order == 0:
        return 0.0
    lo, hi = _check_domain(domain)
    draws = rng.uniform(lo, hi, (256, k_order))
    best = 0.0  # np.maximum keeps a NaN norm, as the max over all candidates would
    for lam, prefix in ((draws, _prefix_products(draws)),
                        _box_candidates(k_order, float(lo), float(hi))):
        # d/d lam_r = prod_{j<r} lam_j * tail_r, with tail_K = h_K and
        # tail_r = h_r + lam_{r+1} * tail_{r+1} (Horner from the last frequency)
        tails = np.empty_like(lam)
        tails[:, -1] = h[-1]
        for c in range(k_order - 2, -1, -1):
            tails[:, c] = h[c + 1] + lam[:, c + 1] * tails[:, c + 1]
        best = np.maximum(best, np.sqrt(((prefix * tails) ** 2).sum(axis=1)).max())
    return SAFETY * float(best)


def filter_norm_check(h, s, domain: tuple[float, float] | None = None) -> tuple[float, float]:
    """Operator norm of the filter matrix ``sum_k h_k S^k`` together with the
    response bound on ``domain``; callers assert ``norm <= bound``.  An oracle that
    no library code calls: the exact norm gates :func:`estimate_response_bound`.

    With ``domain=None`` the domain is :func:`default_domain` of ``s``.  An explicit
    domain must have finite ends with lo <= hi (``ConfigError`` otherwise); one that
    does not cover the spectrum raises :class:`DomainViolationError`.
    """
    h = _taps(h)
    mat = _as_matrix(s)
    lo, hi = _check_domain(default_domain(mat) if domain is None else domain)
    values = eig_sym(mat).values
    if values[0] < lo - 1e-12 or values[-1] > hi + 1e-12:
        raise DomainViolationError(
            f"spectrum [{values[0]:.6g}, {values[-1]:.6g}] exits domain ({lo}, {hi})"
        )
    # stage k of diffusing the identity is S^k
    filter_mat = np.tensordot(h, diffusion_stages([mat] * (len(h) - 1), np.eye(len(mat))), 1)
    norm_vals = eig_sym(filter_mat).values
    norm = float(max(abs(norm_vals[0]), abs(norm_vals[-1])))
    return norm, estimate_response_bound(h, (lo, hi))
