"""Monte-Carlo variance estimation, brute-force enumeration oracles, and the
first-order variance bounds for stochastic filters and networks.

The output variance of a stochastic filter or network is the per-node
variance summed over nodes.  Theory gives a first-order bound of the form

    var <= p * (1 - p) * C * ||x||^2  +  higher order in p(1-p)

where ``C = 2 * alpha * M * K * Cg^2`` for a single filter and

    C = 2 * alpha * M * sum_{l=1..L} F^(2L-3) * Cs^(2l-2) * Cu^(2L-2) * K * Cg^2

for an L-layer, F-feature network.  Here ``M`` is the edge count, ``K`` the
filter order, ``Cg`` the Lipschitz constant of the generalized frequency
response, ``Cu`` the response bound, ``Cs`` the nonlinearity Lipschitz
constant, and ``alpha`` a factor set by the shift kind (1 for adjacency,
2 for Laplacian).  The constant of the higher-order term is unknown, so the
bound is only asserted in the link-stable regime p >= 0.9, where the
first-order term dominates, plus the exact endpoint checks at p in {0, 1}.

The network's Monte-Carlo estimate runs every sample in one forward pass on
``sample_architecture([base] * n_samples, ...)``: below p = 1 a deferred set, sample b
on its own fresh set drawn as the b-th of ``n_samples`` single-set draws would draw
it, the layers run over chunks of samples; at p = 1 the intact graph's shared set.
Both Monte-Carlo entry points stack their samples C-contiguous, (n_samples,
outputs), and share one estimator, so they sum in the same order.

The enumeration oracles are deliberately dumb: they walk every mask (or mask
sequence) with its probability.  They exist to certify the closed forms and
bounds on small instances, so they stay independent of the fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral
from .errors import ConfigError, SizeGuardError, UnsupportedKindError
from .filters import _taps
from .graphs import (ADJACENCY, KINDS, LAPLACIAN, NORMALIZED_ADJACENCY, ShiftOperator,
                     _realized_mats, check_edge_probability)
from .model import (
    NONLINEARITY_LIPSCHITZ,
    FilterTensor,
    SgnnConfig,
    _activate,
    forward,
    sample_architecture,
)
from .rng import Rng

ENUM_GUARD = 2**20

_ALPHA = {
    ADJACENCY: 1.0,
    LAPLACIAN: 2.0,
    # Masking commutes with the fixed spectral scaling and the degree trace
    # only shrinks, so the adjacency factor stays valid (conservative).
    NORMALIZED_ADJACENCY: 1.0,
}


def shift_alpha(kind: str) -> float:
    """Second-moment factor of the shift kind entering the bounds."""
    if kind not in _ALPHA:
        raise UnsupportedKindError(f"unknown shift kind {kind!r} (supported: {KINDS})")
    return _ALPHA[kind]


def _signal(x, base: ShiftOperator) -> np.ndarray:
    """``x`` as a float signal of shape (N,) on ``base`` (``ValueError`` otherwise, also
    for a complex ``x``, whose imaginary part the copy would drop)."""
    if np.iscomplexobj(x):
        raise ValueError("signal entries must be real, got a complex dtype")
    x = np.asarray(x, dtype=float)
    if x.shape != (base.n,):
        raise ValueError(f"signal has shape {x.shape}, expected ({base.n},) for {base.n} nodes")
    return x


def _sample_count(n_samples) -> int:
    """``n_samples`` as an int, an integer (numpy's too) >= 2; ``ConfigError`` otherwise."""
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ConfigError(f"n_samples must be >= 2 and an integer, got {n_samples!r}")
    return int(n_samples)


def _variance_estimate(samples: np.ndarray) -> tuple[float, float]:
    """Per-output variance summed over outputs, and its standard error, from a
    C-contiguous (n_samples, outputs) array (the layout fixes the summation order)."""
    n_samples = len(samples)
    mean = samples.mean(axis=0)
    sq_dev = ((samples - mean) ** 2).sum(axis=1)            # per-sample scalar
    variance = float(sq_dev.sum() / (n_samples - 1))
    scale = n_samples / (n_samples - 1)
    std_error = float(scale * sq_dev.std(ddof=1) / np.sqrt(n_samples))
    return variance, std_error


def mc_variance(evaluate: Callable[[Rng], np.ndarray], n_samples: int,
                rng: Rng) -> tuple[float, float]:
    """Monte-Carlo estimate of the per-node variance summed over nodes.

    ``evaluate`` maps a random stream to one output signal (drawing whatever
    realizations it needs from the stream).  Returns the unbiased variance
    estimate and its standard error (delta method on the per-sample squared
    deviations, which captures cross-node correlation).
    """
    return _variance_estimate(np.stack([np.ravel(np.asarray(evaluate(rng), dtype=float))
                                        for _ in range(_sample_count(n_samples))]))


def variance_std_error(samples: np.ndarray) -> float:
    """Standard error of the sample variance of a scalar sample, from the
    fourth central moment.  ``samples`` is 1-D (``ValueError`` otherwise) with at least
    two entries (``ConfigError`` otherwise)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"samples have shape {samples.shape}, expected a 1-D array")
    n = len(samples)
    if n < 2:
        raise ConfigError("n_samples must be >= 2")
    centered = samples - samples.mean()
    m4 = np.mean(centered**4)
    s2 = samples.var(ddof=1)
    var_of_var = (m4 - (n - 3) / (n - 1) * s2**2) / n
    return float(np.sqrt(max(var_of_var, 0.0)))


def _mask_battery(base: ShiftOperator) -> tuple[np.ndarray, np.ndarray]:
    """All 2^M realized shifts with per-mask keep matrices."""
    m = base.num_edges
    bits = np.arange(2**m, dtype=np.int64)
    keeps = ((bits[:, None] >> np.arange(m)) & 1).astype(bool)
    return keeps, _realized_mats(base, keeps)


def _mask_weights(keeps: np.ndarray, p: float) -> np.ndarray:
    ones = keeps.sum(axis=1)
    m = keeps.shape[1]
    return (p**ones) * ((1.0 - p) ** (m - ones))


def enumerate_expected_shift_square(base: ShiftOperator, p: float,
                                    max_edges: int = 16) -> np.ndarray:
    """E[S_k^2] by exact enumeration of all 2^M edge masks."""
    if base.num_edges > max_edges:
        raise SizeGuardError(f"{base.num_edges} edges exceed the enumeration guard {max_edges}")
    check_edge_probability(p)
    keeps, mats = _mask_battery(base)
    weights = _mask_weights(keeps, p)
    return np.einsum("b,bnm->nm", weights, mats @ mats)


def exact_filter_variance(h, base: ShiftOperator, p: float, x: np.ndarray) -> float:
    """Exact output variance of a stochastic filter by enumerating every mask
    sequence with its probability.  Feasible only while (2^M)^K stays within
    the enumeration guard."""
    h = _taps(h)
    x = _signal(x, base)
    check_edge_probability(p)
    k_order = len(h) - 1
    if k_order == 0:
        return 0.0
    n_masks = 2**base.num_edges
    if float(n_masks) ** k_order > ENUM_GUARD:
        raise SizeGuardError(
            f"(2^{base.num_edges})^{k_order} mask sequences exceed the guard {ENUM_GUARD}")
    keeps, mats = _mask_battery(base)
    weights = _mask_weights(keeps, p)
    mean = np.zeros(base.n)
    second = np.zeros(base.n)

    def walk(depth: int, vec: np.ndarray, partial: np.ndarray, weight: float) -> None:
        nonlocal mean, second
        if weight == 0.0:
            return
        if depth == k_order:
            mean += weight * partial
            second += weight * partial * partial
            return
        for m_idx in range(n_masks):
            nv = mats[m_idx] @ vec
            walk(depth + 1, nv, partial + h[depth + 1] * nv, weight * weights[m_idx])

    walk(0, x, h[0] * x, 1.0)
    per_node = np.maximum(second - mean * mean, 0.0)
    return float(per_node.sum())


def filter_variance_bound(h, base: ShiftOperator, p: float, x: np.ndarray,
                          constants: spectral.FilterConstants) -> float:
    """First-order variance bound of a stochastic graph filter:
    ``p (1-p) * 2 alpha M K Cg^2 * ||x||^2``."""
    check_edge_probability(p)
    h = _taps(h)
    x = _signal(x, base)
    k_order = len(h) - 1
    c = 2.0 * shift_alpha(base.kind) * base.num_edges * k_order * constants.response_lipschitz**2
    return p * (1.0 - p) * c * float(x @ x)


def sgnn_variance_bound(cfg: SgnnConfig, base: ShiftOperator, p: float,
                        x: np.ndarray, constants: spectral.FilterConstants) -> float:
    """First-order variance bound of the network output (evaluated literally
    for every depth, including L = 1)."""
    check_edge_probability(p)
    x = _signal(x, base)
    big_l, big_f = cfg.layers, cfg.features
    cu, cg, cs = (constants.response_bound, constants.response_lipschitz,
                  constants.nonlinearity_lipschitz)
    layer_sum = sum(
        float(big_f) ** (2 * big_l - 3) * cs ** (2 * layer - 2) * cu ** (2 * big_l - 2)
        for layer in range(1, big_l + 1)
    )
    c = 2.0 * shift_alpha(base.kind) * base.num_edges * layer_sum * cfg.order * cg**2
    return p * (1.0 - p) * c * float(np.sum(x * x))


def check_nonlinearity_variance(kind: str, sampler: Callable[[int], np.ndarray],
                                n: int) -> tuple[float, float]:
    """Monte-Carlo variances of a scalar sample before and after the
    nonlinearity; callers assert ``var_out <= var_in`` up to sampling error."""
    if n < 1000:
        raise ConfigError("n must be >= 1000 for a meaningful variance check")
    x = np.asarray(sampler(n), dtype=float)
    if x.shape != (n,):
        raise ValueError(f"sampler returned shape {x.shape}, expected ({n},)")
    y = _activate(kind, x)
    return float(x.var(ddof=1)), float(y.var(ddof=1))


def _constants(filters, base: ShiftOperator) -> spectral.FilterConstants:
    """The largest response bound and Lipschitz constant over ``filters``, (taps, rng)
    pairs, on the default frequency domain of ``base``."""
    domain = spectral.default_domain(base)
    bound, lipschitz = np.max([(spectral.estimate_response_bound(h, domain),
                                spectral.estimate_response_lipschitz(h, domain, rng))
                               for h, rng in filters], axis=0)
    return spectral.FilterConstants(float(bound), float(lipschitz), NONLINEARITY_LIPSCHITZ, domain)


def filter_constants(h, base: ShiftOperator, rng: Rng) -> spectral.FilterConstants:
    """Constants of one filter on the default frequency domain of ``base``."""
    return _constants([(h, rng)], base)


def tensor_constants(tensor: FilterTensor, base: ShiftOperator,
                     rng: Rng) -> spectral.FilterConstants:
    """Max of the per-filter constants over every filter in the tensor
    (conservative: keeps the single-constant bound form); layer l's filters draw in
    turn from one stream, ``rng.child(l)``."""
    children = [rng.child(idx) for idx in range(len(tensor.layers))]
    return _constants([(h, child) for child, arr in zip(children, tensor.layers)
                       for h in arr.reshape(-1, arr.shape[-1])], base)


def mc_sgnn_variance(tensor: FilterTensor, base: ShiftOperator, p: float,
                     x: np.ndarray, n_samples: int, rng: Rng) -> tuple[float, float]:
    """Monte-Carlo output variance of the network over fresh realization
    sets, for one signal ``x`` of shape (N,) (``ValueError`` otherwise), as
    :func:`mc_variance` estimates it, in the one forward pass that the module
    docstring describes."""
    x, n_samples = _signal(x, base), _sample_count(n_samples)
    reals = sample_architecture([base] * n_samples, p, tensor.cfg, rng)
    out, _ = forward(tensor, reals, np.broadcast_to(x[None, :, None], (1, base.n, n_samples)),
                     return_cache=False)
    return _variance_estimate(np.ascontiguousarray(out.reshape(-1, n_samples).T))


REPORT_COLUMNS = (
    "p", "n_samples", "mc_variance", "mc_std_error", "bound_first_order",
    "alpha", "num_edges", "order", "response_lipschitz", "response_bound",
    "nonlinearity_lipschitz", "layers", "features",
)


@dataclass(frozen=True)
class VarianceReport:
    """One row of a variance sweep: Monte-Carlo estimate, first-order bound,
    and the constants that entered the bound."""

    mc_variance: float
    mc_std_error: float
    bound_first_order: float
    constants: dict
    p: float
    n_samples: int

    def __post_init__(self):
        if self.mc_variance < 0:
            raise ConfigError("mc_variance must be >= 0")
        _sample_count(self.n_samples)

    def as_row(self) -> dict:
        """The report as one flat table row over :data:`REPORT_COLUMNS`."""
        return {
            "p": self.p,
            "n_samples": self.n_samples,
            "mc_variance": self.mc_variance,
            "mc_std_error": self.mc_std_error,
            "bound_first_order": self.bound_first_order,
            **self.constants,
        }


def make_sgnn_report(tensor: FilterTensor, base: ShiftOperator, p: float,
                     x: np.ndarray, n_samples: int, rng: Rng,
                     constants: spectral.FilterConstants | None = None) -> VarianceReport:
    """Build a sweep row for one link probability."""
    var, se = mc_sgnn_variance(tensor, base, p, x, n_samples, rng.child(1))  # checks x first
    if constants is None:
        constants = tensor_constants(tensor, base, rng=rng.child(0))
    cfg = tensor.cfg
    bound = sgnn_variance_bound(cfg, base, p, x, constants)
    return VarianceReport(
        mc_variance=var,
        mc_std_error=se,
        bound_first_order=bound,
        constants={
            "alpha": shift_alpha(base.kind),
            "num_edges": base.num_edges,
            "order": cfg.order,
            "response_lipschitz": constants.response_lipschitz,
            "response_bound": constants.response_bound,
            "nonlinearity_lipschitz": constants.nonlinearity_lipschitz,
            "layers": cfg.layers,
            "features": cfg.features,
        },
        p=p,
        n_samples=n_samples,
    )
