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

The enumeration oracles are deliberately dumb: they walk every mask (or mask
sequence) with its probability.  They exist to certify the closed forms and
bounds on small instances, so they stay independent of the fast paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral
from .errors import ConfigError, SizeGuardError
from .graphs import ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY, ShiftOperator, _realized_mats
from .model import (
    NONLINEARITY_LIPSCHITZ,
    FilterTensor,
    SgnnConfig,
    apply_nonlinearity,
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
    return _ALPHA[kind]


def mc_variance(evaluate: Callable[[Rng], np.ndarray], n_samples: int,
                rng: Rng) -> tuple[float, float]:
    """Monte-Carlo estimate of the per-node variance summed over nodes.

    ``evaluate`` maps a random stream to one output signal (drawing whatever
    realizations it needs from the stream).  Returns the unbiased variance
    estimate and its standard error (delta method on the per-sample squared
    deviations, which captures cross-node correlation).
    """
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2")
    samples = np.stack([np.ravel(np.asarray(evaluate(rng), dtype=float))
                        for _ in range(n_samples)])
    mean = samples.mean(axis=0)
    sq_dev = ((samples - mean) ** 2).sum(axis=1)            # per-sample scalar
    variance = float(sq_dev.sum() / (n_samples - 1))
    scale = n_samples / (n_samples - 1)
    std_error = scale * float(sq_dev.std(ddof=1)) / np.sqrt(n_samples)
    return variance, std_error


def variance_std_error(samples: np.ndarray) -> float:
    """Standard error of the sample variance of a scalar sample, from the
    fourth central moment."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
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
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    keeps, mats = _mask_battery(base)
    weights = _mask_weights(keeps, p)
    return np.einsum("b,bnm->nm", weights, mats @ mats)


def exact_filter_variance(h, base: ShiftOperator, p: float, x: np.ndarray) -> float:
    """Exact output variance of a stochastic filter by enumerating every mask
    sequence with its probability.  Feasible only while (2^M)^K stays within
    the enumeration guard."""
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=float)
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    if base.n != len(x):
        raise ValueError(f"signal length {len(x)} != node count {base.n}")
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
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=float)
    k_order = len(h) - 1
    c = 2.0 * shift_alpha(base.kind) * base.num_edges * k_order * constants.response_lipschitz**2
    return p * (1.0 - p) * c * float(x @ x)


def sgnn_variance_bound(cfg: SgnnConfig, base: ShiftOperator, p: float,
                        x: np.ndarray, constants: spectral.FilterConstants) -> float:
    """First-order variance bound of the network output (evaluated literally
    for every depth, including L = 1)."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    x = np.asarray(x, dtype=float)
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
    y, _ = apply_nonlinearity(kind, x)
    return float(x.var(ddof=1)), float(y.var(ddof=1))


def filter_constants(h, base: ShiftOperator, n_samples: int = 256,
                     rng: Rng | None = None) -> spectral.FilterConstants:
    """Constants of one filter on the default frequency domain of ``base``."""
    domain = spectral.default_domain(base)
    return spectral.FilterConstants(
        response_bound=spectral.estimate_response_bound(h, domain),
        response_lipschitz=spectral.estimate_response_lipschitz(h, domain, n_samples, rng),
        nonlinearity_lipschitz=NONLINEARITY_LIPSCHITZ,
        domain=domain,
    )


def tensor_constants(tensor: FilterTensor, base: ShiftOperator, n_samples: int = 256,
                     rng: Rng | None = None) -> spectral.FilterConstants:
    """Max of the per-filter constants over every filter in the tensor
    (conservative: keeps the single-constant bound form)."""
    domain = spectral.default_domain(base)
    cu = 0.0
    cg = 0.0
    for idx, arr in enumerate(tensor.layers):
        child = None if rng is None else rng.child(idx)
        for f in range(arr.shape[0]):
            for g in range(arr.shape[1]):
                h = arr[f, g]
                cu = max(cu, spectral.estimate_response_bound(h, domain))
                cg = max(cg, spectral.estimate_response_lipschitz(h, domain, n_samples, child))
    return spectral.FilterConstants(
        response_bound=cu,
        response_lipschitz=cg,
        nonlinearity_lipschitz=NONLINEARITY_LIPSCHITZ,
        domain=domain,
    )


def mc_sgnn_variance(tensor: FilterTensor, base: ShiftOperator, p: float,
                     x: np.ndarray, n_samples: int, rng: Rng) -> tuple[float, float]:
    """Monte-Carlo output variance of the network over fresh realization
    sets."""

    def evaluate(r: Rng) -> np.ndarray:
        reals = sample_architecture(base, p, tensor.cfg, r)
        out, _ = forward(tensor, reals, x, return_cache=False)
        return np.ravel(out)

    return mc_variance(evaluate, n_samples, rng)


_REPORT_COLUMNS = [
    "p", "n_samples", "mc_variance", "mc_std_error", "bound_first_order",
    "alpha", "num_edges", "order", "response_lipschitz", "response_bound",
    "nonlinearity_lipschitz", "layers", "features",
]


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
        if self.n_samples < 2:
            raise ConfigError("n_samples must be >= 2")

    def to_json(self) -> str:
        payload = {
            "p": self.p,
            "n_samples": self.n_samples,
            "mc_variance": self.mc_variance,
            "mc_std_error": self.mc_std_error,
            "bound_first_order": self.bound_first_order,
            "constants": dict(self.constants),
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def csv_header() -> str:
        return ",".join(_REPORT_COLUMNS)

    def to_csv_row(self) -> str:
        merged = {
            "p": self.p,
            "n_samples": self.n_samples,
            "mc_variance": self.mc_variance,
            "mc_std_error": self.mc_std_error,
            "bound_first_order": self.bound_first_order,
            **self.constants,
        }
        return ",".join(repr(merged.get(col, "")) for col in _REPORT_COLUMNS)


def make_sgnn_report(tensor: FilterTensor, base: ShiftOperator, p: float,
                     x: np.ndarray, n_samples: int, rng: Rng,
                     constants: spectral.FilterConstants | None = None) -> VarianceReport:
    """Build a sweep row for one link probability."""
    if constants is None:
        constants = tensor_constants(tensor, base, rng=rng.child(0))
    var, se = mc_sgnn_variance(tensor, base, p, x, n_samples, rng.child(1))
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
