"""Layered stochastic graph neural network.

The network is a stack of stochastic graph filter banks with a pointwise
nonlinearity after every layer.  Layer 1 maps the input features to the
hidden width, middle layers map hidden to hidden (filter outputs sharing an
input feature are summed to keep the bank from growing exponentially), and
the last layer maps hidden to the output feature count.  Every (layer,
out-feature, in-feature) filter runs on its own independently drawn sequence
of shift realizations, so one forward pass is fixed by a realization set of
``P = K * sum_l out_l * in_l`` sampled shifts.

Two optional readout heads turn per-node features into task outputs; their
weights live in the trailing block of the filter tensor and train jointly:

* ``pooled``: node-average the features, standardize them across the
  feature axis, then a shared linear map to logits (permutation invariant,
  used for graph-level classification; the standardization keeps the class
  decision insensitive to the feature rescaling that link loss causes);
* ``per_node``: a shared linear map applied at every node (used for
  regression of per-node quantities such as accelerations).

``forward`` caches every diffusion stage and pre-activation because the
training module backpropagates through them; Monte-Carlo sweeps pass
``return_cache=False`` to skip the bookkeeping.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .graphs import KINDS, ShiftOperator, ShiftRealization, _realized_mats
from .rng import Rng

NONLINEARITIES = ("relu", "abs", "tanh")
READOUTS = ("none", "pooled", "per_node")

# All three nonlinearities are 1-Lipschitz with sigma(0) = 0.
NONLINEARITY_LIPSCHITZ = 1.0


def apply_nonlinearity(kind: str, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise nonlinearity and its derivative (subgradient 0 at kinks)."""
    u = np.asarray(u, dtype=float)
    if kind == "relu":
        return np.maximum(u, 0.0), (u > 0).astype(float)
    if kind == "abs":
        return np.abs(u), np.sign(u)
    if kind == "tanh":
        t = np.tanh(u)
        return t, 1.0 - t * t
    raise ConfigError(f"unknown nonlinearity {kind!r}")


@dataclass(frozen=True)
class SgnnConfig:
    """Architecture hyperparameters.

    ``features`` is the hidden width F, ``order`` the filter order K.  For a
    single-layer network the one layer maps ``in_features`` directly to
    ``out_features`` (a bank of parallel filters).
    """

    layers: int
    features: int
    order: int
    nonlinearity: str = "relu"
    in_features: int = 1
    out_features: int = 1
    readout: str = "none"
    readout_dim: int = 0

    def __post_init__(self):
        if self.layers < 1 or self.features < 1 or self.in_features < 1 or self.out_features < 1:
            raise ConfigError("layer and feature counts must be >= 1")
        if self.order < 0:
            raise ConfigError("filter order must be >= 0")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.readout not in READOUTS:
            raise ConfigError(f"unknown readout {self.readout!r}")
        if self.readout != "none" and self.readout_dim < 1:
            raise ConfigError("readout_dim must be >= 1 when a readout head is attached")
        if self.readout == "none" and self.readout_dim != 0:
            raise ConfigError("readout_dim must be 0 without a readout head")

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(out, in) feature counts per layer."""
        shapes = []
        for layer in range(1, self.layers + 1):
            in_d = self.in_features if layer == 1 else self.features
            out_d = self.out_features if layer == self.layers else self.features
            shapes.append((out_d, in_d))
        return shapes

    @property
    def num_shift_samples(self) -> int:
        """P, the number of sampled shifts fixing one forward pass."""
        return self.order * sum(o * i for o, i in self.layer_shapes())

    @property
    def num_params(self) -> int:
        taps = (self.order + 1) * sum(o * i for o, i in self.layer_shapes())
        if self.readout != "none":
            taps += self.readout_dim * (self.out_features + 1)
        return taps


@dataclass
class FilterTensor:
    """All trainable coefficients: per-layer tap arrays of shape
    (out, in, K+1) plus the optional readout head as the trailing block."""

    cfg: SgnnConfig
    layers: list[np.ndarray]
    head_weight: np.ndarray | None = None
    head_bias: np.ndarray | None = None

    def __post_init__(self):
        shapes = self.cfg.layer_shapes()
        if len(self.layers) != len(shapes):
            raise ConfigError(f"expected {len(shapes)} layer arrays, got {len(self.layers)}")
        for idx, (arr, (out_d, in_d)) in enumerate(zip(self.layers, shapes)):
            want = (out_d, in_d, self.cfg.order + 1)
            if arr.shape != want:
                raise ConfigError(f"layer {idx} taps have shape {arr.shape}, expected {want}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"layer {idx} taps contain non-finite values")
        if self.cfg.readout != "none":
            want_w = (self.cfg.readout_dim, self.cfg.out_features)
            if self.head_weight is None or self.head_weight.shape != want_w:
                raise ConfigError(f"readout head weight must have shape {want_w}")
            if self.head_bias is None or self.head_bias.shape != (self.cfg.readout_dim,):
                raise ConfigError(f"readout head bias must have shape ({self.cfg.readout_dim},)")
        elif self.head_weight is not None or self.head_bias is not None:
            raise ConfigError("head arrays given but cfg has no readout")

    def flatten(self) -> np.ndarray:
        parts = [arr.ravel() for arr in self.layers]
        if self.head_weight is not None:
            parts.append(self.head_weight.ravel())
            parts.append(self.head_bias.ravel())
        return np.concatenate(parts) if parts else np.empty(0)

    @classmethod
    def from_flat(cls, cfg: SgnnConfig, flat: np.ndarray) -> "FilterTensor":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (cfg.num_params,):
            raise ConfigError(f"expected {cfg.num_params} parameters, got {flat.shape}")
        layers = []
        pos = 0
        for out_d, in_d in cfg.layer_shapes():
            size = out_d * in_d * (cfg.order + 1)
            layers.append(flat[pos : pos + size].reshape(out_d, in_d, cfg.order + 1).copy())
            pos += size
        head_w = head_b = None
        if cfg.readout != "none":
            size = cfg.readout_dim * cfg.out_features
            head_w = flat[pos : pos + size].reshape(cfg.readout_dim, cfg.out_features).copy()
            pos += size
            head_b = flat[pos : pos + cfg.readout_dim].copy()
        return cls(cfg, layers, head_w, head_b)

    @classmethod
    def zeros(cls, cfg: SgnnConfig) -> "FilterTensor":
        return cls.from_flat(cfg, np.zeros(cfg.num_params))

    def copy(self) -> "FilterTensor":
        head_w = None if self.head_weight is None else self.head_weight.copy()
        head_b = None if self.head_bias is None else self.head_bias.copy()
        return FilterTensor(self.cfg, [arr.copy() for arr in self.layers], head_w, head_b)


def init_tensor(cfg: SgnnConfig, rng: Rng, scale: float) -> FilterTensor:
    """I.i.d. uniform(-scale, scale) taps (and head weights, if any)."""
    if scale < 0:
        raise ConfigError(f"init scale must be >= 0, got {scale}")
    return FilterTensor.from_flat(cfg, rng.uniform(-scale, scale, cfg.num_params))


class RealizationSet:
    """The ordered shift realizations fixing one forward pass: one length-K
    sequence per (layer, out-feature, in-feature) filter."""

    __slots__ = ("base", "p", "cfg", "layer_mats", "layer_keeps")

    def __init__(self, base: ShiftOperator, p: float, cfg: SgnnConfig,
                 layer_mats: list[np.ndarray], layer_keeps: list[np.ndarray]):
        self.base = base
        self.p = float(p)
        self.cfg = cfg
        self.layer_mats = tuple(layer_mats)
        self.layer_keeps = tuple(layer_keeps)

    @property
    def num_shift_samples(self) -> int:
        return sum(int(np.prod(m.shape[:3])) for m in self.layer_mats)

    def sequence(self, layer: int, f: int, g: int) -> list[ShiftRealization]:
        """Materialize the realization sequence of one filter."""
        mats = self.layer_mats[layer]
        keeps = self.layer_keeps[layer]
        return [
            ShiftRealization(self.base, self.p, keeps[f, g, k], mats[f, g, k])
            for k in range(mats.shape[2])
        ]

    def __repr__(self) -> str:
        return f"RealizationSet(p={self.p}, samples={self.num_shift_samples})"


def sample_architecture(base: ShiftOperator, p: float, cfg: SgnnConfig, rng: Rng) -> RealizationSet:
    """Draw a fresh realization set for one forward pass.

    Each filter's sequence consumes a disjoint, deterministic segment of the
    given counter-based stream, which realizes independent draws per filter.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability p={p} outside [0, 1]")
    n, m = base.n, base.num_edges
    layer_mats, layer_keeps = [], []
    for out_d, in_d in cfg.layer_shapes():
        keep = rng.random((out_d, in_d, cfg.order, m)) < p
        mats = _realized_mats(base, keep.reshape(-1, m)).reshape(out_d, in_d, cfg.order, n, n)
        layer_mats.append(mats)
        layer_keeps.append(keep)
    return RealizationSet(base, p, cfg, layer_mats, layer_keeps)


@dataclass
class ForwardCache:
    """Intermediate state of one forward pass, consumed by backward."""

    tensor: FilterTensor
    reals: RealizationSet | None
    x: np.ndarray                       # (F_in, N, B)
    diffusions: list[np.ndarray] = field(default_factory=list)   # (K+1, out, in, N, B)
    pre_activations: list[np.ndarray] = field(default_factory=list)  # (out, N, B)
    activations: list[np.ndarray] = field(default_factory=list)      # (out, N, B)
    pooled: np.ndarray | None = None        # (F_out, B) node-averaged features
    pooled_std: np.ndarray | None = None    # (B,) feature std (floored)
    pooled_hat: np.ndarray | None = None    # standardized pooled features
    squeeze: str = "batched"


def _normalize_input(cfg: SgnnConfig, x: np.ndarray) -> tuple[np.ndarray, str]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if cfg.in_features != 1:
            raise ValueError(f"1-D signal given but the model takes {cfg.in_features} features")
        return x[None, :, None], "signal"
    if x.ndim == 2:
        if x.shape[0] != cfg.in_features:
            raise ValueError(f"expected {cfg.in_features} input features, got {x.shape[0]}")
        return x[:, :, None], "single"
    if x.ndim == 3:
        if x.shape[0] != cfg.in_features:
            raise ValueError(f"expected {cfg.in_features} input features, got {x.shape[0]}")
        return x, "batched"
    raise ValueError(f"input must be 1-D, 2-D, or 3-D, got shape {x.shape}")


def _shape_output(out: np.ndarray, squeeze: str, pooled: bool) -> np.ndarray:
    if squeeze == "batched":
        return out
    out = out[..., 0]
    if squeeze == "signal" and not pooled and out.shape[0] == 1:
        return out[0]
    return out


_STD_FLOOR = 1e-12


def _apply_head(tensor: FilterTensor, core: np.ndarray, cache: "ForwardCache | None" = None) -> np.ndarray:
    cfg = tensor.cfg
    if cfg.readout == "none":
        return core
    if cfg.readout == "pooled":
        # Node-average, then standardize across the feature axis before the
        # linear map.  Link loss rescales and uniformly shifts the pooled
        # features; standardizing removes both nuisance directions so the
        # class decision rides on the feature profile that survives them.
        pooled = core.mean(axis=1)                                   # (F_out, B)
        centered = pooled - pooled.mean(axis=0)
        std = np.maximum(np.sqrt((centered**2).mean(axis=0)), _STD_FLOOR)
        hat = centered / std
        if cache is not None:
            cache.pooled, cache.pooled_std, cache.pooled_hat = pooled, std, hat
        return tensor.head_weight @ hat + tensor.head_bias[:, None]
    out = np.einsum("df,fnb->dnb", tensor.head_weight, core)
    return out + tensor.head_bias[:, None, None]


def _check_reals(cfg: SgnnConfig, reals: RealizationSet, n: int) -> None:
    if reals.base.n != n:
        raise ValueError(f"realizations built for {reals.base.n} nodes, signal has {n}")
    shapes = cfg.layer_shapes()
    if len(reals.layer_mats) != len(shapes):
        raise ValueError("realization set does not match the architecture depth")
    for mats, (out_d, in_d) in zip(reals.layer_mats, shapes):
        if mats.shape[:3] != (out_d, in_d, cfg.order):
            raise ValueError(
                f"realization block {mats.shape[:3]} does not match layer ({out_d}, {in_d}, K={cfg.order})"
            )


def forward(tensor: FilterTensor, reals: RealizationSet, x: np.ndarray,
            return_cache: bool = True):
    """Run the network on a fixed realization set.

    ``x`` may be a bare signal (N,), one sample (F_in, N), or a batch
    (F_in, N, B); the batch shares the realization set, matching a training
    iteration that processes every sample on one fixed architecture draw.
    Returns ``(output, cache)``; the cache is None when ``return_cache`` is
    false.
    """
    cfg = tensor.cfg
    xs, squeeze = _normalize_input(cfg, x)
    _check_reals(cfg, reals, xs.shape[1])
    n, b = xs.shape[1], xs.shape[2]
    cache = ForwardCache(tensor=tensor, reals=reals, x=xs, squeeze=squeeze)
    current = xs
    for layer_idx, (out_d, in_d) in enumerate(cfg.layer_shapes()):
        mats = reals.layer_mats[layer_idx]
        diffs = np.empty((cfg.order + 1, out_d, in_d, n, b))
        diffs[0] = np.broadcast_to(current[None], (out_d, in_d, n, b))
        for k in range(1, cfg.order + 1):
            diffs[k] = np.matmul(mats[:, :, k - 1], diffs[k - 1])
        u = np.einsum("oik,koinb->onb", tensor.layers[layer_idx], diffs)
        act, _ = apply_nonlinearity(cfg.nonlinearity, u)
        if return_cache:
            cache.diffusions.append(diffs)
            cache.pre_activations.append(u)
            cache.activations.append(act)
        current = act
    out = _apply_head(tensor, current, cache)
    return _shape_output(out, squeeze, cfg.readout == "pooled"), (cache if return_cache else None)


def forward_expected(tensor: FilterTensor, base: ShiftOperator, p: float, x: np.ndarray) -> np.ndarray:
    """Forward pass with every stochastic filter replaced by its
    deterministic counterpart on the mean shift ``p * S``.

    With p = 1 this is the conventional deterministic network on ``S``.  The
    nonlinearity makes this the mean output per filter, not end to end.
    """
    cfg = tensor.cfg
    xs, squeeze = _normalize_input(cfg, x)
    if base.n != xs.shape[1]:
        raise ValueError(f"graph has {base.n} nodes, signal has {xs.shape[1]}")
    sbar = p * base.mat
    current = xs
    for layer_idx in range(cfg.layers):
        stages = [current]
        for _ in range(cfg.order):
            stages.append(np.matmul(sbar, stages[-1]))
        u = np.einsum("oik,kinb->onb", tensor.layers[layer_idx], np.stack(stages))
        current, _ = apply_nonlinearity(cfg.nonlinearity, u)
    out = _apply_head(tensor, current)
    return _shape_output(out, squeeze, cfg.readout == "pooled")


_CKPT_MAGIC = "sgnn-checkpoint-v1"


def save_checkpoint(tensor: FilterTensor, path, kind: str = "adjacency") -> None:
    """Self-describing header line plus the flat tap array as little-endian
    64-bit floats."""
    if kind not in KINDS:
        raise ConfigError(f"unknown shift kind {kind!r}")
    cfg = tensor.cfg
    header = (
        f"{_CKPT_MAGIC} layers={cfg.layers} features={cfg.features} order={cfg.order} "
        f"in_features={cfg.in_features} out_features={cfg.out_features} "
        f"nonlinearity={cfg.nonlinearity} readout={cfg.readout} readout_dim={cfg.readout_dim} "
        f"kind={kind}\n"
    )
    flat = np.ascontiguousarray(tensor.flatten(), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(struct.pack("<q", flat.size))
        fh.write(flat.tobytes())


def load_checkpoint(path) -> tuple[FilterTensor, str]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip().split()
        if not header or header[0] != _CKPT_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint")
        fields = dict(item.split("=", 1) for item in header[1:])
        cfg = SgnnConfig(
            layers=int(fields["layers"]),
            features=int(fields["features"]),
            order=int(fields["order"]),
            nonlinearity=fields["nonlinearity"],
            in_features=int(fields["in_features"]),
            out_features=int(fields["out_features"]),
            readout=fields["readout"],
            readout_dim=int(fields["readout_dim"]),
        )
        (count,) = struct.unpack("<q", fh.read(8))
        flat = np.frombuffer(fh.read(count * 8), dtype="<f8")
        if flat.size != count or count != cfg.num_params:
            raise ValueError(f"checkpoint in {path} is truncated or inconsistent")
    return FilterTensor.from_flat(cfg, flat.astype(float)), fields["kind"]
