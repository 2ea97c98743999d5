"""Layered stochastic graph neural network.

The network is a stack of stochastic graph filter banks with a pointwise
nonlinearity after every layer.  Layer 1 maps the input features to the
hidden width, middle layers map hidden to hidden (filter outputs sharing an
input feature are summed to keep the bank from growing exponentially), and
the last layer maps hidden to the output feature count.  Every (layer,
out-feature, in-feature) filter runs on its own independently drawn sequence
of shift realizations, so one forward pass is fixed by a realization set: a
tuple of per-layer (out, in, K, N, N) arrays, ``P = K * sum_l out_l * in_l`` shifts.

All trainable coefficients are one flat vector, the one SGD updates;
:func:`split_params` is its layout (per-layer taps, then the head), and a
:class:`FilterTensor` is that vector with its blocks as views.  Two optional
readout heads turn per-node features into task outputs; their weights are
the trailing block of the vector and train jointly:

* ``pooled``: node-average the features, standardize them across the
  feature axis, then a shared linear map to logits (permutation invariant,
  used for graph-level classification; the standardization keeps the class
  decision insensitive to the feature rescaling that link loss causes);
* ``per_node``: a shared linear map applied at every node (used for
  regression of per-node quantities such as accelerations).

``forward`` takes one input shape, a batch (F_in, N, B), and caches every
diffusion stage and pre-activation because the training module backpropagates
through them; Monte-Carlo sweeps pass ``return_cache=False`` to skip that.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .filters import diffusion_stages
from .graphs import KINDS, ShiftOperator, sample_realizations
from .rng import Rng

NONLINEARITIES = ("relu", "abs", "tanh")
READOUTS = ("none", "pooled", "per_node")

# All three nonlinearities are 1-Lipschitz with sigma(0) = 0.
NONLINEARITY_LIPSCHITZ = 1.0

Reals = tuple[np.ndarray, ...]  # a realization set: per layer (out, in, K, N, N) shifts


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


def split_params(cfg: SgnnConfig, flat: np.ndarray):
    """The parameter layout, and the only code that knows it: views into
    ``flat`` of the per-layer (out, in, K+1) taps in layer order, then of the
    head weight (D, F_out) and bias (D,), both None without a readout head."""
    taps, pos, width = [], 0, cfg.order + 1
    for out_d, in_d in cfg.layer_shapes():
        size = out_d * in_d * width
        taps.append(flat[pos : pos + size].reshape(out_d, in_d, width))
        pos += size
    if cfg.readout == "none":
        return taps, None, None
    size = cfg.readout_dim * cfg.out_features
    return taps, flat[pos : pos + size].reshape(cfg.readout_dim, cfg.out_features), flat[pos + size :]


@dataclass
class FilterTensor:
    """All trainable coefficients as one flat vector, ``cfg.num_params`` long.

    ``layers`` (per-layer (out, in, K+1) taps), ``head_weight`` and
    ``head_bias`` are views into ``flat`` laid out by :func:`split_params`.
    The constructor shares the given vector; :meth:`from_flat` copies it.
    """

    cfg: SgnnConfig
    flat: np.ndarray
    layers: list[np.ndarray] = field(init=False, repr=False)
    head_weight: np.ndarray | None = field(init=False, repr=False)
    head_bias: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = np.ascontiguousarray(self.flat, dtype=float)
        if self.flat.shape != (self.cfg.num_params,):
            raise ConfigError(f"expected {self.cfg.num_params} parameters, got {self.flat.shape}")
        if not np.all(np.isfinite(self.flat)):
            raise ConfigError("parameters contain non-finite values")
        self.layers, self.head_weight, self.head_bias = split_params(self.cfg, self.flat)

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    @classmethod
    def from_flat(cls, cfg: SgnnConfig, flat: np.ndarray) -> "FilterTensor":
        return cls(cfg, np.array(flat, dtype=float))


def init_tensor(cfg: SgnnConfig, rng: Rng, scale: float) -> FilterTensor:
    """I.i.d. uniform(-scale, scale) taps (and head weights, if any)."""
    if scale < 0:
        raise ConfigError(f"init scale must be >= 0, got {scale}")
    return FilterTensor(cfg, rng.uniform(-scale, scale, cfg.num_params))


def sample_architecture(base: ShiftOperator, p: float, cfg: SgnnConfig, rng: Rng) -> Reals:
    """Draw a fresh realization set for one forward pass.

    Each filter's sequence consumes a disjoint, deterministic segment of the
    given counter-based stream, which realizes independent draws per filter.
    At p = 1 each layer is a read-only stride-0 view of ``base.mat`` in the full
    shape and no random numbers are consumed; callers never write into it.
    """
    n, k = base.n, cfg.order
    return tuple(sample_realizations(base, p, rng, o * i * k).reshape(o, i, k, n, n)
                 for o, i in cfg.layer_shapes())


@dataclass
class ForwardCache:
    """Intermediate state of one forward pass, consumed by backward."""

    tensor: FilterTensor
    reals: Reals
    x: np.ndarray                       # (F_in, N, B)
    diffusions: list[np.ndarray] = field(default_factory=list)   # (K+1, out, in, N, B)
    pre_activations: list[np.ndarray] = field(default_factory=list)  # (out, N, B)
    activations: list[np.ndarray] = field(default_factory=list)      # (out, N, B)
    pooled_std: np.ndarray | None = None    # (B,) feature std (floored)
    pooled_hat: np.ndarray | None = None    # standardized pooled features


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
            cache.pooled_std, cache.pooled_hat = std, hat
        return tensor.head_weight @ hat + tensor.head_bias[:, None]
    out = np.einsum("df,fnb->dnb", tensor.head_weight, core)
    return out + tensor.head_bias[:, None, None]


def _check_reals(cfg: SgnnConfig, reals: Reals, n: int) -> None:
    shapes = cfg.layer_shapes()
    if len(reals) != len(shapes):
        raise ValueError(f"realization set has {len(reals)} layers, the architecture {len(shapes)}")
    for layer, (mats, (out_d, in_d)) in enumerate(zip(reals, shapes)):
        want = (out_d, in_d, cfg.order, n, n)
        if np.shape(mats) != want:
            raise ValueError(f"layer {layer} realizations have shape {np.shape(mats)}, "
                             f"expected {want} for {n} nodes")


def forward(tensor: FilterTensor, reals: Reals, x: np.ndarray, return_cache: bool = True):
    """Run the network on a fixed realization set.

    ``x`` is a batch (F_in, N, B) sharing the realization set, as in one
    training step; one sample is the batch ``x[..., None]``.  Returns
    ``(output, cache)``, the output batched along its last axis and the cache
    None when ``return_cache`` is false.
    """
    cfg = tensor.cfg
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] != cfg.in_features:
        raise ValueError(f"input has shape {x.shape}, expected (F_in, N, B) "
                         f"with F_in = {cfg.in_features}")
    _check_reals(cfg, reals, x.shape[1])
    n, b = x.shape[1], x.shape[2]
    cache = ForwardCache(tensor=tensor, reals=reals, x=x)
    current = x
    for layer_idx, (out_d, in_d) in enumerate(cfg.layer_shapes()):
        mats = reals[layer_idx]
        # shifts shared along a stride-0 out/in axis (p = 1, mean shifts) diffuse once
        mats = mats[tuple(slice(None, 1 if s == 0 else None) for s in mats.strides[:2])]
        # (out, in, K, N, N) -> (K, out, in, N, N): stage k of every filter at once
        diffs = diffusion_stages(mats.transpose(2, 0, 1, 3, 4), current[None])
        diffs = np.broadcast_to(diffs, (cfg.order + 1, out_d, in_d, n, b))
        u = np.einsum("oik,koinb->onb", tensor.layers[layer_idx], diffs)
        act, _ = apply_nonlinearity(cfg.nonlinearity, u)
        if return_cache:
            cache.diffusions.append(diffs)
            cache.pre_activations.append(u)
            cache.activations.append(act)
        current = act
    return _apply_head(tensor, current, cache), (cache if return_cache else None)


def forward_expected(tensor: FilterTensor, base: ShiftOperator, p: float, x: np.ndarray) -> np.ndarray:
    """Forward pass with every stochastic filter replaced by its
    deterministic counterpart on the mean shift ``p * S`` (batched as :func:`forward`).

    With p = 1 this is the conventional deterministic network on ``S``.  The
    nonlinearity makes this the mean output per filter, not end to end.
    """
    cfg = tensor.cfg
    sbar = p * base.mat
    reals = tuple(np.broadcast_to(sbar, (out_d, in_d, cfg.order, base.n, base.n))
                  for out_d, in_d in cfg.layer_shapes())
    out, _ = forward(tensor, reals, x, return_cache=False)
    return out


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
    flat = np.ascontiguousarray(tensor.flat, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(struct.pack("<q", flat.size))
        fh.write(flat.tobytes())


def load_checkpoint(path) -> tuple[FilterTensor, str]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip().split()
        if not header or header[0] != _CKPT_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint")
        try:
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
            kind = fields["kind"]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"checkpoint header in {path} is malformed: {exc!r}") from exc
        head, taps = fh.read(8), fh.read(cfg.num_params * 8)
        if (len(head) != 8 or struct.unpack("<q", head)[0] != cfg.num_params
                or len(taps) != cfg.num_params * 8):
            raise ValueError(f"checkpoint in {path} is truncated or inconsistent")
        if fh.read(1):
            raise ValueError(f"checkpoint in {path} has trailing bytes after the tap array")
    flat = np.frombuffer(taps, dtype="<f8")
    return FilterTensor(cfg, flat.astype(float)), kind
