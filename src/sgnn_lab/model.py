"""Layered stochastic graph neural network.

The network is a stack of stochastic graph filter banks with a pointwise
nonlinearity after every layer.  Layer 1 maps the input features to the
hidden width, middle layers map hidden to hidden (filter outputs sharing an
input feature are summed to keep the bank from growing exponentially), and
the last layer maps hidden to the output feature count.  Every (layer,
out-feature, in-feature) filter runs on its own independently drawn sequence
of shift realizations, so one forward pass is fixed by a realization set: a
tuple of per-layer (out, in, K, N, N) arrays, ``P = K * sum_l out_l * in_l`` shifts.
A set may also carry a trailing column axis, (out, in, K, N, N, B): then batch
column b diffuses through its own shifts, which is how one pass runs a batch
whose samples live on different graphs (the intact per-sample graphs at p = 1).
A Monte-Carlo pass, in which every sample sees its own fresh set on one graph,
takes a deferred set instead (``sample_architecture(..., columns=B)``): ``forward``
draws column b's set as the b-th of B single-set draws would, builds it in one
buffer per layer that every column refills, runs the column through the layers
with the arithmetic of a B = 1 pass, and runs the head once over the batch.

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
through them; Monte-Carlo sweeps pass ``return_cache=False``, which builds no cache
(a deferred set is forward-only and requires it).
A training loop hands each ``forward`` the previous step's cache, whose arrays
the new pass refills in place when their shapes match, so steady-state steps
allocate no stage, pre-activation or activation arrays.  ``forward`` computes
the nonlinearity's value only; ``backward`` takes its derivative from the
cached pre-activations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .filters import diffusion_stages
from .graphs import KINDS, ShiftOperator, _realized_mats, expected_shift, sample_realizations
from .rng import Rng

NONLINEARITIES = ("relu", "abs", "tanh")
READOUTS = ("none", "pooled", "per_node")

# All three nonlinearities are 1-Lipschitz with sigma(0) = 0.
NONLINEARITY_LIPSCHITZ = 1.0

# a realization set: per layer (out, in, K, N, N) shifts shared by the batch, or
# (out, in, K, N, N, B) with column b's own shifts in [..., b]
Reals = tuple[np.ndarray, ...]


class DeferredSets(NamedTuple):
    """``columns`` fresh realization sets on ``base`` at probability ``p``, not yet
    drawn: :func:`forward` draws them from ``rng`` as it runs the columns, column b's
    set exactly as the b-th of ``columns`` :func:`sample_architecture` calls would
    (a second pass on the same object draws the next ``columns`` sets)."""

    base: ShiftOperator
    p: float
    rng: Rng
    columns: int


def _activate(kind: str, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise nonlinearity, written into ``out`` when given."""
    if kind == "relu":
        return np.maximum(u, 0.0, out=out)
    if kind == "abs":
        return np.abs(u, out=out)
    if kind == "tanh":
        return np.tanh(u, out=out)
    raise ConfigError(f"unknown nonlinearity {kind!r}")


def _slope(kind: str, u: np.ndarray) -> np.ndarray:
    """Entrywise derivative of the nonlinearity at ``u`` (subgradient 0 at kinks),
    computed from ``u`` alone: a cached activation can be the caller's output."""
    if kind == "relu":
        return (u > 0).astype(float)
    if kind == "abs":
        return np.sign(u)
    if kind == "tanh":
        val = np.tanh(u)
        return 1.0 - val * val
    raise ConfigError(f"unknown nonlinearity {kind!r}")


def apply_nonlinearity(kind: str, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise nonlinearity and its derivative (subgradient 0 at kinks)."""
    u = np.asarray(u, dtype=float)
    return _activate(kind, u), _slope(kind, u)


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
    if not (np.isfinite(scale) and scale >= 0):
        raise ConfigError(f"init scale must be finite and >= 0, got {scale}")
    return FilterTensor(cfg, rng.uniform(-scale, scale, cfg.num_params))


def sample_architecture(base: ShiftOperator | Sequence[ShiftOperator], p: float,
                        cfg: SgnnConfig, rng: Rng,
                        columns: int | None = None) -> Reals | DeferredSets:
    """Draw a fresh realization set for one forward pass.

    Each filter's sequence consumes a disjoint, deterministic segment of the
    given counter-based stream, which realizes independent draws per filter.
    At p = 1 each layer is a read-only stride-0 view of ``base.mat`` in the full
    shape and no random numbers are consumed; callers never write into it.
    At p = 1 ``base`` may also be a sequence of B per-column graphs on N nodes
    each: each layer is then a read-only stride-0 view (out, in, K, N, N, B) of
    their stacked matrices, column b on the b-th graph (``ConfigError`` at p < 1).

    With ``columns=B`` the result is a :class:`DeferredSets`, one fresh set per
    batch column on the one graph ``base``, and nothing is drawn here: the
    forward-only pass of :func:`forward` draws column b's set from ``rng`` as the
    b-th of B calls without ``columns`` would (at p = 1 every set is the base view
    and nothing is drawn), so it leaves ``rng`` where those calls would.  A bad
    ``p`` raises ``ConfigError`` and a column count below 1 ``ValueError``.
    """
    if columns is not None:
        if not isinstance(base, ShiftOperator):
            raise ConfigError("a deferred set lives on one base graph")
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"edge probability p={p} outside [0, 1]")
        if not (isinstance(columns, (int, np.integer)) and columns >= 1):
            raise ValueError(f"a deferred set needs an integer column count >= 1, got {columns!r}")
        return DeferredSets(base, p, rng, int(columns))
    if not isinstance(base, ShiftOperator):
        if p != 1.0:
            raise ConfigError(f"per-column graphs need p = 1, got p={p}")
        # an (N, N, B) view of a (B, N, N) stack, so that each column's shift is contiguous
        stack = np.stack([graph.mat for graph in base]).transpose(1, 2, 0)
        return tuple(np.broadcast_to(stack, (o, i, cfg.order) + stack.shape)
                     for o, i in cfg.layer_shapes())
    n, k = base.n, cfg.order
    return tuple(sample_realizations(base, p, rng, o * i * k).reshape(o, i, k, n, n)
                 for o, i in cfg.layer_shapes())


@dataclass
class ForwardCache:
    """Intermediate state of one forward pass, consumed by backward.

    A later :func:`forward` given this cache takes its arrays over and leaves
    it empty, so a superseded cache cannot feed backward.
    """

    tensor: FilterTensor
    reals: Reals | None                 # None once released
    x: np.ndarray | None                # (F_in, N, B)
    stages: list[np.ndarray] = field(default_factory=list)       # (K+1, out or 1, in, N, B)
    pre_activations: list[np.ndarray] = field(default_factory=list)  # (out, N, B)
    activations: list[np.ndarray] = field(default_factory=list)      # (out, N, B)
    pooled_std: np.ndarray | None = None    # (B,) feature std (floored)
    pooled_floored: np.ndarray | None = None    # (B,) True where the floor replaced the std
    pooled_hat: np.ndarray | None = None    # standardized pooled features

    def release(self) -> None:
        """Drop all but the arrays a later pass refills (``backward`` then
        rejects the cache), so that a loop holding it keeps no more alive."""
        self.reals = self.x = self.pooled_std = self.pooled_floored = self.pooled_hat = None

    def _take(self) -> list:
        """Hand the stage, pre-activation and activation arrays over to a new pass,
        as one (stages, u, act) triple per layer, and empty the lists."""
        spare = list(zip(self.stages, self.pre_activations, self.activations))
        self.stages, self.pre_activations, self.activations = [], [], []
        return spare


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
        # np.add.reduce / count is what ndarray.mean computes, without its wrappers
        pooled = np.add.reduce(core, axis=1) / core.shape[1]         # (F_out, B)
        centered = pooled - np.add.reduce(pooled, axis=0) / len(pooled)
        raw_std = np.sqrt(np.add.reduce(centered**2, axis=0) / len(pooled))
        std = np.maximum(raw_std, _STD_FLOOR)
        hat = centered / std
        if cache is not None:
            cache.pooled_std, cache.pooled_hat = std, hat
            cache.pooled_floored = raw_std <= _STD_FLOOR
        return tensor.head_weight @ hat + tensor.head_bias[:, None]
    out = np.einsum("df,fnb->dnb", tensor.head_weight, core)
    return out + tensor.head_bias[:, None, None]


def _check_reals(cfg: SgnnConfig, reals: Reals, n: int, b: int) -> None:
    shapes = cfg.layer_shapes()
    if len(reals) != len(shapes):
        raise ValueError(f"realization set has {len(reals)} layers, the architecture {len(shapes)}")
    for layer, (mats, (out_d, in_d)) in enumerate(zip(reals, shapes)):
        want = (out_d, in_d, cfg.order, n, n)
        shape = np.shape(mats)
        if shape != want and shape != want + (b,):
            raise ValueError(f"layer {layer} realizations have shape {shape}, "
                             f"expected {want} for {n} nodes, or {want + (b,)} for "
                             f"{b} batch columns")


def _layers(tensor: FilterTensor, reals: Reals, x: np.ndarray, spare: list,
            cache: ForwardCache | None) -> np.ndarray:
    """Run the layers of ``tensor`` on the realization set ``reals`` from the input
    batch ``x`` and return the last activation.  Each array of ``spare`` (per layer a
    (stages, u, act) triple of an earlier pass) whose shape matches is refilled in
    place; each layer's arrays are appended to ``cache`` when one is given."""
    cfg = tensor.cfg
    n, b = x.shape[1], x.shape[2]
    current = x
    for layer_idx, (out_d, in_d) in enumerate(cfg.layer_shapes()):
        old_stages, old_u, old_act = spare[layer_idx] if layer_idx < len(spare) else [None] * 3
        if old_u is not None and old_u.shape != (out_d, n, b):
            old_u = old_act = None
        mats = reals[layer_idx]
        # shifts shared along a stride-0 out/in axis (p = 1, mean shifts) diffuse once
        mats = mats[tuple(slice(None, 1 if s == 0 else None) for s in mats.strides[:2])]
        # (out, in, K, N, N[, B]) -> (K, out, in, N, N[, B]): stage k of every filter at
        # once; einsum broadcasts a size-1 out axis of the stages itself
        stages = diffusion_stages(mats.transpose((2, 0, 1, 3, 4, 5)[:mats.ndim]), current[None],
                                  old_stages)
        u = np.einsum("oik,koinb->onb", tensor.layers[layer_idx], stages, out=old_u)
        act = _activate(cfg.nonlinearity, u, old_act)
        if cache is not None:
            cache.stages.append(stages)
            cache.pre_activations.append(u)
            cache.activations.append(act)
        current = act
    return current


def _deferred_layers(tensor: FilterTensor, sets: DeferredSets, x: np.ndarray) -> np.ndarray:
    """The layers on a deferred set, one column at a time; returns the last
    activation (out, N, B).  One buffer per layer holds the current column's set
    (below p = 1 every column refills it, which on one base graph rewrites only
    the edge and diagonal entries), and one column's stage, pre-activation and
    activation arrays are refilled by the next column."""
    cfg, base, p, rng = tensor.cfg, sets.base, sets.p, sets.rng
    n, b = x.shape[1], x.shape[2]
    if n != base.n or b != sets.columns:
        raise ValueError(f"input has shape {x.shape}, the deferred set {sets.columns} "
                         f"columns on {base.n} nodes")
    shapes = [(o, i, cfg.order, n, n) for o, i in cfg.layer_shapes()]
    if p == 1.0:
        bufs, reals = [], tuple(np.broadcast_to(base.mat, shape) for shape in shapes)
    else:
        bufs = [np.zeros((o * i * k, n, n)) for o, i, k, _, _ in shapes]
        reals = tuple(buf.reshape(shape) for buf, shape in zip(bufs, shapes))
    column = np.empty(x.shape[:2] + (1,))
    carry = ForwardCache(tensor=tensor, reals=None, x=None)
    core = np.empty((cfg.out_features, n, b))
    for col in range(b):
        for buf in bufs:
            _realized_mats(base, rng.bernoulli(p, (len(buf), base.num_edges)), out=buf)
        column[..., 0] = x[..., col]
        core[..., col] = _layers(tensor, reals, column, carry._take(), carry)[..., 0]
    return core


def forward(tensor: FilterTensor, reals: Reals | DeferredSets, x: np.ndarray,
            return_cache: bool = True, cache: ForwardCache | None = None):
    """Run the network on a fixed realization set.

    ``x`` is a batch (F_in, N, B) sharing the realization set, as in one
    training step; one sample is the batch ``x[..., None]``.  A set with the
    column axis (out, in, K, N, N, B) runs column b on its own shifts instead;
    stages, pre-activations and activations keep the same layout.  Returns
    ``(output, cache)``, the output batched along its last axis and the cache
    None when ``return_cache`` is false.

    A :class:`DeferredSets` of B columns (``sample_architecture(..., columns=B)``)
    is drawn here, one column at a time, and column b runs on its own set with the
    arithmetic of a B = 1 pass: its output up to the head is bit for bit that of
    B separate draws and passes.  Such a pass is forward-only, so it needs
    ``return_cache=False`` and no ``cache`` (``ValueError`` otherwise, and for an
    input whose node or column count does not match the set, before any draw).

    ``cache`` is the previous pass's cache, given to reuse its memory: every
    stage, pre-activation and activation array of the right shape is refilled
    in place (the results are the same as on new arrays), and ``cache`` is
    left empty, so that ``backward`` rejects it.  The output of a network
    without a readout head is then the cache's last activation array, which
    the next pass on that cache overwrites.
    """
    cfg = tensor.cfg
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] != cfg.in_features:
        raise ValueError(f"input has shape {x.shape}, expected (F_in, N, B) "
                         f"with F_in = {cfg.in_features}")
    if isinstance(reals, DeferredSets):
        if return_cache or cache is not None:
            raise ValueError("a deferred realization set runs forward only: "
                             "pass return_cache=False and no cache")
        return _apply_head(tensor, _deferred_layers(tensor, reals, x)), None
    _check_reals(cfg, reals, x.shape[1], x.shape[2])
    spare = [] if cache is None else cache._take()  # its arrays move to this pass
    cache = ForwardCache(tensor=tensor, reals=reals, x=x) if return_cache else None
    return _apply_head(tensor, _layers(tensor, reals, x, spare, cache), cache), cache


def forward_expected(tensor: FilterTensor, base: ShiftOperator, p: float, x: np.ndarray) -> np.ndarray:
    """Forward pass with every stochastic filter replaced by its
    deterministic counterpart on the mean shift ``p * S`` (batched as :func:`forward`).

    With p = 1 this is the conventional deterministic network on ``S``.  The
    nonlinearity makes this the mean output per filter, not end to end.
    ``ConfigError`` for p outside [0, 1].
    """
    cfg = tensor.cfg
    sbar = expected_shift(base, p)
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
