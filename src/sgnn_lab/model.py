"""Layered stochastic graph neural network: the forward pass, its cache, and the
exact gradient through it.

The network is a stack of stochastic graph filter banks with a pointwise
nonlinearity after every layer.  Layer 1 maps the input features to the
hidden width, middle layers map hidden to hidden (filter outputs sharing an
input feature are summed to keep the bank from growing exponentially), and
the last layer maps hidden to the output feature count.  Every (layer,
out-feature, in-feature) filter runs on its own independently drawn sequence
of shift realizations, so one forward pass is fixed by a realization set: a
tuple of per-layer (out, in, K, N, N) arrays, ``P = K * sum_l out_l * in_l`` shifts,
shared by every column of a batch.  A pass in which every column has its own set
(a fresh set per sample on one graph below p = 1, or each sample on its own graph)
takes a deferred set, :class:`DeferredSets`: :func:`forward` says how it runs one
(below p = 1, a layer's columns in cache-sized groups, each group's shifts built and
diffused one stage at a time, one diffusion call per group), and :func:`_contract_taps`
how a layer contracts its taps with its stages.

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
diffusion stage and pre-activation, through which ``backward`` propagates the
cost gradient with the sampled shifts held constant; Monte-Carlo sweeps pass
``return_cache=False``, which builds no cache.
A training loop hands each ``forward`` the previous step's cache, whose arrays
the new pass refills in place when their shapes match, so steady-state steps
allocate no stage, pre-activation or activation arrays.  ``forward`` computes
the nonlinearity's value only; ``backward`` takes its derivative from the
cached pre-activations.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, StaleCacheError
from .filters import diffusion_stages
from .graphs import (KINDS, ShiftOperator, _realized_mats, check_edge_probability, expected_shift,
                     sample_realizations)
from .rng import Rng

NONLINEARITIES = ("relu", "abs", "tanh")
READOUTS = ("none", "pooled", "per_node")

# All three nonlinearities are 1-Lipschitz with sigma(0) = 0.
NONLINEARITY_LIPSCHITZ = 1.0

# a realization set: per layer (out, in, K, N, N) shifts shared by the batch
# (per-column sets are a DeferredSets)
Reals = tuple[np.ndarray, ...]


class DeferredSets(NamedTuple):
    """Realization sets at probability ``p``, not yet drawn, one per batch column,
    column b's on ``graphs[b]``: :func:`forward` draws them from ``rng``, column b's
    set exactly as the b-th of B :func:`sample_architecture` calls on its graph would
    (a second pass on the same object draws the next B sets).  At p = 1 every set is
    its graph and nothing is drawn."""

    graphs: tuple[ShiftOperator, ...]
    p: float
    rng: Rng


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
    """Entrywise nonlinearity and its derivative (subgradient 0 at kinks).  An oracle
    that no library code calls: it gates :func:`_activate` and :func:`_slope`, the
    nonlinearity of ``forward`` and the slope of ``backward``."""
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
    in_features: int = 1
    out_features: int = 1
    nonlinearity: str = "relu"
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
        widths = [self.in_features] + [self.features] * (self.layers - 1) + [self.out_features]
        return list(zip(widths[1:], widths[:-1]))

    def _filter_count(self) -> int:
        """``sum(out * in)`` over :meth:`layer_shapes` in closed form: checking a
        checkpoint header's layer count costs nothing."""
        if self.layers == 1:
            return self.out_features * self.in_features
        return self.features * (self.in_features + (self.layers - 2) * self.features
                                + self.out_features)

    @property
    def num_shift_samples(self) -> int:
        """P, the number of sampled shifts fixing one forward pass."""
        return self.order * self._filter_count()

    @property
    def num_params(self) -> int:
        taps = (self.order + 1) * self._filter_count()
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


def _check_node_counts(graphs: tuple) -> None:
    if len({g.n for g in graphs}) != 1:
        raise ValueError(f"per-column graphs need one node count, got {[g.n for g in graphs]}")


def sample_architecture(base: ShiftOperator | Sequence[ShiftOperator], p: float,
                        cfg: SgnnConfig, rng: Rng) -> Reals | DeferredSets:
    """Draw a fresh realization set for one forward pass.

    Each filter's sequence consumes a disjoint, deterministic segment of the
    given counter-based stream, which realizes independent draws per filter.
    At p = 1 each layer is a read-only stride-0 view of ``base.mat`` in the full
    shape and no random numbers are consumed; callers never write into it.

    A sequence of B graphs on N nodes each as ``base`` gives a :class:`DeferredSets`
    instead, one set per batch column, column b on the b-th graph, and nothing is
    drawn here: :func:`forward` draws column b's set from ``rng`` as the b-th of B
    calls on its graph would (at p = 1 nothing), so it leaves ``rng`` where those calls
    would.  At p = 1 a sequence whose graphs are all one object gives that graph's
    shared set above: every column's set is that graph.  A bad ``p`` raises
    ``ConfigError``; graphs that are none or of mixed node counts, ``ValueError``.
    """
    check_edge_probability(p)
    if not isinstance(base, ShiftOperator):
        graphs = tuple(base)
        _check_node_counts(graphs)
        if p < 1.0 or any(g is not graphs[0] for g in graphs):
            return DeferredSets(graphs, p, rng)
        base = graphs[0]
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
    reals: Reals | DeferredSets | None  # None once released
    x: np.ndarray | None                # (F_in, N, B)
    keeps: list | None = None           # a DeferredSets' keeps, per column and layer (None at 0)
    stages: list[np.ndarray] = field(default_factory=list)       # (K+1, out or 1, in, N, B)
    pre_activations: list[np.ndarray] = field(default_factory=list)  # (out, N, B)
    activations: list[np.ndarray] = field(default_factory=list)      # (out, N, B)
    pooled_std: np.ndarray | None = None    # (B,) feature std (floored)
    pooled_hat: np.ndarray | None = None    # standardized pooled features

    def release(self) -> None:
        """Drop all but the arrays a later pass refills (``backward`` then
        rejects the cache), so that a loop holding it keeps no more alive."""
        self.reals = self.x = self.keeps = None
        self.pooled_std = self.pooled_hat = None

    def _take(self) -> list:
        """Hand the stage, pre-activation and activation arrays over to a new pass,
        as one (stages, u, act) triple per layer, and empty the lists."""
        spare = list(zip(self.stages, self.pre_activations, self.activations))
        self.stages, self.pre_activations, self.activations = [], [], []
        return spare


_STD_FLOOR = 1e-12
# columns per layer-major pass of a forward-only deferred set below p = 1
_CHUNK_COLUMNS = 32
# bytes of one stage's shifts per group of columns that one diffusion call runs, on a
# deferred set below p = 1 (at least one column): 64-filter source and 192-filter flock
# columns (205 and 221 KB a stage) run one per group, 8-filter variance columns (26 KB)
# ten.  Stage groups of 1 MiB (5 source and 4 flock columns) were slower in 3 of 3
# benchmark pairs each: source evaluation 0.579 -> 0.606 of the reference's time, flock
# training 0.338 -> 0.354
_GROUP_BYTES = 2**18


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


def _draw_column(sets: DeferredSets, shapes: list, col: int) -> list:
    """Column ``col``'s keeps below p = 1, per layer of ``shapes`` (out, in, K, N, N) an
    (out * in * K, M) array drawn as :func:`sample_architecture` on its graph draws it."""
    m = sets.graphs[col].num_edges
    return [sets.rng.bernoulli(sets.p, (o * i * k, m)) for o, i, k, _, _ in shapes]


def _column_set(graph: ShiftOperator, keep: np.ndarray, slots: np.ndarray, held: list,
                lo: int = 0, hi: int = 1) -> np.ndarray:
    """Consecutive columns' shifts on ``graph`` built from ``keep`` (their rows in slot
    order) into slots ``lo`` to ``hi`` of ``slots``, one (..., N, N) block per column, and
    viewed there.  ``held[j]`` is the graph slot j was last built on, None while it holds
    zeros: a slot refilled on that graph has only its edge and diagonal entries rewritten;
    one that held another graph is zeroed first."""
    for j in range(lo, hi):
        if held[j] is not None and held[j] is not graph:
            slots[j].fill(0.0)
        held[j] = graph
    return _realized_mats(graph, keep, out=slots[lo:hi].reshape(-1, graph.n, graph.n))


class _StageShifts:
    """A group's K stage shifts as :func:`diffusion_stages` reads them, item s for stage
    s + 1: reading item s builds stage s + 1 of each run of ``runs`` (first slot, the slot
    past its last, graph, keeps) into ``slots`` and returns ``view``, a view of them; read
    again before another item, it is not rebuilt."""

    def __init__(self, order: int, runs: list, slots: np.ndarray, held: list, view: np.ndarray):
        self.order, self.runs, self.slots, self.held, self.view = order, runs, slots, held, view
        self.built = None

    def __len__(self) -> int:
        return self.order

    def __getitem__(self, s: int) -> np.ndarray:
        if s != self.built:
            for first, last, graph, keep in self.runs:  # a run's rows s, s + K, ...
                _column_set(graph, keep[s::self.order], self.slots, self.held, first, last)
            self.built = s
        return self.view


def _contract_taps(taps: np.ndarray, stages: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pre-activations ``u[o] = sum_k,i taps[o, i, k] * stages[k, o, i]`` (out, N, B) of
    taps (out, in, K+1) and stages (K+1, out or 1, in, N, B), into ``out`` when given.
    Per-filter stages take einsum; stages shared by every out filter (an intact set, or
    order 0) one (out, (K+1) * in) @ ((K+1) * in, N * B) product, on a view of them
    when they are C-contiguous (else on a copy)."""
    if stages.shape[1] > 1:
        return np.einsum("oik,koinb->onb", taps, stages, out=out)
    mat = stages.reshape(-1, stages.shape[3] * stages.shape[4])
    weights = taps.transpose(0, 2, 1).reshape(len(taps), -1)  # (k, i) order, as the rows
    if out is None:
        out = np.empty((len(taps),) + stages.shape[3:])
    if not out.flags.c_contiguous:  # the product, copied into out's layout
        out[...] = (weights @ mat).reshape(out.shape)
    else:
        np.matmul(weights, mat, out=out.reshape(len(taps), -1))
    return out


def _tap_gradient(delta_u: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """The taps' gradient ``sum_n,b delta_u[o] * stages[k, o, i]`` (out, in, K+1) of the
    pre-activations' gradient ``delta_u`` (out, N, B) and stages as in
    :func:`_contract_taps`, through the transposed product on shared stages."""
    if stages.shape[1] > 1:
        return np.einsum("onb,koinb->oik", delta_u, stages)
    mat = stages.reshape(-1, stages.shape[3] * stages.shape[4])
    grad = delta_u.reshape(len(delta_u), -1) @ mat.T            # (out, (K+1) * in)
    return grad.reshape(len(delta_u), len(stages), -1).transpose(0, 2, 1)


def _layers(tensor: FilterTensor, reals: Reals | DeferredSets, x: np.ndarray, spare: list,
            cache: ForwardCache | None, keeps: list | None = None) -> np.ndarray:
    """Run the layers of ``tensor`` on the realization set ``reals`` from the input
    batch ``x`` and return the last activation, a :class:`DeferredSets` as
    :func:`forward` runs one.  Layer 0 appends column b's keeps for every layer to
    the empty list ``keeps`` (None at p = 1), its own as None: it holds them only while
    it builds column b's group.
    Each array of ``spare`` (per layer a (stages, u, act) triple of an earlier pass)
    whose shape matches is refilled in place; each layer's arrays are appended to
    ``cache`` when one is given."""
    cfg, k = tensor.cfg, tensor.cfg.order
    n, b = x.shape[1], x.shape[2]
    shapes = [(o, i, k, n, n) for o, i in cfg.layer_shapes()]
    stack = (np.stack([graph.mat for graph in reals.graphs])
             if keeps is not None and reals.p == 1.0 else None)
    current = x
    for layer_idx, (out_d, in_d) in enumerate(cfg.layer_shapes()):
        old_stages, old_u, old_act = spare[layer_idx] if layer_idx < len(spare) else [None] * 3
        if old_u is not None and old_u.shape != (out_d, n, b):
            old_u = old_act = None
        if stack is not None:  # every out filter shares the stages of the intact graphs
            if layer_idx == 0:
                keeps.extend([None] * len(shapes) for _ in range(b))
            shape = (k + 1, 1, in_d, n, b)
            stages = old_stages if getattr(old_stages, "shape", None) == shape else np.empty(shape)
            # the signals and stages (..., N, B) viewed as (..., B, N, 1): column b's
            # product is graph b's
            diffusion_stages([stack] * k, current[None].swapaxes(2, 3)[..., None],
                             stages.swapaxes(3, 4)[..., None])
        elif keeps is not None:  # at order 0 the stages are the input, shared by every out
            shape = (k + 1, out_d if k else 1, in_d, n, b)
            # laid out (..., B, N) in memory, so that each column's products write
            # contiguous N-vectors
            stages = (old_stages if getattr(old_stages, "shape", None) == shape else
                      np.empty(shape[:3] + (b, n)).swapaxes(3, 4))
            group = max(1, min(b, _GROUP_BYTES // (out_d * in_d * n * n * 8)))
            # slot j holds one stage of column j, j + group, ...; held[j] its graph
            slots, held = np.zeros((group, out_d, in_d, n, n)), [None] * group
            # the signals (in, N, B) as (B, 1, in, N, 1) and the stages as
            # (K+1, B, out, in, N, 1)
            signals = current.transpose(2, 0, 1)[:, None, ..., None]
            outs = stages.transpose(0, 4, 1, 2, 3)[..., None]
            for lo in range(0, b, group):
                hi = min(lo + group, b)
                if layer_idx == 0:  # backward rebuilds the later layers only
                    drawn = [_draw_column(reals, shapes, col) for col in range(lo, hi)]
                    keeps.extend([None, *column[1:]] for column in drawn)
                    group_keeps = [column[0] for column in drawn]
                else:
                    group_keeps = [keeps[col][layer_idx] for col in range(lo, hi)]
                # runs of consecutive columns on one graph, each built in one call: first slot,
                # the slot past its last, graph and keeps (columns * out * in * K, M)
                ends = [j for j in range(1, hi - lo) if reals.graphs[lo + j] is not reals.graphs[lo + j - 1]]
                runs = [(a, z, reals.graphs[lo + a],
                         group_keeps[a] if z - a == 1 else np.concatenate(group_keeps[a:z]))
                        for a, z in zip([0, *ends], [*ends, hi - lo])]
                # a one-column group indexes its column, which drops the group axis: the
                # products are the same, and on whole-column slots one axis fewer took ~1 us
                # off the three matmuls of a 64-filter source column
                cols, part = (slice(lo, hi), slice(hi - lo)) if hi - lo > 1 else (lo, 0)
                diffusion_stages(_StageShifts(k, runs, slots, held, slots[part]), signals[cols],
                                 outs[:, cols])
        else:
            mats = reals[layer_idx]
            # shifts shared along a stride-0 out/in axis (p = 1, mean shifts) diffuse once
            mats = mats[tuple(slice(None, 1 if s == 0 else None) for s in mats.strides[:2])]
            # (out, in, K, N, N) -> (K, out, in, N, N): stage k of every filter at once;
            # stages with a size-1 out axis are contracted in one matrix product
            stages = diffusion_stages(mats.transpose(2, 0, 1, 3, 4), current[None], old_stages)
        u = _contract_taps(tensor.layers[layer_idx], stages, old_u)
        act = _activate(cfg.nonlinearity, u, old_act)
        if cache is not None:
            cache.stages.append(stages)
            cache.pre_activations.append(u)
            cache.activations.append(act)
        current = act
    return current


def forward(tensor: FilterTensor, reals: Reals | DeferredSets, x: np.ndarray,
            return_cache: bool = True, cache: ForwardCache | None = None):
    """Run the network on a fixed realization set.

    ``x`` is a batch (F_in, N, B) sharing the realization set, as in one
    training step; one sample is the batch ``x[..., None]``.  Returns
    ``(output, cache)``, the output batched along its last axis and the cache
    None when ``return_cache`` is false.  A realization array of any other shape
    than (out, in, K, N, N) raises ``ValueError``.

    A :class:`DeferredSets` of B columns, column b on its own set, is drawn here,
    column b's set as the b-th of B single-set draws on its graph would draw it.  At
    p = 1 each stage is one stacked product of the columns' graphs, cached or not.
    Below p = 1 the pass runs layer by layer over the batch: layer 0 draws column b's
    keeps for every layer when column b's group starts, in column order (the order of B
    single-set draws), and a cache keeps those of the later layers (``backward``
    rebuilds their shifts from them).  A layer takes the columns in consecutive groups
    of as many as fit ``_GROUP_BYTES`` of one stage's shifts (at least one), each
    column with its own slot of the group's buffer, and one :func:`diffusion_stages`
    call runs the group's stages: for k = 1..K it builds stage k's shifts of every
    column into its slot (consecutive columns on one graph in one build) and then runs
    the group's stage-k product, each column's products those of a pass on that column
    alone.  A slot records the graph it holds: refilled on that graph, only its edge
    and diagonal entries are rewritten; on another graph it is zeroed first, one
    stage's bytes (``backward`` rebuilds a column's K stages in one slot by the same
    rule).  Without a cache to return or refill, the pass runs on chunks of
    ``_CHUNK_COLUMNS`` columns one after the other, so that its stage arrays do not
    grow with B; its output is the cached pass's bit for bit.  An input that is
    complex, or whose node or column count does not match the set, or a set whose
    graphs are none or of mixed node counts, raises ``ValueError`` before any draw.

    ``cache`` is the previous pass's cache, given to reuse its memory: every
    stage, pre-activation and activation array of the right shape is refilled
    in place (the results are the same as on new arrays), and ``cache`` is
    left empty, so that ``backward`` rejects it.  The output of a network
    without a readout head is then the cache's last activation array, which
    the next pass on that cache overwrites.
    """
    cfg = tensor.cfg
    if np.iscomplexobj(x):  # before the copy, which would drop the imaginary part
        raise ValueError("input entries must be real, got a complex dtype")
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] != cfg.in_features:
        raise ValueError(f"input has shape {x.shape}, expected (F_in, N, B) "
                         f"with F_in = {cfg.in_features}")
    keeps = None
    if isinstance(reals, DeferredSets):
        _check_node_counts(reals.graphs)
        n, b = reals.graphs[0].n, len(reals.graphs)
        if x.shape[1:] != (n, b):
            raise ValueError(f"input has shape {x.shape}, the deferred set {b} columns "
                             f"on {n} nodes")
        if reals.p < 1.0 and not return_cache and cache is None:
            core = None
            for lo in range(0, b, _CHUNK_COLUMNS):
                cols = slice(lo, lo + _CHUNK_COLUMNS)
                act = _layers(tensor, reals._replace(graphs=reals.graphs[cols]), x[..., cols],
                              [], None, [])
                if core is None:  # act's layout: the head sums in memory order, as on a cached pass
                    core = np.empty_like(act, shape=act.shape[:2] + (b,))
                core[..., cols] = act
            return _apply_head(tensor, core), None
        keeps = []
    else:
        _check_reals(cfg, reals, x.shape[1])
    spare = [] if cache is None else cache._take()  # its arrays move to this pass
    cache = ForwardCache(tensor=tensor, reals=reals, x=x, keeps=keeps) if return_cache else None
    return _apply_head(tensor, _layers(tensor, reals, x, spare, cache, keeps), cache), cache


def _adjoint(coeffs: np.ndarray, mats: np.ndarray, delta_u: np.ndarray) -> np.ndarray:
    """The layer input's gradient ``sum_k h_k (S_1 ... S_k)^T delta_u`` summed over the
    out features, accumulated backwards, for shifts (out, in, K, N, N)."""
    acc = coeffs[:, :, -1, None, None] * delta_u[:, None]
    for k in range(coeffs.shape[2] - 2, -1, -1):
        # realized shifts are symmetric, but transpose anyway for clarity
        acc = mats[:, :, k].swapaxes(2, 3) @ acc
        acc = acc + coeffs[:, :, k, None, None] * delta_u[:, None]
    return acc.sum(axis=0)                                      # (in, N, B)


def backward(tensor: FilterTensor, reals: Reals | DeferredSets, cache: ForwardCache,
             out_grad: np.ndarray) -> np.ndarray:
    """Exact gradient of the cached forward pass w.r.t. every coefficient,
    treating the sampled shifts as constants, as one flat vector in the
    order of ``tensor.flatten()`` (laid out by :func:`split_params`).  On a
    :class:`DeferredSets` column b's shifts are rebuilt from the cached keeps.

    ``out_grad`` is the cost gradient w.r.t. the forward output, in its
    shape (``ValueError`` otherwise).  Raises :class:`StaleCacheError` when
    the cache does not belong to ``(tensor, reals)``.
    """
    cfg = tensor.cfg
    if cache.tensor is not tensor or cache.reals is not reals:
        raise StaleCacheError("cache was produced by a different tensor or realization set")
    if len(cache.stages) != cfg.layers:
        raise StaleCacheError("cache holds no forward pass (return_cache=False, or a later "
                              "forward took it over)")
    g = np.asarray(out_grad, dtype=float)
    act = cache.activations[-1].shape  # (F_out, N, B); a head maps F_out to D, pooled drops N
    want = act if cfg.readout == "none" else (cfg.readout_dim, *act[1 + (cfg.readout == "pooled"):])
    if g.shape != want:
        raise ValueError(f"out_grad has shape {g.shape}, the forward output {want}")
    n = act[1]

    grad = np.zeros(cfg.num_params)
    layer_grads, head_w_grad, head_b_grad = split_params(cfg, grad)
    if cfg.readout == "none":
        d_act = g
    elif cfg.readout == "pooled":
        head_w_grad[...] = g @ cache.pooled_hat.T
        head_b_grad[...] = g.sum(axis=1)
        d_hat = tensor.head_weight.T @ g
        # through the feature standardization:
        # d pooled = (d_hat - mean(d_hat) - hat * mean(d_hat * hat)) / std,
        # without the last term where the std is floored, hence constant
        hat, std = cache.pooled_hat, cache.pooled_std
        d_pooled = (d_hat - d_hat.mean(axis=0)
                    - np.where(std == _STD_FLOOR, 0.0, hat * (d_hat * hat).mean(axis=0))) / std
        d_act = np.broadcast_to(d_pooled[:, None, :] / n, cache.activations[-1].shape)
    else:  # per_node
        head_w_grad[...] = np.einsum("dnb,fnb->df", g, cache.activations[-1])
        head_b_grad[...] = g.sum(axis=(1, 2))
        d_act = np.einsum("df,dnb->fnb", tensor.head_weight, g)

    for layer_idx in range(cfg.layers - 1, -1, -1):
        delta_u = d_act * _slope(cfg.nonlinearity, cache.pre_activations[layer_idx])  # (out, N, B)
        # stages are (K+1, out or 1, in, N, B); a size-1 out axis takes the transposed
        # matrix product of the forward contraction
        layer_grads[layer_idx][...] = _tap_gradient(delta_u, cache.stages[layer_idx])
        if layer_idx == 0:
            break
        coeffs = tensor.layers[layer_idx]
        if not isinstance(reals, DeferredSets):
            d_act = _adjoint(coeffs, reals[layer_idx], delta_u)
            continue
        shape = (*coeffs.shape[:2], cfg.order, n, n)
        slot, held, d_act = np.zeros((1, *shape)), [None], np.empty((shape[1], n, act[2]))
        for col, graph in enumerate(reals.graphs):  # each column's K stages in one slot
            mats = (np.broadcast_to(graph.mat, shape) if reals.p == 1.0 else
                    _column_set(graph, cache.keeps[col][layer_idx], slot, held).reshape(shape))
            d_act[..., col:col + 1] = _adjoint(coeffs, mats, delta_u[..., col:col + 1])
    return grad


def forward_expected(tensor: FilterTensor, base: ShiftOperator, p: float, x: np.ndarray) -> np.ndarray:
    """Forward pass with every stochastic filter replaced by its
    deterministic counterpart on the mean shift ``p * S`` (batched as :func:`forward`).

    With p = 1 this is the conventional deterministic network on ``S``.  The
    nonlinearity makes this the mean output per filter, not end to end.
    ``ConfigError`` for p outside [0, 1].  An oracle that no library code calls: it
    gates :func:`forward` at p = 1 and the Monte-Carlo mean of stochastic passes.
    """
    cfg = tensor.cfg
    sbar = expected_shift(base, p)
    reals = tuple(np.broadcast_to(sbar, (out_d, in_d, cfg.order, base.n, base.n))
                  for out_d, in_d in cfg.layer_shapes())
    out, _ = forward(tensor, reals, x, return_cache=False)
    return out


_CKPT_MAGIC = "sgnn-checkpoint-v1"
_CKPT_FIELDS = fields(SgnnConfig)  # the header's keys, in order, then kind
_CKPT_KEYS = {f.name for f in _CKPT_FIELDS} | {"kind"}  # each once in a header
# header bytes, newline included: the longest names and six 20-digit integers take 265
_CKPT_HEADER_MAX = 288


def save_checkpoint(tensor: FilterTensor, path, kind: str = "adjacency") -> None:
    """Self-describing header line plus the flat tap array as little-endian
    64-bit floats; a header over ``_CKPT_HEADER_MAX`` bytes raises ``ConfigError``."""
    if kind not in KINDS:
        raise ConfigError(f"unknown shift kind {kind!r}")
    cfg = tensor.cfg
    items = "".join(f"{f.name}={getattr(cfg, f.name)} " for f in _CKPT_FIELDS)
    header = f"{_CKPT_MAGIC} {items}kind={kind}\n"
    if len(header) > _CKPT_HEADER_MAX:
        raise ConfigError(f"checkpoint header of {len(header)} bytes, over {_CKPT_HEADER_MAX}")
    flat = np.ascontiguousarray(tensor.flat, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(struct.pack("<q", flat.size))
        fh.write(flat.tobytes())


def load_checkpoint(path) -> tuple[FilterTensor, str]:
    with open(path, "rb") as fh:
        line = fh.readline(_CKPT_HEADER_MAX)  # a longer first line is no header
        header = line.decode("ascii", errors="replace").strip().split()
        if not (header and header[0] == _CKPT_MAGIC and line.endswith(b"\n")):
            raise ValueError(f"{path} is not a model checkpoint")
        try:
            items = [item.split("=", 1) for item in header[1:]]
            values = dict(items)
            if len(values) != len(items) or values.keys() != _CKPT_KEYS:
                raise ValueError(f"header keys {[item[0] for item in items]}, "
                                 f"expected each of {sorted(_CKPT_KEYS)} once")
            cfg = SgnnConfig(**{f.name: int(values[f.name]) if f.type == "int" else values[f.name]
                                for f in _CKPT_FIELDS})
            kind = values["kind"]
            if kind not in KINDS:
                raise ValueError(f"unknown shift kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"checkpoint header in {path} is malformed: {exc!r}") from exc
        head = fh.read(8)
        left = os.fstat(fh.fileno()).st_size - fh.tell()  # checked before a read the header sizes
        if (len(head) != 8 or struct.unpack("<q", head)[0] != cfg.num_params
                or left < cfg.num_params * 8):
            raise ValueError(f"checkpoint in {path} is truncated or inconsistent")
        taps = fh.read(cfg.num_params * 8)
        if fh.read(1):
            raise ValueError(f"checkpoint in {path} has trailing bytes after the tap array")
    flat = np.frombuffer(taps, dtype="<f8")
    return FilterTensor(cfg, flat.astype(float)), kind
