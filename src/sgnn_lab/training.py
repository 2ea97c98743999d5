"""Losses, exact gradients through a fixed realization set, and the
stochastic-gradient training loop.

Each training iteration fixes a fresh architecture realization (one sampled
shift per diffusion step of every filter), computes the batch cost on that
fixed realization, backpropagates treating the sampled shifts as constants,
and updates the filter tensor with SGD or Adam.  Fixing the realization and
then differentiating the cost is the same thing as sampling a random cost
function and differentiating it, so the loop is plain SGD on the expected
cost; there is deliberately a single implementation of the step.

Step-size schedules: a constant rate, an inverse-square-root decay, and a
constant rate matched to the training horizon,

    alpha = sqrt(2 * cost_gap / (T * smoothness * grad_bound**2)),

which certifies an O(1/sqrt(T)) decay of the minimum gradient norm under the
usual smoothness/bounded-gradient conditions.  Only the 1/sqrt(T) scaling is
load-bearing; the smoothness constant is user-supplied and the other two
factors can be estimated empirically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import common
from .errors import ConfigError, DivergenceError, StaleCacheError
from .graphs import ShiftOperator
from .model import (
    FilterTensor,
    ForwardCache,
    Reals,
    apply_nonlinearity,
    forward,
    sample_architecture,
    split_params,
)
from .rng import Rng

LOSSES = ("mse", "cross_entropy")
OPTIMIZERS = ("sgd", "adam")
SCHEDULES = ("constant", "invsqrt", "horizon")


# ---------------------------------------------------------------------------
# Losses (mean reduction over all entries / over the batch).


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def loss_mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    return 2.0 * (pred - target) / pred.size


def _logits_2d(logits: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    logits = np.asarray(logits, dtype=float)
    if logits.ndim == 1:
        logits = logits[:, None]
        labels = np.asarray([labels], dtype=int)
    else:
        labels = np.asarray(labels, dtype=int)
    if logits.ndim != 2 or labels.shape != (logits.shape[1],):
        raise ValueError(f"logits {logits.shape} incompatible with labels {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[0]:
        raise ValueError("label outside the class range")
    return logits, labels


def loss_cross_entropy(logits: np.ndarray, labels) -> float:
    """Cross entropy from raw logits via log-sum-exp; mean over the batch."""
    logits, labels = _logits_2d(logits, labels)
    shifted = logits - logits.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    picked = shifted[labels, np.arange(logits.shape[1])]
    return float(np.mean(log_z - picked))


def loss_cross_entropy_grad(logits: np.ndarray, labels) -> np.ndarray:
    logits2, labels2 = _logits_2d(logits, labels)
    shifted = logits2 - logits2.max(axis=0, keepdims=True)
    expd = np.exp(shifted)
    softmax = expd / expd.sum(axis=0, keepdims=True)
    softmax[labels2, np.arange(logits2.shape[1])] -= 1.0
    grad = softmax / logits2.shape[1]
    return grad[:, 0] if np.asarray(logits).ndim == 1 else grad


# ---------------------------------------------------------------------------
# Reverse mode through the fixed realization set.


def backward(tensor: FilterTensor, reals: Reals, cache: ForwardCache,
             out_grad: np.ndarray) -> np.ndarray:
    """Exact gradient of the cached forward pass w.r.t. every coefficient,
    treating the sampled shifts as constants, as one flat vector in the
    order of ``tensor.flatten()`` (laid out by :func:`split_params`).

    ``out_grad`` is the cost gradient w.r.t. the forward output, in its
    shape (``ValueError`` otherwise).  Raises :class:`StaleCacheError` when
    the cache does not belong to ``(tensor, reals)``.
    """
    cfg = tensor.cfg
    if cache.tensor is not tensor or cache.reals is not reals:
        raise StaleCacheError("cache was produced by a different tensor or realization set")
    if len(cache.diffusions) != cfg.layers:
        raise StaleCacheError("forward pass did not retain activations (return_cache=False?)")
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
        # d pooled = (d_hat - mean(d_hat) - hat * mean(d_hat * hat)) / std
        hat = cache.pooled_hat
        d_pooled = (d_hat - d_hat.mean(axis=0)
                    - hat * (d_hat * hat).mean(axis=0)) / cache.pooled_std
        d_act = np.broadcast_to(d_pooled[:, None, :] / n, cache.activations[-1].shape)
    else:  # per_node
        head_w_grad[...] = np.einsum("dnb,fnb->df", g, cache.activations[-1])
        head_b_grad[...] = g.sum(axis=(1, 2))
        d_act = np.einsum("df,dnb->fnb", tensor.head_weight, g)

    for layer_idx in range(cfg.layers - 1, -1, -1):
        _, du = apply_nonlinearity(cfg.nonlinearity, cache.pre_activations[layer_idx])
        delta_u = d_act * du                                    # (out, N, B)
        diffs = cache.diffusions[layer_idx]
        layer_grads[layer_idx][...] = np.einsum("onb,koinb->oik", delta_u, diffs)
        if layer_idx == 0:
            break
        coeffs = tensor.layers[layer_idx]
        mats = reals[layer_idx]
        # delta_x = sum_k h_k (S_1 ... S_k)^T delta_u, accumulated backwards.
        acc = coeffs[:, :, cfg.order, None, None] * delta_u[:, None]
        for k in range(cfg.order - 1, -1, -1):
            # realized shifts are symmetric, but transpose anyway for clarity
            acc = np.matmul(mats[:, :, k].transpose(0, 1, 3, 2), acc)
            acc = acc + coeffs[:, :, k, None, None] * delta_u[:, None]
        d_act = acc.sum(axis=0)                                 # (in, N, B)
    return grad


# ---------------------------------------------------------------------------
# Training loop.


@dataclass
class TrainingSet:
    """Inputs of shape (R, F_in, N); targets are int labels (R,) for
    cross-entropy or arrays (R, ...) matching the network output for mse.
    ``bases`` optionally gives a per-sample graph (for data gathered over a
    moving topology); otherwise all samples share the graph passed to
    :func:`train`."""

    inputs: np.ndarray
    targets: np.ndarray
    bases: list[ShiftOperator] | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        if self.inputs.ndim != 3:
            raise ConfigError(f"inputs must be (R, F_in, N), got {self.inputs.shape}")
        if len(self.inputs) == 0:
            raise ConfigError("empty training set")
        if len(self.targets) != len(self.inputs):
            raise ConfigError("inputs and targets disagree on the sample count")
        if self.bases is not None and len(self.bases) != len(self.inputs):
            raise ConfigError("per-sample bases must match the sample count")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass
class TrainConfig:
    iterations: int
    batch_size: int
    lr: float = 1e-3
    schedule: str = "constant"
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    link_p: float = 1.0
    seed: int = 0
    loss: str = "mse"
    smoothness: float = 1.0          # supplied, not estimated; only the
    grad_bound: float | None = None  # 1/sqrt(T) scaling matters for the rate
    cost_gap: float | None = None
    grad_bound_samples: int = 16
    cost_gap_samples: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("adam decay factors must lie in (0, 1)")
        if not 0.0 <= self.link_p <= 1.0:
            raise ConfigError(f"link_p={self.link_p} outside [0, 1]")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")


@dataclass
class TrainTrace:
    """Per-iteration cost, gradient norm, step size, and wall time, plus the
    final tensor."""

    costs: np.ndarray
    grad_norms: np.ndarray
    lrs: np.ndarray
    wall_ms: np.ndarray
    tensor: FilterTensor

    def to_csv(self, path, include_timing: bool = True) -> None:
        """Columns iter, cost, grad_norm_sq, lr, wall_ms, through ``write_results``.
        With ``include_timing=False`` the wall column is written as 0 so output
        files are bit-reproducible under a fixed seed."""
        columns = ("iter", "cost", "grad_norm_sq", "lr", "wall_ms")
        wall = self.wall_ms if include_timing else np.zeros_like(self.wall_ms)
        rows = [dict(zip(columns, (t, float(cost), float(norm) ** 2, float(lr), float(ms))))
                for t, (cost, norm, lr, ms)
                in enumerate(zip(self.costs, self.grad_norms, self.lrs, wall))]
        common.write_results(rows, path, columns=columns)


def gradient_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max per-coordinate relative error of an analytic gradient against a
    finite-difference reference.

    Coordinates more than three orders of magnitude below the dominant one
    are compared against that floor instead: central differences at step
    1e-5 carry ~1e-10 roundoff noise relative to the cost, so structurally
    zero derivatives would otherwise register spurious relative error (the
    observed finite-difference value on such coordinates grows as the step
    shrinks, the signature of cancellation noise).
    """
    analytic = np.ravel(np.asarray(analytic, dtype=float))
    numeric = np.ravel(np.asarray(numeric, dtype=float))
    scale = max(np.abs(numeric).max(initial=0.0), 1e-12)
    denom = np.maximum(np.abs(numeric), 1e-3 * scale)
    return float((np.abs(analytic - numeric) / denom).max())


def convergence_step_size(cost_gap: float, iterations: int, smoothness: float,
                          grad_bound: float) -> float:
    """Constant step size matched to the training horizon:
    ``sqrt(2 * cost_gap / (iterations * smoothness * grad_bound**2))``."""
    for name, val in (("cost_gap", cost_gap), ("iterations", iterations),
                      ("smoothness", smoothness), ("grad_bound", grad_bound)):
        if val <= 0:
            raise ConfigError(f"{name} must be > 0, got {val}")
    return float(np.sqrt(2.0 * cost_gap / (iterations * smoothness * grad_bound**2)))


def convergence_metric(trace) -> np.ndarray:
    """Running minimum of the squared gradient norm.

    Accepts a :class:`TrainTrace` (uses its recorded norms) or a 1-D array
    already containing squared norms.
    """
    if isinstance(trace, TrainTrace):
        sq = np.asarray(trace.grad_norms, dtype=float) ** 2
    else:
        sq = np.asarray(trace, dtype=float)
    if sq.size == 0:
        raise ValueError("empty trace")
    return np.minimum.accumulate(sq)


def _batch_arrays(train_set: TrainingSet, idx: np.ndarray | slice, loss: str):
    # transpose, not np.moveaxis: this runs once per sample on per-sample bases
    x = train_set.inputs[idx].transpose(1, 2, 0)            # (F_in, N, B)
    if loss == "cross_entropy":
        y = np.asarray(train_set.targets)[idx]
    else:
        y = np.asarray(train_set.targets, dtype=float)[idx]
        y = y.transpose(*range(1, y.ndim), 0)
    return x, y


def _loss_pair(loss: str, pred, target):
    if loss == "mse":
        return loss_mse(pred, target), loss_mse_grad(pred, target)
    return loss_cross_entropy(pred, target), loss_cross_entropy_grad(pred, target)


def _groups(base: ShiftOperator | None, train_set: TrainingSet,
            idx: np.ndarray) -> list[tuple[ShiftOperator, np.ndarray | slice]]:
    """(graph, samples) per draw: the batch on the shared base, or each sample on its
    own base as a slice (faster to index with than a one-element array)."""
    if train_set.bases is None:
        return [(base, idx)]
    return [(train_set.bases[i], slice(i, i + 1)) for i in idx]


def _cost_and_grad(tensor: FilterTensor, base: ShiftOperator | None,
                   train_set: TrainingSet, idx: np.ndarray, p: float,
                   loss: str, rng: Rng) -> tuple[float, np.ndarray]:
    """Cost and flat gradient of one step: the mean over equal-sized groups, each
    on a fresh realization set."""
    groups = _groups(base, train_set, idx)
    cost, grad = 0.0, 0.0
    for graph, members in groups:
        reals = sample_architecture(graph, p, tensor.cfg, rng)
        x, y = _batch_arrays(train_set, members, loss)
        out, cache = forward(tensor, reals, x)
        c, dout = _loss_pair(loss, out, y)
        cost += c
        grad = grad + backward(tensor, reals, cache, dout)
    return cost / len(groups), grad / len(groups)


def _full_cost(tensor: FilterTensor, base: ShiftOperator | None,
               train_set: TrainingSet, p: float, loss: str, rng: Rng) -> float:
    """Full-set cost on fresh realization draws (forward only)."""
    groups = _groups(base, train_set, np.arange(len(train_set)))
    total = 0.0
    for graph, members in groups:
        reals = sample_architecture(graph, p, tensor.cfg, rng)
        x, y = _batch_arrays(train_set, members, loss)
        out, _ = forward(tensor, reals, x, return_cache=False)
        total += _loss_pair(loss, out, y)[0]
    return total / len(groups)


def estimate_grad_bound(model: FilterTensor, base: ShiftOperator | None,
                        train_set: TrainingSet, p: float, n_samples: int,
                        rng: Rng, loss: str = "mse",
                        safety: float = 1.5) -> float:
    """Empirical bound on the full-set gradient norm: the max over
    ``n_samples`` independent realization sets at the current tensor, times a
    safety factor."""
    idx = np.arange(len(train_set))
    best = 0.0
    for _ in range(n_samples):
        _, grad = _cost_and_grad(model, base, train_set, idx, p, loss, rng)
        best = max(best, float(np.linalg.norm(grad)))
    return safety * best


def estimate_cost_gap(model: FilterTensor, base: ShiftOperator | None,
                      train_set: TrainingSet, p: float, n_samples: int,
                      rng: Rng, loss: str = "mse") -> float:
    """Upper bound on the optimality gap of the expected cost: Monte-Carlo
    average of the initial cost (the optimum of a nonnegative loss is taken
    as 0)."""
    total = 0.0
    for _ in range(n_samples):
        total += _full_cost(model, base, train_set, p, loss, rng)
    return total / n_samples


def train(model: FilterTensor, base: ShiftOperator | None,
          train_set: TrainingSet, cfg: TrainConfig) -> TrainTrace:
    """Stochastic-gradient training; returns the trace and final tensor.

    The input tensor is not mutated.  All randomness derives from
    ``cfg.seed``: equal configs produce bit-identical traces.
    """
    if len(train_set) == 0:
        raise ConfigError("empty training set")
    if train_set.bases is None and base is None:
        raise ConfigError("either a shared base graph or per-sample bases are required")
    root = Rng(cfg.seed)
    r_real, r_batch, r_est = root.child(0), root.child(1), root.child(2)

    num_samples = len(train_set)
    batch_size = min(cfg.batch_size, num_samples)

    if cfg.schedule == "horizon":
        gap = cfg.cost_gap if cfg.cost_gap is not None else estimate_cost_gap(
            model, base, train_set, cfg.link_p, cfg.cost_gap_samples, r_est.child(0), cfg.loss)
        bound = cfg.grad_bound if cfg.grad_bound is not None else estimate_grad_bound(
            model, base, train_set, cfg.link_p, cfg.grad_bound_samples, r_est.child(1), cfg.loss)
        alpha0 = convergence_step_size(max(gap, 1e-12), cfg.iterations,
                                       cfg.smoothness, max(bound, 1e-12))
    else:
        alpha0 = cfg.lr

    flat = model.flat
    m1 = np.zeros_like(flat)
    m2 = np.zeros_like(flat)
    costs = np.empty(cfg.iterations)
    grad_norms = np.empty(cfg.iterations)
    lrs = np.empty(cfg.iterations)
    wall = np.empty(cfg.iterations)

    perm = r_batch.permutation(num_samples)
    pos = 0
    for t in range(cfg.iterations):
        tic = time.perf_counter()
        if pos + batch_size > num_samples:
            perm = r_batch.permutation(num_samples)
            pos = 0
        idx = perm[pos : pos + batch_size]
        pos += batch_size

        cost, grad = _cost_and_grad(FilterTensor(model.cfg, flat), base, train_set, idx,
                                    cfg.link_p, cfg.loss, r_real)

        lr_t = alpha0 / np.sqrt(t + 1.0) if cfg.schedule == "invsqrt" else alpha0
        if cfg.optimizer == "sgd":
            flat = flat - lr_t * grad
        else:
            m1 = cfg.beta1 * m1 + (1.0 - cfg.beta1) * grad
            m2 = cfg.beta2 * m2 + (1.0 - cfg.beta2) * grad * grad
            m1_hat = m1 / (1.0 - cfg.beta1 ** (t + 1))
            m2_hat = m2 / (1.0 - cfg.beta2 ** (t + 1))
            flat = flat - lr_t * m1_hat / (np.sqrt(m2_hat) + cfg.eps)
        # a non-finite gradient always makes the update non-finite
        if not np.isfinite(cost) or not np.all(np.isfinite(flat)):
            raise DivergenceError(
                f"training diverged at iteration {t} (cost={cost}); "
                "reduce the step size or check the data scale")

        costs[t] = cost
        grad_norms[t] = np.linalg.norm(grad)
        lrs[t] = lr_t
        wall[t] = (time.perf_counter() - tic) * 1e3

    return TrainTrace(costs=costs, grad_norms=grad_norms, lrs=lrs, wall_ms=wall,
                      tensor=FilterTensor(model.cfg, flat))
