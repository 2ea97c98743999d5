"""Losses, the stochastic-gradient training loop, and the estimators of its
step size.

Each training iteration fixes a fresh architecture realization (one sampled
shift per diffusion step of every filter), computes the batch cost on that
fixed realization, backpropagates treating the sampled shifts as constants
(:func:`sgnn_lab.model.backward`, bound here too), and updates the filter
tensor with SGD or Adam.  Fixing the realization and then differentiating the
cost is the same thing as sampling a random cost function and differentiating
it, so the loop is plain SGD on the expected cost; there is deliberately a
single implementation of the step.

Step-size schedules: a constant rate, an inverse-square-root decay, and a
constant rate matched to the training horizon,

    alpha = sqrt(2 * cost_gap / (T * smoothness * grad_bound**2)),

which certifies an O(1/sqrt(T)) decay of the minimum gradient norm under the
usual smoothness/bounded-gradient conditions.  Only the 1/sqrt(T) scaling is
load-bearing: the smoothness is fixed at 1, and the cost gap and gradient
bound are always estimated at the initial tensor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import common
from .errors import ConfigError, DivergenceError
from .graphs import ShiftOperator, check_edge_probability
from .model import (DeferredSets, FilterTensor, ForwardCache, Reals, backward, forward,
                    sample_architecture)
from .rng import Rng

LOSSES = ("mse", "cross_entropy")
OPTIMIZERS = ("sgd", "adam")
SCHEDULES = ("constant", "invsqrt", "horizon")

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # decay factors, denominator guard
# horizon schedule: the smoothness, and the realization draws behind its
# cost-gap and gradient-bound estimates
HORIZON_SMOOTHNESS = 1.0
HORIZON_COST_GAP_SAMPLES = 100
HORIZON_GRAD_BOUND_SAMPLES = 16


# ---------------------------------------------------------------------------
# Losses: each returns (cost, gradient w.r.t. the prediction) from one pass,
# with the mean reduction over all entries (mse) or over the batch columns
# (cross-entropy).


def _mse(pred, target) -> tuple[float, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def _cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Cross entropy of (C, B) raw logits against B int labels, through one
    max-shifted softmax (log-sum-exp for the cost)."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim != 2 or labels.shape != (logits.shape[1],):
        raise ValueError(f"logits {logits.shape} incompatible with labels {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[0]:
        raise ValueError("label outside the class range")
    cols = np.arange(logits.shape[1])
    shifted = logits - logits.max(axis=0, keepdims=True)
    expd = np.exp(shifted)
    total = expd.sum(axis=0)
    cost = float(np.mean(np.log(total) - shifted[labels, cols]))
    grad = expd / total
    grad[labels, cols] -= 1.0
    return cost, grad / logits.shape[1]


# ---------------------------------------------------------------------------
# Training loop.


@dataclass
class TrainingSet:
    """Inputs of shape (R, F_in, N); targets are int labels (R,) for
    cross-entropy or arrays (R, ...) matching the network output for mse.
    ``graphs`` is one graph shared by every sample (one realization set per
    step) or a sequence of one graph per sample (for data gathered over a
    moving topology), each on the inputs' N nodes."""

    inputs: np.ndarray
    targets: np.ndarray
    graphs: ShiftOperator | Sequence[ShiftOperator]

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        if self.inputs.ndim != 3:
            raise ConfigError(f"inputs must be (R, F_in, N), got {self.inputs.shape}")
        if len(self.inputs) == 0:
            raise ConfigError("empty training set")
        if len(self.targets) != len(self.inputs):
            raise ConfigError("inputs and targets disagree on the sample count")
        shared = isinstance(self.graphs, ShiftOperator)
        if not shared and len(self.graphs) != len(self.inputs):
            raise ConfigError("per-sample graphs must match the sample count")
        for i, graph in enumerate([self.graphs] if shared else self.graphs):
            if graph.n != self.inputs.shape[2]:
                raise ConfigError(f"{'shared graph' if shared else f'graph {i}'} has {graph.n} "
                                  f"nodes, the inputs {self.inputs.shape[2]}")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass
class TrainConfig:
    iterations: int
    batch_size: int
    lr: float = 1e-3
    schedule: str = "constant"
    optimizer: str = "adam"
    link_p: float = 1.0
    seed: int = 0
    loss: str = "mse"

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        check_edge_probability(self.link_p)
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        _loss_fn(self.loss)


@dataclass
class TrainTrace:
    """Per-iteration cost, gradient norm, step size, and wall time, plus the
    final tensor."""

    costs: np.ndarray
    grad_norms: np.ndarray
    lrs: np.ndarray
    wall_ms: np.ndarray
    tensor: FilterTensor

    def to_csv(self, path) -> None:
        """Columns iter, cost, grad_norm_sq, lr, wall_ms, through ``write_results``.
        The wall column is written as 0, so that the file is bit-reproducible under a
        fixed seed; the times stay in ``wall_ms``."""
        columns = ("iter", "cost", "grad_norm_sq", "lr", "wall_ms")
        rows = [dict(zip(columns, (t, float(cost), float(norm) ** 2, float(lr), 0.0)))
                for t, (cost, norm, lr) in enumerate(zip(self.costs, self.grad_norms, self.lrs))]
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


def central_differences(tensor: FilterTensor, reals: Reals | DeferredSets, x: np.ndarray, y,
                        loss: str, eps: float = 1e-5) -> np.ndarray:
    """Cost gradient on the fixed ``reals`` by central differences on each entry of
    the flat vector: ``(cost(+eps) - cost(-eps)) / (2 eps)``.  A deferred set below
    p = 1 draws new sets on every pass, so it raises ``ValueError``; at p = 1 it draws
    nothing and is allowed."""
    if isinstance(reals, DeferredSets) and reals.p < 1.0:
        raise ValueError(f"a deferred set at p = {reals.p} is not fixed: every pass draws anew")

    def cost(flat):
        out, _ = forward(FilterTensor(tensor.cfg, flat), reals, x, return_cache=False)
        return _loss_pair(loss, out, y)[0]

    fd = np.zeros(tensor.cfg.num_params)
    for i in range(len(fd)):
        up, dn = tensor.flatten(), tensor.flatten()
        up[i] += eps
        dn[i] -= eps
        fd[i] = (cost(up) - cost(dn)) / (2 * eps)
    return fd


def convergence_step_size(cost_gap: float, iterations: int, smoothness: float,
                          grad_bound: float) -> float:
    """Constant step size matched to the training horizon:
    ``sqrt(2 * cost_gap / (iterations * smoothness * grad_bound**2))``."""
    for name, val in (("cost_gap", cost_gap), ("iterations", iterations),
                      ("smoothness", smoothness), ("grad_bound", grad_bound)):
        if not (np.isfinite(val) and val > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {val}")
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


def _batch_arrays(train_set: TrainingSet, idx: np.ndarray | slice):
    """Inputs (F_in, N, B) and targets with the sample axis last; each loss
    converts the targets to its own dtype."""
    x = train_set.inputs[idx].transpose(1, 2, 0)
    y = np.asarray(train_set.targets)[idx]
    return x, y.transpose(*range(1, y.ndim), 0)


def _loss_pair(loss: str, pred, target) -> tuple[float, np.ndarray]:
    """Cost of ``pred`` against ``target`` under ``loss`` and its gradient
    w.r.t. ``pred``, in ``pred``'s shape."""
    return _loss_fn(loss)(pred, target)


def _loss_fn(loss: str):
    """The loss named ``loss``: the one place loss names are read."""
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    return _mse if loss == "mse" else _cross_entropy


def _pass_set(tensor: FilterTensor, train_set: TrainingSet, idx: np.ndarray, p: float,
              rng: Rng) -> Reals | DeferredSets:
    """The fresh realization set of one pass over the samples ``idx``: one draw on the
    shared graph; on per-sample graphs a deferred set, column b on its own graph (drawn
    in batch order, as a per-sample loop would draw it; at p = 1 nothing is drawn)."""
    graphs = train_set.graphs
    if not isinstance(graphs, ShiftOperator):
        graphs = [graphs[i] for i in idx]
    return sample_architecture(graphs, p, tensor.cfg, rng)


def _cost_and_grad(tensor: FilterTensor, train_set: TrainingSet, idx: np.ndarray, p: float,
                   loss: str, rng: Rng, cache: ForwardCache | None = None
                   ) -> tuple[float, np.ndarray, ForwardCache]:
    """Cost and flat gradient of one step: one forward pass on a fresh realization
    set, refilling the previous step's ``cache``, and one backward pass; the cache
    is returned for the next step."""
    reals = _pass_set(tensor, train_set, idx, p, rng)
    x, y = _batch_arrays(train_set, idx)
    out, cache = forward(tensor, reals, x, cache=cache)
    cost, dout = _loss_pair(loss, out, y)
    grad = backward(tensor, reals, cache, dout)
    cache.release()  # free the set and its keeps before the next draw
    return cost, grad, cache


def _full_cost(tensor: FilterTensor, train_set: TrainingSet, p: float, loss: str,
               rng: Rng) -> float:
    """Full-set cost on fresh realization draws (one forward-only pass)."""
    idx = np.arange(len(train_set))
    x, y = _batch_arrays(train_set, idx)
    out, _ = forward(tensor, _pass_set(tensor, train_set, idx, p, rng), x, return_cache=False)
    return _loss_pair(loss, out, y)[0]


def estimate_grad_bound(model: FilterTensor, train_set: TrainingSet, p: float,
                        n_samples: int, rng: Rng, loss: str = "mse") -> float:
    """Empirical bound on the full-set gradient norm: the max over
    ``n_samples >= 1`` independent realization sets at the current tensor,
    times a safety factor of 1.5."""
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    idx = np.arange(len(train_set))
    best = 0.0
    for _ in range(n_samples):
        _, grad, _ = _cost_and_grad(model, train_set, idx, p, loss, rng)
        best = max(best, float(np.linalg.norm(grad)))
    return 1.5 * best


def estimate_cost_gap(model: FilterTensor, train_set: TrainingSet, p: float,
                      n_samples: int, rng: Rng, loss: str = "mse") -> float:
    """Upper bound on the optimality gap of the expected cost: Monte-Carlo
    average of the initial cost over ``n_samples >= 1`` draws (the optimum of
    a nonnegative loss is taken as 0)."""
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    total = 0.0
    for _ in range(n_samples):
        total += _full_cost(model, train_set, p, loss, rng)
    return total / n_samples


def train(model: FilterTensor, train_set: TrainingSet, cfg: TrainConfig) -> TrainTrace:
    """Stochastic-gradient training; returns the trace and final tensor.

    The input tensor is not mutated.  All randomness derives from
    ``cfg.seed``: equal configs produce bit-identical traces.
    """
    root = Rng(cfg.seed)
    r_real, r_batch, r_est = root.child(0), root.child(1), root.child(2)

    num_samples = len(train_set)
    batch_size = min(cfg.batch_size, num_samples)

    if cfg.schedule == "horizon":
        gap = estimate_cost_gap(model, train_set, cfg.link_p, HORIZON_COST_GAP_SAMPLES,
                                r_est.child(0), cfg.loss)
        bound = estimate_grad_bound(model, train_set, cfg.link_p, HORIZON_GRAD_BOUND_SAMPLES,
                                    r_est.child(1), cfg.loss)
        alpha0 = convergence_step_size(max(gap, 1e-12), cfg.iterations,
                                       HORIZON_SMOOTHNESS, max(bound, 1e-12))
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
    pos, cache = 0, None
    for t in range(cfg.iterations):
        tic = time.perf_counter()
        if pos + batch_size > num_samples:
            perm = r_batch.permutation(num_samples)
            pos = 0
        idx = perm[pos : pos + batch_size]
        pos += batch_size

        cost, grad, cache = _cost_and_grad(FilterTensor(model.cfg, flat), train_set, idx,
                                           cfg.link_p, cfg.loss, r_real, cache)

        lr_t = alpha0 / np.sqrt(t + 1.0) if cfg.schedule == "invsqrt" else alpha0
        if cfg.optimizer == "sgd":
            flat = flat - lr_t * grad
        else:
            m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * grad
            m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * grad * grad
            m1_hat = m1 / (1.0 - ADAM_BETA1 ** (t + 1))
            m2_hat = m2 / (1.0 - ADAM_BETA2 ** (t + 1))
            flat = flat - lr_t * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)
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
