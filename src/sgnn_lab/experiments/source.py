"""Diffusion-source localization on a stochastic block model.

A delta at one designated node per community is diffused for a random number
of steps over the spectrally normalized adjacency and corrupted with a little
Gaussian noise; the classifier has to name the source community from the
diffused signal.  Two identically initialized networks are trained, one with
link failures sampled during training and one on the intact graph, and both
are then evaluated under link failures of varying severity.

Intra-community edges default to the denser probability (0.8 inside, 0.2
across); both are explicit parameters because the opposite convention also
appears in the literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import common
from ..errors import ConfigError
from ..filters import diffusion_stages
from ..graphs import (NORMALIZED_ADJACENCY, ShiftOperator, build_sbm, check_edge_probability,
                      to_shift)
from ..model import SgnnConfig, forward, init_tensor, sample_architecture
from ..rng import Rng
from ..training import TrainConfig, TrainingSet, train


class Split(NamedTuple):
    inputs: np.ndarray   # (R, 1, N)
    labels: np.ndarray   # (R,)
    taus: np.ndarray     # (R,)


@dataclass
class SourceLocDataset:
    base: ShiftOperator
    communities: int
    tau_max: int
    noise_sigma: float
    train: Split
    val: Split
    test: Split


@dataclass(frozen=True)
class SourceLocConfig:
    """Desk-scale defaults.  The paper-scale setup (40 nodes, order-10
    filters, diffusion times up to 40, 10^4 training tuples) is reachable
    through these fields; the desk defaults shrink the graph and, crucially,
    the filter order: stage-k diffusion scales like p^k, so transferring a
    net trained at p=0.7 down to p=0.5 is only feasible when the order keeps
    (0.5/0.7)^K moderate."""

    nodes: int = 20
    communities: int = 4
    p_intra: float = 0.8
    p_inter: float = 0.2
    tau_max: int = 6
    noise_sigma: float = 0.01
    train_size: int = 2000
    val_size: int = 200
    test_size: int = 500
    features: int = 64
    order: int = 3
    nonlinearity: str = "relu"
    init_scale: float = 1.0
    iterations: int = 2000
    batch_size: int = 100
    lr: float = 1e-2
    train_p: float = 0.7
    test_p: tuple = (1.0, 0.9, 0.7, 0.5, 0.1)
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if self.test_size < 1:
            raise ConfigError(f"test_size must be >= 1, got {self.test_size}")
        for name in ("tau_max", "val_size"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("test_p", "seeds"):
            if not getattr(self, name):
                raise ConfigError(f"{name} is empty; give at least one value")
        for p in (self.train_p, *self.test_p):
            check_edge_probability(p)

    def model_config(self) -> SgnnConfig:
        return SgnnConfig(
            layers=1, features=self.features, order=self.order,
            nonlinearity=self.nonlinearity, in_features=1,
            out_features=self.features, readout="pooled",
            readout_dim=self.communities,
        )

    def train_config(self, link_p: float, seed: int) -> TrainConfig:
        return TrainConfig(
            iterations=self.iterations, batch_size=self.batch_size, lr=self.lr,
            optimizer="adam", link_p=link_p, seed=seed, loss="cross_entropy",
        )


def _balanced_labels(size: int, communities: int, rng: Rng) -> np.ndarray:
    counts = np.full(communities, size // communities)
    counts[: size % communities] += 1
    labels = np.repeat(np.arange(communities), counts)
    return labels[rng.permutation(size)]


def gen_source_dataset(base: ShiftOperator, communities: int, sizes: tuple[int, int, int],
                       tau_max: int, noise_sigma: float, rng: Rng) -> SourceLocDataset:
    """Generate balanced train/val/test splits of diffused delta signals.

    Each sample is ``S^tau delta_c + noise`` with tau uniform in
    ``0..tau_max`` and the source of community c its lowest-index node.
    Labels are balanced within +/-1 sample per split.  A community count that does
    not divide N, or a negative ``tau_max`` or split size, raises ``ConfigError``
    before any draw.
    """
    if base.kind != NORMALIZED_ADJACENCY:
        raise ConfigError("source localization diffuses over a normalized adjacency")
    n = base.n
    if communities < 1 or n % communities or tau_max < 0 or min(sizes) < 0:
        raise ConfigError(f"need communities that divide the {n} nodes, tau_max >= 0 and split "
                          f"sizes >= 0, got {communities}, {tau_max} and {tuple(sizes)}")
    sources = [c * (n // communities) for c in range(communities)]
    diffused = np.stack([diffusion_stages([base.mat] * tau_max, delta)
                         for delta in np.eye(n)[sources]])

    splits = []
    for split_idx, size in enumerate(sizes):
        child = rng.child(split_idx)
        labels = _balanced_labels(size, communities, child.child(0))
        taus = child.child(1).integers(0, tau_max + 1, size)
        noise = noise_sigma * child.child(2).normal(size=(size, n))
        inputs = (diffused[labels, taus] + noise)[:, None, :]
        splits.append(Split(inputs=inputs, labels=labels, taus=taus))
    return SourceLocDataset(base=base, communities=communities, tau_max=tau_max,
                            noise_sigma=noise_sigma,
                            train=splits[0], val=splits[1], test=splits[2])


def evaluate_accuracy(tensor, base: ShiftOperator, inputs: np.ndarray,
                      labels: np.ndarray, p: float, rng: Rng) -> float:
    """Accuracy under link failures: every test sample sees an independent
    fresh realization set at probability ``p``.  One forward pass scores the
    whole test set on ``sample_architecture([base] * R, ...)``: below p = 1 the sets
    are deferred, sample i's drawn as the i-th of R single-set draws would draw it,
    and the layers run over chunks of samples; at p = 1 that call gives the intact
    graph, shared by the batch.

    ``tensor`` has a pooled head (``ConfigError`` otherwise: the argmax runs over its
    ``readout_dim`` classes), ``inputs`` is (R, F_in, N) with R >= 1 and ``labels``
    (R,) of classes 0 .. readout_dim - 1; ``ValueError`` otherwise.  Nothing is drawn
    before these checks."""
    if tensor.cfg.readout != "pooled":
        raise ConfigError(f"accuracy needs a pooled readout head, got {tensor.cfg.readout!r}")
    labels = np.asarray(labels)
    if len(inputs) == 0 or labels.shape != (len(inputs),):
        raise ValueError(f"{len(inputs)} test inputs with {labels.size} labels of shape "
                         f"{labels.shape}: need one label per input, and at least one input")
    if not np.isin(labels, np.arange(tensor.cfg.readout_dim)).all():
        raise ValueError(f"labels must be classes 0 .. {tensor.cfg.readout_dim - 1}, "
                         f"got {np.unique(labels)}")
    reals = sample_architecture([base] * len(inputs), p, tensor.cfg, rng)
    logits, _ = forward(tensor, reals, np.moveaxis(inputs, 0, -1), return_cache=False)
    return int(np.count_nonzero(np.argmax(logits, axis=0) == labels)) / len(inputs)


def run_source_seed(cfg: SourceLocConfig, seed: int) -> dict:
    """One full run: build graph and data, train both models, evaluate the
    accuracy table over the test probabilities."""
    rng = Rng(seed, stream=101)
    adj = build_sbm(cfg.nodes, cfg.communities, cfg.p_intra, cfg.p_inter, rng.child(0))
    base = to_shift(adj, NORMALIZED_ADJACENCY)
    dataset = gen_source_dataset(
        base, cfg.communities, (cfg.train_size, cfg.val_size, cfg.test_size),
        cfg.tau_max, cfg.noise_sigma, rng.child(1))

    model_cfg = cfg.model_config()
    tensor0 = init_tensor(model_cfg, rng.child(2), cfg.init_scale)
    train_set = TrainingSet(dataset.train.inputs, dataset.train.labels, base)
    sgnn_trace = train(tensor0, train_set, cfg.train_config(cfg.train_p, seed))
    gnn_trace = train(tensor0, train_set, cfg.train_config(1.0, seed))

    rows = []
    models = {"sgnn": sgnn_trace.tensor, "gnn": gnn_trace.tensor}
    for p_idx, p in enumerate(cfg.test_p):
        for m_idx, (method, tensor) in enumerate(models.items()):
            acc = evaluate_accuracy(tensor, base, dataset.test.inputs,
                                    dataset.test.labels, p, rng.child(100 + 10 * p_idx + m_idx))
            rows.append({"p": p, "method": method, "seed": seed,
                         "metric": "accuracy", "value": acc})
    return {"rows": rows, "sgnn_trace": sgnn_trace, "gnn_trace": gnn_trace}


def run_source_localization(cfg: SourceLocConfig, jobs: int = 1) -> list[dict]:
    """Accuracy rows over the probability grid for every seed."""
    return common.run_seeds(run_source_seed, cfg, jobs)[1]
