"""The benchmark's workloads: seeded runs through the library's public entry
points, with output checks and a digest of the seeded outputs.

Each workload names the traced function whose busy time is its fit phase
and the one whose busy time and work count give its evaluation rate, so the
untraced run needs to time only those few top-level calls.

The same workloads run on two copies of the library, each reached through
a :class:`Library`: the checkout's ``sgnn_lab`` and the frozen reference
copy under ``perfbench/reference`` that the timings are divided by.
Library functions are reached through their modules (``lib.variance.x``,
not a copied name), so that the tracer's rebinding also covers calls made
here.

- ``source``: one ``run_source_seed``.  Shared-base batched training plus
  2 x |test_p| x test_size single-sample evaluations; one eigensolve.
- ``flock``: one ``run_flock_seed``.  Hundreds of disc-graph rebuilds and
  normalizations (one eigensolve each), per-sample-base training, and
  closed-loop rollouts.
- ``variance``: filter constants of a source-shaped tensor at the paper's
  K=10 (8 filters, so that a run holds many repetitions), then a
  Monte-Carlo sweep over the link-stable grid.  The only workload that
  estimates filter constants; forward passes carry no cache and no backward.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Library:
    """The modules the workloads call, from the package named ``package``."""

    def __init__(self, package: str):
        def load(name):
            return importlib.import_module(f"{package}.{name}")

        self.graphs = load("graphs")
        self.model = load("model")
        self.variance = load("variance")
        self.source = load("experiments.source")
        self.flocking = load("experiments.flocking")
        self.Rng = load("rng").Rng


@dataclass(frozen=True)
class Outcome:
    """One repetition: operations attempted and failed, and a digest of
    every seeded output."""

    attempted: int
    failed: int
    digest: str


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
    return h.hexdigest()


def _cost_decreased(costs: np.ndarray) -> bool:
    """Finite costs whose mean over the last tenth of the steps is below
    the mean over the first tenth."""
    tenth = max(1, len(costs) // 10)
    return bool(np.all(np.isfinite(costs)) and costs[-tenth:].mean() < costs[:tenth].mean())


# ---------------------------------------------------------------------------
# source


def run_source(lib: Library, cfg, seed: int) -> Outcome:
    result = lib.source.run_source_seed(cfg, seed)
    traces = (result["sgnn_trace"], result["gnn_trace"])
    accs = [row["value"] for row in result["rows"]]
    failed = sum(not _cost_decreased(t.costs) for t in traces)
    failed += sum(not (np.isfinite(a) and 0.0 <= a <= 1.0) for a in accs)
    digest = _digest(accs, *(t.costs for t in traces), *(t.tensor.flatten() for t in traces))
    return Outcome(len(traces) + len(accs), failed, digest)


def source_counts(cfg) -> dict[str, int]:
    steps = 2 * cfg.iterations
    columns = steps * min(cfg.batch_size, cfg.train_size)
    eval_calls = 2 * len(cfg.test_p)
    return {
        "training.train.calls": 2,
        "training.train.steps": steps,
        "training.backward.calls": steps,
        "training.backward.columns": columns,
        "experiments.source.gen_source_dataset.calls": 1,
        "experiments.source.evaluate_accuracy.calls": eval_calls,
        "experiments.source.evaluate_accuracy.samples": eval_calls * cfg.test_size,
        "model.forward.columns": columns + eval_calls * cfg.test_size,
        "graphs.build_sbm.calls": 1,
    }


# ---------------------------------------------------------------------------
# flock


def run_flock(lib: Library, cfg, seed: int) -> Outcome:
    result = lib.flocking.run_flock_seed(cfg, seed)
    traces = (result["sgnn_trace"], result["gnn_trace"])
    cost = {(row["p"], row["method"]): row["value"] for row in result["rows"]}
    bad_rows = {key for key, value in cost.items() if not np.isfinite(value)}
    bad_rows |= {(p, "expert") for p in cfg.test_p
                 if not cost[(p, "expert")] < cost[(p, "zero")]}
    failed = sum(not np.all(np.isfinite(t.costs)) for t in traces)
    failed += len(bad_rows) * cfg.eval_trajectories
    digest = _digest(list(cost.values()), *(t.costs for t in traces),
                     *(t.tensor.flatten() for t in traces))
    return Outcome(len(traces) + len(cost) * cfg.eval_trajectories, failed, digest)


def flock_counts(cfg) -> dict[str, int]:
    steps = 2 * cfg.iterations
    rollouts = 4 * len(cfg.test_p) * cfg.eval_trajectories
    learned_steps = 2 * len(cfg.test_p) * cfg.eval_trajectories * cfg.steps
    return {
        "training.train.calls": 2,
        "training.train.steps": steps,
        "training.backward.columns": steps * cfg.batch_size,
        "experiments.flocking.collect_expert_dataset.calls": 2,
        "experiments.flocking.simulate_swarm.calls": rollouts,
        "experiments.flocking.simulate_swarm.steps": rollouts * cfg.steps,
        "model.forward.columns": steps * cfg.batch_size + learned_steps,
    }


# ---------------------------------------------------------------------------
# variance


@dataclass(frozen=True)
class VarianceConfig:
    """A source-localization-shaped network and graph; ``shape.order`` is
    the filter order K and ``shape.features`` the filter count."""

    shape: object                  # a ``SourceLocConfig``
    p_grid: tuple = (0.9, 0.95, 0.99, 1.0)
    mc_samples: int = 250


def run_variance(lib: Library, cfg: VarianceConfig, seed: int) -> Outcome:
    shape = cfg.shape
    rng = lib.Rng(seed, stream=303)
    adj = lib.graphs.build_sbm(shape.nodes, shape.communities, shape.p_intra, shape.p_inter,
                               rng.child(0))
    base = lib.graphs.to_shift(adj, lib.graphs.NORMALIZED_ADJACENCY)
    tensor = lib.model.init_tensor(shape.model_config(), rng.child(1), shape.init_scale)
    x = rng.child(2).normal(size=base.n)
    constants = lib.variance.tensor_constants(tensor, base, rng=rng.child(3))
    reports = [lib.variance.make_sgnn_report(tensor, base, p, x, cfg.mc_samples,
                                             rng.child(10 + i), constants)
               for i, p in enumerate(cfg.p_grid)]
    constants_ok = (np.isfinite(constants.response_bound)
                    and np.isfinite(constants.response_lipschitz))
    failed = 0
    for r in reports:
        if r.p == 1.0:
            ok = r.mc_variance <= 1e-12
        else:
            ok = r.mc_variance <= r.bound_first_order + 3.0 * r.mc_std_error
        failed += not (ok and constants_ok and np.isfinite(r.mc_variance))
    digest = _digest([constants.response_bound, constants.response_lipschitz],
                     [(r.mc_variance, r.mc_std_error, r.bound_first_order) for r in reports])
    return Outcome(len(reports), failed, digest)


def variance_counts(cfg: VarianceConfig) -> dict[str, int]:
    filters = sum(o * i for o, i in cfg.shape.model_config().layer_shapes())
    return {
        "variance.tensor_constants.calls": 1,
        "spectral.estimate_response_lipschitz.calls": filters,
        "spectral.estimate_response_bound.calls": filters,
        "variance.mc_sgnn_variance.calls": len(cfg.p_grid),
        "variance.mc_sgnn_variance.samples": len(cfg.p_grid) * cfg.mc_samples,
        "model.forward.columns": len(cfg.p_grid) * cfg.mc_samples,
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    run: Callable[[object, int], Outcome]
    config: object
    tiny: object                   # warm-up size, same code paths
    counts: Callable[[object], dict[str, int]]   # config -> self-check counts
    fit: str                       # traced function timed as the fit phase
    evaluate: str                  # traced function giving the evaluation rate


def workloads(lib: Library) -> dict[str, Workload]:
    """The workloads, with configs made from ``lib``'s own classes."""
    src, flock = lib.source.SourceLocConfig, lib.flocking.FlockingConfig
    return {
        "source": Workload(
            functools.partial(run_source, lib),
            src(iterations=60, test_size=100, seeds=(0,)),
            src(train_size=8, val_size=4, test_size=4, features=4, iterations=2,
                batch_size=4, seeds=(0,)),
            source_counts, fit="training.train",
            evaluate="experiments.source.evaluate_accuracy"),
        "flock": Workload(
            functools.partial(run_flock, lib),
            flock(iterations=10, train_trajectories=3, steps=10, eval_trajectories=1,
                  seeds=(0,)),
            flock(iterations=2, train_trajectories=1, steps=2, eval_trajectories=1,
                  feature_variants=1, features=4, batch_size=2, seeds=(0,)),
            flock_counts, fit="training.train",
            evaluate="experiments.flocking.simulate_swarm"),
        "variance": Workload(
            functools.partial(run_variance, lib),
            VarianceConfig(shape=src(order=10, features=8)),
            VarianceConfig(shape=src(order=2, features=2), p_grid=(0.9, 1.0), mc_samples=4),
            variance_counts, fit="variance.tensor_constants",
            evaluate="variance.mc_sgnn_variance"),
    }
