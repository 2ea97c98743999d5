"""The benchmark's call tracer still reaches the library.

``perfbench/tracing.py`` rebinds traced functions by name at every module
that binds them, so a renamed, moved or re-imported function would drop out
of the per-layer table without an error.  This runs each workload's tiny
config from ``perfbench/workloads.py`` under the full tracer and checks the
binding sites and the workload's own self-check counts, and it traces the
``training.backward`` key, a function that ``model`` defines, through a short
``train``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sgnn_lab import (NORMALIZED_ADJACENCY, Rng, SgnnConfig, TrainConfig, TrainingSet, build_sbm,
                      init_tensor, model, to_shift, train, training)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: its dataclasses look it up
    return module


tracing = _load("tracing")
workloads = _load("workloads")
WORKLOADS = workloads.workloads(workloads.Library("sgnn_lab"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_traces_every_layer_and_matches_its_counts(name):
    workload = WORKLOADS[name]
    tracer = tracing.Tracer(tracing.LAYERS)
    tracer.install()
    try:
        workload.run(workload.tiny, 0)
    finally:
        tracer.uninstall()
    assert [n for n, sites in tracer.binding_sites.items() if not sites] == []
    seen = {}
    for n, stat in tracer.stats.items():
        seen[f"{n}.calls"] = stat.calls
        if tracing.LAYERS[n] is not None:
            seen[f"{n}.{tracing.LAYERS[n][0]}"] = stat.work
    want = workload.counts(workload.tiny)
    assert {key: seen[key] for key in want} == want


@pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per_sample"])
def test_backward_is_traced_where_training_calls_it(per_sample):
    assert training.backward is model.backward
    graphs = [to_shift(build_sbm(6, 2, 0.9, 0.4, Rng(70).child(c)), NORMALIZED_ADJACENCY)
              for c in range(10 if per_sample else 1)]
    cfg = SgnnConfig(layers=2, features=3, order=2, in_features=2, out_features=2)
    data = TrainingSet(Rng(71).normal(size=(10, 2, 6)), Rng(72).normal(size=(10, 2, 6)),
                       graphs if per_sample else graphs[0])
    tracer = tracing.Tracer(["training.backward"])
    tracer.install()
    try:
        train(init_tensor(cfg, Rng(73), 0.5), data,
              TrainConfig(iterations=3, batch_size=4, link_p=0.7, seed=0))
    finally:
        tracer.uninstall()
    assert {"sgnn_lab.model.backward", "sgnn_lab.training.backward"} <= set(
        tracer.binding_sites["training.backward"])
    stat = tracer.stats["training.backward"]
    assert (stat.calls, stat.work) == (3, 3 * 4)
