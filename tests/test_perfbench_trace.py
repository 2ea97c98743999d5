"""The benchmark's call tracer still reaches the library.

``perfbench/tracing.py`` rebinds traced functions by name at every module
that binds them, so a renamed, moved or re-imported function would drop out
of the per-layer table without an error.  This runs each workload's tiny
config from ``perfbench/workloads.py`` under the full tracer and checks the
binding sites and the workload's own self-check counts.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
