"""The library against the frozen reference copy in ``perfbench/reference``.

The reference is the copy of the library that the benchmark divides every
timing by.  Both run one seed of each experiment; only what draws nothing is
compared, since the two libraries draw their p < 1 realizations from
different streams: the GNN's training, which runs on the intact graph, and the
p = 1 rows of the results table.  The reference is imported as
``perfbench/run.py`` imports it, with its dataset cache off, and never edited.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

CASES = {
    "source": ("source", "run_source_seed", "SourceLocConfig",
               {"iterations": 40, "train_size": 200, "val_size": 20, "test_size": 20}),
    "flock": ("flocking", "run_flock_seed", "FlockingConfig",
              {"iterations": 10, "train_trajectories": 3, "steps": 10, "eval_trajectories": 1}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_intact_graph_outputs_match_the_reference(monkeypatch, name):
    monkeypatch.delenv("SGNN_LAB_DATA_DIR", raising=False)
    monkeypatch.setattr(sys, "path", [*sys.path, str(REFERENCE)])
    module, run, config, overrides = CASES[name]
    got, want = (
        getattr(mod, run)(getattr(mod, config)(**overrides), 3)
        for mod in (importlib.import_module(f"{package}.experiments.{module}")
                    for package in ("sgnn_lab", "sgnn_ref")))
    got_gnn, want_gnn = got["gnn_trace"], want["gnn_trace"]
    np.testing.assert_allclose(got_gnn.costs, want_gnn.costs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got_gnn.tensor.flatten(), want_gnn.tensor.flatten(),
                               rtol=0, atol=1e-12)

    def intact_rows(result):
        return [row for row in result["rows"] if row["p"] == 1.0 and row["method"] != "sgnn"]

    assert intact_rows(got) == intact_rows(want)
    assert {row["method"] for row in intact_rows(got)} == (
        {"gnn"} if name == "source" else {"gnn", "expert", "zero"})
