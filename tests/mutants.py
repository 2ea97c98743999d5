"""Mutants of the library that the oracles must catch, and a runner for them.

Each entry changes one exact snippet of one file under ``src/`` and names the test
node ids that must fail on the changed copy.  ``tests/test_mutants.py`` (tier-1)
checks that each snippet occurs exactly once, so a refactor that moves the code has
to update its mutant rather than drop it.  The runner is not tier-1::

    python tests/mutants.py [NAME ...]

It copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` of this
checkout to a temporary directory and checks that every node id passes there.  Then
it applies one mutant at a time and runs each of its node ids in its own pytest
process.  It prints one line per mutant and node id, and exits with 1 when a node id
survives its mutant (passes on it), with 2 when one fails on the unchanged copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

_REFERENCE = "tests/test_reference.py::"
_STOCHASTIC = _REFERENCE + "test_stochastic_outputs_match_the_reference_in_its_keep_format"
_INTACT = _REFERENCE + "test_intact_graph_outputs_match_the_reference"
_ONE_SET = _REFERENCE + "test_one_drawn_set_gives_the_reference_outputs_and_gradients"
_COLUMNS = "tests/test_model.py::test_shared_set_batch_equals_its_columns_one_at_a_time"
_CENTRAL = "tests/test_training.py::test_backward_matches_central_differences"
_LIPSCHITZ = "tests/test_spectral.py::test_vectorized_lipschitz_matches_partials_loop"
_CONSTANTS = _REFERENCE + "test_filter_constants_match_the_reference"


class Mutant(NamedTuple):
    path: str                  # relative to the repository root, under src/
    snippet: str               # occurs exactly once in the file
    replacement: str
    must_fail: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = {
    # a slot refilled on another graph keeps the last graph's entries
    "stale refill": Mutant(
        "src/sgnn_lab/model.py", "slots[j].fill(0.0)", "pass",
        (_STOCHASTIC + "[flock]",
         "tests/test_model.py::test_refill_after_a_denser_graph_equals_a_fresh_set[laplacian]")),
    # each chunk of a forward-only pass leaves its first column unscored and undrawn
    "chunk skips a column": Mutant(
        "src/sgnn_lab/model.py", "slice(lo, lo + plan.chunk) for lo",
        "slice(lo + 1, lo + plan.chunk) for lo",
        (_STOCHASTIC + "[source]",
         "tests/test_model.py::test_forward_only_pass_runs_in_chunks_of_columns[33]")),
    # the stacked p = 1 product runs column b on graph b - 1
    "rolled stacked product": Mutant(
        "src/sgnn_lab/model.py", "np.stack([graph.mat for graph in reals.graphs])",
        "np.roll(np.stack([graph.mat for graph in reals.graphs]), 1, axis=0)",
        (_INTACT + "[flock]",
         "tests/test_model.py::test_forward_only_pass_on_intact_graph_list_is_one_stacked_pass")),
    # the shared-stage contraction takes tap K - k for stage k
    "reversed taps": Mutant(
        "src/sgnn_lab/model.py", "weights = taps.transpose(0, 2, 1)",
        "weights = taps[..., ::-1].transpose(0, 2, 1)",
        (_INTACT + "[source]",
         "tests/test_model.py::TestForward::test_single_filter_matches_filter_module")),
    # a filter's products built as P_k = P_(k-1) S_k: written through the transposed view,
    # the diffusion of symmetric shifts stores S_1 ... S_k in place of S_k ... S_1.  Central
    # differences cannot see it: backward reads the same products, so its gradient is
    # exact for the changed forward pass
    "products in the wrong order": Mutant(
        "src/sgnn_lab/model.py", "stages.transpose(2, 0, 1, 3, 4)[1:]",
        "stages.transpose(2, 0, 1, 4, 3)[1:]",
        (_STOCHASTIC + "[source]", _ONE_SET, _COLUMNS)),
    # the filter matrices' tap gradient pairs tap k with the product P_(k-1)
    "tap gradient one stage off": Mutant(
        "src/sgnn_lab/model.py", "(prods.reshape(o, i, w, n * n) @ outer)",
        "(np.roll(prods, 1, axis=2).reshape(o, i, w, n * n) @ outer)",
        (_STOCHASTIC + "[source]", _ONE_SET, _COLUMNS, _CENTRAL)),
    # a refill of a Laplacian's realizations leaves the diagonal it held (built only
    # into a new array)
    "refill skips the laplacian diagonal": Mutant(
        "src/sgnn_lab/graphs.py", "mats[:, np.arange(n), np.arange(n)] = ",
        "if out is None: mats[:, np.arange(n), np.arange(n)] = ",
        ("tests/test_graphs.py::TestSampleRealization::test_refill_in_place_equals_fresh_builds"
         "[laplacian]",
         "tests/test_model.py::test_refill_after_a_denser_graph_equals_a_fresh_set[laplacian]")),
    # each stage of a run reads the next stage's rows of its edge values (the last stage
    # the first's): every shift is a realization, but of the wrong stage
    "stage built from the next stage's values": Mutant(
        "src/sgnn_lab/model.py", "vals[s::self.order]", "vals[(s + 1) % self.order::self.order]",
        (_STOCHASTIC + "[flock]",
         "tests/test_model.py::test_every_stage_is_built_from_its_sets_edge_values[3-True]")),
    # every run of a group forms its edge values at the start of the value buffer: a
    # later run overwrites an earlier one's before its stages are built
    "runs share their edge value row": Mutant(
        "src/sgnn_lab/model.py", "values[a:].ravel()", "values.ravel()",
        ("tests/test_model.py::test_every_stage_is_built_from_its_sets_edge_values[3-True]",
         "tests/test_model.py::test_every_stage_is_built_from_its_sets_edge_values[3-False]")),
    # a Laplacian's degrees lose the kept weights instead of the dropped ones
    "laplacian diagonal from the kept weights": Mutant(
        "src/sgnn_lab/graphs.py", "(base._weights - vals) @ ends", "vals @ ends",
        ("tests/test_graphs.py::TestEdgeValues::test_each_stage_from_the_values_equals_the_keep_"
         "formula[3]",
         "tests/test_graphs.py::TestSampleRealization::test_laplacian_build_equals_a_hand_built_"
         "laplacian[False]")),
    # the edge values are the keeps alone: right on unit weights only
    "edge values without their weights": Mutant(
        "src/sgnn_lab/graphs.py", "vals *= base._weights", "pass",
        (_STOCHASTIC + "[flock]",
         "tests/test_graphs.py::TestEdgeValues::test_values_are_the_kept_weights")),
    # the pooled head centers each feature over the batch instead of each column over
    # the features
    "pooled head centered over the wrong axis": Mutant(
        "src/sgnn_lab/model.py", "centered = pooled - np.add.reduce(pooled, axis=0) / len(pooled)",
        "centered = pooled - np.add.reduce(pooled, axis=1, keepdims=True) / pooled.shape[1]",
        (_STOCHASTIC + "[source]", _ONE_SET, _CENTRAL)),
    # every step descends along the negated gradient
    "sign-flipped gradient": Mutant(
        "src/sgnn_lab/training.py", "grad = backward(tensor, reals, cache, dout)",
        "grad = -backward(tensor, reals, cache, dout)",
        (_STOCHASTIC + "[source]",
         "tests/test_training.py::TestTrain::test_recovers_generating_filter")),
    # Adam, the default optimizer and source's, never moves the taps
    "skipped optimizer update": Mutant(
        "src/sgnn_lab/training.py", "flat = flat - lr_t * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)",
        "pass",
        (_STOCHASTIC + "[source]",
         "tests/test_golden.py::test_values_match_the_fixture[csv/train-source/source_sgnn_seed0.ckpt]")),
    # a box's shared Lipschitz candidates are looked up by K alone: a second domain of
    # the same order reads the first one's
    "lipschitz box keyed by its order": Mutant(
        "src/sgnn_lab/spectral.py", "@functools.lru_cache(maxsize=4)",
        "@lambda build, boxes={}: lambda k, lo, hi: boxes.get(k) or boxes.setdefault(k, build(k, lo, hi))",
        (_LIPSCHITZ, _CONSTANTS)),
    # the box vertices with lam_1 = hi, the last half of the vertex rows, are no
    # candidates (dropping only the last row, (hi, ..., hi), changes nothing: it is
    # also a structured row)
    "lipschitz vertices cut short": Mutant(
        "src/sgnn_lab/spectral.py", "np.arange(2**k_order)", "np.arange(2**(k_order - 1))",
        (_LIPSCHITZ, _CONSTANTS)),
}


def _passes(copy: Path, node: str) -> bool:
    # no bytecode: two mutants of one file can have its size and modification second
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
                         cwd=copy, env=env, capture_output=True, text=True)
    return run.returncode == 0


def main(names: list[str]) -> int:
    names = names or list(MUTANTS)
    unknown = set(names) - set(MUTANTS)
    if unknown:
        print(f"unknown mutants {sorted(unknown)}; known: {list(MUTANTS)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / part, copy / part)
        nodes = sorted({node for name in names for node in MUTANTS[name].must_fail})
        broken = [node for node in nodes if not _passes(copy, node)]
        if broken:
            print(f"fail on the unchanged copy: {broken}")
            return 2
        survivors = 0
        for name in names:
            mutant = MUTANTS[name]
            target = copy / mutant.path
            original = target.read_text()
            if original.count(mutant.snippet) != 1:
                print(f"{name}: snippet not found exactly once in {mutant.path}")
                return 2
            target.write_text(original.replace(mutant.snippet, mutant.replacement))
            try:
                for node in mutant.must_fail:
                    survived = _passes(copy, node)
                    survivors += survived
                    print(f"{'SURVIVED' if survived else 'killed  '}  {name}: {node}", flush=True)
            finally:
                target.write_text(original)
    print(f"{survivors} survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
