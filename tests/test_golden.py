"""Every CLI subcommand reproduces the values in ``tests/data/golden.json``.

The fixture holds the tables, training traces and checkpoint taps of the six
subcommands at ``--seed 0`` in both output formats; ``tests/data/make_golden.py``
makes the runs and regenerates it.  Floats must agree to 1e-12 relative,
everything else exactly.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
WANT = json.loads(golden.FIXTURE.read_text(encoding="ascii"))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    golden.run_all(out)
    return golden.read_outputs(out)


def test_same_files_as_the_fixture(outputs):
    assert sorted(outputs) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_values_match_the_fixture(outputs, name):
    assert name in outputs, f"{name} was not written"
    diffs = golden.differences(WANT[name], outputs[name], name)
    assert not diffs, "\n".join(diffs[:10])


def test_differences_flags_a_moved_float():
    assert golden.differences([1.0, "a", 2], [1.0 + 1e-13, "a", 2]) == []
    assert golden.differences([1.0], [1.0 + 1e-10], "t")
    assert golden.differences([2], [2.0], "t")


def test_moved_files_names_each_moved_file_with_its_largest_change():
    old = {"same.csv": [["a"], [1, 2.0]], "moved.csv": [["a", "b"], [3, 4.0], [5, 8.0]],
           "label.json": {"x": "a"}, "shape.json": {"x": [1.0]}, "gone.csv": []}
    new = {"same.csv": [["a"], [1, 2.0 + 1e-13]], "moved.csv": [["a", "b"], [3, 5.0], [5, 6.0]],
           "label.json": {"x": "b"}, "shape.json": {"x": [1.0, 2.0]}, "added.csv": []}
    moved = golden.moved_files(old, new)
    assert moved == {"added.csv": math.inf, "gone.csv": math.inf, "label.json": 0.0,
                     "moved.csv": 0.25, "shape.json": math.inf}


def test_regeneration_keeps_the_old_values_of_unmoved_files():
    # roundoff within the tolerance (another host's BLAS) rewrites nothing
    old = {"same.csv": [["a"], [1, 2.0]], "moved.csv": [["a"], [3.0]], "gone.csv": []}
    new = {"same.csv": [["a"], [1, 2.0 + 1e-13]], "moved.csv": [["a"], [4.0]], "added.csv": []}
    kept = golden.keep_unmoved(old, new, golden.moved_files(old, new))
    assert kept == {"same.csv": [["a"], [1, 2.0]], "moved.csv": [["a"], [4.0]], "added.csv": []}
