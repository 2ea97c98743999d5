"""The mutants of ``tests/mutants.py`` still name code and tests that exist: each
snippet occurs exactly once in its file under ``src/``, and each node id names a test
function of an existing test file.  Running the mutants is not tier-1 (see there)."""

import importlib.util
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_each_mutant_changes_one_snippet_of_the_library(name):
    mutant = mutants.MUTANTS[name]
    assert mutant.path.startswith("src/sgnn_lab/")
    assert mutant.snippet != mutant.replacement
    assert (mutants.ROOT / mutant.path).read_text().count(mutant.snippet) == 1


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_each_mutant_names_tests_that_exist(name):
    assert mutants.MUTANTS[name].must_fail
    for node in mutants.MUTANTS[name].must_fail:
        path, *scopes = re.sub(r"\[.*\]$", "", node).split("::")
        text = (mutants.ROOT / path).read_text()
        assert path.startswith("tests/test_") and scopes
        for scope in scopes:  # a class, then a function, or a function
            assert re.search(rf"^\s*(class|def) {scope}\b", text, re.M), node
