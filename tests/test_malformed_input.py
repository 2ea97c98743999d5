"""Public entry points refuse malformed input in the library's own words.

Each table maps an entry point to a call that varies one argument.  A refusal
must be the library's error, raised from a frame inside ``sgnn_lab``: a numpy
error that escapes fails even when it is a ``ValueError``.  The first table
covers every entry point that reads one filter's taps.
"""

from pathlib import Path

import numpy as np
import pytest

import sgnn_lab
from sgnn_lab import (
    ADJACENCY,
    Rng,
    apply_deterministic,
    apply_distributed,
    apply_filter,
    build_sbm,
    estimate_response_bound,
    estimate_response_lipschitz,
    exact_filter_variance,
    filter_constants,
    filter_norm_check,
    filter_variance_bound,
    freq_response,
    generalized_freq_response,
    gfr_partial,
    to_shift,
)

PACKAGE = Path(sgnn_lab.__file__).resolve().parent

_BASE = to_shift(build_sbm(6, 2, 0.8, 0.4, Rng(8).child(0)), ADJACENCY)
_X = np.ones(_BASE.n)
_CONSTS = filter_constants([0.2, 0.5], _BASE, Rng(9))

# every single-filter entry point, called with taps ``h`` and otherwise valid
# arguments for a filter of order 1
SINGLE_FILTER = {
    "apply_filter": lambda h: apply_filter(h, [_BASE.mat], _X),
    "apply_deterministic": lambda h: apply_deterministic(h, _BASE, _X),
    "apply_distributed": lambda h: apply_distributed(h, [_BASE.mat], _X),
    "freq_response": lambda h: freq_response(h, 0.5),
    "generalized_freq_response": lambda h: generalized_freq_response(h, [0.5]),
    "gfr_partial": lambda h: gfr_partial(h, [0.5], 1),
    "estimate_response_bound": lambda h: estimate_response_bound(h, (-1.0, 1.0)),
    "estimate_response_lipschitz": lambda h: estimate_response_lipschitz(h, (-1.0, 1.0), Rng(0)),
    "filter_norm_check": lambda h: filter_norm_check(h, _BASE),
    "exact_filter_variance": lambda h: exact_filter_variance(h, _BASE, 0.5, _X),
    "filter_variance_bound": lambda h: filter_variance_bound(h, _BASE, 0.5, _X, _CONSTS),
    "filter_constants": lambda h: filter_constants(h, _BASE, Rng(0)),
}
MALFORMED_TAPS = {"empty": [], "2-d": [[1.0, 0.5]]}


def _raised_inside_the_package(excinfo) -> bool:
    return PACKAGE in Path(str(excinfo.traceback[-1].path)).resolve().parents


@pytest.mark.parametrize("taps", sorted(MALFORMED_TAPS))
@pytest.mark.parametrize("entry", sorted(SINGLE_FILTER))
def test_malformed_taps_raise_the_taps_error(entry, taps):
    # before one reader of taps: `apply_deterministic([[1.0, 0.5]], S, x)` returned
    # [1.0, 0.5], `filter_norm_check([], S)` raised numpy's "shape-mismatch for sum",
    # and `apply_filter([], ...)` asked for -1 realizations
    with pytest.raises(ValueError, match="filter taps must be a non-empty 1-D sequence") as exc:
        SINGLE_FILTER[entry](MALFORMED_TAPS[taps])
    assert _raised_inside_the_package(exc)


@pytest.mark.parametrize("entry", sorted(SINGLE_FILTER))
def test_the_table_calls_are_valid_with_good_taps(entry):
    SINGLE_FILTER[entry]([1.0, 0.5])
