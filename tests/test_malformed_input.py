"""Public entry points refuse malformed input in the library's own words.

Each table maps an entry point to a call that varies one argument.  A refusal
must be the library's error, raised from a frame inside ``sgnn_lab``: a numpy
error that escapes fails even when it is a ``ValueError``.  The first table
covers every entry point that reads one filter's taps, the second the entry
points that the Monte-Carlo sweeps and the accuracy evaluation time.
"""

from pathlib import Path

import numpy as np
import pytest

import sgnn_lab
from sgnn_lab import (
    ADJACENCY,
    ConfigError,
    Rng,
    SgnnConfig,
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
    forward,
    gfr_partial,
    init_tensor,
    mc_sgnn_variance,
    sample_architecture,
    sample_realizations,
    to_shift,
)
from sgnn_lab.experiments import evaluate_accuracy
from sgnn_lab.model import DeferredSets

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


_NET = init_tensor(SgnnConfig(layers=1, features=2, order=2, out_features=2), Rng(10), 0.5)
_CLASSIFIER = init_tensor(SgnnConfig(layers=1, features=2, order=2, out_features=2,
                                     readout="pooled", readout_dim=2), Rng(10), 0.5)
_INPUTS = Rng(11).normal(size=(4, 1, _BASE.n))


def _forward(x, rng):
    return forward(_NET, sample_architecture([_BASE] * 2, 0.7, _NET.cfg, rng), x,
                   return_cache=False)


_EIGHT = build_sbm(8, 2, 0.8, 0.4, Rng(12).child(0))


def _forward_deferred(p):
    """A pass on a deferred set of a given first graph and ``_BASE``, built by hand (as
    :func:`sample_architecture` would refuse mixed node counts)."""
    return lambda first, rng: forward(_NET, DeferredSets((first, _BASE), p, rng),
                                      np.ones((1, first.n, 2)), return_cache=False)


# timed entry points, each called on a stream with one argument varied: the malformed
# value, the error and its message, and a good value.  A complex signal was once cast
# with a ComplexWarning, its imaginary part dropped; n_samples=2.5 raised a raw
# TypeError from `[base] * n_samples`; a head without classes or labels that are no
# class scored an accuracy above 1, or 0; an 8-node plus a 6-node deferred set ran
# at p = 0.7, the 6-node graph written into 8 x 8 slots, and raised numpy's
# stacking error at p = 1; NaN inputs labelled 0 scored an accuracy of 1 (NaN logits
# argmax to class 0), and a NaN signal gave a variance of NaN; a realization count of
# 2.5 raised numpy's TypeError (below p = 1 from its random generator, at p = 1 from
# broadcast_to), a negative or fractional keep shape numpy's ValueError, and an array as
# a base AttributeError from the node-count check
TIMED = {
    "mc_sgnn_variance n_samples": (
        lambda n, rng: mc_sgnn_variance(_NET, _BASE, 0.7, _X, n, rng),
        2.5, np.int64(3), ConfigError, "n_samples must be >= 2 and an integer, got 2.5"),
    "mc_sgnn_variance signal": (
        lambda x, rng: mc_sgnn_variance(_NET, _BASE, 0.7, x, 3, rng),
        _X + 1j, _X, ValueError, "signal entries must be real"),
    "mc_sgnn_variance NaN signal": (
        lambda x, rng: mc_sgnn_variance(_NET, _BASE, 0.7, x, 3, rng),
        np.where(np.arange(_BASE.n) == 1, np.nan, _X), _X, ValueError,
        "signal entries must be finite"),
    "mc_sgnn_variance infinite signal": (
        lambda x, rng: mc_sgnn_variance(_NET, _BASE, 0.7, x, 3, rng),
        np.where(np.arange(_BASE.n) == 1, -np.inf, _X), _X, ValueError,
        "signal entries must be finite"),
    "exact_filter_variance signal": (
        lambda x, rng: exact_filter_variance([0.2, 0.5], _BASE, 0.5, x),
        _X + 0j, _X, ValueError, "signal entries must be real"),
    "forward input": (
        _forward, np.ones((1, _BASE.n, 2)) + 1j, np.ones((1, _BASE.n, 2)), ValueError,
        "input entries must be real"),
    "forward deferred node counts": (
        _forward_deferred(0.7), _EIGHT, _BASE, ValueError,
        r"per-column graphs need one node count, got \[8, 6\]"),
    "forward deferred node counts at p = 1": (
        _forward_deferred(1.0), _EIGHT, _BASE, ValueError,
        r"per-column graphs need one node count, got \[8, 6\]"),
    "sample_realizations count": (
        lambda count, rng: sample_realizations(_BASE, 0.7, rng, count),
        2.5, np.int64(3), ValueError, "realization count must be an integer >= 0, got 2.5"),
    "sample_realizations count at p = 1": (
        lambda count, rng: sample_realizations(_BASE, 1.0, rng, count),
        2.5, np.int64(3), ValueError, "realization count must be an integer >= 0, got 2.5"),
    "sample_realizations string count": (
        lambda count, rng: sample_realizations(_BASE, 0.7, rng, count),
        "3", 3, ValueError, "realization count must be an integer >= 0, got '3'"),
    "Rng.bernoulli negative shape": (
        lambda shape, rng: rng.bernoulli(0.7, shape),
        (2, -1), (2, np.int64(3)), ValueError,
        r"shape entries must be integers >= 0, got \(2, -1\)"),
    "Rng.bernoulli fractional shape": (
        lambda shape, rng: rng.bernoulli(0.7, shape),
        (2, 2.5), (2, 0), ValueError, r"shape entries must be integers >= 0, got \(2, 2\.5\)"),
    "sample_architecture array base": (
        lambda base, rng: sample_architecture(base, 0.7, _NET.cfg, rng),
        _BASE.mat, _BASE, ValueError,
        "base must be a ShiftOperator or a sequence of them, got ndarray"),
    "sample_architecture sequence of arrays": (
        lambda base, rng: sample_architecture(base, 0.7, _NET.cfg, rng),
        [_BASE.mat, _BASE.mat], [_BASE, _BASE], ValueError,
        "base must be a ShiftOperator or a sequence of them, got list"),
    "evaluate_accuracy head": (
        lambda net, rng: evaluate_accuracy(net, _BASE, _INPUTS, [0, 1, 1, 0], 0.7, rng),
        _NET, _CLASSIFIER, ConfigError, "accuracy needs a pooled readout head, got 'none'"),
    "evaluate_accuracy fractional labels": (
        lambda labels, rng: evaluate_accuracy(_CLASSIFIER, _BASE, _INPUTS, labels, 0.7, rng),
        [0, 0.5, 1, 0], [0.0, 1.0, 1.0, 0.0], ValueError, r"labels must be classes 0 \.\. 1"),
    "evaluate_accuracy labels out of range": (
        lambda labels, rng: evaluate_accuracy(_CLASSIFIER, _BASE, _INPUTS, labels, 0.7, rng),
        [0, 2, 1, -1], np.array([0, 1, 1, 0], dtype=np.int8), ValueError,
        r"labels must be classes 0 \.\. 1"),
    "evaluate_accuracy NaN inputs": (
        lambda inputs, rng: evaluate_accuracy(_CLASSIFIER, _BASE, inputs, [0, 0, 0, 0], 0.7,
                                              rng),
        np.full_like(_INPUTS, np.nan), _INPUTS, ValueError, "test inputs must be finite"),
    "evaluate_accuracy infinite inputs": (
        lambda inputs, rng: evaluate_accuracy(_CLASSIFIER, _BASE, inputs, [0, 1, 1, 0], 0.7,
                                              rng),
        np.where(np.arange(_BASE.n) == 2, np.inf, _INPUTS), _INPUTS, ValueError,
        "test inputs must be finite"),
}


@pytest.mark.parametrize("row", sorted(TIMED))
def test_timed_entry_points_refuse_bad_input_before_any_draw(row):
    call, bad, _, error, match = TIMED[row]
    rng = Rng(0)
    with pytest.raises(error, match=match) as exc:
        call(bad, rng)
    assert _raised_inside_the_package(exc)
    assert rng.random(4).tobytes() == Rng(0).random(4).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", sorted(TIMED))
def test_the_timed_calls_are_valid_with_good_input(row):
    call, _, good, _, _ = TIMED[row]
    call(good, Rng(0))
