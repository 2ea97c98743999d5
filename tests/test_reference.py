"""The library against the frozen reference copy in ``perfbench/reference``.

The reference is the copy of the library that the benchmark divides every
timing by.  Both run one seed of each experiment.  In its own keep format the
library agrees with the reference on what draws nothing: the GNN's training,
which runs on the intact graph, and the p = 1 rows of the results table.  The
two formats differ (the library keeps an edge on a 32-bit lane, the reference
on a uniform float), but the order of draws is the same, so with the
reference's format patched into ``Rng.bernoulli`` everything else must agree
too: the SGNN's training, every row, and the Monte-Carlo variance.  One set
drawn by the library, handed to the reference's ``RealizationSet``, gives the
same outputs and gradients on any 1- or 2-layer net, and the filter constants
of the variance bounds agree on any taps and domain.  The reference is imported as
``perfbench/run.py`` imports it, with its dataset cache off, and never edited:
a sha256 of its modules is pinned here.
"""

import hashlib
import importlib
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgnn_lab import (KINDS, Rng, ShiftOperator, SgnnConfig, backward, build_sbm,
                      default_domain, estimate_response_bound, estimate_response_lipschitz,
                      filter_constants, forward, init_tensor, sample_architecture,
                      tensor_constants, to_shift)
from sgnn_lab.model import NONLINEARITIES, READOUTS

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

CASES = {
    "source": ("source", "run_source_seed", "SourceLocConfig",
               {"iterations": 40, "train_size": 200, "val_size": 20, "test_size": 20}),
    "flock": ("flocking", "run_flock_seed", "FlockingConfig",
              {"iterations": 10, "train_trajectories": 3, "steps": 10, "eval_trajectories": 1}),
}


def _libraries(monkeypatch):
    """Both packages, ``sgnn_lab`` first, the reference imported from ``REFERENCE``."""
    monkeypatch.delenv("SGNN_LAB_DATA_DIR", raising=False)
    monkeypatch.setattr(sys, "path", [*sys.path, str(REFERENCE)])
    return ("sgnn_lab", "sgnn_ref")


def _run_both(monkeypatch, name):
    module, run, config, overrides = CASES[name]
    return [getattr(mod, run)(getattr(mod, config)(**overrides), 3)
            for mod in (importlib.import_module(f"{package}.experiments.{module}")
                        for package in _libraries(monkeypatch))]


def _reference_keeps(monkeypatch):
    """The reference's keep format in the library, for this test only: one uniform
    draw per edge, kept below p."""
    monkeypatch.setattr(Rng, "bernoulli", lambda self, p, shape: self.random(shape) < p)


def _assert_traces_match(got, want):
    np.testing.assert_allclose(got.costs, want.costs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.tensor.flatten(), want.tensor.flatten(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
def test_intact_graph_outputs_match_the_reference(monkeypatch, name):
    got, want = _run_both(monkeypatch, name)
    _assert_traces_match(got["gnn_trace"], want["gnn_trace"])

    def intact_rows(result):
        return [row for row in result["rows"] if row["p"] == 1.0 and row["method"] != "sgnn"]

    assert intact_rows(got) == intact_rows(want)
    assert {row["method"] for row in intact_rows(got)} == (
        {"gnn"} if name == "source" else {"gnn", "expert", "zero"})


@pytest.mark.parametrize("name", sorted(CASES))
def test_stochastic_outputs_match_the_reference_in_its_keep_format(monkeypatch, name):
    # every p < 1 path after the draw: deferred sets, slot refills across graphs (flock),
    # chunks of a forward-only pass (source: 20 test samples in chunks of 6)
    _reference_keeps(monkeypatch)
    got, want = _run_both(monkeypatch, name)
    for trace in ("sgnn_trace", "gnn_trace"):
        _assert_traces_match(got[trace], want[trace])
    assert len(got["rows"]) == len(want["rows"])
    assert any(row["p"] < 1.0 for row in got["rows"])
    for row, ref in zip(got["rows"], want["rows"]):
        assert row.keys() == ref.keys()
        for key, value in row.items():
            if isinstance(value, float):
                np.testing.assert_allclose(value, ref[key], rtol=1e-12, atol=0, err_msg=key)
            else:
                assert value == ref[key], key


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_monte_carlo_variance_matches_the_reference_in_its_keep_format(monkeypatch, p):
    # one forward-only pass of 30 deferred sets through a 2-layer tanh net, against 30
    # single-set passes of the reference
    _reference_keeps(monkeypatch)
    results, flats = [], []
    for package in _libraries(monkeypatch):
        lib = importlib.import_module(package)
        rng = lib.Rng(8, stream=5)
        base = lib.to_shift(lib.build_sbm(12, 2, 0.8, 0.3, rng.child(0)),
                            lib.NORMALIZED_ADJACENCY)
        cfg = lib.SgnnConfig(layers=2, features=3, order=3, nonlinearity="tanh")
        tensor = lib.init_tensor(cfg, rng.child(1), 0.6)
        flats.append(tensor.flatten())
        results.append(lib.mc_sgnn_variance(tensor, base, p, rng.child(2).normal(size=12), 30,
                                            rng.child(3)))
    assert flats[0].tobytes() == flats[1].tobytes()
    assert results[0][0] > 0
    np.testing.assert_allclose(results[0], results[1], rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def sgnn_ref():
    with pytest.MonkeyPatch.context() as mp:
        return importlib.import_module(_libraries(mp)[1])


_BASES = {kind: to_shift(build_sbm(8, 2, 0.9, 0.4, Rng(2027).child(0)), kind) for kind in KINDS}


@st.composite
def _nets(draw):
    """A 1- or 2-layer net of any readout and nonlinearity at K = 0-3, pooled heads with
    three features (fewer standardize to values the layers do not move)."""
    readout = draw(st.sampled_from(READOUTS))
    return SgnnConfig(layers=draw(st.integers(1, 2)), features=draw(st.integers(1, 3)),
                      order=draw(st.integers(0, 3)),
                      nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
                      in_features=draw(st.integers(1, 2)),
                      out_features=3 if readout == "pooled" else draw(st.integers(1, 3)),
                      readout=readout,
                      readout_dim=0 if readout == "none" else draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(_nets(), st.sampled_from(KINDS), st.sampled_from([0.3, 0.7, 1.0]),
       st.sampled_from([1, 8, 9, 24]), st.integers(0, 2**16))
def test_one_drawn_set_gives_the_reference_outputs_and_gradients(sgnn_ref, cfg, kind, p,
                                                                 columns, seed):
    # B on both sides of N = 8: the Horner adjoint (B <= N, and every order below 2) and
    # the filter matrices' H^T delta_u (K >= 2, B > N) against the reference's loops
    base = _BASES[kind]
    rng = Rng(seed)
    tensor = init_tensor(cfg, rng.child(0), 0.6)
    reals = sample_architecture(base, p, cfg, rng.child(1))
    x = rng.child(2).normal(size=(cfg.in_features, base.n, columns))
    ref_cfg = sgnn_ref.SgnnConfig(**asdict(cfg))
    ref_tensor = sgnn_ref.FilterTensor.from_flat(ref_cfg, tensor.flatten())
    ref_reals = sgnn_ref.RealizationSet(sgnn_ref.ShiftOperator(base.kind, base.mat), p, ref_cfg,
                                        list(reals), [None] * cfg.layers)
    out, cache = forward(tensor, reals, x)
    want, ref_cache = sgnn_ref.forward(ref_tensor, ref_reals, x)
    assert out.shape == want.shape
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max(initial=1.0)
    out_grad = rng.child(3).normal(size=out.shape)
    grad = backward(tensor, reals, cache, out_grad)
    want_grad = sgnn_ref.backward(ref_tensor, ref_reals, ref_cache, out_grad).flatten()
    # a pooled std near its floor divides roundoff; relu's and abs' slopes flip where
    # roundoff moves a pre-activation across 0
    if cfg.readout == "pooled" and cache.pooled_std.min() <= 1e-3:
        return
    if cfg.nonlinearity == "tanh" or all(
            np.array_equal(np.sign(u), np.sign(v))
            for u, v in zip(cache.pre_activations, ref_cache.pre_activations)):
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max(initial=1.0)


def _with_samples(reference):
    """The reference's ``reference(..., n_samples, rng)`` called as the library's
    ``(..., rng)``: the library always draws the reference's default 256 samples."""
    return lambda *args: reference(*args[:-1], 256, args[-1])


# two domains of one graph, then an edgeless graph's zero-width (-0.0, 0.0)
_CONSTANT_BASES = [_BASES["adjacency"], _BASES["normalized_adjacency"],
                   ShiftOperator("adjacency", np.zeros((8, 8)))]
_TAP = st.floats(-3, 3).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


def _assert_constants_match(got, want):
    for name in ("domain", "response_bound", "response_lipschitz", "nonlinearity_lipschitz"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0,
                                   err_msg=name)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.lists(_TAP, min_size=k + 1, max_size=k + 1)),
       st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**16))
def test_filter_constants_match_the_reference(sgnn_ref, h, layers, features, seed):
    # K <= 6 keeps the reference's per-candidate gradient loop fast.  The domains
    # alternate within one process (each box's shared candidates are built for its
    # own ends); per graph its own domain, an asymmetric one (on a symmetric box the
    # gradient norm does not see the sign of lam_1) and a zero-width one
    ref_lipschitz = _with_samples(sgnn_ref.spectral.estimate_response_lipschitz)
    ref_filter, ref_tensor_constants = (_with_samples(sgnn_ref.variance.filter_constants),
                                        _with_samples(sgnn_ref.variance.tensor_constants))
    cfg = SgnnConfig(layers=layers, features=features, order=len(h) - 1, in_features=2)
    tensor = init_tensor(cfg, Rng(seed), 0.6)
    ref_tensor = sgnn_ref.FilterTensor.from_flat(sgnn_ref.SgnnConfig(**asdict(cfg)),
                                                 tensor.flatten())
    for base in [*_CONSTANT_BASES, _CONSTANT_BASES[0]]:
        ref_base = sgnn_ref.ShiftOperator(base.kind, base.mat)
        domain = default_domain(base)
        np.testing.assert_allclose(domain, sgnn_ref.spectral.default_domain(ref_base),
                                   rtol=1e-12, atol=0)
        for lo_hi in (domain, (domain[0] / 2, domain[1]), (domain[1] / 3,) * 2):
            np.testing.assert_allclose(
                [estimate_response_bound(h, lo_hi), estimate_response_lipschitz(h, lo_hi, Rng(seed))],
                [sgnn_ref.spectral.estimate_response_bound(h, lo_hi),
                 ref_lipschitz(h, lo_hi, sgnn_ref.Rng(seed))], rtol=1e-12, atol=0)
        _assert_constants_match(filter_constants(h, base, Rng(seed, stream=1)),
                                ref_filter(h, ref_base, sgnn_ref.Rng(seed, stream=1)))
        _assert_constants_match(tensor_constants(tensor, base, Rng(seed, stream=2)),
                                ref_tensor_constants(ref_tensor, ref_base,
                                                     sgnn_ref.Rng(seed, stream=2)))


# sha256 of the reference's modules, each as its path below ``REFERENCE``, a NUL, its
# size, a NUL and its bytes, in path order
REFERENCE_SHA256 = "64ab96978296a65bf4c3beb0ae6db838742130477f81cae118044290f4684449"


def test_the_frozen_reference_is_unchanged():
    digest = hashlib.sha256()
    for path in sorted(REFERENCE.glob("sgnn_ref/**/*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(REFERENCE).as_posix()}\0{len(data)}\0".encode() + data)
    assert digest.hexdigest() == REFERENCE_SHA256
