import itertools
import resource
import struct
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgnn_lab import (
    ConfigError,
    FilterTensor,
    NORMALIZED_ADJACENCY,
    Rng,
    SgnnConfig,
    ShiftOperator,
    ADJACENCY,
    KINDS,
    apply_filter,
    apply_nonlinearity,
    backward,
    build_sbm,
    forward,
    forward_expected,
    init_tensor,
    load_checkpoint,
    sample_architecture,
    sample_realizations,
    save_checkpoint,
    to_shift,
)
from sgnn_lab import model
from sgnn_lab.model import NONLINEARITIES, READOUTS, DeferredSets, split_params


@pytest.fixture
def base8(random8):
    return to_shift(random8, NORMALIZED_ADJACENCY)


class TestNonlinearities:
    def test_relu_values_and_derivative(self):
        val, der = apply_nonlinearity("relu", np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(val, [0.0, 0.0, 2.0])
        assert np.array_equal(der, [0.0, 0.0, 1.0])

    def test_abs(self):
        val, der = apply_nonlinearity("abs", np.array([-3.0, 0.0, 3.0]))
        assert np.array_equal(val, [3.0, 0.0, 3.0])
        assert np.array_equal(der, [-1.0, 0.0, 1.0])

    def test_tanh_at_zero(self):
        val, der = apply_nonlinearity("tanh", np.array([0.0]))
        assert val[0] == 0.0 and der[0] == 1.0

    @pytest.mark.parametrize("kind", ["relu", "abs", "tanh"])
    def test_zero_fixed_point(self, kind):
        val, _ = apply_nonlinearity(kind, np.zeros(5))
        assert np.array_equal(val, np.zeros(5))

    @pytest.mark.parametrize("kind", ["relu", "abs", "tanh"])
    def test_unit_lipschitz_on_random_pairs(self, kind):
        rng = Rng(0)
        a = rng.normal(0, 3, 100_000)
        b = rng.normal(0, 3, 100_000)
        fa, _ = apply_nonlinearity(kind, a)
        fb, _ = apply_nonlinearity(kind, b)
        assert np.all(np.abs(fa - fb) <= np.abs(a - b) + 1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            apply_nonlinearity("sigmoid", np.zeros(2))


class TestConfig:
    def test_layer_shapes_multilayer(self):
        cfg = SgnnConfig(layers=3, features=4, order=2, in_features=2, out_features=3)
        assert cfg.layer_shapes() == [(4, 2), (4, 4), (3, 4)]

    def test_shift_sample_count_matches_architecture_formula(self):
        # K [2F + (L-2) F^2] for single input/output feature
        for layers, features, order in [(2, 3, 4), (3, 2, 1), (4, 5, 2)]:
            cfg = SgnnConfig(layers=layers, features=features, order=order)
            want = order * (2 * features + (layers - 2) * features**2)
            assert cfg.num_shift_samples == want

    def test_single_layer_count(self):
        cfg = SgnnConfig(layers=1, features=32, order=10, out_features=32)
        assert cfg.num_shift_samples == 10 * 32

    def test_validation(self):
        with pytest.raises(ConfigError):
            SgnnConfig(layers=0, features=1, order=1)
        with pytest.raises(ConfigError):
            SgnnConfig(layers=1, features=1, order=-1)
        with pytest.raises(ConfigError):
            SgnnConfig(layers=1, features=1, order=1, readout="pooled")
        with pytest.raises(ConfigError):
            SgnnConfig(layers=1, features=1, order=1, nonlinearity="swish")


class TestInitTensor:
    def test_zero_scale_gives_zero_output(self, base8):
        cfg = SgnnConfig(layers=2, features=2, order=2)
        tensor = init_tensor(cfg, Rng(0), 0.0)
        reals = sample_architecture(base8, 0.8, cfg, Rng(1))
        out, _ = forward(tensor, reals, Rng(2).normal(size=(1, 8, 1)), return_cache=False)
        assert np.array_equal(out, np.zeros((1, 8, 1)))

    def test_reproducible(self):
        cfg = SgnnConfig(layers=2, features=3, order=1)
        a = init_tensor(cfg, Rng(9), 0.5).flatten()
        b = init_tensor(cfg, Rng(9), 0.5).flatten()
        assert np.array_equal(a, b)

    def test_shape_arithmetic(self):
        cfg = SgnnConfig(layers=2, features=2, order=1)
        tensor = init_tensor(cfg, Rng(0), 0.1)
        # 2 + 2 filters, each with 2 taps
        assert sum(arr.size for arr in tensor.layers) == 8
        assert tensor.flatten().shape == (8,)

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigError):
            init_tensor(SgnnConfig(layers=1, features=1, order=0), Rng(0), -1.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ConfigError, match="init scale must be finite"):
            init_tensor(SgnnConfig(layers=1, features=1, order=0), Rng(0), scale)


class TestSampleArchitecture:
    def test_sequence_counts(self, base8):
        cfg = SgnnConfig(layers=2, features=1, order=3)
        reals = sample_architecture(base8, 0.5, cfg, Rng(0))
        assert sum(int(np.prod(m.shape[:3])) for m in reals) == 6
        seq = reals[0][0, 0]
        assert len(seq) == 3

    def test_intact_probability_reproduces_base(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=2, out_features=2)
        reals = sample_architecture(base8, 1.0, cfg, Rng(0))
        for f in range(2):
            for r in reals[0][f, 0]:
                assert np.array_equal(r, base8.mat)

    @pytest.mark.parametrize("columns", [None, 1, 5])
    def test_intact_set_is_a_full_shape_view_that_draws_nothing(self, base8, columns):
        # per-column graphs that are all one object too: at p = 1 every column's set is
        # that graph, so the batch shares it and nothing is deferred
        cfg = SgnnConfig(layers=3, features=2, order=3, in_features=2)
        rng = Rng(0)
        reals = sample_architecture(base8 if columns is None else [base8] * columns, 1.0, cfg,
                                    rng)
        assert isinstance(reals, tuple) and not isinstance(reals, DeferredSets)
        assert [m.shape for m in reals] == [(o, i, 3, 8, 8) for o, i in cfg.layer_shapes()]
        for mats in reals:
            assert mats.strides[:3] == (0, 0, 0) and not mats.flags.writeable
            assert np.shares_memory(mats, base8.mat)
        assert np.array_equal(rng.random(4), Rng(0).random(4))

    def test_different_streams_differ(self, base8):
        assert base8.num_edges >= 8
        cfg = SgnnConfig(layers=1, features=1, order=2)
        a = sample_architecture(base8, 0.5, cfg, Rng(0, 1))
        b = sample_architecture(base8, 0.5, cfg, Rng(0, 2))
        assert not np.array_equal(a[0], b[0])


class TestForward:
    def test_single_filter_matches_filter_module(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=3, nonlinearity="abs")
        tensor = init_tensor(cfg, Rng(3), 0.7)
        reals = sample_architecture(base8, 0.6, cfg, Rng(4))
        x = Rng(5).normal(size=8)
        out, _ = forward(tensor, reals, x[None, :, None], return_cache=False)
        want = np.abs(apply_filter(tensor.layers[0][0, 0], reals[0][0, 0], x))
        assert np.abs(out[0, :, 0] - want).max() <= 1e-12

    def test_two_layer_matches_matrix_product_loop(self, base8):
        # every filter's stages and every layer's output against plain matmuls
        cfg = SgnnConfig(layers=2, features=3, order=3, nonlinearity="tanh", in_features=2)
        tensor = init_tensor(cfg, Rng(6), 0.5)
        reals = sample_architecture(base8, 0.6, cfg, Rng(7))
        x = Rng(8).normal(size=(2, 8))
        out, cache = forward(tensor, reals, x[..., None])

        current = x
        for layer, (taps, mats) in enumerate(zip(tensor.layers, reals)):
            u = np.zeros((taps.shape[0], 8))
            for f in range(taps.shape[0]):
                for g in range(taps.shape[1]):
                    stages = [current[g]]
                    for k in range(cfg.order):
                        stages.append(mats[f, g, k] @ stages[-1])
                    got = cache.stages[layer][:, f, g, :, 0]
                    assert np.abs(got - np.array(stages)).max() <= 1e-12
                    u[f] += taps[f, g] @ np.array(stages)
            assert np.abs(cache.pre_activations[layer][:, :, 0] - u).max() <= 1e-12
            current = np.tanh(u)
        assert np.abs(out[..., 0] - current).max() <= 1e-12

    def test_zero_tensor_zero_output(self, base8):
        cfg = SgnnConfig(layers=2, features=3, order=2)
        tensor = FilterTensor.from_flat(cfg, np.zeros(cfg.num_params))
        reals = sample_architecture(base8, 0.5, cfg, Rng(0))
        out, _ = forward(tensor, reals, Rng(1).normal(size=(1, 8, 1)), return_cache=False)
        assert np.array_equal(out, np.zeros((1, 8, 1)))

    def test_two_layer_hand_oracle_on_path(self, p3):
        # nonnegative data and taps with abs nonlinearity: every activation
        # stays nonnegative, so the network is the plain linear composition,
        # reproducible by explicit matrix powers
        base = p3
        cfg = SgnnConfig(layers=2, features=2, order=1, nonlinearity="abs")
        rng = Rng(7)
        flat = rng.uniform(0.1, 1.0, cfg.num_params)
        tensor = FilterTensor.from_flat(cfg, flat)
        reals = sample_architecture(base, 1.0, cfg, rng)
        x = np.array([0.5, 1.0, 0.25])
        out, _ = forward(tensor, reals, x[None, :, None], return_cache=False)

        s = base.mat
        h1 = tensor.layers[0]          # (2, 1, 2)
        h2 = tensor.layers[1]          # (1, 2, 2)
        layer1 = [h1[f, 0, 0] * x + h1[f, 0, 1] * (s @ x) for f in range(2)]
        want = np.zeros(3)
        for g in range(2):
            want += h2[0, g, 0] * layer1[g] + h2[0, g, 1] * (s @ layer1[g])
        assert np.abs(out[0, :, 0] - want).max() <= 1e-12

    def test_permutation_equivariance_on_intact_graph(self, random8):
        cfg = SgnnConfig(layers=2, features=3, order=2, nonlinearity="tanh")
        tensor = init_tensor(cfg, Rng(1), 0.5)
        x = Rng(2).normal(size=8)
        perm = Rng(3).permutation(8)
        pmat = np.eye(8)[perm]

        out, _ = forward(tensor, sample_architecture(random8, 1.0, cfg, Rng(4)),
                         x[None, :, None], return_cache=False)
        permuted_base = ShiftOperator(ADJACENCY, pmat @ random8.mat @ pmat.T)
        out_p, _ = forward(tensor, sample_architecture(permuted_base, 1.0, cfg, Rng(5)),
                           (pmat @ x)[None, :, None], return_cache=False)
        assert np.abs(out_p[0, :, 0] - pmat @ out[0, :, 0]).max() <= 1e-10

    def test_intact_forward_ignores_rng(self, base8):
        cfg = SgnnConfig(layers=2, features=2, order=3)
        tensor = init_tensor(cfg, Rng(0), 0.4)
        x = Rng(1).normal(size=(1, 8, 1))
        a, _ = forward(tensor, sample_architecture(base8, 1.0, cfg, Rng(100)), x,
                       return_cache=False)
        b, _ = forward(tensor, sample_architecture(base8, 1.0, cfg, Rng(999)), x,
                       return_cache=False)
        assert np.array_equal(a, b)

    def test_batched_matches_loop(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=2, out_features=2,
                         readout="per_node", readout_dim=2)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = sample_architecture(base8, 0.6, cfg, Rng(1))
        xs = Rng(2).normal(size=(1, 8, 5))
        batch_out, _ = forward(tensor, reals, xs, return_cache=False)
        for b in range(5):
            single, _ = forward(tensor, reals, xs[:, :, b, None], return_cache=False)
            assert np.abs(batch_out[:, :, b] - single[:, :, 0]).max() <= 1e-12

    def test_mismatched_realizations_rejected(self, base8, p3):
        cfg = SgnnConfig(layers=2, features=2, order=1)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = sample_architecture(base8, 0.5, cfg, Rng(1))
        with pytest.raises(ValueError, match="has 1 layers"):
            forward(tensor, reals[:1], np.ones((1, 8, 1)))
        with pytest.raises(ValueError, match="layer 0 .* for 8 nodes"):
            forward(tensor, sample_architecture(p3, 0.5, cfg, Rng(1)), np.ones((1, 8, 1)))
        # a node-count mismatch in a later layer alone is caught too
        with pytest.raises(ValueError, match="layer 1 .* for 8 nodes"):
            forward(tensor, (reals[0], reals[1][..., :3, :3]), np.ones((1, 8, 1)))

    @pytest.mark.parametrize("columns", [2, 3])
    def test_trailing_column_axis_rejected(self, base8, columns):
        # per-column shifts are a DeferredSets; a stacked realization array is not a set
        cfg = SgnnConfig(layers=2, features=2, order=1)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = tuple(np.stack([m] * columns, axis=-1)
                      for m in sample_architecture(base8, 0.5, cfg, Rng(1)))
        for return_cache in (False, True):
            with pytest.raises(ValueError, match=r"layer 0 .* expected \(2, 1, 1, 8, 8\)"):
                forward(tensor, reals, np.ones((1, 8, columns)), return_cache=return_cache)

    @pytest.mark.parametrize("readout", READOUTS)
    def test_per_column_set_runs_each_column_on_its_own_graph(self, base8, random8, readout):
        cfg = SgnnConfig(layers=2, features=3, order=2, in_features=2, out_features=2,
                         readout=readout, readout_dim=0 if readout == "none" else 2)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        graphs = [base8, to_shift(random8, "laplacian"), base8, random8]
        xs = Rng(2).normal(size=(2, 8, 4))
        out, cache = forward(tensor, sample_architecture(graphs, 1.0, cfg, Rng(1)), xs)
        for b, graph in enumerate(graphs):
            single, one = forward(tensor, sample_architecture(graph, 1.0, cfg, Rng(1)),
                                  xs[:, :, b, None])
            assert np.abs(out[..., b] - single[..., 0]).max() <= 1e-12
            for got, want in zip(cache.stages, one.stages):
                assert np.abs(got[..., b] - want[..., 0]).max() <= 1e-12 * np.abs(want).max()


def _state(rng: Rng) -> str:
    return repr(rng.generator.bit_generator.state)


class TestDeferredSets:
    def test_nothing_is_drawn_until_forward_runs_the_set(self, base8):
        cfg = SgnnConfig(layers=2, features=2, order=2)
        rng = Rng(0)
        sets = sample_architecture([base8] * 3, 0.7, cfg, rng)
        assert sets == DeferredSets((base8,) * 3, 0.7, rng)
        assert _state(rng) == _state(Rng(0))
        out, cache = forward(init_tensor(cfg, Rng(1), 0.5), sets, np.ones((1, 8, 3)),
                             return_cache=False)
        assert out.shape == (1, 8, 3) and cache is None
        assert _state(rng) != _state(Rng(0))

    @pytest.mark.parametrize("p", [0.7, 1.0])
    def test_cached_pass_draws_as_the_forward_only_pass(self, base8, random8, p):
        # with a cache the layers run over the batch, layer 0 drawing column b's keeps
        # for every layer; the stream ends where the forward-only pass leaves it, the
        # outputs agree to roundoff, and below p = 1 the cache holds every column's keeps
        # of the layers after the first (none of layer 0, which backward never reads)
        # until it is released.  At p = 1 nothing is drawn and the cache holds no keeps
        cfg = SgnnConfig(layers=2, features=2, order=2, in_features=2)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        x = Rng(2).normal(size=(2, 8, 3))
        for graphs in ([base8] * 3, [base8, random8, to_shift(random8, "laplacian")]):
            rng, cached_rng = Rng(1), Rng(1)
            want, none = forward(tensor, sample_architecture(graphs, p, cfg, rng), x,
                                 return_cache=False)
            sets = sample_architecture(graphs, p, cfg, cached_rng)
            out, cache = forward(tensor, sets, x)
            assert none is None and cache.reals is sets and cache.x is x
            assert _state(cached_rng) == _state(rng)
            np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
            if p == 1.0:  # one graph: the shared set; several: the stacked graphs
                assert isinstance(sets, DeferredSets) == (graphs[1] is not base8)
                assert cache.keeps is None
                continue
            assert [len(keeps) for keeps in cache.keeps] == [2, 2, 2]
            assert all(keeps[0] is None for keeps in cache.keeps)
            assert all(keeps[1] is not None for keeps in cache.keeps)
            cache.release()
            assert cache.keeps is None

    @pytest.mark.parametrize("p", [-0.1, 1.5, np.nan])
    def test_bad_probability_rejected(self, base8, random8, p):
        # one graph or a graph list: the same error, before any draw
        cfg = SgnnConfig(layers=1, features=1, order=1)
        rng = Rng(0)
        for base in (base8, [base8] * 2, [base8, random8]):
            with pytest.raises(ConfigError, match=r"edge probability p=.* outside \[0, 1\]"):
                sample_architecture(base, p, cfg, rng)
        assert _state(rng) == _state(Rng(0))

    def test_per_column_graphs_carried_one_per_column(self, base8, random8):
        # per-column graphs that are not all one object are a deferred set at every p:
        # never B sets drawn at once, nor a stack of the graphs; graphs that are all one
        # object, below p = 1
        cfg = SgnnConfig(layers=1, features=1, order=1)
        rng = Rng(0)
        for graphs, p in [*itertools.product(([base8, random8, base8],), (0.0, 0.7, 1.0)),
                          ([base8] * 3, 0.0), ([base8] * 3, 0.7), ([base8], 0.7)]:
            assert sample_architecture(graphs, p, cfg, rng) == DeferredSets(
                tuple(graphs), p, rng)
        assert _state(rng) == _state(Rng(0))

    @pytest.mark.parametrize("graphs, p, match", [
        ("empty", 0.7, r"one node count, got \[\]"),
        ("empty", 1.0, r"one node count, got \[\]"),
        ("mixed", 0.7, r"one node count, got \[8, 3\]"),
        ("mixed", 1.0, r"one node count, got \[8, 3\]"),
    ])
    def test_bad_per_column_graphs_rejected_before_any_draw(self, base8, p3, graphs, p, match):
        graphs = {"empty": [], "mixed": [base8, p3]}[graphs]
        cfg = SgnnConfig(layers=1, features=1, order=1)
        rng = Rng(0)
        with pytest.raises(ValueError, match=match):
            sample_architecture(graphs, p, cfg, rng)
        assert _state(rng) == _state(Rng(0))

    @pytest.mark.parametrize("per_column", [False, True])
    @pytest.mark.parametrize("return_cache", [False, True])
    @pytest.mark.parametrize("shape", [(1, 8, 2), (1, 8, 4), (1, 7, 3)])
    def test_mismatched_input_rejected_before_any_draw(self, base8, random8, shape,
                                                       return_cache, per_column):
        cfg = SgnnConfig(layers=2, features=2, order=2)
        rng = Rng(0)
        sets = sample_architecture([base8, random8, base8] if per_column else [base8] * 3, 0.5,
                                   cfg, rng)
        with pytest.raises(ValueError, match="the deferred set 3 columns on 8 nodes"):
            forward(init_tensor(cfg, Rng(1), 0.5), sets, np.ones(shape),
                    return_cache=return_cache)
        assert _state(rng) == _state(Rng(0))


@st.composite
def _small_bases(draw, n=None):
    """A small graph (on ``n`` nodes when given), possibly edgeless and possibly
    weighted, as any shift kind (an edgeless graph, which cannot be normalized, as
    an adjacency)."""
    n = draw(st.integers(2, 6)) if n is None else n
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          max_size=8, unique=True))
    weights = np.zeros((n, n))
    for i, j in pairs:
        weights[i, j] = weights[j, i] = draw(st.sampled_from([1.0, 0.5, 2.25]))
    kind = draw(st.sampled_from(KINDS)) if pairs else ADJACENCY
    if kind == "laplacian":
        return ShiftOperator(kind, np.diag(weights.sum(axis=1)) - weights)
    if kind == NORMALIZED_ADJACENCY:
        return ShiftOperator(kind, weights / np.abs(np.linalg.eigvalsh(weights)).max())
    return ShiftOperator(kind, weights)


@st.composite
def _small_nets(draw, layers=st.integers(1, 2)):
    readout = draw(st.sampled_from(READOUTS))
    return SgnnConfig(layers=draw(layers), features=draw(st.integers(1, 3)),
                      order=draw(st.integers(0, 3)),
                      nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
                      in_features=draw(st.integers(1, 2)), out_features=draw(st.integers(1, 3)),
                      readout=readout,
                      readout_dim=0 if readout == "none" else draw(st.integers(1, 3)))


def _signs_match(cache, col: int, one) -> bool:
    """Whether column ``col`` of ``cache`` has the pre-activation signs of the B = 1
    cache ``one``: relu's and abs' slopes flip where roundoff moves one across 0."""
    return all(np.array_equal(np.sign(u[..., col]), np.sign(v[..., 0]))
               for u, v in zip(cache.pre_activations, one.pre_activations))


def _k4_laplacian() -> ShiftOperator:
    weights = np.ones((4, 4)) - np.eye(4)
    weights[2, 3] = weights[3, 2] = 0.5
    return ShiftOperator("laplacian", np.diag(weights.sum(axis=1)) - weights)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(_small_bases(n), min_size=5, max_size=5)),
       st.booleans(), _small_nets(layers=st.sampled_from([1, 2, 2])), st.integers(1, 5),
       st.integers(0, 2**16))
# column 1's pooled std is floored in both passes: backward divides roundoff by the floor
@example(graphs=[ShiftOperator(ADJACENCY, np.zeros((4, 4))), _k4_laplacian()]
         + [ShiftOperator(ADJACENCY, np.zeros((4, 4)))] * 3,
         per_column=True,
         cfg=SgnnConfig(layers=2, features=1, order=3, nonlinearity="tanh", out_features=3,
                        readout="pooled", readout_dim=1),
         columns=2, seed=0)
# two pooled features standardize to +-1: at p = 1 the two passes' layer gradients are
# roundoff up to 3.6e-12 and differ by 2.6e-12, against a 2.1 head
@example(graphs=[ShiftOperator("laplacian", [[4.5, -2.25, -2.25], [-2.25, 2.25, 0.0],
                                             [-2.25, 0.0, 2.25]])]
         + [ShiftOperator(ADJACENCY, np.zeros((3, 3)))] * 4,
         per_column=False,
         cfg=SgnnConfig(layers=1, features=1, order=3, out_features=2, nonlinearity="relu",
                        readout="pooled", readout_dim=1),
         columns=2, seed=343)
def test_deferred_set_equals_a_loop_of_single_sets(p, graphs, per_column, cfg, columns, seed):
    # the loop the deferred pass replaces: one draw and one B = 1 pass per column, on
    # one shared graph or on each column's own graph; the cached pass's gradient is the
    # sum of the columns' B = 1 gradients, each given its column of the output gradient
    # (two layers, so backward rebuilds each column's second-layer shifts).  At p = 1
    # graphs that are all one object give the shared set, others one stacked product
    # per stage; below it the layers run over the batch, so every case agrees to
    # roundoff, and the forward-only pass is the cached pass bit for bit
    graphs = graphs[:columns] if per_column else graphs[:1] * columns
    one_graph = all(graph is graphs[0] for graph in graphs)
    tensor = init_tensor(cfg, Rng(seed), 1.0)
    body_cfg = replace(cfg, readout="none", readout_dim=0)
    body = FilterTensor(body_cfg, tensor.flat[:body_cfg.num_params])  # the layers, no head
    x = Rng(seed, 1).normal(size=(cfg.in_features, graphs[0].n, columns))
    for net in (body, tensor):
        loop_rng, rng, cached_rng = Rng(seed, 2), Rng(seed, 2), Rng(seed, 2)
        want = np.concatenate([forward(net, sample_architecture(graph, p, cfg, loop_rng),
                                       x[..., b, None], return_cache=False)[0]
                               for b, graph in enumerate(graphs)], axis=-1)
        got, _ = forward(net, sample_architecture(graphs, p, cfg, rng), x, return_cache=False)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert _state(rng) == _state(loop_rng)
        sets = sample_architecture(graphs, p, cfg, cached_rng)
        cached, cache = forward(net, sets, x)
        assert (cache.keeps is None) == (p == 1.0)
        assert cache.plan.layers[0][0] == ("groups" if p < 1.0 else "stages" if one_graph else "stack")
        assert cached.tobytes() == got.tobytes()
        assert _state(cached_rng) == _state(loop_rng)
        dout = Rng(seed, 3).normal(size=cached.shape)
        grad = backward(net, sets, cache, dout)
        want_grad, grad_rng, signs, term = np.zeros(net.cfg.num_params), Rng(seed, 2), True, 1.0
        for b, graph in enumerate(graphs):
            reals = sample_architecture(graph, p, cfg, grad_rng)
            _, one = forward(net, reals, x[..., b, None])
            one_grad = backward(net, reals, one, dout[..., b, None])
            want_grad, term = want_grad + one_grad, max(term, np.abs(one_grad).max())
            signs = signs and _signs_match(cache, b, one)
        # a pooled std near its floor divides roundoff (as _assume_conditioned skips)
        conditioned = net.cfg.readout != "pooled" or cache.pooled_std.min() > 1e-3
        if not (conditioned and (signs or cfg.nonlinearity == "tanh")):
            continue
        if net.cfg.readout != "pooled" or cfg.out_features >= 3:
            assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max(initial=1.0)
            continue
        # fewer than 3 pooled features standardize to 0 or +-1 whatever the layers give:
        # the layers' gradient is roundoff, of either sign in the two passes.  The head
        # block agrees to 1e-12 of the columns' largest gradient entry (their sum may
        # cancel), and the layer block is below 1e-6 of it in both passes
        head = body_cfg.num_params
        assert np.abs(grad[head:] - want_grad[head:]).max() <= 1e-12 * term
        for layers in (grad[:head], want_grad[:head]):
            assert np.abs(layers).max() <= 1e-6 * term


_ORACLE_BASES = {kind: to_shift(build_sbm(8, 2, 0.9, 0.4, Rng(2026).child(0)), kind)
                 for kind in KINDS}


@settings(max_examples=60, deadline=None)
@given(_small_nets(), st.sampled_from(KINDS), st.sampled_from([0.3, 0.7]),
       st.sampled_from([0, 1, 16]), st.integers(0, 2**16))
def test_shared_set_batch_equals_its_columns_one_at_a_time(cfg, kind, p, extra, seed):
    # one set drawn per filter and shared by B = N, N + 1 or 3N columns, against each
    # column alone on it (B = 1 <= N: the stages): at K >= 2 and B > N the batch runs each
    # filter's N x N matrix and caches the products, else the stages.  The batch's
    # gradient is the sum of the columns' gradients, each given its column of the output
    # gradient; pooled heads keep three features, so the layers' gradient is not roundoff
    if cfg.readout == "pooled":
        cfg = replace(cfg, out_features=3)
    base = _ORACLE_BASES[kind]
    n, k = base.n, cfg.order
    b = n + extra
    tensor = init_tensor(cfg, Rng(seed), 0.6)
    reals = sample_architecture(base, p, cfg, Rng(seed, 1))
    x = Rng(seed, 2).normal(size=(cfg.in_features, n, b))
    out, cache = forward(tensor, reals, x)
    dout = Rng(seed, 3).normal(size=out.shape)
    grad = backward(tensor, reals, cache, dout)
    products = k >= 2 and b > n
    assert cache.plan.layers == (("products" if products else "stages", 0),) * cfg.layers
    for stages, (o, i) in zip(cache.stages, cfg.layer_shapes()):
        if products:
            assert stages.shape == (o, i, k + 1, n, n)
        else:
            assert stages.shape[0] == k + 1 and stages.shape[2:] == (i, n, b)
    want, want_grad, signs = [], np.zeros(cfg.num_params), True
    for col in range(b):
        one_out, one = forward(tensor, reals, x[..., col, None])
        assert one.plan.layers == (("stages", 0),) * cfg.layers
        assert all(s.shape[0] == k + 1 and s.shape[-1] == 1 for s in one.stages)
        want.append(one_out)
        want_grad += backward(tensor, reals, one, dout[..., col, None])
        signs = signs and _signs_match(cache, col, one)
    want = np.concatenate(want, axis=-1)
    assert out.shape == want.shape
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max(initial=1.0)
    # a pooled std near its floor divides roundoff; relu's and abs' slopes flip where
    # roundoff moves a pre-activation across 0
    if cfg.readout == "pooled" and cache.pooled_std.min() <= 1e-3:
        return
    if signs or cfg.nonlinearity == "tanh":
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max(initial=1.0)


_BASE20 = to_shift(build_sbm(20, 2, 0.8, 0.2, Rng(2027).child(0)), NORMALIZED_ADJACENCY)
# the benchmark's banks on 20 nodes: source's 64 filters at K = 3, variance's 8 at K = 10
_SOURCE_BANK = SgnnConfig(layers=1, features=64, order=3, out_features=64, readout="pooled",
                          readout_dim=2)
_VARIANCE_BANK = replace(_SOURCE_BANK, features=8, order=10, out_features=8)


def _mixed_set(cfg, base, p):
    """A 2-layer set whose first layer's shifts are shared along its out axis (stride 0)
    and whose second layer's are drawn per filter."""
    first, second = sample_architecture(base, p, cfg, Rng(0))
    return np.broadcast_to(first[:1], first.shape), second


# (set, K, B, cached) -> each layer's (regime, group width), and the chunk width
_PLANS = {
    "per-filter set, K = 2, B = N + 1": ("shared", 2, 21, True, [("products", 0)], 0),
    "per-filter set, K = 3, B = 5N": ("shared", 3, 100, True, [("products", 0)], 0),
    "B = N": ("shared", 3, 20, True, [("stages", 0)], 0),
    "K = 1": ("shared", 1, 40, True, [("stages", 0)], 0),
    "K = 0": ("shared", 0, 40, True, [("stages", 0)], 0),
    "stride-0 set at p = 1": ("intact", 3, 40, True, [("stages", 0)], 0),
    "stride-0 first layer, per-filter second": ("mixed", 2, 21, True,
                                                [("stages", 0), ("products", 0)], 0),
    "per-column graphs at p = 1": ("stack", 3, 13, True, [("stack", 0)], 0),
    "per-column graphs at p = 1, forward only": ("stack", 3, 13, False, [("stack", 0)], 0),
    "below p = 1, source bank": ("groups", 3, 13, True, [("groups", 1)], 0),
    "below p = 1, variance bank": ("variance", 10, 25, True, [("groups", 10)], 0),
    "below p = 1, variance bank of 4 columns": ("variance", 10, 4, True, [("groups", 4)], 0),
    "below p = 1, source bank, forward only": ("groups", 3, 13, False, [("groups", 1)], 6),
    "below p = 1, variance bank, forward only": ("variance", 10, 45, False, [("groups", 10)], 20),
}


@pytest.mark.parametrize("case", list(_PLANS))
def test_plan_picks_each_regime(case):
    # the one rule: a shared set whose shifts are drawn per filter runs on its filters'
    # products at K >= 2 on B > N columns, any other shared set on its stages; a
    # deferred set stacks its intact graphs at p = 1 and runs its columns in groups
    # below it (one stage of a group's shifts within _GROUP_BYTES), a forward-only pass
    # in chunks.  forward keeps the plan on its cache and hands it to every _layers call
    kind, k, b, cached, layers, chunk = _PLANS[case]
    cfg = replace(_VARIANCE_BANK if kind == "variance" else _SOURCE_BANK, order=k)
    if kind == "mixed":
        cfg = SgnnConfig(layers=2, features=3, order=k)
    p = 1.0 if kind in ("intact", "stack") else 0.7
    graphs = [_BASE20, to_shift(build_sbm(20, 2, 0.9, 0.3, Rng(5).child(0)), ADJACENCY)] * b
    reals = {"shared": lambda: sample_architecture(_BASE20, p, cfg, Rng(0)),
             "intact": lambda: sample_architecture(_BASE20, p, cfg, Rng(0)),
             "mixed": lambda: _mixed_set(cfg, _BASE20, p)}.get(
                 kind, lambda: sample_architecture(graphs[:b], p, cfg, Rng(0)))()
    want = model._Plan(tuple(layers), chunk)
    assert model._plan(cfg, reals, b, cached) == want
    tensor = init_tensor(cfg, Rng(1), 0.5)
    x = Rng(2).normal(size=(cfg.in_features, 20, b))
    with mock.patch.object(model, "_layers", wraps=model._layers) as spy:
        _, cache = forward(tensor, reals, x, return_cache=cached)
    assert all(call.args[5] == want for call in spy.call_args_list)
    assert [call.args[2].shape[2] for call in spy.call_args_list] == (
        [min(chunk, b - lo) for lo in range(0, b, chunk)] if chunk else [b])
    assert (cache.plan == want) if cached else cache is None
    if cached:  # keeps only on groups
        assert (cache.keeps is None) == (layers[0][0] != "groups")


def test_forward_only_pass_on_intact_graph_list_is_one_stacked_pass(base8, random8):
    # at p = 1 the columns' graphs stack: one pass over the batch, not a B = 1 loop
    lap = to_shift(random8, "laplacian")
    graphs = [base8, base8, lap, random8, lap, base8]
    x = Rng(3).normal(size=(2, 8, len(graphs)))
    cfg = SgnnConfig(layers=2, features=3, order=2, nonlinearity="abs", in_features=2)
    tensor = init_tensor(cfg, Rng(5), 0.6)
    want = np.concatenate([forward(tensor, sample_architecture(g, 1.0, cfg, Rng(0)),
                                   x[..., c, None], return_cache=False)[0]
                           for c, g in enumerate(graphs)], axis=-1)
    rng = Rng(0)
    with mock.patch.object(model, "_layers", wraps=model._layers) as layers:
        got, _ = forward(tensor, sample_architecture(graphs, 1.0, cfg, rng), x,
                         return_cache=False)
    assert layers.call_count == 1
    assert np.abs(got - want).max() <= 1e-12
    assert _state(rng) == _state(Rng(0))


@pytest.mark.parametrize("kind", KINDS)
def test_refill_after_a_denser_graph_equals_a_fresh_set(random8, kind):
    # each column's build refills the slot that column col - group built, of each layer:
    # on the same graph, or on a denser or sparser one
    dense, sparse = (to_shift(build_sbm(8, 2, 1.0, 1.0, Rng(7).child(0)), kind),
                     to_shift(random8, kind))
    assert {tuple(e) for e in dense.edges} > {tuple(e) for e in sparse.edges}
    graphs = [dense, sparse, dense, sparse, sparse]
    cfg = SgnnConfig(layers=2, features=2, order=2)
    shapes = [(o, i, 2, 8, 8) for o, i in cfg.layer_shapes()]
    for group in (1, 2):
        sets = sample_architecture(graphs, 0.7, cfg, Rng(0))
        slots = [np.zeros((group, o * i * k, 8, 8)) for o, i, k, _, _ in shapes]
        held = [[None] * group for _ in shapes]
        loop_rng = Rng(0)
        for col, graph in enumerate(graphs):
            want = sample_architecture(graph, 0.7, cfg, loop_rng)
            keeps = model._draw_column(sets, shapes, col)
            j = col % group
            for layer, (keep, buf, shape) in enumerate(zip(keeps, slots, shapes)):
                got = model._column_set(graph, keep, buf, held[layer], j, j + 1)
                assert np.shares_memory(got, buf[j]) and held[layer][j] is graph
                assert got.tobytes() == want[layer].tobytes()
        assert _state(sets.rng) == _state(loop_rng)


def _pass_arrays(tensor, graphs, x, return_cache):
    """A pass at p = 0.7 on a deferred set over ``graphs`` from Rng(0): its output,
    and with a cache its stages, pre-activations and gradient; then the stream state."""
    rng = Rng(0)
    sets = sample_architecture(graphs, 0.7, tensor.cfg, rng)
    out, cache = forward(tensor, sets, x, return_cache=return_cache)
    arrays = [out]
    if return_cache:
        arrays += [*cache.stages, *cache.pre_activations,
                   backward(tensor, sets, cache, Rng(4).normal(size=out.shape))]
    return arrays, _state(rng)


def _chunk_width(cfg, n):
    """Columns per chunk of a forward-only pass at p < 1 on ``n`` nodes: as many as keep
    the widest layer's stage array, (K+1) * out * in * N floats a column, within
    ``_GROUP_BYTES`` (at least one), rounded up to whole groups of that layer; and the
    width of those groups."""
    filters = max(o * i for o, i in cfg.layer_shapes())
    group = model._columns(filters * n * n)
    fit = max(1, model._GROUP_BYTES // ((cfg.order + 1) * filters * n * 8))
    return -(-fit // group) * group, group


def _stage_slot_calls(cfg, graphs, group, return_cache):
    """The calls of a pass at p = 0.7 on ``graphs`` with ``group`` columns per group (the
    2-layer, 2 x 2-filter net ``cfg`` below): per chunk, layer and group, one diffusion
    call (the shape of its signals; a one-column group has no group axis), then per stage
    one build per run of consecutive columns on one graph (its keep rows, 4 filters per
    column)."""
    order, calls = cfg.order, []
    width = len(graphs) if return_cache else _chunk_width(cfg, 8)[0]
    for c0 in range(0, len(graphs), width):
        hi = min(c0 + width, len(graphs))
        for _layer, lo in itertools.product(range(2), range(c0, hi, group)):
            part = graphs[lo:min(lo + group, hi)]
            calls.append(("diffuse", (len(part), 1, 2, 8, 1)[len(part) == 1:]))
            runs = [len(list(run)) for _, run in itertools.groupby(part, id)]
            calls += [("build", 4 * r) for r in runs] * order
    return calls


def _check_column_groups(monkeypatch, graphs, order, group, return_cache):
    # a pass in groups of `group` columns makes the calls of _stage_slot_calls.  Output,
    # stages, pre-activations and gradient (two layers: the second rebuilt from stored
    # keeps) are the one-column-per-group pass's bit for bit, the output is B single-set
    # passes' to roundoff, and the stream ends where B single-set draws leave it
    cfg = SgnnConfig(layers=2, features=2, order=order, nonlinearity="tanh", in_features=2,
                     out_features=2, readout="per_node", readout_dim=2)
    tensor = init_tensor(cfg, Rng(5), 0.6)
    columns = len(graphs)
    x = Rng(3).normal(size=(2, 8, columns))
    calls, diffusion_stages, realized_mats = [], model.diffusion_stages, model._realized_mats

    def diffuse(mats, signals, out):
        calls.append(("diffuse", signals.shape))
        return diffusion_stages(mats, signals, out)

    def build(graph, keep, out):
        assert out.shape == (len(keep), 8, 8)  # one stage of each column of the run
        calls.append(("build", len(keep)))
        return realized_mats(graph, keep, out=out)

    monkeypatch.setattr(model, "diffusion_stages", diffuse)
    monkeypatch.setattr(model, "_realized_mats", build)
    # both layers have 2 x 2 filters: `group` columns of one stage of 4 shifts
    monkeypatch.setattr(model, "_GROUP_BYTES", group * 4 * 8 * 8 * 8)
    got, state = _pass_arrays(tensor, graphs, x, return_cache)
    if return_cache:  # backward's rebuilds: each column's K stages of layer 1 in one slot
        assert calls[-columns:] == [("build", 4 * order)] * columns
        calls = calls[:-columns]
    assert calls == _stage_slot_calls(cfg, graphs, group, return_cache)
    monkeypatch.setattr(model, "_GROUP_BYTES", 1)  # one column per group
    want, want_state = _pass_arrays(tensor, graphs, x, return_cache)
    assert state == want_state
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    loop_rng = Rng(0)
    loop = np.concatenate([forward(tensor, sample_architecture(g, 0.7, cfg, loop_rng),
                                   x[..., c, None], return_cache=False)[0]
                           for c, g in enumerate(graphs)], axis=-1)
    assert _state(loop_rng) == state
    np.testing.assert_allclose(got[0], loop, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("return_cache", [True, False])
@pytest.mark.parametrize("group, columns", [(2, 7), (3, 7), (5, 70)])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_column_groups_equal_one_column_at_a_time(monkeypatch, base8, random8, order, group,
                                                  columns, return_cache):
    # below p = 1 each layer takes a group of columns at a time, one slot per column, and
    # builds and diffuses them one stage at a time; the last group of a batch or chunk may
    # be short.  The graphs repeat and change kind, so a slot is refilled on the graph it
    # held (only its edges and a Laplacian's diagonal rewritten) and on another one
    # (zeroed first)
    dense = build_sbm(8, 2, 1.0, 1.0, Rng(7).child(0))
    pool = [to_shift(dense, "laplacian"), to_shift(random8, "laplacian"), random8, base8, dense]
    graphs = [pool[c] for c in Rng(6).integers(0, len(pool), columns)]
    _check_column_groups(monkeypatch, graphs, order, group, return_cache)


@pytest.mark.parametrize("return_cache", [True, False])
@pytest.mark.parametrize("case", ["laplacian slots move to adjacency graphs",
                                  "a run of columns, then another graph"])
def test_stage_slots_across_graph_changes(monkeypatch, base8, random8, case, return_cache):
    # a slot that held a Laplacian's stage and takes an adjacency's must lose its
    # diagonal (K = 2: the stage-2 build refills the stage-1 slots of the same graph);
    # a run of columns on one graph is built in one call, and the next graph's column
    # in its own
    lap, dense = to_shift(random8, "laplacian"), build_sbm(8, 2, 1.0, 1.0, Rng(7).child(0))
    graphs, group = {
        "laplacian slots move to adjacency graphs": ([lap, lap, random8, base8, lap], 2),
        "a run of columns, then another graph": ([dense, dense, lap, lap, lap, base8], 3),
    }[case]
    _check_column_groups(monkeypatch, graphs, 2, group, return_cache)


@pytest.mark.parametrize("columns", [33, 70])
def test_forward_only_pass_runs_in_chunks_of_columns(monkeypatch, base8, random8, columns):
    # below p = 1 a forward-only pass runs the cached pass's layers on chunks of whole
    # groups of the widest layer, as many columns as keep its stage array within the
    # budget: the same output bit for bit, and the stream left where B single-set draws
    # leave it
    cfg = SgnnConfig(layers=2, features=2, order=2, in_features=2, readout="pooled",
                     out_features=3, readout_dim=2)
    tensor = init_tensor(cfg, Rng(5), 0.6)
    x = Rng(3).normal(size=(2, 8, columns))
    graphs = [(base8, random8, to_shift(random8, "laplacian"))[c % 3] for c in range(columns)]
    # the widest layer (3 x 2 filters) in groups of 2 columns, chunks of 6 (3 groups):
    # both batches end on a short chunk
    monkeypatch.setattr(model, "_GROUP_BYTES", 2 * 6 * 8 * 8 * 8)
    chunk, group = _chunk_width(cfg, 8)
    stage_bytes = 3 * 6 * 8 * 8  # the widest layer's stage array, per column
    assert (chunk, group) == (6, 2) and columns % chunk
    for base in ([base8] * columns, graphs):
        rng, cached_rng, loop_rng = Rng(0), Rng(0), Rng(0)
        with mock.patch.object(model, "_layers", wraps=model._layers) as layers:
            got, _ = forward(tensor, sample_architecture(base, 0.7, cfg, rng), x,
                             return_cache=False)
        widths = [call.args[2].shape[2] for call in layers.call_args_list]
        assert widths == [chunk] * (columns // chunk) + [columns % chunk]
        for width in widths[:-1]:  # whole groups; all but the last fit the budget
            assert width % group == 0
            assert (width - group) * stage_bytes <= model._GROUP_BYTES
        want, _ = forward(tensor, sample_architecture(base, 0.7, cfg, cached_rng), x)
        assert got.tobytes() == want.tobytes()
        for graph in base:
            sample_architecture(graph, 0.7, cfg, loop_rng)
        assert _state(rng) == _state(cached_rng) == _state(loop_rng)


@pytest.mark.parametrize("columns", [24, 27])
def test_each_chunk_refills_the_previous_chunks_arrays(monkeypatch, base8, random8, columns):
    # every chunk after the first runs each layer on the previous chunk's stage array,
    # slot buffer (with the graphs its slots hold), pre-activations and activations; a
    # short last chunk keeps only the slots.  The slots then hold another graph's stage
    # between chunks: the output stays the cached pass's bit for bit
    cfg = SgnnConfig(layers=2, features=2, order=2, in_features=2, readout="pooled",
                     out_features=3, readout_dim=2)
    tensor = init_tensor(cfg, Rng(5), 0.6)
    x = Rng(3).normal(size=(2, 8, columns))
    graphs = [(base8, random8, to_shift(random8, "laplacian"))[c % 3] for c in range(columns)]
    monkeypatch.setattr(model, "_GROUP_BYTES", 2 * 6 * 8 * 8 * 8)  # chunks of 6 columns
    left, layers = [], model._layers

    def spy(*args):
        out = layers(*args)
        left.append([list(arrays) for arrays in args[3]])  # what the chunk hands on
        return out

    monkeypatch.setattr(model, "_layers", spy)
    got, _ = forward(tensor, sample_architecture(graphs, 0.7, cfg, Rng(0)), x, return_cache=False)
    assert len(left) == -(-columns // 6) and {len(arrays) for arrays in left} == {2}
    for chunk, (before, after) in enumerate(zip(left, left[1:]), 1):
        full = chunk < len(left) - 1 or columns % 6 == 0
        for prev, arrays in zip(before, after):  # stages, u, act, slots, held per layer
            assert [a is b for a, b in zip(prev, arrays)] == [full] * 3 + [True] * 2
    monkeypatch.setattr(model, "_layers", layers)
    want, _ = forward(tensor, sample_architecture(graphs, 0.7, cfg, Rng(0)), x)
    assert got.tobytes() == want.tobytes()


class TestForwardExpected:
    def test_intact_probability_equals_deterministic_network(self, base8):
        cfg = SgnnConfig(layers=2, features=2, order=2)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        x = Rng(1).normal(size=(1, 8, 1))
        want, _ = forward(tensor, sample_architecture(base8, 1.0, cfg, Rng(2)), x,
                          return_cache=False)
        got = forward_expected(tensor, base8, 1.0, x)
        assert np.abs(got - want).max() <= 1e-12

    def test_zero_tensor(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor = FilterTensor.from_flat(cfg, np.zeros(cfg.num_params))
        assert np.array_equal(forward_expected(tensor, base8, 0.7, np.ones((1, 8, 1))),
                              np.zeros((1, 8, 1)))

    @pytest.mark.parametrize("p", [-1.0, -1e-9, 1.0 + 1e-9, 1.5])
    def test_probability_outside_unit_interval_rejected(self, base8, p):
        tensor = init_tensor(SgnnConfig(layers=1, features=1, order=1), Rng(0), 0.5)
        with pytest.raises(ConfigError, match=r"outside \[0, 1\]"):
            forward_expected(tensor, base8, p, np.ones((1, 8, 1)))

    def test_single_layer_linear_regime_mean(self, k3):
        # nonnegative taps and signal with adjacency masks keep every
        # activation nonnegative, so abs acts as identity and the Monte-Carlo
        # mean of stochastic forwards approaches the mean-shift forward
        cfg = SgnnConfig(layers=1, features=1, order=2, nonlinearity="abs")
        tensor = FilterTensor(cfg, np.array([0.4, 0.8, 0.3]))
        x = np.array([0.2, 1.0, 0.6])
        p = 0.6
        n_draws = 100_000
        rng = Rng(3, 9)
        reals = sample_realizations(k3, p, rng, 2 * n_draws)
        h = tensor.layers[0][0, 0]
        outs = np.empty((n_draws, 3))
        for i in range(n_draws):
            outs[i] = np.abs(apply_filter(h, reals[2 * i : 2 * i + 2], x))
        mean = outs.mean(axis=0)
        se = outs.std(axis=0, ddof=1) / np.sqrt(n_draws)
        want = forward_expected(tensor, k3, p, x[None, :, None])[0, :, 0]
        assert np.all(np.abs(mean - want) <= 3 * se + 1e-12)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = SgnnConfig(layers=2, features=3, order=2, nonlinearity="tanh",
                         in_features=2, out_features=2, readout="pooled", readout_dim=4)
        tensor = init_tensor(cfg, Rng(12), 0.8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(tensor, path, kind="laplacian")
        loaded, kind = load_checkpoint(path)
        assert kind == "laplacian"
        assert loaded.cfg == cfg
        assert np.array_equal(loaded.flatten(), tensor.flatten())

    def test_header_is_self_describing(self, tmp_path):
        cfg = SgnnConfig(layers=1, features=4, order=3, out_features=4)
        tensor = init_tensor(cfg, Rng(0), 0.1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(tensor, path)
        header = open(path, "rb").readline().decode()
        for token in ("layers=1", "features=4", "order=3", "nonlinearity=relu",
                      "kind=adjacency"):
            assert token in header

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    # a first line that is not ASCII once raised a bare UnicodeDecodeError that named
    # neither the file nor the problem
    @pytest.mark.parametrize("head", [b"\x89PNG\r\n\x1a\n", "sgnn-checkpoint-v1é".encode(),
                                      b"\xff\xfe\x00"])
    def test_rejects_a_non_ascii_first_line(self, tmp_path, head):
        path = tmp_path / "binary.ckpt"
        path.write_bytes(head + b"\x00" * 16)
        with pytest.raises(ValueError, match=r"binary\.ckpt is not a model checkpoint"):
            load_checkpoint(path)

    # a 200 MB file without a newline was once read whole before it was rejected
    @pytest.mark.parametrize("magic", [b"sgnn-checkpoint-v1 ", b""])
    def test_header_read_is_bounded(self, tmp_path, magic):
        path = tmp_path / "big.ckpt"
        with open(path, "wb") as fh:
            fh.write(magic)
            for _ in range(32):
                fh.write(b"x" * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"big\.ckpt is not a model checkpoint"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # the parameter count once walked a list of one shape per layer: layers=3000000
    # took 1.5 s and 236 MB before the file's size was checked
    def test_header_layer_count_costs_nothing_to_reject(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        path.write_bytes(b"sgnn-checkpoint-v1 layers=1000000000 features=1 order=0 "
                         b"in_features=1 out_features=1 nonlinearity=relu readout=none "
                         b"readout_dim=0 kind=adjacency\n" + struct.pack("<q", 10**9))
        before = resource.getrusage(resource.RUSAGE_SELF)
        with pytest.raises(ValueError, match=r"deep\.ckpt is truncated or inconsistent"):
            load_checkpoint(path)
        after = resource.getrusage(resource.RUSAGE_SELF)
        assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 0.1
        assert after.ru_maxrss - before.ru_maxrss < 10 * 1024  # KiB

    def test_large_integer_fields_round_trip(self, tmp_path):
        # the hidden width of a one-layer network sizes nothing, so it can be 20 digits
        cfg = SgnnConfig(layers=1, features=10**19, order=2, readout="per_node",
                         readout_dim=3)
        tensor = init_tensor(cfg, Rng(4), 0.5)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(tensor, path, kind="normalized_adjacency")
        loaded, kind = load_checkpoint(path)
        assert (loaded.cfg, kind) == (cfg, "normalized_adjacency")
        assert loaded.flat.tobytes() == tensor.flat.tobytes()

    def test_header_longer_than_the_read_bound_is_not_saved(self, tmp_path):
        tensor = init_tensor(SgnnConfig(layers=1, features=10**300, order=1), Rng(0), 0.1)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ConfigError, match="checkpoint header of .* bytes, over 288"):
            save_checkpoint(tensor, path)
        assert not path.exists()

    def _saved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_tensor(SgnnConfig(layers=1, features=2, order=1), Rng(0), 0.1), path)
        return path

    def _with_header(self, path, edit):
        data = path.read_bytes()
        header, rest = data.split(b"\n", 1)
        path.write_bytes(edit(header) + b"\n" + rest)

    def test_missing_header_field_is_value_error(self, tmp_path):
        path = self._saved(tmp_path)
        self._with_header(path, lambda h: h.replace(b" order=1", b""))
        with pytest.raises(ValueError, match="m.ckpt"):
            load_checkpoint(path)

    def test_token_without_equals_is_value_error(self, tmp_path):
        path = self._saved(tmp_path)
        self._with_header(path, lambda h: h + b" stray")
        with pytest.raises(ValueError, match="m.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [lambda h: h.replace(b"kind=adjacency", b"kind=bogus"),
                                      lambda h: h + b" order=1",
                                      lambda h: h + b" order=2",
                                      lambda h: h + b" colour=blue"],
                             ids=["unknown_kind", "repeated_key", "conflicting_key",
                                  "unknown_key"])
    def test_header_that_save_would_refuse_is_value_error(self, tmp_path, edit):
        path = self._saved(tmp_path)
        self._with_header(path, edit)
        with pytest.raises(ValueError, match=r"header in .*m\.ckpt is malformed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [lambda data: data + b"\0",
                                      lambda data: data.split(b"\n", 1)[0] + b"\n",
                                      lambda data: data[:-3]],
                             ids=["trailing_bytes", "no_tap_count", "partial_tap"])
    def test_bad_tap_array_is_value_error(self, tmp_path, edit):
        path = self._saved(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="m.ckpt"):
            load_checkpoint(path)


def test_tensor_flatten_round_trip():
    cfg = SgnnConfig(layers=3, features=2, order=1, in_features=3, out_features=2,
                     readout="per_node", readout_dim=2)
    tensor = init_tensor(cfg, Rng(5), 0.3)
    again = FilterTensor.from_flat(cfg, tensor.flatten())
    assert np.array_equal(again.flatten(), tensor.flatten())
    for a, b in zip(again.layers, tensor.layers):
        assert np.array_equal(a, b)


def test_tensor_blocks_are_views_of_its_vector():
    cfg = SgnnConfig(layers=2, features=2, order=1, out_features=2, readout="pooled",
                     readout_dim=3)
    flat = np.arange(cfg.num_params, dtype=float)
    tensor = FilterTensor(cfg, flat)
    tensor.layers[1][0, 1, 1] = -1.0
    tensor.head_bias[-1] = -2.0
    assert flat[4 + 3] == -1.0 and flat[-1] == -2.0  # layer 0 holds 2 x 1 x 2 taps
    assert not np.shares_memory(tensor.flatten(), flat)
    assert not np.shares_memory(FilterTensor.from_flat(cfg, flat).flat, flat)
    for bad in (flat[:-1], np.append(flat, 0.0), np.where(flat == 0.0, np.nan, flat)):
        with pytest.raises(ConfigError):
            FilterTensor(cfg, bad)


@st.composite
def _configs(draw, max_layers=4):
    readout = draw(st.sampled_from(READOUTS))
    return SgnnConfig(layers=draw(st.integers(1, max_layers)), features=draw(st.integers(1, 4)),
                      order=draw(st.integers(0, 5)),
                      nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
                      in_features=draw(st.integers(1, 3)), out_features=draw(st.integers(1, 3)),
                      readout=readout,
                      readout_dim=0 if readout == "none" else draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(_configs(), st.sampled_from(KINDS), st.integers(0, 2**16))
def test_checkpoint_round_trip_and_layout(tmp_path_factory, cfg, kind, seed):
    tensor = init_tensor(cfg, Rng(seed), 1.0)
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(tensor, path, kind=kind)
    loaded, loaded_kind = load_checkpoint(path)
    assert (loaded.cfg, loaded_kind) == (cfg, kind)
    assert loaded.flat.tobytes() == tensor.flat.tobytes()
    # the views tile the flat vector in order: taps by layer, head weight, head bias
    taps, head_w, head_b = split_params(cfg, tensor.flat)
    views = [*taps, *(() if head_w is None else (head_w, head_b))]
    assert [v.shape for v in taps] == [(o, i, cfg.order + 1) for o, i in cfg.layer_shapes()]
    assert (head_w is None) == (cfg.readout == "none")
    assert head_w is None or (head_w.shape, head_b.shape) == ((cfg.readout_dim, cfg.out_features),
                                                              (cfg.readout_dim,))
    pos = 0
    for view in views:
        assert view.base is tensor.flat and view.flags.c_contiguous
        assert view.ctypes.data == tensor.flat.ctypes.data + pos * tensor.flat.itemsize
        pos += view.size
    assert pos == cfg.num_params


# the v1 header's keys in the order every writer so far has written them
_V1_KEYS = ("layers", "features", "order", "in_features", "out_features", "nonlinearity",
            "readout", "readout_dim", "kind")


def _v1_header(cfg: SgnnConfig, kind: str, keys) -> bytes:
    """A v1 checkpoint header written out by hand, its keys in the order ``keys``."""
    values = {**asdict(cfg), "kind": kind}
    return ("sgnn-checkpoint-v1 " + " ".join(f"{k}={values[k]}" for k in keys) + "\n").encode()


@settings(max_examples=40, deadline=None)
@given(_configs(max_layers=3), st.sampled_from(KINDS), st.integers(0, 2**16),
       st.permutations(_V1_KEYS))
def test_checkpoint_format_is_pinned(tmp_path_factory, cfg, kind, seed, shuffled):
    tensor = init_tensor(cfg, Rng(seed), 1.0)
    body = struct.pack("<q", cfg.num_params) + tensor.flat.astype("<f8").tobytes()
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(tensor, path, kind=kind)
    assert path.read_bytes() == _v1_header(cfg, kind, _V1_KEYS) + body
    for keys in (_V1_KEYS, shuffled):
        path.write_bytes(_v1_header(cfg, kind, keys) + body)
        loaded, loaded_kind = load_checkpoint(path)
        assert (loaded.cfg, loaded_kind) == (cfg, kind)
        assert loaded.flat.tobytes() == tensor.flat.tobytes()
