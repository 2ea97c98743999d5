import numpy as np
import pytest
from hypothesis import given, settings
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
from sgnn_lab.model import NONLINEARITIES, READOUTS, split_params


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

    def test_intact_set_is_a_full_shape_view_that_draws_nothing(self, base8):
        cfg = SgnnConfig(layers=3, features=2, order=3, in_features=2)
        rng = Rng(0)
        reals = sample_architecture(base8, 1.0, cfg, rng)
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
                    got = cache.diffusions[layer][:, f, g, :, 0]
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
def _configs(draw):
    readout = draw(st.sampled_from(READOUTS))
    return SgnnConfig(layers=draw(st.integers(1, 4)), features=draw(st.integers(1, 4)),
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
