import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgnn_lab import (
    KINDS,
    ConfigError,
    DivergenceError,
    FilterTensor,
    NORMALIZED_ADJACENCY,
    Rng,
    SgnnConfig,
    StaleCacheError,
    TrainConfig,
    TrainTrace,
    TrainingSet,
    backward,
    build_sbm,
    convergence_metric,
    convergence_step_size,
    estimate_cost_gap,
    estimate_grad_bound,
    forward,
    forward_expected,
    init_tensor,
    loss_cross_entropy,
    loss_cross_entropy_grad,
    loss_mse,
    loss_mse_grad,
    sample_architecture,
    to_shift,
    train,
)
from sgnn_lab.filters import diffusion_stages
from sgnn_lab.model import NONLINEARITIES, READOUTS
from sgnn_lab.training import _cost_and_grad, _full_cost, _loss_pair, gradient_rel_error


@pytest.fixture
def base8(random8):
    return to_shift(random8, NORMALIZED_ADJACENCY)


class TestLosses:
    def test_mse_zero_on_equal(self):
        x = Rng(0).normal(size=(3, 4))
        assert loss_mse(x, x) == 0.0

    def test_mse_mean_reduction(self):
        assert loss_mse(np.array([1.0, 0.0]), np.zeros(2)) == 0.5

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse(np.zeros(3), np.zeros(4))

    def test_mse_grad_is_the_derivative(self):
        pred = Rng(1).normal(size=(2, 3))
        target = Rng(2).normal(size=(2, 3))
        grad = loss_mse_grad(pred, target)
        eps = 1e-7
        probe = np.zeros_like(pred)
        probe[1, 2] = eps
        fd = (loss_mse(pred + probe, target) - loss_mse(pred - probe, target)) / (2 * eps)
        assert grad[1, 2] == pytest.approx(fd, rel=1e-6)

    def test_cross_entropy_uniform_logits(self):
        for classes in (2, 4, 7):
            assert loss_cross_entropy(np.zeros(classes), 0) == pytest.approx(np.log(classes))

    def test_cross_entropy_is_shift_invariant_and_stable(self):
        logits = np.array([1000.0, 1000.0, 999.0])
        val = loss_cross_entropy(logits, 0)
        assert np.isfinite(val)
        assert val == pytest.approx(loss_cross_entropy(logits - 1000.0, 0))

    def test_cross_entropy_grad_sums_to_zero(self):
        logits = Rng(3).normal(size=(4, 6))
        labels = Rng(4).integers(0, 4, 6)
        grad = loss_cross_entropy_grad(logits, labels)
        assert np.abs(grad.sum(axis=0)).max() <= 1e-12

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_cross_entropy(np.zeros(3), 5)


def _central_differences(tensor, reals, x, y, loss, eps=1e-5):
    """Cost gradient by central differences on each entry of the flat vector."""
    fd = np.zeros(tensor.cfg.num_params)
    for i in range(len(fd)):
        costs = []
        for step in (eps, -eps):
            flat = tensor.flatten()
            flat[i] += step
            out, _ = forward(FilterTensor(tensor.cfg, flat), reals, x, return_cache=False)
            costs.append(_loss_pair(loss, out, y)[0])
        fd[i] = (costs[0] - costs[1]) / (2 * eps)
    return fd


class TestBackward:
    def _setup(self, base, readout, loss, nonlinearity, seed):
        cfg = SgnnConfig(layers=2, features=2, order=2, nonlinearity=nonlinearity,
                         in_features=1, out_features=1 if readout == "none" else 2,
                         readout=readout, readout_dim=0 if readout == "none" else 3)
        rng = Rng(seed)
        tensor = init_tensor(cfg, rng.child(0), 0.6)
        reals = sample_architecture(base, 0.7, cfg, rng.child(1))
        x = rng.child(2).normal(size=(1, base.n, 4))
        out, cache = forward(tensor, reals, x)
        if loss == "cross_entropy":
            y = rng.child(3).integers(0, 3, 4)
        else:
            y = rng.child(3).normal(size=out.shape)
        return cfg, tensor, reals, x, y, out, cache

    @pytest.mark.parametrize("readout,loss,nonlinearity", [
        ("none", "mse", "tanh"),
        ("pooled", "cross_entropy", "relu"),
        ("per_node", "mse", "abs"),
        ("pooled", "mse", "tanh"),
    ])
    def test_matches_central_finite_differences(self, base8, readout, loss, nonlinearity):
        cfg, tensor, reals, x, y, out, cache = self._setup(base8, readout, loss,
                                                           nonlinearity, seed=31)
        # keep kinked nonlinearities away from their kinks
        if nonlinearity in ("relu", "abs"):
            assert min(np.abs(u).min() for u in cache.pre_activations) > 1e-4
        cost, dout = _loss_pair(loss, out, y)
        grad = backward(tensor, reals, cache, dout).flatten()
        assert gradient_rel_error(grad, _central_differences(tensor, reals, x, y, loss)) <= 1e-5

    def test_zero_input_batch_gives_zero_gradient(self, base8):
        cfg = SgnnConfig(layers=2, features=2, order=1, nonlinearity="relu")
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = sample_architecture(base8, 0.5, cfg, Rng(1))
        x = np.zeros((1, 8, 3))
        out, cache = forward(tensor, reals, x)
        grad = backward(tensor, reals, cache, loss_mse_grad(out, np.zeros_like(out)))
        assert np.array_equal(grad.flatten(), np.zeros(cfg.num_params))

    def test_two_node_closed_form(self):
        # single tap, identity-like regime: pred = h0 * x (abs of positive),
        # cost = mean((h0 x - t)^2), d cost/d h0 = mean(2 (h0 x - t) x)
        base = build_sbm(2, 1, 1.0, 1.0, Rng(0))
        cfg = SgnnConfig(layers=1, features=1, order=0, nonlinearity="abs")
        tensor = FilterTensor(cfg, np.array([1.3]))
        reals = sample_architecture(base, 1.0, cfg, Rng(1))
        x = np.array([0.5, 2.0])
        t = np.array([1.0, 2.0])
        out, cache = forward(tensor, reals, x[None, :, None])
        grad = backward(tensor, reals, cache, loss_mse_grad(out, t[None, :, None])).flatten()
        want = np.mean(2.0 * (1.3 * x - t) * x)
        assert grad[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", [(8,), (1, 8)], ids=["signal", "one_sample"])
    def test_unbatched_input_rejected(self, base8, shape):
        # one input shape: a single sample is a batch of one, (F_in, N, 1)
        _, tensor, reals, _, _, _, _ = self._setup(base8, "none", "mse", "tanh", seed=32)
        with pytest.raises(ValueError, match=r"expected \(F_in, N, B\)"):
            forward(tensor, reals, np.ones(shape))
        with pytest.raises(ValueError, match=r"expected \(F_in, N, B\)"):
            forward_expected(tensor, base8, 0.7, np.ones(shape))

    @pytest.mark.parametrize("readout", ["none", "pooled", "per_node"])
    def test_out_grad_of_another_shape_rejected(self, base8, readout):
        # a gradient that broadcasts against the output once gave a wrong
        # gradient without an error
        _, tensor, reals, _, _, out, cache = self._setup(base8, readout, "mse", "tanh", seed=35)
        backward(tensor, reals, cache, np.ones(out.shape))
        for shape in (out.shape[:-1] + (1,), out.shape[1:]):
            with pytest.raises(ValueError, match="out_grad has shape"):
                backward(tensor, reals, cache, np.ones(shape))

    def test_stale_cache_rejected(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        other = init_tensor(cfg, Rng(9), 0.5)
        reals = sample_architecture(base8, 0.5, cfg, Rng(1))
        out, cache = forward(tensor, reals, np.ones((1, 8, 1)))
        with pytest.raises(StaleCacheError):
            backward(other, reals, cache, np.ones_like(out))

    def test_cacheless_forward_rejected(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = sample_architecture(base8, 0.5, cfg, Rng(1))
        out, cache = forward(tensor, reals, np.ones((1, 8, 1)), return_cache=False)
        assert cache is None
        out2, cache2 = forward(tensor, reals, np.ones((1, 8, 1)))
        cache2.diffusions.clear()
        with pytest.raises(StaleCacheError):
            backward(tensor, reals, cache2, np.ones_like(out2))


_GRAPH8 = build_sbm(8, 2, 0.9, 0.4, Rng(2024).child(0))


@st.composite
def _networks(draw):
    """(tensor, base, input batch, seed) for a random architecture on an 8-node graph."""
    readout = draw(st.sampled_from(READOUTS))
    cfg = SgnnConfig(layers=draw(st.integers(1, 3)), features=draw(st.integers(1, 3)),
                     order=draw(st.integers(0, 4)),
                     nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
                     in_features=draw(st.integers(1, 2)), out_features=draw(st.integers(1, 3)),
                     readout=readout,
                     readout_dim=0 if readout == "none" else draw(st.integers(1, 3)))
    rng = Rng(draw(st.integers(0, 2**16)))
    x = rng.child(1).normal(size=(cfg.in_features, 8, draw(st.integers(1, 5))))
    return init_tensor(cfg, rng.child(0), 0.6), to_shift(_GRAPH8, draw(st.sampled_from(KINDS))), x, rng


@settings(max_examples=40, deadline=None)
@given(_networks(), st.booleans())
def test_backward_matches_central_differences(net, cross_entropy):
    # mse on every head, cross-entropy on pooled heads
    tensor, base, x, rng = net
    cfg = tensor.cfg
    loss = "cross_entropy" if cross_entropy and cfg.readout == "pooled" else "mse"
    reals = sample_architecture(base, 0.7, cfg, rng.child(3))
    out, cache = forward(tensor, reals, x)
    if cfg.nonlinearity in ("relu", "abs"):
        assume(min(np.abs(u).min() for u in cache.pre_activations) > 1e-4)
    # the pooled head's std floor is a kink too
    assume(cfg.readout != "pooled" or cache.pooled_std.min() > 1e-6)
    if loss == "cross_entropy":
        y = rng.child(4).integers(0, cfg.readout_dim, x.shape[2])
    else:
        y = rng.child(4).normal(size=out.shape)
    cost, dout = _loss_pair(loss, out, y)
    grad = backward(tensor, reals, cache, dout)
    assert grad.shape == (cfg.num_params,)
    # skip draws central differences cannot resolve: a gradient near their
    # roundoff (~1e-11 * cost, saturated tanh), or curvature or a kink within
    # the step, where two steps disagree
    fd, fd2 = (_central_differences(tensor, reals, x, y, loss, eps) for eps in (1e-5, 2e-5))
    assume(np.abs(fd).max() >= 1e-2 * cost and gradient_rel_error(fd, fd2) <= 1e-6)
    assert gradient_rel_error(grad, fd) <= 1e-5


def _assert_pass_matches_contiguous_copy(tensor, reals, x, rng):
    """Forward output, cached stages and backward gradient on ``reals`` equal, bit for
    bit, those on C-contiguous copies (the layout of every drawn realization set), and
    each filter's cached stages equal its own diffusion of its layer input."""
    out_grad = None
    passes = []
    for rs in (reals, tuple(np.ascontiguousarray(m) for m in reals)):
        out, cache = forward(tensor, rs, x)
        for layer, (mats, stages) in enumerate(zip(rs, cache.diffusions)):
            inputs = cache.activations[layer - 1] if layer else x
            for o, i in np.ndindex(*mats.shape[:2]):
                want = diffusion_stages(mats[o, i], inputs[i])
                assert stages[:, o, i].tobytes() == want.tobytes()
        if out_grad is None:
            out_grad = rng.child(2).normal(size=out.shape)
        grad = backward(tensor, rs, cache, out_grad).flatten()
        passes.append([out, *cache.diffusions, *cache.pre_activations, grad])
    for got, want in zip(*passes):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(_networks())
def test_intact_broadcast_set_matches_its_copy(net):
    tensor, base, x, rng = net
    reals = sample_architecture(base, 1.0, tensor.cfg, rng.child(3))
    assert all(not m.flags.writeable for m in reals)
    _assert_pass_matches_contiguous_copy(tensor, reals, x, rng)


@settings(max_examples=60, deadline=None)
@given(_networks(), st.lists(st.tuples(st.booleans(), st.booleans()), min_size=3, max_size=3))
def test_partly_shared_set_matches_its_copy(net, shared):
    # shifts drawn at p < 1, then shared along the chosen out / in axes of each layer
    tensor, base, x, rng = net
    reals = tuple(np.broadcast_to(m[:1 if s_out else None, :1 if s_in else None], m.shape)
                  for m, (s_out, s_in) in zip(sample_architecture(base, 0.6, tensor.cfg,
                                                                  rng.child(3)), shared))
    _assert_pass_matches_contiguous_copy(tensor, reals, x, rng)


class TestTrain:
    def _reachable_task(self):
        base = to_shift(build_sbm(6, 2, 1.0, 0.5, Rng(5).child(0)), NORMALIZED_ADJACENCY)
        cfg = SgnnConfig(layers=1, features=1, order=0, nonlinearity="abs")
        generator = FilterTensor.from_flat(cfg, np.array([1.7]))
        rng = Rng(5)
        inputs = np.abs(rng.child(1).normal(size=(64, 1, 6))) + 0.1
        reals = sample_architecture(base, 1.0, cfg, rng.child(2))
        targets = np.stack([forward(generator, reals, inputs[i][..., None],
                                    return_cache=False)[0][..., 0] for i in range(64)])
        return base, cfg, TrainingSet(inputs, targets)

    def test_recovers_generating_filter(self):
        base, cfg, train_set = self._reachable_task()
        tensor0 = init_tensor(cfg, Rng(7), 0.5)
        trace = train(tensor0, base, train_set,
                      TrainConfig(iterations=300, batch_size=32, lr=0.1,
                                  optimizer="sgd", link_p=1.0, seed=3, loss="mse"))
        assert trace.costs[-1] <= 1e-6
        assert abs(abs(trace.tensor.flatten()[0]) - 1.7) <= 1e-3

    def test_fixed_seed_is_bit_identical(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=2, out_features=2,
                         readout="pooled", readout_dim=2)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(40, 1, 8))
        labels = Rng(2).integers(0, 2, 40)
        tcfg = TrainConfig(iterations=60, batch_size=16, lr=1e-3, optimizer="adam",
                           link_p=0.7, seed=11, loss="cross_entropy")
        a = train(tensor0, base8, TrainingSet(inputs, labels), tcfg)
        b = train(tensor0, base8, TrainingSet(inputs, labels), tcfg)
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.grad_norms, b.grad_norms)
        assert np.array_equal(a.tensor.flatten(), b.tensor.flatten())

    def test_zero_learning_rate_keeps_tensor(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(10, 1, 8))
        targets = Rng(2).normal(size=(10, 1, 8))
        trace = train(tensor0, base8, TrainingSet(inputs, targets),
                      TrainConfig(iterations=20, batch_size=10, lr=0.0,
                                  optimizer="sgd", link_p=1.0, seed=0))
        assert np.array_equal(trace.tensor.flatten(), tensor0.flatten())
        # batch order varies per epoch; the cost is flat up to summation dust
        assert np.ptp(trace.costs) <= 1e-15

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_guard(self, base8):
        cfg = SgnnConfig(layers=2, features=2, order=2, nonlinearity="abs")
        tensor0 = init_tensor(cfg, Rng(0), 2.0)
        inputs = 10.0 * np.abs(Rng(1).normal(size=(10, 1, 8)))
        targets = Rng(2).normal(size=(10, 1, 8))
        with pytest.raises(DivergenceError):
            train(tensor0, base8, TrainingSet(inputs, targets),
                  TrainConfig(iterations=400, batch_size=10, lr=1e4,
                              optimizer="sgd", link_p=1.0, seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layers, input_scale, lr, iterations",
                             [(2, 10.0, 1e2, 200), (1, 1.0, 1e308, 5)],
                             ids=["gradient", "update"])
    def test_divergence_is_divergence_error(self, layers, input_scale, lr, iterations):
        # a non-finite gradient (two layers) or an update that overflows (one
        # layer) is a diverged run, not an invalid configuration
        cfg = SgnnConfig(layers=layers, features=2, order=2, nonlinearity="abs")
        base = to_shift(build_sbm(8, 2, 0.9, 0.5, Rng(3)), NORMALIZED_ADJACENCY)
        inputs = input_scale * np.abs(Rng(1).normal(size=(10, 1, 8)))
        targets = Rng(2).normal(size=(10, 1, 8))
        with pytest.raises(DivergenceError, match="at iteration"):
            train(init_tensor(cfg, Rng(0), 2.0), base, TrainingSet(inputs, targets),
                  TrainConfig(iterations=iterations, batch_size=10, lr=lr,
                              optimizer="sgd", link_p=1.0, seed=0))

    def test_input_tensor_not_mutated(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        before = tensor0.flatten().copy()
        inputs = Rng(1).normal(size=(10, 1, 8))
        targets = Rng(2).normal(size=(10, 1, 8))
        train(tensor0, base8, TrainingSet(inputs, targets),
              TrainConfig(iterations=10, batch_size=5, lr=0.1, optimizer="sgd",
                          link_p=0.9, seed=1))
        assert np.array_equal(tensor0.flatten(), before)

    def test_trace_csv_export(self, tmp_path, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(8, 1, 8))
        targets = Rng(2).normal(size=(8, 1, 8))
        trace = train(tensor0, base8, TrainingSet(inputs, targets),
                      TrainConfig(iterations=5, batch_size=4, lr=0.01,
                                  optimizer="sgd", link_p=1.0, seed=0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path, include_timing=False)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,cost,grad_norm_sq,lr,wall_ms"
        assert len(lines) == 6
        assert all(line.endswith(",0.0") for line in lines[1:])


class TestSchedules:
    def test_horizon_step_examples(self):
        assert convergence_step_size(2.0, 1, 1.0, 2.0) == pytest.approx(1.0)
        assert convergence_step_size(1.0, 100, 2.0, 1.0) == pytest.approx(0.1)

    def test_quadrupling_horizon_halves_step(self):
        a = convergence_step_size(3.0, 100, 1.5, 2.0)
        b = convergence_step_size(3.0, 400, 1.5, 2.0)
        assert b == pytest.approx(a / 2.0)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ConfigError):
            convergence_step_size(0.0, 10, 1.0, 1.0)
        with pytest.raises(ConfigError):
            convergence_step_size(1.0, 10, 1.0, -2.0)

    def test_invsqrt_schedule_decays(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(8, 1, 8))
        targets = Rng(2).normal(size=(8, 1, 8))
        trace = train(tensor0, base8, TrainingSet(inputs, targets),
                      TrainConfig(iterations=9, batch_size=8, lr=0.3,
                                  schedule="invsqrt", optimizer="sgd", link_p=1.0, seed=0))
        assert trace.lrs[0] == pytest.approx(0.3)
        assert trace.lrs[3] == pytest.approx(0.15)
        assert trace.lrs[8] == pytest.approx(0.1)

    def test_horizon_schedule_runs_and_uses_constant_step(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=1, out_features=2,
                         readout="pooled", readout_dim=2)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(30, 1, 8))
        labels = Rng(2).integers(0, 2, 30)
        trace = train(tensor0, base8, TrainingSet(inputs, labels),
                      TrainConfig(iterations=25, batch_size=30, lr=123.0,
                                  schedule="horizon", optimizer="sgd", link_p=0.9,
                                  seed=4, loss="cross_entropy",
                                  cost_gap_samples=10, grad_bound_samples=4))
        assert np.ptp(trace.lrs) == 0.0
        assert trace.lrs[0] != 123.0 and trace.lrs[0] > 0


class TestPerSampleBases:
    """One step on per-sample bases against a loop over the samples written
    out here: each sample draws its own realization set on its own graph, in
    batch order from the step's stream, and the step averages over them."""

    @pytest.mark.parametrize("readout,loss", [
        ("none", "mse"), ("pooled", "cross_entropy"), ("per_node", "mse"),
    ])
    def test_step_matches_a_per_sample_loop(self, readout, loss):
        graphs = [to_shift(build_sbm(6, 2, 0.9, 0.4, Rng(40).child(c)), NORMALIZED_ADJACENCY)
                  for c in range(3)]
        assert not np.array_equal(graphs[0].mat, graphs[1].mat)
        assert not np.array_equal(graphs[1].mat, graphs[2].mat)
        cfg = SgnnConfig(layers=2, features=3, order=2, nonlinearity="tanh", in_features=2,
                         out_features=2, readout=readout,
                         readout_dim=0 if readout == "none" else 3)
        tensor = init_tensor(cfg, Rng(41), 0.5)
        inputs = Rng(42).normal(size=(3, 2, 6))
        if loss == "cross_entropy":
            targets = Rng(43).integers(0, 3, 3)
        else:
            width = 2 if readout == "none" else 3
            targets = Rng(43).normal(size=(3, width, 6))
        data = TrainingSet(inputs, targets, bases=graphs)
        idx = np.array([2, 0, 1])

        cost, grad = _cost_and_grad(tensor, None, data, idx, 0.7, loss, Rng(44))
        rng = Rng(44)
        costs, grads = [], []
        def target(i):  # the target of sample i run as a batch of one
            return targets[i:i + 1] if loss == "cross_entropy" else targets[i][..., None]

        for i in idx:
            reals = sample_architecture(graphs[i], 0.7, cfg, rng)
            out, cache = forward(tensor, reals, inputs[i][..., None])
            c, dout = _loss_pair(loss, out, target(i))
            costs.append(c)
            grads.append(backward(tensor, reals, cache, dout).flatten())
        assert cost == sum(costs) / 3
        assert np.array_equal(grad, sum(grads) / 3)

        full = _full_cost(tensor, None, data, 0.7, loss, Rng(45))
        rng = Rng(45)
        want = sum(_loss_pair(loss, forward(tensor, sample_architecture(graphs[i], 0.7, cfg, rng),
                                            inputs[i][..., None], return_cache=False)[0],
                              target(i))[0]
                   for i in range(3)) / 3
        assert full == want


class TestEstimators:
    def test_grad_bound_zero_for_zero_problem(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor = FilterTensor.from_flat(cfg, np.zeros(cfg.num_params))
        data = TrainingSet(np.zeros((6, 1, 8)), np.zeros((6, 1, 8)))
        assert estimate_grad_bound(tensor, base8, data, 0.5, 4, Rng(0)) == 0.0

    def test_grad_bound_reproducible(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=2, out_features=2)
        tensor = init_tensor(cfg, Rng(1), 0.4)
        data = TrainingSet(Rng(2).normal(size=(12, 1, 8)), Rng(3).normal(size=(12, 2, 8)))
        a = estimate_grad_bound(tensor, base8, data, 0.6, 6, Rng(9))
        b = estimate_grad_bound(tensor, base8, data, 0.6, 6, Rng(9))
        assert a == b

    def test_grad_bound_dominates_fresh_draws(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=2, out_features=2)
        tensor = init_tensor(cfg, Rng(1), 0.4)
        data = TrainingSet(Rng(2).normal(size=(12, 1, 8)), Rng(3).normal(size=(12, 2, 8)))
        bound = estimate_grad_bound(tensor, base8, data, 0.6, 20, Rng(10))
        rng = Rng(11)
        idx = np.arange(len(data))
        exceed = 0
        trials = 1000
        for _ in range(trials):
            _, grad = _cost_and_grad(tensor, base8, data, idx, 0.6, "mse", rng)
            exceed += float(np.linalg.norm(grad)) > bound
        assert exceed / trials <= 0.05

    def test_cost_gap_positive_and_reproducible(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=1, out_features=2)
        tensor = init_tensor(cfg, Rng(1), 0.4)
        data = TrainingSet(Rng(2).normal(size=(10, 1, 8)), Rng(3).normal(size=(10, 2, 8)))
        a = estimate_cost_gap(tensor, base8, data, 0.8, 12, Rng(4))
        assert a > 0
        assert a == estimate_cost_gap(tensor, base8, data, 0.8, 12, Rng(4))


class TestConvergenceMetric:
    def test_running_minimum(self):
        seq = np.array([5.0, 3.0, 4.0, 1.0, 2.0])
        assert np.array_equal(convergence_metric(seq), [5.0, 3.0, 3.0, 1.0, 1.0])

    def test_monotone_input_unchanged(self):
        seq = np.array([4.0, 3.0, 2.0])
        assert np.array_equal(convergence_metric(seq), seq)

    def test_constant_input(self):
        assert np.array_equal(convergence_metric(np.ones(4)), np.ones(4))

    def test_accepts_train_trace(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        data = TrainingSet(Rng(1).normal(size=(8, 1, 8)), Rng(2).normal(size=(8, 1, 8)))
        trace = train(tensor0, base8, data,
                      TrainConfig(iterations=30, batch_size=8, lr=0.05,
                                  optimizer="sgd", link_p=0.8, seed=2))
        running = convergence_metric(trace)
        assert np.all(np.diff(running) <= 0)
        assert running[0] == trace.grad_norms[0] ** 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convergence_metric(np.array([]))


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=0, batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=1, batch_size=1, beta1=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=1, batch_size=1, link_p=1.1)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=1, batch_size=1, loss="huber")

    def test_empty_training_set(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        with pytest.raises(ConfigError):
            TrainingSet(np.zeros((0, 1, 8)), np.zeros((0, 1, 8)))
