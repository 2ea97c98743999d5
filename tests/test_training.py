import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sgnn_lab import (
    ADJACENCY,
    KINDS,
    ConfigError,
    DivergenceError,
    FilterTensor,
    NORMALIZED_ADJACENCY,
    Rng,
    SgnnConfig,
    ShiftOperator,
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
    sample_architecture,
    to_shift,
    train,
)
from sgnn_lab import model, training
from sgnn_lab.filters import diffusion_stages
from sgnn_lab.model import NONLINEARITIES, READOUTS, DeferredSets, split_params
from sgnn_lab.training import (LOSSES, _cost_and_grad, _full_cost, _loss_pair,
                               central_differences, gradient_rel_error)


@pytest.fixture
def base8(random8):
    return to_shift(random8, NORMALIZED_ADJACENCY)


def _state(rng: Rng) -> str:
    return repr(rng.generator.bit_generator.state)


class TestLosses:
    def test_mse_zero_on_equal(self):
        x = Rng(0).normal(size=(3, 4))
        cost, grad = _loss_pair("mse", x, x)
        assert cost == 0.0
        assert np.array_equal(grad, np.zeros((3, 4)))

    def test_mse_mean_reduction(self):
        cost, grad = _loss_pair("mse", np.array([1.0, 0.0]), np.zeros(2))
        assert cost == 0.5
        assert np.array_equal(grad, [1.0, 0.0])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            _loss_pair("mse", np.zeros(3), np.zeros(4))

    def test_mse_grad_is_the_derivative(self):
        pred = Rng(1).normal(size=(2, 3))
        target = Rng(2).normal(size=(2, 3))
        _, grad = _loss_pair("mse", pred, target)
        eps = 1e-7
        probe = np.zeros_like(pred)
        probe[1, 2] = eps
        fd = (_loss_pair("mse", pred + probe, target)[0]
              - _loss_pair("mse", pred - probe, target)[0]) / (2 * eps)
        assert grad[1, 2] == pytest.approx(fd, rel=1e-6)

    def test_cross_entropy_uniform_logits(self):
        for classes in (2, 4, 7):
            cost, _ = _loss_pair("cross_entropy", np.zeros((classes, 1)), [0])
            assert cost == pytest.approx(np.log(classes))

    def test_cross_entropy_is_shift_invariant_and_stable(self):
        logits = np.array([[1000.0], [1000.0], [999.0]])
        cost, grad = _loss_pair("cross_entropy", logits, [0])
        assert np.isfinite(cost) and np.all(np.isfinite(grad))
        shifted_cost, shifted_grad = _loss_pair("cross_entropy", logits - 1000.0, [0])
        assert cost == pytest.approx(shifted_cost)
        assert np.allclose(grad, shifted_grad)

    def test_cross_entropy_grad_sums_to_zero(self):
        logits = Rng(3).normal(size=(4, 6))
        labels = Rng(4).integers(0, 4, 6)
        _, grad = _loss_pair("cross_entropy", logits, labels)
        assert np.abs(grad.sum(axis=0)).max() <= 1e-12

    def test_cross_entropy_label_out_of_range(self):
        for label in (3, -1):
            with pytest.raises(ValueError, match="class range"):
                _loss_pair("cross_entropy", np.zeros((3, 1)), [label])


def _reference_loss_pair(loss, pred, target):
    """The cost and the gradient as separate formulas: the reference that the
    single pass must equal bit for bit."""
    if loss == "mse":
        diff = pred - target
        return float(np.mean(diff * diff)), 2.0 * (pred - target) / pred.size
    cols = np.arange(pred.shape[1])
    shifted = pred - pred.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    cost = float(np.mean(log_z - shifted[target, cols]))
    expd = np.exp(pred - pred.max(axis=0, keepdims=True))
    softmax = expd / expd.sum(axis=0, keepdims=True)
    softmax[target, cols] -= 1.0
    return cost, softmax / pred.shape[1]


@st.composite
def _loss_cases(draw):
    """(loss, pred, target): mse on any shape, cross-entropy on (C, B) logits."""
    loss = draw(st.sampled_from(LOSSES))
    rng = Rng(draw(st.integers(0, 2**16)))
    if loss == "mse":
        shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        return loss, rng.normal(size=shape), rng.child(1).normal(size=shape)
    classes, batch = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    return (loss, 3.0 * rng.normal(size=(classes, batch)),
            rng.child(1).integers(0, classes, batch))


@settings(max_examples=60, deadline=None)
@given(_loss_cases())
def test_loss_pair_is_the_cost_and_its_derivative(case):
    loss, pred, target = case
    cost, grad = _loss_pair(loss, pred, target)
    want_cost, want_grad = _reference_loss_pair(loss, pred, target)
    assert cost == want_cost
    assert grad.shape == pred.shape and grad.tobytes() == want_grad.tobytes()
    eps = 1e-6
    fd = np.zeros(pred.size)
    for i, probe in enumerate(eps * np.eye(pred.size)):
        probe = probe.reshape(pred.shape)
        fd[i] = (_loss_pair(loss, pred + probe, target)[0]
                 - _loss_pair(loss, pred - probe, target)[0]) / (2 * eps)
    assert np.allclose(grad.ravel(), fd, rtol=1e-5, atol=1e-8)


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
        assert gradient_rel_error(grad, central_differences(tensor, reals, x, y, loss)) <= 1e-5

    def test_zero_input_batch_gives_zero_gradient(self, base8):
        cfg = SgnnConfig(layers=2, features=2, order=1, nonlinearity="relu")
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = sample_architecture(base8, 0.5, cfg, Rng(1))
        x = np.zeros((1, 8, 3))
        out, cache = forward(tensor, reals, x)
        grad = backward(tensor, reals, cache, _loss_pair("mse", out, np.zeros_like(out))[1])
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
        grad = backward(tensor, reals, cache, _loss_pair("mse", out, t[None, :, None])[1]).flatten()
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

    @pytest.mark.parametrize("order, width", [(1, 2), (2, 9)], ids=["stages", "products"])
    def test_superseded_cache_rejected(self, base8, order, width):
        # a pass on a reused cache empties the old handle: even with the same
        # tensor and set, backward cannot read the newer pass through it (9 columns on
        # 8 nodes at K = 2 cache the filter products, 2 columns at K = 1 the stages)
        cfg = SgnnConfig(layers=2, features=2, order=order)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = sample_architecture(base8, 0.5, cfg, Rng(1))
        out, first = forward(tensor, reals, np.ones((1, 8, width)))
        assert first.plan.layers == (("products" if order == 2 else "stages", 0),) * 2
        layout = (1, 2, 3, 8, 8) if order == 2 else (2, 1, 2, 8, 2)  # layer 1: out 1, in 2
        assert first.stages[1].shape == layout
        out2, second = forward(tensor, reals, 2.0 * np.ones((1, 8, width)), cache=first)
        assert second is not first
        with pytest.raises(StaleCacheError, match="later forward"):
            backward(tensor, reals, first, np.ones_like(out))
        backward(tensor, reals, second, np.ones_like(out2))

    @pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
    def test_floored_pooled_std_matches_central_differences(self, base8, loss):
        # both columns' pooled features agree to within the std floor, where the
        # std is a constant; backward once kept the standardization's scale
        # term there and missed central differences by 1.8e-4 (mse)
        cfg = SgnnConfig(layers=1, features=3, order=2, nonlinearity="tanh", out_features=3,
                         readout="pooled", readout_dim=2)
        rng = Rng(0)
        tensor = init_tensor(cfg, rng.child(0), 0.6)
        reals = sample_architecture(base8, 0.7, cfg, rng.child(1))
        x = 1e-13 * rng.child(2).normal(size=(1, 8, 2))
        out, cache = forward(tensor, reals, x)
        assert np.array_equal(cache.pooled_std, [1e-12, 1e-12])
        assert (cache.pooled_std == model._STD_FLOOR).all()  # backward's floor branch
        if loss == "cross_entropy":
            y = rng.child(3).integers(0, 2, 2)
        else:
            y = rng.child(3).normal(size=out.shape)
        grad = backward(tensor, reals, cache, _loss_pair(loss, out, y)[1])
        assert gradient_rel_error(grad, central_differences(tensor, reals, x, y, loss)) <= 1e-5

    def test_cacheless_forward_rejected(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor = init_tensor(cfg, Rng(0), 0.5)
        reals = sample_architecture(base8, 0.5, cfg, Rng(1))
        out, cache = forward(tensor, reals, np.ones((1, 8, 1)), return_cache=False)
        assert cache is None
        out2, cache2 = forward(tensor, reals, np.ones((1, 8, 1)))
        cache2.stages.clear()
        with pytest.raises(StaleCacheError):
            backward(tensor, reals, cache2, np.ones_like(out2))


_GRAPH8 = build_sbm(8, 2, 0.9, 0.4, Rng(2024).child(0))


@st.composite
def _networks(draw, max_width=5):
    """(tensor, base, input batch, seed) for a random architecture on an 8-node graph, on
    1 to ``max_width`` columns."""
    readout = draw(st.sampled_from(READOUTS))
    cfg = SgnnConfig(layers=draw(st.integers(1, 3)), features=draw(st.integers(1, 3)),
                     order=draw(st.integers(0, 4)),
                     nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
                     in_features=draw(st.integers(1, 2)), out_features=draw(st.integers(1, 3)),
                     readout=readout,
                     readout_dim=0 if readout == "none" else draw(st.integers(1, 3)))
    rng = Rng(draw(st.integers(0, 2**16)))
    x = rng.child(1).normal(size=(cfg.in_features, 8, draw(st.integers(1, max_width))))
    return init_tensor(cfg, rng.child(0), 0.6), to_shift(_GRAPH8, draw(st.sampled_from(KINDS))), x, rng


# two layers at K = 3 on 20 columns of 8 nodes: both run on their filters' products
_PRODUCTS_NET = (init_tensor(SgnnConfig(layers=2, features=3, order=3, nonlinearity="tanh",
                                        out_features=3, readout="pooled", readout_dim=2),
                             Rng(0), 0.6),
                 to_shift(_GRAPH8, NORMALIZED_ADJACENCY), Rng(1).normal(size=(1, 8, 20)), Rng(2))


@settings(max_examples=40, deadline=None)
@given(_networks(max_width=20), st.booleans())
@example(net=_PRODUCTS_NET, cross_entropy=True)
def test_backward_matches_central_differences(net, cross_entropy):
    # mse on every head, cross-entropy on pooled heads; batches on both sides of the
    # node count, so that layers run on their stages and on their filters' products
    tensor, base, x, rng = net
    cfg = tensor.cfg
    loss = "cross_entropy" if cross_entropy and cfg.readout == "pooled" else "mse"
    reals = sample_architecture(base, 0.7, cfg, rng.child(3))
    out, cache = forward(tensor, reals, x)
    if net is _PRODUCTS_NET:
        assert cache.plan.layers == (("products", 0),) * 2
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
    fd, fd2 = (central_differences(tensor, reals, x, y, loss, eps) for eps in (1e-5, 2e-5))
    assume(np.abs(fd).max() >= 1e-2 * cost and gradient_rel_error(fd, fd2) <= 1e-6)
    assert gradient_rel_error(grad, fd) <= 1e-5


def _diffusions(cache):
    """Each layer's cached stages broadcast to every filter, (K+1, out, in, N, B)."""
    return [np.broadcast_to(stages, (len(stages), *taps.shape[:2], *stages.shape[3:]))
            for stages, taps in zip(cache.stages, cache.tensor.layers)]


def _close(got, want):
    """Equal to 1e-12 relative to the largest entry of ``want``."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


def _assume_conditioned(cfg, cache):
    """Skip pooled heads that amplify roundoff past 1e-12: over two features the
    standardization maps them to +-1 whatever their values, so the layers' gradient is
    zero and roundoff is all that is left of it, and a small feature std divides it."""
    if cfg.readout == "pooled" and cfg.out_features > 1:
        assume(cfg.out_features > 2 and cache.pooled_std.min() > 1e-3)


def _einsum_taps(taps, stages, out=None):
    """The tap contraction as einsum on a contiguous copy of every filter's stages."""
    full = np.broadcast_to(stages, (len(stages), *taps.shape[:2], *stages.shape[3:]))
    return np.einsum("oik,koinb->onb", taps, np.ascontiguousarray(full), out=out)


def _einsum_tap_gradient(delta_u, stages):
    full = np.broadcast_to(stages, (len(stages), len(delta_u), *stages.shape[2:]))
    return np.einsum("onb,koinb->oik", delta_u, np.ascontiguousarray(full))


_ROUNDOFF = 1e-13


def _abs_adjoint(taps, mats, d):
    """``sum_o,k |h[o, i, k]| |S_1|^T ... |S_k|^T d[o]`` for |taps| (out, in, K+1),
    |shifts| (out, in, K, N, N) and d (out, N, B) >= 0, accumulated backwards."""
    acc = taps[:, :, -1, None, None] * d[:, None]
    for k in range(taps.shape[2] - 2, -1, -1):
        acc = mats[:, :, k].swapaxes(2, 3) @ acc + taps[:, :, k, None, None] * d[:, None]
    return acc.sum(axis=0)


def _drift_bounds(tensor, reals, x, cache, out_grad):
    """Entrywise bounds on how far two passes of ``tensor`` on ``reals`` from ``x`` can
    drift apart when they differ only in the order of their sums: the stages
    (K+1, out, in, N, B) and pre-activations of every layer, the output, and the flat
    gradient of ``out_grad``, for ``cache``, one of the two passes.

    Two orders of a sum of n <= 64 terms round apart by at most 2 * n * 2^-53 < 1.5e-14
    of the sum of the terms' magnitudes; every sum is allowed ``_ROUNDOFF`` = 1e-13 of
    it.  Each quantity carries a magnitude (the pass on |taps|, |shifts| and |x|: relu,
    abs and tanh are 1-Lipschitz and at most |u|) and a drift, which every sum grows by
    its allowance and every layer by its gain.  tanh's slope is 0.77-Lipschitz; relu's
    and abs' slope drifts only where a pre-activation changes sign, which the caller
    excludes.  A pooled head is linearized about ``cache``'s standardization, for
    feature stds the caller keeps away from 0.  A wrong contraction (a term dropped,
    swapped or misplaced) moves a quantity by about its magnitude, far past the bound."""
    eps, cfg = _ROUNDOFF, tensor.cfg
    mag, drift, fwd = np.abs(x), np.zeros(x.shape), []
    for taps, mats in zip(tensor.layers, reals):
        taps, mats = np.abs(taps), np.abs(mats)
        m = [np.broadcast_to(mag, (len(taps), *mag.shape))]
        d = [np.broadcast_to(drift, m[0].shape)]
        for k in range(cfg.order):
            m.append(mats[:, :, k] @ m[-1])
            d.append(mats[:, :, k] @ d[-1] + eps * m[-1])
        m, d = np.stack(m), np.stack(d)
        mag = np.einsum("oik,koinb->onb", taps, m)
        drift = np.einsum("oik,koinb->onb", taps, d) + eps * mag
        fwd.append((taps, mats, m, d, mag, drift))

    g, grad_tol = np.abs(out_grad), np.zeros(cfg.num_params)
    layer_tol, weight_tol, _ = split_params(cfg, grad_tol)  # the bias gradient sums g alone
    d_drift = np.zeros(mag.shape)  # the head's W^T g: the same operands in both passes
    if cfg.readout == "none":
        out_tol, d_mag = drift, g
    elif cfg.readout == "per_node":
        w, b = np.abs(tensor.head_weight), np.abs(tensor.head_bias)
        out_tol = np.einsum("df,fnb->dnb", w, drift + eps * mag) + eps * b[:, None, None]
        weight_tol[...] = np.einsum("dnb,fnb->df", g, drift + eps * mag)
        d_mag = np.einsum("df,dnb->fnb", w, g)
    else:  # pooled: hat = (f - mean f) / std of the node-averaged features f
        w, b = np.abs(tensor.head_weight), np.abs(tensor.head_bias)
        hat, std = cache.pooled_hat, cache.pooled_std
        d_hat = tensor.head_weight.T @ out_grad
        m_hat = (d_hat * hat).mean(axis=0)
        d_pooled = (d_hat - d_hat.mean(axis=0) - hat * m_hat) / std
        hat_drift = dp_drift = np.zeros(hat.shape)
        if cfg.out_features > 1:  # one feature standardizes to exactly 0
            # the std is 1-Lipschitz in the features' RMS, so it drifts by at most s
            s = (drift.mean(axis=1) + eps * mag.mean(axis=1)).max(axis=0)
            hat_drift = (2 + np.abs(hat)) * s / std + eps * np.abs(hat)
            dp_drift = (hat_drift * np.abs(m_hat)
                        + np.abs(hat) * (np.abs(d_hat) * hat_drift).mean(axis=0)
                        + np.abs(d_pooled) * (s / std + eps)
                        + eps * (np.abs(d_hat) + np.abs(d_hat).mean(axis=0)
                                 + np.abs(hat) * np.abs(d_hat * hat).mean(axis=0)) / std)
        out_tol = w @ hat_drift + eps * (w @ np.abs(hat) + b[:, None])
        weight_tol[...] = g @ (hat_drift + eps * np.abs(hat)).T
        d_mag = np.broadcast_to(np.abs(d_pooled)[:, None] / x.shape[1], mag.shape)
        d_drift = np.broadcast_to(dp_drift[:, None] / x.shape[1], mag.shape)

    lip = 0.77 if cfg.nonlinearity == "tanh" else 0.0
    for layer in range(cfg.layers - 1, -1, -1):
        taps, mats, m, d, _, u_drift = fwd[layer]
        delta_drift = d_drift + lip * d_mag * u_drift + eps * d_mag  # |delta_u| <= d_mag
        layer_tol[layer][...] = (np.einsum("onb,koinb->oik", delta_drift, m)
                                 + np.einsum("onb,koinb->oik", d_mag, d + eps * m))
        adj_mag = _abs_adjoint(taps, mats, d_mag)
        d_drift = _abs_adjoint(taps, mats, delta_drift) + (cfg.order + 1) * eps * adj_mag
        d_mag = adj_mag
    return [f[3] for f in fwd], [f[5] for f in fwd], out_tol, grad_tol


def _assert_pass_matches_contiguous_copy(tensor, reals, x, rng):
    """With the taps contracted by einsum on both sides, forward output, cached stages,
    pre-activations and backward gradient on ``reals`` equal, bit for bit, those on
    C-contiguous copies (the layout of every drawn realization set), and each filter's
    cached stages equal its own diffusion of its layer input.  With the library's
    contraction (one matrix product where every out filter shares the stages) they
    differ by summation order only: every entry stays inside :func:`_drift_bounds`."""
    copies = tuple(np.ascontiguousarray(m) for m in reals)
    out_grad = None
    passes = []
    with mock.patch.object(model, "_contract_taps", _einsum_taps), \
         mock.patch.object(model, "_tap_gradient", _einsum_tap_gradient):
        for rs in (reals, copies):
            out, cache = forward(tensor, rs, x)
            for layer, (mats, stages) in enumerate(zip(rs, _diffusions(cache))):
                inputs = cache.activations[layer - 1] if layer else x
                for o, i in np.ndindex(*mats.shape[:2]):
                    want = diffusion_stages(mats[o, i], inputs[i])
                    assert stages[:, o, i].tobytes() == want.tobytes()
            if out_grad is None:
                out_grad = rng.child(2).normal(size=out.shape)
            grad = backward(tensor, rs, cache, out_grad).flatten()
            passes.append([out, *_diffusions(cache), *cache.pre_activations, grad])
    for got, want in zip(*passes):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    (out, cache), (copy_out, copy_cache) = (forward(tensor, rs, x) for rs in (reals, copies))
    _assume_conditioned(tensor.cfg, copy_cache)
    stage_tol, u_tol, out_tol, grad_tol = _drift_bounds(tensor, copies, x, copy_cache, out_grad)
    checks = [*zip(_diffusions(cache), _diffusions(copy_cache), stage_tol),
              *zip(cache.pre_activations, copy_cache.pre_activations, u_tol),
              (out, copy_out, out_tol)]
    for got, want, tol in checks:
        assert got.shape == want.shape and np.all(np.abs(got - want) <= tol)
    # relu's and abs' slope flips where roundoff moves a pre-activation across 0
    assume(tensor.cfg.nonlinearity == "tanh"
           or all(np.array_equal(np.sign(u), np.sign(v))
                  for u, v in zip(cache.pre_activations, copy_cache.pre_activations)))
    grad = backward(tensor, reals, cache, out_grad)
    assert np.all(np.abs(grad - backward(tensor, copies, copy_cache, out_grad)) <= grad_tol)


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


_GRAPHS8 = [to_shift(build_sbm(8, 2, 0.9, 0.4, Rng(2025).child(c)), kind)
            for c, kind in enumerate(KINDS)]


@st.composite
def _intact_passes(draw):
    """(tensor, intact set, input batch, seed, graphs): a 1- or 2-layer net of any readout
    and nonlinearity at K = 0-3 on 8 nodes, B = 1-5 columns, the columns' graphs, and a
    p = 1 set on them: on one graph (a stride-0 view, given the graph or B copies of
    it) or deferred, one graph per column; every out filter of a layer shares its
    stages."""
    readout = draw(st.sampled_from(READOUTS))
    cfg = SgnnConfig(layers=draw(st.integers(1, 2)), features=draw(st.integers(1, 3)),
                     order=draw(st.integers(0, 3)),
                     nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
                     in_features=draw(st.integers(1, 2)), out_features=draw(st.integers(1, 3)),
                     readout=readout,
                     readout_dim=0 if readout == "none" else draw(st.integers(1, 3)))
    b, rng = draw(st.integers(1, 5)), Rng(draw(st.integers(0, 2**16)))
    graphs = draw(st.lists(st.sampled_from([_GRAPH8] + _GRAPHS8), min_size=b, max_size=b))
    if draw(st.booleans()):
        graphs = graphs[:1] * b
    reals = sample_architecture(graphs[0] if draw(st.booleans()) else graphs, 1.0, cfg,
                                rng.child(3))
    x = rng.child(1).normal(size=(cfg.in_features, 8, b))
    return init_tensor(cfg, rng.child(0), 0.6), reals, x, rng, graphs


def _intact_pass(tensor, reals, x, warm, out_grad):
    """A cached pass on ``x`` refilling the arrays of the pass ``warm`` (set, input),
    its cache and gradient, and a cacheless pass on ``x``."""
    _, cache = forward(tensor, *warm)
    out, cache = forward(tensor, reals, x, cache=cache)
    grad = backward(tensor, reals, cache, out_grad)
    return out, cache, grad, forward(tensor, reals, x, return_cache=False)[0]


@settings(max_examples=120, deadline=None)
@given(_intact_passes())
def test_shared_stage_pass_matches_einsum_on_contiguous_copies(case):
    # the checked pass refills the arrays of a deferred cached pass on another input at
    # p < 1, whose einsum leaves its pre-activations in the stages' (B, N) layout (and
    # whose order-0 or single-out stages the product then reads through a copy)
    tensor, reals, x, rng, graphs = case
    warm = rng.child(4).normal(size=x.shape)
    out_grad = rng.child(2).normal(size=forward(tensor, reals, x, return_cache=False)[0].shape)
    passes = []
    for contract, tap_gradient in ((model._contract_taps, model._tap_gradient),
                                   (_einsum_taps, _einsum_tap_gradient)):
        warm_set = sample_architecture(graphs, 0.7, tensor.cfg, rng.child(5))
        with mock.patch.object(model, "_contract_taps", contract), \
             mock.patch.object(model, "_tap_gradient", tap_gradient):
            passes.append(_intact_pass(tensor, reals, x, (warm_set, warm), out_grad))
    (out, cache, grad, cacheless), (want_out, want_cache, want_grad, want_cacheless) = passes
    _assume_conditioned(tensor.cfg, cache)
    # the diffusion is unchanged: bit for bit from the same input, to roundoff later
    assert cache.stages[0].tobytes() == want_cache.stages[0].tobytes()
    for got, want in zip(cache.stages + cache.pre_activations,
                         want_cache.stages + want_cache.pre_activations):
        _close(got, want)
    _close(out, want_out)
    _close(grad, want_grad)
    _close(cacheless, want_cacheless)


@settings(max_examples=60, deadline=None)
@given(_networks(), st.sampled_from([0.6, 1.0]))
def test_cacheless_pass_equals_a_cached_pass(net, p):
    tensor, base, x, rng = net
    reals = sample_architecture(base, p, tensor.cfg, rng.child(3))
    with mock.patch.object(model, "ForwardCache", side_effect=AssertionError("cache built")):
        out, cache = forward(tensor, reals, x, return_cache=False)
    want, _ = forward(tensor, reals, x)
    assert cache is None and out.shape == want.shape and out.tobytes() == want.tobytes()


def _value_and_slope(kind, u):
    """The nonlinearity's value and derivative as they were computed together."""
    val = {"relu": np.maximum(u, 0.0), "abs": np.abs(u), "tanh": np.tanh(u)}[kind]
    return val, {"relu": (u > 0).astype(float), "abs": np.sign(u), "tanh": 1.0 - val * val}[kind]


@pytest.mark.parametrize("readout", ["none", "pooled"])
@pytest.mark.parametrize("kind", NONLINEARITIES)
def test_backward_equals_the_value_and_slope_reference(base8, kind, readout):
    # zero taps put one feature of every hidden layer exactly on the relu / abs kink
    cfg = SgnnConfig(layers=3, features=3, order=2, nonlinearity=kind, out_features=2,
                     readout=readout, readout_dim=0 if readout == "none" else 2)
    tensor = init_tensor(cfg, Rng(4), 0.6)
    for taps in tensor.layers[:-1]:
        taps[0] = 0.0
    x = Rng(5).normal(size=(1, 8, 4))
    reals = sample_architecture(base8, 0.7, cfg, Rng(6))
    out, cache = forward(tensor, reals, x)
    assert any((u == 0.0).any() for u in cache.pre_activations)
    out_grad = Rng(7).normal(size=out.shape)
    grad = backward(tensor, reals, cache, out_grad)
    with mock.patch.object(model, "_slope", lambda k, u: _value_and_slope(k, u)[1]):
        want = backward(tensor, reals, cache, out_grad)
    assert grad.tobytes() == want.tobytes()


def _arrays(cache):
    return [*cache.stages, *cache.pre_activations, *cache.activations]


@settings(max_examples=60, deadline=None)
@given(_networks(), st.lists(st.tuples(st.sampled_from([0.6, 1.0]),
                                       st.sampled_from([1, 2, 3, 9, 12])),
                             min_size=2, max_size=4))
# two steps of 9 columns on 8 nodes at K = 2: the second refills the first's products
@example(net=(init_tensor(SgnnConfig(layers=2, features=2, order=2, nonlinearity="tanh"),
                          Rng(0), 0.6), to_shift(_GRAPH8, NORMALIZED_ADJACENCY), None, Rng(1)),
         passes=[(0.6, 9), (0.6, 9)])
def test_pass_on_a_reused_cache_equals_a_fresh_pass(net, passes):
    # each pass draws its own set (a stride-0 view at p = 1) and batch width;
    # it refills exactly those arrays of the previous pass whose shapes match: the
    # stages, or at K >= 2 below p = 1 on more columns than nodes the filter products
    # (out, in, K+1, N, N), whatever the width
    tensor, base, _, rng = net
    cache = None
    for j, (p, width) in enumerate(passes):
        reals = sample_architecture(base, p, tensor.cfg, rng.child(10 + j))
        x = rng.child(20 + j).normal(size=(tensor.cfg.in_features, base.n, width))
        old = [] if cache is None else _arrays(cache)
        out, cache = forward(tensor, reals, x, cache=cache)
        for got, was in zip(_arrays(cache), old):
            assert (got is was) == (got.shape == was.shape)
        products = p < 1.0 and tensor.cfg.order >= 2 and width > base.n
        assert cache.plan.layers == (("products" if products else "stages", 0),) * tensor.cfg.layers
        assert all(s.shape[-1] == (base.n if products else width) for s in cache.stages)
        want_out, fresh = forward(tensor, reals, x)
        out_grad = rng.child(30 + j).normal(size=out.shape)
        got = [out, *_arrays(cache), backward(tensor, reals, cache, out_grad)]
        want = [want_out, *_arrays(fresh), backward(tensor, reals, fresh, out_grad)]
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
        return cfg, TrainingSet(inputs, targets, base)

    def test_recovers_generating_filter(self):
        cfg, train_set = self._reachable_task()
        tensor0 = init_tensor(cfg, Rng(7), 0.5)
        trace = train(tensor0, train_set,
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
        a = train(tensor0, TrainingSet(inputs, labels, base8), tcfg)
        b = train(tensor0, TrainingSet(inputs, labels, base8), tcfg)
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.grad_norms, b.grad_norms)
        assert np.array_equal(a.tensor.flatten(), b.tensor.flatten())

    def test_zero_learning_rate_keeps_tensor(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(10, 1, 8))
        targets = Rng(2).normal(size=(10, 1, 8))
        trace = train(tensor0, TrainingSet(inputs, targets, base8),
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
            train(tensor0, TrainingSet(inputs, targets, base8),
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
            train(init_tensor(cfg, Rng(0), 2.0), TrainingSet(inputs, targets, base),
                  TrainConfig(iterations=iterations, batch_size=10, lr=lr,
                              optimizer="sgd", link_p=1.0, seed=0))

    @pytest.mark.parametrize("p, per_sample", [(0.7, False), (1.0, False), (0.7, True),
                                               (1.0, True)],
                             ids=["drawn", "shared", "per_sample_bases", "intact_per_sample_bases"])
    def test_steps_refill_one_cache(self, monkeypatch, random8, p, per_sample):
        # every forward pass of a run after the first writes into the first one's
        # arrays, and the previous pass's set was released before this one's draw
        pointers = []

        def recording_forward(*args, **kwargs):
            assert kwargs["cache"] is None or kwargs["cache"].reals is None
            out, cache = forward(*args, **kwargs)
            pointers.append([a.ctypes.data for a in _arrays(cache)])
            return out, cache

        monkeypatch.setattr(training, "forward", recording_forward)
        cfg = SgnnConfig(layers=2, features=3, order=2, out_features=2,
                         readout="pooled", readout_dim=2)
        graphs = [to_shift(build_sbm(8, 2, 0.9, 0.4, Rng(50).child(c)), NORMALIZED_ADJACENCY)
                  for c in range(12)]
        data = TrainingSet(Rng(1).normal(size=(12, 1, 8)), Rng(2).integers(0, 2, 12),
                           graphs if per_sample else graphs[0])
        train(init_tensor(cfg, Rng(0), 0.5), data,
              TrainConfig(iterations=5, batch_size=4, lr=1e-2, link_p=p, seed=3,
                          loss="cross_entropy"))
        assert len(pointers) == 5  # one pass per step
        assert all(ptrs == pointers[0] for ptrs in pointers[1:])

    def test_input_tensor_not_mutated(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        before = tensor0.flatten().copy()
        inputs = Rng(1).normal(size=(10, 1, 8))
        targets = Rng(2).normal(size=(10, 1, 8))
        train(tensor0, TrainingSet(inputs, targets, base8),
              TrainConfig(iterations=10, batch_size=5, lr=0.1, optimizer="sgd",
                          link_p=0.9, seed=1))
        assert np.array_equal(tensor0.flatten(), before)

    def test_trace_csv_export(self, tmp_path, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(8, 1, 8))
        targets = Rng(2).normal(size=(8, 1, 8))
        trace = train(tensor0, TrainingSet(inputs, targets, base8),
                      TrainConfig(iterations=5, batch_size=4, lr=0.01,
                                  optimizer="sgd", link_p=1.0, seed=0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
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

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, position, value):
        args = [1.0, 10, 1.0, 1.0]
        args[position] = value
        with pytest.raises(ConfigError, match="must be finite and > 0"):
            convergence_step_size(*args)

    def test_invsqrt_schedule_decays(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor0 = init_tensor(cfg, Rng(0), 0.5)
        inputs = Rng(1).normal(size=(8, 1, 8))
        targets = Rng(2).normal(size=(8, 1, 8))
        trace = train(tensor0, TrainingSet(inputs, targets, base8),
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
        trace = train(tensor0, TrainingSet(inputs, labels, base8),
                      TrainConfig(iterations=25, batch_size=30, lr=123.0,
                                  schedule="horizon", optimizer="sgd", link_p=0.9,
                                  seed=4, loss="cross_entropy"))
        assert np.ptp(trace.lrs) == 0.0
        assert trace.lrs[0] != 123.0 and trace.lrs[0] > 0


class TestPerSampleBases:
    """One step on per-sample bases against a loop over the samples written
    out here: each sample draws its own realization set on its own graph, in
    batch order from the step's stream, and the step averages over them.  The
    step runs as one pass over the batch, so it sums in another order: the two
    agree to roundoff and leave the stream at the same position."""

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
        data = TrainingSet(inputs, targets, graphs)
        idx = np.array([2, 0, 1])

        step_rng = Rng(44)
        cost, grad, _ = _cost_and_grad(tensor, data, idx, 0.7, loss, step_rng)
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
        assert _state(step_rng) == _state(rng)
        want_cost, want_grad = sum(costs) / 3, sum(grads) / 3
        assert abs(cost - want_cost) <= 1e-12 * abs(want_cost)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()

        full_rng = Rng(45)
        full = _full_cost(tensor, data, 0.7, loss, full_rng)
        rng = Rng(45)
        want = sum(_loss_pair(loss, forward(tensor, sample_architecture(graphs[i], 0.7, cfg, rng),
                                            inputs[i][..., None], return_cache=False)[0],
                              target(i))[0]
                   for i in range(3)) / 3
        assert _state(full_rng) == _state(rng)
        assert abs(full - want) <= 1e-12 * abs(want)


_EDGELESS6 = ShiftOperator(ADJACENCY, np.zeros((6, 6)))


@st.composite
def _snapshots(draw):
    """A 6-node snapshot, possibly edgeless and possibly weighted, as any shift kind
    (an edgeless one, which cannot be normalized, as an adjacency or a Laplacian)."""
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(6), 2))),
                          max_size=10, unique=True))
    weights = np.zeros((6, 6))
    for i, j in pairs:
        weights[i, j] = weights[j, i] = draw(st.sampled_from([1.0, 0.5, 2.25]))
    kind = draw(st.sampled_from(KINDS if pairs else (ADJACENCY, "laplacian")))
    if kind == "laplacian":
        return ShiftOperator(kind, np.diag(weights.sum(axis=1)) - weights)
    if kind == NORMALIZED_ADJACENCY:
        return ShiftOperator(kind, weights / np.abs(np.linalg.eigvalsh(weights)).max())
    return ShiftOperator(kind, weights)


@st.composite
def _per_sample_problems(draw, snapshots=None):
    """(tensor, training set on per-sample 6-node graphs, batch indices, loss) for a
    random 1- or 2-layer architecture.  The graphs are normalized block-model graphs
    with edgeless snapshots mixed in, or 1-5 draws of ``snapshots`` when given."""
    readout = draw(st.sampled_from(READOUTS))
    cfg = SgnnConfig(layers=draw(st.integers(1, 2)), features=draw(st.integers(1, 3)),
                     order=draw(st.integers(0, 3)),
                     nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
                     in_features=draw(st.integers(1, 2)), out_features=draw(st.integers(1, 3)),
                     readout=readout,
                     readout_dim=0 if readout == "none" else draw(st.integers(1, 3)))
    rng = Rng(draw(st.integers(0, 2**16)))
    if snapshots is None:
        edgeless = draw(st.lists(st.booleans(), min_size=1, max_size=6))
        graphs = []
        for c, empty in enumerate(edgeless):
            adj = build_sbm(6, 2, 0.9, 0.4, rng.child(10 + c))
            graphs.append(_EDGELESS6 if empty or adj.num_edges == 0
                          else to_shift(adj, NORMALIZED_ADJACENCY))
    else:
        graphs = draw(st.lists(snapshots, min_size=1, max_size=5))
    loss = ("cross_entropy" if readout == "pooled" and draw(st.booleans()) else "mse")
    inputs = rng.child(1).normal(size=(len(graphs), cfg.in_features, 6))
    if loss == "cross_entropy":
        targets = rng.child(2).integers(0, cfg.readout_dim, len(graphs))
    else:  # shaped as the output of one sample
        width = cfg.out_features if readout == "none" else cfg.readout_dim
        targets = rng.child(2).normal(size=(len(graphs), width, 6)[:2 if readout == "pooled" else 3])
    idx = np.array(draw(st.permutations(range(len(graphs))))[:draw(st.integers(1, len(graphs)))])
    return init_tensor(cfg, rng.child(0), 0.6), TrainingSet(inputs, targets, graphs), idx, loss


def _per_sample_loop(tensor, data, idx, loss, p=1.0, rng=None):
    """Cost and flat gradient of the batch as its samples' own B = 1 passes, averaged:
    sample by sample in batch order, a realization set at ``p`` drawn from ``rng`` on
    the sample's own graph (its intact graph at p = 1), one forward pass, the loss and
    one backward pass.  The reference for the one-pass step; third, the largest entry
    of the samples' own gradients."""
    rng = Rng(0) if rng is None else rng
    costs, grads = [], []
    for i in idx:
        reals = sample_architecture(data.graphs[i], p, tensor.cfg, rng)
        out, cache = forward(tensor, reals, data.inputs[i][..., None])
        y = data.targets[i:i + 1] if loss == "cross_entropy" else data.targets[i][..., None]
        c, dout = _loss_pair(loss, out, y)
        costs.append(c)
        grads.append(backward(tensor, reals, cache, dout))
    return sum(costs) / len(idx), sum(grads) / len(idx), np.abs(grads).max(initial=0.0)


def _assert_step_gradient(cfg, grad, want_grad, term):
    """The one-pass gradient ``grad`` against the per-sample loop's ``want_grad`` to
    1e-12 of its largest entry.  A pooled head over fewer than 3 features is the
    exception: standardizing them gives 0 or +-1 whatever the layers compute, so the
    output ignores the layer taps and their gradient is roundoff, of either sign in the
    two passes.  There the head block agrees to 1e-12 of ``term``, the largest entry of
    the samples' own gradients (their mean may cancel), and the layer block is below
    1e-6 of it in both passes."""
    if cfg.readout != "pooled" or cfg.out_features >= 3:
        scale = np.abs(want_grad).max(initial=0.0)
        assert np.abs(grad - want_grad).max(initial=0.0) <= 1e-12 * scale
        return
    head = replace(cfg, readout="none", readout_dim=0).num_params
    assert np.abs(grad[head:] - want_grad[head:]).max() <= 1e-12 * term
    for layers in (grad[:head], want_grad[:head]):
        assert np.abs(layers).max(initial=0.0) <= 1e-6 * term


@settings(max_examples=80, deadline=None)
@given(_per_sample_problems())
def test_one_pass_intact_step_matches_the_per_sample_loop(problem):
    # summation order differs (one mean over the batch, one contraction over columns),
    # so the two agree to roundoff, not bit for bit
    tensor, data, idx, loss = problem
    cost, grad, _ = _cost_and_grad(tensor, data, idx, 1.0, loss, Rng(1))
    want_cost, want_grad, _ = _per_sample_loop(tensor, data, idx, loss)
    assert abs(cost - want_cost) <= 1e-12 * abs(want_cost)
    assert np.abs(grad - want_grad).max(initial=0.0) <= 1e-12 * np.abs(want_grad).max(initial=0.0)
    full = _full_cost(tensor, data, 1.0, loss, Rng(1))
    want_full, _, _ = _per_sample_loop(tensor, data, np.arange(len(data)), loss)
    assert abs(full - want_full) <= 1e-12 * abs(want_full)


def _cancelling_bias_problem(seed=14):
    """A degenerate head: one pooled feature standardizes to 0, so every output is the
    head bias, and targets whose residuals nearly cancel leave a bias gradient of 2.35e-5
    summed from terms of order 1, in another order by each pass (the 1e-12 relative
    bound on the whole gradient fails on it)."""
    cfg = SgnnConfig(layers=1, features=1, order=3, in_features=2, out_features=1,
                     nonlinearity="relu", readout="pooled", readout_dim=1)
    tensor = init_tensor(cfg, Rng(seed), 0.6)
    targets = Rng(seed, 2).normal(size=(5, 1))
    targets[4] = 5 * tensor.head_bias[0] - targets[:4].sum() - 5.875e-5
    data = TrainingSet(Rng(seed, 1).normal(size=(5, 2, 6)), targets, [_EDGELESS6] * 5)
    return tensor, data, np.arange(5), "mse"


@settings(max_examples=80, deadline=None)
@given(_per_sample_problems(_snapshots()), st.sampled_from([0.3, 0.7]))
@example(problem=_cancelling_bias_problem(), p=0.3)
def test_fresh_set_step_matches_the_per_sample_loop(problem, p):
    # below p = 1 every sample draws its own set on its own graph; one pass over the
    # batch sums in another order than the loop, so the two agree to roundoff, and
    # both leave the stream at the same position
    tensor, data, idx, loss = problem
    rng, loop_rng = Rng(3), Rng(3)
    cost, grad, _ = _cost_and_grad(tensor, data, idx, p, loss, rng)
    want_cost, want_grad, term = _per_sample_loop(tensor, data, idx, loss, p, loop_rng)
    assert _state(rng) == _state(loop_rng)
    assert abs(cost - want_cost) <= 1e-12 * abs(want_cost)
    _assert_step_gradient(tensor.cfg, grad, want_grad, term)
    rng, loop_rng = Rng(4), Rng(4)
    full = _full_cost(tensor, data, p, loss, rng)
    want_full, _, _ = _per_sample_loop(tensor, data, np.arange(len(data)), loss, p, loop_rng)
    assert _state(rng) == _state(loop_rng)
    assert abs(full - want_full) <= 1e-12 * abs(want_full)


def _column_loop(tensor, drawn, x, dout):
    """Output and gradient of a batch pass as its columns' own B = 1 passes on the sets
    ``drawn``: the outputs side by side, and the gradients summed, column b's pass
    given column b of the output gradient ``dout``."""
    outs, grad = [], np.zeros(tensor.cfg.num_params)
    for b, reals in enumerate(drawn):
        out, cache = forward(tensor, reals, x[..., b, None])
        outs.append(out)
        grad += backward(tensor, reals, cache, dout[..., b, None])
    return np.concatenate(outs, axis=-1), grad


def _per_column_case(readout, loss, kinds, p, scale):
    """A 2-layer net on one 6-node graph per column (the last edgeless), a deferred
    set at ``p`` on them, the same sets drawn column by column, an input batch and
    targets."""
    graphs = [to_shift(build_sbm(6, 2, 0.9, 0.4, Rng(60).child(c)), kind)
              for c, kind in enumerate(kinds)] + [_EDGELESS6]
    cfg = SgnnConfig(layers=2, features=3, order=3, nonlinearity="tanh", in_features=2,
                     out_features=3, readout=readout,
                     readout_dim=0 if readout == "none" else 3)
    tensor = init_tensor(cfg, Rng(61), scale)
    sets = sample_architecture(graphs, p, cfg, Rng(62))
    loop_rng = Rng(62)
    drawn = [sample_architecture(graph, p, cfg, loop_rng) for graph in graphs]
    x = Rng(63).normal(size=(2, 6, 4))
    width = cfg.out_features if readout == "none" else cfg.readout_dim
    y = (Rng(64).integers(0, 3, 4) if loss == "cross_entropy"
         else Rng(64).normal(size=(width, 6, 4)[:2 if readout == "pooled" else 3]))
    return tensor, sets, drawn, x, y


@pytest.mark.parametrize("readout,loss", [("none", "mse"), ("pooled", "cross_entropy"),
                                          ("per_node", "mse")])
def test_per_column_set_backward_matches_central_differences(readout, loss):
    # two layers on per-column intact graphs: the cached pass diffuses each layer in one
    # stacked product per stage, and backward rebuilds each column's second-layer
    # shifts for the Horner adjoint; at p = 1 the deferred set draws nothing, so the
    # central differences run on the set itself
    tensor, sets, drawn, x, y = _per_column_case(readout, loss, [NORMALIZED_ADJACENCY] * 3,
                                                 1.0, 0.6)
    assert isinstance(sets, DeferredSets)
    out, cache = forward(tensor, sets, x)
    _, dout = _loss_pair(loss, out, y)
    grad = backward(tensor, sets, cache, dout)
    want_out, want = _column_loop(tensor, drawn, x, dout)
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
    assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()
    assert gradient_rel_error(grad, central_differences(tensor, sets, x, y, loss)) <= 1e-6


@pytest.mark.parametrize("readout,loss", [("none", "mse"), ("pooled", "cross_entropy"),
                                          ("per_node", "mse")])
def test_fresh_per_column_set_backward_matches_central_differences(readout, loss):
    # two layers on per-column graphs below p = 1, so backward rebuilds each column's
    # second-layer shifts from the cached keeps for the Horner adjoint; the reference
    # and the central differences run column by column on the same sets, drawn one
    # graph at a time (the batch cost is the mean of the columns' B = 1 costs)
    tensor, sets, drawn, x, y = _per_column_case(readout, loss, KINDS, 0.7, 0.3)
    out, cache = forward(tensor, sets, x)
    _, dout = _loss_pair(loss, out, y)
    grad = backward(tensor, sets, cache, dout)
    want_out, want = _column_loop(tensor, drawn, x, dout)
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
    assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()
    # the Laplacian's large entries curve the cost: small taps and a smaller step keep
    # the central differences' truncation error (~eps^2) below the tolerance
    fd = sum(central_differences(tensor, reals, x[..., b, None],
                                 y[b:b + 1] if loss == "cross_entropy" else y[..., b, None],
                                 loss, eps=3e-6)
             for b, reals in enumerate(drawn)) / len(drawn)
    assert gradient_rel_error(grad, fd) <= 1e-6


@pytest.mark.parametrize("p", [1.0, 0.7])
def test_central_differences_takes_a_deferred_set_only_at_p_one(p):
    # below p = 1 each pass draws the next B sets, so the two costs behind a
    # coordinate would run on different shifts and the quotient would be noise;
    # at p = 1 one graph per column gives a deferred set that draws nothing
    graphs = [to_shift(build_sbm(8, 2, 0.9, 0.4, Rng(1).child(b)), NORMALIZED_ADJACENCY)
              for b in range(3)]
    cfg = SgnnConfig(layers=1, features=2, order=2, nonlinearity="tanh", out_features=2)
    tensor = init_tensor(cfg, Rng(2), 0.5)
    sets = sample_architecture(graphs, p, cfg, Rng(5))
    assert isinstance(sets, DeferredSets)
    x, y = Rng(3).normal(size=(1, 8, 3)), Rng(4).normal(size=(2, 8, 3))
    if p < 1.0:
        with pytest.raises(ValueError, match="not fixed"):
            central_differences(tensor, sets, x, y, "mse")
        return
    out, cache = forward(tensor, sets, x)
    grad = backward(tensor, sets, cache, _loss_pair("mse", out, y)[1])
    assert gradient_rel_error(grad, central_differences(tensor, sets, x, y, "mse")) <= 1e-6


@pytest.mark.parametrize("p", [1.0, 0.7], ids=["intact", "drawn"])
def test_per_sample_bases_run_one_pass_per_step(monkeypatch, p):
    # guards against a silent fallback to a per-sample loop, at p = 1 and below it
    calls = {"forward": 0, "backward": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(training, "forward", counting("forward", forward))
    monkeypatch.setattr(training, "backward", counting("backward", backward))
    graphs = [to_shift(build_sbm(6, 2, 0.9, 0.4, Rng(70).child(c)), NORMALIZED_ADJACENCY)
              for c in range(10)]
    cfg = SgnnConfig(layers=1, features=3, order=2, in_features=2, out_features=3,
                     readout="per_node", readout_dim=2)
    data = TrainingSet(Rng(71).normal(size=(10, 2, 6)), Rng(72).normal(size=(10, 2, 6)),
                       graphs)
    train(init_tensor(cfg, Rng(73), 0.5), data,
          TrainConfig(iterations=3, batch_size=4, link_p=p, seed=0))
    assert calls == {"forward": 3, "backward": 3}


class TestEstimators:
    def test_grad_bound_zero_for_zero_problem(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        tensor = FilterTensor.from_flat(cfg, np.zeros(cfg.num_params))
        data = TrainingSet(np.zeros((6, 1, 8)), np.zeros((6, 1, 8)), base8)
        assert estimate_grad_bound(tensor, data, 0.5, 4, Rng(0)) == 0.0

    def test_grad_bound_reproducible(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=2, out_features=2)
        tensor = init_tensor(cfg, Rng(1), 0.4)
        data = TrainingSet(Rng(2).normal(size=(12, 1, 8)), Rng(3).normal(size=(12, 2, 8)), base8)
        a = estimate_grad_bound(tensor, data, 0.6, 6, Rng(9))
        b = estimate_grad_bound(tensor, data, 0.6, 6, Rng(9))
        assert a == b

    def test_grad_bound_dominates_fresh_draws(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=2, out_features=2)
        tensor = init_tensor(cfg, Rng(1), 0.4)
        data = TrainingSet(Rng(2).normal(size=(12, 1, 8)), Rng(3).normal(size=(12, 2, 8)), base8)
        bound = estimate_grad_bound(tensor, data, 0.6, 20, Rng(10))
        rng = Rng(11)
        idx = np.arange(len(data))
        exceed = 0
        trials = 1000
        for _ in range(trials):
            _, grad, _ = _cost_and_grad(tensor, data, idx, 0.6, "mse", rng)
            exceed += float(np.linalg.norm(grad)) > bound
        assert exceed / trials <= 0.05

    def test_cost_gap_positive_and_reproducible(self, base8):
        cfg = SgnnConfig(layers=1, features=2, order=1, out_features=2)
        tensor = init_tensor(cfg, Rng(1), 0.4)
        data = TrainingSet(Rng(2).normal(size=(10, 1, 8)), Rng(3).normal(size=(10, 2, 8)), base8)
        a = estimate_cost_gap(tensor, data, 0.8, 12, Rng(4))
        assert a > 0
        assert a == estimate_cost_gap(tensor, data, 0.8, 12, Rng(4))

    @pytest.mark.parametrize("estimate", [estimate_cost_gap, estimate_grad_bound])
    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_sample_rejected(self, base8, estimate, n_samples):
        # 0 draws once divided by zero (cost gap) or gave a zero bound, which
        # the horizon schedule turned into a step of ~1e11
        cfg = SgnnConfig(layers=1, features=1, order=1)
        data = TrainingSet(Rng(2).normal(size=(4, 1, 8)), Rng(3).normal(size=(4, 1, 8)), base8)
        with pytest.raises(ConfigError, match=f"n_samples must be >= 1, got {n_samples}"):
            estimate(init_tensor(cfg, Rng(1), 0.4), data, 0.8, n_samples, Rng(4))

    @pytest.mark.parametrize("estimate", [estimate_cost_gap, estimate_grad_bound])
    def test_unknown_loss_rejected(self, base8, estimate):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        data = TrainingSet(Rng(2).normal(size=(4, 1, 8)), Rng(3).normal(size=(4, 1, 8)), base8)
        with pytest.raises(ConfigError, match=r"'xent'.*'mse', 'cross_entropy'"):
            estimate(init_tensor(cfg, Rng(1), 0.4), data, 0.8, 2, Rng(4), loss="xent")

    def test_central_differences_rejects_an_unknown_loss(self, base8):
        cfg = SgnnConfig(layers=1, features=1, order=1)
        reals = sample_architecture(base8, 0.8, cfg, Rng(5))
        x, y = Rng(2).normal(size=(1, 8, 3)), Rng(3).normal(size=(1, 8, 3))
        with pytest.raises(ConfigError, match=r"'xent'.*'mse', 'cross_entropy'"):
            central_differences(init_tensor(cfg, Rng(1), 0.4), reals, x, y, "xent")


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
        data = TrainingSet(Rng(1).normal(size=(8, 1, 8)), Rng(2).normal(size=(8, 1, 8)), base8)
        trace = train(tensor0, data,
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
            TrainConfig(iterations=1, batch_size=1, link_p=1.1)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=1, batch_size=1, loss="huber")

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, -1e-3])
    def test_non_finite_or_negative_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr must be finite and >= 0"):
            TrainConfig(iterations=1, batch_size=1, lr=lr)

    # a graph of another size once failed only mid-training, inside forward
    def test_per_sample_graph_of_another_size_rejected(self, random8, k3):
        with pytest.raises(ConfigError, match="graph 1 has 3 nodes, the inputs 8"):
            TrainingSet(np.zeros((2, 1, 8)), np.zeros((2, 1, 8)), [random8, k3])

    # a shared graph of another size was once not checked against the inputs at all
    def test_shared_graph_of_another_size_rejected(self, k3):
        with pytest.raises(ConfigError, match="shared graph has 3 nodes, the inputs 8"):
            TrainingSet(np.zeros((2, 1, 8)), np.zeros((2, 1, 8)), k3)

    def test_per_sample_graph_count_must_match_the_samples(self, random8):
        with pytest.raises(ConfigError, match="per-sample graphs must match the sample count"):
            TrainingSet(np.zeros((2, 1, 8)), np.zeros((2, 1, 8)), [random8] * 3)

    def test_empty_training_set(self, base8):
        with pytest.raises(ConfigError):
            TrainingSet(np.zeros((0, 1, 8)), np.zeros((0, 1, 8)), base8)
