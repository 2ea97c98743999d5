import dataclasses
import json
import re

import numpy as np
import pytest

from sgnn_lab import (
    ADJACENCY,
    ConfigError,
    FilterTensor,
    LAPLACIAN,
    NORMALIZED_ADJACENCY,
    Rng,
    SgnnConfig,
    TrainConfig,
    KINDS,
    SizeGuardError,
    UnsupportedKindError,
    VarianceReport,
    apply_filter,
    build_sbm,
    check_edge_probability,
    check_nonlinearity_variance,
    enumerate_expected_shift_square,
    estimate_response_bound,
    estimate_response_lipschitz,
    exact_filter_variance,
    expected_shift,
    expected_shift_square,
    filter_constants,
    filter_variance_bound,
    forward,
    freq_response,
    init_tensor,
    make_sgnn_report,
    mc_sgnn_variance,
    mc_variance,
    sample_architecture,
    sample_realization,
    sample_realizations,
    sgnn_variance_bound,
    shift_alpha,
    tensor_constants,
    to_shift,
    variance_std_error,
)
from sgnn_lab.common import write_results
from sgnn_lab.variance import REPORT_COLUMNS


class TestMcVariance:
    def test_constant_evaluator(self):
        var, se = mc_variance(lambda r: np.ones(4), 500, Rng(0))
        assert var == 0.0 and se == 0.0
        assert type(var) is float and type(se) is float

    def test_deterministic_filter_evaluator(self, k3):
        h = [0.5, 1.0]

        def evaluate(r):
            return apply_filter(h, [sample_realization(k3, 1.0, r)], np.ones(3))

        var, se = mc_variance(evaluate, 200, Rng(1))
        assert var == 0.0

    def test_single_link_bernoulli(self, k2):
        # output at node 1 is Bernoulli(1/2): exact variance 0.25
        def evaluate(r):
            return apply_filter([0.0, 1.0], [sample_realization(k2, 0.5, r)], np.array([1.0, 0.0]))

        var, se = mc_variance(evaluate, 20_000, Rng(2))
        assert abs(var - 0.25) <= 3 * se + 1e-12

    def test_sample_count_validated(self):
        with pytest.raises(ConfigError):
            mc_variance(lambda r: np.zeros(2), 1, Rng(0))


class TestVarianceStdError:
    @pytest.mark.parametrize("samples", [[], [1.5]])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(ConfigError, match="n_samples must be >= 2"):
            variance_std_error(samples)

    @pytest.mark.parametrize("samples", [1.5, [[1.0, 2.0], [3.0, 4.0]], np.ones((4, 1))])
    def test_samples_that_are_not_1d_rejected(self, samples):
        with pytest.raises(ValueError, match="expected a 1-D array"):
            variance_std_error(samples)

    def test_two_samples_give_a_finite_error(self):
        assert np.isfinite(variance_std_error([1.0, 2.0]))


class TestExactFilterVariance:
    def test_deterministic_endpoints(self, k3):
        h = [0.3, 1.0, -0.5]
        x = np.array([1.0, 2.0, -1.0])
        assert exact_filter_variance(h, k3, 1.0, x) == 0.0
        assert exact_filter_variance(h, k3, 0.0, x) == 0.0

    def test_single_edge_hand_value(self, k2):
        # only node 1 sees randomness; Bernoulli(1/2) scaled by x_0 = 1
        got = exact_filter_variance([0.0, 1.0], k2, 0.5, np.array([1.0, 0.0]))
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_variance_scales_quadratically_with_signal(self, k3):
        h = [0.0, 1.0, 0.4]
        x = np.array([0.5, -1.0, 2.0])
        v1 = exact_filter_variance(h, k3, 0.4, x)
        v2 = exact_filter_variance(h, k3, 0.4, 2.0 * x)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_matches_monte_carlo(self, k3):
        h = np.array([0.2, -0.7, 0.9])
        x = np.array([1.0, 0.3, -0.6])
        p = 0.6
        exact = exact_filter_variance(h, k3, p, x)

        def evaluate(r):
            return apply_filter(h, sample_realizations(k3, p, r, 2), x)

        var, se = mc_variance(evaluate, 40_000, Rng(4))
        assert abs(var - exact) <= 3 * se

    def test_enumeration_guard(self):
        big = build_sbm(12, 2, 0.9, 0.6, Rng(0).child(1))
        assert big.num_edges >= 8
        with pytest.raises(SizeGuardError):
            exact_filter_variance(np.ones(4), big, 0.5, np.ones(12))

    def test_order_zero_filter_is_deterministic(self, k3):
        assert exact_filter_variance([2.0], k3, 0.5, np.ones(3)) == 0.0


class TestEnumeratedShiftSquare:
    def test_against_closed_form(self, p4):
        from sgnn_lab import expected_shift_square

        for kind in (ADJACENCY, LAPLACIAN):
            base = to_shift(p4, kind)
            for p in (0.25, 0.75):
                got = enumerate_expected_shift_square(base, p)
                want = expected_shift_square(base, p)
                assert np.abs(got - want).max() <= 1e-12

    def test_edge_guard(self):
        big = build_sbm(40, 4, 0.8, 0.2, Rng(3).child(0))
        with pytest.raises(SizeGuardError):
            enumerate_expected_shift_square(big, 0.5)


class TestFilterVarianceBound:
    def test_zero_at_endpoints(self, k3):
        consts = filter_constants([0.0, 1.0], k3, rng=Rng(0))
        x = np.ones(3)
        assert filter_variance_bound([0.0, 1.0], k3, 0.0, x, consts) == 0.0
        assert filter_variance_bound([0.0, 1.0], k3, 1.0, x, consts) == 0.0

    def test_symmetric_in_p(self, k3):
        consts = filter_constants([0.0, 1.0, 0.3], k3, rng=Rng(0))
        x = np.array([1.0, -1.0, 0.5])
        lo = filter_variance_bound([0.0, 1.0, 0.3], k3, 0.2, x, consts)
        hi = filter_variance_bound([0.0, 1.0, 0.3], k3, 0.8, x, consts)
        assert lo == pytest.approx(hi)

    def test_single_edge_worked_example(self, k2):
        # M=1, K=1, |h1|=1: constant = 2 * 1 * 1 * 1 * (1.05)^2, so the
        # bound at p=0.5 is 0.25 * 2 * 1.1025 ~ 0.551 >= exact 0.25
        h = [0.0, 1.0]
        consts = filter_constants(h, k2, rng=Rng(0))
        x = np.array([1.0, 0.0])
        bound = filter_variance_bound(h, k2, 0.5, x, consts)
        assert bound == pytest.approx(0.25 * 2.0 * 1.05**2, rel=1e-9)
        assert exact_filter_variance(h, k2, 0.5, x) <= bound

    def test_alpha_per_kind(self):
        assert shift_alpha(ADJACENCY) == 1.0
        assert shift_alpha(LAPLACIAN) == 2.0
        assert shift_alpha(NORMALIZED_ADJACENCY) == 1.0

    @pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN])
    @pytest.mark.parametrize("p", [0.9, 0.95, 0.99])
    def test_dominates_exact_variance_in_stable_regime(self, k3, p4, kind, p):
        rng = Rng(17)
        x_by_n = {3: rng.normal(size=3), 4: rng.normal(size=4)}
        for adj in (k3, p4):
            base = to_shift(adj, kind)
            x = x_by_n[base.n]
            for trial in range(3):
                h = rng.normal(size=int(rng.integers(2, 4)))
                consts = filter_constants(h, base, rng=rng.child(trial))
                exact = exact_filter_variance(h, base, p, x)
                bound = filter_variance_bound(h, base, p, x, consts)
                assert exact <= bound

    @pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN])
    def test_higher_order_remainder_has_quadratic_shape(self, k3, p4, kind):
        # fitting the unknown remainder constant at p = 0.5 must cover the
        # whole probability range: exact <= bound + 4 p^2 (1-p)^2 C2
        rng = Rng(19)
        for adj in (k3, p4):
            base = to_shift(adj, kind)
            x = rng.normal(size=base.n)
            for trial in range(2):
                h = rng.normal(size=3)
                consts = filter_constants(h, base, rng=rng.child(10 + trial))
                mid_exact = exact_filter_variance(h, base, 0.5, x)
                mid_bound = filter_variance_bound(h, base, 0.5, x, consts)
                c2 = max(0.0, (mid_exact - mid_bound) / (4 * 0.5**4))
                for p in (0.1, 0.2, 0.35, 0.65, 0.8, 0.9, 0.97):
                    exact = exact_filter_variance(h, base, p, x)
                    envelope = (filter_variance_bound(h, base, p, x, consts)
                                + 4 * p**2 * (1 - p) ** 2 * c2)
                    assert exact <= envelope + 1e-12


_SBM6 = to_shift(build_sbm(6, 2, 0.8, 0.4, Rng(8).child(0)), ADJACENCY)
_CONSTS6 = filter_constants([0.2, 0.5, -0.3], _SBM6, rng=Rng(9))
_NO_TAPS = "filter taps must be a non-empty 1-D sequence"
_SHORT_SIGNAL = re.escape("signal has shape (4,), expected (6,) for 6 nodes")


@pytest.mark.parametrize("call,error,match", [
    # no taps once gave a negative bound (-123 here) or a raw IndexError
    (lambda: filter_variance_bound([], _SBM6, 0.5, np.ones(6), _CONSTS6), ValueError, _NO_TAPS),
    (lambda: exact_filter_variance([], _SBM6, 0.5, np.ones(6)), ValueError, _NO_TAPS),
    (lambda: estimate_response_bound([], (-1.0, 1.0)), ValueError, _NO_TAPS),
    (lambda: freq_response([], 0.5), ValueError, _NO_TAPS),
    (lambda: estimate_response_lipschitz([], (-1.0, 1.0), Rng(0)), ValueError, _NO_TAPS),
    # a signal shorter than the graph was once accepted
    (lambda: filter_variance_bound([0.2, 0.5], _SBM6, 0.5, np.ones(4), _CONSTS6),
     ValueError, _SHORT_SIGNAL),
    (lambda: sgnn_variance_bound(SgnnConfig(layers=1, features=1, order=2), _SBM6, 0.5,
                                 np.ones(4), _CONSTS6), ValueError, _SHORT_SIGNAL),
    (lambda: shift_alpha("bogus"), UnsupportedKindError,
     re.escape(f"unknown shift kind 'bogus' (supported: {KINDS})")),
], ids=["filter-bound-no-taps", "exact-variance-no-taps", "response-bound-no-taps",
        "freq-response-no-taps", "lipschitz-no-taps", "filter-bound-short-signal",
        "sgnn-bound-short-signal", "unknown-kind"])
def test_malformed_bound_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("p", [-0.1, 1.5, np.nan])
@pytest.mark.parametrize("call", [
    lambda p: check_edge_probability(p),
    lambda p: sample_realizations(_SBM6, p, Rng(0), 2),
    lambda p: expected_shift(_SBM6, p),
    lambda p: expected_shift_square(_SBM6, p),
    lambda p: sample_architecture(_SBM6, p, SgnnConfig(layers=1, features=1, order=1), Rng(0)),
    lambda p: enumerate_expected_shift_square(_SBM6, p, max_edges=64),
    lambda p: exact_filter_variance([0.2, 0.5], _SBM6, p, np.ones(6)),
    lambda p: filter_variance_bound([0.2, 0.5], _SBM6, p, np.ones(6), _CONSTS6),
    lambda p: sgnn_variance_bound(SgnnConfig(layers=1, features=1, order=2), _SBM6, p,
                                  np.ones(6), _CONSTS6),
    lambda p: TrainConfig(iterations=1, batch_size=1, link_p=p),
], ids=["rule", "sample-realizations", "expected-shift", "expected-shift-square",
        "sample-architecture", "enumerated-square", "exact-variance", "filter-bound",
        "sgnn-bound", "train-config"])
def test_every_edge_probability_site_raises_the_one_error(call, p):
    with pytest.raises(ConfigError, match=re.escape(f"edge probability p={p} outside [0, 1]")):
        call(p)


class TestSgnnVarianceBound:
    def test_single_layer_single_feature_reduces_to_filter_form(self, k3):
        cfg = SgnnConfig(layers=1, features=1, order=2)
        h = [0.1, 0.5, -0.2]
        consts = filter_constants(h, k3, rng=Rng(0))
        x = np.array([1.0, 2.0, 3.0])
        got = sgnn_variance_bound(cfg, k3, 0.9, x, consts)
        want = filter_variance_bound(h, k3, 0.9, x, consts)
        assert got == pytest.approx(want)

    def test_zero_at_p_zero(self, k3):
        cfg = SgnnConfig(layers=2, features=2, order=1)
        consts = filter_constants([0.0, 1.0], k3, rng=Rng(0))
        assert sgnn_variance_bound(cfg, k3, 0.0, np.ones(3), consts) == 0.0

    def test_formula_literal_evaluation(self, k3):
        cfg = SgnnConfig(layers=2, features=3, order=2)
        from sgnn_lab.spectral import FilterConstants

        consts = FilterConstants(response_bound=1.5, response_lipschitz=0.8,
                                 nonlinearity_lipschitz=1.0, domain=(-1, 1))
        x = np.array([1.0, 0.0, 0.0])
        layer_sum = sum(3.0 ** (2 * 2 - 3) * 1.0 ** (2 * l - 2) * 1.5 ** (2 * 2 - 2)
                        for l in (1, 2))
        want = 0.9 * 0.1 * 2.0 * 1.0 * 3 * layer_sum * 2 * 0.8**2
        got = sgnn_variance_bound(cfg, k3, 0.9, x, consts)
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("name", ["response_bound", "response_lipschitz",
                                      "nonlinearity_lipschitz"])
    def test_non_finite_or_negative_constant_rejected(self, name, value):
        from sgnn_lab.spectral import FilterConstants

        fields = dict(response_bound=1.5, response_lipschitz=0.8, nonlinearity_lipschitz=1.0)
        with pytest.raises(ConfigError, match=f"{name} must be finite and >= 0"):
            FilterConstants(**{**fields, name: value}, domain=(-1, 1))

    def test_monte_carlo_stays_under_bound(self):
        rng = Rng(23)
        adj = build_sbm(10, 2, 0.8, 0.2, rng.child(0))
        base = to_shift(adj, NORMALIZED_ADJACENCY)
        cfg = SgnnConfig(layers=2, features=2, order=2, nonlinearity="relu")
        tensor = init_tensor(cfg, rng.child(1), 0.4)
        x = rng.child(2).normal(size=10)
        consts = tensor_constants(tensor, base, rng=rng.child(3))
        var, se = mc_sgnn_variance(tensor, base, 0.95, x, 3000, rng.child(4))
        bound = sgnn_variance_bound(cfg, base, 0.95, x, consts)
        assert var <= bound + 3 * se

    def test_tensor_constants_draw_each_layer_from_one_stream(self, monkeypatch):
        # one bound and one Lipschitz estimate per filter, in filter order; layer l's
        # filters take turns on one stream, rng.child(l)
        from sgnn_lab import spectral

        calls = []
        for name in ("estimate_response_bound", "estimate_response_lipschitz"):
            def spy(h, domain, *rng, _name=name, _real=getattr(spectral, name)):
                calls.append((_name, tuple(h), *rng))
                return _real(h, domain, *rng)
            monkeypatch.setattr(spectral, name, spy)
        tensor = init_tensor(SgnnConfig(layers=3, features=2, order=2), Rng(3), 0.5)
        rng = Rng(4)
        tensor_constants(tensor, _SBM6, rng)
        taps = [tuple(h) for arr in tensor.layers for h in arr.reshape(-1, arr.shape[-1])]
        assert [c[1] for c in calls if c[0] == "estimate_response_bound"] == taps
        streams = [c[2] for c in calls if c[0] == "estimate_response_lipschitz"]
        assert [c[1] for c in calls if c[0] == "estimate_response_lipschitz"] == taps
        per_layer = [arr.shape[0] * arr.shape[1] for arr in tensor.layers]
        for layer, start in enumerate(np.cumsum([0] + per_layer[:-1])):
            layer_streams = streams[start:start + per_layer[layer]]
            assert all(s is layer_streams[0] for s in layer_streams)
            assert repr(layer_streams[0]) == repr(rng.child(layer))

    @pytest.mark.parametrize("p", [0.0, 0.9, 1.0])
    def test_one_forward_call_carries_every_sample(self, monkeypatch, p):
        # the per-sample loop must not come back, at p = 1 either
        from sgnn_lab import model, variance

        columns = []

        def counting(tensor, reals, x, *args, **kwargs):
            columns.append(x.shape[2])
            return model.forward(tensor, reals, x, *args, **kwargs)

        monkeypatch.setattr(variance, "forward", counting)
        base = to_shift(build_sbm(10, 2, 0.8, 0.2, Rng(3).child(0)), NORMALIZED_ADJACENCY)
        tensor = init_tensor(SgnnConfig(layers=2, features=2, order=2), Rng(4), 0.5)
        mc_sgnn_variance(tensor, base, p, np.ones(10), 40, Rng(5))
        assert columns == [40]

    @pytest.mark.parametrize("p", [0.0, 0.7, 1.0])
    def test_equals_the_per_sample_loop_bit_for_bit(self, monkeypatch, p):
        # the loop the one pass replaced: a draw and a one-sample pass per sample; at
        # p = 1 the samples share the intact graph's set and run as one batch, which
        # rounds differently, so the outputs agree to roundoff and the variance is ~0
        from sgnn_lab import model, variance

        base = to_shift(build_sbm(10, 2, 0.8, 0.2, Rng(3).child(0)), NORMALIZED_ADJACENCY)
        cfg = SgnnConfig(layers=2, features=2, order=2)
        tensor = init_tensor(cfg, Rng(4), 0.5)
        x = Rng(6).normal(size=10)
        outs, loop_outs = [], []

        def recording(*args, **kwargs):
            outs.append(model.forward(*args, **kwargs)[0])
            return outs[-1], None

        def evaluate(r):
            reals = sample_architecture(base, p, cfg, r)
            loop_outs.append(forward(tensor, reals, x[None, :, None], return_cache=False)[0])
            return loop_outs[-1]

        want = mc_variance(evaluate, 50, Rng(7))
        monkeypatch.setattr(variance, "forward", recording)
        got = mc_sgnn_variance(tensor, base, p, x, 50, Rng(7))
        if p < 1.0:
            assert got == want
        else:
            assert max(got) <= 1e-25 and max(want) <= 1e-25
            assert np.abs(outs[0] - np.concatenate(loop_outs, axis=-1)).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.9, 1.0])
    def test_sample_count_checked_before_any_draw(self, p):
        base = to_shift(build_sbm(10, 2, 0.8, 0.2, Rng(3).child(0)), NORMALIZED_ADJACENCY)
        tensor = init_tensor(SgnnConfig(layers=1, features=2, order=2), Rng(4), 0.5)
        rng = Rng(5)
        with pytest.raises(ConfigError, match="n_samples must be >= 2"):
            mc_sgnn_variance(tensor, base, p, np.ones(10), 1, rng)
        assert rng.random(4).tobytes() == Rng(5).random(4).tobytes()  # nothing drawn

    @pytest.mark.parametrize("shape", [(19,), (20, 1), ()])
    def test_signal_of_the_wrong_shape_rejected(self, shape):
        # before any draw, in the report too (which would estimate constants first)
        base = to_shift(build_sbm(20, 4, 0.8, 0.2, Rng(3).child(0)), NORMALIZED_ADJACENCY)
        tensor = init_tensor(SgnnConfig(layers=2, features=2, order=2), Rng(4), 0.5)
        rng = Rng(5)
        msg = rf"signal has shape {re.escape(str(shape))}, expected \(20,\) for 20 nodes"
        with pytest.raises(ValueError, match=msg):
            mc_sgnn_variance(tensor, base, 0.9, np.ones(shape), 10, rng)
        assert rng.random(4).tobytes() == Rng(5).random(4).tobytes()  # nothing drawn
        with pytest.raises(ValueError, match=msg):
            make_sgnn_report(tensor, base, 0.9, np.ones(shape), 10, rng)


class TestNonlinearityVariance:
    def test_symmetric_coin_through_abs_collapses(self):
        def sampler(n):
            return np.where(Rng(0).random(n) < 0.5, -1.0, 1.0)

        var_in, var_out = check_nonlinearity_variance("abs", sampler, 10_000)
        assert var_out <= 1e-12
        assert var_in == pytest.approx(1.0, rel=1e-2)

    def test_relu_is_identity_on_nonnegative_support(self):
        def sampler(n):
            return np.abs(Rng(1).normal(size=n))

        var_in, var_out = check_nonlinearity_variance("relu", sampler, 10_000)
        assert var_out == pytest.approx(var_in)

    def test_standard_normal_through_relu_half_normal_value(self):
        n = 200_000
        x = Rng(2).normal(size=n)
        var_in, var_out = check_nonlinearity_variance("relu", lambda m: x[:m], n)
        closed_form = 0.5 - 1.0 / (2.0 * np.pi)
        se = variance_std_error(np.maximum(x, 0.0))
        assert abs(var_out - closed_form) <= 3 * se

    @pytest.mark.parametrize("kind", ["relu", "abs", "tanh"])
    def test_never_increases_variance(self, kind):
        rng = Rng(3)
        samplers = [
            lambda n, r=rng.child(1): r.normal(2.0, 1.5, n),
            lambda n, r=rng.child(2): r.uniform(-4, 1, n),
            lambda n, r=rng.child(3): r.generator.exponential(2.0, n) - 2.0,
            lambda n, r=rng.child(4): r.generator.standard_t(5, n),
        ]
        for sampler in samplers:
            x = sampler(50_000)
            var_in, var_out = check_nonlinearity_variance(kind, lambda m: x[:m], 50_000)
            rel_se = variance_std_error(x) / max(var_in, 1e-12)
            assert var_out <= var_in * (1.0 + 3.0 * rel_se)

    def test_minimum_sample_count(self):
        with pytest.raises(ConfigError):
            check_nonlinearity_variance("relu", lambda n: np.zeros(n), 10)


class TestVarianceReport:
    def _report(self):
        rng = Rng(31)
        adj = build_sbm(6, 2, 0.9, 0.4, rng.child(0))
        base = to_shift(adj, NORMALIZED_ADJACENCY)
        cfg = SgnnConfig(layers=1, features=2, order=1, out_features=2)
        tensor = init_tensor(cfg, rng.child(1), 0.5)
        return make_sgnn_report(tensor, base, 0.9, rng.child(2).normal(size=6),
                                400, rng.child(3))

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        fields = tuple(f.name for f in dataclasses.fields(VarianceReport))
        path = write_results([dataclasses.asdict(report)], tmp_path / "sweep.json", "json", fields)
        [payload] = json.loads(path.read_text())
        assert payload["p"] == 0.9
        assert payload["n_samples"] == 400
        assert set(payload["constants"]) >= {"alpha", "num_edges", "order"}
        assert VarianceReport(**payload) == report

    def test_csv_row_matches_header(self, tmp_path):
        report = self._report()
        path = write_results([report.as_row()], tmp_path / "sweep.csv", columns=REPORT_COLUMNS)
        header, row = (line.split(",") for line in path.read_text().splitlines())
        assert header == list(REPORT_COLUMNS) and len(row) == len(header)
        assert float(row[0]) == 0.9
        assert float(row[header.index("mc_std_error")]) == report.mc_std_error

    def test_validation(self):
        with pytest.raises(ConfigError):
            VarianceReport(mc_variance=-1.0, mc_std_error=0.0, bound_first_order=0.0,
                           constants={}, p=0.5, n_samples=10)
