import csv

import numpy as np
import pytest

from sgnn_lab import (
    ADJACENCY,
    LAPLACIAN,
    NORMALIZED_ADJACENCY,
    Rng,
    ShiftOperator,
    apply_deterministic,
    apply_distributed,
    apply_filter,
    build_sbm,
    diffuse,
    diffusion_stages,
    eig_sym,
    expected_shift,
    freq_response,
    gft,
    sample_realization,
    sample_realizations,
    to_shift,
    write_message_trace,
)


class TestDiffuse:
    def test_order_zero(self, k3):
        x = np.array([1.0, 2.0, 3.0])
        trace = diffuse(x, [])
        assert len(trace) == 1
        assert np.array_equal(trace[0], x)

    def test_intact_links_give_matrix_powers(self, random8):
        x = Rng(0).normal(size=8)
        reals = sample_realizations(random8, 1.0, Rng(1), 3)
        trace = diffuse(x, reals)
        expect = x
        for k in range(1, 4):
            expect = random8.mat @ expect
            assert np.allclose(trace[k], expect, atol=1e-12)

    def test_dead_links_zero_out(self, random8):
        x = Rng(0).normal(size=8)
        reals = sample_realizations(random8, 0.0, Rng(1), 2)
        trace = diffuse(x, reals)
        assert np.array_equal(trace[1], np.zeros(8))
        assert np.array_equal(trace[2], np.zeros(8))

    @pytest.mark.parametrize("stack", ["broadcast", "sampled"])
    def test_stacked_stages_match_per_slice_loop_bitwise(self, random8, stack):
        if stack == "broadcast":
            mats = np.broadcast_to(0.7 * random8.mat, (3, 2, 4, 8, 8))  # (K, out, in, N, N)
        else:
            mats = sample_realizations(random8, 0.7, Rng(1), 24).reshape(3, 2, 4, 8, 8)
        x = Rng(0).normal(size=(2, 4, 8, 5))
        stages = diffusion_stages(mats, x)
        assert stages.shape == (4, 2, 4, 8, 5)
        for f in range(2):
            for g in range(4):
                stage = x[f, g]
                for k in range(3):
                    stage = mats[k, f, g] @ stage
                    assert np.array_equal(stages[k + 1, f, g], stage)

    def test_stages_take_the_broadcast_shape_of_shifts_and_signals(self, random8):
        mats = sample_realizations(random8, 0.7, Rng(1), 6).reshape(2, 1, 3, 8, 8)
        x = Rng(0).normal(size=(2, 1, 8, 5))
        stages = diffusion_stages(mats, x)
        assert stages.shape == (3, 2, 3, 8, 5)
        for f, g in np.ndindex(2, 3):
            assert np.array_equal(stages[2, f, g], mats[1, 0, g] @ (mats[0, 0, g] @ x[f, 0]))
        assert diffusion_stages(mats[:0], x).shape == (1, 2, 1, 8, 5)

    def test_mismatched_sizes_rejected(self, k3, p4):
        r1 = sample_realization(k3, 1.0, Rng(0))
        r2 = sample_realization(p4, 1.0, Rng(0))
        with pytest.raises(ValueError):
            diffuse(np.zeros(3), [r1, r2])

    @pytest.mark.parametrize("mats_lead, x_lead", [((2, 3), (3, 3)), ((2, 1), (3, 1)), ((3,), (2,))])
    def test_stacks_that_do_not_broadcast_rejected(self, random8, mats_lead, x_lead):
        mats = np.broadcast_to(random8.mat, (2, *mats_lead, 8, 8))
        with pytest.raises(ValueError):
            diffusion_stages(mats, np.ones((*x_lead, 8, 1)))


class TestApplyFilter:
    def test_identity_taps(self, random8):
        x = Rng(0).normal(size=8)
        reals = sample_realizations(random8, 0.5, Rng(1), 2)
        out = apply_filter([1.0, 0.0, 0.0], reals, x)
        assert np.array_equal(out, x)

    def test_hand_computed_dropped_edge(self, k3):
        # drop edge (0, 1) of the triangle: u_0 = x_2, u_1 = x_2, u_2 = x_0 + x_1
        rng = Rng(0)
        while True:
            real = sample_realization(k3, 0.5, rng)
            if [tuple(e) for e in np.argwhere(np.triu(real, 1))] == [(0, 2), (1, 2)]:
                break
        x = np.array([1.0, 5.0, 9.0])
        out = apply_filter([0.0, 1.0], [real], x)
        assert np.array_equal(out, [9.0, 9.0, 6.0])

    def test_linearity_in_the_signal(self, random8):
        reals = sample_realizations(random8, 0.6, Rng(2), 3)
        h = Rng(3).normal(size=4)
        x = Rng(4).normal(size=8)
        y = Rng(5).normal(size=8)
        left = apply_filter(h, reals, 2.0 * x - 0.5 * y)
        right = 2.0 * apply_filter(h, reals, x) - 0.5 * apply_filter(h, reals, y)
        assert np.abs(left - right).max() <= 1e-10

    def test_tap_count_must_match(self, k3):
        reals = sample_realizations(k3, 1.0, Rng(0), 2)
        with pytest.raises(ValueError):
            apply_filter([1.0, 1.0], reals, np.zeros(3))


class TestApplyDeterministic:
    def test_identity_shift(self):
        x = np.array([3.0, -1.0])
        assert np.array_equal(apply_deterministic([0.0, 1.0], np.eye(2), x), x)

    def test_k2_two_tap(self, k2):
        out = apply_deterministic([1.0, 1.0], k2, np.array([1.0, 0.0]))
        assert np.array_equal(out, [1.0, 1.0])

    def test_spectral_pointwise_multiplication(self, p3):
        lap = to_shift(p3, LAPLACIAN)
        pair = eig_sym(lap)
        h = Rng(1).normal(size=4)
        x = Rng(2).normal(size=3)
        u = apply_deterministic(h, lap, x)
        got = gft(pair, u)
        want = freq_response(h, pair.values) * gft(pair, x)
        assert np.abs(got - want).max() <= 1e-10


class TestApplyDistributed:
    @pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY])
    def test_matches_centralized(self, random8, kind):
        base = to_shift(random8, kind)
        rng = Rng(17)
        reals = sample_realizations(base, 0.5, rng, 5)
        x = rng.normal(size=8)
        h = rng.normal(size=6)
        centralized = apply_filter(h, reals, x)
        distributed = apply_distributed(h, reals, x)
        assert np.abs(centralized - distributed).max() <= 1e-12

    def test_isolated_node_keeps_only_zeroth_tap(self, k3):
        reals = sample_realizations(k3, 0.0, Rng(0), 3)
        x = np.array([2.0, -1.0, 4.0])
        h = np.array([0.5, 1.0, 1.0, 1.0])
        out = apply_distributed(h, reals, x)
        assert np.array_equal(out, 0.5 * x)

    def test_intact_links_match_deterministic(self, random8):
        reals = sample_realizations(random8, 1.0, Rng(0), 4)
        x = Rng(1).normal(size=8)
        h = Rng(2).normal(size=5)
        got = apply_distributed(h, reals, x)
        want = apply_deterministic(h, random8, x)
        assert np.abs(got - want).max() <= 1e-10

    def test_messages_cross_surviving_links_only(self, random8):
        rng = Rng(5)
        reals = sample_realizations(random8, 0.5, rng, 2)
        x = rng.normal(size=8)
        _, messages = apply_distributed([0.0, 1.0, 1.0], reals, x, record_trace=True)
        for msg in messages:
            kept = {tuple(e) for e in np.argwhere(np.triu(reals[msg.round - 1], 1))}
            pair = (min(msg.sender, msg.receiver), max(msg.sender, msg.receiver))
            assert pair in kept

    def test_trace_csv(self, tmp_path, k3):
        reals = sample_realizations(k3, 1.0, Rng(0), 1)
        _, messages = apply_distributed([0.0, 1.0], reals, np.arange(3.0), record_trace=True)
        path = tmp_path / "trace.csv"
        write_message_trace(messages, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "sender", "receiver", "value"]
        assert len(rows) == 1 + 2 * 3  # both directions over the 3 edges
        # values were once written as "np.float64(...)"
        assert [float(row[3]) for row in rows[1:]] == [m.value for m in messages]


class TestMonteCarloMean:
    def test_filter_mean_matches_expected_shift_filter(self, k3):
        # average over many independent realization draws approaches the
        # deterministic filter on the mean shift
        p = 0.7
        h = np.array([0.3, -0.8, 0.5])
        x = np.array([1.0, -2.0, 0.5])
        n_draws = 100_000
        rng = Rng(21, 5)
        reals = sample_realizations(k3, p, rng, 2 * n_draws)
        outs = np.empty((n_draws, 3))
        for i in range(n_draws):
            outs[i] = apply_filter(h, reals[2 * i : 2 * i + 2], x)
        mean = outs.mean(axis=0)
        se = outs.std(axis=0, ddof=1) / np.sqrt(n_draws)
        want = apply_deterministic(h, expected_shift(k3, p), x)
        assert np.all(np.abs(mean - want) <= 3 * se + 1e-12)
