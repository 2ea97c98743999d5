import itertools

import numpy as np
import pytest

from sgnn_lab import (
    ADJACENCY,
    LAPLACIAN,
    NORMALIZED_ADJACENCY,
    ConfigError,
    DegenerateInputError,
    Rng,
    ShiftOperator,
    UnsupportedKindError,
    build_disc_graph,
    build_sbm,
    expected_shift,
    expected_shift_square,
    load_edge_list,
    sample_realization,
    sample_realizations,
    save_edge_list,
    to_shift,
)


def brute_expected_shift_square(base, p):
    """Independent enumeration over all 2^M masks, built from first
    principles (not via the library's realization machinery)."""
    edges = base.edges
    m = len(edges)
    n = base.n
    adj = (base.mat != 0).astype(float)
    total = np.zeros((n, n))
    for bits in itertools.product((0, 1), repeat=m):
        kept_adj = np.zeros((n, n))
        for (i, j), bit in zip(edges, bits):
            if bit:
                kept_adj[i, j] = kept_adj[j, i] = 1.0
        if base.kind == ADJACENCY:
            mat = kept_adj
        elif base.kind == LAPLACIAN:
            mat = np.diag(kept_adj.sum(axis=1)) - kept_adj
        else:
            raise AssertionError(base.kind)
        weight = p ** sum(bits) * (1 - p) ** (m - sum(bits))
        total += weight * (mat @ mat)
    assert adj.shape == (n, n)
    return total


class TestRng:
    def test_same_seed_stream_bitwise_identical(self):
        a = Rng(42, 7).random(100)
        b = Rng(42, 7).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        assert not np.array_equal(Rng(42, 0).random(50), Rng(42, 1).random(50))

    def test_children_are_independent_and_reproducible(self):
        root = Rng(5)
        a = root.child(3).random(20)
        assert np.array_equal(a, Rng(5).child(3).random(20))
        assert not np.array_equal(a, Rng(5).child(4).random(20))


class TestBuildSbm:
    def test_two_forced_cliques(self):
        adj = build_sbm(4, 2, 1.0, 0.0, Rng(0))
        assert adj.num_edges == 2
        assert [tuple(e) for e in adj.edges] == [(0, 1), (2, 3)]

    def test_complete_graph(self):
        adj = build_sbm(6, 3, 1.0, 1.0, Rng(0))
        assert adj.num_edges == 15

    def test_paper_scale_block_structure(self):
        adj = build_sbm(40, 4, 1.0, 0.0, Rng(0))
        assert adj.n == 40
        # p_in=1, p_out=0 isolates the four 10-node blocks
        assert adj.num_edges == 4 * 45
        labels = np.repeat(np.arange(4), 10)
        for i, j in adj.edges:
            assert labels[i] == labels[j]

    def test_indivisible_communities_rejected(self):
        with pytest.raises(ConfigError):
            build_sbm(10, 3, 0.5, 0.5, Rng(0))

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            build_sbm(4, 2, 1.5, 0.0, Rng(0))


class TestBuildDiscGraph:
    def test_three_collinear_points(self):
        adj = build_disc_graph([(0, 0), (0, 2), (0, 5)], 3.0)
        assert [tuple(e) for e in adj.edges] == [(0, 1), (1, 2)]

    def test_tiny_radius_gives_empty_graph(self):
        adj = build_disc_graph([(0, 0), (0, 2), (0, 5)], 0.5)
        assert adj.num_edges == 0

    def test_swarm_scale(self):
        rng = Rng(1)
        pts = rng.uniform(-5, 5, (50, 2))
        adj = build_disc_graph(pts, 3.0)
        assert adj.n == 50
        assert np.array_equal(adj.mat, adj.mat.T)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ConfigError):
            build_disc_graph([(0, 0), (1, 1)], 0.0)


class TestToShift:
    def test_triangle_laplacian(self, k3):
        lap = to_shift(k3, LAPLACIAN)
        assert np.array_equal(lap.mat, 3 * np.eye(3) - np.ones((3, 3)))
        assert np.abs(lap.mat.sum(axis=1)).max() == 0.0

    def test_k2_normalized(self, k2):
        norm = to_shift(k2, NORMALIZED_ADJACENCY)
        assert np.allclose(norm.mat, k2.mat, atol=1e-12)

    def test_p3_laplacian_degrees(self, p3):
        lap = to_shift(p3, LAPLACIAN)
        assert np.array_equal(np.diag(lap.mat), [1.0, 2.0, 1.0])

    def test_zero_graph_cannot_normalize(self):
        empty = ShiftOperator(ADJACENCY, np.zeros((3, 3)))
        with pytest.raises(DegenerateInputError):
            to_shift(empty, NORMALIZED_ADJACENCY)

    def test_requires_adjacency_input(self, k3):
        lap = to_shift(k3, LAPLACIAN)
        with pytest.raises(ConfigError):
            to_shift(lap, NORMALIZED_ADJACENCY)


class TestSampleRealization:
    def test_p_one_reproduces_base(self, k3):
        for kind in (ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY):
            base = to_shift(k3, kind)
            real = sample_realization(base, 1.0, Rng(0))
            assert np.array_equal(real, base.mat)

    def test_p_zero_gives_zero_matrix(self, k3):
        for kind in (ADJACENCY, LAPLACIAN):
            base = to_shift(k3, kind)
            real = sample_realization(base, 0.0, Rng(0))
            assert np.array_equal(real, np.zeros((3, 3)))

    def test_mask_matches_adjacency_realization(self, random8):
        real = sample_realization(random8, 0.5, Rng(3))
        mask = real != 0
        assert np.array_equal(real, mask * random8.mat)
        # mask entries on non-edges stay zero
        off_support = (random8.mat == 0)
        assert np.all(mask[off_support] == 0)

    def test_laplacian_realizations_have_zero_row_sums(self, random8):
        base = to_shift(random8, LAPLACIAN)
        rng = Rng(9)
        for _ in range(50):
            real = sample_realization(base, 0.4, rng)
            assert np.abs(real.sum(axis=1)).max() == 0.0
            assert np.array_equal(real, real.T)

    def test_bit_reproducible(self, random8):
        a = sample_realization(random8, 0.5, Rng(11, 2))
        b = sample_realization(random8, 0.5, Rng(11, 2))
        assert np.array_equal(a, b)

    def test_invalid_probability(self, k3):
        with pytest.raises(ConfigError):
            sample_realization(k3, 1.2, Rng(0))


N_DRAWS = 100_000


@pytest.fixture(scope="module")
def k3_draws():
    base = ShiftOperator(ADJACENCY, np.ones((3, 3)) - np.eye(3))
    mats = sample_realizations(base, 0.5, Rng(7, 1), N_DRAWS)
    keeps = mats[:, base.edges[:, 0], base.edges[:, 1]] != 0
    return base, keeps, mats


class TestMonteCarloFrequencies:

    def test_per_edge_keep_frequency(self, k3_draws):
        _, keeps, _ = k3_draws
        freq = keeps.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.01)

    def test_empirical_mean_matches_expected_shift(self, k3_draws):
        base, _, mats = k3_draws
        assert np.abs(mats.mean(axis=0) - expected_shift(base, 0.5)).max() < 0.01


class TestExpectedShift:
    def test_endpoints(self, k3):
        assert np.array_equal(expected_shift(k3, 1.0), k3.mat)
        assert np.array_equal(expected_shift(k3, 0.0), np.zeros((3, 3)))

    def test_laplacian_scaling(self, p3):
        lap = to_shift(p3, LAPLACIAN)
        assert np.allclose(expected_shift(lap, 0.25), 0.25 * lap.mat)


class TestExpectedShiftSquare:
    def test_endpoints(self, random8):
        for kind in (ADJACENCY, LAPLACIAN):
            base = to_shift(random8, kind)
            assert np.allclose(expected_shift_square(base, 1.0), base.mat @ base.mat)
            assert np.array_equal(expected_shift_square(base, 0.0), np.zeros((8, 8)))

    def test_k3_hand_values(self, k3):
        # enumeration of the 8 masks gives diagonal 1.0, off-diagonal 0.25
        got = expected_shift_square(k3, 0.5)
        expect = np.full((3, 3), 0.25)
        np.fill_diagonal(expect, 1.0)
        assert np.abs(got - expect).max() < 1e-15

    @pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_matches_independent_enumeration(self, k3, p4, star5, kind, p):
        for adj in (k3, p4, star5):
            base = to_shift(adj, kind)
            got = expected_shift_square(base, p)
            want = brute_expected_shift_square(base, p)
            assert np.abs(got - want).max() <= 1e-12

    def test_normalized_rejected(self, k3):
        norm = to_shift(k3, NORMALIZED_ADJACENCY)
        with pytest.raises(UnsupportedKindError):
            expected_shift_square(norm, 0.5)


class TestEdgeListIO:
    @pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY])
    def test_round_trip(self, tmp_path, random8, kind):
        shift = to_shift(random8, kind)
        path = tmp_path / "graph.txt"
        save_edge_list(shift, path)
        loaded = load_edge_list(path)
        assert loaded.kind == shift.kind
        assert np.array_equal(loaded.edges, shift.edges)
        assert np.array_equal(loaded.mat, shift.mat)

    def test_format_is_deterministic_text(self, tmp_path, k3):
        path = tmp_path / "k3.txt"
        save_edge_list(k3, path)
        text = path.read_text()
        assert text == "3 3 adjacency\n0 1\n0 2\n1 2\n"

    @pytest.mark.parametrize("body", [
        "3 1 adjacency\n-1 0\n",              # a negative index once wrapped to node 2
        "3 1 adjacency\n0 3\n",               # index past the last node
        "3 2 adjacency\n0 1 2\n1 2 0\n",     # three columns once re-paired into 3 edges
        "3 1 adjacency\n0\n",                 # one column
        "3 1 adjacency\n0 one\n",             # not an integer
        "3 1 adjacency\n1 1\n",               # self-loop: once an error without the path
    ], ids=["negative", "out_of_range", "three_columns", "one_column", "not_an_int",
            "self_loop"])
    def test_malformed_edge_line_names_the_path(self, tmp_path, body):
        path = tmp_path / "bad_graph.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match="bad_graph.txt line 2"):
            load_edge_list(path)

    def test_repeated_edge_names_both_lines(self, tmp_path):
        # "1 0" after "0 1" once loaded silently as a 1-edge graph
        path = tmp_path / "bad_graph.txt"
        path.write_text("3 2 adjacency\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="bad_graph.txt line 3: .* line 2"):
            load_edge_list(path)

    def test_edge_count_mismatch_names_the_path(self, tmp_path):
        path = tmp_path / "bad_graph.txt"
        path.write_text("3 2 adjacency\n0 1\n")
        with pytest.raises(ValueError, match="bad_graph.txt: header declares 2 edges, found 1"):
            load_edge_list(path)


class TestShiftOperatorInvariants:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ShiftOperator(ADJACENCY, np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal_adjacency(self):
        with pytest.raises(ValueError):
            ShiftOperator(ADJACENCY, np.eye(2))

    def test_rejects_edge_list_mismatch(self):
        with pytest.raises(ValueError):
            ShiftOperator(ADJACENCY, np.array([[0.0, 1.0], [1.0, 0.0]]), edges=np.zeros((0, 2)))

    def test_edges_sorted_lexicographically(self, random8):
        edges = random8.edges
        assert np.all(edges[:, 0] < edges[:, 1])
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        assert np.array_equal(order, np.arange(len(edges)))
