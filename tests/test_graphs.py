import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgnn_lab import (
    ADJACENCY,
    KINDS,
    LAPLACIAN,
    NORMALIZED_ADJACENCY,
    ConfigError,
    DegenerateInputError,
    Rng,
    ShiftOperator,
    UnsupportedKindError,
    build_disc_graph,
    build_sbm,
    enumerate_expected_shift_square,
    expected_shift,
    expected_shift_square,
    load_edge_list,
    sample_realization,
    sample_realizations,
    save_edge_list,
    to_shift,
)
from sgnn_lab import spectral
from sgnn_lab.graphs import _realized_mats, _upper_pairs

# weighted path 0 - 1 - 2 with edge weights 2 and 0.5
WEIGHTED_PATH = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])


def weighted_shift(weights: np.ndarray, kind: str) -> ShiftOperator:
    """Shift of the given kind over a symmetric nonnegative weight matrix."""
    if kind == LAPLACIAN:
        return ShiftOperator(LAPLACIAN, np.diag(weights.sum(axis=1)) - weights)
    scale = np.abs(np.linalg.eigvalsh(weights)).max() if kind == NORMALIZED_ADJACENCY else 1.0
    return ShiftOperator(kind, weights / scale)


def brute_expected_shift_square(base, p):
    """Independent enumeration over all 2^M masks, built from first
    principles (not via the library's realization machinery)."""
    edges = base.edges
    m = len(edges)
    n = base.n
    total = np.zeros((n, n))
    for bits in itertools.product((0, 1), repeat=m):
        kept_adj = np.zeros((n, n))
        for (i, j), bit in zip(edges, bits):
            if bit:
                kept_adj[i, j] = kept_adj[j, i] = abs(base.mat[i, j])
        if base.kind == ADJACENCY:
            mat = kept_adj
        elif base.kind == LAPLACIAN:
            mat = np.diag(kept_adj.sum(axis=1)) - kept_adj
        else:
            raise AssertionError(base.kind)
        weight = p ** sum(bits) * (1 - p) ** (m - sum(bits))
        total += weight * (mat @ mat)
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

    # NaN once passed the `radius <= 0` check and gave an edgeless graph
    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ConfigError, match="radius must be finite and > 0"):
            build_disc_graph([(0, 0), (1, 1)], radius)


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_keeps_the_adjacency_edges(self, random8, kind):
        assert np.array_equal(to_shift(random8, kind).edges, random8.edges)

    def test_zero_graph_cannot_normalize(self):
        empty = ShiftOperator(ADJACENCY, np.zeros((3, 3)))
        with pytest.raises(DegenerateInputError):
            to_shift(empty, NORMALIZED_ADJACENCY)

    # a graph with no nodes once raised a bare IndexError from the empty spectrum; an
    # edgeless graph is refused before the eigensolve, whose only outcome was that error
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless_graph_refused_before_any_eigensolve(self, monkeypatch, n):
        def no_eigensolve(mat):
            raise AssertionError("eigensolve of an edgeless graph")

        monkeypatch.setattr(spectral, "eig_sym", no_eigensolve)
        with pytest.raises(DegenerateInputError, match="no edges"):
            to_shift(ShiftOperator(ADJACENCY, np.zeros((n, n))), NORMALIZED_ADJACENCY)

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

    def test_weighted_laplacian_realizations_keep_weights(self):
        base = weighted_shift(WEIGHTED_PATH, LAPLACIAN)
        for keep in itertools.product((False, True), repeat=2):
            kept = WEIGHTED_PATH * np.array([[0, keep[0], 0], [keep[0], 0, keep[1]],
                                             [0, keep[1], 0]])
            got = _realized_mats(base, np.array([keep]))[0]
            assert np.array_equal(got, np.diag(kept.sum(axis=1)) - kept)
        masks = np.array(list(itertools.product((False, True), repeat=2)))
        probs = np.prod(np.where(masks, 0.3, 0.7), axis=1)
        mean = np.einsum("b,bnm->nm", probs, _realized_mats(base, masks))
        assert np.abs(mean - expected_shift(base, 0.3)).max() <= 1e-15

    @pytest.mark.parametrize("kind", KINDS)
    def test_refill_in_place_equals_fresh_builds(self, random8, kind):
        # weighted, so that an entry left over from an earlier keep cannot pass for a fresh one
        weights = np.triu(random8.mat * Rng(5).uniform(0.5, 2.0, (8, 8)), 1)
        base = weighted_shift(weights + weights.T, kind)
        rng, m = Rng(7), base.num_edges
        keeps = [rng.bernoulli(p, (3, m)) for p in (0.7, 0.3, 0.0, 0.9, 0.5)]
        keeps[2:2] = [np.ones((3, m), dtype=bool), np.zeros((3, m), dtype=bool)]
        buf = np.zeros((3, 8, 8))
        for keep in keeps:  # each refill drops edges that the one before kept
            assert _realized_mats(base, keep, out=buf) is buf
            assert buf.tobytes() == _realized_mats(base, keep).tobytes()


def _state(rng: Rng) -> str:
    return repr(rng.generator.bit_generator.state)


def _p_one_bases(random8):
    weights = np.triu(random8.mat * Rng(5).uniform(0.5, 2.0, (8, 8)), 1)
    for kind in KINDS:
        yield to_shift(random8, kind)
        yield weighted_shift(weights + weights.T, kind)
        yield weighted_shift(WEIGHTED_PATH, kind)


class TestIntactRealizations:
    """At p = 1 every realization is the base: a read-only view, no draw."""

    def test_view_of_the_base_that_draws_nothing(self, random8):
        for base in _p_one_bases(random8):
            rng = Rng(3)
            state = _state(rng)
            got = sample_realizations(base, 1.0, rng, 5)
            want = _realized_mats(base, np.ones((5, base.num_edges), dtype=bool))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable and np.shares_memory(got, base.mat)
            one = sample_realization(base, 1.0, rng)
            assert one.tobytes() == base.mat.tobytes() and np.shares_memory(one, base.mat)
            assert _state(rng) == state

    def test_writing_into_a_realization_raises(self, random8):
        for base in _p_one_bases(random8):
            before = base.mat.copy()
            for real in (sample_realizations(base, 1.0, Rng(0), 2),
                         sample_realization(base, 1.0, Rng(0))):
                with pytest.raises(ValueError):
                    real[..., 0, 1] = 7.0
            assert np.array_equal(base.mat, before)


def _five_edge_star() -> ShiftOperator:
    mat = np.zeros((6, 6))
    mat[0, 1:] = mat[1:, 0] = 1.0
    return ShiftOperator(ADJACENCY, mat)


class TestLaneDraw:
    """The realization draw format, bit for bit: keep t of a set is 32-bit lane t
    of the raw Philox words (low half of each word first), kept iff it is below
    ``floor(p * 2**32)``, and a set consumes exactly ``ceil(count * M / 2)`` words."""

    @pytest.mark.parametrize("count", [3, 4])  # count * M odd, then even (M = 5)
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, float(np.nextafter(1.0, 0.0))])
    def test_keeps_are_raw_lanes_below_the_threshold(self, count, p):
        base = _five_edge_star()
        m = base.num_edges
        rng, ref = Rng(21, 3), Rng(21, 3)
        threshold = int(p * 2**32)
        for _ in range(2):  # consecutive draws continue the stream
            mats = sample_realizations(base, p, rng, count)
            keeps = mats[:, base.edges[:, 0], base.edges[:, 1]] != 0
            words = ref.generator.bit_generator.random_raw(-(-count * m // 2))
            lanes = [int(w) >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)]
            want = np.array([lane < threshold for lane in lanes[:count * m]])
            assert np.array_equal(keeps, want.reshape(count, m))
            assert _state(rng) == _state(ref)

    @pytest.mark.parametrize("p", [1.0, -0.1, float("nan")])
    def test_bernoulli_rejects_p_outside_the_half_open_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            Rng(0).bernoulli(p, (2, 3))

    def test_an_empty_set_draws_nothing(self, random8):
        rng = Rng(4)
        state = _state(rng)
        assert sample_realizations(random8, 0.5, rng, 0).shape == (0, 8, 8)
        assert _state(rng) == state

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_negative_count_is_named(self, random8, p):
        with pytest.raises(ValueError, match="-3"):
            sample_realizations(random8, p, Rng(0), -3)


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


ORACLE_SETS = 200_000  # 10^6 keeps of a five-edge star
ORACLE_CHUNKS = 10


def _star_keeps(p: float) -> np.ndarray:
    """(ORACLE_SETS, 5) keeps of a five-edge star, read off the realized
    matrices of consecutive draws from one stream."""
    base = _five_edge_star()
    rng = Rng(13, 4)
    return np.concatenate([
        sample_realizations(base, p, rng, ORACLE_SETS // ORACLE_CHUNKS)[:, 0, 1:] != 0
        for _ in range(ORACLE_CHUNKS)])


@pytest.mark.parametrize("p", [0.1, 0.5, 0.7, 0.99])
def test_keeps_are_independent_bernoulli_p(p):
    """Per-edge keep frequencies and pairwise joint keeps within 4 sigma: every
    pair of edges of one set, and the last edge of a set with the first of the
    next (with five edges per set, neighbours in draw order cross sets)."""
    keeps = _star_keeps(p)
    n = len(keeps)
    freq = keeps.mean(axis=0)
    assert np.all(np.abs(freq - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n)), freq
    pairs = [keeps[:, a] & keeps[:, b] for a, b in itertools.combinations(range(5), 2)]
    pairs.append(keeps[:-1, 4] & keeps[1:, 0])
    joint = np.array([pair.mean() for pair in pairs])
    sigma = np.sqrt(p * p * (1.0 - p * p) / (n - 1))
    assert np.all(np.abs(joint - p * p) <= 4.0 * sigma), joint


@pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN])
@pytest.mark.parametrize("p", [0.3, 0.7])
def test_monte_carlo_second_moment_matches_closed_form(random8, kind, p):
    """Every entry of the sample mean of S^2 over 50,000 realizations of a
    weighted base lies within 4 standard errors of ``expected_shift_square``."""
    weights = np.triu(random8.mat * Rng(5).uniform(0.5, 2.0, (8, 8)), 1)
    base = weighted_shift(weights + weights.T, kind)
    rng = Rng(17, 2)
    squares = np.concatenate([np.matmul(mats, mats) for mats in (
        sample_realizations(base, p, rng, 5_000) for _ in range(ORACLE_CHUNKS))])
    mean = squares.mean(axis=0)
    stderr = squares.std(axis=0, ddof=1) / np.sqrt(len(squares))
    err = np.abs(mean - expected_shift_square(base, p))
    assert np.all(err <= 4.0 * stderr + 1e-12), (err / np.maximum(stderr, 1e-300)).max()


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

    def test_weighted_hand_values(self):
        # diagonal p^2 W2 1 + p(1-p) W2 1 at p = 1/2, with W2 1 = [4, 4.25, 0.25]
        got = expected_shift_square(weighted_shift(WEIGHTED_PATH, ADJACENCY), 0.5)
        assert np.array_equal(np.diag(got), [2.0, 2.125, 0.125])


@st.composite
def _weighted_graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
    weights = np.zeros((n, n))
    for i, j in chosen:
        weights[i, j] = weights[j, i] = draw(st.floats(0.05, 3.0))
    return weights


@settings(max_examples=60, deadline=None)
@given(_weighted_graphs(), st.sampled_from([ADJACENCY, LAPLACIAN]), st.floats(0.0, 1.0))
def test_weighted_second_moment_matches_enumeration(weights, kind, p):
    base = weighted_shift(weights, kind)
    got = expected_shift_square(base, p)
    scale = max(1.0, np.abs(got).max())
    assert np.abs(got - enumerate_expected_shift_square(base, p)).max() <= 1e-12 * scale
    assert np.abs(got - brute_expected_shift_square(base, p)).max() <= 1e-12 * scale


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
        "3 1 adjacency\n0 \u00e9\n",           # non-ASCII: once a bare UnicodeDecodeError
    ], ids=["negative", "out_of_range", "three_columns", "one_column", "not_an_int",
            "self_loop", "non_ascii"])
    def test_malformed_edge_line_names_the_path(self, tmp_path, body):
        path = tmp_path / "bad_graph.txt"
        path.write_bytes(body.encode("utf-8"))
        with pytest.raises(ValueError, match="bad_graph.txt line 2"):
            load_edge_list(path)

    # a non-integer count once raised the bare int() error, and an unknown
    # kind a ConfigError without the path, after every edge line was read
    @pytest.mark.parametrize("body", [
        "x 1 adjacency\n0 1\n",
        "3 x adjacency\n0 1\n",
        "-3 1 adjacency\n0 1\n",
        "3 1 bogus\n0 5\n",
        "3 1\n0 1\n",
        "3 1 adjacency extra\n0 1\n",
        "",
    ], ids=["n_not_an_int", "m_not_an_int", "negative_n", "unknown_kind", "two_fields",
            "four_fields", "empty_file"])
    def test_malformed_header_names_the_path(self, tmp_path, body):
        path = tmp_path / "bad_graph.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match="bad_graph.txt line 1"):
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))),
    st.sampled_from(KINDS))
@example((1, []), NORMALIZED_ADJACENCY)
@example((4, [False] * 6), ADJACENCY)
@example((4, [False] * 6), LAPLACIAN)
@example((4, [False] * 6), NORMALIZED_ADJACENCY)
def test_edge_list_round_trip(tmp_path_factory, graph, kind):
    n, keep = graph
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=int).reshape(-1, 2)
    mat = np.zeros((n, n))
    for i, j in pairs[np.array(keep, dtype=bool)]:
        mat[i, j] = mat[j, i] = 1.0
    adj = ShiftOperator(ADJACENCY, mat)
    if kind == NORMALIZED_ADJACENCY and adj.num_edges == 0:
        # an edgeless graph has no normalization factor, so it has no such shift to save
        with pytest.raises(DegenerateInputError):
            to_shift(adj, kind)
        return
    shift = to_shift(adj, kind)
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    save_edge_list(shift, path)
    loaded = load_edge_list(path)
    assert (loaded.kind, loaded.n) == (shift.kind, shift.n)
    assert np.array_equal(loaded.edges, shift.edges)
    assert np.abs(loaded.mat - shift.mat).max() <= 1e-12


class TestShiftOperatorInvariants:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ShiftOperator(ADJACENCY, np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal_adjacency(self):
        with pytest.raises(ValueError):
            ShiftOperator(ADJACENCY, np.eye(2))

    def test_edges_sorted_lexicographically(self, random8):
        edges = random8.edges
        assert np.all(edges[:, 0] < edges[:, 1])
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        assert np.array_equal(order, np.arange(len(edges)))


# ---------------------------------------------------------------------------
# Oracles for the one-pass ShiftOperator constructor and the disc-graph builder.


def oracle_shift(kind: str, mat) -> SimpleNamespace:
    """The ShiftOperator constructor as it was before its one-pass rewrite, on finite
    input: full-matrix symmetry, sign, diagonal and row-sum checks, and edges read off
    ``np.nonzero(np.triu(mat, 1))``."""
    if kind not in KINDS:
        raise ConfigError(f"unknown shift kind {kind!r}")
    mat = np.array(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"shift matrix must be square, got {mat.shape}")
    if not np.array_equal(mat, mat.T):
        raise ValueError("shift matrix must be exactly symmetric")
    n = mat.shape[0]
    edges = np.column_stack(np.nonzero(np.triu(mat, 1)))
    diag = np.diag(mat)
    if kind in (ADJACENCY, NORMALIZED_ADJACENCY):
        if np.any(diag != 0):
            raise ValueError(f"{kind} must have a zero diagonal")
        if np.any(mat < 0):
            raise ValueError(f"{kind} entries must be >= 0")
    else:  # laplacian
        row_sums = mat.sum(axis=1)
        if np.abs(row_sums).max(initial=0.0) > 1e-12:
            raise ValueError("laplacian rows must sum to 0")
        off = mat - np.diag(diag)
        if np.any(off > 0):
            raise ValueError("laplacian off-diagonal entries must be <= 0")
    weights = np.abs(mat[edges[:, 0], edges[:, 1]]) if len(edges) else np.empty(0)
    return SimpleNamespace(n=n, kind=kind, mat=mat, edges=edges, _weights=weights)


# exact hits (signed zeros, row sums just inside and outside 1e-12) and plain values
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0, -0.25, 4e-13, -4e-13, 2e-12, 1e-11]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
_WEIGHT = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 3.0]),
                    st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False))
_FAMILIES = ("weighted", "laplacian", "perturbed", "symmetric", "asymmetric", "empty",
             "off_shape")


@st.composite
def _shift_inputs(draw):
    """A kind and a finite matrix: symmetric weights, their Laplacian (exact or with
    one entry perturbed), symmetric or asymmetric signed entries, all zeros, or the
    wrong shape; N from 0 to 6, sometimes as nested lists."""
    kind = draw(st.sampled_from(KINDS + ("incidence",)))
    n = draw(st.integers(0, 6))
    family = draw(st.sampled_from(_FAMILIES))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mat = np.zeros((n, n))
    if family in ("weighted", "laplacian", "perturbed"):
        for (i, j), w in zip(upper, draw(st.lists(_WEIGHT, min_size=len(upper),
                                                  max_size=len(upper)))):
            mat[i, j] = mat[j, i] = w
        if family != "weighted":
            mat = np.diag(mat.sum(axis=1)) - mat
        if family == "perturbed" and n:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            mat[i, j] += draw(_ENTRY)
            mat[j, i] = mat[i, j] if draw(st.booleans()) else mat[j, i]
    elif family == "symmetric":
        for i, j in upper + [(i, i) for i in range(n)]:
            mat[i, j] = mat[j, i] = draw(_ENTRY)
    elif family == "asymmetric":
        mat = np.array(draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    elif family == "off_shape":
        mat = np.zeros(draw(st.sampled_from([(n, n + 1), (n,), (1, n, n), ()])))
    return kind, mat.tolist() if draw(st.booleans()) else mat


@settings(max_examples=400, deadline=None)
@given(_shift_inputs())
@example((ADJACENCY, np.zeros((0, 0))))
@example((LAPLACIAN, np.zeros((1, 1))))
@example((NORMALIZED_ADJACENCY, [[0.0]]))
@example((LAPLACIAN, [[1.0, -1.0], [-1.0, 1.0 + 2e-12]]))
@example((ADJACENCY, [[0.0, -0.0], [-0.0, 0.0]]))
def test_constructor_matches_the_oracle(case):
    """``mat``, ``edges`` (values and dtype), ``_weights`` and the accept/reject
    outcome, with its error type and message, equal the oracle's."""
    kind, mat = case
    before = np.array(mat, dtype=float)
    try:
        want = oracle_shift(kind, mat)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ShiftOperator(kind, mat)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    got = ShiftOperator(kind, mat)
    assert (got.n, got.kind) == (want.n, want.kind)
    for name in ("mat", "edges", "_weights"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.shape, g.dtype) == (w.shape, w.dtype), name
        assert np.array_equal(g, w), name
    assert not (got.mat.flags.writeable or got.edges.flags.writeable)
    # the constructor copies: the caller's matrix is neither aliased nor changed
    assert not np.shares_memory(got.mat, mat)
    assert np.array_equal(np.array(mat, dtype=float), before)


def _valid_shift_mat(kind: str) -> np.ndarray:
    """A 4-node weighted shift of ``kind``: a path with a chord."""
    weights = np.zeros((4, 4))
    for (i, j), w in zip([(0, 1), (1, 2), (2, 3), (0, 2)], [1.0, 0.5, 2.0, 1.5]):
        weights[i, j] = weights[j, i] = w
    if kind == LAPLACIAN:
        return np.diag(weights.sum(axis=1)) - weights
    return weights / 3.0 if kind == NORMALIZED_ADJACENCY else weights


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["edge", "both_sides", "non_edge", "diagonal"])
def test_non_finite_entries_rejected(kind, value, where):
    """NaN once failed as 'must be exactly symmetric', and +-inf weights were accepted
    for the adjacency kinds; every non-finite entry now fails as such."""
    mat = _valid_shift_mat(kind)
    ShiftOperator(kind, mat)  # valid as given
    if where == "edge":
        mat[0, 1] = value
    elif where == "both_sides":
        mat[1, 2] = mat[2, 1] = value
    elif where == "non_edge":
        mat[0, 3] = mat[3, 0] = value
    else:
        mat[2, 2] = value
    with pytest.raises(ValueError, match="shift matrix entries must be finite"):
        ShiftOperator(kind, mat)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", ["hermitian", "real_valued", "nested_list"])
def test_complex_entries_rejected(kind, case):
    """The float copy once dropped the imaginary part with only a warning, so a
    Hermitian, non-symmetric matrix passed as its symmetric real part."""
    mat = _valid_shift_mat(kind).astype(complex)
    if case == "hermitian":
        mat[0, 1] += 2j
        mat[1, 0] -= 2j
        assert np.array_equal(mat, mat.conj().T) and not np.array_equal(mat, mat.T)
    given = mat.tolist() if case == "nested_list" else mat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="shift matrix entries must be real"):
            ShiftOperator(kind, given)
    ShiftOperator(kind, mat.real)  # its real part is a valid shift


def brute_disc_adjacency(positions, radius: float) -> np.ndarray:
    """O(N^2) pair loop: an edge iff the Euclidean distance is <= radius."""
    n = len(positions)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dx = float(positions[i][0]) - float(positions[j][0])
            dy = float(positions[i][1]) - float(positions[j][1])
            if i != j and math.sqrt(dx * dx + dy * dy) <= radius:
                mat[i, j] = 1.0
    return mat


_COORD = st.one_of(st.integers(-8, 8).map(float),
                   st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=14),
       st.one_of(st.sampled_from([1.0, 3.0, 5.0]), st.floats(0.05, 12.0)))
@example([(0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (0.0, 5.0), (0.0, 5.0000000001)], 5.0)
def test_disc_graph_matches_a_pair_loop(positions, radius):
    adj = build_disc_graph(positions, radius)
    want = brute_disc_adjacency(positions, radius)
    assert np.array_equal(adj.mat, want)
    assert [tuple(e) for e in adj.edges] == [
        (i, j) for i in range(len(want)) for j in range(i + 1, len(want)) if want[i, j]]


def test_disc_graph_keeps_a_distance_equal_to_the_radius():
    adj = build_disc_graph([(0.0, 0.0), (3.0, 4.0), (0.0, -5.0000000001)], 5.0)
    assert [tuple(e) for e in adj.edges] == [(0, 1)]


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_cached_upper_pairs_are_read_only(n):
    iu, ju, pairs = _upper_pairs(n)
    want_iu, want_ju = np.triu_indices(n, 1)
    assert np.array_equal(iu, want_iu) and np.array_equal(ju, want_ju)
    assert np.array_equal(pairs, np.column_stack((want_iu, want_ju)))
    assert _upper_pairs(n)[2] is pairs  # built once per node count
    for arr in (iu, ju, pairs):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    if n > 1:  # a shift's edges are its own array, not a view of the shared pairs
        shift = ShiftOperator(ADJACENCY, np.ones((n, n)) - np.eye(n))
        assert np.array_equal(shift.edges, pairs)
        assert not np.shares_memory(shift.edges, pairs)
