import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgnn_lab import (
    ConfigError,
    DomainViolationError,
    LAPLACIAN,
    Rng,
    default_domain,
    eig_sym,
    estimate_response_bound,
    estimate_response_lipschitz,
    filter_norm_check,
    freq_response,
    generalized_freq_response,
    gfr_partial,
    gft,
    igft,
    to_shift,
)
from sgnn_lab.spectral import SAFETY


class TestEigSym:
    def test_identity(self):
        pair = eig_sym(np.eye(3))
        assert np.allclose(pair.values, [1.0, 1.0, 1.0])

    def test_k2_adjacency(self, k2):
        pair = eig_sym(k2.mat)
        assert np.allclose(pair.values, [-1.0, 1.0], atol=1e-12)

    def test_p3_laplacian_known_spectrum(self, p3):
        # characteristic polynomial of diag(1,2,1) - path couplings: 0, 1, 3
        lap = to_shift(p3, LAPLACIAN)
        pair = eig_sym(lap)
        assert np.allclose(pair.values, [0.0, 1.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_invariants_against_lapack(self, n):
        rng = Rng(n, 3)
        mat = rng.normal(size=(n, n))
        mat = (mat + mat.T) / 2.0
        pair = eig_sym(mat)
        # ascending eigenvalues matching LAPACK
        assert np.all(np.diff(pair.values) >= -1e-12)
        assert np.abs(pair.values - np.linalg.eigvalsh(mat)).max() <= 1e-9 * max(1, np.abs(mat).max())
        # orthonormality and reconstruction
        assert np.abs(pair.vectors.T @ pair.vectors - np.eye(n)).max() <= 1e-10
        recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
        assert np.abs(recon - mat).max() <= 1e-8 * max(np.abs(mat).max(), 1e-12)

    def test_zero_matrix(self):
        pair = eig_sym(np.zeros((4, 4)))
        assert np.array_equal(pair.values, np.zeros(4))
        assert np.abs(pair.vectors.T @ pair.vectors - np.eye(4)).max() <= 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    # LAPACK returns NaN eigenvalues for such input instead of raising
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            eig_sym(a)


class TestEigSymOracle:
    """``eig_sym`` against the identities that define an eigendecomposition:
    ``A V = V diag(lam)``, ``V^T V = I`` and ascending ``lam``."""

    @staticmethod
    def check(mat):
        pair = eig_sym(mat)
        n = mat.shape[0]
        assert pair.values.shape == (n,) and pair.vectors.shape == (n, n)
        assert np.all(np.diff(pair.values) >= 0.0)
        scale = max(1.0, np.abs(mat).max()) if n else 1.0
        residual = mat @ pair.vectors - pair.vectors * pair.values
        assert np.abs(residual).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(pair.vectors.T @ pair.vectors - np.eye(n)).max(initial=0.0) <= 1e-12
        return pair

    @pytest.mark.parametrize("n", [2, 3, 8, 12, 30])
    def test_random_symmetric(self, n):
        mat = Rng(n, 11).normal(size=(n, n))
        self.check((mat + mat.T) / 2.0)

    def test_repeated_eigenvalue(self):
        q, _ = np.linalg.qr(Rng(5, 11).normal(size=(5, 5)))
        mat = q @ np.diag([1.0, -2.0, 1.0, 3.0, 1.0]) @ q.T
        pair = self.check((mat + mat.T) / 2.0)
        assert np.abs(pair.values - [-2.0, 1.0, 1.0, 1.0, 3.0]).max() <= 1e-12

    def test_empty_and_scalar(self):
        assert self.check(np.zeros((0, 0))).values.shape == (0,)
        assert self.check(np.array([[2.5]])).values.tolist() == [2.5]

    def test_laplacian(self, random8):
        pair = self.check(to_shift(random8, LAPLACIAN).mat)
        assert abs(pair.values[0]) <= 1e-12


class TestGft:
    def test_eigenvector_maps_to_basis_vector(self, p3):
        lap = to_shift(p3, LAPLACIAN)
        pair = eig_sym(lap)
        xhat = gft(pair, pair.vectors[:, 1])
        assert np.allclose(xhat, [0.0, 1.0, 0.0], atol=1e-12)

    def test_zero_signal(self, p3):
        pair = eig_sym(to_shift(p3, LAPLACIAN))
        assert np.array_equal(gft(pair, np.zeros(3)), np.zeros(3))

    def test_round_trip(self, p3):
        pair = eig_sym(to_shift(p3, LAPLACIAN))
        x = Rng(4).normal(size=3)
        assert np.abs(igft(pair, gft(pair, x)) - x).max() <= 1e-10

    def test_dimension_mismatch(self, p3):
        pair = eig_sym(to_shift(p3, LAPLACIAN))
        with pytest.raises(ValueError):
            gft(pair, np.zeros(5))


class TestFreqResponse:
    def test_constant_filter(self):
        assert freq_response([1.0], 123.0) == 1.0

    def test_linear_tap(self):
        assert freq_response([0.0, 1.0], 2.0) == 2.0

    def test_cubic_example(self):
        assert freq_response([1.0, 1.0, 1.0], 2.0) == 7.0

    def test_vectorized(self):
        lams = np.array([0.0, 1.0, -1.0])
        assert np.array_equal(freq_response([1.0, 2.0], lams), 1.0 + 2.0 * lams)


class TestGeneralizedFreqResponse:
    def test_reduces_to_scalar_response_on_constant_vectors(self):
        rng = Rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            h = rng.normal(size=k + 1)
            lam = float(rng.uniform(-2, 2))
            got = generalized_freq_response(h, np.full(k, lam))
            assert got == pytest.approx(freq_response(h, lam), abs=1e-12)

    def test_two_step_expansion(self):
        h = (0.5, -1.0, 2.0)
        a, b = 0.3, -0.7
        assert generalized_freq_response(h, [a, b]) == pytest.approx(0.5 - a + 2 * a * b)

    def test_zero_first_frequency_kills_higher_taps(self):
        h = (3.0, 1.0, 1.0, 1.0)
        assert generalized_freq_response(h, [0.0, 5.0, -2.0]) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            generalized_freq_response([1.0, 1.0], [0.5, 0.5])


class TestGfrPartial:
    def test_single_tap(self):
        assert gfr_partial([0.0, 1.0], [0.7], 1) == 1.0

    def test_product_rule_two_taps(self):
        h = (0.0, 0.0, 1.0)
        assert gfr_partial(h, [3.0, 5.0], 1) == 5.0
        assert gfr_partial(h, [3.0, 5.0], 2) == 3.0

    def test_matches_finite_differences(self):
        rng = Rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            h = rng.normal(size=k + 1)
            lam = rng.uniform(-1.5, 1.5, k)
            r = int(rng.integers(1, k + 1))
            step = 1e-6
            up, dn = lam.copy(), lam.copy()
            up[r - 1] += step
            dn[r - 1] -= step
            fd = (generalized_freq_response(h, up) - generalized_freq_response(h, dn)) / (2 * step)
            got = gfr_partial(h, lam, r)
            assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            gfr_partial([1.0, 1.0], [0.5], 2)


class TestResponseBound:
    def test_constant_filter(self):
        assert estimate_response_bound([1.0, 0.0], (-1, 1)) == pytest.approx(SAFETY)

    def test_linear_filter_peaks_at_endpoint(self):
        assert estimate_response_bound([0.0, 1.0], (-1, 1)) == pytest.approx(SAFETY)

    def test_quadratic_max_at_one(self):
        # |1 + x + x^2| peaks at 3 on [-1, 1]
        assert estimate_response_bound([1.0, 1.0, 1.0], (-1, 1)) == pytest.approx(3 * SAFETY)

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigError):
            estimate_response_bound([1.0], (1.0, -1.0))

    def test_grid_points_validated(self):
        with pytest.raises(ConfigError):
            estimate_response_bound([1.0], (-1, 1), grid_points=1)


class TestResponseLipschitz:
    def test_linear_filter_constant_gradient(self):
        got = estimate_response_lipschitz([0.5, -2.0], (-1, 1), rng=Rng(0))
        assert got == pytest.approx(SAFETY * 2.0)

    def test_order_two_product_filter(self):
        # h = lam1 * lam2: gradient (lam2, lam1), norm maximized at corners
        got = estimate_response_lipschitz([0.0, 0.0, 1.0], (-1, 1), rng=Rng(0))
        assert got == pytest.approx(SAFETY * np.sqrt(2.0))

    def test_zero_filter(self):
        assert estimate_response_lipschitz([0.0, 0.0, 0.0], (-1, 1), rng=Rng(0)) == 0.0

    def test_dominates_dense_grid(self):
        rng = Rng(3)
        h = rng.normal(size=3)
        est = estimate_response_lipschitz(h, (-1, 1), rng=rng.child(1))
        grid = np.linspace(-1, 1, 60)
        worst = 0.0
        for a in grid:
            for b in grid:
                g = np.hypot(gfr_partial(h, [a, b], 1), gfr_partial(h, [a, b], 2))
                worst = max(worst, g)
        assert est >= worst

    def test_order_zero_filter_has_no_frequency_dependence(self):
        assert estimate_response_lipschitz([4.2], (-1, 1), rng=Rng(0)) == 0.0


class TestFilterNormCheck:
    def test_identity_filter(self, p3):
        lap = to_shift(p3, LAPLACIAN)
        norm, bound = filter_norm_check([1.0], lap)
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert norm <= bound

    def test_shift_filter_unit_spectral_radius(self, k2):
        norm, bound = filter_norm_check([0.0, 1.0], k2)
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert norm <= bound

    def test_norm_equals_max_response_on_spectrum(self, p3):
        lap = to_shift(p3, LAPLACIAN)
        rng = Rng(8)
        for _ in range(10):
            h = rng.normal(size=4)
            norm, bound = filter_norm_check(h, lap)
            spectrum = np.linalg.eigvalsh(lap.mat)
            expect = np.abs(freq_response(h, spectrum)).max()
            assert norm == pytest.approx(expect, abs=1e-9)
            assert norm <= bound

    def test_domain_violation(self, p3):
        lap = to_shift(p3, LAPLACIAN)
        with pytest.raises(DomainViolationError):
            filter_norm_check([1.0, 1.0], lap, domain=(-0.5, 0.5))


class TestDefaultDomain:
    def test_covers_all_realization_spectra(self, random8):
        lo, hi = default_domain(random8)
        assert lo == -hi
        assert hi >= SAFETY * np.abs(np.linalg.eigvalsh(random8.mat)).max() - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=5),
       st.floats(-1.5, 1.5))
def test_generalized_response_constant_vector_property(h, lam):
    k = len(h) - 1
    got = generalized_freq_response(h, np.full(k, lam))
    assert got == pytest.approx(freq_response(h, lam), rel=1e-9, abs=1e-9)


def _lipschitz_by_partials(h, domain, n_samples, rng):
    """Per-candidate oracle of ``estimate_response_lipschitz``: the same
    uniform, structured and vertex candidates, each gradient norm taken over
    ``gfr_partial``."""
    lo, hi = domain
    k = len(h) - 1
    candidates = list(rng.uniform(lo, hi, (n_samples, k)))
    for a, b in itertools.product((lo, hi), repeat=2):
        candidates += [[a] * (r - 1) + [b] * (k - r + 1) for r in range(1, k + 1)]
    candidates += itertools.product((lo, hi), repeat=k)
    return SAFETY * max(math.hypot(*(gfr_partial(h, lam, r) for r in range(1, k + 1)))
                        for lam in candidates)


_TAP = st.floats(-3, 3).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(lambda k: st.lists(_TAP, min_size=k + 1, max_size=k + 1)),
       st.floats(0.05, 2.0), st.floats(-1.0, 1.0), st.integers(0, 2**16))
def test_vectorized_lipschitz_matches_partials_loop(h, hi, lo_frac, seed):
    domain = (lo_frac * hi, hi)
    got = estimate_response_lipschitz(h, domain, n_samples=16, rng=Rng(seed))
    expect = _lipschitz_by_partials(h, domain, 16, Rng(seed))
    assert abs(got - expect) <= 1e-12 * expect
