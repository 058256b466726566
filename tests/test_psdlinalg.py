import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supadd.errors import InvalidInput
from supadd.psdlinalg import psd_root, sqrt_psd
from test_kernels import hadamard


def random_symmetric(rng, dim):
    m = rng.normal(size=(dim, dim))
    return (m + m.T) / 2.0


class TestEigSym:
    """The one symmetric eigendecomposition, psd_root: the smallest
    eigenvalue and the symmetrized root Q sqrt(max(Lambda, 0)) Q^T."""

    def test_identity(self):
        min_eig, root = psd_root(np.eye(3))
        assert abs(min_eig - 1.0) <= 1e-12
        np.testing.assert_allclose(root, np.eye(3), atol=1e-12)

    def test_two_dim_overlap_matrix(self):
        k2 = 0.25
        min_eig, root = psd_root(np.array([[1.0, k2], [k2, 1.0]]))
        assert abs(min_eig - 0.75) <= 1e-12
        np.testing.assert_allclose(np.linalg.eigvalsh(root), np.sqrt([0.75, 1.25]), atol=1e-12)

    def test_distance_two_gram(self):
        # unit diagonal, all off-diagonal 0.25: triple 1 - k^2 and single 1 + 3k^2
        g = np.full((4, 4), 0.25)
        np.fill_diagonal(g, 1.0)
        min_eig, root = psd_root(g)
        assert abs(min_eig - 0.75) <= 1e-12
        np.testing.assert_allclose(
            np.linalg.eigvalsh(root), np.sqrt([0.75, 0.75, 0.75, 1.75]), atol=1e-12
        )

    def test_values_ascending_and_reconstruction(self):
        # an indefinite matrix: the smallest eigenvalue is reported as it
        # is, and the root is that of the part with the negative ones cut
        rng = np.random.default_rng(3)
        m = random_symmetric(rng, 6)
        min_eig, root = psd_root(m)
        values, vectors = np.linalg.eigh(m)
        assert min_eig == values[0] < 0.0
        positive = (vectors * np.clip(values, 0.0, None)) @ vectors.T
        assert np.abs(root @ root - positive).max() <= 1e-10 * max(1.0, np.abs(m).max())
        assert np.array_equal(root, root.T)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InvalidInput):
            psd_root(bad)

    def test_round_off_asymmetry_symmetrized(self):
        # an entry one ulp off its mirror is round-off: the root is that of
        # the mean of the matrix and its transpose, and symmetric
        m = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        skew = m.copy()
        skew[0, 1] = np.nextafter(0.3, 1.0)
        root = sqrt_psd(skew)
        assert np.array_equal(root, sqrt_psd((skew + skew.T) / 2.0))
        assert np.array_equal(root, root.T)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            psd_root(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
    def test_eigenvalue_sum_equals_trace(self, dim, seed):
        # the root of a PSD matrix squares back to its trace, and the
        # smallest eigenvalue is eigvalsh's
        a = np.random.default_rng(seed).normal(size=(dim, dim))
        m = a @ a.T
        min_eig, root = psd_root(m)
        trace = np.trace(m)
        assert abs(np.sum(root * root) - trace) <= 1e-10 * max(1.0, abs(trace))
        assert abs(min_eig - np.linalg.eigvalsh(m)[0]) <= 1e-10 * max(1.0, abs(trace))


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_two_dim_closed_form(self):
        k2 = 0.25
        s = sqrt_psd(np.array([[1.0, k2], [k2, 1.0]]))
        diag = (np.sqrt(1.25) + np.sqrt(0.75)) / 2.0
        off = (np.sqrt(1.25) - np.sqrt(0.75)) / 2.0
        np.testing.assert_allclose(s, [[diag, off], [off, diag]], atol=1e-12)

    def test_distance_two_gram_closed_form(self):
        # sqrt of the 4x4 distance-2 Gram: diagonal (alpha+3 beta)/4, off (alpha-beta)/4
        g = np.full((4, 4), 0.25)
        np.fill_diagonal(g, 1.0)
        s = sqrt_psd(g)
        alpha, beta = np.sqrt(1.75), np.sqrt(0.75)
        expected = np.full((4, 4), (alpha - beta) / 4.0)
        np.fill_diagonal(expected, (alpha + 3.0 * beta) / 4.0)
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_not_psd_raises(self):
        with pytest.raises(InvalidInput):
            sqrt_psd(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_clamping_near_singular(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]]) + np.diag([0.0, -1e-12])
        s = sqrt_psd(m)
        assert np.all(np.linalg.eigvalsh(s) >= -1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
    def test_square_reconstructs(self, dim, seed):
        a = np.random.default_rng(seed).normal(size=(dim, dim))
        m = a @ a.T
        s = sqrt_psd(m)
        assert np.abs(s @ s - m).max() <= 1e-8 * max(1.0, np.abs(m).max())
        assert np.abs(s - s.T).max() == 0.0


class TestHadamard:
    """The fwht reference matrix of test_kernels."""

    def test_order_one(self):
        np.testing.assert_array_equal(hadamard(1), [[1]])

    def test_order_two(self):
        np.testing.assert_array_equal(hadamard(2), [[1, 1], [1, -1]])

    def test_order_four_doubling(self):
        h2 = hadamard(2)
        expected = np.block([[h2, h2], [h2, -h2]])
        np.testing.assert_array_equal(hadamard(4), expected)

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32])
    def test_orthogonality_exact(self, order):
        h = hadamard(order)
        np.testing.assert_array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))

    @pytest.mark.parametrize("order", [0, 3, 6, 12, -4])
    def test_non_power_of_two_rejected(self, order):
        with pytest.raises(InvalidInput):
            hadamard(order)
