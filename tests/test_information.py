from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supadd import ensembles
from supadd._kernels import _threshold_error, hamming_matrix
from supadd.detection import helstrom_binary, square_root_measurement, threshold_certificate
from supadd.ensembles import Code, build_nn12_code, build_simplex_code, gram
from supadd.errors import InvalidInput, LinearDependence
from supadd.fastcode import block_gain, code_information
from supadd.information import (
    _h2,
    binary_flip_probability,
    c1_binary,
    holevo_binary,
    mutual_information,
    random_collective_max_info,
    separable_pair_info,
)


def entropy(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def holevo_mixture(overlaps, priors):
    """Entropy of the prior-weighted mixture of pure letters: the spectrum
    of (sqrt(xi_i) sqrt(xi_j) overlap_ij) is the mixture spectrum."""
    w = np.sqrt(priors)
    return entropy(np.clip(np.linalg.eigvalsh(overlaps * np.outer(w, w)), 0.0, None))


class TestMutualInformation:
    def test_identity_channel(self):
        res = mutual_information(np.full(4, 0.25), np.eye(4))
        assert abs(res.mutual_information_bits - 2.0) < 1e-12

    def test_binary_symmetric_channel(self):
        p = 0.11
        channel = np.array([[1 - p, p], [p, 1 - p]])
        res = mutual_information(np.array([0.5, 0.5]), channel)
        h2 = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        assert abs(res.mutual_information_bits - (1.0 - h2)) < 1e-12

    def test_distance_two_code_value(self):
        g = gram(build_nn12_code(3), 0.5)
        _, channel = square_root_measurement(g)
        res = mutual_information(np.full(4, 0.25), channel)
        assert abs(res.mutual_information_bits - 1.699661) < 1e-5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        channel = rng.random((5, 5))
        channel /= channel.sum(axis=1)[:, None]
        priors = rng.random(5)
        priors /= priors.sum()
        base = mutual_information(priors, channel).mutual_information_bits
        perm = rng.permutation(5)
        shuffled = mutual_information(
            priors[perm], channel[perm][:, perm]
        ).mutual_information_bits
        assert abs(base - shuffled) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bounds(self, m, seed):
        rng = np.random.default_rng(seed)
        channel = rng.random((m, m))
        channel /= channel.sum(axis=1)[:, None]
        priors = rng.random(m) + 0.05
        priors /= priors.sum()
        bits = mutual_information(priors, channel).mutual_information_bits
        assert -1e-12 <= bits <= min(entropy(priors), np.log2(m)) + 1e-10

    def test_bad_channel_rejected(self):
        with pytest.raises(InvalidInput):
            mutual_information(np.array([0.5, 0.5]), np.array([[0.9, 0.2], [0.5, 0.5]]))

    @pytest.mark.parametrize(
        "priors, channel",
        [
            ([2.0, -1.0], [[0.9, 0.1], [0.2, 0.8]]),
            ([0.3, 0.3], [[0.9, 0.1], [0.2, 0.8]]),
            ([np.nan, 0.5], [[0.9, 0.1], [0.2, 0.8]]),
            ([0.5, 0.5], [[np.nan, 0.1], [0.2, 0.8]]),
            ([0.5, 0.5, 0.0], [[0.9, 0.1], [0.2, 0.8]]),
            ([], np.zeros((0, 2))),
            ([0.5, 0.5], [0.5, 0.5]),
        ],
    )
    def test_not_a_probability_vector_or_finite_channel_rejected(self, priors, channel):
        # each gave a number before: -1.49 bits, 0.68 bits, 0.0 and a pass;
        # the last, a 1-D channel, is no matrix at all
        with pytest.raises(InvalidInput):
            mutual_information(priors, channel)


class TestSingleUseCapacity:
    def test_orthogonal_letters(self):
        assert abs(c1_binary(0.0) - 1.0) < 1e-15

    def test_reference_value(self):
        assert abs(c1_binary(0.5) - 0.645423) < 1e-5

    def test_near_full_overlap_vanishes(self):
        assert c1_binary(0.999999) < 1e-3

    def test_matches_maximized_single_angle_information(self):
        # C1 equals the best projective information over the measurement
        # angle at uniform priors; scan then refine by golden section.
        from supadd.ensembles import embed_binary_letters

        kappa = 0.5
        states = np.vstack(embed_binary_letters(kappa))
        priors = np.array([0.5, 0.5])

        def info(theta):
            basis = np.array(
                [
                    [np.cos(theta), np.sin(theta)],
                    [-np.sin(theta), np.cos(theta)],
                ]
            )
            channel = (basis @ states.T).T ** 2
            return mutual_information(priors, channel).mutual_information_bits

        grid = np.linspace(0.0, np.pi, 721)
        values = [info(t) for t in grid]
        lo = grid[int(np.argmax(values)) - 1]
        hi = grid[int(np.argmax(values)) + 1]
        ratio = (np.sqrt(5) - 1) / 2
        for _ in range(60):
            m1 = hi - ratio * (hi - lo)
            m2 = lo + ratio * (hi - lo)
            if info(m1) < info(m2):
                lo = m1
            else:
                hi = m2
        assert abs(info(0.5 * (lo + hi)) - c1_binary(kappa)) < 1e-6


class TestEntropyBound:
    def test_orthogonal_letters(self):
        assert abs(holevo_binary(0.0) - 1.0) < 1e-15

    def test_reference_value(self):
        assert abs(holevo_binary(0.5) - 0.811278) < 1e-5

    def test_dominates_single_use_capacity(self):
        for kappa in np.linspace(0.01, 0.99, 99):
            assert holevo_binary(kappa) > c1_binary(kappa)

    def test_general_matches_binary(self):
        for kappa in (0.0, 0.5, 0.9):
            overlaps = np.array([[1.0, kappa], [kappa, 1.0]])
            expected = holevo_mixture(overlaps, np.array([0.5, 0.5]))
            assert abs(holevo_binary(kappa) - expected) < 1e-12

    def test_general_orthogonal_uniform(self):
        assert abs(holevo_mixture(np.eye(4), np.full(4, 0.25)) - 2.0) < 1e-12

    def test_general_degenerate_prior(self):
        overlaps = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert abs(holevo_mixture(overlaps, np.array([1.0, 0.0]))) < 1e-12


class TestThresholdQuantities:
    """The threshold point of fig5 and fig7: n independent uses carry
    n * C1 bits with block error 1 - (1-p)**n."""

    def test_orthogonal(self):
        assert abs(5 * c1_binary(0.0) - 5.0) < 1e-12
        assert _threshold_error(binary_flip_probability(np.array([0.0])), 5) == [0.0]

    def test_reference_point(self):
        assert abs(3 * c1_binary(0.5) - 1.936268) < 1e-5
        (err,) = _threshold_error(binary_flip_probability(np.array([0.5])), 3)
        assert abs(err - 0.187796) < 1e-5

    def test_single_use_reduction(self):
        p = binary_flip_probability(np.array([0.1, 0.5, 0.9]))
        np.testing.assert_allclose(_threshold_error(p, 1), p, rtol=0, atol=1e-15)

    def test_against_decimal(self):
        # 1 - sqrt(1 - kappa**2) and 1 - (1 - p)**n cancel at small kappa;
        # the forms used carry no cancellation
        grid = np.linspace(0.001, 0.999, 40)
        p = binary_flip_probability(grid)
        errors = {n: _threshold_error(p, n) for n in (3, 7, 13)}
        with localcontext() as ctx:
            ctx.prec = 50
            for i, kappa in enumerate(grid.tolist()):
                k = Decimal(kappa)
                exact = (1 - (1 - k * k).sqrt()) / 2
                assert abs(Decimal(p[i]) - exact) <= Decimal("1e-15") * exact
                assert helstrom_binary(kappa, 0.5)[1] == p[i]
                for n, error in errors.items():
                    reference = 1 - (1 - exact) ** n
                    assert abs(Decimal(error[i]) - reference) <= Decimal("1e-15") * reference
            expected = threshold_certificate(0.01, 3).expected_error
            reference = 1 - (1 - (1 - (1 - Decimal(0.01) ** 2).sqrt()) / 2) ** 3
            assert abs(Decimal(expected) - reference) <= Decimal("1e-15") * reference

    def test_threshold_error_at_least_single_letter(self):
        for kappa in (0.1, 0.5, 0.9):
            p = binary_flip_probability(np.array([kappa]))
            for n in (1, 2, 5):
                assert _threshold_error(p, n)[0] >= p[0] - 1e-15


def per_letter_gain(code, kappa):
    """The superadditivity gain I_n/n - C1 of a code; broadcasts over kappa."""
    return code_information(code, kappa) / code.n - c1_binary(kappa)


class TestSuperadditivityGain:
    def test_orthogonal_rate_limit(self):
        code = build_nn12_code(4)
        assert abs(per_letter_gain(code, 0.0) - (3.0 / 4.0 - 1.0)) < 1e-12

    def test_negative_at_moderate_overlap(self):
        gain = per_letter_gain(build_nn12_code(3), 0.5)
        assert abs(gain - (-0.078869)) < 1e-4
        assert gain < 0

    def test_positive_at_strong_overlap(self):
        assert per_letter_gain(build_nn12_code(3), 0.9) > 0

    def test_fields_consistent(self):
        code = build_nn12_code(5)
        per_letter = code_information(code, 0.7) / code.n
        assert abs(per_letter_gain(code, 0.7) - block_gain(5, 0.7)) < 1e-15
        assert holevo_binary(0.7) >= per_letter - 1e-12

    def test_fast_route_matches_explicit_route(self):
        code = build_nn12_code(4)
        fast = code_information(code, 0.6)
        _, channel = square_root_measurement(gram(code, 0.6))
        explicit = mutual_information(code.priors, channel).mutual_information_bits
        assert abs(fast - explicit) < 1e-9

    def test_simplex_route(self):
        bits = code_information(build_simplex_code(3), 0.8)
        assert 0.0 < bits < 3.0



class TestCodeInformationGrid:
    """code_information takes kappa as a number or an array on both
    routes, and an array gives bit for bit its entries taken one at a
    time."""

    NONLINEAR = Code(
        n=5,
        codewords=np.array([[0, 0, 0, 1, 1], [0, 1, 0, 1, 0], [1, 1, 1, 0, 0],
                            [1, 0, 1, 1, 1], [0, 1, 1, 0, 1]]),
        priors=np.array([0.3, 0.2, 0.2, 0.15, 0.15]),
    )

    @pytest.mark.parametrize("code", [NONLINEAR, build_nn12_code(4)], ids=["gram", "group"])
    def test_array_matches_entries(self, code):
        grid = np.linspace(0.0, 0.95, 12).reshape(3, 4)
        bits = code_information(code, grid)
        assert bits.shape == (3, 4)
        assert np.array_equal(bits, np.vectorize(lambda k: code_information(code, k))(grid))
        assert isinstance(code_information(code, 0.5), float)

    def test_gram_route_matches_explicit(self):
        _, channel = square_root_measurement(gram(self.NONLINEAR, 0.6))
        explicit = mutual_information(self.NONLINEAR.priors, channel).mutual_information_bits
        assert code_information(self.NONLINEAR, np.array([0.6]))[0] == explicit

    def test_gram_route_computes_distances_once(self, monkeypatch):
        calls = []

        def counted(codewords):
            calls.append(1)
            return hamming_matrix(codewords)

        monkeypatch.setattr(ensembles, "hamming_matrix", counted)
        code_information(self.NONLINEAR, np.linspace(0.0, 0.9, 7))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "grid, error",
        [([0.2, 1.0], LinearDependence), ([0.2, -0.1], InvalidInput), ([0.2, np.nan], InvalidInput)],
    )
    def test_bad_entry_rejected(self, grid, error):
        with pytest.raises(error):
            code_information(self.NONLINEAR, np.array(grid))


class TestPairAdditivity:
    def test_product_measurement_achieves_sum(self):
        info, reference = separable_pair_info(0.3, 0.7)
        assert abs(info - reference) < 1e-9

    def test_random_collective_measurements_do_not_exceed(self):
        _, reference = separable_pair_info(0.3, 0.7)
        best = random_collective_max_info(0.3, 0.7, trials=300, seed=5)
        assert best <= reference + 1e-9


BATCH_GRIDS = {
    "grid": np.linspace(0.01, 0.99, 99),
    "strided": np.linspace(0.01, 0.99, 99)[::2],
    "matrix": np.linspace(0.0, 0.95, 33).reshape(3, 11),
}


class TestBroadcasting:
    """The single-letter functions on an array of kappa equal, bit for bit,
    the stack of their scalar calls."""

    @pytest.mark.parametrize("grid", BATCH_GRIDS.values(), ids=BATCH_GRIDS.keys())
    @pytest.mark.parametrize(
        "fn", [c1_binary, holevo_binary, binary_flip_probability, _h2]
    )
    def test_matches_scalar_calls(self, fn, grid):
        batched = fn(grid)
        assert batched.shape == grid.shape
        expected = np.array([fn(k) for k in grid.reshape(-1)]).reshape(grid.shape)
        assert np.array_equal(batched, expected)

    def test_entropy_vanishes_outside_open_interval(self):
        np.testing.assert_array_equal(_h2(np.array([0.0, 1.0, -0.5, 2.0])), 0.0)
        assert _h2(0.5) == 1.0

    @pytest.mark.parametrize("fn", [c1_binary, holevo_binary, _h2, binary_flip_probability])
    def test_scalar_in_scalar_out(self, fn):
        for kappa in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(fn(kappa)) is float

    @pytest.mark.parametrize("fn", [c1_binary, holevo_binary, binary_flip_probability])
    @pytest.mark.parametrize("bad", [1.0, -0.1, np.nan])
    def test_out_of_range_entry_rejected(self, fn, bad):
        with pytest.raises(InvalidInput):
            fn(bad)
        with pytest.raises(InvalidInput):
            fn(np.array([0.2, bad, 0.5]))
