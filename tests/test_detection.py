import numpy as np
import pytest

from supadd import detection
from supadd.detection import (
    _polar_rows,
    bayes_cost_reduction,
    check_optimality,
    helstrom_binary,
    square_root_measurement,
    threshold_certificate,
)
from supadd.ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    codeword_states,
    embed_binary_letters,
    gram,
    int_bits,
)
from supadd.errors import InvalidInput, LinearDependence, ResourceLimit, Unconverged
from supadd.psdlinalg import sqrt_psd
from test_synth import eigh_rows, eigh_tolerance, linear_code


def verify_sqm_orthonormal(gram) -> float:
    """Largest deviation of the square-root measurement's Gram matrix from
    the identity (linear independence makes the vectors orthonormal),
    for the polar rows of the states with coordinate rows sqrt_psd(gram)."""
    meas = _polar_rows(sqrt_psd(gram))
    return float(np.abs(meas @ meas.T - np.eye(meas.shape[0])).max())


def _product_pom(base, n: int) -> np.ndarray:
    """Tensor-power measurement: outcome (i_1..i_n) gets the Kronecker
    product of the base vectors, first factor most significant."""
    vectors = np.array([[1.0]])
    for _ in range(n):
        vectors = np.kron(vectors, base)
    return vectors


def _full_product_code(n: int, xi1: float = 0.5) -> Code:
    """All 2**n sequences as codewords with product priors from (xi1, 1-xi1)."""
    bits = int_bits(np.arange(2**n), n)
    ones = bits.sum(axis=1)
    priors = xi1 ** (n - ones) * (1.0 - xi1) ** ones
    return Code(n=n, codewords=bits, priors=priors)


def random_ensemble(rng, m, dim):
    states = rng.normal(size=(m, dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    priors = rng.random(m) + 0.1
    priors /= priors.sum()
    return states, priors


class TestSquareRootMeasurement:
    def test_identity_gram_identity_channel(self):
        meas, channel = square_root_measurement(np.eye(3))
        np.testing.assert_allclose(channel, np.eye(3), atol=1e-14)
        np.testing.assert_array_equal(meas, np.eye(3))

    def test_distance_two_code_channel_values(self):
        g = gram(build_nn12_code(3), 0.5)
        _, channel = square_root_measurement(g)
        np.testing.assert_allclose(np.diag(channel), 0.960866, atol=1e-6)
        off = channel[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.013045, atol=1e-6)

    def test_repetition_pair_diagonal(self):
        # two codewords at Hamming distance 2: effective overlap kappa**2
        k2 = 0.25
        g = np.array([[1.0, k2], [k2, 1.0]])
        _, channel = square_root_measurement(g)
        diag = (np.sqrt(1.0 + k2) + np.sqrt(1.0 - k2)) / 2.0
        assert abs(channel[0, 0] - diag**2) < 1e-12

    def test_embedding_vectors_orthonormal(self):
        code = build_nn12_code(4)
        meas = _polar_rows(codeword_states(code, 0.6))
        prods = meas @ meas.T
        assert np.abs(prods - np.eye(8)).max() < 1e-10

    def test_channel_rows_stochastic(self):
        for kappa in (0.2, 0.5, 0.9):
            _, channel = square_root_measurement(gram(build_nn12_code(5), kappa))
            np.testing.assert_allclose(channel.sum(axis=1), 1.0, atol=1e-10)
            assert channel.min() >= -1e-12

    def test_singular_gram_rejected(self):
        with pytest.raises(LinearDependence):
            square_root_measurement(np.ones((3, 3)))

    def test_channel_consistent_between_frames(self):
        code = build_nn12_code(3)
        g = gram(code, 0.7)
        states = codeword_states(code, 0.7)
        # the Gram route's channel, from the span's own basis, against the
        # squared overlaps of the states with their polar rows
        _, span_channel = square_root_measurement(g)
        x = _polar_rows(states) @ states.T
        np.testing.assert_allclose(x**2, span_channel, atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.array([[1.0, 0.9], [-0.9, 1.0]]),  # LAPACK would read one triangle
            np.ones((2, 3)),
        ],
        ids=["nan", "asymmetric", "non_square"],
    )
    def test_invalid_gram_rejected(self, bad):
        with pytest.raises(InvalidInput):
            square_root_measurement(bad)
        with pytest.raises(InvalidInput):
            verify_sqm_orthonormal(bad)

    def test_channel_is_the_squared_root(self):
        # the channel is sqrt_psd's root, bit for bit, over the diagonal
        g = gram(Code(n=5, codewords=int_bits(np.array([3, 9, 17, 30, 12]), 5)), 0.7)
        _, channel = square_root_measurement(g)
        np.testing.assert_array_equal(channel, sqrt_psd(g) ** 2 / np.diag(g)[:, None])


class TestPolarRows:
    @pytest.mark.parametrize(
        "code, kappa",
        [
            (build_nn12_code(4), 0.5),
            (build_nn12_code(8), 0.6),
            (build_simplex_code(3), 0.5),
            (linear_code(4, [0, 3, 12, 14]), 0.7),
            (Code(n=8, codewords=int_bits(np.random.default_rng(8).permutation(256)[:64], 8),
                  priors=np.random.default_rng(9).dirichlet(np.ones(64))), 0.5),
        ],
        ids=["nn12_n4", "nn12_n8", "simplex_r3", "nonlinear_n4", "nonlinear_n8"],
    )
    def test_match_the_eigh_rows(self, code, kappa):
        # on a well-conditioned code the polar rows are G**(-1/2) Psi
        states = codeword_states(code, kappa)
        g = gram(code, kappa)
        rows = _polar_rows(states)
        assert np.abs(rows - eigh_rows(g, states)).max() <= eigh_tolerance(g)
        assert np.abs(rows @ rows.T - np.eye(code.num_codewords)).max() <= 1e-14

    def test_orthonormal_where_the_gram_is_ill_conditioned(self):
        # 255 of the 256 words of length 8 at kappa 0.95: cond(Psi) is about
        # 1e6, and the eigh rows G**(-1/2) Psi are 5.2e-7 from orthonormal
        rows = _polar_rows(codeword_states(linear_code(8, np.arange(255)), 0.95))
        assert np.abs(rows @ rows.T - np.eye(255)).max() <= 1e-14

    @pytest.mark.parametrize(
        "states",
        [
            np.eye(3)[[0, 1, 0]],
            np.vstack([np.eye(3)[:2], [1.0, 0.0, 1e-8] / np.hypot(1.0, 1e-8)]),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
        ],
        ids=["repeated_state", "nearly_repeated_state", "more_states_than_dims"],
    )
    def test_dependent_states_rejected(self, states):
        with pytest.raises(LinearDependence):
            _polar_rows(states)
        with pytest.raises(LinearDependence):
            bayes_cost_reduction(states, np.full(3, 1.0 / 3.0))


class TestVerifySqmOrthonormal:
    def test_identity(self):
        assert verify_sqm_orthonormal(np.eye(4)) < 1e-14

    def test_seven_letter_code(self):
        assert verify_sqm_orthonormal(gram(build_nn12_code(7), 0.9)) <= 1e-10

    def test_near_singular_still_bounded(self):
        assert verify_sqm_orthonormal(gram(build_nn12_code(3), 0.999)) <= 1e-8


class TestCheckOptimality:
    def test_orthogonal_states_identity_measurement(self):
        states = np.eye(3)
        report = check_optimality(np.eye(3), states, np.full(3, 1 / 3))
        assert report.is_optimal
        assert abs(report.error_probability) < 1e-14

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
    def test_even_weight_family_sqm_is_optimal(self, n, kappa):
        code = build_nn12_code(n)
        g = gram(code, kappa)
        meas, _ = square_root_measurement(g)
        report = check_optimality(meas, sqrt_psd(g), code.priors)
        assert report.is_optimal
        assert report.cond_i_residual <= 1e-10
        assert report.cond_ii_min_eig >= -1e-10

    def test_skewed_priors_sqm_not_optimal(self):
        states = np.vstack(embed_binary_letters(0.5))
        priors = np.array([0.9, 0.1])
        meas = _polar_rows(np.sqrt(priors)[:, None] * states)
        report = check_optimality(meas, states, priors)
        _, best = helstrom_binary(0.5, 0.9)
        assert not report.is_optimal
        assert report.error_probability > best + 1e-6

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            check_optimality(np.eye(3), np.eye(3), np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "measurement, states",
        [
            (np.ones(2), np.eye(2)),
            (np.eye(2), np.ones(2)),
            (np.ones((2, 2, 2)), np.eye(2)),
            (np.eye(3)[:, :2], np.eye(2)),
            (np.eye(2), np.eye(3)[:, :2]),
        ],
        ids=["1d_measurement", "1d_states", "3d_measurement", "3_rows_2_states", "2_rows_3_states"],
    )
    def test_bad_shapes_rejected(self, measurement, states):
        # numpy's own IndexError or broadcasting ValueError must not escape
        m = max(len(measurement), len(states))
        with pytest.raises(InvalidInput):
            check_optimality(measurement, states, np.full(m, 1.0 / m))

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, "x", True])
    def test_tol_outside_range_rejected(self, tol):
        # with tol = inf this wrong measurement (two rows of the optimal
        # one swapped) was certified optimal; "x" raised a bare TypeError
        # and True was taken as 1
        code = build_nn12_code(3)
        g = gram(code, 0.9)
        wrong = np.eye(4)[[1, 0, 2, 3]]
        assert not check_optimality(wrong, sqrt_psd(g), code.priors).is_optimal
        with pytest.raises(InvalidInput, match="tol must be finite and at least 0"):
            check_optimality(wrong, sqrt_psd(g), code.priors, tol=tol)

    @pytest.mark.parametrize("priors", [[3.0, -2.0], [0.3, 0.3], [np.nan, 0.5], [np.inf, 0.0]])
    def test_not_a_probability_vector_rejected(self, priors):
        # [3, -2] was certified before
        with pytest.raises(InvalidInput, match="probability vector"):
            check_optimality(np.eye(2), np.eye(2), priors)


class TestHelstromBinary:
    def test_zero_overlap_zero_error(self):
        _, err = helstrom_binary(0.0, 0.3)
        assert err == 0.0

    def test_equiprobable_closed_form(self):
        _, err = helstrom_binary(0.5, 0.5)
        assert abs(err - (1.0 - np.sqrt(0.75)) / 2.0) < 1e-12
        assert abs(err - 0.0669873) < 1e-7

    def test_strong_overlap(self):
        _, err = helstrom_binary(0.8, 0.5)
        assert abs(err - 0.2) < 1e-12

    def test_measurement_achieves_error(self):
        kappa, xi1 = 0.6, 0.7
        meas, err = helstrom_binary(kappa, xi1)
        states = np.vstack(embed_binary_letters(kappa))
        x = meas @ states.T
        achieved = 1.0 - (xi1 * x[0, 0] ** 2 + (1 - xi1) * x[1, 1] ** 2)
        assert abs(achieved - err) < 1e-12
        assert np.abs(meas @ meas.T - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("xi1", ["x", np.array([0.3, 0.4])], ids=["str", "array"])
    def test_non_real_prior_rejected(self, xi1):
        # "x" raised a bare TypeError and the array a ValueError ("truth
        # value of an array ... is ambiguous") from the range comparison
        with pytest.raises(InvalidInput, match="xi1 must be a real number"):
            helstrom_binary(0.5, xi1)

    def test_equiprobable_matches_sqm(self):
        # equal diagonal of the 2x2 root makes the square-root measurement optimal
        kappa = 0.5
        states = np.vstack(embed_binary_letters(kappa))
        g = states @ states.T
        meas_sqm = _polar_rows(states)
        _, channel = square_root_measurement(g)
        _, err = helstrom_binary(kappa, 0.5)
        sqm_error = 1.0 - 0.5 * (channel[0, 0] + channel[1, 1])
        assert abs(sqm_error - err) < 1e-12
        report = check_optimality(meas_sqm, states, np.array([0.5, 0.5]))
        assert report.is_optimal


class TestBayesCostReduction:
    def test_optimal_init_is_fixed_point(self):
        states = np.eye(3)
        priors = np.full(3, 1 / 3)
        meas, report = bayes_cost_reduction(states, priors)
        assert report.is_optimal
        assert abs(report.error_probability) < 1e-12

    def test_binary_skewed_converges_to_closed_form(self):
        states = np.vstack(embed_binary_letters(0.6))
        _, report = bayes_cost_reduction(states, np.array([0.7, 0.3]))
        _, expected = helstrom_binary(0.6, 0.7)
        assert abs(report.error_probability - expected) < 1e-9
        assert report.is_optimal

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ensembles_improve_and_certify(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        states, priors = random_ensemble(rng, m, m)
        weighted = np.sqrt(priors)[:, None] * states
        _, channel = square_root_measurement(weighted @ weighted.T)
        initial = 1.0 - float(np.sum(priors * np.diag(channel)))
        _, report = bayes_cost_reduction(states, priors)
        assert report.error_probability <= initial + 1e-12
        assert report.is_optimal
        history = np.array(report.error_history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_unconverged_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(detection, "_MAX_SWEEPS", 0)
        rng = np.random.default_rng(42)
        states, priors = random_ensemble(rng, 4, 4)
        with pytest.raises(Unconverged) as info:
            bayes_cost_reduction(states, priors)
        exc = info.value
        assert exc.measurement.shape == (4, 4)
        again = check_optimality(exc.measurement, states, priors)
        assert abs(again.cond_i_residual - exc.report.cond_i_residual) < 1e-14
        assert abs(again.error_probability - exc.report.error_probability) < 1e-14
        assert not again.is_optimal

    @pytest.mark.parametrize(
        "states, priors",
        [(np.eye(3), [1.0, 0.0, 0.0]), (np.eye(2), [1.0 - 1e-13, 1e-13])],
        ids=["zero_prior", "tiny_prior"],
    )
    def test_independent_states_under_a_zero_or_tiny_prior(self, states, priors):
        # the prior-weighted states are dependent, or nearly so, but the
        # states are not: they used to be refused
        _, report = bayes_cost_reduction(states, np.array(priors))
        assert report.is_optimal
        assert report.error_probability == 0.0

    def test_zero_prior_drops_its_state(self):
        # a state of prior 0 costs nothing: the error is the other states'
        rng = np.random.default_rng(11)
        states, priors = random_ensemble(rng, 4, 4)
        priors[2] = 0.0
        priors /= priors.sum()
        meas, report = bayes_cost_reduction(states, priors)
        assert report.is_optimal
        assert np.abs(meas @ meas.T - np.eye(4)).max() <= 1e-14
        keep = [0, 1, 3]
        _, alone = bayes_cost_reduction(states[keep], priors[keep])
        assert abs(report.error_probability - alone.error_probability) <= 1e-12

    def test_mismatched_priors_rejected(self):
        with pytest.raises(InvalidInput):
            bayes_cost_reduction(np.eye(3), np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "states, message",
        [
            (np.ones((2, 2, 2)) / 2.0, "2-D array"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "finite"),
        ],
        ids=["3d", "nan", "inf"],
    )
    def test_malformed_states_rejected(self, states, message):
        with pytest.raises(InvalidInput, match=message):
            bayes_cost_reduction(states, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-3, None])
    def test_tol_outside_range_rejected(self, monkeypatch, tol):
        def unreachable(*args, **kwargs):
            raise AssertionError("sweep reached")

        monkeypatch.setattr(detection, "bayes_sweeps", unreachable)
        with pytest.raises(InvalidInput, match="tol"):
            bayes_cost_reduction(np.eye(2), np.array([0.5, 0.5]), tol=tol)


class TestProductPom:
    def test_single_power_is_base(self):
        base, _ = helstrom_binary(0.5, 0.5)
        pom = _product_pom(base, 1)
        np.testing.assert_allclose(pom, base, atol=1e-15)

    def test_orthonormality_preserved(self):
        base, _ = helstrom_binary(0.7, 0.5)
        pom = _product_pom(base, 3)
        assert pom.shape == (8, 8)
        assert np.abs(pom @ pom.T - np.eye(8)).max() < 1e-12

    def test_dimension_guard(self, monkeypatch):
        # the certificate refuses n > 12 before it builds its letter
        # overlaps, and so before any 2**n x 2**n Kronecker power
        def unreachable(*args, **kwargs):
            raise AssertionError("allocation reached")

        monkeypatch.setattr(detection, "helstrom_binary", unreachable)
        monkeypatch.setattr(np, "kron", unreachable)
        for n in (13, 15, 21):
            with pytest.raises(ResourceLimit, match="n <= 12"):
                threshold_certificate(0.5, n)


class TestThresholdCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_measurement_is_optimal(self, n):
        cert = threshold_certificate(0.5, n)
        assert cert.passes
        assert cert.cond_i_residual <= 1e-12
        assert cert.cond_ii_min_eig >= -1e-12
        assert abs(cert.error_probability - cert.expected_error) <= 1e-12

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_block_length_rejected(self, n):
        # n = 0 used to pass on an empty product, n = -1 to overflow
        with pytest.raises(InvalidInput):
            threshold_certificate(0.5, n)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
    def test_tol_outside_range_rejected(self, tol):
        # inf passed whatever the residuals; NaN or a negative tol never passes
        with pytest.raises(InvalidInput, match="tol must be finite and at least 0"):
            threshold_certificate(0.5, 2, tol=tol)

    def test_non_real_letter_prior_rejected(self):
        # reached helstrom_binary's comparison and raised a bare TypeError
        with pytest.raises(InvalidInput, match="xi1"):
            threshold_certificate(0.5, 3, xi1="x")

    def test_skewed_letter_priors(self):
        cert = threshold_certificate(0.6, 2, xi1=0.3)
        assert cert.passes

    def test_product_code_priors(self):
        code = _full_product_code(3, 0.25)
        assert code.num_codewords == 8
        assert abs(code.priors.sum() - 1.0) < 1e-12
        # all-zero word carries xi1**n
        assert abs(code.priors[0] - 0.25**3) < 1e-15


def tm_family_min_eig(measurement, states, priors) -> float:
    """Smallest eigenvalue over the exhaustive risk-comparison family
    T(m)[i, j] = xi_i X_ii X_ji - xi_m X_im X_jm (all m): condition (ii)
    by M dense eigenvalue problems, as an independent route."""
    x = measurement @ states.T
    priors = np.asarray(priors, dtype=np.float64)
    base = (priors * np.diag(x))[:, None] * x.T
    worst = np.inf
    for m in range(x.shape[0]):
        tm = base - priors[m] * np.outer(x[:, m], x[:, m])
        tm = (tm + tm.T) / 2.0
        worst = min(worst, float(np.linalg.eigvalsh(tm)[0]))
    return worst


class TestTmFamily:
    def test_matches_pairwise_condition_for_optimum(self):
        kappa = 0.5
        code = build_simplex_code(2)
        g = gram(code, kappa)
        meas, _ = square_root_measurement(g)
        states = sqrt_psd(g)
        assert tm_family_min_eig(meas, states, code.priors) >= -1e-10
        assert check_optimality(meas, states, code.priors).cond_ii_min_eig >= -1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kappa, xi1", [(0.5, 0.5), (0.9, 0.3), (0.3, 0.5)])
    def test_certificate_agrees_with_family(self, n, kappa, xi1):
        # with condition (i) the matrix U = (xi_i X_ii X_ji) is symmetric
        # and T(m) is its Schur complement at m, so U >= 0 exactly when
        # every T(m) >= 0; the letter-swapped product measurement also
        # satisfies (i) and has the largest error, and both must reject it
        code = _full_product_code(n, xi1)
        states = codeword_states(code, kappa)
        base, _ = helstrom_binary(kappa, xi1)
        cert = threshold_certificate(kappa, n, xi1=xi1)
        assert cert.passes
        assert tm_family_min_eig(_product_pom(base, n), states, code.priors) >= -1e-12
        worst = check_optimality(_product_pom(base[::-1], n), states, code.priors, tol=1e-12)
        assert worst.cond_i_residual <= 1e-12
        assert worst.cond_ii_min_eig < -1e-12
        assert not worst.is_optimal
        assert tm_family_min_eig(_product_pom(base[::-1], n), states, code.priors) < -1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kappa", [0.1, 0.6, 0.99])
    @pytest.mark.parametrize("xi1", [0.3, 0.5])
    def test_certificate_matches_dense_route(self, n, kappa, xi1):
        # the Kronecker-power overlaps and priors against the product
        # measurement and states built in full
        code = _full_product_code(n, xi1)
        base, _ = helstrom_binary(kappa, xi1)
        states = codeword_states(code, kappa)
        dense = check_optimality(_product_pom(base, n), states, code.priors, tol=1e-12)
        cert = threshold_certificate(kappa, n, xi1=xi1)
        assert abs(cert.cond_i_residual - dense.cond_i_residual) <= 2e-15
        assert abs(cert.cond_ii_min_eig - dense.cond_ii_min_eig) <= 2e-15
        assert abs(cert.error_probability - dense.error_probability) <= 2e-15
        assert cert.passes == dense.is_optimal
