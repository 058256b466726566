import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supadd import _kernels, ensembles
from supadd._kernels import _pack_bits
from supadd.ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    code_from_text,
    code_to_text,
    codeword_states,
    embed_binary_letters,
    gram,
    int_bits,
)
from supadd.errors import InvalidInput, ResourceLimit


def random_code(rng, n, m):
    words = rng.permutation(2**n)[:m]
    bits = ((words[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    return Code(n=n, codewords=bits)


class Reached(Exception):
    """Raised in place of an allocation the guard let through."""


@pytest.fixture
def no_allocation(monkeypatch):
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(ensembles, "embed_binary_letters", reached)
    monkeypatch.setattr(ensembles, "hamming_matrix", reached)


class TestEmbedBinaryLetters:
    def test_orthogonal_at_zero(self):
        plus, minus = embed_binary_letters(0.0)
        np.testing.assert_allclose(plus, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
        np.testing.assert_allclose(minus, [np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-15)

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.5, 0.9, 0.99])
    def test_overlap_and_norms(self, kappa):
        plus, minus = embed_binary_letters(kappa)
        assert abs(plus @ minus - kappa) < 1e-12
        assert abs(plus @ plus - 1.0) < 1e-14
        assert abs(minus @ minus - 1.0) < 1e-14

    @pytest.mark.parametrize("kappa", [-0.1, 1.0, 1.5])
    def test_out_of_range_rejected(self, kappa):
        with pytest.raises(InvalidInput):
            embed_binary_letters(kappa)


class TestCodewordStates:
    def test_repetition_pair_orthonormal_at_zero(self):
        code = Code(n=2, codewords=np.array([[0, 0], [1, 1]], dtype=np.uint8))
        states = codeword_states(code, 0.0)
        np.testing.assert_allclose(states @ states.T, np.eye(2), atol=1e-12)

    def test_distance_two_overlaps(self):
        states = codeword_states(build_nn12_code(3), 0.5)
        overlaps = states @ states.T
        expected = np.full((4, 4), 0.25)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(overlaps, expected, atol=1e-12)

    def test_single_letter_returns_embeddings(self):
        code = Code(n=1, codewords=np.array([[0], [1]], dtype=np.uint8))
        states = codeword_states(code, 0.7)
        plus, minus = embed_binary_letters(0.7)
        np.testing.assert_allclose(states, np.vstack([plus, minus]), atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=0.95),
    )
    def test_overlaps_follow_hamming_distance(self, n, seed, kappa):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 2**n + 1))
        code = random_code(rng, n, m)
        states = codeword_states(code, kappa)
        dist = (code.codewords[:, None, :] != code.codewords[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(
            states @ states.T, np.float_power(kappa, dist), atol=1e-10
        )

    def test_guard_counts_every_entry(self, no_allocation):
        # even-weight n = 16: 2**15 states of 2**16 entries, 16 GiB
        with pytest.raises(ResourceLimit):
            codeword_states(build_nn12_code(16), 0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(Reached):
            codeword_states(random_code(rng, 20, 2**7), 0.5)
        with pytest.raises(ResourceLimit):
            codeword_states(random_code(rng, 20, 2**7 + 1), 0.5)
        # every sequence state that synth embeds at its limit n = 11
        with pytest.raises(Reached):
            codeword_states(Code(n=11, codewords=int_bits(np.arange(2**11), 11)), 0.5)

    def test_single_state_beyond_two_to_the_twenty(self):
        code = Code(n=21, codewords=np.zeros((1, 21), dtype=np.uint8))
        states = codeword_states(code, 0.5)
        assert states.shape == (1, 2**21)
        assert abs(np.linalg.norm(states) - 1.0) < 1e-12


class TestGram:
    def test_distance_two_structure(self):
        g = gram(build_nn12_code(3), 0.6)
        expected = np.full((4, 4), 0.36)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_simplex_seven_letter_offdiagonals(self):
        g = gram(build_simplex_code(3), 0.9)
        off = g[~np.eye(8, dtype=bool)]
        np.testing.assert_allclose(off, 0.9**4, atol=1e-14)

    def test_zero_overlap_identity(self):
        g = gram(build_nn12_code(4), 0.0)
        np.testing.assert_array_equal(g, np.eye(8))

    def test_weighted_includes_prior_factors(self):
        # the prior-weighted Gram matrix, as its callers build it from the
        # states, is the plain one with sqrt(prior_i * prior_j) factors
        priors = np.array([0.4, 0.3, 0.2, 0.1])
        code = Code(n=3, codewords=build_nn12_code(3).codewords, priors=priors)
        weighted = np.sqrt(priors)[:, None] * codeword_states(code, 0.5)
        root = np.sqrt(priors)
        expected = root[:, None] * gram(code, 0.5) * root[None, :]
        np.testing.assert_allclose(weighted @ weighted.T, expected, atol=1e-14)

    def test_guard_sized_by_the_temporaries(self, no_allocation):
        # the benchmark's largest explicit code: 1024 words of length 12
        with pytest.raises(Reached):
            gram(random_code(np.random.default_rng(1), 12, 1024), 0.5)
        # 2**14 words of length 15: about 2**28 * 31 bytes, 8 GiB
        with pytest.raises(ResourceLimit):
            gram(random_code(np.random.default_rng(2), 15, 2**14), 0.5)

    def test_guard_sized_by_the_square_root_measurement(self, no_allocation):
        # 64 bytes a pair of codewords: 4096 words take 1 GiB, whatever n
        with pytest.raises(Reached):
            gram(random_code(np.random.default_rng(3), 13, 4096), 0.5)
        for n in (13, 20):
            with pytest.raises(ResourceLimit):
                gram(random_code(np.random.default_rng(n), n, 4097), 0.5)

    def test_power_table_matches_float_power(self):
        # the n + 1 powers looked up by distance are the powers float_power
        # gives over the whole matrix, bit for bit
        rng = np.random.default_rng(8)
        kappas = [0.0, 1e-300, 0.9999999, 1.0, *rng.random(20)]
        for n in (1, 5, 12, 64, 255):
            distances = rng.integers(0, n + 1, size=(9, 9)).astype(np.min_scalar_type(n))
            for kappa in kappas:
                table = _kernels._overlaps(kappa, distances, n)
                assert np.array_equal(table, np.float_power(kappa, distances))
        code = random_code(rng, 9, 200)
        dist = (code.codewords[:, None, :] ^ code.codewords[None, :, :]).sum(axis=2)
        for kappa in kappas:
            assert np.array_equal(gram(code, kappa), np.float_power(kappa, dist))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_matches_explicit_states(self, n):
        rng = np.random.default_rng(n)
        code = random_code(rng, n, min(2**n, 12))
        states = codeword_states(code, 0.7)
        np.testing.assert_allclose(gram(code, 0.7), states @ states.T, atol=1e-10)


def nn12_pair(n):
    """Even-weight codewords (gamma) and their odd-weight companions
    (lambda) by the prefix co-recursion gamma(n) = [0*gamma(n-1);
    1*lambda(n-1)], lambda(n) = [1*gamma(n-1); 0*lambda(n-1)]."""
    g = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    l = 1 - g
    for _ in range(4, n + 1):
        zeros = np.zeros((g.shape[0], 1), dtype=np.uint8)
        ones = np.ones((g.shape[0], 1), dtype=np.uint8)
        g, l = (
            np.vstack([np.hstack([zeros, g]), np.hstack([ones, l])]),
            np.vstack([np.hstack([ones, g]), np.hstack([zeros, l])]),
        )
    return g, l


class TestEvenWeightFamily:
    def test_base_codewords_in_order(self):
        code = build_nn12_code(3)
        expected = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(code.codewords, expected)

    def test_four_letter_extension(self):
        code = build_nn12_code(4)
        g3, l3 = nn12_pair(3)
        np.testing.assert_array_equal(code.codewords[:4, 0], 0)
        np.testing.assert_array_equal(code.codewords[:4, 1:], g3)
        np.testing.assert_array_equal(code.codewords[4:, 0], 1)
        np.testing.assert_array_equal(code.codewords[4:, 1:], l3)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_codewords_in_co_recursion_order(self, n):
        np.testing.assert_array_equal(build_nn12_code(n).codewords, nn12_pair(n)[0])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_even_weight_and_size(self, n):
        code = build_nn12_code(n)
        assert code.num_codewords == 2 ** (n - 1)
        assert np.all(code.codewords.sum(axis=1) % 2 == 0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_minimum_distance_two(self, n):
        words = build_nn12_code(n).codewords
        dist = (words[:, None, :] != words[None, :, :]).sum(axis=2)
        off = dist[~np.eye(len(words), dtype=bool)]
        assert off.min() == 2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_companions_are_odd_weight_complement_set(self, n):
        g, l = nn12_pair(n)
        assert np.all(l.sum(axis=1) % 2 == 1)
        union = np.vstack([g, l])
        weights = 1 << np.arange(n - 1, -1, -1)
        labels = union @ weights
        assert len(set(labels.tolist())) == 2**n

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_gram_block_recursion(self, n):
        # Gram of level n splits into level n-1 blocks with the cross-Gram
        # of the codeword and companion sets (one overlap factor removed)
        # in the corners.
        kappa = 0.7
        g_n = gram(build_nn12_code(n), kappa)
        g_prev = gram(build_nn12_code(n - 1), kappa)
        prev_g, prev_l = nn12_pair(n - 1)
        dist = (prev_g[:, None, :] != prev_l[None, :, :]).sum(axis=2)
        cross = np.float_power(kappa, dist) / kappa
        half = 2 ** (n - 2)
        np.testing.assert_allclose(g_n[:half, :half], g_prev, atol=1e-12)
        np.testing.assert_allclose(g_n[half:, half:], g_prev, atol=1e-12)
        np.testing.assert_allclose(g_n[:half, half:], kappa**2 * cross, atol=1e-12)

    def test_base_cross_gram_closed_form(self):
        g3, l3 = nn12_pair(3)
        kappa = 0.7
        dist = (g3[:, None, :] != l3[None, :, :]).sum(axis=2)
        cross = np.float_power(kappa, dist) / kappa
        expected = np.full((4, 4), 1.0)
        np.fill_diagonal(expected, kappa**2)
        np.testing.assert_allclose(cross, expected, atol=1e-14)

    def test_short_block_rejected(self):
        with pytest.raises(InvalidInput):
            build_nn12_code(1)

    def test_pair_block_is_the_first_member(self):
        # n = 2 is the block {00, 11}: gamma(2) = [0*gamma(1); 1*lambda(1)]
        code = build_nn12_code(2)
        np.testing.assert_array_equal(code.codewords, [[0, 0], [1, 1]])
        np.testing.assert_array_equal(code.priors, [0.5, 0.5])


class TestSimplexFamily:
    @pytest.mark.parametrize("r,expected_dist", [(2, 2), (3, 4), (4, 8)])
    def test_equidistant(self, r, expected_dist):
        code = build_simplex_code(r)
        assert code.n == 2**r - 1
        assert code.num_codewords == 2**r
        words = code.codewords
        dist = (words[:, None, :] != words[None, :, :]).sum(axis=2)
        off = dist[~np.eye(len(words), dtype=bool)]
        assert off.min() == off.max() == expected_dist

    def test_rank_two_gram(self):
        g = gram(build_simplex_code(2), 0.45)
        off = g[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.45**2, atol=1e-15)

    def test_small_rank_rejected(self):
        with pytest.raises(InvalidInput):
            build_simplex_code(1)


class TestIntBits:
    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_matches_python_shifts(self, n):
        values = sorted({0, 1, 2**n - 1, *np.random.default_rng(n).integers(0, 2**n, 20).tolist()})
        expected = np.array(
            [[(v >> (n - 1 - t)) & 1 for t in range(n)] for v in values], dtype=np.uint8
        )
        got = int_bits(values, n)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, expected)

    def test_empty(self):
        assert int_bits([], 4).shape == (0, 4)

    @pytest.mark.parametrize("n", [0, 1, 3, 8, 20, 64])
    def test_pack_bits_inverts(self, n):
        rng = np.random.default_rng(n)
        rows = rng.integers(0, 2, size=(30, n), dtype=np.uint8)
        packed = _pack_bits(rows)
        assert packed.dtype == np.uint64
        assert packed.tolist() == [int("".join(map(str, row)) or "0", 2) for row in rows.tolist()]
        # int_bits reads int64, which holds 63 bits
        if n < 64:
            np.testing.assert_array_equal(int_bits(packed, n), rows)


class TestTextFormat:
    def test_round_trip(self):
        priors = np.array([0.4, 0.3, 0.2, 0.1])
        code = Code(n=3, codewords=build_nn12_code(3).codewords, priors=priors)
        restored = code_from_text(code_to_text(code))
        assert restored.n == 3
        np.testing.assert_array_equal(restored.codewords, code.codewords)
        np.testing.assert_allclose(restored.priors, priors, atol=1e-15)

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidInput):
            code_from_text("3\n000\n")

    def test_wrong_bit_length_rejected(self):
        with pytest.raises(InvalidInput):
            code_from_text("3 2\n000\n0110\n")

    @pytest.mark.parametrize("prior", ["x", "0.5.1", "nan", "inf", "-inf"])
    def test_bad_prior_field_rejected(self, prior):
        with pytest.raises(InvalidInput):
            code_from_text(f"2 2\n01\n10\n{prior}\n0.5\n")


class TestCodeValidation:
    @pytest.mark.parametrize(
        "codewords",
        [[[0.5, 1], [1, 1.7]], [[-0.3, 0]], [[np.nan, 1]], [[2, 0]], [[1, 257]]],
    )
    def test_non_binary_entries_rejected(self, codewords):
        # a uint8 cast used to truncate 0.5 to 0 and -0.3 to 0, and NaN
        # raised numpy's ValueError
        with pytest.raises(InvalidInput, match="0/1"):
            Code(n=2, codewords=codewords)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float64, np.uint8])
    def test_binary_entries_of_any_dtype_kept(self, dtype):
        code = Code(n=2, codewords=np.array([[0, 1], [1, 1]], dtype=dtype))
        assert code.codewords.dtype == np.uint8
        assert code.codewords.tolist() == [[0, 1], [1, 1]]

    def test_empty_code_rejected(self):
        # refused before the default priors 1/M are built
        with pytest.raises(InvalidInput, match="1 to 2\\*\\*n codewords"):
            Code(n=3, codewords=np.zeros((0, 3)))

    def test_duplicate_codewords_rejected(self):
        with pytest.raises(InvalidInput):
            Code(n=2, codewords=np.array([[0, 1], [0, 1]], dtype=np.uint8))

    def test_built_in_packed_rows(self):
        # int_bits and the distinctness check hold at most about two bytes
        # per letter beside the codewords; a Python set of row tuples and an
        # int64 bit table took about 25
        tracemalloc.start()
        try:
            code = build_nn12_code(18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * code.codewords.size

    def test_bad_priors_rejected(self):
        with pytest.raises(InvalidInput):
            Code(
                n=2,
                codewords=np.array([[0, 1], [1, 0]], dtype=np.uint8),
                priors=np.array([0.9, 0.9]),
            )

    @pytest.mark.parametrize("priors", [[np.nan, 0.5], [np.nan, np.nan], [np.inf, -np.inf]])
    def test_non_finite_priors_rejected(self, priors):
        with pytest.raises(InvalidInput):
            Code(n=2, codewords=np.array([[0, 1], [1, 0]], dtype=np.uint8), priors=priors)
