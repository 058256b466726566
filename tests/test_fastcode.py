import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supadd import ensembles, fastcode
from supadd._checks import _kappa_array
from supadd._kernels import _xor_span, fwht
from supadd.detection import square_root_measurement
from supadd.ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    code_from_text,
    code_to_text,
    gram,
)
from supadd.errors import InvalidInput, LinearDependence, NoRoot, ResourceLimit
from supadd.fastcode import (
    block_gain,
    code_error_probability,
    code_information,
    find_kappa_star,
    linear_generators,
    nn12_error_probability,
    nn12_mutual_information,
    SimplexProfile,
    simplex_profile,
)
from supadd.information import (
    binary_flip_probability,
    c1_binary,
    mutual_information,
)
from supadd.psdlinalg import sqrt_psd


def nn12_generators(n):
    return ensembles.nn12_generators[: n - 1]


def group_root(generators, n, kappa):
    """First row g of the Gram square root of the linear code the
    generators span, as fastcode._roots gives it: stacked along the leading
    axes for an array of kappa. Entry x belongs to the codeword whose
    letters on the information set are the bits of x, bit t the t-th letter
    whose column is independent of the letters before it."""
    k = _kappa_array(kappa, collapse_at_one=True)
    return fastcode._roots(fastcode._span_layout(tuple(generators), n), k)[1]


def span(generators):
    """Codeword int of every message, message bit i selecting generator i."""
    words = [0]
    for g in generators:
        words += [w ^ g for w in words]
    return words


def word_ints(code):
    return [int("".join(map(str, row)), 2) for row in code.codewords.tolist()]


def random_linear_code(rng, n, k):
    """k independent random n-bit generators; the span in random row order."""
    while True:
        words = span([int(g) for g in rng.integers(1, 2**n, size=k)])
        if len(set(words)) == 2**k:
            break
    words = [words[i] for i in rng.permutation(2**k)]
    bits = np.array([[(w >> (n - 1 - t)) & 1 for t in range(n)] for w in words])
    return Code(n=n, codewords=bits)


class TestProfile:
    def test_three_letter_base_case(self):
        g = group_root(nn12_generators(3), 3, 0.5)
        assert abs(g[0] - 0.980238) < 1e-6
        np.testing.assert_allclose(g[1:], 0.1142126, atol=1e-7)

    def test_orthogonal_degenerate(self):
        g = group_root(nn12_generators(3), 3, 0.0)
        np.testing.assert_allclose(g, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9])
    def test_row_normalization(self, n, kappa):
        g = group_root(nn12_generators(n), n, kappa)
        assert abs(np.sum(g**2) - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_spectrum_matches_gram_eigenvalues(self, n):
        # the squared transform of g is the Gram spectrum, message by message
        for kappa in (0.2, 0.6, 0.95):
            claimed = np.sort(fwht(group_root(nn12_generators(n), n, kappa)) ** 2)
            actual = np.linalg.eigvalsh(gram(build_nn12_code(n), kappa))
            np.testing.assert_allclose(claimed, actual, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_brute_force_row(self, n):
        # row 0 of the brute-force root belongs to the zero codeword, so its
        # entry for codeword w is g at w's letters on the information set:
        # any n - 1 letters of an even-weight word fix it, so that set is
        # the first n - 1 letters, letter t at bit t
        code = build_nn12_code(n)
        root = sqrt_psd(gram(code, 0.7))
        g = group_root(nn12_generators(n), n, 0.7)
        assert word_ints(code)[0] == 0
        index = [sum((w >> (n - 1 - t) & 1) << t for t in range(n - 1)) for w in word_ints(code)]
        np.testing.assert_allclose(g[index], root[0], atol=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_root_diagonal_constant(self, n):
        root = sqrt_psd(gram(build_nn12_code(n), 0.6))
        diag = np.diag(root)
        assert np.abs(diag - diag[0]).max() < 1e-10
        assert abs(diag[0] - group_root(nn12_generators(n), n, 0.6)[0]) < 1e-10

    def test_full_overlap_rejected(self):
        with pytest.raises(LinearDependence):
            group_root(nn12_generators(4), 4, 1.0)


class TestGroupRouteGuards:
    """The families refuse words they cannot pack, and _span_layout a
    span it cannot hold, before the span is built."""

    @pytest.fixture(autouse=True)
    def no_span(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("allocation reached")

        monkeypatch.setattr(np, "concatenate", unreachable)

    def test_generator_count_guard(self):
        k = fastcode._MAX_GROUP_K
        with pytest.raises(ResourceLimit, match=f"k <= {k}"):
            nn12_mutual_information(k + 2, 0.5)
        with pytest.raises(AssertionError, match="allocation reached"):
            nn12_mutual_information(k + 1, 0.5)

    def test_words_past_64_letters_rejected(self):
        with pytest.raises(InvalidInput, match="64 letters"):
            simplex_profile(7, 0.5)


def all_words_error(kappa):
    """1 - g[0]**2 of all 2**8 words of length 8 to 50 digits: their Gram
    matrix is the 8th Kronecker power of [[1, kappa], [kappa, 1]], whose
    square root has diagonal (sqrt(1 + kappa) + sqrt(1 - kappa)) / 2."""
    with localcontext() as ctx:
        ctx.prec = 50
        k = Decimal(kappa)
        return 1 - (((1 + k).sqrt() + (1 - k).sqrt()) ** 8 / 256) ** 2


class TestExactReferences:
    """The group route's error against 50-digit decimal references, where
    1 - g[0]**2 is a small difference or g comes from nearly singular
    Gram matrices."""

    @pytest.mark.parametrize("kappa", [0.01, 0.02, 0.1])
    def test_simplex_error_at_small_kappa(self, kappa):
        # the simplex code r = 3 is equidistant at distance 4: its Gram
        # eigenvalues are 1 + 7 kappa**4 once and 1 - kappa**4 seven times
        with localcontext() as ctx:
            ctx.prec = 50
            x = Decimal(kappa) ** 4
            exact = 1 - (((1 + 7 * x).sqrt() + 7 * (1 - x).sqrt()) / 8) ** 2
            error = Decimal(simplex_profile(3, kappa).error_probability)
            assert abs(error - exact) <= Decimal("1e-8") * exact

    @pytest.mark.parametrize("kappa", [0.9, 0.95, 0.99])
    def test_all_words_near_full_overlap(self, kappa):
        generators = [1 << i for i in range(8)]
        exact = all_words_error(kappa)
        g = group_root(generators, 8, kappa)
        (error,) = fastcode._reduce_roots(generators, 8, kappa, fastcode._root_error)
        for value in (1.0 - g[0] ** 2, error):
            assert abs(Decimal(float(value)) - exact) <= Decimal("1e-15")


class TestGroupRoute:
    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (8, 5), (9, 7), (10, 8), (12, 10)])
    @pytest.mark.parametrize("kappa", [0.2, 0.6, 0.9])
    def test_matches_explicit_route(self, n, k, kappa):
        code = random_linear_code(np.random.default_rng([n, k]), n, k)
        generators = linear_generators(code)
        assert generators is not None and len(generators) == k
        _, channel = square_root_measurement(gram(code, kappa))
        explicit = mutual_information(code.priors, channel).mutual_information_bits
        assert abs(code_information(code, kappa) - explicit) < 1e-9
        explicit_error = 1.0 - float(np.mean(np.diag(channel)))
        assert abs(code_error_probability(code, kappa) - explicit_error) < 1e-9

    def test_nearly_singular_gram(self):
        # at kappa = 0.99 the explicit route refuses this Gram matrix; the
        # clamped PSD square root is the reference
        code = random_linear_code(np.random.default_rng(7), 12, 10)
        g_explicit = gram(code, 0.99)
        assert np.linalg.eigvalsh(g_explicit)[0] < 1e-12
        with pytest.raises(LinearDependence):
            square_root_measurement(g_explicit)
        channel = sqrt_psd(g_explicit) ** 2
        explicit = mutual_information(code.priors, channel).mutual_information_bits
        assert abs(code_information(code, 0.99) - explicit) < 1e-9

    def test_family_generators_span_the_built_codes(self):
        found = linear_generators(build_nn12_code(6))
        assert sorted(span(found)) == sorted(span(nn12_generators(6)))
        simplex = build_simplex_code(3)
        assert len(linear_generators(simplex)) == 3
        assert abs(code_information(simplex, 0.8) - simplex_profile(3, 0.8).info_bits) < 1e-12


class TestLinearGenerators:
    def test_non_linear_code(self):
        # zero word present, M a power of two, but 011 ^ 101 = 110 is missing
        code = Code(n=3, codewords=np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]))
        assert linear_generators(code) is None

    def test_unequal_priors(self):
        code = build_nn12_code(3)
        skewed = Code(n=3, codewords=code.codewords, priors=[0.4, 0.2, 0.2, 0.2])
        assert linear_generators(skewed) is None

    def test_affine_code_without_zero_word(self):
        # the even-weight code shifted by 001: closed differences, no zero
        # word. Translated by its smallest word, 001, it is the even-weight
        # code again, whose generators it takes
        code = build_nn12_code(3)
        shifted = Code(n=3, codewords=code.codewords ^ np.array([0, 0, 1], dtype=np.uint8))
        generators = linear_generators(shifted)
        assert generators is not None and len(generators) == 2
        assert sorted(span(generators)) == [0, 3, 5, 6]

    def test_words_longer_than_64_bits_take_explicit_route(self):
        code = Code(n=70, codewords=np.array([[0] * 70, [1] * 35 + [0] * 35]))
        assert linear_generators(code) is None
        _, channel = square_root_measurement(gram(code, 0.99))
        explicit = mutual_information(code.priors, channel).mutual_information_bits
        assert abs(code_information(code, 0.99) - explicit) < 1e-12

    def test_size_not_power_of_two(self):
        code = Code(n=3, codewords=np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1]]))
        assert linear_generators(code) is None


class TestInformationAndError:
    def test_reference_values(self):
        assert abs(nn12_mutual_information(3, 0.5) - 1.699661) < 1e-5
        assert abs(nn12_error_probability(3, 0.5) - 0.039134) < 1e-5

    def test_orthogonal_limits(self):
        assert abs(nn12_mutual_information(3, 0.0) - 2.0) < 1e-12
        assert nn12_error_probability(5, 0.0) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_oracle_equivalence(self, n, kappa):
        code = build_nn12_code(n)
        _, channel = square_root_measurement(gram(code, kappa))
        brute = mutual_information(code.priors, channel).mutual_information_bits
        assert abs(nn12_mutual_information(n, kappa) - brute) < 1e-9
        brute_err = 1.0 - float(np.sum(code.priors * np.diag(channel)))
        assert abs(nn12_error_probability(n, kappa) - brute_err) < 1e-9

    def test_short_block_rejected(self):
        with pytest.raises(InvalidInput):
            nn12_mutual_information(1, 0.5)
        with pytest.raises(InvalidInput):
            nn12_error_probability(1, 0.5)
        with pytest.raises(InvalidInput):
            simplex_profile(1, 0.5)

    def test_pair_block_error(self):
        # {00, 11} is one letter pair of overlap kappa**2: its block error is
        # the pair's flip probability there. On the figure grid the two agree
        # within 1e-15; toward kappa = 1 the gap follows the slope of
        # P(kappa) = (1 - sqrt(1 - kappa**4)) / 2, since the group route's
        # class measure is that of a kappa within 1.1e-16 of the given one
        grid = np.linspace(0.01, 0.99, 99)
        gap = np.abs(nn12_error_probability(2, grid) - binary_flip_probability(grid**2))
        assert gap.max() <= 1e-15
        grid = np.linspace(0.0, 0.999, 1001)
        gap = np.abs(nn12_error_probability(2, grid) - binary_flip_probability(grid**2))
        slope = grid**3 / np.sqrt(1.0 - grid**4)
        assert np.all(gap <= 1e-15 + 1.1e-16 * slope)

    def test_error_grows_with_block_length(self):
        errors = [nn12_error_probability(n, 0.5) for n in range(3, 14)]
        assert np.all(np.diff(errors) > 0)

    def test_information_within_rate_bound(self):
        for n in (3, 6, 9):
            for kappa in (0.2, 0.5, 0.8):
                bits = nn12_mutual_information(n, kappa)
                assert 0.0 <= bits <= n - 1


class TestSimplexProfile:
    def test_orthogonal(self):
        profile = simplex_profile(3, 0.0)
        assert abs(profile.u - 1.0) < 1e-15
        assert abs(profile.v) < 1e-15
        assert abs(profile.info_bits - 3.0) < 1e-12
        assert profile.error_probability < 1e-15

    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.8])
    def test_rank_two_equals_three_letter_code(self, kappa):
        simplex = simplex_profile(2, kappa)
        assert abs(simplex.info_bits - nn12_mutual_information(3, kappa)) < 1e-12
        assert abs(simplex.error_probability - nn12_error_probability(3, kappa)) < 1e-12

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
    def test_matches_brute_force(self, r, kappa):
        code = build_simplex_code(r)
        _, channel = square_root_measurement(gram(code, kappa))
        brute = mutual_information(code.priors, channel).mutual_information_bits
        profile = simplex_profile(r, kappa)
        assert abs(profile.info_bits - brute) < 1e-9
        brute_err = 1.0 - float(np.sum(code.priors * np.diag(channel)))
        assert abs(profile.error_probability - brute_err) < 1e-9

    def test_outcome_distribution_normalized(self):
        profile = simplex_profile(4, 0.7)
        m = 2**4
        assert abs(profile.u**2 + (m - 1) * profile.v**2 - 1.0) < 1e-10

    def test_long_code_beats_short_at_strong_overlap(self):
        per7 = simplex_profile(3, 0.9).info_bits / 7.0
        per_short = nn12_mutual_information(7, 0.9) / 7.0
        assert per7 > per_short


class TestGainAndCrossing:
    def test_pair_block_reference(self):
        # the block {00, 11} is a binary symmetric channel on overlap kappa**2
        kappa = 0.5
        p2 = 0.5 * (1.0 - np.sqrt(1.0 - kappa**4))
        h2 = -p2 * np.log2(p2) - (1 - p2) * np.log2(1 - p2)
        p1 = 0.5 * (1.0 - np.sqrt(1.0 - kappa**2))
        h1 = -p1 * np.log2(p1) - (1 - p1) * np.log2(1 - p1)
        assert abs(block_gain(2, kappa) - ((1.0 - h2) / 2.0 - (1.0 - h1))) < 1e-12

    def test_pair_block_matches_its_closed_form(self):
        # n = 2 takes the family's group route, and must agree with the
        # closed form of one letter pair of overlap kappa**2
        grid = np.linspace(0.0, 0.999, 1001)
        closed = c1_binary(grid**2) / 2.0 - c1_binary(grid)
        assert np.abs(block_gain(2, grid) - closed).max() <= 1e-15

    def test_two_letter_gain_never_positive(self):
        for kappa in np.linspace(0.01, 0.99, 99):
            assert block_gain(2, kappa) <= 1e-15

    def test_crossings_decrease_with_block_length(self):
        stars = [find_kappa_star(n) for n in range(3, 14)]
        assert np.all(np.diff(stars) < 0)

    def test_crossing_brackets_sign_change(self):
        star = find_kappa_star(5)
        assert block_gain(5, star - 1e-4) < 0 < block_gain(5, star + 1e-4)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_gain_changes_sign_at_the_crossing(self, n):
        star = find_kappa_star(n)
        assert block_gain(n, star - 1e-12) < 0 < block_gain(n, star + 1e-12)

    def test_crossing_tracks_guide(self):
        for n in range(3, 14):
            guide = (2.0 / n) ** (2.0 / 3.0)
            assert abs(find_kappa_star(n) - guide) < 0.1

    def test_no_crossing_for_pair_code(self):
        with pytest.raises(NoRoot):
            find_kappa_star(2)

    def test_bad_block_length(self):
        with pytest.raises(InvalidInput):
            find_kappa_star(1)


def stacked(fn, kappas):
    """The per-kappa oracle: fn called once per entry, stacked like kappas."""
    kappas = np.asarray(kappas)
    out = np.array([fn(k) for k in kappas.reshape(-1)])
    return out.reshape(kappas.shape + out.shape[1:])


GRID = np.linspace(0.01, 0.99, 99)
# 99 points are not a multiple of the block rows (2**14 / M, a power of
# two of at least 4 for n <= 13), and at n = 13 (M = 4096) they span 25
# blocks
GRIDS = {
    "grid": GRID,
    "strided": GRID[::2],
    "matrix": np.linspace(0.0, 0.95, 33).reshape(3, 11),
}


class TestBatchedRoute:
    """Every broadcasting function on an array of kappa equals, bit for bit,
    the stack of its scalar calls."""

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("n", range(2, 14))
    def test_block_gain(self, n, grid):
        assert np.array_equal(block_gain(n, grid), stacked(lambda k: block_gain(n, k), grid))

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("n", range(3, 14))
    def test_even_weight_information_and_error(self, n, grid):
        info = nn12_mutual_information(n, grid)
        error = nn12_error_probability(n, grid)
        assert info.shape == error.shape == grid.shape
        assert np.array_equal(info, stacked(lambda k: nn12_mutual_information(n, k), grid))
        assert np.array_equal(error, stacked(lambda k: nn12_error_probability(n, k), grid))

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_simplex_profile(self, r, grid):
        profile = simplex_profile(r, grid)
        for field in SimplexProfile._fields:
            expected = stacked(lambda k: getattr(simplex_profile(r, k), field), grid)
            assert np.array_equal(getattr(profile, field), expected), field

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_group_root_and_information(self, grid):
        generators = linear_generators(build_simplex_code(3))
        roots = group_root(generators, 7, grid)
        assert roots.shape == grid.shape + (8,)
        assert roots.flags.c_contiguous
        assert np.array_equal(roots, stacked(lambda k: group_root(generators, 7, k), grid))
        simplex = build_simplex_code(3)
        assert np.array_equal(
            code_information(simplex, grid),
            stacked(lambda k: code_information(simplex, k), grid),
        )

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_pair_block_information(self, grid):
        assert np.array_equal(
            block_gain(2, grid),
            stacked(lambda k: block_gain(2, k), grid),
        )

    @pytest.mark.parametrize(
        "fn",
        [
            lambda k: block_gain(2, k),
            lambda k: block_gain(5, k),
            lambda k: nn12_mutual_information(4, k),
            lambda k: nn12_error_probability(4, k),
            lambda k: simplex_profile(3, k).info_bits,
            lambda k: code_information(build_nn12_code(3), k),
            pytest.param(lambda k: block_gain(2, k), id="pair_block_information"),
        ],
    )
    def test_scalar_in_scalar_out(self, fn):
        for kappa in (0.5, np.float64(0.5), np.array(0.5)):
            value = fn(kappa)
            assert isinstance(value, float) and np.ndim(value) == 0

    def test_blocks_bound_the_root_entries(self, monkeypatch):
        sizes = []
        roots = fastcode._roots

        def counting(layout, k):
            root, g = roots(layout, k)
            sizes.append(g.size)
            return root, g

        monkeypatch.setattr(fastcode, "_roots", counting)
        nn12_mutual_information(13, GRID)
        assert max(sizes) <= fastcode._BLOCK
        assert sum(sizes) == GRID.size * 4096
        sizes.clear()
        simplex_profile(2, GRID)
        assert sizes == [GRID.size * 4]

    def test_error_alone_takes_no_transform(self, monkeypatch):
        # _root_error reads only the roots; beside a reduction that reads
        # the rows, it gets the same roots
        expected = fastcode._reduce_roots(
            nn12_generators(9), 9, GRID, fastcode._root_information, fastcode._root_error
        )[1]

        def unreachable(x):
            raise AssertionError("transform taken")

        # the even-weight layout is symmetric, so its rows come from
        # fwht_by_weight; fwht is the transform of every other layout
        monkeypatch.setattr(fastcode, "fwht", unreachable)
        monkeypatch.setattr(fastcode, "fwht_by_weight", unreachable)
        assert np.array_equal(nn12_error_probability(9, GRID), expected)
        with pytest.raises(AssertionError, match="transform taken"):
            nn12_mutual_information(9, 0.5)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda k: group_root(nn12_generators(4), 4, k),
            lambda k: nn12_mutual_information(4, k),
            lambda k: nn12_error_probability(4, k),
            lambda k: simplex_profile(3, k),
            lambda k: block_gain(2, k),
            lambda k: block_gain(6, k),
        ],
    )
    def test_out_of_range_entries_raise_the_scalar_error(self, fn):
        with pytest.raises(LinearDependence):
            fn(np.array([0.2, 0.5, 1.0]))
        with pytest.raises(InvalidInput):
            fn(np.array([0.2, -0.1, 0.5]))
        with pytest.raises(InvalidInput):
            fn(np.array([[0.2, 0.3], [np.nan, 0.5]]))

    def test_first_offending_entry_decides(self):
        with pytest.raises(InvalidInput, match="-0.1"):
            nn12_mutual_information(4, np.array([0.2, -0.1, 1.0]))
        with pytest.raises(LinearDependence):
            nn12_mutual_information(4, np.array([1.0, -0.1]))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_crossing_matches_per_point_scan(self, n):
        # a scan with one block_gain call per point, then bisection down to
        # adjacent floats; the two searches may stop at different points of
        # the float gain's rounding band, a few 1e-15 wide
        grid = np.linspace(0.01, 0.99, 99)
        values = np.array([block_gain(n, k) for k in grid])
        change = np.flatnonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))
        lo, hi = grid[change[0]], grid[change[0] + 1]
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if block_gain(n, mid) > 0.0:
                hi = mid
            else:
                lo = mid
        assert abs(find_kappa_star(n) - 0.5 * (lo + hi)) <= 4e-15

    def test_crossing_search_calls(self, monkeypatch):
        # the scan ends at the block holding the crossing; Illinois then
        # takes one kappa per call, 4 to 11 of them for n = 3..16
        grid = np.linspace(0.01, 0.99, 99)
        calls = []

        def counting(n, kappa):
            calls.append(np.array(kappa))
            return block_gain(n, kappa)

        monkeypatch.setattr(fastcode, "block_gain", counting)
        for n in range(3, 17):
            rows = max(1, fastcode._BLOCK >> (n - 1))
            values = block_gain(n, grid)
            cross = np.flatnonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))[0]
            calls.clear()
            find_kappa_star(n)
            scanned = (cross + 1) // rows + 1
            assert np.array_equal(np.concatenate(calls[:scanned]), grid[: scanned * rows])
            assert all(call.size <= rows for call in calls)
            assert all(call.ndim == 0 for call in calls[scanned:])
            assert len(calls) - scanned <= 16


class TestOneCodeOneSetOfNumbers:
    """A family's builder and its closed form describe one code, and the
    group route's numbers depend on the code's words alone."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_even_weight_code_takes_its_closed_form(self, n):
        code = build_nn12_code(n)
        assert np.array_equal(code_information(code, GRID), nn12_mutual_information(n, GRID))
        assert np.array_equal(code_error_probability(code, GRID), nn12_error_probability(n, GRID))

    @pytest.mark.parametrize("r", range(2, 7))
    def test_simplex_code_takes_its_closed_form(self, r):
        code = build_simplex_code(r)
        profile = simplex_profile(r, GRID)
        assert np.array_equal(code_information(code, GRID), profile.info_bits)
        assert np.array_equal(code_error_probability(code, GRID), profile.error_probability)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_simplex_profile_spans_the_built_words(self, monkeypatch, r):
        spanned = []
        reduce_roots = fastcode._reduce_roots

        def recording(generators, n, kappa, *reductions):
            spanned.extend(span(generators))
            return reduce_roots(generators, n, kappa, *reductions)

        monkeypatch.setattr(fastcode, "_reduce_roots", recording)
        simplex_profile(r, 0.5)
        assert set(spanned) == set(word_ints(build_simplex_code(r)))

    @pytest.mark.parametrize("seed", range(4))
    def test_root_row_is_indexed_by_the_information_set(self, seed):
        # letter t is in the information set when the first t + 1 letters
        # take twice as many values over the code as the first t do
        code = random_linear_code(np.random.default_rng(seed), 9, 5)
        words = word_ints(code)
        prefixes = [len({w >> (9 - t) for w in words}) for t in range(10)]
        letters = [t for t in range(9) if prefixes[t + 1] > prefixes[t]]
        index = [sum((w >> (8 - t) & 1) << i for i, t in enumerate(letters)) for w in words]
        zero = words.index(0)
        g = group_root(linear_generators(code), 9, 0.7)
        root = sqrt_psd(gram(code, 0.7))
        np.testing.assert_allclose(g[index], root[zero], atol=1e-9)


@st.composite
def two_bases(draw):
    """n and two random bases of one linear code of k <= 6 words of
    n <= 12 letters, zero and repeated letters allowed: k unit columns at
    random letters beside random columns, each basis a random sequence of
    row additions of that generator matrix."""
    k = draw(st.integers(1, 6))
    columns = [1 << j for j in range(k)]
    columns += draw(st.lists(st.integers(0, 2**k - 1), max_size=12 - k))
    columns = draw(st.permutations(columns))
    n = len(columns)
    words = [sum((c >> j & 1) << (n - 1 - i) for i, c in enumerate(columns)) for j in range(k)]
    bases = []
    for _ in range(2):
        basis = list(words)
        for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)))):
            if i != j:
                basis[i] ^= basis[j]
        bases.append(tuple(draw(st.permutations(basis))))
    return n, bases


@settings(max_examples=100, deadline=None)
@given(case=two_bases())
def test_span_layout_is_the_same_for_every_basis(case):
    n, (first, second) = case
    assert sorted(span(first)) == sorted(span(second))
    weights, rest = fastcode._span_layout(first, n)
    other_weights, other_rest = fastcode._span_layout(second, n)
    assert np.array_equal(weights, other_weights)
    assert rest == other_rest


def python_class_roots(layout, k):
    """The class measure by an index per further column c: mu becomes
    a**2 mu + b**2 mu[arange(M) ^ c], gathered by np.take, and the roots
    are sqrt(mu / M)."""
    weights, rest = layout
    a2 = ((1.0 + k) / 2.0)[..., None]
    b2 = 1.0 - a2
    powers = np.arange(weights.size.bit_length())
    mu = np.take(a2 ** powers[::-1] * b2**powers, weights, axis=-1)
    for c in rest:
        mu = a2 * mu + b2 * np.take(mu, np.arange(weights.size) ^ c, axis=-1)
    return np.sqrt(mu / weights.size)


# the ends of [0, 1) and the steep columns near kappa = 1, down to the
# largest float below 1
EXTREME_KAPPA = np.array([0.0, 1e-300, 1e-8, 0.5, 1 - 1e-10, 1 - 1e-13, 1 - 3e-14, 1 - 1e-14,
                          1 - 2.0**-52, np.nextafter(1.0, 0.0)])
KAPPA_SHAPES = {
    "scalar": np.float64(0.37),
    "vector": np.linspace(0.0, 0.99, 7),
    "matrix": np.linspace(0.05, 0.95, 12).reshape(3, 4),
    "extreme": EXTREME_KAPPA,
}


def seeded_linear_code(seed):
    """Generators and length of a random linear code of n = 6..14 letters
    and dimension 2..8."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 15))
    return linear_generators(random_linear_code(rng, n, int(rng.integers(2, min(n, 9))))), n


class TestIndexFreeClassMeasure:
    """_class_roots moves mu by each further column as a flip of a
    (2,)*bits view, in place, and scales the power table by 1/M: its roots
    are, bit for bit, those of the index loop."""

    def check(self, generators, n, kappa):
        layout = fastcode._span_layout(tuple(generators), n)
        k = _kappa_array(kappa)
        root = fastcode._class_roots(layout, k)
        expected = python_class_roots(layout, k)
        assert root.shape == k.shape + (layout[0].size,)
        assert root.flags.c_contiguous
        assert np.array_equal(root.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("kappa", KAPPA_SHAPES.values(), ids=KAPPA_SHAPES.keys())
    @pytest.mark.parametrize("n", range(2, 16))
    def test_even_weight(self, n, kappa):
        self.check(nn12_generators(n), n, kappa)

    @pytest.mark.parametrize("kappa", KAPPA_SHAPES.values(), ids=KAPPA_SHAPES.keys())
    @pytest.mark.parametrize("r", range(2, 7))
    def test_simplex(self, r, kappa):
        self.check(linear_generators(build_simplex_code(r)), 2**r - 1, kappa)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_linear_codes(self, seed):
        for kappa in KAPPA_SHAPES.values():
            self.check(*seeded_linear_code(seed), kappa)

    def test_random_codes_flip_several_axes(self):
        # most of the seeded codes have a column outside the information
        # set with several bits set, so a flip turns several axes at once
        rests = [fastcode._span_layout(*seeded_linear_code(seed))[1] for seed in range(30)]
        assert sum(any(c & (c - 1) for c in rest) for rest in rests) >= 20

    @pytest.mark.parametrize("n", [17, 21])
    def test_large_even_weight_code_at_the_extremes(self, n):
        for kappa in EXTREME_KAPPA:
            self.check(nn12_generators(n), n, kappa)

    def test_holds_two_arrays_of_m(self):
        # mu and the one buffer of moved values; the index loop held four:
        # mu, the index, its gather and the products
        layout = fastcode._span_layout(tuple(nn12_generators(20)), 20)
        tracemalloc.start()
        fastcode._class_roots(layout, np.array([0.3]))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2.25 * 8 * layout[0].size


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def general_path(layout, kappa, *reductions):
    """Each reduction over kappa, flattened, by the general path:
    _class_roots on M entries, then fwht, both called directly, one block
    of _reduce_roots's rows at a time. Each block is checked against
    _roots, whose root table gathered by weight must give the same roots."""
    k = _kappa_array(kappa, collapse_at_one=True).reshape(-1)
    rows = max(1, fastcode._BLOCK // layout.weights.size)
    out = [[] for _ in reductions]
    for lo in range(0, k.size, rows):
        root = fastcode._class_roots(layout, k[lo : lo + rows])
        g = fwht(root)
        table, rows_g = fastcode._roots(layout, k[lo : lo + rows])
        assert same_bits(rows_g, g)
        assert same_bits(np.take(table, layout.weights, axis=-1), root)
        for column, reduce in zip(out, reductions):
            column.append(reduce(root, g))
    return [np.concatenate(column) for column in out]


def permuted_even_weight_file(n):
    """The even-weight code of length n with its letters and words in a
    seeded random order, through the code file format."""
    rng = np.random.default_rng(n)
    code = build_nn12_code(n)
    bits = code.codewords[rng.permutation(code.num_codewords)][:, rng.permutation(n)]
    return code_from_text(code_to_text(Code(n=n, codewords=bits)))


def coset(code):
    """code translated by the odd-weight word 10...0: no zero word."""
    shift = np.zeros(code.n, dtype=np.uint8)
    shift[0] = 1
    return Code(n=code.n, codewords=code.codewords ^ shift)


WEIGHT_KAPPAS = {
    "grid": GRID,
    "random": np.random.default_rng(43).random(20),
    "zero": 0.0,
}


class TestWeightTable:
    """On a symmetric layout, every further column the all-ones class, the
    roots come per weight and their rows from fwht_by_weight: bit for bit
    the numbers of the general path, _class_roots on M entries then fwht."""

    @staticmethod
    def check(generators, n, kappa):
        layout = fastcode._span_layout(tuple(generators), n)
        assert layout.symmetric
        reductions = (fastcode._root_information, fastcode._root_error)
        info, error = general_path(layout, kappa, *reductions)
        both = fastcode._reduce_roots(generators, n, kappa, *reductions)
        alone = [fastcode._reduce_roots(generators, n, kappa, r)[0] for r in reductions]
        for value in both:
            assert isinstance(value, float) or value.shape == np.shape(kappa)
        for value, expected in zip(both + alone, (info, error, info, error)):
            assert same_bits(np.reshape(value, -1), expected)

    @pytest.mark.parametrize("kappa", WEIGHT_KAPPAS.values(), ids=WEIGHT_KAPPAS.keys())
    @pytest.mark.parametrize("n", range(2, 19))
    def test_even_weight(self, n, kappa):
        self.check(nn12_generators(n), n, kappa)

    @pytest.mark.parametrize("kappa", WEIGHT_KAPPAS.values(), ids=WEIGHT_KAPPAS.keys())
    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_permuted_code_file_and_its_coset(self, n, kappa):
        code = permuted_even_weight_file(n)
        for c in (code, coset(code)):
            self.check(linear_generators(c), n, kappa)
        assert same_bits(code_information(coset(code), kappa), nn12_mutual_information(n, kappa))

    @pytest.mark.parametrize("kappa", WEIGHT_KAPPAS.values(), ids=WEIGHT_KAPPAS.keys())
    def test_three_letter_simplex(self, kappa):
        self.check(linear_generators(build_simplex_code(2)), 3, kappa)

    def test_which_layouts_are_symmetric(self):
        for n in range(2, 24):
            assert fastcode._span_layout(tuple(nn12_generators(n)), n).symmetric
        symmetric = {r: fastcode._span_layout(
            tuple(linear_generators(build_simplex_code(r))), 2**r - 1).symmetric for r in (2, 3, 4)}
        assert symmetric == {2: True, 3: False, 4: False}
        # all words of 8 letters: no further column, so weights alone decide
        assert fastcode._span_layout(tuple(1 << i for i in range(8)), 8).symmetric
        assert not any(fastcode._span_layout(*seeded_linear_code(seed)).symmetric
                       for seed in range(30))

    def test_other_layouts_take_fwht(self, monkeypatch):
        def unreachable(x):
            raise AssertionError("fwht_by_weight taken")

        monkeypatch.setattr(fastcode, "fwht_by_weight", unreachable)
        generators, n = seeded_linear_code(0)
        fastcode._reduce_roots(generators, n, GRID, fastcode._root_information)
        with pytest.raises(AssertionError, match="fwht_by_weight taken"):
            nn12_mutual_information(5, 0.5)

    def test_information_holds_three_arrays_of_m(self):
        # the rows g, then p = g**2 and its p log2 p terms; the roots stay a
        # table of weights, and fwht_by_weight's second buffer is gone by then
        generators = nn12_generators(21)
        size = fastcode._span_layout(tuple(generators), 21).weights.size
        tracemalloc.start()
        fastcode._reduce_roots(generators, 21, 0.3, fastcode._root_information)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 3.2 * 8 * size


def reference_span_layout(generators, n):
    """The layout from an index of the whole span: class x is the XOR of
    the information-set columns its bits select, and a further column's
    coordinates are its class's index."""
    columns = fastcode._columns(generators, n)
    new = list(fastcode._independent(columns))
    basis = [c for c, first in zip(columns, new) if first]
    coordinates = np.empty(1 << len(basis), dtype=np.int64)
    coordinates[_xor_span(basis)] = np.arange(coordinates.size)
    weights = np.bitwise_count(np.arange(coordinates.size))
    rest = [coordinates[c].item() for c, first in zip(columns, new) if c and not first]
    return weights, tuple(sorted(rest, reverse=True))


class TestSpanLayout:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_span_index(self, seed):
        # k <= 12 independent words of up to 20 letters, some with zero and
        # repeated columns
        rng = np.random.default_rng([43, seed])
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, min(n, 12) + 1))
        while True:
            generators = tuple(int(g) for g in rng.integers(1, 2**n, size=k))
            if all(fastcode._independent(generators)):
                break
        weights, rest = fastcode._span_layout(generators, n)
        expected_weights, expected_rest = reference_span_layout(generators, n)
        assert weights.dtype == np.uint8 and not weights.flags.writeable
        assert np.array_equal(weights, expected_weights)
        assert rest == expected_rest

    def test_holds_its_weights_alone(self):
        # the M weight bytes and the half table they doubled from: a
        # quarter of an array of M floats
        generators = tuple(nn12_generators(21))
        tracemalloc.start()
        layout = fastcode._span_layout.__wrapped__(generators, 21)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 0.3 * 8 * layout.weights.size
