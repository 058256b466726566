"""Each kernel against a plain-Python or dense-matrix reference."""

import math
import tracemalloc

import numpy as np
import pytest

from supadd._kernels import (
    apply_rotations,
    bayes_error,
    fwht,
    fwht_by_weight,
    hamming_matrix,
    mi_bits,
)
from supadd import fastcode
from supadd.errors import InvalidInput


def hadamard(order):
    """Sign matrix of the doubling construction H_{2k} = [[H, H], [H, -H]]:
    the dense reference for fwht."""
    if order < 1 or order & (order - 1) != 0:
        raise InvalidInput(f"order must be a power of two, got {order}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def python_fwht(row):
    """Radix-2 butterfly on a list of floats, one pair at a time, for
    h = 1, 2, 4, ...: the stage order fwht keeps."""
    y = list(row)
    h = 1
    while h < len(y):
        for start in range(0, len(y), 2 * h):
            for i in range(start, start + h):
                y[i], y[i + h] = y[i] + y[i + h], y[i] - y[i + h]
        h *= 2
    return y


def python_hamming(codewords):
    m = codewords.shape[0]
    out = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            out[i, j] = int(np.sum(codewords[i] != codewords[j]))
    return out


def python_mi_bits(priors, channel):
    total = 0.0
    outputs = priors @ channel
    for i in range(channel.shape[0]):
        for j in range(channel.shape[1]):
            p = channel[i, j]
            if p > 0.0:
                total += priors[i] * p * np.log2(p / outputs[j])
    return total


class TestHamming:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2, size=(6, 5)).astype(np.uint8)
        np.testing.assert_array_equal(hamming_matrix(words), python_hamming(words))

    @pytest.mark.parametrize("m", [1, 2, 1024])
    @pytest.mark.parametrize("n", [1, 12, 64, 65])
    def test_packed_words_match_the_boolean_count(self, n, m):
        # n = 65 needs a second 64-bit word per row
        words = np.random.default_rng(n * m).integers(0, 2, size=(m, n)).astype(np.uint8)
        expected = (words[:, None, :] != words[None, :, :]).sum(axis=-1).astype(np.int64)
        got = hamming_matrix(words)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


class TestMiBits:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        channel = rng.random((4, 4))
        channel /= channel.sum(axis=1)[:, None]
        priors = np.full(4, 0.25)
        expected = python_mi_bits(priors, channel)
        assert abs(mi_bits(priors, channel) - expected) < 1e-12

    def test_zero_entries_ignored(self):
        channel = np.array([[1.0, 0.0], [0.0, 1.0]])
        priors = np.array([0.5, 0.5])
        assert abs(mi_bits(priors, channel) - 1.0) < 1e-12


class TestFwht:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16])
    def test_matches_hadamard_matmul(self, order):
        rng = np.random.default_rng(order)
        x = rng.normal(size=order)
        expected = hadamard(order).astype(np.float64) @ x
        np.testing.assert_allclose(fwht(x), expected, atol=1e-10)

    def test_input_not_mutated(self):
        x = np.arange(4, dtype=np.float64)
        saved = x.copy()
        fwht(x)
        np.testing.assert_array_equal(x, saved)

    @pytest.mark.parametrize("order", [1, 2, 8, 64, 128, 4096])
    def test_transforms_last_axis_of_a_batch(self, order):
        # a Fortran-ordered batch, as fancy indexing x[..., idx] returns
        x = np.asfortranarray(np.random.default_rng(order).normal(size=(3, 5, order)))
        out = fwht(x)
        assert out.shape == x.shape and out.flags.c_contiguous
        expected = np.array([fwht(row) for row in x.reshape(-1, order)]).reshape(x.shape)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("order", [1, 2, 32, 64, 128, 4096])
    def test_matches_scalar_butterfly_exactly(self, order):
        # a lone vector, which needs no transpose at the end, and batches in
        # C order, in Fortran order and as a strided view
        rng = np.random.default_rng(order)
        batch = rng.normal(size=(3, 5, order))
        wide = rng.normal(size=(3, 5, 2 * order))
        for x in (rng.normal(size=order), batch, np.asfortranarray(batch), wide[::-1, :, ::2]):
            expected = np.array([python_fwht(row) for row in x.reshape(-1, order).tolist()])
            out = fwht(x)
            assert out.shape == x.shape and out.flags.c_contiguous
            assert np.array_equal(out, expected.reshape(x.shape))

    def test_zero_rows(self):
        out = fwht(np.empty((0, 8)))
        assert out.shape == (0, 8) and out.dtype == np.float64

    @pytest.mark.parametrize("shape", [(1, 2**16), (4, 2**14)])
    def test_working_memory_is_two_buffers(self, shape):
        # two buffers the size of the input, with no temporary per stage.
        # The input is drawn before tracing: a process's first draw from
        # a generator allocates about 0.7 MB once
        x = np.random.default_rng(0).normal(size=shape)
        tracemalloc.start()
        try:
            fwht(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.nbytes + 64 * 1024


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFwhtByWeight:
    """fwht_by_weight(table) is fwht(table[..., weights]) bit for bit,
    weights the popcount of each index."""

    @staticmethod
    def check(table):
        bits = table.shape[-1] - 1
        weights = np.bitwise_count(np.arange(1 << bits))
        out = fwht_by_weight(table)
        assert out.flags.c_contiguous and out.dtype == np.float64
        assert same_bits(out, fwht(table[..., weights]))

    @pytest.mark.parametrize("bits", range(17))
    def test_matches_fwht_of_the_gathered_table(self, bits):
        # a lone vector, batches in C order, in Fortran order and as a
        # strided view, and a table with zeros in it
        rng = np.random.default_rng(bits)
        batch = rng.normal(size=(3, 5, bits + 1))
        wide = rng.normal(size=(6, 5, 2 * bits + 2))
        zeros = rng.normal(size=(3, 5, bits + 1))
        zeros[rng.random(zeros.shape) < 0.4] = 0.0
        zeros[0] = 0.0
        for table in (rng.normal(size=bits + 1), batch, np.asfortranarray(batch),
                      wide[::-2, :, ::2], zeros):
            self.check(table)

    @pytest.mark.parametrize("n", [2, 3, 9, 17])
    def test_even_weight_root_tables(self, n):
        # the roots per weight of the even-weight code on the figure grid
        # and at the ends of [0, 1), where entries differ by many orders
        layout = fastcode._span_layout(tuple(fastcode.nn12_generators[: n - 1]), n)
        kappa = np.concatenate([np.linspace(0.01, 0.99, 99)[:: 1 if n < 9 else 14],
                                [0.0, 1e-8, 1 - 1e-13]])
        self.check(fastcode._weight_roots(layout, kappa))

    def test_input_not_mutated(self):
        table = np.arange(5, dtype=np.float64)
        saved = table.copy()
        fwht_by_weight(table)
        np.testing.assert_array_equal(table, saved)

    def test_zero_rows(self):
        out = fwht_by_weight(np.empty((0, 4)))
        assert out.shape == (0, 8) and out.dtype == np.float64

    @pytest.mark.parametrize("shape", [(1, 17), (4, 15)])
    def test_working_memory_is_two_buffers(self, shape):
        # two buffers the size of the output, with no temporary per stage;
        # beside them, numpy's iteration buffers of up to 8192 entries for
        # each of a stage's three operands
        table = np.random.default_rng(0).normal(size=shape)
        tracemalloc.start()
        try:
            fwht_by_weight(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * (table.size // table.shape[-1] << shape[-1] - 1) + 3 * 64 * 1024 + 16 * 1024


class TestBayesError:
    def test_plain_formula_bits_where_not_below_zero(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 7, 30):
            x = rng.uniform(-1.0, 1.0, size=(m, m))
            priors = rng.dirichlet(np.ones(m))
            expected = 1.0 - float(np.sum(priors * np.diag(x) ** 2))
            assert expected >= 0.0
            assert bayes_error(x, priors) == expected

    def test_zero_where_rounding_takes_the_sum_above_one(self):
        # unit overlaps one ulp above 1: 1 - sum is -2.2e-16 unfloored
        x = np.diag([1.0 + 2.0**-52, 1.0 + 2.0**-52])
        priors = np.array([0.5, 0.5])
        assert 1.0 - float(np.sum(priors * np.diag(x) ** 2)) < 0.0
        assert bayes_error(x, priors) == 0.0

    def test_nan_not_hidden(self):
        assert math.isnan(bayes_error(np.array([[np.nan]]), np.ones(1)))


def python_rotation_run(w, pivot, rows, c, s, start):
    """One plane rotation at a time, as a dense 2x2 product on two rows."""
    w = w.copy()
    for j, ck, sk in zip(rows, c, s):
        rot = np.array([[ck, sk], [-sk, ck]])
        w[[pivot, j], start:] = rot @ w[[pivot, j], start:]
    return w


def python_rotation_scalars(w, pivots, rows, c, s, start):
    """One plane rotation at a time, one entry pair at a time."""
    w = w.copy()
    for i, j, ck, sk in zip(pivots, rows, c, s):
        for t in range(start, w.shape[1]):
            w[i, t], w[j, t] = ck * w[i, t] + sk * w[j, t], ck * w[j, t] - sk * w[i, t]
    return w


class TestApplyRotations:
    def check(self, w, pivot, rows, c, s, start=0, atol=1e-12):
        expected = python_rotation_run(w, pivot, rows, c, s, start)
        got = w.copy()
        apply_rotations(got, [pivot] * len(rows), list(rows), c, s, start)
        np.testing.assert_array_equal(got[:, :start], w[:, :start])
        np.testing.assert_allclose(got, expected, rtol=0, atol=atol)

    def test_matches_dense_products(self):
        rng = np.random.default_rng(2)
        dim = 9
        for start in (0, 3):
            rows = rng.permutation([r for r in range(dim) if r != 4])
            gammas = rng.uniform(-np.pi, np.pi, size=rows.size)
            w = rng.standard_normal((dim, dim))
            self.check(w, 4, rows, np.cos(gammas), np.sin(gammas), start)

    def test_mixed_pivots_and_starts(self):
        # mixed pivots within a call, one start per call of six rotations
        rng = np.random.default_rng(7)
        dim, count = 10, 60
        w = rng.standard_normal((dim, 13))
        pivots = rng.integers(0, dim, size=count)
        rows = (pivots + rng.integers(1, dim, size=count)) % dim
        starts = rng.integers(0, 13, size=count // 6)
        gammas = rng.uniform(-np.pi, np.pi, size=count)
        c, s = np.cos(gammas), np.sin(gammas)
        expected, got = w, w.copy()
        for k, lo in zip(range(0, count, 6), starts):
            batch = pivots[k : k + 6], rows[k : k + 6], c[k : k + 6], s[k : k + 6]
            for i, j, ck, sk in zip(*batch):
                expected = python_rotation_run(expected, i, [j], [ck], [sk], lo)
            apply_rotations(got, *batch, lo)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_matches_scalar_entries_exactly(self):
        rng = np.random.default_rng(8)
        dim, count = 7, 40
        w = rng.standard_normal((dim, 11))
        pivots = rng.integers(0, dim, size=count)
        rows = (pivots + rng.integers(1, dim, size=count)) % dim
        gammas = rng.uniform(-np.pi, np.pi, size=count)
        c, s = np.cos(gammas), np.sin(gammas)
        for start in (0, 4):
            expected = python_rotation_scalars(w, pivots, rows, c, s, start)
            got = w.copy()
            apply_rotations(got, pivots.tolist(), rows.tolist(), c, s, start)
            assert np.array_equal(got, expected)

    def test_empty_schedule_is_identity(self):
        out = np.eye(3)
        empty = np.empty(0)
        apply_rotations(out, [], [], empty, empty, 0)
        np.testing.assert_array_equal(out, np.eye(3))

    @pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-3])
    def test_underflowing_cosine_products(self, offset):
        # cos(pi/2) is about 6e-17: each rotation all but swaps the two
        # rows, and a product of the cosines along the run would underflow
        rng = np.random.default_rng(3)
        dim = 64
        gammas = np.pi / 2 + rng.choice([-1.0, 1.0], size=dim - 1) * offset
        w = rng.standard_normal((dim, dim))
        rows = np.arange(1, dim)
        self.check(w, 0, rows, np.cos(gammas), np.sin(gammas))

    def test_exact_zero_cosines(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((12, 5))
        c = np.array([0.0, 0.6, 0.0, 0.0, -0.8, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        s = np.sqrt(1.0 - c * c) * rng.choice([-1.0, 1.0], size=c.size)
        self.check(w, 3, [r for r in range(12) if r != 3], c, s, start=1)

    def test_long_random_run(self):
        rng = np.random.default_rng(5)
        dim = 257
        gammas = rng.uniform(-np.pi, np.pi, size=dim - 1)
        w = rng.standard_normal((dim, 40))
        rows = rng.permutation(np.arange(1, dim))
        self.check(w, 0, rows, np.cos(gammas), np.sin(gammas), start=7, atol=1e-11)

    def test_several_column_chunks(self):
        # a wide block, 300 rotations over 700 columns, with a stretch of
        # cosines near zero in the middle of the run
        rng = np.random.default_rng(6)
        gammas = rng.uniform(-np.pi, np.pi, size=300)
        gammas[100:150] = np.pi / 2
        w = rng.standard_normal((301, 703))
        self.check(w, 0, np.arange(1, 301), np.cos(gammas), np.sin(gammas), start=3, atol=1e-11)
