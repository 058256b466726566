"""Each kernel against a plain-Python or dense-matrix reference."""

import math

import numpy as np
import pytest

from supadd._kernels import (
    apply_rotations,
    bayes_sweeps,
    fwht,
    hamming_matrix,
    mi_bits,
)
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


def python_bayes_sweeps(X, xi, tol, max_sweeps):
    """Scalar-loop pairwise-rotation sweeps, one plane rotation at a time."""
    M = X.shape[0]
    V = np.eye(M)
    errors = []

    def residual():
        return max(
            (abs(xi[i] * X[i, i] * X[j, i] - xi[j] * X[i, j] * X[j, j])
             for i in range(M) for j in range(M) if i != j),
            default=0.0,
        )

    res = residual()
    while len(errors) < max_sweeps and res > tol:
        for i in range(M - 1):
            for j in range(i + 1, M):
                v0, v1 = X[i, i], X[j, i]
                w0, w1 = X[j, j], -X[i, j]
                a = xi[i] * v0 * v0 + xi[j] * w0 * w0
                b = xi[i] * v0 * v1 + xi[j] * w0 * w1
                d = xi[i] * v1 * v1 + xi[j] * w1 * w1
                theta = 0.5 * math.atan2(2.0 * b, a - d)
                c, s = math.cos(theta), math.sin(theta)
                for t in range(M):
                    X[i, t], X[j, t] = c * X[i, t] + s * X[j, t], -s * X[i, t] + c * X[j, t]
                    V[i, t], V[j, t] = c * V[i, t] + s * V[j, t], -s * V[i, t] + c * V[j, t]
        errors.append(1.0 - sum(xi[i] * X[i, i] ** 2 for i in range(M)))
        res = residual()
    return V, np.array(errors), res, len(errors)


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

    @pytest.mark.parametrize("order", [1, 2, 8, 64])
    def test_transforms_last_axis_of_a_batch(self, order):
        # a Fortran-ordered batch, as fancy indexing x[..., idx] returns
        x = np.asfortranarray(np.random.default_rng(order).normal(size=(3, 5, order)))
        out = fwht(x)
        assert out.shape == x.shape and out.flags.c_contiguous
        expected = np.array([fwht(row) for row in x.reshape(-1, order)]).reshape(x.shape)
        assert np.array_equal(out, expected)


class TestBayesSweeps:
    def build_case(self, seed, m=4, dim=4):
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(m, dim))
        states /= np.linalg.norm(states, axis=1)[:, None]
        priors = rng.random(m) + 0.1
        priors /= priors.sum()
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        x = states @ q[:, :m]  # overlap with an arbitrary orthonormal init
        return x.T.copy(), priors  # rows indexed by measurement vector

    def test_matches_scalar_loops(self):
        x1, priors = self.build_case(5)
        x2 = x1.copy()
        v1, e1, r1, s1 = bayes_sweeps(x1, priors, 1e-10, 200)
        v2, e2, r2, s2 = python_bayes_sweeps(x2, priors, 1e-10, 200)
        np.testing.assert_allclose(v1, v2, atol=1e-9)
        np.testing.assert_allclose(e1, e2, atol=1e-12)
        assert s1 == s2

    def test_error_monotone_and_converged(self):
        x, priors = self.build_case(11)
        _, errors, residual, _ = bayes_sweeps(x, priors, 1e-10, 500)
        assert np.all(np.diff(errors) <= 1e-12)
        assert residual <= 1e-10

    def test_rotation_matrix_orthogonal(self):
        x, priors = self.build_case(17)
        v, _, _, _ = bayes_sweeps(x, priors, 1e-10, 500)
        assert np.abs(v @ v.T - np.eye(v.shape[0])).max() < 1e-10


def python_rotation_run(w, pivot, rows, c, s, start):
    """One plane rotation at a time, as a dense 2x2 product on two rows."""
    w = w.copy()
    for j, ck, sk in zip(rows, c, s):
        rot = np.array([[ck, sk], [-sk, ck]])
        w[[pivot, j], start:] = rot @ w[[pivot, j], start:]
    return w


class TestApplyRotations:
    def check(self, w, pivot, rows, c, s, start=0, atol=1e-12):
        expected = python_rotation_run(w, pivot, rows, c, s, start)
        got = w.copy()
        count = len(rows)
        apply_rotations(got, [pivot] * count, list(rows), c, s, [start] * count)
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
        rng = np.random.default_rng(7)
        dim, count = 10, 60
        w = rng.standard_normal((dim, 13))
        pivots = rng.integers(0, dim, size=count)
        rows = (pivots + rng.integers(1, dim, size=count)) % dim
        starts = rng.integers(0, 13, size=count)
        gammas = rng.uniform(-np.pi, np.pi, size=count)
        c, s = np.cos(gammas), np.sin(gammas)
        expected = w
        for i, j, ck, sk, lo in zip(pivots, rows, c, s, starts):
            expected = python_rotation_run(expected, i, [j], [ck], [sk], lo)
        got = w.copy()
        apply_rotations(got, pivots.tolist(), rows.tolist(), c, s, starts.tolist())
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_empty_schedule_is_identity(self):
        out = np.eye(3)
        empty = np.empty(0)
        apply_rotations(out, [], [], empty, empty, [])
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
