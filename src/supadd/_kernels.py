"""Hot numerical kernels, one numpy implementation each."""

import math

import numpy as np


def mi_bits(xi, P):
    q = xi @ P
    mask = (P > 0.0) & (q[None, :] > 0.0) & (xi[:, None] > 0.0)
    ratio = np.ones_like(P)
    np.divide(P, np.broadcast_to(q, P.shape), out=ratio, where=mask)
    terms = np.zeros_like(P)
    np.multiply(xi[:, None] * P, np.log2(ratio), out=terms, where=mask)
    return float(terms.sum())


def hamming_matrix(code):
    """Pairwise Hamming distances of the rows of an (M, n) 0/1 array, as
    an (M, M) int64 array. Each row is packed into 64-bit words, so a pair
    of rows costs one XOR and one popcount per word; the temporaries are
    about 9 bytes per pair beside the result."""
    packed = np.packbits(np.asarray(code, dtype=np.uint8), axis=1)
    words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    out = np.zeros((len(words), len(words)), dtype=np.int64)
    for column in words.T:
        out += np.bitwise_count(column[:, None] ^ column)
    return out


def fwht(x):
    """Unnormalized Walsh-Hadamard transform along the last axis, whose
    length must be a power of two; returns a new C-ordered float64 array
    and leaves x untouched.

    The output is C-ordered whatever the order of x (a fancy-indexed
    x[..., idx] comes out Fortran-ordered), so a later sum along the last
    axis adds every row in the same order as for a lone vector, and a
    batch of rows gives bit for bit the rows transformed one at a time.
    """
    y = np.array(x, dtype=np.float64, order="C")
    shape = y.shape
    h = 1
    while h < shape[-1]:
        y = y.reshape(-1, 2 * h)
        even = y[:, :h].copy()
        y[:, :h] += y[:, h:]
        y[:, h:] = even - y[:, h:]
        h *= 2
    return y.reshape(shape)


def bayes_residual(X, xi):
    """Largest violation of the pairwise balance xi_i X_ii X_ji = xi_j X_ij X_jj
    for the overlap matrix X[i, j] = <omega_i|rho_j>."""
    lhs = (xi * np.diag(X))[:, None] * X.T
    res = np.abs(lhs - lhs.T)
    np.fill_diagonal(res, 0.0)
    return float(res.max())


def bayes_sweeps(X, xi, tol, max_sweeps):
    # X[i,j] = <mu_i|rho_j>, mutated in place; V accumulates the rotations
    M = X.shape[0]
    V = np.eye(M)
    errors = []
    residual = bayes_residual(X, xi)
    sweeps = 0
    while sweeps < max_sweeps and residual > tol:
        for i in range(M - 1):
            for j in range(i + 1, M):
                v0, v1 = X[i, i], X[j, i]
                w0, w1 = X[j, j], -X[i, j]
                a = xi[i] * v0 * v0 + xi[j] * w0 * w0
                b = xi[i] * v0 * v1 + xi[j] * w0 * w1
                d = xi[i] * v1 * v1 + xi[j] * w1 * w1
                theta = 0.5 * math.atan2(2.0 * b, a - d)
                c = math.cos(theta)
                s = math.sin(theta)
                rot = np.array([[c, s], [-s, c]])
                X[[i, j], :] = rot @ X[[i, j], :]
                V[[i, j], :] = rot @ V[[i, j], :]
        errors.append(1.0 - float(np.sum(xi * np.diag(X) ** 2)))
        sweeps += 1
        residual = bayes_residual(X, xi)
    return V, np.array(errors), residual, sweeps


def apply_rotations(w, pivots, rows, c, s, starts):
    """Apply plane rotations to w in place, in order k = 0, 1, ...

    Rotation k pairs the pivot row a = w[pivots[k]] with the row
    x = w[rows[k]] over the columns starts[k]: and sets
    a <- c_k a + s_k x and x <- -s_k a + c_k x. A row must differ from its
    pivot.
    """
    for i, j, ck, sk, lo in zip(pivots, rows, c, s, starts):
        a, x = w[i, lo:], w[j, lo:]
        a[:], x[:] = ck * a + sk * x, ck * x - sk * a
