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
    return (code[:, None, :] != code[None, :, :]).sum(axis=-1).astype(np.int64)


def fwht(x):
    """Unnormalized Walsh-Hadamard transform of a power-of-two-length vector;
    returns a new float64 array and leaves x untouched."""
    y = np.array(x, dtype=np.float64)
    n = y.shape[0]
    h = 1
    while h < n:
        y = y.reshape(-1, 2 * h)
        even = y[:, :h].copy()
        y[:, :h] += y[:, h:]
        y[:, h:] = even - y[:, h:]
        y = y.reshape(n)
        h *= 2
    return y


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


def apply_rotations(js, iss, gammas, dim, flip_last):
    # product of plane rotations (schedule order) times the optional
    # trailing sign flip of the last axis; js/iss are 0-based here
    R = np.eye(dim)
    if flip_last:
        R[dim - 1, dim - 1] = -1.0
    for k in range(js.shape[0] - 1, -1, -1):
        j = int(js[k])
        i = int(iss[k])
        c = math.cos(gammas[k])
        s = math.sin(gammas[k])
        rot = np.array([[c, -s], [s, c]])
        R[[i, j], :] = rot @ R[[i, j], :]
    return R
