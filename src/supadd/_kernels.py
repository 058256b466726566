"""Hot numerical kernels, one numpy implementation each, and the formulas
and codeword bit layout (first letter most significant) that modules share."""

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


def _overlaps(kappa, distances: np.ndarray, n: int) -> np.ndarray:
    """kappa**distances for distances in 0..n, bit for bit as
    np.float_power gives them, looked up in a table of the n + 1 powers."""
    return np.float_power(kappa, np.arange(n + 1))[distances]


def _pack_bits(bits) -> np.ndarray:
    """The integers of 0/1 rows of at most 64 bits, most significant bit
    first, as uint64: the inverse of ensembles.int_bits."""
    bits = np.asarray(bits)
    shifts = np.arange(bits.shape[1] - 1, -1, -1, dtype=np.uint64)
    return np.bitwise_or.reduce(bits.astype(np.uint64) << shifts, axis=1)


def _xor_span(words) -> np.ndarray:
    """XOR of the words each index selects, index bit t selecting words[t]."""
    span = np.zeros(1, dtype=np.int64)
    for word in words:
        span = np.concatenate([span, span ^ word])
    return span


def _columns(generators, n: int) -> list:
    """Each letter's column of the generator matrix, bit j from generator j."""
    return [sum((g >> (n - 1 - i) & 1) << j for j, g in enumerate(generators)) for i in range(n)]


def _helstrom_error(kappa, xi1):
    """detection.helstrom_binary's error, as 2 xi1 xi2 kappa**2 / (1 + sqrt(...))."""
    q = 4.0 * xi1 * (1.0 - xi1) * kappa * kappa
    return 0.5 * q / (1.0 + np.sqrt(1.0 - q))


def _threshold_error(p, n: int):
    """1 - (1 - p)**n with no cancellation, as -expm1(n log1p(-p))."""
    return -np.expm1(n * np.log1p(-p))


def fwht(x):
    """Unnormalized Walsh-Hadamard transform along the last axis, whose
    length N must be a power of two; returns a new C-ordered float64 array
    and leaves x untouched.

    The output is C-ordered whatever the order of x (a fancy-indexed
    x[..., idx] comes out Fortran-ordered), so a later sum along the last
    axis adds every row in the same order as for a lone vector, and a
    batch of rows gives bit for bit the rows transformed one at a time.

    Every stage runs over the whole batch, flattened, as one add and one
    subtract from one buffer into the other: the sum and the difference
    of each adjacent pair (2j, 2j + 1) go to j and to j + size/2. Each
    operand is then one run (stride 2 in, contiguous out), where a
    butterfly in place at h = 1, 2, 4, ... works on runs of h entries.
    The move takes the lowest bit of the flat index to the top, so stage
    s pairs the entries whose column indices differ in bit s, as the
    in-place stage h = 2**s does, and in the same order: every entry is
    the same sum of the same pairs, so the bits are the same. After
    log2 N stages the column bits are on top and the buffer holds the
    transpose, (N, rows), which a last copy turns back. The work takes
    two buffers the size of x.
    """
    x = np.asarray(x)
    shape = x.shape
    rows = x.size // shape[-1]
    half = x.size // 2
    src = np.empty(x.size)
    dst = np.empty(x.size)
    np.copyto(src.reshape(shape), x)
    h = 1
    while h < shape[-1]:
        np.add(src[0::2], src[1::2], out=dst[:half])
        np.subtract(src[0::2], src[1::2], out=dst[half:])
        src, dst = dst, src
        h *= 2
    if rows > 1:
        np.copyto(dst.reshape(rows, -1), src.reshape(-1, rows).T)
        src = dst
    return src.reshape(shape)


def bayes_residual(X, xi):
    """Largest violation of the pairwise balance xi_i X_ii X_ji = xi_j X_ij X_jj
    for the overlap matrix X[i, j] = <omega_i|rho_j>."""
    lhs = (xi * np.diag(X))[:, None] * X.T
    return float(np.abs(lhs - lhs.T).max())


def bayes_error(X, xi):
    """Average error 1 - sum_i xi_i X_ii**2 of the overlap matrix
    X[i, j] = <omega_i|rho_j>, or 0 where rounding takes the sum above 1
    (unit rows make it at most 1)."""
    return max(1.0 - float(np.sum(xi * np.square(np.diag(X)))), 0.0)


def _antidiagonals(m):
    """The pairs i < j of range(m) as one (i, j) pair of index arrays per
    anti-diagonal t = i + j, t = 1 ... 2m - 3, i increasing."""
    starts = [(t, np.arange(max(0, t - m + 1), (t + 1) // 2)) for t in range(1, 2 * m - 2)]
    return [(i, t - i) for t, i in starts]


def bayes_sweeps(X, rows, xi, tol, max_sweeps):
    """Pairwise-rotation sweeps of the measurement rows mu_i toward the
    minimum-error optimum, for X[i, j] = <mu_i|rho_j> and priors xi.

    A sweep turns every pair of rows i < j once, in lexicographic order
    (0, 1), (0, 2), ..., (M-2, M-1), by the angle that balances the pair;
    sweeps run until bayes_residual(X, xi) <= tol or max_sweeps are done.
    X and rows are turned together and updated in place. Returns the
    errors, each a bayes_error: that of the starting overlaps and then
    after each sweep (so len(errors) - 1 sweeps ran). X and rows equal,
    bit for bit, those of one scalar rotation at a time: the pairs of an
    anti-diagonal t = i + j turn at once, on disjoint rows, and row i
    meets its pairs in lexicographic order on t = i, ..., 2i - 1, 2i + 1,
    ..., i + M - 1.
    The angles take math's trig (numpy's SIMD loops may differ in the
    last bit); (-s) a + c x has the bits of c x - s a.
    """
    M, W = X.shape[0], X.shape[1] + rows.shape[1]
    # the overlaps and the rows side by side: one row pair per rotation
    XR = np.hstack([X, rows])
    overlaps = XR[:, : X.shape[1]]
    batches = []
    for i, j in _antidiagonals(M):
        # X[i, i], X[j, i], X[j, j], X[i, j] of each pair, then its rows
        entries = np.stack([i * W + i, j * W + i, j * W + j, i * W + j])
        batches.append((entries, np.stack([i, j]), xi[i].tolist(), xi[j].tolist()))
    errors = [bayes_error(overlaps, xi)]
    residual = bayes_residual(overlaps, xi)
    while len(errors) <= max_sweeps and residual > tol:
        for entries, pair, pi, pj in batches:
            thetas = []
            for p, q, v0, v1, w0, u in zip(pi, pj, *XR.take(entries).tolist()):
                a = p * v0 * v0 + q * w0 * w0
                b = p * v0 * v1 + q * w0 * -u
                d = p * v1 * v1 + q * -u * -u
                thetas.append(0.5 * math.atan2(2.0 * b, a - d))
            cs, ss = [math.cos(t) for t in thetas], [math.sin(t) for t in thetas]
            coef = np.array(cs + ss + [-s for s in ss] + cs).reshape(2, 2, -1, 1)
            out = coef * XR.take(pair, axis=0)  # [[c a, s x], [-s a, c x]]
            XR[pair] = out[:, 0] + out[:, 1]
        errors.append(bayes_error(overlaps, xi))
        residual = bayes_residual(overlaps, xi)
    X[...] = overlaps
    rows[...] = XR[:, X.shape[1]:]
    return np.array(errors)


def apply_rotations(w, pivots, rows, c, s, start):
    """Apply plane rotations to the columns start: of w in place, in order
    k = 0, 1, ...

    Rotation k pairs the pivot row a = w[pivots[k]] with the row
    x = w[rows[k]] and sets a <- c_k a + s_k x and x <- c_k x - s_k a, in
    place through two scratch rows. A row must differ from its pivot.
    """
    w = w[:, start:]
    ta, tx = np.empty(w.shape[1]), np.empty(w.shape[1])
    for i, j, ck, sk in zip(pivots, rows, c, s):
        a, x = w[i], w[j]
        np.multiply(a, sk, out=ta)
        np.multiply(x, sk, out=tx)
        a *= ck
        a += tx
        x *= ck
        x -= ta
