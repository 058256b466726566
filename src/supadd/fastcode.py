"""Square-root-measurement profiles of linear binary codes with equal
priors, in O(M log M) and without building any Gram matrix or
2**n-dimensional state.

The codewords of a linear code are the span of k generator words, so the
Gram entry kappa**wt(x ^ y) depends only on the message x ^ y: the Gram
matrix is a convolution over the group Z_2^k and the Walsh-Hadamard
transform diagonalizes it. Its eigenvalues are the transform of
kappa**wt(span); the first row g of its square root is the transform of
their square roots over M. Every channel row of the square-root
measurement is a permutation of g**2, and that measurement is the
minimum-error one for such geometrically uniform states (Eldar & Forney,
IEEE TIT 47, 858, 2001). The even-weight [[n, n-1, 2]] and simplex
[[2**r - 1, r, 2**(r-1)]] families are two generator lists.
"""

import functools
from typing import NamedTuple

import numpy as np

from ._kernels import fwht
from .ensembles import Code
from .errors import InvalidInput, LinearDependence, NoRoot
from .information import binary_flip_probability, c1_binary, _h2


class SimplexProfile(NamedTuple):
    u: float
    v: float
    info_bits: float
    error_probability: float


def _check_kappa(kappa: float):
    if kappa == 1.0:
        raise LinearDependence("kappa = 1 collapses the codeword states")
    if not 0.0 <= kappa < 1.0:
        raise InvalidInput(f"kappa must lie in [0, 1), got {kappa}")


def _xlog2x(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0.0, x, 1.0)
    return x * np.log2(safe)


def linear_generators(code: Code):
    """Generator words of the code as ints (first letter most significant),
    or None unless the code is linear with equal priors. Linear means the
    codewords span no more than M words; then they are closed under XOR,
    hold the zero word and M is a power of two."""
    m = code.num_codewords
    if code.n > 64:
        return None
    if np.abs(code.priors - 1.0 / m).max() > 1e-12:
        return None
    shifts = np.arange(code.n - 1, -1, -1, dtype=np.uint64)
    words = np.bitwise_or.reduce(code.codewords.astype(np.uint64) << shifts, axis=1)
    span = {0}
    generators = []
    for word in set(words.tolist()):
        if word in span:
            continue
        span |= {s ^ word for s in span}
        if len(span) > m:
            return None
        generators.append(word)
    return tuple(generators)


@functools.lru_cache(maxsize=64)
def _span_weights(generators: tuple, n: int) -> np.ndarray:
    """Hamming weight of the codeword of every message, message bit i
    selecting generator i."""
    words = np.zeros(1, dtype=np.uint64)
    for g in generators:
        words = np.concatenate([words, words ^ np.uint64(g)])
    if int(words.max()) >> n or len(set(words.tolist())) != words.size:
        raise InvalidInput(f"generators must be independent {n}-bit words")
    weights = np.bitwise_count(words)
    weights.flags.writeable = False
    return weights


def group_root(generators, n: int, kappa: float) -> np.ndarray:
    """First row g of the Gram square root of the linear code spanned by
    `generators` (n-bit ints), indexed by message: the channel row is g**2,
    the information k + sum g**2 log2 g**2 and the error 1 - g[0]**2.
    Eigenvalues below zero from round-off are clipped."""
    _check_kappa(kappa)
    weights = _span_weights(tuple(generators), n)
    spectrum = fwht((kappa ** np.arange(n + 1))[weights])
    return fwht(np.sqrt(np.clip(spectrum, 0.0, None))) / weights.size


def _root_information(g: np.ndarray) -> float:
    return float(np.log2(g.size) + np.sum(_xlog2x(g * g)))


def group_information(generators, n: int, kappa: float) -> float:
    """Mutual information in bits of the linear code spanned by
    `generators` under its square-root measurement."""
    return _root_information(group_root(generators, n, kappa))


def _nn12_generators(n: int) -> list:
    if n < 3:
        raise InvalidInput(f"block length must be at least 3, got {n}")
    return [1 | 1 << i for i in range(1, n)]


def nn12_mutual_information(n: int, kappa: float) -> float:
    """Information of the even-weight [[n, n-1, 2]] code in bits."""
    return group_information(_nn12_generators(n), n, kappa)


def nn12_error_probability(n: int, kappa: float) -> float:
    """Block decoding error 1 - g[0]**2 of the even-weight code."""
    return float(1.0 - group_root(_nn12_generators(n), n, kappa)[0] ** 2)


def simplex_profile(r: int, kappa: float) -> SimplexProfile:
    """Square-root profile of the equidistant [[2**r - 1, r, 2**(r-1)]]
    code: the diagonal root entry u, the common off-diagonal entry v, the
    information and the block error."""
    if r < 2:
        raise InvalidInput(f"rank must be at least 2, got {r}")
    generators = [sum(((c >> i) & 1) << (c - 1) for c in range(1, 2**r)) for i in range(r)]
    g = group_root(generators, 2**r - 1, kappa)
    return SimplexProfile(
        u=float(g[0]),
        v=float(g[1]),
        info_bits=_root_information(g),
        error_probability=float(1.0 - g[0] ** 2),
    )


def pair_block_information(kappa: float) -> float:
    """Information of the two-codeword length-2 block {00, 11} under its
    minimum-error measurement (a binary symmetric channel on overlap
    kappa**2)."""
    _check_kappa(kappa)
    q = binary_flip_probability(kappa * kappa)
    return 1.0 - _h2(q)


def block_gain(n: int, kappa: float) -> float:
    """Per-letter information of the length-n reference code minus the
    single-use optimum (n=2 is the two-codeword block, n>=3 the
    even-weight family)."""
    if n < 2:
        raise InvalidInput(f"block gain needs n >= 2, got {n}")
    if n == 2:
        return pair_block_information(kappa) / 2.0 - c1_binary(kappa)
    return nn12_mutual_information(n, kappa) / n - c1_binary(kappa)


def find_kappa_star(n: int, tol: float = 1e-6) -> float:
    """Zero crossing of the per-letter gain: scans a 99-point grid for the
    first sign change, then bisects to width tol."""
    if n < 2:
        raise InvalidInput(f"crossing search needs n >= 2, got {n}")
    grid = np.linspace(0.01, 0.99, 99)
    values = np.array([block_gain(n, k) for k in grid])
    change = np.flatnonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))
    if change.size == 0:
        raise NoRoot(f"gain has no negative-to-positive crossing for n={n}")
    lo, hi = grid[change[0]], grid[change[0] + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if block_gain(n, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
