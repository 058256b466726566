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

Every function here takes kappa as a number or as an array of any shape.
group_root stacks the roots along the leading axes; the reductions
(information, error, profiles, gains) compute the roots of at most _BLOCK
entries at a time, reduce that block and go on, so memory stays flat
however long the grid. A scalar kappa gives each reduction as a float,
and an array gives bit for bit the values of its entries taken one at a
time.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from ._kernels import fwht
from .ensembles import Code
from .errors import InvalidInput, NoRoot, ResourceLimit
from .information import _kappa_array, _scalar_or_array, c1_binary


# root entries per block of the batched reductions (128 KiB of float64)
_BLOCK = 1 << 14
# largest code dimension k the group route takes. A one-column fig2 (99
# kappa) on a 2-core machine takes 72 s and 202 MB at k = 22 (n = 23), and
# 128.6 s and 366 MB at k = 23 with the guard lifted; the guard is raised
# together with the planned positive-sum spectrum, and re-measured on it
_MAX_GROUP_K = 22
# bracket width at which find_kappa_star stops bisecting
_KAPPA_STAR_WIDTH = 1e-6


class SimplexProfile(NamedTuple):
    u: float
    v: float
    info_bits: float
    error_probability: float


def _xlog2x(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0.0, x, 1.0)
    return x * np.log2(safe)


def _independent(words):
    """For each word in turn, whether it is outside the GF(2) span of the
    words before it: whether it reduces to nonzero against their XOR basis,
    whose leading bits are distinct."""
    basis = []
    for word in words:
        for b in basis:
            word = min(word, word ^ b)
        if word:
            basis.append(word)
        yield word != 0


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
    distinct = list(set(words.tolist()))
    generators = []
    for word, new in zip(distinct, _independent(distinct)):
        if new:
            generators.append(word)
            if 1 << len(generators) > m:
                return None
    return tuple(generators)


@functools.lru_cache(maxsize=64)
def _span_weights(generators: tuple, n: int) -> np.ndarray:
    """Hamming weight of the codeword of every message, message bit i
    selecting generator i. Before allocating anything, raises InvalidInput
    for n > 64, whose words do not fit 64 bits, or for generators that are
    not independent n-bit words, and ResourceLimit for more than
    _MAX_GROUP_K generators."""
    if n > 64:
        raise InvalidInput(f"the group route holds words of at most 64 letters, got n = {n}")
    if len(generators) > _MAX_GROUP_K:
        raise ResourceLimit(
            f"the group route holds 2**k roots per kappa; guarded at k <= {_MAX_GROUP_K}, "
            f"got k = {len(generators)}"
        )
    if not all(0 <= g < 1 << n for g in generators) or not all(_independent(generators)):
        raise InvalidInput(f"generators must be independent {n}-bit words")
    words = np.zeros(1, dtype=np.uint64)
    for g in generators:
        words = np.concatenate([words, words ^ np.uint64(g)])
    weights = np.bitwise_count(words)
    weights.flags.writeable = False
    return weights


def _roots(weights: np.ndarray, n: int, k: np.ndarray) -> np.ndarray:
    spectrum = fwht((k[..., None] ** np.arange(n + 1))[..., weights])
    return fwht(np.sqrt(np.clip(spectrum, 0.0, None))) / weights.size


def group_root(generators, n: int, kappa) -> np.ndarray:
    """First row g of the Gram square root of the linear code spanned by
    `generators` (n-bit ints), indexed by message: the channel row is g**2,
    the information k + sum g**2 log2 g**2 and the error 1 - g[0]**2.
    Eigenvalues below zero from round-off are clipped. For an array of
    kappa the roots stack along the leading axes, shape kappa.shape + (M,)."""
    k = _kappa_array(kappa, collapse_at_one=True)
    return _roots(_span_weights(tuple(generators), n), n, k)


def _reduce_roots(generators, n: int, kappa, *reductions):
    """Each reduction (a block of roots, shape (b, M), to b numbers) over
    the roots of every kappa, computed and reduced at most _BLOCK root
    entries at a time. One result per reduction, shaped like kappa (a
    float for a scalar kappa)."""
    k = _kappa_array(kappa, collapse_at_one=True)
    weights = _span_weights(tuple(generators), n)
    flat = k.reshape(-1)
    out = np.empty((len(reductions), flat.size))
    rows = max(1, _BLOCK // weights.size)
    for lo in range(0, flat.size, rows):
        g = _roots(weights, n, flat[lo : lo + rows])
        for column, reduce in zip(out, reductions):
            column[lo : lo + rows] = reduce(g)
    return [_scalar_or_array(column.reshape(k.shape)) for column in out]


def _root_information(g: np.ndarray) -> np.ndarray:
    return np.log2(g.shape[-1]) + np.sum(_xlog2x(g * g), axis=-1)


def _root_error(g: np.ndarray) -> np.ndarray:
    return 1.0 - g[:, 0] ** 2


def group_information(generators, n: int, kappa):
    """Mutual information in bits of the linear code spanned by
    `generators` under its square-root measurement; broadcasts over
    kappa."""
    (info,) = _reduce_roots(generators, n, kappa, _root_information)
    return info


def _nn12_generators(n: int) -> list:
    if n < 3:
        raise InvalidInput(f"block length must be at least 3, got {n}")
    return [1 | 1 << i for i in range(1, n)]


def nn12_mutual_information(n: int, kappa):
    """Information of the even-weight [[n, n-1, 2]] code in bits;
    broadcasts over kappa."""
    return group_information(_nn12_generators(n), n, kappa)


def nn12_error_probability(n: int, kappa):
    """Block decoding error 1 - g[0]**2 of the even-weight code; broadcasts
    over kappa."""
    (error,) = _reduce_roots(_nn12_generators(n), n, kappa, _root_error)
    return error


def simplex_profile(r: int, kappa) -> SimplexProfile:
    """Square-root profile of the equidistant [[2**r - 1, r, 2**(r-1)]]
    code: the diagonal root entry u, the common off-diagonal entry v, the
    information and the block error, all from one pass over the roots.
    Each field broadcasts over kappa."""
    if r < 2:
        raise InvalidInput(f"rank must be at least 2, got {r}")
    generators = [sum(((c >> i) & 1) << (c - 1) for c in range(1, 2**r)) for i in range(r)]
    return SimplexProfile(
        *_reduce_roots(
            generators,
            2**r - 1,
            kappa,
            lambda g: g[:, 0],
            lambda g: g[:, 1],
            _root_information,
            _root_error,
        )
    )


def block_gain(n: int, kappa):
    """Per-letter information of the length-n reference code minus the
    single-use optimum; broadcasts over kappa. n >= 3 is the even-weight
    family, n = 2 the block {00, 11}: one letter pair of overlap kappa**2."""
    if n < 2:
        raise InvalidInput(f"block gain needs n >= 2, got {n}")
    if n == 2:
        k = _kappa_array(kappa, collapse_at_one=True)
        return c1_binary(k * k) / 2.0 - c1_binary(k)
    return nn12_mutual_information(n, kappa) / n - c1_binary(kappa)


def find_kappa_star(n: int) -> float:
    """Zero crossing of the per-letter gain: the first sign change on a
    99-point grid, bisected to width 1e-6.

    The search calls block_gain on arrays of at most _BLOCK // M kappa
    (M = 2**(n-1), one block of the root reductions), whose entries have
    their scalar bits. The scan takes the grid a block at a time, each
    block's sign test taking in the last point of the block before, and
    stops at the first block holding a crossing. Each bisection call splits
    the bracket d times, each new end 0.5 * (lo + hi) of its neighbours, and
    keeps the interval ending at the first of the 2**d - 1 interior points
    with positive gain (the last one if none is); d spreads the levels still
    needed evenly over the fewest calls that fit a block. Those points are
    the midpoints a one-point bisection reaches in d steps, so where their
    signs are monotone, as when the gain crosses once inside the scan's
    0.01-wide bracket, the result has that bisection's bits."""
    if n < 2:
        raise InvalidInput(f"crossing search needs n >= 2, got {n}")
    rows = max(1, _BLOCK >> (n - 1))
    grid = np.linspace(0.01, 0.99, 99)
    values = np.empty_like(grid)
    for start in range(0, grid.size, rows):
        stop = min(start + rows, grid.size)
        values[start:stop] = block_gain(n, grid[start:stop])
        change = np.flatnonzero((values[: stop - 1] <= 0.0) & (values[1:stop] > 0.0))
        if change.size:
            break
    else:
        raise NoRoot(f"gain has no negative-to-positive crossing for n={n}")
    lo, hi = grid[change[0]], grid[change[0] + 1]
    most_levels = (rows + 1).bit_length() - 1
    while hi - lo > _KAPPA_STAR_WIDTH:
        levels = math.ceil(math.log2((hi - lo) / _KAPPA_STAR_WIDTH))
        calls = -(-levels // most_levels)
        depth = -(-levels // calls)
        ends = np.array([lo, hi])
        for _ in range(depth):
            ends = np.insert(ends, np.arange(1, ends.size), 0.5 * (ends[:-1] + ends[1:]))
        # the first positive interior point ends the kept interval; with
        # none, the appended end does
        j = np.argmax(np.append(block_gain(n, ends[1:-1]) > 0.0, True))
        lo, hi = ends[j], ends[j + 1]
    return 0.5 * (lo + hi)
