"""Square-root-measurement profiles of linear binary codes with equal
priors, in O(M log M) and without building any Gram matrix or
2**n-dimensional state; and code_information and code_error_probability of
any code, which _by_route sends to this route or the explicit Gram route.

The codewords of a linear code are the span of k generator words, so the
Gram entry kappa**wt(x ^ y) depends only on the message x ^ y: the Gram
matrix is a convolution over the group Z_2^k and the Walsh-Hadamard
transform diagonalizes it. Its eigenvalues are M times the class measure of
the zero word's state, psi_0**2 summed per class of axes; the first row g
of its square root is the transform of their square roots over M. Every
channel row of the square-root measurement, the minimum-error one for such
geometrically uniform states (Eldar & Forney, IEEE TIT 47, 858, 2001), is
a permutation of g**2. Classes are indexed in information-set coordinates,
so the numbers depend on the code's words, not their basis; no public
function takes generator words: linear_generators or a family gives them.

Every function here takes kappa as a number or as an array of any shape.
The reductions (information, error, profiles, gains) compute the roots of
at most _BLOCK entries at a time, reduce that block and go on, so memory
stays flat however long the grid. A scalar kappa gives each reduction as a
float, and an array gives bit for bit the values of its entries taken one
at a time.
"""

import functools
import math
from itertools import compress, islice
from typing import NamedTuple

import numpy as np

from ._checks import _check_int, _kappa_array, _scalar_or_array
from ._kernels import _columns, _overlaps, _pack_bits, _xor_span, fwht, mi_bits
from .detection import square_root_measurement
from .ensembles import Code, build_simplex_code, distances, nn12_generators
from .errors import InvalidInput, NoRoot, ResourceLimit
from .information import c1_binary


# root entries per block of the batched reductions (128 KiB of float64)
_BLOCK = 1 << 14
# largest code dimension k the group route takes; the README's "Limits and
# conventions" gives the one-column fig2 timings it rests on. k = 23 has
# not been measured on the class-measure spectrum
_MAX_GROUP_K = 22
# bracket width at which find_kappa_star stops bisecting
_KAPPA_STAR_WIDTH = 1e-6


class SimplexProfile(NamedTuple):
    u: float
    v: float
    info_bits: float
    error_probability: float


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
    """Generator words, as ints (first letter most significant), of the
    code translated by its smallest word, or None unless the priors are
    equal and the translate is linear: M is a power of two and the first
    log2 M independent words span its words. A code holding the zero word
    is translated by 0; any other is a coset of the code they span."""
    m = code.num_codewords
    if code.n > 64 or m & (m - 1):
        return None
    if np.abs(code.priors - 1.0 / m).max() > 1e-12:
        return None
    words = _pack_bits(code.codewords)
    words ^= words.min()
    distinct = list(set(words.tolist()))
    generators = list(islice(compress(distinct, _independent(distinct)), m.bit_length() - 1))
    # on the words' int64 view, as XOR is bitwise: a word of 64 letters passes 2**63
    span = _xor_span(np.array(generators, dtype=np.uint64).view(np.int64)).view(np.uint64)
    if not np.array_equal(np.sort(span), np.sort(words)):
        return None
    return tuple(generators)


def _by_route(code: Code, kappa, root_reduction, channel_reduction):
    """One number per kappa from the code's square-root measurement, shaped
    like kappa. A linear code with equal priors, or a coset of one, takes
    the group route, root_reduction of its roots; any other code the
    explicit Gram route, which computes the Hamming distances once and
    measures one kappa at a time, channel_reduction(priors, channel)."""
    generators = linear_generators(code)
    if generators is not None:
        (value,) = _reduce_roots(generators, code.n, kappa, root_reduction)
        return value
    k = _kappa_array(kappa, collapse_at_one=True)
    gram_distances = distances(code)
    out = np.empty(k.shape)
    for index, value in np.ndenumerate(k):
        _, channel = square_root_measurement(_overlaps(value, gram_distances, code.n))
        out[index] = channel_reduction(code.priors, channel)
    return _scalar_or_array(out)


def code_information(code: Code, kappa):
    """Mutual information of the code under square-root collective
    decoding, by _by_route; broadcasts over kappa."""
    return _by_route(code, kappa, _root_information, mi_bits)


def code_error_probability(code: Code, kappa):
    """Block decoding error sum_i xi_i sum_{j != i} P(j|i) of the code, by
    _by_route (1 - g[0]**2 on the group route); broadcasts over kappa."""
    return _by_route(code, kappa, _root_error, _channel_error)


def _channel_error(priors, channel) -> float:
    # sum_i xi_i sum_{j != i} P(j|i): no cancellation against the diagonal
    np.fill_diagonal(channel, 0.0)
    return np.sum(priors * channel.sum(axis=1))


def _too_long(n) -> InvalidInput:
    """Refusal of words of n > 64 letters, which pack into no uint64."""
    return InvalidInput(f"the group route holds words of at most 64 letters, got n = {n}")


@functools.lru_cache(maxsize=64)
def _span_layout(generators: tuple, n: int):
    """The code's class layout in the coordinates of its information set,
    bit t the t-th letter whose column is independent of the letters before
    it: each class's weight (its popcount) and the other nonzero columns,
    largest first. Any basis of the code, k words of n <= 64 bits, gives the
    same. Raises ResourceLimit, before allocating, for k > _MAX_GROUP_K."""
    if len(generators) > _MAX_GROUP_K:
        raise ResourceLimit(
            f"the group route holds 2**k roots per kappa; guarded at k <= {_MAX_GROUP_K}, "
            f"got k = {len(generators)}"
        )
    columns = _columns(generators, n)
    new = list(_independent(columns))
    basis = [c for c, first in zip(columns, new) if first]
    coordinates = np.empty(1 << len(basis), dtype=np.int64)
    coordinates[_xor_span(basis)] = np.arange(coordinates.size)
    weights = np.bitwise_count(np.arange(coordinates.size))
    weights.flags.writeable = False
    rest = [coordinates[c].item() for c, first in zip(columns, new) if c and not first]
    return weights, tuple(sorted(rest, reverse=True))


def _class_roots(layout, k: np.ndarray):
    """Roots sqrt(mu / M) of the class measure mu = *_i (a**2 delta_0 + b**2
    delta_{c_i}), c_i letter i's column, shaped k.shape + (M,).
    a**2 + b**2 = 1 exactly: mu is that of a kappa within 1.1e-16 of k, and
    sums to 1 up to the rounding of its products."""
    weights, rest = layout
    a2 = ((1.0 + k) / 2.0)[..., None]
    b2 = 1.0 - a2
    powers = np.arange(weights.size.bit_length())
    # np.take keeps rows C-ordered, so each sums as it would alone
    mu = np.take(a2 ** powers[::-1] * b2**powers, weights, axis=-1)
    for c in rest:
        mu = a2 * mu + b2 * np.take(mu, np.arange(weights.size) ^ c, axis=-1)
    return np.sqrt(mu / weights.size)


def _roots(layout, k: np.ndarray):
    """_class_roots and their transform g, each shaped k.shape + (M,)."""
    root = _class_roots(layout, k)
    return root, fwht(root)


def _reduce_roots(generators, n: int, kappa, *reductions):
    """Each reduction (a block's roots and root rows, (b, M) each, to b
    numbers) over every kappa, at most _BLOCK root entries at a time. One
    result per reduction, shaped like kappa (a float for a scalar kappa).
    When _root_error, which reads only the roots, is the only reduction,
    the rows are None and no transform is taken."""
    k = _kappa_array(kappa, collapse_at_one=True)
    layout = _span_layout(tuple(generators), n)
    flat = k.reshape(-1)
    out = np.empty((len(reductions), flat.size))
    rows = max(1, _BLOCK // layout[0].size)
    transform = any(reduce is not _root_error for reduce in reductions)
    for lo in range(0, flat.size, rows):
        if transform:
            root, g = _roots(layout, flat[lo : lo + rows])
        else:
            root, g = _class_roots(layout, flat[lo : lo + rows]), None
        for column, reduce in zip(out, reductions):
            column[lo : lo + rows] = reduce(root, g)
    return [_scalar_or_array(column.reshape(k.shape)) for column in out]


def _root_information(root: np.ndarray, g: np.ndarray) -> np.ndarray:
    p = g * g
    return np.log2(g.shape[-1]) + np.sum(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=-1)


def _root_error(root: np.ndarray, g: np.ndarray) -> np.ndarray:
    """1 - g[0]**2 as M sum (root - mean root)**2, equal since sum mu = 1,
    with no cancellation where g[0] is near 1."""
    return root.shape[-1] * np.sum((root - root.mean(axis=-1, keepdims=True)) ** 2, axis=-1)


def _nn12_generators(n: int):
    """The even-weight code's generator words and its length n, checked first."""
    n = _check_int(n, 2, "block length")
    if n > 64:
        raise _too_long(n)
    return nn12_generators[: n - 1], n


def nn12_mutual_information(n: int, kappa):
    """Information of the even-weight [[n, n-1, 2]] code in bits;
    broadcasts over kappa."""
    (info,) = _reduce_roots(*_nn12_generators(n), kappa, _root_information)
    return info


def nn12_error_probability(n: int, kappa):
    """Block decoding error 1 - g[0]**2 of the even-weight code; broadcasts
    over kappa."""
    (error,) = _reduce_roots(*_nn12_generators(n), kappa, _root_error)
    return error


def simplex_profile(r: int, kappa) -> SimplexProfile:
    """Square-root profile of build_simplex_code(r), the equidistant
    [[2**r - 1, r, 2**(r-1)]] code: the diagonal root entry u, the common
    off-diagonal entry v, the information and the block error, all from
    one pass over the roots. Each field broadcasts over kappa."""
    r = _check_int(r, 2, "rank")
    # 2**r - 1 letters: past 64 before 2**r is formed
    if r > 6:
        raise _too_long(f"2**{r} - 1")
    generators = _pack_bits(build_simplex_code(r).codewords[1 << np.arange(r)]).tolist()
    fields = (lambda root, g: g[:, 0], lambda root, g: g[:, 1], _root_information, _root_error)
    return SimplexProfile(*_reduce_roots(generators, 2**r - 1, kappa, *fields))


def block_gain(n: int, kappa):
    """Per-letter information of the even-weight code of length n >= 2
    minus the single-use optimum; broadcasts over kappa. At n = 2 the code
    is {00, 11}, one letter pair of overlap kappa**2, which gains nothing."""
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
    n = _check_int(n, 2, "block length")
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
