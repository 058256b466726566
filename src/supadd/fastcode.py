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

When every column outside the information set is the all-ones class, as
on the even-weight codes, each root depends on its class's weight alone.
Such a layout is symmetric: the roots stay a table of k + 1 weights, and
fwht_by_weight transforms it with fwht's own additions, so the rows have
the bits they have on any other layout, where the roots come per class
and fwht transforms them.

Every function here takes kappa as a number or as an array of any shape.
The reductions (information, error, profiles, gains) compute the roots of
at most _BLOCK entries at a time, reduce that block and go on, so memory
stays flat however long the grid. A scalar kappa gives each reduction as a
float, and an array gives bit for bit the values of its entries taken one
at a time.
"""

import functools
from itertools import compress, islice
from typing import NamedTuple

import numpy as np

from ._checks import _check_int, _kappa_array, _scalar_or_array
from ._kernels import _columns, _overlaps, _pack_bits, _xor_span, fwht, fwht_by_weight, mi_bits
from .detection import square_root_measurement
from .ensembles import Code, build_simplex_code, distances, nn12_generators
from .errors import InvalidInput, NoRoot, ResourceLimit
from .information import c1_binary


# root entries per block of the batched reductions (128 KiB of float64)
_BLOCK = 1 << 14
# largest code dimension k the group route takes; the README's "Limits and
# conventions" gives the one-column timings it rests on, of the even-weight
# codes on their weight table and of a code whose roots come per class.
# k = 23 has been measured on the weight table only
_MAX_GROUP_K = 22


class SimplexProfile(NamedTuple):
    u: float
    v: float
    info_bits: float
    error_probability: float


def _eliminate(word, reduced):
    """word reduced against a basis in GF(2), reduced a list of pairs
    (basis word, x) whose basis words have distinct leading bits: the
    remainder, and the XOR of the x of the basis words taken out."""
    x = 0
    for b, y in reduced:
        if word ^ b < word:
            word ^= b
            x ^= y
    return word, x


def _independent(words):
    """For each word in turn, whether it is outside the GF(2) span of the
    words before it: whether it reduces to nonzero against their basis."""
    reduced = []
    for word in words:
        word, _ = _eliminate(word, reduced)
        if word:
            reduced.append((word, 0))
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


class _Layout(NamedTuple):
    """A code's class layout: each class's weight and the further columns."""

    weights: np.ndarray
    rest: tuple

    @property
    def symmetric(self) -> bool:
        """Whether every further column is the all-ones class, whose flip
        takes weight w to k - w: then each root depends on its class's
        weight alone, as on the even-weight codes and the [3, 2] simplex."""
        return self.rest.count(self.weights.size - 1) == len(self.rest)


@functools.lru_cache(maxsize=64)
def _span_layout(generators: tuple, n: int) -> _Layout:
    """The code's class layout in the coordinates of its information set,
    bit t the t-th letter whose column is independent of the letters before
    it: each class's weight (its popcount, uint8) and the other nonzero
    columns, largest first. Any basis of the code, k words of n <= 64 bits,
    gives the same. Raises ResourceLimit, before allocating, for
    k > _MAX_GROUP_K.

    A further column's coordinates come from GF(2) elimination against the
    information set, each reduced basis word carrying the coordinates of
    its sum, and the weights by doubling, w[x + 2**t] = w[x] + 1: the
    layout allocates its M weight bytes and no index of the span."""
    if len(generators) > _MAX_GROUP_K:
        raise ResourceLimit(
            f"the group route holds 2**k roots per kappa; guarded at k <= {_MAX_GROUP_K}, "
            f"got k = {len(generators)}"
        )
    reduced, rest = [], []
    for column in _columns(generators, n):
        word, x = _eliminate(column, reduced)
        if word:
            reduced.append((word, x ^ 1 << len(reduced)))
        elif x:
            rest.append(x)
    weights = np.zeros(1, dtype=np.uint8)
    for _ in reduced:
        weights = np.concatenate([weights, weights + 1])
    weights.flags.writeable = False
    return _Layout(weights, tuple(sorted(rest, reverse=True)))


def _power_table(k: np.ndarray, bits: int):
    """a**2 and b**2 = 1 - a**2, shaped k.shape + (1,), and the power table
    a**(2 (bits - w)) b**(2 w) / 2**bits of each weight w, shaped
    k.shape + (bits + 1,); 2**bits is a power of two, so each entry above
    the subnormal range is scaled exactly."""
    a2 = ((1.0 + k) / 2.0)[..., None]
    b2 = 1.0 - a2
    powers = np.arange(bits + 1)
    return a2, b2, a2 ** powers[::-1] * b2**powers / (1 << bits)


def _class_roots(layout, k: np.ndarray):
    """Roots sqrt(mu / M) of the class measure mu = *_i (a**2 delta_0 + b**2
    delta_{c_i}), c_i letter i's column, shaped k.shape + (M,), on any
    layout. a**2 + b**2 = 1 exactly: mu is that of a kappa within 1.1e-16
    of k, and sums to 1 up to the rounding of its products.

    mu starts as _power_table gathered by each class's weight. Each further
    column c moves mu by x -> x ^ c with no index: on the view of mu as
    k.shape + (2,)*bits, whose axis k.ndim + bits - 1 - t holds bit t of
    the class, that is a flip of the axes of c's set bits. b**2 times the
    flip goes to one buffer, and mu is updated in place, with the products
    and sums of a**2 mu + b**2 mu[x ^ c]. _weight_roots takes the same
    steps on the power table of a symmetric layout."""
    weights, rest = layout
    bits = weights.size.bit_length() - 1
    a2, b2, table = _power_table(k, bits)
    # np.take keeps rows C-ordered, so each sums as it would alone
    mu = np.take(table, weights, axis=-1)
    if rest:
        cube = mu.reshape(k.shape + (2,) * bits)
        moved = np.empty_like(cube)
        a2, b2 = (x.reshape(k.shape + (1,) * bits) for x in (a2, b2))
        for c in rest:
            axes = tuple(k.ndim + bits - 1 - t for t in range(bits) if c >> t & 1)
            np.multiply(b2, np.flip(cube, axes), out=moved)
            cube *= a2
            cube += moved
    return np.sqrt(mu, out=mu)


def _weight_roots(layout, k: np.ndarray):
    """On a symmetric layout, the roots of _class_roots per weight, shaped
    k.shape + (bits + 1,): class x's root is entry weights[x], bit for bit.
    Every further column is the all-ones class, whose flip is the table
    reversed, so mu's table takes the same products and sums."""
    bits = layout.weights.size.bit_length() - 1
    a2, b2, table = _power_table(k, bits)
    for _ in layout.rest:
        moved = b2 * table[..., ::-1]
        table *= a2
        table += moved
    return np.sqrt(table, out=table)


def _root_table(layout, k: np.ndarray):
    """The roots per weight on a symmetric layout, else per class."""
    return (_weight_roots if layout.symmetric else _class_roots)(layout, k)


def _roots(layout, k: np.ndarray):
    """_root_table's roots and their transform g, shaped k.shape + (M,):
    fwht_by_weight of the roots per weight on a symmetric layout, fwht of
    the roots per class on any other."""
    root = _root_table(layout, k)
    return root, (fwht_by_weight if layout.symmetric else fwht)(root)


def _reduce_roots(generators, n: int, kappa, *reductions):
    """Each reduction (a block's roots and root rows, (b, M) each, to b
    numbers) over every kappa, at most _BLOCK root entries at a time. One
    result per reduction, shaped like kappa (a float for a scalar kappa).
    Only _root_error reads the roots: when it is the only reduction, the
    rows are None and no transform is taken, and on a symmetric layout the
    M roots are gathered from their table only for it (else None)."""
    k = _kappa_array(kappa, collapse_at_one=True)
    layout = _span_layout(tuple(generators), n)
    flat = k.reshape(-1)
    out = np.empty((len(reductions), flat.size))
    rows = max(1, _BLOCK // layout.weights.size)
    transform = any(reduce is not _root_error for reduce in reductions)
    gather = layout.symmetric and _root_error in reductions
    for lo in range(0, flat.size, rows):
        if transform:
            root, g = _roots(layout, flat[lo : lo + rows])
        else:
            root, g = _root_table(layout, flat[lo : lo + rows]), None
        if layout.symmetric:
            # np.take keeps rows C-ordered, so each sums as it would alone
            root = np.take(root, layout.weights, axis=-1) if gather else None
        for column, reduce in zip(out, reductions):
            column[lo : lo + rows] = reduce(root, g)
    return [_scalar_or_array(column.reshape(k.shape)) for column in out]


def _root_information(root: np.ndarray, g: np.ndarray) -> np.ndarray:
    p = g * g
    # p log2 p, 0 where p is 0
    terms = np.zeros_like(p)
    np.log2(p, out=terms, where=p > 0.0)
    terms *= p
    return np.log2(g.shape[-1]) + np.sum(terms, axis=-1)


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
    99-point grid, then Illinois regula falsi (Dowell & Jarratt, BIT 11,
    168, 1971) on that bracket until its ends are adjacent floats.

    The scan calls block_gain on arrays of at most _BLOCK // M kappa
    (M = 2**(n-1), one block of the root reductions), whose entries have
    their scalar bits, and stops at the first block holding a crossing; a
    gain of 0 counts as below it. Each Illinois step takes the secant
    point, or the midpoint when that is not strictly inside the bracket,
    and halves the stored gain of an end kept twice in a row. A point of
    gain exactly 0 is a root and ends the search."""
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
    # the bracket (lo, hi), its gains g(lo) <= 0 < g(hi), and the end replaced last
    i = change[0]
    ends, gains, last = grid[i : i + 2].tolist(), values[i : i + 2].tolist(), None
    for _ in range(64):
        (lo, hi), (g_lo, g_hi) = ends, gains
        kappa = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < kappa < hi:
            kappa = 0.5 * (lo + hi)
            if not lo < kappa < hi:
                break
        gain = block_gain(n, kappa)
        if gain == 0.0:
            return kappa
        side = int(gain > 0.0)
        ends[side], gains[side] = kappa, gain
        if side == last:
            gains[1 - side] *= 0.5
        last = side
    return 0.5 * (ends[0] + ends[1])
