"""The family closed forms against 50-digit decimal references at all 99
default kappa, built with no transform and no Gram matrix.

Even-weight [[n, n-1, 2]]: the class measure depends only on the weight w
of a class, mu(w) = p**(n-w) q**w + p**w q**(n-w) with p = (1 + kappa)/2
and q = (1 - kappa)/2, so the root row at a word of weight x on the
information set is g(x) = sum_w K_w(x; n-1) sqrt(mu(w) / M), K_w the
Krawtchouk polynomial. The information is (n - 1) + sum_x C(n-1, x)
g(x)**2 log2 g(x)**2 and the block error 1 - g(0)**2.

Simplex [[2**r - 1, r, 2**(r-1)]]: the Gram matrix is (1 - kappa**d) I +
kappa**d J, d = 2**(r-1), with eigenvalues 1 + (M - 1) kappa**d once and
1 - kappa**d M - 1 times.

Each bound is about twice the largest error the closed forms showed against
these references: absolute for informations and gains, relative for the
errors. Simplex r = 4 is left out: its error at kappa = 0.01 is 0.7% off,
as the subtraction in _root_error loses the kappa**8 it is made of.
"""

from decimal import Decimal, localcontext
from math import comb

import numpy as np
import pytest

from supadd.fastcode import (
    block_gain,
    find_kappa_star,
    nn12_error_probability,
    nn12_mutual_information,
    simplex_profile,
)

GRID = np.linspace(0.01, 0.99, 99)
DIGITS = 50


def log2(x: Decimal) -> Decimal:
    return x.ln() / Decimal(2).ln()


def information(weights) -> Decimal:
    """log2 M + sum of m g**2 log2 g**2 over (multiplicity m, g) pairs."""
    m = sum(count for count, _ in weights)
    return log2(Decimal(m)) + sum(count * g * g * log2(g * g) for count, g in weights)


def even_weight(n: int, kappa: float):
    """(information, block error) of the even-weight code of length n."""
    k = Decimal(kappa)
    p, q = (1 + k) / 2, (1 - k) / 2
    m = Decimal(2) ** (n - 1)
    roots = [(p ** (n - w) * q**w + p**w * q ** (n - w)) / m for w in range(n)]
    roots = [mu.sqrt() for mu in roots]

    def krawtchouk(w, x):
        return sum((-1) ** j * comb(x, j) * comb(n - 1 - x, w - j) for j in range(w + 1))

    g = [sum(krawtchouk(w, x) * roots[w] for w in range(n)) for x in range(n)]
    info = information([(comb(n - 1, x), g[x]) for x in range(n)])
    return info, 1 - g[0] * g[0]


def single_use(kappa: float) -> Decimal:
    """C1 = 1 - h2(p) at the flip probability p = (1 - sqrt(1 - kappa**2)) / 2."""
    k = Decimal(kappa)
    p = (1 - (1 - k * k).sqrt()) / 2
    return 1 + p * log2(p) + (1 - p) * log2(1 - p)


def simplex(r: int, kappa: float):
    """(information, block error) of the simplex code of rank r."""
    m = 2**r
    x = Decimal(kappa) ** (2 ** (r - 1))
    top, rest = (1 + (m - 1) * x).sqrt(), (1 - x).sqrt()
    g0, g1 = (top + (m - 1) * rest) / m, (top - rest) / m
    return information([(1, g0), (m - 1, g1)]), 1 - g0 * g0


def absolute(values, references) -> Decimal:
    return max(abs(Decimal(float(v)) - ref) for v, ref in zip(values, references))


def relative(values, references) -> Decimal:
    return max(abs(Decimal(float(v)) - ref) / ref for v, ref in zip(values, references))


@pytest.mark.parametrize("n", range(2, 14))
def test_even_weight_closed_forms(n):
    with localcontext() as ctx:
        ctx.prec = DIGITS
        exact = [even_weight(n, kappa) for kappa in GRID.tolist()]
        gains = [info / n - single_use(kappa) for (info, _), kappa in zip(exact, GRID.tolist())]
        assert absolute(nn12_mutual_information(n, GRID), [i for i, _ in exact]) <= 1.2e-14
        assert relative(nn12_error_probability(n, GRID), [e for _, e in exact]) <= 4.5e-12
        assert absolute(block_gain(n, GRID), gains) <= 1.2e-15


@pytest.mark.parametrize("n", range(3, 14))
def test_crossing_is_the_root_of_the_exact_gain(n):
    # the 50-digit gain bisected to 1e-16 from the grid cell where the
    # float gain turns positive; its slope there is 0.16-0.20, so the float
    # gain's 1.2e-15 of rounding moves the root by under 1e-14
    values = block_gain(n, GRID)
    cell = np.flatnonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))[0]
    with localcontext() as ctx:
        ctx.prec = DIGITS

        def gain(kappa):
            return even_weight(n, kappa)[0] / n - single_use(kappa)

        lo, hi = (Decimal(float(k)) for k in GRID[cell : cell + 2])
        assert gain(lo) < 0 < gain(hi)
        while hi - lo > Decimal("1e-16"):
            mid = (lo + hi) / 2
            if gain(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert abs(Decimal(find_kappa_star(n)) - (lo + hi) / 2) <= Decimal("1e-14")


@pytest.mark.parametrize("r, info_bound, error_bound", [(2, 1.5e-15, 1e-12), (3, 3.6e-15, 9e-9)])
def test_simplex_closed_forms(r, info_bound, error_bound):
    profile = simplex_profile(r, GRID)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        exact = [simplex(r, kappa) for kappa in GRID.tolist()]
        assert absolute(profile.info_bits, [i for i, _ in exact]) <= info_bound
        assert relative(profile.error_probability, [e for _, e in exact]) <= error_bound
