"""Mutual information, first-order capacity, entropy bound, and the
information of letter pairs read separately or collectively. The
information of a code under collective decoding is
fastcode.code_information, beside the route selection it takes.

All logarithms are base 2; every information quantity is in bits.
"""

from typing import NamedTuple

import numpy as np

from ._checks import _as_array, _check_int, _check_priors, _kappa_array, _scalar_or_array
from ._kernels import _helstrom_error, mi_bits
from .detection import helstrom_binary
from .ensembles import embed_binary_letters
from .errors import InvalidInput


class InfoResult(NamedTuple):
    mutual_information_bits: float


def _h2(p):
    """Binary entropy in bits, 0 outside (0, 1); broadcasts over p."""
    p = np.asarray(p, dtype=np.float64)
    inside = (p > 0.0) & (p < 1.0)
    q = np.where(inside, p, 0.5)
    h = np.where(inside, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)
    return _scalar_or_array(h)


def binary_flip_probability(kappa):
    """Minimum-error flip probability of the equiprobable letter pair,
    helstrom_binary's error at xi1 = 1/2; broadcasts over kappa."""
    return _scalar_or_array(_helstrom_error(_kappa_array(kappa), 0.5))


def mutual_information(priors, channel) -> InfoResult:
    """I = sum_i xi_i sum_j P(j|i) log2[P(j|i) / sum_k xi_k P(j|k)],
    with 0 log 0 = 0. Raises InvalidInput unless the priors are a
    probability vector and the channel a finite row-stochastic matrix with
    one row per prior."""
    channel = _as_array(channel, "channel")
    if channel.ndim != 2:
        raise InvalidInput("channel must be a 2-D array")
    priors = _check_priors(priors, channel.shape[0])
    # finite entries before the sums (+inf and -inf in one row sum to NaN,
    # with a warning), and the sums before the minimum (a row of no entries
    # sums to 0 and has none)
    if (
        not np.isfinite(channel).all()
        or np.abs(channel.sum(axis=1) - 1.0).max() > 1e-8
        or channel.min() < -1e-12
    ):
        raise InvalidInput("channel must be finite and row-stochastic")
    return InfoResult(mutual_information_bits=mi_bits(priors, channel))


def c1_binary(kappa):
    """Best single-use information of the binary letter pair: the symmetric
    channel at the minimum-error measurement, 1 - h2(p). Broadcasts over
    kappa."""
    return 1.0 - _h2(binary_flip_probability(kappa))


def holevo_binary(kappa):
    """Entropy bound of the equiprobable binary ensemble: h2((1+kappa)/2).
    Broadcasts over kappa."""
    return _h2((1.0 + _kappa_array(kappa)) / 2.0)


def separable_pair_info(kappa_a: float, kappa_b: float):
    """Information of two letter pairs read by the product of their optimal
    single-use measurements, with the additive reference C1(a) + C1(b)."""
    states = np.kron(*(np.stack(embed_binary_letters(k)) for k in (kappa_a, kappa_b)))
    vectors = np.kron(*(helstrom_binary(k, 0.5)[0] for k in (kappa_a, kappa_b)))
    channel = (vectors @ states.T).T ** 2
    info = mutual_information(np.full(4, 0.25), channel).mutual_information_bits
    return info, c1_binary(kappa_a) + c1_binary(kappa_b)


def random_collective_max_info(
    kappa_a: float, kappa_b: float, trials: int = 10000, seed: int = 20240817
) -> float:
    """Largest information over random orthonormal collective measurements
    of the two-pair ensemble (Haar bases via QR of Gaussian matrices);
    InvalidInput unless trials >= 1 and seed >= 0 are integers."""
    states = np.kron(*(np.stack(embed_binary_letters(k)) for k in (kappa_a, kappa_b)))
    priors = np.full(4, 0.25)
    rng = np.random.default_rng(_check_int(seed, 0, "seed"))
    best = 0.0
    for _ in range(_check_int(trials, 1, "trials")):
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        q = q * np.sign(np.diag(r))
        channel = (q @ states.T).T ** 2
        best = max(best, mi_bits(priors, channel))
    return best
