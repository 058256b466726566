"""Measurements over a codeword span: square-root measurement, minimum-error
optimality certification, minimum-error optimization as a reweighted
square-root measurement, and the threshold-point certificate of product
measurements.

The square-root measurement takes one route per input: its channel comes
from the Gram matrix's root, its rows in the states' coordinates from
their polar factor (polar_rows, public here for synth but not exported by
the package), orthonormal to round-off whatever the conditioning. The
optimizer's iterates take the same SVD polar factor, of states under
weights that may be 0.

Every certificate goes through _certify, with one error formula
(_kernels.bayes_error), and every ensemble a caller gives through
check_ensemble: finite unit rows and a probability vector of priors.

A measurement is an (M, dim) array of orthonormal row vectors omega_i, in
the coordinates of the states it is applied to. For the overlap matrix
X[i, j] = <omega_i | rho_j>, the channel is P(j|i) = X[j, i]**2 / Gram[i, i]
(the denominator is 1 for unit-diagonal Grams and the prior for weighted
ones, so the same formula serves both conventions).
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._checks import _as_array, _check_int, _check_priors, _is_real
from ._kernels import _helstrom_error, _threshold_error, bayes_error, bayes_residual
from .ensembles import embed_binary_letters
from .errors import InvalidInput, LinearDependence, ResourceLimit, Unconverged
from .psdlinalg import psd_root

_SINGULAR_EIG = 1e-12
# threshold_certificate holds a few 2**n x 2**n matrices and takes one
# eigvalsh of that size; the README's "Limits and conventions" gives the
# timings that put n = 13 past a 5 minute / 1 GB budget
_MAX_CERT_N = 12
# bayes_cost_reduction's iterations after its first
_MAX_SWEEPS = 500
# entrywise tolerance of a state's norm and of a measurement's V V^T = I
_UNIT_TOL = 1e-9


@dataclass(eq=False)
class OptimalityReport:
    """Minimum-error certification data for a measurement.

    cond_i_residual is the largest violation of the pairwise balance
    xi_i X_ii X_ji = xi_j X_ij X_jj; cond_ii_min_eig is the smallest
    eigenvalue of the symmetrized matrix (xi_i X_ii X_ji).
    """

    cond_i_residual: float
    cond_ii_min_eig: float
    is_optimal: bool
    error_probability: float
    error_history: tuple = field(default=())


class ThresholdCertificate(NamedTuple):
    cond_i_residual: float
    cond_ii_min_eig: float
    error_probability: float
    expected_error: float
    passes: bool


def square_root_measurement(gram):
    """Square-root measurement of the states with Gram matrix `gram` (the
    unweighted or the prior-weighted one) and its channel, in the
    measurement's own basis: the vectors are the identity, the states have
    coordinate rows sqrt_psd(gram) and the channel is their square over the
    diagonal of `gram`. Rows in the states' coordinates are polar_rows.
    Raises InvalidInput for a Gram matrix that is not square, non-empty,
    finite and symmetric, and LinearDependence when it is numerically
    singular.
    """
    min_eig, root = psd_root(gram)
    if min_eig <= _SINGULAR_EIG:
        raise LinearDependence(
            f"gram matrix is numerically singular (min eigenvalue {min_eig:.3e})"
        )
    diag = np.diag(np.asarray(gram, dtype=np.float64))
    # in place: one more (M, M) array raised a 1,024-word sweep's peak RSS by 2 MB
    return np.eye(root.shape[0]), np.divide(np.square(root, out=root), diag[:, None], out=root)


def polar_rows(states) -> np.ndarray:
    """Square-root measurement rows of the state rows Psi, in their
    coordinates: the polar factor U V^T of the thin SVD U S V^T. These are
    the rows (Psi Psi^T)**(-1/2) Psi, S**2 being the Gram eigenvalues, and
    the least-squares measurement (Eldar & Forney, IEEE TIT 47, 858, 2001),
    but orthonormal to round-off whatever the conditioning (Higham,
    Functions of Matrices, SIAM 2008, ch. 8). Raises LinearDependence for
    more states than dimensions or S**2 at or below the Gram threshold."""
    rows, s = _polar_factor(states)
    _check_independent(states.shape[0], s)
    return rows


def _polar_factor(states):
    """U V^T of the thin SVD U S V^T of the rows, with S: orthonormal rows
    however dependent the states."""
    u, s, vt = np.linalg.svd(states, full_matrices=False)
    return u @ vt, s


def _check_independent(m: int, s) -> None:
    """LinearDependence unless the m states with singular values s (in
    descending order) are no more than their dimension and s[-1]**2 is above
    the Gram threshold."""
    if m > s.size or s[-1] ** 2 <= _SINGULAR_EIG:
        raise LinearDependence(f"{m} states are numerically dependent")


def _check_tol(tol) -> None:
    """InvalidInput unless tol is real and 0 <= tol < inf: inf certifies all, NaN or < 0 none."""
    if not (_is_real(tol) and 0.0 <= tol < np.inf):
        raise InvalidInput(f"tol must be finite and at least 0, got {tol!r}")


def _certify(x, priors, tol, history=()) -> OptimalityReport:
    """Minimum-error certificate of the overlap matrix x under priors."""
    residual = bayes_residual(x, priors)
    ups = (priors * np.diag(x))[:, None] * x.T
    min_eig = float(np.linalg.eigvalsh((ups + ups.T) / 2.0)[0])
    return OptimalityReport(
        cond_i_residual=residual,
        cond_ii_min_eig=min_eig,
        is_optimal=bool(residual <= tol and min_eig >= -tol),
        error_probability=bayes_error(x, priors),
        error_history=tuple(history),
    )


def check_optimality(measurement, states, priors, tol: float = 1e-10) -> OptimalityReport:
    """Certify a measurement against the minimum-error conditions.

    For X[i, j] = <omega_i | rho_j>, checks the pairwise balance residual
    and positive semidefiniteness of the symmetrized (xi_i X_ii X_ji)
    matrix; reports the average error 1 - sum_i xi_i X_ii**2, or 0 where
    rounding takes it below 0. Raises InvalidInput unless 0 <= tol < inf,
    the states and priors pass check_ensemble, and the measurement rows
    are finite and orthonormal (V V^T within 1e-9 of the identity, entry
    by entry) and of the states' shape.
    """
    _check_tol(tol)
    states, priors = check_ensemble(states, priors)
    vectors = _as_array(measurement, "measurement")
    # finite before the product: NaN would pass the tolerance test, and inf warns
    if vectors.shape != states.shape or not np.isfinite(vectors).all() or (
        np.abs(vectors @ vectors.T - np.eye(len(vectors))).max() > _UNIT_TOL
    ):
        raise InvalidInput(f"measurement must be finite orthonormal rows of shape {states.shape}")
    return _certify(vectors @ states.T, priors, tol)


def check_ensemble(states, priors):
    """States and priors as float arrays, after checking that the priors
    are a finite probability vector and the states finite unit rows, one
    per prior; InvalidInput otherwise."""
    states = np.atleast_2d(_as_array(states, "states"))
    if states.ndim != 2:
        raise InvalidInput(f"states must be a 2-D array, got {states.ndim} axes")
    priors = _check_priors(priors, states.shape[0])
    if not np.isfinite(states).all():
        raise InvalidInput("states must be finite")
    if np.abs(np.linalg.norm(states, axis=1) - 1.0).max() > _UNIT_TOL:
        raise InvalidInput("states must have unit norm")
    return states, priors


def helstrom_binary(kappa: float, xi1: float):
    """Optimal binary projective measurement for the letter pair and its
    minimum error (1 - sqrt(1 - 4 xi1 xi2 kappa**2)) / 2."""
    if not (_is_real(xi1) and 0.0 < xi1 < 1.0):
        raise InvalidInput(f"xi1 must be a real number in (0, 1), got {xi1!r}")
    xi2 = 1.0 - xi1
    v1, v2 = embed_binary_letters(kappa)
    w = xi1 * np.outer(v1, v1) - xi2 * np.outer(v2, v2)
    _, q = np.linalg.eigh(w)
    omega1 = q[:, 1] * np.sign(q[:, 1] @ v1)
    omega2 = q[:, 0] * np.sign(q[:, 0] @ v2)
    return np.vstack([omega1, omega2]), float(_helstrom_error(kappa, xi1))


def bayes_cost_reduction(states, priors, tol: float = 1e-10):
    """Drive a measurement to the minimum-error optimum as a reweighted
    square-root measurement.

    For independent pure states the minimum-error measurement is the
    square-root measurement of the same states under other weights
    (Mochon, PRA 73, 032328, 2006). The weights are found by the fixed
    point of Jezek, Rehacek and Fiurasek (PRA 65, 060301(R), 2002): start
    with w = sqrt(priors), take the rows U V^T of the thin SVD of the
    weighted states w_i psi_i, and until the report's residual is at most
    tol, set w_i = xi_i X_ii for X[i, j] = <omega_i | psi_j>, scaled by its
    maximum. The first iterate is the square-root measurement of the
    prior-weighted states. Returns the measurement and a report whose
    error_history holds the average error of each iterate. Raises
    InvalidInput, before any iteration, unless 0 <= tol < inf,
    LinearDependence unless the states as given are independent (a zero
    or tiny prior leaves them so), and Unconverged (carrying the iterate
    of least error) if the residual is above tol after _MAX_SWEEPS
    iterations.
    """
    _check_tol(tol)
    states, priors = check_ensemble(states, priors)
    _check_independent(states.shape[0], np.linalg.svd(states, compute_uv=False))
    weights = np.sqrt(priors)
    history, best = [], (np.inf, None, None)
    for _ in range(_MAX_SWEEPS + 1):
        # not polar_rows: a zero weight leaves the weighted states dependent
        rows, _ = _polar_factor(weights[:, None] * states)
        x = rows @ states.T
        history.append(bayes_error(x, priors))
        if history[-1] < best[0]:
            best = history[-1], rows, x
        if bayes_residual(x, priors) <= tol:
            return rows, _certify(x, priors, tol, history)
        weights = priors * np.diag(x)
        weights /= weights.max()
    _, rows, x = best
    report = _certify(x, priors, tol, history)
    raise Unconverged(
        f"residual {report.cond_i_residual:.3e} > tol {tol:.1e} after {_MAX_SWEEPS} iterations",
        measurement=rows,
        report=report,
    )


def threshold_certificate(
    kappa: float, n: int, xi1: float = 0.5, tol: float = 1e-12
) -> ThresholdCertificate:
    """Certify that the product of single-letter optimal measurements is the
    minimum-error measurement for all 2**n sequences under product priors,
    with error 1 - (1-p)**n, through the same check as check_optimality.
    Their overlaps and priors are the n-th Kronecker powers of the letters'.
    Raises ResourceLimit for n > 12, whose 2**n x 2**n matrices would pass
    1 GB, and InvalidInput unless n >= 1 is an integer and 0 <= tol < inf."""
    _check_tol(tol)
    n = _check_int(n, 1, "block length")
    if n > _MAX_CERT_N:
        raise ResourceLimit(f"threshold certificate guarded at n <= {_MAX_CERT_N}, got {n}")
    base, p = helstrom_binary(kappa, xi1)
    letter = base @ np.stack(embed_binary_letters(kappa)).T
    x, priors = np.ones((1, 1)), np.ones(1)
    for _ in range(n):
        x, priors = np.kron(x, letter), np.kron(priors, [xi1, 1.0 - xi1])
    report = _certify(x, priors, tol)
    expected = float(_threshold_error(p, n))
    passes = report.is_optimal and abs(report.error_probability - expected) <= tol
    return ThresholdCertificate(
        report.cond_i_residual, report.cond_ii_min_eig, report.error_probability, expected, passes
    )
