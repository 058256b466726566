"""Dense real-symmetric linear algebra behind every square-root
measurement.

`eig_sym` is the one eigendecomposition: it validates its input (square,
finite, symmetric up to round-off) before LAPACK reads only one triangle,
and `EigenDecomp.apply` is the one Q f(Lambda) Q^T formula. `sqrt_psd` and
`detection.square_root_measurement` (root and inverse root) go through
both.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NotPSD

# eigenvalues in [-_CLAMP_TOL, 0) are round-off and clamp to zero in sqrt_psd
_CLAMP_TOL = 1e-10


class EigenDecomp(NamedTuple):
    values: np.ndarray  # ascending
    vectors: np.ndarray  # orthogonal, columns are eigenvectors

    def apply(self, f_values) -> np.ndarray:
        """Q diag(f_values) Q^T, symmetrized; f_values holds f of each
        eigenvalue."""
        s = (self.vectors * f_values) @ self.vectors.T
        return (s + s.T) / 2.0


def _as_symmetric(m):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        # tolerate round-off asymmetry but nothing structural
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise InvalidInput("matrix is not symmetric")
        m = (m + m.T) / 2.0
    return m


def eig_sym(m) -> EigenDecomp:
    """Eigendecomposition of a real symmetric matrix, values ascending."""
    values, vectors = np.linalg.eigh(_as_symmetric(m))
    return EigenDecomp(values, vectors)


def sqrt_psd(m) -> np.ndarray:
    """Symmetric PSD square root via the eigenbasis.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower raises
    NotPSD (the signature of linearly dependent states).
    """
    dec = eig_sym(m)
    if dec.values[0] < -_CLAMP_TOL:
        raise NotPSD(f"eigenvalue {dec.values[0]:.3e} below -{_CLAMP_TOL:.1e}")
    return dec.apply(np.sqrt(np.clip(dec.values, 0.0, None)))
