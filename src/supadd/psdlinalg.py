"""Dense real-symmetric square root behind every Gram-matrix square-root
measurement. `psd_root`, public here but not exported by the package, is
the one eigendecomposition: it validates its input (square, non-empty,
finite, symmetric up to round-off) before LAPACK reads only one triangle,
and returns the smallest eigenvalue and the symmetrized root.
`sqrt_psd` (InvalidInput below -1e-10, outside its domain) and
`detection.square_root_measurement` each check that eigenvalue their own way.
"""

import numpy as np

from ._checks import _as_array
from .errors import InvalidInput

# eigenvalues in [-_CLAMP_TOL, 0) are round-off and clamp to zero in sqrt_psd
_CLAMP_TOL = 1e-10


def _as_symmetric(m):
    m = _as_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidInput(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        # tolerate round-off asymmetry but nothing structural
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise InvalidInput("matrix is not symmetric")
        m = (m + m.T) / 2.0
    return m


def psd_root(m):
    """Smallest eigenvalue of a real symmetric matrix and its symmetrized
    root Q sqrt(max(Lambda, 0)) Q^T."""
    values, vectors = np.linalg.eigh(_as_symmetric(m))
    s = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
    return float(values[0]), (s + s.T) / 2.0


def sqrt_psd(m) -> np.ndarray:
    """Symmetric PSD square root via the eigenbasis.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower is
    outside its domain and raises InvalidInput.
    """
    min_eig, root = psd_root(m)
    if min_eig < -_CLAMP_TOL:
        raise InvalidInput(f"eigenvalue {min_eig:.3e} below -{_CLAMP_TOL:.1e}")
    return root
