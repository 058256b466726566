"""The argument checks every module shares, one per kind of argument, each
refusing a malformed value before any work; and _scalar_or_array."""

import numpy as np

from .errors import InvalidInput, LinearDependence


def _check_int(value, lo: int, name: str) -> int:
    """value as an int; InvalidInput unless it is at least lo and a Python
    or numpy integer (not a bool) or a float of integral value."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise InvalidInput(f"{name} must be an integer of at least {lo}, got {value!r}")
    return int(value)


def _as_array(value, name: str, dtype=np.float64) -> np.ndarray:
    """value as a numpy array of dtype (of the entries' own when dtype is
    None); InvalidInput where numpy makes none, as from ragged rows."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be an array of numbers: {exc}") from exc


def _check_priors(priors, m: int) -> np.ndarray:
    """priors as a float64 array; InvalidInput unless they are m >= 1
    finite nonnegative numbers summing to 1 within 1e-12."""
    priors = _as_array(priors, "priors")
    if priors.shape != (m,) or m == 0:
        raise InvalidInput(f"got {priors.size} priors for {m} states")
    if not np.isfinite(priors).all() or priors.min() < 0 or abs(priors.sum() - 1.0) > 1e-12:
        raise InvalidInput("priors must be a probability vector")
    return priors


def _is_real(value) -> bool:
    """Whether value is a Python or numpy real scalar other than a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _kappa_array(kappa, collapse_at_one: bool = False) -> np.ndarray:
    """kappa (a number or an array) as a float64 array. InvalidInput unless
    it holds integers or floats (a string, None, a bool or ragged rows are
    refused); the first entry outside [0, 1) raises InvalidInput, or
    LinearDependence when it is 1 and collapse_at_one is set, as it would
    alone."""
    k = _as_array(kappa, "kappa", dtype=None)
    if k.dtype.kind not in "iuf":
        raise InvalidInput(f"kappa must be a real number or an array of them, got {kappa!r}")
    k = k.astype(np.float64, copy=False)
    inside = (k >= 0.0) & (k < 1.0)
    if not inside.all():
        bad = k[~inside][0]
        if collapse_at_one and bad == 1.0:
            raise LinearDependence("kappa = 1 collapses the codeword states")
        raise InvalidInput(f"kappa must lie in [0, 1), got {bad}")
    return k


def _scalar_or_array(x: np.ndarray):
    """A 0-d result as a float, so a scalar kappa gives a float."""
    return float(x) if x.ndim == 0 else x
