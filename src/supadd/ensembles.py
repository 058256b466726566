"""Block codes, explicit tensor embeddings, and Gram matrices of codebooks.

Bit convention: bit 0 is the letter |+>, bit 1 the letter |->; the pairwise
inner product of two codeword states is kappa**(Hamming distance).
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import hamming_matrix
from .errors import InvalidInput, ResourceLimit

# float64 entries (1 GiB) that one explicit array of states or overlaps may take
_MAX_ENTRIES = 2**27


@dataclass(eq=False)
class Code:
    """Block code: M distinct bit strings of length n with priors."""

    n: int
    codewords: np.ndarray
    priors: np.ndarray = field(default=None)

    def __post_init__(self):
        self.codewords = np.ascontiguousarray(self.codewords, dtype=np.uint8)
        if self.codewords.ndim != 2 or self.codewords.shape[1] != self.n:
            raise InvalidInput("codewords must be an (M, n) bit array")
        if self.codewords.max(initial=0) > 1:
            raise InvalidInput("codewords must be 0/1 valued")
        m = self.codewords.shape[0]
        if m > 2**self.n:
            raise InvalidInput("more codewords than sequences of length n")
        if len({tuple(row) for row in self.codewords.tolist()}) != m:
            raise InvalidInput("codewords must be distinct")
        if self.priors is None:
            self.priors = np.full(m, 1.0 / m)
        self.priors = np.asarray(self.priors, dtype=np.float64)
        p = self.priors
        if p.shape != (m,) or not np.isfinite(p).all() or p.min() < 0:
            raise InvalidInput("priors must be M finite nonnegative numbers")
        if abs(self.priors.sum() - 1.0) > 1e-12:
            raise InvalidInput("priors must sum to 1")

    @property
    def num_codewords(self) -> int:
        return self.codewords.shape[0]


def embed_binary_letters(kappa: float):
    """Concrete 2-dim coordinates for the letter pair with overlap kappa:
    (cos t, +/- sin t) with cos(2t) = kappa."""
    if not 0.0 <= kappa < 1.0:
        raise InvalidInput(f"kappa must lie in [0, 1), got {kappa}")
    t = 0.5 * np.arccos(kappa)
    plus = np.array([np.cos(t), np.sin(t)])
    minus = np.array([np.cos(t), -np.sin(t)])
    return plus, minus


def codeword_states(code: Code, kappa: float) -> np.ndarray:
    """Explicit codeword state vectors, one row per codeword, as tensor
    products of the letter embeddings (dimension 2**n). Raises
    ResourceLimit when its M * 2**n entries pass 2**27 (1 GiB)."""
    if code.num_codewords * 2**code.n > _MAX_ENTRIES:
        raise ResourceLimit(
            f"{code.num_codewords} states of dimension 2**{code.n} exceed "
            f"the guard of {_MAX_ENTRIES} entries"
        )
    letters = np.stack(embed_binary_letters(kappa))
    states = np.ones((code.num_codewords, 1))
    for t in range(code.n):
        v = letters[code.codewords[:, t]]
        states = (states[:, :, None] * v[:, None, :]).reshape(code.num_codewords, -1)
    return states


def gram(code: Code, kappa: float) -> np.ndarray:
    """Gram matrix of the codeword states: kappa**(Hamming distance).
    Raises ResourceLimit when its temporaries, about M*M*(n + 16) bytes,
    pass 1 GiB."""
    if not 0.0 <= kappa <= 1.0:
        raise InvalidInput(f"kappa must lie in [0, 1], got {kappa}")
    m = code.num_codewords
    if m * m * (code.n + 16) > 8 * _MAX_ENTRIES:
        raise ResourceLimit(f"the Gram matrix of {m} words of length {code.n} exceeds the guard")
    return np.float_power(kappa, hamming_matrix(code.codewords))


def int_bits(values, n: int) -> np.ndarray:
    """Bit rows of n-bit integers, most significant bit first, as a
    (len(values), n) uint8 array."""
    shifts = np.arange(n - 1, -1, -1)
    return ((np.asarray(values, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.uint8)


def _nn12_pair(n: int):
    """Codeword bit rows (gamma) and their odd-weight companions (lambda)
    for the [[n, n-1, 2]] family, built by the prefix co-recursion
    gamma(n) = [0*gamma(n-1); 1*lambda(n-1)], lambda(n) = [1*gamma; 0*lambda]."""
    g = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    l = 1 - g
    for _ in range(4, n + 1):
        zeros = np.zeros((g.shape[0], 1), dtype=np.uint8)
        ones = np.ones((g.shape[0], 1), dtype=np.uint8)
        g, l = (
            np.vstack([np.hstack([zeros, g]), np.hstack([ones, l])]),
            np.vstack([np.hstack([ones, g]), np.hstack([zeros, l])]),
        )
    return g, l


def build_nn12_code(n: int) -> Code:
    """The [[n, n-1, 2]] even-weight code (2**(n-1) codewords, min
    distance 2) with equal priors."""
    if n < 3:
        raise InvalidInput(f"block length must be at least 3, got {n}")
    g, _ = _nn12_pair(n)
    return Code(n=n, codewords=g)


def build_simplex_code(r: int) -> Code:
    """The [[2**r - 1, r, 2**(r-1)]] code: 2**r equidistant codewords with
    equal priors, generated by the matrix whose columns are all nonzero
    r-bit vectors."""
    if r < 2:
        raise InvalidInput(f"rank must be at least 2, got {r}")
    n = 2**r - 1
    cols = int_bits(np.arange(1, 2**r), r).T
    messages = int_bits(np.arange(2**r), r)
    codewords = (messages @ cols) % 2
    return Code(n=n, codewords=codewords.astype(np.uint8))


def extend_code_sequences(code: Code) -> np.ndarray:
    """All 2**n bit strings ordered codewords-first, the remaining
    sequences following in increasing integer order."""
    if code.n > 20:
        raise ResourceLimit(f"2**{code.n} sequences exceed the guard")
    n = code.n
    rest = np.ones(2**n, dtype=bool)
    rest[code.codewords @ (1 << np.arange(n - 1, -1, -1))] = False
    return np.vstack([code.codewords, int_bits(np.flatnonzero(rest), n)])


def code_to_text(code: Code) -> str:
    """Serialize as: first line "n M", M bit-string lines, M prior lines."""
    lines = [f"{code.n} {code.num_codewords}"]
    lines += ["".join(str(b) for b in row) for row in code.codewords.tolist()]
    lines += [f"{p:.17g}" for p in code.priors.tolist()]
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> Code:
    tokens = text.split()
    if len(tokens) < 2:
        raise InvalidInput("code text must start with 'n M'")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise InvalidInput(f"bad code header: {exc}") from exc
    if len(tokens) != 2 + 2 * m:
        raise InvalidInput(f"expected {2 + 2 * m} fields for n={n} M={m}, got {len(tokens)}")
    words = tokens[2 : 2 + m]
    if any(len(w) != n or set(w) - {"0", "1"} for w in words):
        raise InvalidInput("codewords must be 0/1 strings of length n")
    codewords = np.array([[int(c) for c in w] for w in words], dtype=np.uint8)
    try:
        priors = np.array([float(x) for x in tokens[2 + m :]])
    except ValueError as exc:
        raise InvalidInput(f"bad prior: {exc}") from exc
    return Code(n=n, codewords=codewords, priors=priors)
