"""Block codes, explicit tensor embeddings, and Gram matrices of codebooks.

Bit convention: bit 0 is the letter |+>, bit 1 the letter |->; the pairwise
inner product of two codeword states is kappa**(Hamming distance).
nn12_generators and build_simplex_code define the two code families once.
"""

from dataclasses import dataclass, field

import numpy as np

from ._checks import _as_array, _check_int, _check_priors, _is_real
from ._kernels import _overlaps, _xor_span, hamming_matrix
from .errors import InvalidInput, ResourceLimit

# float64 entries (1 GiB) that one explicit array of states or overlaps may take
_MAX_ENTRIES = 2**27
# bytes per pair of codewords on the Gram route: the Hamming distances and
# the Gram matrix take at most 24 at once, the square-root measurement
# about 40; a random 2048-word code peaked at 60
_GRAM_ROUTE_BYTES = 64
# generator words (first letter most significant) of the even-weight code of
# length n <= 64: its first n - 1; build_nn12_code and fastcode read them
nn12_generators = (3, 5, 15) + tuple(3 << m for m in range(3, 63))


@dataclass(eq=False)
class Code:
    """Block code: M distinct bit strings of length n with priors."""

    n: int
    codewords: np.ndarray
    priors: np.ndarray = field(default=None)

    def __post_init__(self):
        self.n = _check_int(self.n, 0, "code length")
        given = _as_array(self.codewords, "codewords", None)
        if given.ndim != 2 or given.shape[1] != self.n:
            raise InvalidInput("codewords must be an (M, n) bit array")
        # on the entries as given: a cast to uint8 would truncate 0.5 to 0
        if not ((given == 0) | (given == 1)).all():
            raise InvalidInput("codewords must be 0/1 valued")
        self.codewords = np.ascontiguousarray(given, dtype=np.uint8)
        m = self.codewords.shape[0]
        if not 1 <= m <= 2**self.n:
            raise InvalidInput(f"a code of length n holds 1 to 2**n codewords, got {m}")
        # packed rows sorted whole, as np.unique would, without its first call's 1.4 MB
        rows = np.packbits(self.codewords, axis=1)
        words = np.sort(rows.view(np.dtype((np.void, rows.shape[1]))).ravel())
        if (words[1:] == words[:-1]).any():
            raise InvalidInput("codewords must be distinct")
        if self.priors is None:
            self.priors = np.full(m, 1.0 / m)
        self.priors = _check_priors(self.priors, m)

    @property
    def num_codewords(self) -> int:
        return self.codewords.shape[0]


def embed_binary_letters(kappa: float):
    """Concrete 2-dim coordinates for the letter pair with overlap kappa:
    (cos t, +/- sin t) with cos(2t) = kappa. Raises InvalidInput unless
    kappa is a real scalar in [0, 1)."""
    if not (_is_real(kappa) and 0.0 <= kappa < 1.0):
        raise InvalidInput(f"kappa must be a real number in [0, 1), got {kappa!r}")
    t = 0.5 * np.arccos(kappa)
    plus = np.array([np.cos(t), np.sin(t)])
    minus = np.array([np.cos(t), -np.sin(t)])
    return plus, minus


def codeword_states(code: Code, kappa: float) -> np.ndarray:
    """Explicit codeword state vectors, one row per codeword, as tensor
    products of the letter embeddings (dimension 2**n). Raises
    ResourceLimit when its M * 2**n entries pass 2**27 (1 GiB)."""
    m = code.num_codewords
    _check_entries(m, code.n, f"{m} states of dimension 2**{code.n}")
    letters = np.stack(embed_binary_letters(kappa))
    states = np.ones((m, 1))
    for t in range(code.n):
        v = letters[code.codewords[:, t]]
        states = (states[:, :, None] * v[:, None, :]).reshape(m, -1)
    return states


def _check_entries(count: int, log2: int, what: str) -> None:
    """ResourceLimit when count * 2**log2 entries pass _MAX_ENTRIES, compared
    as count > _MAX_ENTRIES >> log2, so 2**log2 is never formed."""
    if count > _MAX_ENTRIES >> log2:
        raise ResourceLimit(f"{what} exceed the guard of {_MAX_ENTRIES} entries")


def gram(code: Code, kappa: float) -> np.ndarray:
    """Gram matrix of the codeword states: kappa**(Hamming distance).
    Raises ResourceLimit, before allocating anything, when the Gram route
    would pass 1 GiB: this matrix and the square-root measurement that
    follows it take about 64 bytes per pair of codewords, so M <= 4096.
    Raises InvalidInput unless kappa is a real scalar in [0, 1]."""
    if not (_is_real(kappa) and 0.0 <= kappa <= 1.0):
        raise InvalidInput(f"kappa must be a real number in [0, 1], got {kappa!r}")
    return _overlaps(kappa, distances(code), code.n)


def distances(code: Code) -> np.ndarray:
    """Hamming distances of every pair of codewords, for the Gram matrix
    of any kappa, in the narrowest unsigned dtype that holds n. Raises
    ResourceLimit, before allocating anything, when the Gram route would
    pass 1 GiB, as gram documents."""
    m = code.num_codewords
    if m * m * _GRAM_ROUTE_BYTES > 8 * _MAX_ENTRIES:
        raise ResourceLimit(
            f"the Gram route for {m} codewords needs about {m * m * _GRAM_ROUTE_BYTES >> 20} MiB, "
            f"more than the guard of 1 GiB"
        )
    return hamming_matrix(code.codewords).astype(np.min_scalar_type(code.n))


def int_bits(values, n: int) -> np.ndarray:
    """Bit rows of n-bit integers, most significant first, as a (len(values), n)
    uint8 array unpacked from bytes, with no temporary over a byte per letter."""
    little = np.asarray(values, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(little, axis=1, count=n, bitorder="little")
    return np.ascontiguousarray(bits[:, ::-1])


def build_nn12_code(n: int) -> Code:
    """The [[n, n-1, 2]] even-weight code (2**(n-1) codewords, min distance
    2) with equal priors, n >= 2: the XOR span of nn12_generators[: n - 1],
    in prefix co-recursion order (tests/test_ensembles.py::nn12_pair).
    Raises ResourceLimit, before building a word, past 2**27 letters in all."""
    n = _check_int(n, 2, "block length")
    _check_entries(n, n - 1, f"2**{n - 1} words of {n} letters")
    return Code(n=n, codewords=int_bits(_xor_span(nn12_generators[: n - 1]), n))


def build_simplex_code(r: int) -> Code:
    """The [[2**r - 1, r, 2**(r-1)]] code: 2**r equidistant codewords with
    equal priors, generated by the matrix whose columns are all nonzero
    r-bit vectors. Raises ResourceLimit, before building a word, past 2**27
    letters in all (r >= 14)."""
    r = _check_int(r, 2, "rank")
    # M * n = 2**(2r) - 2**r passes 2**27 exactly when 2**(2r) does
    _check_entries(1, 2 * r, f"2**{r} words of 2**{r} - 1 letters")
    cols = int_bits(np.arange(1, 2**r), r).T
    return Code(n=2**r - 1, codewords=int_bits(np.arange(2**r), r) @ cols % 2)


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
    # one byte per letter, all parsed at once: "0" and "1" become 0 and 1,
    # any other letter (a non-ASCII one becomes "?") a byte above 1
    bits = np.frombuffer("".join(words).encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if any(len(w) != n for w in words) or (bits > 1).any():
        raise InvalidInput("codewords must be 0/1 strings of length n")
    # with no words the empty array goes on unshaped, for Code to refuse
    codewords = bits.reshape(m, n) if m else bits
    try:
        priors = np.array([float(x) for x in tokens[2 + m :]])
    except ValueError as exc:
        raise InvalidInput(f"bad prior: {exc}") from exc
    return Code(n=n, codewords=codewords, priors=priors)
