"""Decoder synthesis: build the adapting orthogonal matrix that maps the
collective square-root measurement onto a separate letter-by-letter
measurement, verify its error, and give it as a schedule of
two-dimensional plane rotations.

The letter frame produced by symmetric orthonormalization of the letter
pair coincides with the coordinate axes of the embedding
(tests/test_synth.py::TestLetterFrame checks this), so the product
measurement basis is the standard basis e_label, labels counting bits with
the first letter most significant. The adaptor U therefore needs no solve:
its rows at the assigned labels are the square-root measurement vectors.

Only those rows carry meaning, so the schedule is built first and U is its
product. A linear code with equal priors, or a coset of one, takes its
vectors and schedule from one pass over its group structure
(group_schedule), with no Gram matrix, eigh or state but its smallest
word's. Any other code takes its vectors as the polar factor of its states
(detection.polar_rows), orthonormal to round-off whatever the
conditioning, and its schedule is one pivot run per codeword, read off
those rows (_row_schedule). Both builders sit above fastcode, which gives
the collective error. reck_decompose is that elimination with every axis
a label: the full triangular mesh of any orthogonal matrix.
"""

from dataclasses import dataclass

import math

import numpy as np

from ._checks import _as_array, _check_int, _kappa_array
from ._kernels import _columns, _pack_bits, _xor_span, apply_rotations
from .detection import polar_rows
from .ensembles import Code, codeword_states
from .errors import InvalidInput, ResourceLimit
from .fastcode import code_error_probability, linear_generators

# how far from orthogonal an adaptor may be
_ORTHOGONAL_TOL = 1e-8
# rows of U per block of the orthogonality and reconstruction checks (2 MB
# of float64 at n = 11)
_CHECK_ROWS = 128
# the largest block length `synth` finishes within 5 minutes and 1 GB; the
# README's "Limits and conventions" gives the timings it rests on. The
# checks hold one block beside U and the measurement rows, so even-weight
# n = 11 peaks at about 86 MB; n = 12 took 244 MB and 2.6 s with this
# guard lifted, and waits for a limit split by route
_MAX_SYNTH_N = 11
# |w[j, i]| at or below this is rounding noise in a unit column
_SKIP = 1e-14
# rotations per block of schedule_to_csv's formatting
_CSV_ROWS = 2**14


@dataclass(eq=False)
class SynthesizedUnitary:
    """Orthogonal adaptor U with the basis labels assigned to codewords,
    its rotation schedule, how far U is from orthogonal and how far the
    schedule's product is from U,
    the separate-measurement error it realizes, and the error of the
    collective square-root measurement it was built from."""

    U: np.ndarray
    target_outcomes: tuple
    schedule: "RotationSchedule"
    orthogonality_residual: float
    reconstruction_residual: float
    error_probability: float
    collective_error: float


@dataclass(eq=False, frozen=True)
class RotationSchedule:
    """Ordered plane rotations (j, i, gamma), 1-based axes, as a (count, 3)
    float64 table; flip_last records a trailing sign flip of the last axis
    (determinant -1), serialized as a (dim, dim, pi) line. Made from any
    (count, 3) table of numbers or an empty list; InvalidInput unless dim
    is an integer >= 1, flip_last a bool and each rotation turns two
    distinct integer axes in 1..dim by a finite angle. A schedule does not
    change once it is checked: its fields cannot be reassigned, and the
    table is its own read-only copy."""

    dim: int
    rotations: np.ndarray
    flip_last: bool

    def __post_init__(self):
        dim = _check_int(self.dim, 1, "schedule dimension")
        if not isinstance(self.flip_last, (bool, np.bool_)):
            raise InvalidInput(f"flip_last must be a bool, got {self.flip_last!r}")
        table = _as_array(self.rotations, "rotations", None)
        if table.shape == (0,):
            table = table.reshape(0, 3)
        # a string, None or an axis past the uint64 range gives another kind
        if table.dtype.kind not in "iuf" or table.ndim != 2 or table.shape[1] != 3:
            raise InvalidInput(f"rotations must be a (count, 3) numeric table, got {table.shape}")
        table = np.array(table, dtype=np.float64)
        table.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rotations", table)
        axes = table[:, :2]
        if not ((axes >= 1) & (axes <= dim) & (axes == np.floor(axes))).all():
            raise InvalidInput(f"rotation axes must be integers in 1..{dim}")
        if not np.isfinite(table[:, 2]).all():
            raise InvalidInput("rotation angles must be finite")
        if (axes[:, 0] == axes[:, 1]).any():
            raise InvalidInput("a rotation must turn two distinct axes")


def synthesize_unitary(code: Code, kappa: float, outcome_assignment=None) -> SynthesizedUnitary:
    """Build the orthogonal adaptor that maps the collective measurement
    basis onto product-basis outcomes, with its rotation schedule.

    Codeword m's square-root measurement vector becomes row
    outcome_assignment[m] of U (default: labels 0..M-1), which must be M
    distinct integers in [0, 2**n). The product basis is the standard
    basis, so U maps each measurement vector onto its label's axis.

    A linear code with equal priors, or a coset of one, takes its
    measurement vectors, overlaps with the states and schedule from
    group_schedule: omega_c[y] = (-1)**(c.y) a[y] / sqrt(M) with a the
    zero word's state normalized on the class of y. Any other code takes
    its vectors from the states' polar factor, and _row_schedule reads its
    schedule off the vectors. The collective error, an independent
    computation, is fastcode.code_error_probability on either route.

    U is the schedule's product with the measurement rows written at the
    labels, and the reconstruction residual is how far the product's own
    rows there were from them. The returned error probability is the
    priors times the _misses of the states at their assigned rows; it
    should match the collective error. A U more than 1e-8 from orthogonal
    raises InvalidInput; neither route's rows should give one. kappa = 1
    raises LinearDependence, as in code_information, before any state.
    """
    check_synth_length(code.n)
    _kappa_array(kappa, collapse_at_one=True)
    m = code.num_codewords
    dim = 2**code.n
    if outcome_assignment is None:
        labels = list(range(m))
    else:
        labels = [_check_int(x, 0, "outcome label") for x in outcome_assignment]
    if len(labels) != m or len(set(labels)) != m or max(labels) >= dim:
        raise InvalidInput(f"outcome assignment must be {m} distinct labels in [0, 2**n)")

    generators = linear_generators(code)
    if generators is None:
        states = codeword_states(code, kappa)
        measurement = polar_rows(states)
        misses = _misses(states, measurement)
        schedule = _row_schedule(measurement, labels)
    else:
        measurement, misses, schedule = group_schedule(code, generators, kappa, labels)
    collective = code_error_probability(code, kappa)
    u = reconstruct_unitary(schedule)
    # the only rows of U that are not the product's own, a block at a time
    at = np.array(labels)
    residual = 0.0
    for lo in range(0, m, _CHECK_ROWS):
        rows = u[at[lo : lo + _CHECK_ROWS]]
        rows -= measurement[lo : lo + _CHECK_ROWS]
        residual = max(residual, float(np.abs(rows, out=rows).max()))
        # freed before the next block is taken
        del rows
    u[at] = measurement
    orthogonality = _orthogonality_residual(u)
    if orthogonality > _ORTHOGONAL_TOL:
        raise InvalidInput(
            f"the adaptor is {orthogonality:.1e} from orthogonal: its measurement "
            f"rows or rotation schedule lost accuracy"
        )
    return SynthesizedUnitary(
        U=u,
        target_outcomes=tuple(labels),
        schedule=schedule,
        orthogonality_residual=orthogonality,
        reconstruction_residual=residual,
        error_probability=float(np.sum(code.priors * misses)),
        collective_error=collective,
    )


def check_synth_length(n: int) -> None:
    """ResourceLimit for a code of n > _MAX_SYNTH_N letters, before it is built."""
    if n > _MAX_SYNTH_N:
        raise ResourceLimit(f"synthesis guarded at n <= {_MAX_SYNTH_N}, got {n}")


def _orthogonality_residual(u) -> float:
    """max |U U^T - I| over the upper triangle, which holds the maximum
    since U U^T is symmetric (numpy's dense u @ u.T is a SYRK that mirrors
    one triangle). It goes _CHECK_ROWS rows at a time: each block, the
    product of its rows with the rows from its first on, takes 1 off its
    diagonal and its absolute value in its own buffer, so the check holds
    one block beside U. A full-width block would run a GEMM over twice the
    entries. NaN entries give NaN."""
    worst = 0.0
    for lo in range(0, u.shape[0], _CHECK_ROWS):
        block = u[lo : lo + _CHECK_ROWS] @ u[lo:].T
        diagonal = np.arange(block.shape[0])
        block[diagonal, diagonal] -= 1.0
        worst = np.maximum(worst, np.abs(block, out=block).max())
        del block
    return float(worst)


def _misses(states, rows) -> np.ndarray:
    """Each state's chance to miss its unit row, 1 - x**2 for x = psi . omega,
    as (1 + x) |psi - omega|**2 / 2: no term is below 0, where 1 - x**2
    is when x rounds above 1."""
    correct = np.einsum("ij,ij->i", states, rows)
    return (1.0 + correct) * np.sum((states - rows) ** 2, axis=1) / 2.0


def _row_schedule(measurement, labels) -> RotationSchedule:
    """Rotation schedule whose product has row labels[c] equal to
    measurement[c], for any orthonormal rows.

    The elimination G turns each measurement vector onto its label axis,
    codewords in increasing label order: one pivot run per codeword turns
    its column, already rotated by the runs before, against every axis not
    yet a pivot, in descending order. Rotation (row, pivot) turns entry
    w[row, col] into the running pivot, gamma = atan2(w[row, col], pivot),
    and goes to the later columns only. Entries on earlier pivots are
    rounding noise, since the columns are orthonormal. Then G has the
    measurement rows at the labels, and the schedule is G reversed with
    negated angles, each run's axes ascending. When every axis is a label
    and the last pivot ends negative, G has the negated row there; the
    trailing axis flip puts it right, and the rotations that touch the last
    axis keep their angle, since the flip turns them. Codeword c (in label
    order) takes at most 2**n - 1 - c rotations.
    """
    m, dim = measurement.shape
    w = measurement[np.argsort(labels)].T.copy()
    free = np.ones(dim, dtype=bool)
    blocks = []
    for col, pivot in enumerate(sorted(labels)):
        free[pivot] = False
        rows = np.flatnonzero(free)[::-1]
        y, value = w[rows, col], w[pivot, col]
        # an entry at or below 1e-14 is rounding noise in a unit column, and
        # atan2 of two noise values would be a large rotation that
        # eliminates nothing
        keep = np.abs(y) > _SKIP
        # with every entry left but the pivot negative, the first row turns
        # by about pi so that the pivot ends positive
        if value < 0.0 and keep.size and not keep.any():
            keep[0] = True
        rows, y = rows[keep], y[keep]
        norms = np.sqrt(value * value + np.cumsum(y * y))
        gammas = np.arctan2(y, np.concatenate(([value], norms[:-1])))
        c, s = np.cos(gammas).tolist(), np.sin(gammas).tolist()
        apply_rotations(w, [pivot] * rows.size, rows.tolist(), c, s, col + 1)
        blocks.append(np.column_stack((rows + 1, np.full(rows.size, pivot + 1), -gammas))[::-1])
    flip_last = bool(m == dim and w[dim - 1, dim - 1] < 0.0)
    rotations = np.concatenate(blocks[::-1])
    # under the flip the last axis keeps its angles; it is never a run's pivot
    rotations[flip_last & (rotations[:, 0] == dim), 2] *= -1.0
    return RotationSchedule(dim=dim, rotations=rotations, flip_last=flip_last)


def group_schedule(code: Code, generators, kappa, labels):
    """Square-root measurement rows omega_c of a coset c0 ^ C, c0 its
    smallest word, of the linear code C the generators span, with equal
    priors, each codeword's miss (1 + x) |psi_c - omega_c|**2 / 2 with
    x = psi_c . omega_c (see _misses), and the rotation schedule of the
    adaptor with row labels[c] equal to omega_c, all from its group
    structure (Eldar & Forney, IEEE TIT 47, 858, 2001).

    Letter 1 is Z letter 0, so psi_c[y] = (-1)**((c ^ c0).y) psi_c0[y]. Bit
    j of the class s of axis y is the parity of y & generator j, so
    (c ^ c0).y = m(c).s for the message m(c) of c ^ c0 in C, and omega_c =
    sum_s (-1)**(m(c).s) a_s / sqrt(M), a_s psi_c0 restricted to class s
    and normalized: omega_c has the signs psi_c flips in psi_c0, so every
    miss is that of psi_c0 and omega_c0, taken once. A class's pivot is its
    first axis where psi_c0 > 0: for C its first; c0 outside C flips half of
    each class. The schedule, applied to e_label, does in order:
    - the labels in codeword order: each label's vector takes one pi/2
      rotation onto its landing, the pivot of the class numbered by its
      codeword's message, with the sign the butterfly needs there, which
      sends whatever was on the landing back to where the vector was; a
      vector already on its landing only has its sign checked. pi
      rotations fix the wrong signs in pairs, the odd one out with an axis
      no codeword lands on or, when every axis is a codeword's, with the
      trailing axis flip;
    - the k-level butterfly of pi/4 rotations on the M pivots is the
      Walsh-Hadamard transform with input signs (-1)**|m|;
    - one pivot run per class turns its pivot onto a_s.
    That is 2**n - M + k*M/2 rotations, at most M moves and at most
    M/2 + 1 sign fixes. The rows and the runs' angles divide psi_c0 by the
    same class norms, so the runs turn onto the a_s the rows hold.
    """
    n, k = code.n, len(generators)
    dim, m = 2**code.n, 2**k
    bits = 1 << np.arange(k)
    # the parity in the narrowest unsigned dtype that holds dim - 1
    axes = np.arange(dim, dtype=np.min_scalar_type(dim - 1))
    words = _pack_bits(code.codewords).astype(axes.dtype)
    base = codeword_states(Code(n=n, codewords=code.codewords[[words.argmin()]]), kappa)[0]
    classes = _xor_span(_columns(generators, n)[::-1])
    # row s: the axes of class s, ascending, those where base > 0 first
    members = np.argsort(2 * classes + (base < 0.0), kind="stable").reshape(m, -1)
    first = members[:, 0]
    norms = np.sqrt(np.bincount(classes, weights=base**2))
    row = base / norms[classes] / np.sqrt(m)
    flips = np.bitwise_count((words ^ words.min())[:, None] & axes) & 1
    measurement = np.where(flips == 1, -row, row)
    misses = np.full(words.size, _misses(base[None], row[None])[0])
    # flips[c, y] = m(c).s(y), so bit j of m(c) is flips[c] on class 2**j's pivot
    messages = flips[:, first[bits]] @ bits
    landings = first[messages].tolist()
    signs = 1 - 2 * (np.bitwise_count(messages) & 1).astype(np.int64)

    rotations, wrong = [], []
    # at[label]: the axis label's vector is on and its sign there;
    # held[axis]: the label not yet placed whose vector is there
    at = {label: (label, 1) for label in labels}
    held = {label: label for label in labels}
    for label, landing, sign in zip(labels, landings, signs.tolist()):
        axis, now = at[label]
        del held[axis]
        if axis == landing:
            if now != sign:
                wrong.append(axis)
            continue
        # e_axis -> now*sign e_landing and e_landing -> -now*sign e_axis
        rotations.append((landing + 1, axis + 1, -now * sign * math.pi / 2))
        if landing in held:
            other = held.pop(landing)
            at[other] = (axis, -now * sign * at[other][1])
            held[axis] = other
    flip_last = False
    if len(wrong) % 2:
        if m < dim:
            wrong.append(min(set(range(dim)).difference(landings)))
        else:
            # the trailing flip passes back through the butterfly gates on
            # the last axis, turning their angles, onto the vector there
            flip_last = True
            if dim - 1 in wrong:
                wrong.remove(dim - 1)
            else:
                wrong.append(dim - 1)
    rotations += [(b + 1, a + 1, math.pi) for a, b in zip(wrong[::2], wrong[1::2])]

    for j in range(k):
        low = np.flatnonzero((np.arange(m) >> j & 1) == 0)
        a, b = first[low], first[low | 1 << j]
        turned = flip_last & ((a == dim - 1) | (b == dim - 1))
        gammas = np.where(turned, math.pi / 4, -math.pi / 4)
        rotations += zip((b + 1).tolist(), (a + 1).tolist(), gammas.tolist())

    t = base[members] / norms[:, None]
    # squared norm of the entries after each non-pivot entry of a class
    after = np.zeros_like(t[:, 1:])
    after[:, :-1] = np.cumsum(t[:, :1:-1] ** 2, axis=1)[:, ::-1]
    gammas = np.arctan2(-t[:, 1:], np.sqrt(t[:, :1] ** 2 + after))
    rows = (members[:, 1:] + 1).ravel().tolist()
    pivots = np.repeat(first + 1, members.shape[1] - 1).tolist()
    rotations += zip(rows, pivots, gammas.ravel().tolist())
    return measurement, misses, RotationSchedule(dim=dim, rotations=rotations, flip_last=flip_last)


def reck_decompose(u) -> RotationSchedule:
    """Factor an orthogonal matrix into at most dim(dim - 1)/2 plane
    rotations (j, i, gamma) with j > i, the triangular mesh of Reck et al.
    (PRL 73, 58, 1994); a determinant of -1 becomes the flip_last flag.
    This is _row_schedule with every axis a label. Raises InvalidInput
    unless u is a finite, non-empty square matrix within 1e-8 of
    orthogonal."""
    w = _as_array(u, "input")
    dim = w.shape[0] if w.ndim == 2 else 0
    # finite first: a NaN entry would pass the tolerance test below
    if not (dim and w.shape == (dim, dim) and np.isfinite(w).all()):
        raise InvalidInput(f"input must be a finite, non-empty square matrix, got shape {w.shape}")
    if _orthogonality_residual(w) > _ORTHOGONAL_TOL:
        raise InvalidInput("input is not orthogonal within tolerance")
    return _row_schedule(w, range(dim))


def reconstruct_unitary(schedule: RotationSchedule) -> np.ndarray:
    """Multiply the schedule back out (rotations in order, then the
    optional trailing axis flip).

    The product is built from the right: the identity, flipped if asked,
    takes the inverse rotations, last first, through apply_rotations.
    """
    dim, table = schedule.dim, schedule.rotations[::-1]
    out = np.eye(dim)
    if schedule.flip_last:
        out[dim - 1, dim - 1] = -1.0
    js, iss = table[:, :2].T.astype(np.int64) - 1
    apply_rotations(out, iss, js, np.cos(table[:, 2]), -np.sin(table[:, 2]), 0)
    return out


def schedule_to_csv(schedule: RotationSchedule) -> str:
    """One "j,i,gamma" line per rotation (1-based); a line with j == i ==
    dim and gamma = pi records the trailing axis flip. The table is
    formatted _CSV_ROWS rows at a time, so only one block's floats are
    Python objects at once."""
    table, dim = schedule.rotations, schedule.dim
    text = ["j,i,gamma\n"]
    for lo in range(0, len(table), _CSV_ROWS):
        block = table[lo : lo + _CSV_ROWS]
        text.append("%d,%d,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
    if schedule.flip_last:
        text.append(f"{dim},{dim},{math.pi:.17g}\n")
    return "".join(text)


def schedule_from_csv(text: str, dim: int | None = None) -> RotationSchedule:
    """Parse the schedule_to_csv format. A j == i line is the trailing axis
    flip only when it is the last data line, names axis dim and carries the
    angle pi (within 1e-12); any other j == i line raises InvalidInput, as
    do non-integer axes, axes outside 1..dim and non-finite angles. Without
    dim, the largest axis named is the dimension, so an empty schedule is
    refused. Only the first non-blank line may be a header (one starting
    with a letter)."""
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if lines and lines[0][0].isalpha():
        lines = lines[1:]
    rotations = []
    for line in lines:
        parts = line.split(",")
        if len(parts) != 3:
            raise InvalidInput(f"bad schedule line: {line!r}")
        try:
            rotations.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise InvalidInput(f"bad schedule line {line!r}: {exc}") from exc
    flip_dim = None
    if rotations and rotations[-1][0] == rotations[-1][1]:
        flip_dim, _, angle = rotations.pop()
        # "not <=" so that a NaN angle fails too
        if not abs(angle - math.pi) <= 1e-12:
            raise InvalidInput(f"axis flip line {flip_dim},{flip_dim} has angle {angle!r}, not pi")
    if dim is None:
        dim = max([a for j, i, _ in rotations for a in (j, i)] + [flip_dim or 0])
    schedule = RotationSchedule(dim=dim, rotations=rotations, flip_last=flip_dim is not None)
    if flip_dim not in (None, schedule.dim):
        raise InvalidInput(f"axis flip line names axis {flip_dim}, not the last axis {dim}")
    return schedule
