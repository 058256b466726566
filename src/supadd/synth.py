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
product. For a linear code with equal priors the schedule is written down
from the group structure (group_schedule); for any other code it is one
pivot run per codeword, read off the measurement rows (_row_schedule).
reck_decompose factors any orthogonal matrix into a full triangular mesh.
"""

from dataclasses import dataclass

import math

import numpy as np

from ._kernels import apply_rotations
from .detection import square_root_measurement
from .ensembles import Code, codeword_states, gram
from .errors import InvalidInput, ResourceLimit
from .fastcode import linear_generators

# how far from orthogonal an adaptor may be
_ORTHOGONAL_TOL = 1e-8
# `synth --code` on a random code with M = 2**n / 4 and random priors takes
# about 2 s and 53 MB at n = 9, 8 s and 0.11 GB at n = 10 and 36-40 s and
# 0.34 GB at n = 11 (dim 2048) on a 2-core machine, even-weight n = 11 on the
# group route 3.7 s and 0.22 GB; n = 12 would take 8x the time and 4x the memory
_MAX_SYNTH_N = 11
# |w[j, i]| at or below this is rounding noise in a unit column
_SKIP = 1e-14


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


@dataclass(eq=False)
class RotationSchedule:
    """Ordered plane rotations (j, i, gamma) with 1-based axis indices;
    flip_last records a trailing sign flip of the last axis (determinant
    -1), serialized as a (dim, dim, pi) line."""

    dim: int
    rotations: list
    flip_last: bool


def synthesize_unitary(code: Code, kappa: float, outcome_assignment=None) -> SynthesizedUnitary:
    """Build the orthogonal adaptor that maps the collective measurement
    basis onto product-basis outcomes, with its rotation schedule.

    Codeword m's square-root measurement vector becomes row
    outcome_assignment[m] of U (default: labels 0..M-1), which must be M
    distinct integers in [0, 2**n). The product basis is the standard
    basis, so U maps each measurement vector onto its label's axis. The
    schedule comes first: group_schedule writes it down for a linear code
    with equal priors, _row_schedule reads it off the measurement rows for
    any other code. U is the schedule's product with the measurement rows
    written at the labels, and the reconstruction residual is how far the
    product's own rows there were from them. The returned error
    probability is computed from the adapted states at their assigned
    labels; it should match the collective error, read off the diagonal of
    the measurement's channel. A U more than 1e-8 from orthogonal, which
    the measurement rows of an ill-conditioned Gram matrix give, raises
    InvalidInput.
    """
    if code.n > _MAX_SYNTH_N:
        raise ResourceLimit(f"synthesis guarded at n <= {_MAX_SYNTH_N}, got {code.n}")
    m = code.num_codewords
    dim = 2**code.n
    if outcome_assignment is None:
        labels = list(range(m))
    else:
        given = list(outcome_assignment)
        try:
            labels = [int(x) for x in given]
            integral = labels == given
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise InvalidInput(f"outcome labels must be integers, got {given!r}")
    if len(labels) != m or len(set(labels)) != m:
        raise InvalidInput("outcome assignment must be M distinct labels")
    if min(labels) < 0 or max(labels) >= dim:
        raise InvalidInput("outcome labels must lie in [0, 2**n)")

    states = codeword_states(code, kappa)
    measurement, channel = square_root_measurement(gram(code, kappa), states=states)
    generators = linear_generators(code)
    if generators is None:
        schedule = _row_schedule(measurement, labels)
    else:
        zero = int(np.flatnonzero(~code.codewords.any(axis=1))[0])
        schedule = group_schedule(code, generators, states[zero], labels)
    u = reconstruct_unitary(schedule)
    # the only rows of U that are not the product's own
    residual = float(np.abs(u[labels] - measurement).max())
    u[labels] = measurement
    orthogonality = float(np.abs(u @ u.T - np.eye(dim)).max())
    if orthogonality > _ORTHOGONAL_TOL:
        raise InvalidInput(
            f"the adaptor is {orthogonality:.1e} from orthogonal: the square-root "
            f"measurement of this ill-conditioned Gram matrix is not accurate enough"
        )
    correct = np.einsum("ij,ij->i", states, measurement)
    error = 1.0 - float(np.sum(code.priors * correct**2))
    return SynthesizedUnitary(
        U=u,
        target_outcomes=tuple(labels),
        schedule=schedule,
        orthogonality_residual=orthogonality,
        reconstruction_residual=residual,
        error_probability=error,
        collective_error=1.0 - float(np.sum(code.priors * np.diag(channel))),
    )


def _row_schedule(measurement, labels) -> RotationSchedule:
    """Rotation schedule whose product has row labels[c] equal to
    measurement[c], for any orthonormal rows.

    The elimination G turns each measurement vector onto its label axis,
    codewords in increasing label order: one pivot run per codeword turns
    its column, already rotated by the runs before, against every axis not
    yet a pivot, in descending order. Entries on earlier pivots are
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
    runs = []
    for col, pivot in enumerate(sorted(labels)):
        free[pivot] = False
        runs.append((pivot, *_pivot_run(w, col, pivot, np.flatnonzero(free)[::-1], col + 1)))
    flip_last = bool(m == dim and w[dim - 1, dim - 1] < 0.0)
    rotations = []
    for pivot, rows, gammas in reversed(runs):
        # with the flip, the last axis is never a run's pivot: its run is empty
        gammas = np.where(flip_last & (rows == dim - 1), gammas, -gammas)[::-1]
        rotations += zip((rows[::-1] + 1).tolist(), [pivot + 1] * rows.size, gammas.tolist())
    return RotationSchedule(dim=dim, rotations=rotations, flip_last=flip_last)


def _pivot_run(w, col, pivot, rows, start):
    """One pivot run of a column elimination: rotation (row, pivot) turns
    entry w[row, col] into the running pivot, gamma = atan2(w[row, col],
    pivot), for the rows in the given order; the rotations go to the
    columns start: of w in place. Returns the rows turned and their angles.

    An entry with |w[row, col]| <= 1e-14 is left in place: the column has
    unit norm, so such an entry is rounding noise, and turning by atan2 of
    two noise values would be a large rotation that eliminates nothing.
    When every entry is left but the pivot is negative, the first row is
    turned by about pi so that the pivot ends positive.
    """
    y = w[rows, col]
    value = w[pivot, col]
    keep = np.abs(y) > _SKIP
    if value < 0.0 and keep.size and not keep.any():
        keep[0] = True
    rows, y = rows[keep], y[keep]
    norms = np.sqrt(value * value + np.cumsum(y * y))
    gammas = np.arctan2(y, np.concatenate(([value], norms[:-1])))
    c, s = np.cos(gammas).tolist(), np.sin(gammas).tolist()
    apply_rotations(w, [pivot] * rows.size, rows.tolist(), c, s, [start] * rows.size)
    return rows, gammas


def group_schedule(code: Code, generators, zero_state, labels) -> RotationSchedule:
    """Rotation schedule of the adaptor of a linear code with equal
    priors, written down from its group structure (Eldar & Forney, IEEE
    TIT 47, 858, 2001); zero_state is the state of the zero word and
    labels the axis of each codeword.

    Letter 1 is Z letter 0, so psi_c[y] = (-1)**(c.y) psi_0[y]. Bit j of
    the class s of axis y is the parity of y & generator j, so
    c.y = m(c).s for the message m(c) of c, and the square-root vector of
    c is omega_c = sum_s (-1)**(m(c).s) a_s / sqrt(M), where a_s is psi_0
    restricted to class s and normalized. The product U has row
    labels[c] equal to omega_c; applied to e_label, in order:
    - pi/2 rotations move each label axis to the first axis of the class
      numbered by its codeword's message, with the sign the butterfly
      needs there; pi rotations fix the signs that closing a cycle of
      moves leaves wrong, in pairs, the odd one out with an axis no
      codeword lands on or, when every axis is a codeword's, with the
      trailing axis flip;
    - the k-level butterfly of pi/4 rotations on the M first axes is the
      Walsh-Hadamard transform with input signs (-1)**|m|;
    - one pivot run per class turns its first axis onto a_s.
    That is 2**n - M + k*M/2 rotations, at most M moves and at most
    M/2 + 1 sign fixes.
    """
    n, k = code.n, len(generators)
    dim, m = 2**code.n, 2**k
    parity = np.bitwise_count(
        np.arange(dim, dtype=np.uint64)[:, None] & np.array(generators, dtype=np.uint64)
    ) & 1
    classes = parity.astype(np.int64) @ (1 << np.arange(k))
    # row s: the axes of class s, ascending
    members = np.argsort(classes, kind="stable").reshape(m, -1)
    first = members[:, 0]
    words = np.zeros(1, dtype=np.int64)
    for g in generators:
        words = np.concatenate([words, words ^ g])
    message = np.empty(dim, dtype=np.int64)
    message[words] = np.arange(m)
    messages = message[code.codewords @ (1 << np.arange(n - 1, -1, -1))]
    landings = first[messages].tolist()
    signs = 1 - 2 * (np.bitwise_count(messages) & 1).astype(np.int64)
    target = dict(zip(labels, zip(landings, signs.tolist())))
    landing = set(landings)

    rotations = []
    moved = set()
    # a chain of moves that starts at a label no codeword lands on ends on
    # an axis that is no label; its last move goes first
    for start in labels:
        if start in landing:
            continue
        chain = [start]
        while chain[-1] in target:
            chain.append(target[chain[-1]][0])
        for src, dst in zip(chain[-2::-1], chain[:0:-1]):
            rotations.append((dst + 1, src + 1, -target[src][1] * math.pi / 2))
        moved.update(chain)
    # the other labels form cycles, each moved through its start axis: a
    # move sends the start's vector on with the sign it needs and brings
    # the next one back with the opposite sign, so only the last can land
    # with the wrong sign
    wrong = []
    for start in labels:
        if start in moved:
            continue
        cycle = [start]
        while target[cycle[-1]][0] != start:
            cycle.append(target[cycle[-1]][0])
        moved.update(cycle)
        sign = 1
        for src, dst in zip(cycle, cycle[1:]):
            sign *= -target[src][1]
            rotations.append((dst + 1, start + 1, sign * math.pi / 2))
        if sign != target[cycle[-1]][1]:
            wrong.append(start)
    flip_last = False
    if len(wrong) % 2:
        if m < dim:
            wrong.append(next(y for y in range(dim) if y not in landing))
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

    t = zero_state[members]
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    # squared norm of the entries after each non-pivot entry of a class
    after = np.zeros_like(t[:, 1:])
    after[:, :-1] = np.cumsum(t[:, :1:-1] ** 2, axis=1)[:, ::-1]
    gammas = np.arctan2(-t[:, 1:], np.sqrt(t[:, :1] ** 2 + after))
    rows = (members[:, 1:] + 1).ravel().tolist()
    pivots = np.repeat(first + 1, members.shape[1] - 1).tolist()
    rotations += zip(rows, pivots, gammas.ravel().tolist())
    return RotationSchedule(dim=dim, rotations=rotations, flip_last=flip_last)


def reck_decompose(u, tol: float = _ORTHOGONAL_TOL) -> RotationSchedule:
    """Factor an orthogonal matrix into plane rotations by column-major
    elimination of below-diagonal entries; a leftover determinant of -1
    becomes the flip_last flag.

    Column i is one pivot run (_pivot_run) against pivot i, with rows
    j > i ascending.
    """
    w = np.array(u, dtype=np.float64)
    dim = w.shape[0]
    if w.shape != (dim, dim) or np.abs(w @ w.T - np.eye(dim)).max() > tol:
        raise InvalidInput("input is not orthogonal within tolerance")
    rotations = []
    for i in range(dim - 1):
        rows, gammas = _pivot_run(w, i, i, np.arange(i + 1, dim), i + 1)
        rotations += zip((rows + 1).tolist(), [i + 1] * rows.size, gammas.tolist())
    flip_last = bool(w[dim - 1, dim - 1] < 0.0)
    return RotationSchedule(dim=dim, rotations=rotations, flip_last=flip_last)


def reconstruct_unitary(schedule: RotationSchedule) -> np.ndarray:
    """Multiply the schedule back out (rotations in order, then the
    optional trailing axis flip).

    The product is built from the right: the identity, flipped if asked,
    takes the inverse rotations, last first, through apply_rotations. Rows
    and columns below the smallest axis touched so far are still those of
    the identity, so each rotation updates only the columns from that axis
    on. Axes that are not two distinct integers in 1..dim, or an angle that
    is not finite, raise InvalidInput.
    """
    dim = schedule.dim
    out = np.eye(dim)
    if schedule.flip_last:
        out[dim - 1, dim - 1] = -1.0
    table = np.array(schedule.rotations, dtype=np.float64).reshape(-1, 3)[::-1]
    axes = table[:, :2]
    if not ((axes >= 1) & (axes <= dim) & (axes == np.floor(axes))).all():
        raise InvalidInput(f"rotation axes must be integers in 1..{dim}")
    if not np.isfinite(table[:, 2]).all():
        raise InvalidInput("rotation angles must be finite")
    js, iss = axes.T.astype(np.int64) - 1
    if (js == iss).any():
        raise InvalidInput("a rotation must turn two distinct axes")
    starts = np.minimum.accumulate(np.minimum(js, iss))
    apply_rotations(out, iss, js, np.cos(table[:, 2]), -np.sin(table[:, 2]), starts)
    return out


def schedule_to_csv(schedule: RotationSchedule) -> str:
    """One "j,i,gamma" line per rotation (1-based); a line with j == i ==
    dim and gamma = pi records the trailing axis flip."""
    lines = ["j,i,gamma"]
    lines += ["%d,%d,%.17g" % t for t in schedule.rotations]
    if schedule.flip_last:
        lines.append(f"{schedule.dim},{schedule.dim},{math.pi:.17g}")
    return "\n".join(lines) + "\n"


def schedule_from_csv(text: str, dim: int | None = None) -> RotationSchedule:
    """Parse the schedule_to_csv format. A j == i line is the trailing axis
    flip only when it is the last data line, names axis dim and carries the
    angle pi (within 1e-12); any other j == i line raises InvalidInput, as
    do non-integer axes, axes outside 1..dim and non-finite angles. Without
    dim, the largest axis named is the dimension. Only the first non-blank
    line may be a header (one starting with a letter)."""
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if lines and lines[0][0].isalpha():
        lines = lines[1:]
    rotations = []
    for line in lines:
        parts = line.split(",")
        if len(parts) != 3:
            raise InvalidInput(f"bad schedule line: {line!r}")
        try:
            rotation = (int(parts[0]), int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise InvalidInput(f"bad schedule line {line!r}: {exc}") from exc
        if not math.isfinite(rotation[2]):
            raise InvalidInput(f"schedule angle must be finite: {line!r}")
        rotations.append(rotation)
    flip_dim = None
    if rotations and rotations[-1][0] == rotations[-1][1]:
        flip_dim, _, angle = rotations.pop()
        if abs(angle - math.pi) > 1e-12:
            raise InvalidInput(f"axis flip line {flip_dim},{flip_dim} has angle {angle!r}, not pi")
    if any(j == i for j, i, _ in rotations):
        raise InvalidInput("a j == i line is allowed only last, as the axis flip")
    axes = [a for j, i, _ in rotations for a in (j, i)]
    if dim is None:
        candidates = axes + ([flip_dim] if flip_dim is not None else [])
        if not candidates:
            raise InvalidInput("cannot infer dimension from an empty schedule")
        dim = max(candidates)
    if dim < 1:
        raise InvalidInput(f"schedule dimension must be at least 1, got {dim}")
    if flip_dim is not None and flip_dim != dim:
        raise InvalidInput(f"axis flip line names axis {flip_dim}, not the last axis {dim}")
    if axes and not 1 <= min(axes) <= max(axes) <= dim:
        raise InvalidInput(f"rotation axes must lie in 1..{dim}")
    return RotationSchedule(dim=dim, rotations=rotations, flip_last=flip_dim is not None)

