import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supadd import cli, fastcode, synth
from supadd.detection import polar_rows, square_root_measurement
from supadd.ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    code_from_text,
    code_to_text,
    codeword_states,
    embed_binary_letters,
    gram,
    int_bits,
)
from supadd.errors import InvalidInput, LinearDependence, ResourceLimit
from supadd.fastcode import (
    _reduce_roots,
    _root_error,
    code_information,
    linear_generators,
    nn12_error_probability,
)
from supadd.synth import (
    RotationSchedule,
    group_schedule,
    reck_decompose,
    reconstruct_unitary,
    schedule_from_csv,
    schedule_to_csv,
    synthesize_unitary,
)
from test_fastcode import all_words_error


def letter_frame(kappa):
    """Orthonormal pair from symmetric orthonormalization of the letters:
    the sum direction and the difference direction, unit normalized."""
    plus, minus = embed_binary_letters(kappa)
    a = plus + minus
    b = plus - minus
    return a / np.linalg.norm(a), b / np.linalg.norm(b)


def haar_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def python_reconstruct(schedule):
    """Rotations applied one at a time to the trailing axis flip, last
    rotation first."""
    dim = schedule.dim
    out = np.eye(dim)
    if schedule.flip_last:
        out[dim - 1, dim - 1] = -1.0
    for j, i, g in reversed(schedule.rotations.tolist()):
        c, s = math.cos(g), math.sin(g)
        rows = [int(i) - 1, int(j) - 1]
        out[rows, :] = np.array([[c, -s], [s, c]]) @ out[rows, :]
    return out


def python_row_schedule(measurement, labels):
    """The elimination of _row_schedule one rotation at a time, on whole
    rows: each measurement vector in increasing label order, already turned
    by the runs before, is turned onto its label axis against each axis not
    yet a pivot, in descending order, by gamma = atan2(entry, pivot), the
    pivot being the norm of the entries turned into it so far. Entries at
    or below 1e-14 stay, except that a negative pivot with nothing else to
    turn is turned against the first of those axes. Returns the schedule,
    the elimination reversed with its angles negated (those on the last
    axis keep theirs under the trailing flip), 0-based, and flip_last."""
    order = np.argsort(labels)
    w = np.array(measurement, dtype=np.float64)[order].T
    dim, m = w.shape
    pivots = sorted(labels)
    eliminated = []
    for col, pivot in enumerate(pivots):
        axes = [a for a in range(dim - 1, -1, -1) if a not in pivots[: col + 1]]
        value = w[pivot, col]
        lone_negative = value < 0.0 and all(abs(w[a, col]) <= 1e-14 for a in axes)
        squares = value * value
        for a in axes:
            if abs(w[a, col]) <= 1e-14 and not (lone_negative and a == axes[0]):
                continue
            gamma = math.atan2(w[a, col], value)
            squares += w[a, col] * w[a, col]
            value = math.sqrt(squares)
            c, s = math.cos(gamma), math.sin(gamma)
            w[pivot], w[a] = c * w[pivot] + s * w[a], c * w[a] - s * w[pivot]
            eliminated.append((a, pivot, gamma))
    flip_last = bool(m == dim and w[dim - 1, dim - 1] < 0.0)
    rotations = [
        (a, pivot, gamma if flip_last and a == dim - 1 else -gamma)
        for a, pivot, gamma in reversed(eliminated)
    ]
    return rotations, flip_last


def assert_matches_one_rotation_at_a_time(schedule, measurement, labels):
    rotations, flip_last = python_row_schedule(measurement, labels)
    assert schedule.flip_last == flip_last
    assert [(j, i) for j, i, _ in schedule.rotations] == [(j + 1, i + 1) for j, i, _ in rotations]
    gaps = [abs(a[2] - b[2]) for a, b in zip(schedule.rotations, rotations)]
    assert max(gaps, default=0.0) <= 1e-12


def group_vectors(code, kappa):
    """Square-root measurement vectors of a linear code with equal priors,
    or of a coset of one, in closed form, one row per codeword:
    omega_c[y] = (-1)**(c.y) psi_0[y] / sqrt(M), psi_0 normalized on the
    class of y, the axes whose characters (-1)**((c ^ c0).y) over the
    codewords translated by the smallest one, c0, agree with those of y."""
    n, m = code.n, code.num_codewords
    words = code.codewords @ (1 << np.arange(n - 1, -1, -1))
    axes = np.arange(2**n)[None, :]
    chars = np.bitwise_count(words[:, None] & axes) & 1
    translated = np.bitwise_count((words ^ words.min())[:, None] & axes) & 1
    psi0 = codeword_states(Code(n=n, codewords=np.zeros((1, n), dtype=np.uint8)), kappa)[0]
    _, classes = np.unique(translated.T, axis=0, return_inverse=True)
    norms = np.sqrt(np.bincount(classes.ravel(), weights=psi0**2))
    return (1.0 - 2.0 * chars) * (psi0 / norms[classes.ravel()]) / np.sqrt(m)


def eigh_tolerance(g):
    """How far the eigh route's rows and errors may stray: about 1e-16
    over the smallest Gram eigenvalue."""
    return 1e-12 + 1e-13 / np.linalg.eigvalsh(g)[0]


def eigh_rows(g, states):
    """The square-root measurement rows G**(-1/2) Psi through numpy's eigh:
    an oracle independent of the polar factor synth and the optimizer take."""
    values, vectors = np.linalg.eigh(g)
    return (vectors / np.sqrt(values)) @ vectors.T @ states


def exact_misses(states, rows):
    """Each state's miss (1 + x) |psi - omega|**2 / 2 of its row, with
    x = psi . omega and the squared distance correctly rounded: a summed
    dot product, as einsum's, may be some 1e-15 off at 2**8 entries."""
    x = np.array([math.fsum(products) for products in states * rows])
    distance = np.array([math.fsum(squares) for squares in (states - rows) ** 2])
    return (1.0 + x) * distance / 2.0


def separate_error(priors, states, rows):
    """The separate-readout error of the rows as synth forms it, the sum of
    xi_c (1 + x_c) |psi_c - omega_c|**2 / 2 with x_c = psi_c . omega_c:
    1 - sum_c xi_c x_c**2 for unit rows, with no term below 0."""
    x = np.einsum("ij,ij->i", states, rows)
    return float(np.sum(priors * ((1.0 + x) * np.sum((states - rows) ** 2, axis=1) / 2.0)))


def collective_error(priors, channel):
    """sum_i xi_i sum_{j != i} P(j|i) over the channel's off-diagonal
    entries, as synth forms it for the Gram route's channel."""
    off = np.where(np.eye(len(channel), dtype=bool), 0.0, channel)
    return float(np.sum(priors * off.sum(axis=1)))


def unreachable(*args, **kwargs):
    raise AssertionError("the group route called the eigh route")


def assert_group_rows(product, labels, code, kappa):
    expected = group_vectors(code, kappa)
    np.testing.assert_allclose(product[list(labels)], expected, rtol=0, atol=1e-12)


def rotation_bound(code):
    """2**n - M rotations for the class runs, k*M/2 for the butterfly, at
    most M moves and at most M/2 + 1 sign fixes."""
    m = code.num_codewords
    return 2**code.n - m + int(np.log2(m)) * m // 2 + m + m // 2 + 1


def synth_unitary_file(tmp_path, monkeypatch, u):
    """The unitary.txt that `supadd synth` writes for an adaptor equal to u."""
    real = cli.synthesize_unitary
    monkeypatch.setattr(
        cli, "synthesize_unitary", lambda *args, **kwargs: replace(real(*args, **kwargs), U=u)
    )
    assert cli.main(["synth", "--n", "3", "--outdir", str(tmp_path)]) == 0
    return (tmp_path / "unitary.txt").read_text()


def linear_code(n, values):
    return Code(n=n, codewords=int_bits(np.array(values), n))


def signed_permutation(rng, dim):
    return np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], size=dim)


def edge_case_matrices():
    rng = np.random.default_rng(21)
    cases = {
        "permutation": np.eye(9)[rng.permutation(9)],
        "reversal": np.eye(8)[::-1].copy(),
        "signed_permutation": signed_permutation(rng, 16),
        # -0.0 on the diagonal: atan2(0, -0.0) is pi
        "negated_shift": -np.roll(np.eye(6), 1, axis=0),
        "negated_identity": -np.eye(5),
        "interior_reflections": np.diag([1.0, -1.0, -1.0, 1.0, -1.0, 1.0]),
        # cosines of about 6e-17: prefix products underflow
        "kappa0_adaptor": synthesize_unitary(build_nn12_code(5), 0.0).U,
        "simplex_kappa0_adaptor": synthesize_unitary(build_simplex_code(3), 0.0).U,
        "simplex_adaptor": synthesize_unitary(build_simplex_code(3), 0.5).U,
    }
    for dim in (1, 2, 17, 100, 256):
        cases[f"haar{dim}"] = haar_orthogonal(rng, dim)
    return cases


EDGE_CASES = edge_case_matrices()


def row_cases():
    """Measurement rows and labels as _row_schedule takes them: the polar
    rows of non-linear codes with random priors, every axis a label in the
    last, and rows of Haar matrices at labels drawn apart from them."""
    rng = np.random.default_rng(22)
    cases = {}
    for n, m in ((4, 3), (5, 7), (6, 12), (3, 8)):
        values = rng.permutation(2**n)[:m]
        code = Code(n=n, codewords=int_bits(values, n), priors=rng.dirichlet(np.ones(m)))
        labels = rng.permutation(2**n)[:m].tolist()
        cases[f"code_{n}_{m}"] = (polar_rows(codeword_states(code, 0.6)), labels)
    for dim in (17, 100):
        rows = rng.permutation(dim)[: dim // 3]
        labels = rng.permutation(dim)[: rows.size].tolist()
        cases[f"haar{dim}_rows"] = (haar_orthogonal(rng, dim)[rows], labels)
    return cases


ROW_CASES = row_cases()


class TestLetterFrame:
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.5, 0.9])
    def test_orthonormal(self, kappa):
        a, b = letter_frame(kappa)
        assert abs(a @ b) < 1e-15
        assert abs(a @ a - 1.0) < 1e-14
        assert abs(b @ b - 1.0) < 1e-14

    def test_sum_and_difference_directions(self):
        kappa = 0.5
        a, b = letter_frame(kappa)
        plus, minus = embed_binary_letters(kappa)
        assert abs((plus @ a) ** 2 - (1.0 + kappa) / 2.0) < 1e-12
        assert abs((plus @ b) ** 2 - (1.0 - kappa) / 2.0) < 1e-12
        np.testing.assert_allclose(a, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(b, [0.0, 1.0], atol=1e-12)


class TestSynthesizeUnitary:
    def test_orthogonal_letters_map_sequences_to_labels(self):
        code = build_nn12_code(3)
        syn = synthesize_unitary(code, 0.0)
        assert syn.error_probability < 1e-12
        amps = codeword_states(code, 0.0) @ syn.U.T
        for m, label in enumerate(syn.target_outcomes):
            assert abs(amps[m, label] ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.9])
    def test_error_matches_collective_decoding(self, kappa):
        code = build_nn12_code(3)
        syn = synthesize_unitary(code, kappa)
        assert abs(syn.error_probability - nn12_error_probability(3, kappa)) < 1e-10
        dim = syn.U.shape[0]
        assert np.abs(syn.U @ syn.U.T - np.eye(dim)).max() <= 1e-10

    def test_probability_confined_to_assigned_labels(self):
        code = build_simplex_code(2)
        kappa = 0.6
        syn = synthesize_unitary(code, kappa)
        amps = codeword_states(code, kappa) @ syn.U.T
        mass = (amps[:, list(syn.target_outcomes)] ** 2).sum(axis=1)
        np.testing.assert_allclose(mass, 1.0, atol=1e-10)

    def test_assignment_invariance(self):
        code = build_nn12_code(3)
        base = synthesize_unitary(code, 0.5)
        moved = synthesize_unitary(code, 0.5, outcome_assignment=[5, 2, 7, 1])
        assert abs(base.error_probability - moved.error_probability) < 1e-12
        assert moved.target_outcomes == (5, 2, 7, 1)
        dim = moved.U.shape[0]
        assert np.abs(moved.U @ moved.U.T - np.eye(dim)).max() <= 1e-10

    @pytest.mark.parametrize(
        "code, assignment",
        [
            (build_nn12_code(3), None),
            (build_nn12_code(4), [9, 0, 15, 3, 4, 12, 1, 7]),
            (build_simplex_code(2), [6, 1, 4, 3]),
            (linear_code(4, [0, 3, 12, 14]), [9, 2, 7, 0]),
        ],
    )
    def test_assigned_rows_are_square_root_measurement_vectors(self, code, assignment):
        # a linear code's rows come from its group structure, any other
        # code's are its states' polar factor; both equal the eigh rows up to
        # their round-off
        kappa = 0.5
        syn = synthesize_unitary(code, kappa, outcome_assignment=assignment)
        rows = syn.U[list(syn.target_outcomes)]
        g = gram(code, kappa)
        states = codeword_states(code, kappa)
        if linear_generators(code) is None:
            np.testing.assert_array_equal(rows, polar_rows(states))
        else:
            np.testing.assert_array_equal(rows, group_vectors(code, kappa))
        assert np.abs(rows - eigh_rows(g, states)).max() <= eigh_tolerance(g)

    @pytest.mark.parametrize("code", [build_nn12_code(4), build_simplex_code(3)])
    def test_collective_error_is_the_channel_diagonal(self, code):
        syn = synthesize_unitary(code, 0.5)
        (error,) = _reduce_roots(linear_generators(code), code.n, 0.5, _root_error)
        assert syn.collective_error == error
        _, channel = square_root_measurement(gram(code, 0.5))
        assert abs(syn.collective_error - (1.0 - float(np.sum(code.priors * np.diag(channel))))) <= 1e-12
        assert abs(syn.collective_error - syn.error_probability) < 1e-12

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInput):
            synthesize_unitary(build_nn12_code(3), 0.5, outcome_assignment=[0, 1, 2, 2])

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.2, 2.9, 3.1], [0, 1, 2, 3.5], [0, 1, 2, math.nan], [0, 1, 2, "3"]]
    )
    def test_non_integral_labels_rejected(self, labels):
        # fractional labels used to be truncated to (0, 1, 2, 3)
        with pytest.raises(InvalidInput):
            synthesize_unitary(build_nn12_code(3), 0.5, outcome_assignment=labels)
        syn = synthesize_unitary(build_nn12_code(3), 0.5, outcome_assignment=[0.0, 1, np.int64(2), 3])
        assert syn.target_outcomes == (0, 1, 2, 3)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidInput):
            synthesize_unitary(build_nn12_code(3), 0.5, outcome_assignment=[0, 1, 2, 8])

    def test_non_orthogonal_adaptor_rejected(self, monkeypatch):
        # rows skewed 1e-6 off orthonormal put U past the 1e-8 guard
        def skewed(states):
            rows = polar_rows(states)
            rows[0] += 1e-6 * rows[1]
            return rows

        monkeypatch.setattr(synth, "polar_rows", skewed)
        code = code_from_text("4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n")
        with pytest.raises(InvalidInput, match="from orthogonal"):
            synthesize_unitary(code, 0.5)

    @pytest.mark.parametrize(
        "code, kappa",
        [
            # the group route's rows came out some 1e-15 too long here, and
            # 1 - x**2 gave -9.3e-15
            (Code(n=8, codewords=np.zeros((1, 8))), 0.7763885466718076),
            (code_from_text("4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n"), 0.0),
        ],
        ids=["one_word_n8", "nonlinear_kappa0"],
    )
    def test_errors_not_negative(self, code, kappa):
        syn = synthesize_unitary(code, kappa)
        assert 0.0 <= syn.error_probability <= 1e-15
        assert 0.0 <= syn.collective_error <= 1e-15

    @pytest.mark.parametrize(
        "code",
        [build_nn12_code(3), code_from_text("4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n")],
        ids=["group", "polar"],
    )
    def test_full_overlap_collapses(self, monkeypatch, code):
        # kappa = 1 collapses the states on either route, as code_information
        # says, and is refused before any state is built
        def built(*args):
            raise AssertionError("a state was built at kappa = 1")

        monkeypatch.setattr(synth, "codeword_states", built)
        with pytest.raises(LinearDependence):
            synthesize_unitary(code, 1.0)
        with pytest.raises(LinearDependence):
            code_information(code, 1.0)

    def test_block_length_guard(self):
        words = np.zeros((2, 13), dtype=np.uint8)
        words[1, 0] = 1
        words[1, 1] = 1
        code = Code(n=13, codewords=words)
        with pytest.raises(ResourceLimit):
            synthesize_unitary(code, 0.5)

    def test_block_length_guard_at_twelve(self):
        words = np.zeros((2, 12), dtype=np.uint8)
        words[1, :2] = 1
        with pytest.raises(ResourceLimit):
            synthesize_unitary(Code(n=12, codewords=words), 0.5)


def dense_orthogonality_residual(u):
    return float(np.abs(u @ u.T - np.eye(len(u))).max())


def random_nonlinear_code(seed, n, m):
    rng = np.random.default_rng(seed)
    values = rng.permutation(2**n)[:m]
    return Code(n=n, codewords=int_bits(values, n), priors=rng.dirichlet(np.ones(m)))


def orthogonality_cases():
    """Adaptors of each route, and Haar matrices below, at and past one
    block of synth._CHECK_ROWS rows."""
    all_words = linear_code(8, np.arange(256))
    labels = np.random.default_rng(2).permutation(256).tolist()
    adaptors = {
        "nn12_n5": (build_nn12_code(5), 0.5, None),
        "nn12_n7": (build_nn12_code(7), 0.93, None),
        "nn12_n9": (build_nn12_code(9), 0.5, None),
        "simplex_r2": (build_simplex_code(2), 0.5, None),
        "simplex_r3": (build_simplex_code(3), 0.5, None),
        "nonlinear_n4": (code_from_text("4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n"), 0.5, None),
        "nonlinear_n6": (random_nonlinear_code(31, 6, 12), 0.6, None),
        "nonlinear_n8": (random_nonlinear_code(32, 8, 40), 0.5, None),
        # these labels leave an odd number of wrong signs: the trailing flip
        "all_words_flip_last": (all_words, 0.95, labels),
    }
    cases = {}
    for name, (code, kappa, assignment) in adaptors.items():
        syn = synthesize_unitary(code, kappa, outcome_assignment=assignment)
        cases[name] = (syn.U, syn)
    assert cases["all_words_flip_last"][1].schedule.flip_last
    rng = np.random.default_rng(33)
    for dim in (100, synth._CHECK_ROWS, 300):
        cases[f"haar{dim}"] = (haar_orthogonal(rng, dim), None)
    return cases


ORTHOGONALITY_CASES = orthogonality_cases()


class TestBlockedChecks:
    @pytest.mark.parametrize("name", ORTHOGONALITY_CASES)
    def test_matches_dense_check(self, name):
        u, syn = ORTHOGONALITY_CASES[name]
        residual = synth._orthogonality_residual(u)
        assert residual == dense_orthogonality_residual(u)
        if syn is not None:
            assert syn.orthogonality_residual == residual

    @pytest.mark.parametrize("name", ["nn12_n9", "nonlinear_n8", "all_words_flip_last"])
    def test_reconstruction_residual_matches_dense(self, name):
        # 256 label rows (two blocks) or 40 (part of one)
        _, syn = ORTHOGONALITY_CASES[name]
        labels = list(syn.target_outcomes)
        dense = np.abs(reconstruct_unitary(syn.schedule)[labels] - syn.U[labels]).max()
        assert syn.reconstruction_residual == dense > 0.0

    def test_dims_around_one_block(self):
        dims = {len(u) for u, _ in ORTHOGONALITY_CASES.values()}
        assert min(dims) < synth._CHECK_ROWS
        assert synth._CHECK_ROWS in dims
        assert max(dims) > 2 * synth._CHECK_ROWS

    @pytest.mark.parametrize("row", [0, 200, 299], ids=["first", "middle_block", "last"])
    def test_reck_refuses_perturbed_row(self, row):
        u, _ = ORTHOGONALITY_CASES["haar300"]
        reck_decompose(u)
        skewed = u.copy()
        # moves only the entry (row - 1, row) of U U^T, or (0, 299), by 1e-6
        skewed[row] += 1e-6 * u[row - 1]
        assert synth._orthogonality_residual(skewed) > 1e-7
        with pytest.raises(InvalidInput, match="not orthogonal"):
            reck_decompose(skewed)

    def test_nan_in_a_later_block_is_not_lost(self):
        u = np.eye(300)
        u[299, 299] = np.nan
        assert np.isnan(synth._orthogonality_residual(u))

    def test_synthesis_holds_one_block_beside_its_arrays(self):
        # U and the measurement rows, plus one block of rows at a time
        code = build_nn12_code(10)
        synthesize_unitary(code, 0.5)
        tracemalloc.start()
        try:
            syn = synthesize_unitary(code, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m, dim = code.num_codewords, 2**code.n
        assert peak <= 1.5 * (syn.U.nbytes + m * dim * 8)


class TestGroupSchedule:
    @pytest.mark.parametrize(
        "code, rotations",
        [(build_nn12_code(8), 692), (build_nn12_code(9), 1520), (build_simplex_code(3), 137)],
    )
    def test_benchmark_codes(self, code, rotations):
        syn = synthesize_unitary(code, 0.5)
        dim = 2**code.n
        assert len(syn.schedule.rotations) == rotations < min(2000, dim * (dim - 1) // 2)
        assert len(syn.schedule.rotations) <= rotation_bound(code)
        assert syn.reconstruction_residual <= 1e-12
        assert np.abs(syn.U @ syn.U.T - np.eye(dim)).max() <= 1e-12
        product = reconstruct_unitary(syn.schedule)
        assert_group_rows(product, syn.target_outcomes, code, 0.5)

    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_code(self, n, moved):
        # k = 0: one class holding every axis, no butterfly
        code = linear_code(n, [0])
        syn = synthesize_unitary(code, 0.4, outcome_assignment=[2**n - 1] if moved else None)
        assert linear_generators(code) == ()
        assert len(syn.schedule.rotations) <= rotation_bound(code)
        product = reconstruct_unitary(syn.schedule)
        assert_group_rows(product, syn.target_outcomes, code, 0.4)
        assert syn.reconstruction_residual <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_code_every_assignment_parity(self, n):
        # k = n: every axis is a codeword's, so an odd number of wrong
        # signs goes to the trailing axis flip
        dim = 2**n
        rng = np.random.default_rng(n)
        flips = set()
        for _ in range(12):
            code = linear_code(n, rng.permutation(dim))
            labels = rng.permutation(dim).tolist()
            syn = synthesize_unitary(code, 0.3, outcome_assignment=labels)
            flips.add(syn.schedule.flip_last)
            assert len(syn.schedule.rotations) <= rotation_bound(code)
            product = reconstruct_unitary(syn.schedule)
            assert_group_rows(product, labels, code, 0.3)
            assert np.abs(product @ product.T - np.eye(dim)).max() <= 1e-12
        assert flips == {False, True}

    def test_every_generator_basis(self):
        # the even-weight n=4 code under each ordered choice of 3 of its
        # words that span it, with labels on the first axes of the classes
        code = build_nn12_code(4)
        words = [int(w) for w in code.codewords @ (1 << np.arange(3, -1, -1)) if w]
        labels = list(range(7, -1, -1))
        bases = 0
        for a in words:
            for b in words:
                for c in words:
                    if len({0, a, b, c, a ^ b, a ^ c, b ^ c, a ^ b ^ c}) < 8:
                        continue
                    _, _, schedule = group_schedule(code, (a, b, c), 0.6, labels)
                    product = reconstruct_unitary(schedule)
                    assert_group_rows(product, labels, code, 0.6)
                    bases += 1
        assert bases == 168

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_generator_basis_and_labels(self, data):
        n = data.draw(st.integers(1, 8))
        words = {0}
        for g in data.draw(st.lists(st.integers(1, 2**n - 1), max_size=n)):
            words |= {w ^ g for w in words}
        code = linear_code(n, data.draw(st.permutations(sorted(words))))
        m, dim = code.num_codewords, 2**n
        # row operations and a shuffle give another basis of the code
        basis = list(linear_generators(code))
        pairs = st.tuples(st.integers(0, n), st.integers(0, n))
        for i, j in data.draw(st.lists(pairs, max_size=8)):
            i, j = i % max(1, len(basis)), j % max(1, len(basis))
            if i != j:
                basis[i] ^= basis[j]
        basis = data.draw(st.permutations(basis))
        choice = data.draw(st.sampled_from(["default", "axes", "first"]))
        if choice == "default":
            labels = list(range(m))
        elif choice == "axes":
            labels = list(data.draw(st.permutations(range(dim)))[:m])
        else:
            # the first axis of every class, the pivots of the class runs
            chars = np.bitwise_count(np.array(basis, dtype=np.int64)[:, None] & np.arange(dim)) & 1
            keys = (chars << np.arange(len(basis))[:, None]).sum(axis=0)
            firsts = np.unique(keys, return_index=True)[1].tolist()
            labels = list(data.draw(st.permutations(firsts)))
        kappa = data.draw(st.floats(0.0, 0.95))

        states = codeword_states(code, kappa)
        rows, misses, schedule = group_schedule(code, tuple(basis), kappa, labels)
        np.testing.assert_array_equal(rows, group_vectors(code, kappa))
        assert np.abs(misses - exact_misses(states, rows)).max() <= 1e-14
        assert len(schedule.rotations) <= rotation_bound(code)
        # one move per codeword at most
        assert sum(abs(abs(g) - math.pi / 2) < 1e-12 for _, _, g in schedule.rotations) <= m
        product = reconstruct_unitary(schedule)
        assert np.abs(product @ product.T - np.eye(dim)).max() <= 1e-12
        assert_group_rows(product, labels, code, kappa)

        # the rows come from the group structure, never refused; the eigh
        # route is the oracle within its round-off
        syn = synthesize_unitary(code, kappa, outcome_assignment=labels)
        rows = syn.U[labels]
        np.testing.assert_array_equal(rows, group_vectors(code, kappa))
        assert syn.orthogonality_residual <= 1e-12
        assert np.abs(syn.U @ syn.U.T - np.eye(dim)).max() <= 1e-12
        assert np.abs(reconstruct_unitary(syn.schedule) - syn.U).max() <= 1e-12
        assert syn.reconstruction_residual <= 1e-12
        g = gram(code, kappa)
        tol = eigh_tolerance(g)
        _, channel = square_root_measurement(g)
        assert np.abs(rows - eigh_rows(g, states)).max() <= tol
        # every codeword's state meets its row as the zero word's does
        misses = exact_misses(states, rows)
        assert (misses == misses[0]).all()
        assert abs(syn.error_probability - float(np.sum(code.priors * misses))) <= 1e-14
        assert abs(syn.collective_error - collective_error(code.priors, channel)) <= tol
        assert abs(syn.collective_error - syn.error_probability) <= tol

    def test_ill_conditioned_code_synthesizes(self):
        # 255 of the 256 words of length 8 at kappa 0.95 are no linear code:
        # their eigh rows are about 1e-6 from orthonormal, past the 1e-8
        # guard, and their polar rows orthonormal to round-off
        code = linear_code(8, np.arange(255))
        assert linear_generators(code) is None
        syn = synthesize_unitary(code, 0.95)
        assert syn.reconstruction_residual <= 1e-12
        assert syn.orthogonality_residual <= 1e-12
        assert abs(syn.error_probability - syn.collective_error) <= 1e-9
        # all 256 words take their rows from the group structure: exact
        # where the eigh rows would be about 1e-5 from orthonormal
        syn = synthesize_unitary(linear_code(8, np.arange(256)), 0.95)
        assert syn.reconstruction_residual <= 1e-12
        assert syn.orthogonality_residual <= 1e-12

    @pytest.mark.parametrize("kappa", [0.9, 0.95, 0.99])
    def test_all_words_errors_agree_near_full_overlap(self, kappa):
        # the separate error from the rows and the collective error from the
        # class measure both reach the 50-digit reference
        syn = synthesize_unitary(linear_code(8, np.arange(256)), kappa)
        exact = all_words_error(kappa)
        assert abs(Decimal(syn.collective_error) - exact) <= Decimal("1e-15")
        assert abs(syn.error_probability - syn.collective_error) <= 1e-15

    @pytest.mark.parametrize("code", [build_nn12_code(8), build_simplex_code(3), linear_code(3, [0])])
    def test_no_states_gram_or_eigh(self, monkeypatch, code):
        # the state of the zero word is the only state built
        sizes = []
        states = synth.codeword_states
        monkeypatch.setattr(
            synth, "codeword_states", lambda c, kappa: sizes.append(c.num_codewords) or states(c, kappa)
        )
        monkeypatch.setattr(fastcode, "distances", unreachable)
        monkeypatch.setattr(fastcode, "square_root_measurement", unreachable)
        syn = synthesize_unitary(code, 0.5)
        assert sizes == [1]
        np.testing.assert_array_equal(syn.U[list(syn.target_outcomes)], group_vectors(code, 0.5))

    @pytest.mark.parametrize(
        "code, linear",
        [
            (build_nn12_code(4), True),
            (linear_code(4, [0, 3, 12, 15]), True),
            (linear_code(4, [0, 3, 12, 14]), False),
            (Code(n=3, codewords=build_nn12_code(3).codewords, priors=[0.4, 0.2, 0.2, 0.2]),
             False),
        ],
    )
    def test_route_choice(self, monkeypatch, code, linear):
        calls = []
        row_schedule = synth._row_schedule

        def spy(*args):
            calls.append(1)
            return row_schedule(*args)

        monkeypatch.setattr(synth, "_row_schedule", spy)
        syn = synthesize_unitary(code, 0.5)
        assert len(calls) == (0 if linear else 1)
        assert abs(syn.error_probability - syn.collective_error) < 1e-12

    @pytest.mark.parametrize(
        "code, labels",
        [
            (build_nn12_code(5), None),
            (build_nn12_code(5), list(range(31, 0, -2))),
            (build_simplex_code(2), [6, 1, 4, 3]),
            (linear_code(4, [0, 5, 10, 15]), [15, 0, 9, 2]),
        ],
    )
    def test_matches_dense_route(self, code, labels):
        # the dense route gave the measurement rows and the errors of the
        # eigh measurement: the group rows and errors agree within its
        # round-off
        kappa = 0.45
        syn = synthesize_unitary(code, kappa, outcome_assignment=labels)
        states = codeword_states(code, kappa)
        g = gram(code, kappa)
        meas = eigh_rows(g, states)
        _, channel = square_root_measurement(g)
        rows = syn.U[list(syn.target_outcomes)]
        np.testing.assert_array_equal(rows, group_vectors(code, kappa))
        assert np.abs(rows - meas).max() <= eigh_tolerance(g)
        correct = np.einsum("ij,ij->i", states, meas)
        assert abs(syn.error_probability - (1.0 - float(np.sum(code.priors * correct**2)))) <= 1e-12
        assert abs(syn.collective_error - (1.0 - float(np.sum(code.priors * np.diag(channel))))) <= 1e-12

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 0.93])
    @pytest.mark.parametrize("kind", ["even_weight", "random"])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_coset_matches_dense_route(self, n, kind, kappa):
        # a linear code translated by a word outside it, its words and labels
        # shuffled: no zero word, and its linear code's Gram matrix up to
        # codeword order, so it takes the group route. Its rows and errors
        # are the dense route's within its round-off, and its schedule has
        # the group schedule's length
        rng = np.random.default_rng([n, len(kind)])
        dim = 2**n
        if kind == "even_weight":
            span = build_nn12_code(n).codewords @ (1 << np.arange(n - 1, -1, -1))
        else:
            span = np.zeros(1, dtype=np.int64)
            for g in rng.integers(1, dim, size=rng.integers(1, n)):
                span = np.union1d(span, span ^ g)
        shift = rng.choice(np.setdiff1d(np.arange(dim), span))
        code = linear_code(n, rng.permutation(span ^ shift))
        m, k = code.num_codewords, int(np.log2(code.num_codewords))
        labels = rng.permutation(dim)[:m].tolist()
        assert linear_generators(code) is not None
        syn = synthesize_unitary(code, kappa, outcome_assignment=labels)
        rows = syn.U[labels]
        np.testing.assert_array_equal(rows, group_vectors(code, kappa))
        assert len(syn.schedule.rotations) <= dim - m + k * m // 2 + 2 * m
        assert syn.orthogonality_residual <= 1e-12
        assert syn.reconstruction_residual <= 1e-12
        states = codeword_states(code, kappa)
        g = gram(code, kappa)
        tol = eigh_tolerance(g)
        _, channel = square_root_measurement(g)
        assert np.abs(rows - eigh_rows(g, states)).max() <= tol
        misses = exact_misses(states, rows)
        assert (misses == misses[0]).all()
        assert abs(syn.error_probability - float(np.sum(code.priors * misses))) <= 1e-14
        assert abs(syn.collective_error - collective_error(code.priors, channel)) <= tol
        assert abs(syn.error_probability - syn.collective_error) <= tol


def decimal_inverse(a):
    """Inverse of a square list-of-lists Decimal matrix by Gauss-Jordan
    elimination with partial pivoting."""
    m = len(a)
    w = [row[:] + [Decimal(int(i == j)) for j in range(m)] for i, row in enumerate(a)]
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(w[r][c]))
        w[c], w[p] = w[p], w[c]
        w[c] = [x / w[c][c] for x in w[c]]
        for r in range(m):
            if r != c and w[r][c]:
                f = w[r][c]
                w[r] = [x - f * y for x, y in zip(w[r], w[c])]
    return [row[m:] for row in w]


def decimal_sqrt(a):
    """Principal square root of a symmetric positive definite Decimal
    matrix by the Denman-Beavers iteration (Higham, Functions of Matrices,
    SIAM 2008, ch. 6): Y <- (Y + Z**-1) / 2 and Z <- (Z + Y**-1) / 2 from
    Y = A and Z = I, until no entry of Y moves by 1e-50."""
    m = len(a)
    y, z = [row[:] for row in a], [[Decimal(int(i == j)) for j in range(m)] for i in range(m)]
    for _ in range(60):
        y_inv, z_inv = decimal_inverse(y), decimal_inverse(z)
        new = [[(p + q) / 2 for p, q in zip(r, s)] for r, s in zip(y, z_inv)]
        z = [[(p + q) / 2 for p, q in zip(r, s)] for r, s in zip(z, y_inv)]
        moved = max(abs(p - q) for r, s in zip(new, y) for p, q in zip(r, s))
        y = new
        if moved < Decimal("1e-50"):
            return y
    raise AssertionError("Denman-Beavers did not converge")


class TestNonLinearDecimalReference:
    """Both synth errors of a non-linear code against a 60-digit reference,
    1 - sum_i xi_i (G**(1/2))_ii**2 with G**(1/2) from decimal_sqrt. The
    codes are all 2**n words but one or three, with random priors, so no
    linear code or coset, at condition numbers of G up to 1.5e11.

    The separate error, from the states' polar rows, stays within 2e-15 of
    the reference whatever the conditioning. The collective error, from the
    Gram matrix's eigh root, drifts with cond(G): it stays within
    0.1 eps sqrt(cond(G)). So on a non-linear code error_mismatch measures
    the eigh root's error."""

    @pytest.mark.parametrize(
        "n, dropped, kappa",
        [(4, 1, 0.9), (4, 1, 0.99), (4, 1, 0.999), (5, 1, 0.95), (5, 1, 0.99), (5, 1, 0.995),
         (5, 3, 0.99)],
    )
    def test_errors_against_decimal_root(self, n, dropped, kappa):
        rng = np.random.default_rng(0)
        words = np.sort(rng.permutation(2**n)[dropped:])
        code = Code(n=n, codewords=int_bits(words, n), priors=rng.dirichlet(np.ones(words.size)))
        assert linear_generators(code) is None
        with localcontext() as ctx:
            ctx.prec = 60
            powers = [Decimal(kappa) ** d for d in range(n + 1)]
            g = [[powers[(a ^ b).bit_count()] for b in words.tolist()] for a in words.tolist()]
            root = decimal_sqrt(g)
            exact = 1 - sum(Decimal(xi) * root[i][i] ** 2 for i, xi in enumerate(code.priors.tolist()))
        syn = synthesize_unitary(code, kappa)
        eigenvalues = np.linalg.eigvalsh(gram(code, kappa))
        cond = eigenvalues[-1] / eigenvalues[0]
        assert abs(Decimal(syn.error_probability) - exact) <= Decimal("2e-15")
        bound = 0.1 * np.finfo(float).eps * math.sqrt(cond)
        assert abs(Decimal(syn.collective_error) - exact) <= Decimal(bound)


def row_bound(code):
    """Codeword c, in label order, turns against at most 2**n - 1 - c axes."""
    m = code.num_codewords
    return m * 2**code.n - m * (m + 1) // 2


class TestRowSchedule:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_label_rows_are_the_measurement(self, data):
        n = data.draw(st.integers(1, 6))
        dim = 2**n
        if data.draw(st.booleans()):
            values = list(range(dim))
        else:
            values = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
        m = len(values)
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        code = Code(n=n, codewords=int_bits(np.array(values), n), priors=np.array(weights) / sum(weights))
        if linear_generators(code) is not None:
            # equal priors after all: tilt them off the group route
            code = Code(n=n, codewords=code.codewords, priors=np.arange(1, m + 1) / (m * (m + 1) / 2))
        if linear_generators(code) is not None:
            return
        labels = list(data.draw(st.permutations(range(dim)))[:m])
        kappa = data.draw(st.floats(0.0, 0.95))

        states = codeword_states(code, kappa)
        g = gram(code, kappa)
        meas = polar_rows(states)
        _, channel = square_root_measurement(g)
        # the polar rows are orthonormal whatever the conditioning: never refused
        syn = synthesize_unitary(code, kappa, outcome_assignment=labels)
        assert syn.schedule.flip_last <= (m == dim)
        assert len(syn.schedule.rotations) <= row_bound(code)
        tol = eigh_tolerance(g)
        product = reconstruct_unitary(syn.schedule)
        assert np.abs(product[labels] - meas).max() <= tol
        assert syn.reconstruction_residual <= tol
        np.testing.assert_array_equal(syn.U[labels], meas)
        assert syn.error_probability == separate_error(code.priors, states, meas)
        assert syn.collective_error == collective_error(code.priors, channel)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_code_trailing_flip(self, n):
        # every axis is a label: the last pivot has nothing left to turn
        # against, so a negative one goes to the trailing axis flip
        dim = 2**n
        rng = np.random.default_rng(n)
        flips = set()
        for _ in range(16):
            priors = rng.random(dim) + 0.1
            code = Code(n=n, codewords=int_bits(rng.permutation(dim), n), priors=priors / priors.sum())
            labels = rng.permutation(dim).tolist()
            syn = synthesize_unitary(code, 0.4, outcome_assignment=labels)
            flips.add(syn.schedule.flip_last)
            assert len(syn.schedule.rotations) <= dim * (dim - 1) // 2
            product = reconstruct_unitary(syn.schedule)
            meas = polar_rows(codeword_states(code, 0.4))
            assert np.abs(product[labels] - meas).max() <= 1e-12
            assert np.abs(product @ product.T - np.eye(dim)).max() <= 1e-12
        assert flips == {False, True}

    def test_one_rotation_per_free_axis(self):
        rng = np.random.default_rng(6)
        values = rng.permutation(64)[:16]
        code = Code(n=6, codewords=int_bits(values, 6), priors=np.full(16, 1 / 16))
        syn = synthesize_unitary(code, 0.5, outcome_assignment=rng.permutation(64)[:16].tolist())
        assert linear_generators(code) is None
        assert len(syn.schedule.rotations) == row_bound(code) == 888
        assert syn.reconstruction_residual <= 1e-14
        assert syn.orthogonality_residual <= 1e-14
        # one run per codeword, each against one pivot with ascending axes
        runs = {}
        for j, i, _ in syn.schedule.rotations:
            runs.setdefault(i, []).append(j)
        assert len(runs) == 16
        assert all(axes == sorted(axes) for axes in runs.values())


class TestReckDecompose:
    def test_identity_empty_schedule(self):
        schedule = reck_decompose(np.eye(5))
        assert schedule.rotations.shape == (0, 3)
        assert not schedule.flip_last
        np.testing.assert_allclose(reconstruct_unitary(schedule), np.eye(5), atol=1e-14)

    def test_single_plane_rotation_recovered(self):
        gamma = 0.83
        u = np.eye(4)
        u[0, 0] = np.cos(gamma)
        u[1, 1] = np.cos(gamma)
        u[0, 1] = -np.sin(gamma)
        u[1, 0] = np.sin(gamma)
        schedule = reck_decompose(u)
        assert len(schedule.rotations) == 1
        j, i, angle = schedule.rotations[0]
        assert (j, i) == (2, 1)
        assert abs(angle - gamma) < 1e-12
        assert not schedule.flip_last

    def test_reflection_handled_by_last_axis_flip(self):
        u = np.eye(3)
        u[2, 2] = -1.0
        schedule = reck_decompose(u)
        assert schedule.flip_last
        np.testing.assert_allclose(reconstruct_unitary(schedule), u, atol=1e-12)

    def test_interior_reflection(self):
        u = np.diag([1.0, -1.0, 1.0, 1.0])
        schedule = reck_decompose(u)
        np.testing.assert_allclose(reconstruct_unitary(schedule), u, atol=1e-12)
        assert schedule.flip_last

    def test_schedule_indices_one_based_lower_triangle(self):
        rng = np.random.default_rng(0)
        u = haar_orthogonal(rng, 6)
        schedule = reck_decompose(u)
        assert len(schedule.rotations) <= 6 * 5 // 2
        for j, i, _ in schedule.rotations:
            assert 1 <= i < j <= 6

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidInput):
            reck_decompose(np.full((3, 3), 0.5))

    @pytest.mark.parametrize(
        "u",
        [np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.diag([1.0, np.nan]), np.float64(1.0),
         np.zeros((0, 0)), np.eye(3)[:2], np.ones(2)],
        ids=["nan", "inf", "nan_entry", "scalar", "empty", "wide", "vector"],
    )
    def test_malformed_matrix_rejected(self, u):
        # a NaN matrix used to give the empty schedule, a scalar an
        # IndexError and an empty matrix a ValueError
        with pytest.raises(InvalidInput):
            reck_decompose(u)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_reconstruction_property(self, dim, seed):
        u = haar_orthogonal(np.random.default_rng(seed), dim)
        schedule = reck_decompose(u)
        assert np.abs(reconstruct_unitary(schedule) - u).max() <= 1e-8

    def test_large_dimension_reconstruction(self):
        u = haar_orthogonal(np.random.default_rng(123), 64)
        schedule = reck_decompose(u)
        assert np.abs(reconstruct_unitary(schedule) - u).max() <= 1e-8


class TestPivotRunKernel:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_round_trip(self, name):
        u = EDGE_CASES[name]
        schedule = reck_decompose(u)
        assert np.abs(reconstruct_unitary(schedule) - u).max() <= 1e-12
        assert np.abs(python_reconstruct(schedule) - u).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_matches_one_rotation_at_a_time(self, name):
        u = EDGE_CASES[name]
        assert_matches_one_rotation_at_a_time(reck_decompose(u), u, range(u.shape[0]))

    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_rows_match_one_rotation_at_a_time(self, name):
        measurement, labels = ROW_CASES[name]
        schedule = synth._row_schedule(measurement, labels)
        assert_matches_one_rotation_at_a_time(schedule, measurement, labels)
        assert np.abs(reconstruct_unitary(schedule)[labels] - measurement).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_rows_round_trip(self, name):
        # a third of the rows at labels drawn apart from them; the adaptors'
        # columns hold rounding noise near 1e-14 after the first runs, so the
        # angles of the few rotations that turn it are noise too, and only
        # the product is compared
        u = EDGE_CASES[name]
        dim = u.shape[0]
        rng = np.random.default_rng(dim)
        rows = rng.permutation(dim)[: max(1, dim // 3)]
        labels = rng.permutation(dim)[: rows.size].tolist()
        schedule = synth._row_schedule(u[rows], labels)
        assert np.abs(reconstruct_unitary(schedule)[labels] - u[rows]).max() <= 1e-12

    def test_no_rotation_turns_rounding_noise(self):
        # the simplex r=3 adaptor at kappa 0.5 has pivots at rounding level;
        # atan2 of two noise values used to give hundreds of large rotations.
        # The elimination turns the rows of u, as columns, in the schedule's
        # reverse order by its negated angles (under the trailing flip, those
        # on the last axis keep theirs)
        u = EDGE_CASES["simplex_adaptor"]
        schedule = reck_decompose(u)
        dim = u.shape[0]
        w = u.T.copy()
        for j, i, g in reversed(schedule.rotations.tolist()):
            j, i = int(j), int(i)
            g = g if schedule.flip_last and j == dim else -g
            rows = [i - 1, j - 1]
            assert abs(w[j - 1, i - 1]) > 1e-14 or w[i - 1, i - 1] < -0.5
            c, s = math.cos(g), math.sin(g)
            w[rows, :] = np.array([[c, s], [-s, c]]) @ w[rows, :]
        assert np.abs(reconstruct_unitary(schedule) - u).max() <= 1e-12

    def test_schedule_out_of_reck_order(self):
        rng = np.random.default_rng(31)
        dim = 12
        lines = ["j,i,gamma"]
        for _ in range(150):
            j, i = rng.choice(dim, size=2, replace=False) + 1
            lines.append(f"{j},{i},{rng.uniform(-np.pi, np.pi):.17g}")
        lines += ["3,1,0.25", "3,1,-1.5", "2,1,0.5", "5,1,1e-300", "4,7,2", f"{dim},{dim},{np.pi}"]
        schedule = schedule_from_csv("\n".join(lines))
        assert schedule.flip_last
        np.testing.assert_allclose(
            reconstruct_unitary(schedule), python_reconstruct(schedule), rtol=0, atol=1e-12
        )

    def test_underflowing_run_in_schedule(self):
        body = "".join(f"{j},1,{np.pi / 2 * (-1) ** j:.17g}\n" for j in range(2, 41))
        schedule = schedule_from_csv("j,i,gamma\n" + body)
        np.testing.assert_allclose(
            reconstruct_unitary(schedule), python_reconstruct(schedule), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("line", ["5,1,0.3", "0,1,0.3", "2,-1,0.3"])
    def test_axis_out_of_range_rejected(self, line):
        with pytest.raises(InvalidInput):
            reconstruct_unitary(schedule_from_csv("j,i,gamma\n" + line + "\n", dim=4))


class TestScheduleSerialization:
    def test_round_trip_with_flip(self):
        rng = np.random.default_rng(4)
        u = haar_orthogonal(rng, 5)
        u[:, 0] *= -1.0  # force determinant -1
        schedule = reck_decompose(u)
        restored = schedule_from_csv(schedule_to_csv(schedule))
        assert restored.dim == schedule.dim
        assert restored.flip_last == schedule.flip_last
        assert len(restored.rotations) == len(schedule.rotations)
        np.testing.assert_allclose(reconstruct_unitary(restored), u, atol=1e-8)

    def test_header_line_present(self):
        schedule = RotationSchedule(dim=3, rotations=[(2, 1, 0.5)], flip_last=False)
        text = schedule_to_csv(schedule)
        assert text.splitlines()[0] == "j,i,gamma"

    def test_flip_serialized_as_terminal_pi_line(self):
        schedule = RotationSchedule(dim=3, rotations=[], flip_last=True)
        lines = schedule_to_csv(schedule).strip().splitlines()
        j, i, angle = lines[-1].split(",")
        assert int(j) == int(i) == 3
        assert abs(float(angle) - np.pi) < 1e-15

    def test_empty_schedule_needs_dimension(self):
        with pytest.raises(InvalidInput):
            schedule_from_csv("j,i,gamma\n")
        restored = schedule_from_csv("j,i,gamma\n", dim=4)
        assert restored.dim == 4
        assert restored.rotations.shape == (0, 3)

    def test_unitary_text_round_trip(self, tmp_path, monkeypatch):
        u = haar_orthogonal(np.random.default_rng(8), 6)
        synth_unitary_file(tmp_path, monkeypatch, u)
        restored = np.loadtxt(tmp_path / "unitary.txt")
        np.testing.assert_allclose(restored, u, atol=1e-15)

    @pytest.mark.parametrize(
        "body",
        [
            "2,1,0.5\n2,2,0.3\n",  # flip line on the wrong axis and angle
            f"2,1,0.5\n3,3,{math.pi!r}\n",  # flip line on axis 3 of 4
            "2,1,0.5\n4,4,0.3\n",  # flip line with an angle that is not pi
            f"4,4,{math.pi!r}\n2,1,0.5\n",  # flip line before a rotation
            "2,1,0.5\n4,4,nan\n",  # flip line with a NaN angle
        ],
    )
    def test_misplaced_flip_line_rejected(self, body):
        with pytest.raises(InvalidInput):
            schedule_from_csv("j,i,gamma\n" + body, dim=4)

    def test_flip_line_must_name_inferred_last_axis(self):
        with pytest.raises(InvalidInput):
            schedule_from_csv(f"j,i,gamma\n4,1,0.5\n3,3,{math.pi!r}\n")
        restored = schedule_from_csv(f"j,i,gamma\n2,1,0.5\n4,4,{math.pi!r}\n")
        assert restored.dim == 4 and restored.flip_last
        assert restored.rotations.tolist() == [[2, 1, 0.5]]

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidInput):
            schedule_from_csv("j,i,gamma\n2,1\n")

    @pytest.mark.parametrize(
        "body", ["2,1,nan", "2,1,inf", "3,1,-inf", "2,x,0.5", "2.5,1,0.3", "2,1,0.5rad"]
    )
    def test_bad_field_rejected(self, body):
        with pytest.raises(InvalidInput):
            schedule_from_csv("j,i,gamma\n3,2,0.1\n" + body + "\n", dim=3)

    @pytest.mark.parametrize("body", ["x,1,0.5", "nan,1,0.5", "j,i,gamma"])
    def test_only_the_first_line_may_be_a_header(self, body):
        # a later line starting with a letter used to be dropped silently
        with pytest.raises(InvalidInput):
            schedule_from_csv("j,i,gamma\n2,1,0.3\n" + body + "\n3,1,0.1\n", dim=3)
        assert schedule_from_csv("\n  j,i,gamma\n2,1,0.3\n").rotations.tolist() == [[2, 1, 0.3]]

    def test_non_finite_angle_rejected_in_memory(self):
        for angle in (math.nan, math.inf):
            with pytest.raises(InvalidInput):
                RotationSchedule(dim=3, rotations=[(2, 1, 0.5), (3, 1, angle)], flip_last=False)

    @pytest.mark.parametrize(
        "rotation", [(2, 2, 0.3), (2.5, 1, 0.3), (3, 1.5, 0.3), (math.nan, 1, 0.3), (math.inf, 1, 0.3)]
    )
    def test_bad_axes_rejected_in_memory(self, rotation):
        # (2, 2, 0.3) used to give a matrix 0.56 from orthogonal, and
        # (2.5, 1, 0.3) was read as (2, 1, 0.3)
        with pytest.raises(InvalidInput):
            RotationSchedule(dim=3, rotations=[(2, 1, 0.5), rotation], flip_last=False)

    def test_axis_outside_given_dimension_rejected_while_parsing(self):
        huge = "1" + "0" * 400 + ",1,0.3"
        for body in ("5,1,0.3", "0,1,0.3", "2,-1,0.3", "2,5,0.3", huge):
            with pytest.raises(InvalidInput):
                schedule_from_csv("j,i,gamma\n" + body + "\n", dim=4)
        # an axis past float range, which no dimension can hold
        with pytest.raises(InvalidInput):
            schedule_from_csv("j,i,gamma\n" + huge + "\n")

    @pytest.mark.parametrize("axis", [0, -1])
    def test_flip_line_on_a_non_positive_axis_rejected(self, axis):
        # "0,0,pi" used to give a dimension-0 schedule that reconstruct
        # could not build
        with pytest.raises(InvalidInput):
            schedule_from_csv(f"j,i,gamma\n{axis},{axis},{math.pi!r}\n")

    def test_inferred_dimension_covers_pivot_axes(self):
        restored = schedule_from_csv("j,i,gamma\n1,3,0.5\n")
        assert restored.dim == 3
        u = reconstruct_unitary(restored)
        np.testing.assert_allclose(u, python_reconstruct(restored), rtol=0, atol=1e-15)

    def test_text_matches_fstring_formatting(self, tmp_path, monkeypatch):
        u = np.array(
            [[-0.0, 1e-300, 0.5], [1.0, -0.7071067811865476, 2.0 / 3.0], [np.pi, -1e-17, 0.0]]
        )
        expected = "\n".join(" ".join(f"{x:.17g}" for x in row) for row in u) + "\n"
        assert synth_unitary_file(tmp_path, monkeypatch, u) == expected

    def test_csv_matches_fstring_formatting(self):
        u = haar_orthogonal(np.random.default_rng(9), 6)
        rotations = reck_decompose(u).rotations.tolist()
        rotations += [(2, 1, -0.0), (3, 1, 1e-300), (3, 2, 2.0 / 3.0), (6, 1, -np.pi / 2)]
        schedule = RotationSchedule(dim=6, rotations=rotations, flip_last=True)
        expected = "j,i,gamma\n" + "".join(f"{j:.0f},{i:.0f},{g:.17g}\n" for j, i, g in rotations)
        expected += f"6,6,{math.pi:.17g}\n"
        assert schedule_to_csv(schedule) == expected

    def test_csv_over_several_blocks(self):
        rng = np.random.default_rng(10)
        count = 2 * synth._CSV_ROWS + 5
        axes = rng.integers(1, 9, size=(count, 2))
        axes[:, 1] = (axes[:, 0] + rng.integers(0, 7, size=count)) % 8 + 1
        rotations = np.column_stack((axes, rng.standard_normal(count)))
        schedule = RotationSchedule(dim=8, rotations=rotations, flip_last=False)
        expected = "".join(f"{j:.0f},{i:.0f},{g:.17g}\n" for j, i, g in rotations.tolist())
        assert schedule_to_csv(schedule) == "j,i,gamma\n" + expected

    def test_rotations_are_one_float64_table(self):
        schedule = reck_decompose(haar_orthogonal(np.random.default_rng(11), 64))
        count = len(schedule.rotations)
        assert 0 < count <= 64 * 63 // 2
        assert schedule.rotations.dtype == np.float64
        assert schedule.rotations.shape == (count, 3)
        restored = schedule_from_csv(schedule_to_csv(schedule))
        assert restored.rotations.dtype == np.float64
        assert np.array_equal(restored.rotations, schedule.rotations)

    @pytest.mark.parametrize(
        "rotations",
        [
            [[1, 2, 0.5, 1, 3, 0.2]],
            [(1, 2)],
            [(1, 2, 0.5, 7)],
            [(1, 2, 0.5), (2, 1)],
            [(1, 2, "x")],
            np.array([1.0, 2.0, 0.5]),
            [[(1, 2, 0.5)]],
            [(1, 2, 0.5 + 0j)],
            None,
        ],
        ids=["six_wide", "pair", "four_wide", "ragged", "text", "flat", "nested", "complex",
             "none"],
    )
    def test_malformed_table_refused(self, rotations):
        # a six-wide row was read as two rotations by reconstruct_unitary,
        # and the others raised a bare ValueError or TypeError
        with pytest.raises(InvalidInput):
            RotationSchedule(dim=3, rotations=rotations, flip_last=False)

    @pytest.mark.parametrize("empty", [[], (), np.empty(0), np.empty((0, 3))])
    def test_empty_table_is_a_schedule(self, empty):
        schedule = RotationSchedule(dim=3, rotations=empty, flip_last=True)
        assert schedule.rotations.shape == (0, 3)
        assert schedule_to_csv(schedule) == f"j,i,gamma\n3,3,{math.pi:.17g}\n"
        np.testing.assert_array_equal(reconstruct_unitary(schedule), np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize(
        "field, value", [("dim", 1), ("rotations", [[1, 1, 0.3]]), ("flip_last", True)]
    )
    def test_fields_cannot_be_reassigned(self, field, value):
        # a reassigned field skipped the checks: these made reconstruct_unitary
        # raise a bare TypeError or IndexError and schedule_to_csv an AttributeError
        schedule = RotationSchedule(dim=3, rotations=[[3, 1, 0.5]], flip_last=False)
        with pytest.raises(FrozenInstanceError):
            setattr(schedule, field, value)
        assert (schedule.dim, schedule.flip_last) == (3, False)
        assert schedule_to_csv(schedule) == "j,i,gamma\n3,1,0.5\n"

    def test_table_is_a_read_only_copy(self):
        given = np.array([[3.0, 1.0, 0.5], [2.0, 3.0, -0.25]])
        schedule = RotationSchedule(dim=3, rotations=given, flip_last=False)
        expected = reconstruct_unitary(schedule)
        # the caller's table is not the schedule's
        given[0, 0] = 7.0
        assert schedule.rotations[0, 0] == 3.0
        # and the schedule's cannot be written: an axis of 7 raised a bare IndexError
        with pytest.raises(ValueError, match="read-only"):
            schedule.rotations[0, 0] = 7.0
        np.testing.assert_array_equal(reconstruct_unitary(schedule), expected)


def savetxt_text(path, u):
    np.savetxt(path, u, fmt="%.17g")
    return path.read_text()


def lines(text):
    """The text as a list of its lines, newlines kept, so that a failing
    comparison reports the first line that differs rather than a diff of
    the whole file."""
    return text.splitlines(keepends=True)


def signed_zero_blocks():
    """Entries from a few values, 0.0 and -0.0 among them, over one full
    block of rows and a short last one. -tiny has the longest "%.17g" text
    of a float64, 24 characters."""
    rows = cli._TEXT_BLOCK // 64 + 44
    tiny = np.finfo(np.float64).tiny
    values = [0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, 1e-300, -2.0 / 3.0, -tiny]
    return np.random.default_rng(12).choice(values, size=(rows, 64))


def distinct_block(extra):
    """One full block of rows whose distinct values are _DIRECT_SHARE of
    its entries, plus extra: at the writer's branch rule, or past it."""
    rng = np.random.default_rng(16)
    cols = 1024
    size = cli._TEXT_BLOCK // cols * cols
    distinct = int(cli._DIRECT_SHARE * size) + extra
    values = rng.standard_normal(distinct)
    entries = np.concatenate((values, rng.choice(values, size - distinct)))
    return rng.permutation(entries).reshape(-1, cols)


def few_repeats_signed_zeros():
    """A block with few repeats, 0.0, -0.0 and -tiny among its values."""
    rng = np.random.default_rng(17)
    u = rng.standard_normal((40, 300))
    u.flat[rng.choice(u.size, 60, replace=False)] = [0.0, -0.0, -np.finfo(np.float64).tiny] * 20
    return u


def wider_than_block():
    """Rows longer than a block, so each block is one row: the first and
    third from a few values, the others all distinct."""
    rng = np.random.default_rng(18)
    u = rng.standard_normal((4, cli._TEXT_BLOCK + 5))
    u[::2] = rng.choice([0.0, -0.0, 0.5, -1.0 / 3.0], size=(2, u.shape[1]))
    return u


# matrices whose unitary.txt must have np.savetxt's bytes; the last four
# sit at the writer's branch rule, just past it, and on either side of it
WRITER_CASES = {
    "group_adaptor": lambda: synthesize_unitary(build_nn12_code(6), 0.5).U,
    "signed_zeros_short_last_block": signed_zero_blocks,
    "haar_200": lambda: haar_orthogonal(np.random.default_rng(13), 200),
    "row_repeated": lambda: np.random.default_rng(14).choice(
        [0.0, -0.0, 0.25, -1.0 / 7.0], size=(1, 37)
    ),
    "row_distinct": lambda: np.random.default_rng(14).standard_normal((1, 37)),
    "column_repeated": lambda: np.random.default_rng(14).choice(
        [0.0, -0.0, 0.25, -1.0 / 7.0], size=(37, 1)
    ),
    "column_distinct": lambda: np.random.default_rng(14).standard_normal((37, 1)),
    "nonlinear_adaptor": lambda: synthesize_unitary(
        code_from_text("4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n"), 0.5
    ).U,
    "at_direct_share": lambda: distinct_block(0),
    "past_direct_share": lambda: distinct_block(1),
    "few_repeats_signed_zeros": few_repeats_signed_zeros,
    "wider_than_block": wider_than_block,
}


class TestUnitaryTextMatchesSavetxt:
    """unitary.txt has the bytes np.savetxt(fmt="%.17g") gives, for matrices
    whose row blocks repeat values and for those whose entries are all
    distinct."""

    @pytest.mark.parametrize("make", WRITER_CASES.values(), ids=WRITER_CASES.keys())
    def test_matches_savetxt(self, tmp_path, monkeypatch, make):
        u = make()
        expected = savetxt_text(tmp_path / "savetxt.txt", u)
        assert lines(synth_unitary_file(tmp_path, monkeypatch, u)) == lines(expected)

    @pytest.mark.parametrize("make", WRITER_CASES.values(), ids=WRITER_CASES.keys())
    @pytest.mark.parametrize(
        "share", [pytest.param(0.0, id="direct"), pytest.param(1.0, id="indexed")]
    )
    def test_each_branch_on_every_block(self, tmp_path, monkeypatch, make, share):
        # a share of 0 formats every block directly; of 1, none
        u = make()
        monkeypatch.setattr(cli, "_DIRECT_SHARE", share)
        cli._write_matrix(tmp_path / "unitary.txt", u)
        expected = savetxt_text(tmp_path / "savetxt.txt", u)
        assert lines((tmp_path / "unitary.txt").read_text()) == lines(expected)

    def test_nonlinear_code_file(self, tmp_path):
        rng = np.random.default_rng(15)
        words = int_bits(rng.choice(64, size=12, replace=False), 6)
        code = Code(n=6, codewords=words, priors=rng.dirichlet(np.ones(12)))
        path = tmp_path / "nonlinear.code"
        path.write_text(code_to_text(code))
        outdir = tmp_path / "out"
        assert cli.main(["synth", "--code", str(path), "--kappa", "0.5", "--outdir", str(outdir)]) == 0
        u = synthesize_unitary(code_from_text(path.read_text()), 0.5).U
        expected = savetxt_text(tmp_path / "savetxt.txt", u)
        assert lines((outdir / "unitary.txt").read_text()) == lines(expected)
