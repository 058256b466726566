"""Property tests over random codes: the square-root-measurement channel,
the block information and the block error stay inside their bounds, and
decoder synthesis agrees with the dense route on either of its routes.
Over random orthonormal ensembles, no certified error is below 0. Fuzz
tests of the two text parsers: any text gives a valid object or
InvalidInput, never another exception."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supadd.detection import (
    bayes_cost_reduction,
    check_optimality,
    polar_rows,
    square_root_measurement,
)
from supadd.ensembles import (
    Code,
    code_from_text,
    code_to_text,
    codeword_states,
    gram,
    int_bits,
)
from supadd.errors import InvalidInput
from supadd.fastcode import code_information, linear_generators
from supadd.information import holevo_binary
from supadd.synth import (
    RotationSchedule,
    reconstruct_unitary,
    schedule_from_csv,
    schedule_to_csv,
    synthesize_unitary,
)
from test_synth import (
    collective_error,
    eigh_rows,
    eigh_tolerance,
    group_vectors,
    separate_error,
)

TOL = 1e-9


@st.composite
def codes(draw):
    """A linear code (the span of random generator words) or a random set
    of distinct words, n <= 8, with equal or random priors."""
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        words = {0}
        for g in draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=n)):
            words |= {w ^ g for w in words}
        values = sorted(words)
    else:
        values = draw(
            st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=min(2**n, 128), unique=True)
        )
    priors = None
    if draw(st.booleans()):
        weights = draw(
            st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values))
        )
        priors = np.array(weights) / sum(weights)
    return Code(n=n, codewords=int_bits(np.array(values), n), priors=priors)


kappas = st.floats(min_value=0.0, max_value=0.95)


def closure_generators(code):
    """linear_generators by set closure: each distinct word of the code
    translated by its smallest word, in set order, that the span of the
    words kept before it misses, and None once that span passes M words or
    the priors are unequal."""
    m = code.num_codewords
    if np.abs(code.priors - 1.0 / m).max() > 1e-12:
        return None
    words = code.codewords.astype(np.int64) @ (1 << np.arange(code.n - 1, -1, -1))
    span, generators = {0}, []
    for word in set((words ^ words.min()).tolist()):
        if word not in span:
            span |= {s ^ word for s in span}
            if len(span) > m:
                return None
            generators.append(word)
    return tuple(generators)


@settings(max_examples=200, deadline=None)
@given(codes())
def test_linear_generators_match_set_closure(code):
    assert linear_generators(code) == closure_generators(code)


@settings(max_examples=60, deadline=None)
@given(codes(), kappas)
def test_square_root_channel_row_stochastic(code, kappa):
    _, channel = square_root_measurement(gram(code, kappa))
    assert channel.min() >= -TOL
    np.testing.assert_allclose(channel.sum(axis=1), 1.0, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(codes(), kappas)
def test_information_within_bounds(code, kappa):
    bits = code_information(code, kappa)
    bound = min(math.log2(code.num_codewords), code.n * holevo_binary(kappa))
    assert -TOL <= bits <= bound + TOL


@settings(max_examples=60, deadline=None)
@given(codes(), kappas)
def test_block_error_is_a_probability(code, kappa):
    _, channel = square_root_measurement(gram(code, kappa))
    error = 1.0 - float(np.sum(code.priors * np.diag(channel)))
    assert -TOL <= error <= 1.0 + TOL


@settings(max_examples=40, deadline=None)
@given(codes(), kappas)
def test_synthesis_agrees_with_the_dense_route(code, kappa):
    """Linear codes with equal priors, and their cosets, take their label
    rows and schedule from the group structure, and every other code takes
    its states' polar rows and one pivot run per codeword. Either way the
    label rows are the square-root measurement, the errors are those of the
    dense route, the schedule is shorter than a Reck mesh of U, and its
    product is U up to the dense route's round-off."""
    m, dim = code.num_codewords, 2**code.n
    g = gram(code, kappa)
    linear = linear_generators(code) is not None
    # the group rows are exact and the polar rows orthonormal to round-off,
    # so no code is refused
    syn = synthesize_unitary(code, kappa)
    states = codeword_states(code, kappa)
    meas = polar_rows(states)
    _, channel = square_root_measurement(g)
    separate = separate_error(code.priors, states, meas)
    collective = collective_error(code.priors, channel)
    tol = eigh_tolerance(g)
    assert np.abs(meas - eigh_rows(g, states)).max() <= tol
    # sums of non-negative terms, so never below 0
    assert syn.error_probability >= 0.0 and syn.collective_error >= 0.0
    if linear:
        np.testing.assert_array_equal(syn.U[:m], group_vectors(code, kappa))
        assert np.abs(syn.U[:m] - meas).max() <= tol
        assert abs(syn.error_probability - separate) <= tol
        assert abs(syn.collective_error - collective) <= tol
    else:
        np.testing.assert_array_equal(syn.U[:m], meas)
        assert syn.error_probability == separate
        assert syn.collective_error == collective
    assert syn.reconstruction_residual <= tol
    assert np.abs(reconstruct_unitary(syn.schedule) - syn.U).max() <= tol
    if linear_generators(code) is None:
        bound = m * dim - m * (m + 1) // 2
    else:
        k = int(math.log2(m))
        bound = dim - m + k * m // 2 + 2 * m
    assert len(syn.schedule.rotations) <= bound


# numbers, near-numbers and separators the parsers must survive
FIELDS = st.sampled_from(
    ["0", "1", "2", "3", "01", "10", "11", "000", "011", "0.5", "0.25", "-1", "1e-300", "1e400",
     "nan", "inf", "-inf", "x", "0x1", "1_0", "", " ", "\t", "3.14159265358979", "٣"]
)


@st.composite
def code_texts(draw):
    """Arbitrary text, a list of near-numbers, or a code file whose header,
    words and priors are each drawn from valid and invalid fields."""
    kind = draw(st.sampled_from(["text", "tokens", "file"]))
    if kind == "text":
        return draw(st.text(max_size=80))
    if kind == "tokens":
        tokens = draw(st.lists(FIELDS, max_size=14))
    else:
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        bits = st.text(alphabet="01", min_size=n, max_size=n)
        words = draw(st.lists(st.one_of(bits, FIELDS), min_size=m, max_size=m))
        priors = draw(st.lists(st.one_of(st.just(repr(1.0 / m)), FIELDS), min_size=m, max_size=m))
        tokens = [str(n), str(m)] + words + priors
    return draw(st.sampled_from(["\n", " ", "\t"])).join(tokens)


@settings(max_examples=200, deadline=None)
@given(code_texts())
def test_code_parser_returns_valid_code_or_invalid_input(text):
    try:
        code = code_from_text(text)
    except InvalidInput:
        return
    m = code.num_codewords
    assert code.codewords.shape == (m, code.n) and m >= 1
    assert set(np.unique(code.codewords).tolist()) <= {0, 1}
    assert len({tuple(row) for row in code.codewords.tolist()}) == m
    assert np.isfinite(code.priors).all() and code.priors.min() >= 0.0
    assert abs(code.priors.sum() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(codes())
def test_code_text_round_trip(code):
    restored = code_from_text(code_to_text(code))
    assert restored.n == code.n
    assert np.array_equal(restored.codewords, code.codewords)
    assert np.array_equal(restored.priors, code.priors)


@st.composite
def schedule_texts(draw):
    """Arbitrary text, or comma-separated lines of near-numbers."""
    if draw(st.booleans()):
        return draw(st.text(max_size=80))
    fields = st.one_of(FIELDS, st.integers(-2, 6).map(str), st.just(repr(math.pi)))
    lines = draw(st.lists(st.lists(fields, min_size=2, max_size=4).map(",".join), max_size=6))
    return "\n".join(["j,i,gamma"] + lines)


@settings(max_examples=200, deadline=None)
@given(schedule_texts(), st.one_of(st.none(), st.integers(1, 6)))
def test_schedule_parser_returns_valid_schedule_or_invalid_input(text, dim):
    try:
        schedule = schedule_from_csv(text, dim=dim)
    except InvalidInput:
        return
    assert dim is None or schedule.dim == dim
    for j, i, gamma in schedule.rotations:
        assert 1 <= j <= schedule.dim and 1 <= i <= schedule.dim and j != i
        assert math.isfinite(gamma)
    if schedule.dim <= 64:
        u = reconstruct_unitary(schedule)
        assert np.abs(u @ u.T - np.eye(schedule.dim)).max() < 1e-9


def float_bits(x):
    return struct.pack("<d", x)


@st.composite
def schedules(draw):
    dim = draw(st.integers(2, 12))
    axes = st.integers(1, dim)
    pairs = st.tuples(axes, axes).filter(lambda p: p[0] != p[1])
    angles = st.floats(allow_nan=False, allow_infinity=False)
    rotations = draw(st.lists(st.tuples(pairs, angles).map(lambda t: (*t[0], t[1])), max_size=20))
    return RotationSchedule(dim=dim, rotations=rotations, flip_last=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_schedule_csv_round_trip_is_exact(schedule):
    restored = schedule_from_csv(schedule_to_csv(schedule), dim=schedule.dim)
    assert restored.dim == schedule.dim
    assert restored.flip_last == schedule.flip_last
    assert [(j, i, float_bits(g)) for j, i, g in restored.rotations] == [
        (j, i, float_bits(g)) for j, i, g in schedule.rotations
    ]


@st.composite
def orthonormal_ensembles(draw):
    """m orthonormal states of length dim >= m, the first rows of a random
    orthogonal matrix, m <= 12, and priors, some of them possibly 0."""
    m = draw(st.integers(1, 12))
    dim = m + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((dim, m)))
    weights = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any))
    return q.T.copy(), np.array(weights) / sum(weights)


@settings(max_examples=60, deadline=None)
@given(ensemble=orthonormal_ensembles())
def test_orthonormal_ensemble_errors_not_below_zero(ensemble):
    # the optimum error of orthonormal states is 0; 1 - sum xi_i X_ii**2
    # rounded below 0 wherever an overlap rounded above 1
    states, priors = ensemble
    report = check_optimality(states, states, priors)
    assert 0.0 <= report.error_probability <= 1e-14
    assert report.is_optimal
    _, report = bayes_cost_reduction(states, priors)
    assert 0.0 <= min(report.error_history)
    assert 0.0 <= report.error_probability <= 1e-14
