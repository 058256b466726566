"""Integer, flag and kappa arguments of the exported callables.

Every length, rank, count, label, seed and schedule field
goes through one check, _checks._check_int: a malformed value raises
InvalidInput, never a bare Python or numpy exception and never a number
computed from it. The sweep feeds each such parameter malformed values of
its kind; ACCEPTED lists what is taken on purpose and what it must give.

Every kappa goes through embed_binary_letters or gram, which take a real
scalar, or through _checks._kappa_array, which takes a number or an
array of them: KAPPA_CASES feeds each kappa parameter a string, None, a
bool and, on the scalar routes, an array.

Every other array argument (states, measurements, channels, priors,
matrices, codewords, rotation tables) has a shape and a value check:
ARRAY_CASES feeds each one NaN, +inf and -inf entries, a value defect, a
wrong shape, empty arrays and ragged rows, and each must raise
InvalidInput with no warning, except where a kind is a value the
parameter takes on purpose.
"""

import inspect
import math
import warnings
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supadd
from supadd import (
    Code,
    InvalidInput,
    RotationSchedule,
    binary_flip_probability,
    block_gain,
    build_nn12_code,
    build_simplex_code,
    bayes_cost_reduction,
    c1_binary,
    check_optimality,
    code_information,
    code_to_text,
    codeword_states,
    embed_binary_letters,
    find_kappa_star,
    gram,
    holevo_binary,
    mutual_information,
    nn12_error_probability,
    nn12_mutual_information,
    random_collective_max_info,
    reck_decompose,
    reconstruct_unitary,
    schedule_from_csv,
    schedule_to_csv,
    separable_pair_info,
    simplex_profile,
    sqrt_psd,
    square_root_measurement,
    synthesize_unitary,
    threshold_certificate,
)
from supadd.detection import helstrom_binary
from supadd.fastcode import code_error_probability


class Case(NamedTuple):
    """One integer or flag parameter: the exported callable and parameter
    it stands for, a call that passes the value to it and returns something
    comparable, the smallest value it takes (None for a flag) and a value it
    takes."""

    name: str
    param: str
    call: Callable
    lo: int | None
    good: object


def _schedule(dim=3, flip_last=True):
    return RotationSchedule(dim=dim, rotations=[(1, 2, 0.25), (3, 1, -0.5)], flip_last=flip_last)


def _synth_labels(label):
    syn = synthesize_unitary(build_nn12_code(3), 0.5, outcome_assignment=[0, 1, 2, label])
    return syn.target_outcomes, syn.U.tolist()


def _from_csv(dim):
    schedule = schedule_from_csv("j,i,gamma\n1,2,0.25\n3,3,3.1415926535897931\n", dim=dim)
    return type(schedule.dim), schedule.dim, schedule.rotations.tolist(), schedule.flip_last


# a linear code (the group route) and a non-linear one (the Gram route)
_LINEAR = build_nn12_code(3)
_NONLINEAR = Code(n=3, codewords=[[0, 0, 0], [0, 1, 1], [1, 1, 1]])


def _length(code, n):
    return Code(n=n, codewords=code.codewords)


CASES = [
    Case("Code", "n", lambda v: code_to_text(Code(n=v, codewords=[[0, 0, 1], [1, 1, 0]])), 0, 3),
    Case("build_nn12_code", "n", lambda v: code_to_text(build_nn12_code(v)), 2, 4),
    Case("build_simplex_code", "r", lambda v: code_to_text(build_simplex_code(v)), 2, 3),
    Case("block_gain", "n", lambda v: block_gain(v, 0.6), 2, 4),
    Case("find_kappa_star", "n", find_kappa_star, 2, 3),
    Case("nn12_mutual_information", "n", lambda v: nn12_mutual_information(v, 0.6), 2, 5),
    Case("nn12_error_probability", "n", lambda v: nn12_error_probability(v, 0.6), 2, 5),
    Case("simplex_profile", "r", lambda v: tuple(simplex_profile(v, 0.6)), 2, 3),
    # a code's length reaches each route of each code quantity through Code
    Case("Code", "n", lambda v: code_information(_length(_LINEAR, v), 0.6), 0, 3),
    Case("Code", "n", lambda v: code_information(_length(_NONLINEAR, v), 0.6), 0, 3),
    Case("Code", "n", lambda v: code_error_probability(_length(_LINEAR, v), 0.6), 0, 3),
    Case("Code", "n", lambda v: code_error_probability(_length(_NONLINEAR, v), 0.6), 0, 3),
    Case("threshold_certificate", "n", lambda v: tuple(threshold_certificate(0.6, v)), 1, 3),
    Case("random_collective_max_info", "trials",
         lambda v: random_collective_max_info(0.3, 0.7, trials=v), 1, 3),
    Case("random_collective_max_info", "seed",
         lambda v: random_collective_max_info(0.3, 0.7, trials=3, seed=v), 0, 7),
    Case("RotationSchedule", "dim",
         lambda v: reconstruct_unitary(_schedule(dim=v)).tolist(), 1, 3),
    Case("RotationSchedule", "dim", lambda v: schedule_to_csv(_schedule(dim=v)), 1, 3),
    Case("RotationSchedule", "flip_last",
         lambda v: reconstruct_unitary(_schedule(flip_last=v)).tolist(), None, True),
    Case("RotationSchedule", "flip_last", lambda v: schedule_to_csv(_schedule(flip_last=v)),
         None, True),
    Case("schedule_from_csv", "dim", _from_csv, 1, 3),
    Case("synthesize_unitary", "outcome_assignment", _synth_labels, 0, 3),
]
# exported records whose fields are results, not arguments
RESULTS = {"OptimalityReport", "ThresholdCertificate", "SynthesizedUnitary", "InfoResult",
           "SimplexProfile"}


def _case_id(case):
    return f"{case.name}.{case.param}-{CASES.index(case)}"


# public names of their modules that the package does not export, swept
# all the same: each takes a kappa from its callers
UNEXPORTED = {"helstrom_binary": helstrom_binary, "code_error_probability": code_error_probability}


def _exported_parameters():
    """(callable name, parameter) of every exported callable's parameters,
    and of UNEXPORTED's, results and exceptions aside."""
    for name in supadd.__all__ + list(UNEXPORTED):
        obj = UNEXPORTED.get(name) or getattr(supadd, name)
        if name in RESULTS or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        for param in inspect.signature(obj).parameters.values():
            yield name, param


def test_every_integer_and_flag_parameter_is_swept():
    annotated = {
        (name, param.name)
        for name, param in _exported_parameters()
        if param.annotation in (int, bool, int | None)
    }
    assert annotated <= {(case.name, case.param) for case in CASES}


def _malformed(case):
    """Values of the parameter's kind that it must refuse: non-integral,
    NaN and infinite floats, strings and arrays; for an integer, bools and
    integers below its least value too, and for a flag, integers."""
    kinds = [
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
        st.sampled_from([math.nan, math.inf, -math.inf, np.float64(2.5)]),
        st.text(max_size=4),
        st.lists(st.integers(0, 9), max_size=3).map(np.array),
    ]
    if case.lo is None:
        kinds.append(st.integers(-3, 3))
    else:
        kinds += [st.sampled_from([True, False, np.True_]), st.integers(max_value=case.lo - 1)]
    return st.one_of(kinds)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_malformed_value_refused(case, data):
    value = data.draw(_malformed(case))
    with pytest.raises(InvalidInput):
        case.call(value)


def _accepted_forms(case):
    if case.lo is None:
        return [np.bool_(case.good)]
    return [float(case.good), np.int64(case.good), np.uint8(case.good), np.float64(case.good)]


# inputs accepted on purpose, each with a call that gives the result it must
# match: an integral float or a numpy integer gives the int's result, and
# gram takes kappa = 1, where the other routes raise LinearDependence, as
# the all-ones matrix
ACCEPTED = [
    (f"{_case_id(case)}={form!r}", partial(case.call, form), partial(case.call, case.good))
    for case in CASES
    for form in _accepted_forms(case)
] + [
    ("gram-kappa=1", lambda: gram(build_nn12_code(3), 1.0).tolist(), lambda: [[1.0] * 4] * 4),
]


@pytest.mark.parametrize(
    "call, expected", [accepted[1:] for accepted in ACCEPTED], ids=[a[0] for a in ACCEPTED]
)
def test_accepted_on_purpose(call, expected):
    assert call() == expected()


@pytest.mark.parametrize(
    "call",
    [
        lambda: block_gain(3.5, 0.5),
        lambda: build_simplex_code(2.5),
        lambda: threshold_certificate(0.5, 3.5),
        lambda: threshold_certificate(0.5, True),
        lambda: random_collective_max_info(0.3, 0.7, trials=0),
        lambda: random_collective_max_info(0.3, 0.7, trials=-5),
        lambda: Code(n=True, codewords=[[0], [1]]),
        lambda: reconstruct_unitary(RotationSchedule(0, [], False)),
        lambda: schedule_to_csv(RotationSchedule(2.5, [], "yes")),
        lambda: schedule_from_csv("j,i,gamma\n1,2,0.5\n", dim=2.5),
    ],
    ids=[
        "block_gain-n=3.5",
        "build_simplex_code-r=2.5",
        "threshold_certificate-n=3.5",
        "threshold_certificate-n=True",
        "random_collective_max_info-trials=0",
        "random_collective_max_info-trials=-5",
        "Code-n=True",
        "reconstruct_unitary-dim=0",
        "schedule_to_csv-dim=2.5-flip_last=yes",
        "schedule_from_csv-dim=2.5",
    ],
)
def test_malformed_argument_regression(call):
    # each returned a number or raised a bare TypeError before the one check
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: find_kappa_star(3.0), lambda: find_kappa_star(3)),
        (lambda: tuple(simplex_profile(3.0, 0.5)), lambda: tuple(simplex_profile(3, 0.5))),
        (lambda: code_to_text(build_nn12_code(4.0)), lambda: code_to_text(build_nn12_code(4))),
        (
            lambda: synthesize_unitary(Code(n=2.0, codewords=[[0, 0], [1, 1]]), 0.5).U.tolist(),
            lambda: synthesize_unitary(Code(n=2, codewords=[[0, 0], [1, 1]]), 0.5).U.tolist(),
        ),
    ],
    ids=["find_kappa_star-n=3.0", "simplex_profile-r=3.0", "build_nn12_code-n=4.0",
         "Code-n=2.0-synthesizes"],
)
def test_integral_float_regression(call, expected):
    # each raised a bare TypeError before the one check
    assert call() == expected()


class KappaCase(NamedTuple):
    """One kappa parameter: the exported callable and parameter it stands
    for, a call that passes the value to it, and whether that parameter
    takes only a scalar."""

    name: str
    param: str
    call: Callable
    scalar: bool


KAPPA_CASES = [
    KappaCase("embed_binary_letters", "kappa", embed_binary_letters, True),
    KappaCase("gram", "kappa", lambda v: gram(_NONLINEAR, v), True),
    KappaCase("codeword_states", "kappa", lambda v: codeword_states(_LINEAR, v), True),
    KappaCase("helstrom_binary", "kappa", lambda v: helstrom_binary(v, 0.5), True),
    KappaCase("threshold_certificate", "kappa", lambda v: threshold_certificate(v, 3), True),
    KappaCase("synthesize_unitary", "kappa", lambda v: synthesize_unitary(_LINEAR, v), True),
    KappaCase("synthesize_unitary", "kappa", lambda v: synthesize_unitary(_NONLINEAR, v), True),
    KappaCase("separable_pair_info", "kappa_a", lambda v: separable_pair_info(v, 0.5), True),
    KappaCase("separable_pair_info", "kappa_b", lambda v: separable_pair_info(0.5, v), True),
    KappaCase("random_collective_max_info", "kappa_a",
              lambda v: random_collective_max_info(v, 0.5, trials=3), True),
    KappaCase("random_collective_max_info", "kappa_b",
              lambda v: random_collective_max_info(0.5, v, trials=3), True),
    KappaCase("block_gain", "kappa", lambda v: block_gain(2, v), False),
    KappaCase("block_gain", "kappa", lambda v: block_gain(3, v), False),
    KappaCase("code_error_probability", "kappa",
              lambda v: code_error_probability(_LINEAR, v), False),
    KappaCase("code_error_probability", "kappa",
              lambda v: code_error_probability(_NONLINEAR, v), False),
    KappaCase("nn12_error_probability", "kappa", lambda v: nn12_error_probability(3, v), False),
    KappaCase("nn12_mutual_information", "kappa", lambda v: nn12_mutual_information(3, v), False),
    KappaCase("simplex_profile", "kappa", lambda v: simplex_profile(2, v), False),
    KappaCase("binary_flip_probability", "kappa", binary_flip_probability, False),
    KappaCase("c1_binary", "kappa", c1_binary, False),
    KappaCase("holevo_binary", "kappa", holevo_binary, False),
    KappaCase("code_information", "kappa", lambda v: code_information(_LINEAR, v), False),
    KappaCase("code_information", "kappa", lambda v: code_information(_NONLINEAR, v), False),
]

# each used to raise a bare TypeError or ValueError, to take "0.5" as 0.5,
# or to take False as 0 and True as 1
KAPPA_MALFORMED = ["abc", "0.5", "", None, True, False, np.True_, [None], np.array(["0.5"]),
                   np.array([False, True])]
# each raised a bare ValueError on a scalar route, or gave letters of the
# wrong shape
KAPPA_ARRAYS = [np.array([0.5, 0.6]), np.array([0.5]), np.array(0.5), [0.5]]


def _kappa_id(case):
    return f"{case.name}.{case.param}-{KAPPA_CASES.index(case)}"


def test_every_kappa_parameter_is_swept():
    named = {(name, param.name) for name, param in _exported_parameters()
             if param.name.startswith("kappa")}
    assert named == {(case.name, case.param) for case in KAPPA_CASES}


@pytest.mark.parametrize("case", KAPPA_CASES, ids=_kappa_id)
def test_malformed_kappa_refused(case):
    values = KAPPA_MALFORMED + (KAPPA_ARRAYS if case.scalar else [])
    for value in values:
        with pytest.raises(InvalidInput):
            case.call(value)
    # the call itself is sound: a real kappa, as a float or a numpy scalar
    case.call(0.5)
    case.call(np.float64(0.5))


class ArrayCase(NamedTuple):
    """One array parameter: the exported callable and parameter it stands
    for, a call that passes the value to it, a value it takes, and a value
    of the right shape and finite entries that it must refuse."""

    name: str
    param: str
    call: Callable
    good: np.ndarray
    defect: np.ndarray
    # kinds of _array_kinds that are values of the parameter, taken on purpose
    taken: tuple = ()


_LETTERS = np.vstack(embed_binary_letters(0.5))
_HALVES = np.array([0.5, 0.5])
_GRAM = gram(build_nn12_code(2), 0.5)
# a Gram matrix of any positive diagonal is taken (prior-weighted Grams);
# an asymmetric one is refused
_SKEW = _GRAM + np.triu(np.full((2, 2), 0.1), 1)
_ORTHOGONAL = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
_CHANNEL = np.array([[0.9, 0.1], [0.2, 0.8]])
_WORDS = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
_ROTATIONS = np.array([[1.0, 2.0, 0.25], [3.0, 1.0, -0.5]])


def _schedule_text(rotations):
    return schedule_to_csv(RotationSchedule(dim=3, rotations=rotations, flip_last=False))


# 2 I, as the states or the measurement, was certified optimal with error -3
ARRAY_CASES = [
    ArrayCase("check_optimality", "measurement",
              lambda v: check_optimality(v, np.eye(2), _HALVES), np.eye(2), 2 * np.eye(2)),
    ArrayCase("check_optimality", "measurement",
              lambda v: check_optimality(v, _LETTERS, _HALVES), np.eye(2), np.eye(2)[[0, 0]]),
    ArrayCase("check_optimality", "states",
              lambda v: check_optimality(np.eye(2), v, _HALVES), np.eye(2), 2 * np.eye(2)),
    ArrayCase("check_optimality", "priors",
              lambda v: check_optimality(np.eye(2), _LETTERS, v), _HALVES, 2 * _HALVES),
    ArrayCase("bayes_cost_reduction", "states",
              lambda v: bayes_cost_reduction(v, _HALVES), _LETTERS, 2 * _LETTERS),
    ArrayCase("bayes_cost_reduction", "priors",
              lambda v: bayes_cost_reduction(_LETTERS, v), _HALVES, 2 * _HALVES),
    ArrayCase("mutual_information", "priors",
              lambda v: mutual_information(v, _CHANNEL), _HALVES, 2 * _HALVES),
    ArrayCase("mutual_information", "channel",
              lambda v: mutual_information(_HALVES, v), _CHANNEL, 2 * _CHANNEL),
    ArrayCase("square_root_measurement", "gram", square_root_measurement, _GRAM, _SKEW),
    ArrayCase("sqrt_psd", "m", sqrt_psd, _GRAM, _SKEW),
    ArrayCase("reck_decompose", "u", reck_decompose, _ORTHOGONAL, 2 * _ORTHOGONAL),
    ArrayCase("Code", "codewords",
              lambda v: code_to_text(Code(n=3, codewords=v, priors=_HALVES)), _WORDS, 2 * _WORDS),
    ArrayCase("Code", "priors",
              lambda v: code_to_text(Code(n=3, codewords=_WORDS, priors=v)), _HALVES, 2 * _HALVES),
    # fewer rotations, or none, make a schedule; a flat table was read as
    # rows of three
    ArrayCase("RotationSchedule", "rotations", _schedule_text, _ROTATIONS,
              _ROTATIONS[:, [0, 0, 2]], taken=("short", "empty", "no_rows")),
]


def _with_entries(array, *values):
    bad = np.array(array, dtype=np.float64)
    bad.flat[: len(values)] = values
    return bad


def _ragged(good):
    """good as nested lists whose second entry does not match its first: a
    row one entry short, or a list beside a number."""
    entries = good.tolist()
    entries[1] = entries[1][:-1] if good.ndim > 1 else [entries[1]]
    return entries


def _array_kinds(case):
    """(kind, value) pairs of malformed values of every array parameter."""
    good = case.good
    return [
        ("nan", _with_entries(good, np.nan)),
        ("inf", _with_entries(good, np.inf)),
        ("-inf", _with_entries(good, -np.inf)),
        # a row that sums to NaN, with a warning, unless the entries are checked first
        ("inf_and_-inf", _with_entries(good, np.inf, -np.inf)),
        ("defect", case.defect),
        ("short", good[:-1]),
        ("narrow", good[..., :-1]),
        ("flat" if good.ndim > 1 else "nested", good.ravel() if good.ndim > 1 else good[None]),
        ("empty", np.empty(0)),
        ("empty_square", np.empty((0, 0))),
        ("no_rows", good[:0]),
        ("no_columns", good[..., :0]),
        # numpy makes no array of these: its bare ValueError must become
        # InvalidInput
        ("ragged", _ragged(good)),
    ]


def _array_malformed(case):
    """(kind, value) pairs the parameter must refuse."""
    return [kv for kv in _array_kinds(case) if kv[0] not in case.taken]


ARRAY_MALFORMED = [
    pytest.param(case, value, id=f"{case.name}.{case.param}-{ARRAY_CASES.index(case)}-{kind}")
    for case in ARRAY_CASES
    for kind, value in _array_malformed(case)
]
ARRAY_TAKEN = [
    pytest.param(case, value, id=f"{case.name}.{case.param}-{ARRAY_CASES.index(case)}-{kind}")
    for case in ARRAY_CASES
    for kind, value in _array_kinds(case)
    if kind in case.taken
]


def test_every_array_parameter_is_swept():
    # an array parameter is one annotated np.ndarray or not annotated at
    # all, except the kappas and the integer lists the tables above sweep
    swept = {(case.name, case.param) for case in CASES + KAPPA_CASES}
    named = {
        (name, param.name)
        for name, param in _exported_parameters()
        if param.annotation in (inspect.Parameter.empty, np.ndarray)
        and (name, param.name) not in swept
    }
    assert named == {(case.name, case.param) for case in ARRAY_CASES}


@pytest.mark.parametrize("case", ARRAY_CASES, ids=lambda c: f"{c.name}.{c.param}")
def test_array_case_call_is_sound(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case.call(case.good)


@pytest.mark.parametrize("case, value", ARRAY_MALFORMED)
def test_malformed_array_refused(case, value):
    # before the one input check a NaN measurement gave a NaN report, an
    # infinite state error -inf with two RuntimeWarnings, a 0 x 0 matrix a
    # bare IndexError and a channel of empty rows a bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            case.call(value)


@pytest.mark.parametrize("case, value", ARRAY_TAKEN)
def test_array_kind_taken_on_purpose(case, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case.call(value)
