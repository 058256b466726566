"""Every size guard refuses before the work it guards.

REFUSALS runs each guard at its first refused size and, where the size is
an integer argument, at 10**5 and 10**20 too. Each call must raise
ResourceLimit or InvalidInput within 0.5 s and with a tracemalloc peak
under 8 MB, measured around the guarded call alone: its inputs (a code of
many words or letters) are built before. A guard that built its words,
states or 2**n before checking their size would fail here, or run out of
memory at 10**20. Every _MAX_* constant of the package, and the Gram
route's byte guard, is named by some entry.
"""

import importlib
import math
import signal
import time
import tracemalloc
from argparse import Namespace
from itertools import count
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import supadd
from supadd import cli, detection, ensembles, fastcode, synth
from supadd.detection import threshold_certificate
from supadd.ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    codeword_states,
    distances,
    gram,
    int_bits,
)
from supadd.errors import InvalidInput, ResourceLimit
from supadd.fastcode import (
    block_gain,
    code_information,
    find_kappa_star,
    nn12_error_probability,
    nn12_mutual_information,
    simplex_profile,
)
from supadd.synth import synthesize_unitary

SECONDS = 0.5
PEAK_BYTES = 8 << 20
HUGE = (10**5, 10**20)
# a guard that let the work start would run for minutes at 10**20: an alarm
# after this long stops the call and fails the case
ALARM_SECONDS = 5.0


class Refusal(NamedTuple):
    """One guarded call: the guard it meets, a name for the call, a
    function that builds the call for a size (outside the measurement), the
    first size the guard refuses, and whether the size is an integer
    argument of the call."""

    guard: str
    name: str
    build: Callable
    first: int
    integer: bool


def _call(func, *args):
    """A size's call to func(size, *args), built with nothing to prepare."""
    return lambda size: lambda: func(size, *args)


def _code_call(func, shape, *args):
    """A size's call to func(code, *args), for the code of the words
    0..M-1 of n letters, (M, n) = shape(size), built outside the call."""

    def build(size):
        m, n = shape(size)
        code = Code(n=n, codewords=int_bits(np.arange(m), n))
        return lambda: func(code, *args)

    return build


# first refused sizes: k = n - 1 past _MAX_GROUP_K, n past 64 letters, M * n
# or M * 2**n past _MAX_ENTRIES, M * M * _GRAM_ROUTE_BYTES past 1 GiB
FIRST_K = fastcode._MAX_GROUP_K + 1
ENTRIES = ensembles._MAX_ENTRIES
FIRST_NN12 = next(n for n in count(2) if 2 ** (n - 1) * n > ENTRIES)
FIRST_SIMPLEX = next(r for r in count(2) if 2**r * (2**r - 1) > ENTRIES)
FIRST_GRAM_M = math.isqrt(8 * ENTRIES // ensembles._GRAM_ROUTE_BYTES) + 1
REFUSALS = [
    Refusal("_MAX_GROUP_K", "nn12_mutual_information", _call(nn12_mutual_information, 0.5),
            FIRST_K + 1, True),
    Refusal("_MAX_GROUP_K", "nn12_error_probability", _call(nn12_error_probability, 0.5),
            FIRST_K + 1, True),
    Refusal("_MAX_GROUP_K", "block_gain", _call(block_gain, 0.5), FIRST_K + 1, True),
    Refusal("_MAX_GROUP_K", "find_kappa_star", _call(find_kappa_star), FIRST_K + 1, True),
    Refusal("64 letters", "nn12_mutual_information", _call(nn12_mutual_information, 0.5), 65,
            True),
    Refusal("64 letters", "nn12_error_probability", _call(nn12_error_probability, 0.5), 65,
            True),
    Refusal("64 letters", "simplex_profile", _call(simplex_profile, 0.5), 7, True),
    Refusal("_MAX_ENTRIES", "build_nn12_code", _call(build_nn12_code), FIRST_NN12, True),
    Refusal("_MAX_ENTRIES", "build_simplex_code", _call(build_simplex_code), FIRST_SIMPLEX, True),
    # one word of 2**n entries
    Refusal("_MAX_ENTRIES", "codeword_states",
            _code_call(codeword_states, lambda n: (1, n), 0.5), ENTRIES.bit_length(), False),
    # the words 0..M-1 of 13 letters; M = 4097 is no power of two, so the
    # code is not linear and code_information takes the Gram route
    Refusal("_GRAM_ROUTE_BYTES", "distances",
            _code_call(distances, lambda m: (m, 13)), FIRST_GRAM_M, False),
    Refusal("_GRAM_ROUTE_BYTES", "gram",
            _code_call(gram, lambda m: (m, 13), 0.5), FIRST_GRAM_M, False),
    Refusal("_GRAM_ROUTE_BYTES", "code_information",
            _code_call(code_information, lambda m: (m, 13), 0.5), FIRST_GRAM_M, False),
    Refusal("_MAX_SYNTH_N", "synthesize_unitary",
            _code_call(synthesize_unitary, lambda n: (2, n), 0.5), synth._MAX_SYNTH_N + 1, False),
    Refusal("_MAX_CERT_N", "threshold_certificate",
            lambda n: lambda: threshold_certificate(0.5, n), detection._MAX_CERT_N + 1, True),
    # fig7 reads no n and prints the 5 columns its steps are counted at;
    # 10**5 steps are within the guard, so only the first refused size runs
    Refusal("_MAX_CELLS", "fig7 --steps",
            lambda steps: lambda: cli._run_columns(cli.fig7, Namespace(
                kappa_min=0.01, kappa_max=0.99, steps=steps, format="csv", out=None)),
            cli._MAX_CELLS // 5 + 1, False),
]

# (refusal, size) of every run: the first refused size, then the huge ones
RUNS = [(r, r.first) for r in REFUSALS]
RUNS += [(r, size) for r in REFUSALS if r.integer for size in HUGE]


def _alarm(signum, frame):
    raise TimeoutError(f"still running after {ALARM_SECONDS} s")


def _measured(call):
    """call()'s result, or the exception it raised (TimeoutError after
    ALARM_SECONDS), with its seconds and its tracemalloc peak in bytes."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ALARM_SECONDS)
        try:
            outcome = call()
        except Exception as exc:
            outcome = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return outcome, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "refusal, size", RUNS, ids=[f"{r.guard}-{r.name}-{size}" for r, size in RUNS]
)
def test_refused_before_the_work(refusal, size):
    outcome, seconds, peak = _measured(refusal.build(size))
    assert isinstance(outcome, (ResourceLimit, InvalidInput)), outcome
    assert seconds < SECONDS
    assert peak < PEAK_BYTES


def test_every_size_guard_is_in_the_table():
    # _MAX_SWEEPS bounds the optimizer's iterations and raises Unconverged
    # after them, with the best iterate: it refuses no input
    modules = [
        importlib.import_module(f"supadd.{path.stem}")
        for path in Path(supadd.__file__).parent.glob("*.py")
    ]
    constants = {
        name
        for module in modules
        for name in vars(module)
        if name.startswith("_MAX_") or name == "_GRAM_ROUTE_BYTES"
    }
    assert constants - {"_MAX_SWEEPS"} <= {r.guard for r in REFUSALS}


@pytest.mark.parametrize(
    "build, size, entries, built",
    [(build_nn12_code, n, lambda n: 2 ** (n - 1) * n, "_xor_span") for n in range(2, 40)]
    + [(build_simplex_code, r, lambda r: 2**r * (2**r - 1), "int_bits") for r in range(2, 40)],
)
def test_builder_guard_is_exact(monkeypatch, build, size, entries, built):
    # the builders compare exponents: refused exactly when M * n passes
    # _MAX_ENTRIES, and an accepted size reaches its first array
    class Built(Exception):
        pass

    def reached(*args, **kwargs):
        raise Built

    monkeypatch.setattr(ensembles, built, reached)
    expected = ResourceLimit if entries(size) > ENTRIES else Built
    with pytest.raises(expected):
        build(size)


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--n", "100000"],
        ["fig3", "--n", "99999999999999999999"],
        ["sweep", "--code", "simplex", "--n", "24"],
        ["synth", "--n", "12"],
        ["synth", "--n", "20"],
        ["synth", "--n", "23"],
        ["synth", "--n", "30"],
        ["fig4", "--steps", "100000000000"],
        ["fig7", "--steps", "1000000000"],
        ["sweep", "--code", "nn12", "--n", "3", "--steps", "300000000"],
    ],
    ids=" ".join,
)
def test_cli_refuses_huge_sizes(capsys, monkeypatch, tmp_path, argv):
    # synth would write its files into the working directory
    monkeypatch.chdir(tmp_path)
    code, seconds, peak = _measured(lambda: cli.main(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert seconds < SECONDS
    assert peak < PEAK_BYTES
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error:")
