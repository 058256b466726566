"""A hypothesis fuzz of cli.main over every command's flags, config-file
lines, code files and states files, each case run in its own temporary
directory.

Every case must exit 0 or 2, with no traceback and no warning; on exit 2
from main itself, stderr is exactly one "error:" line. Argparse's own usage
errors (SystemExit 2) are exempt from the one-line rule. The sizes are
bounded so that no accepted case is slow: code files of at most 8 letters
and 16 words, states files of at most 8 rows, block lengths that run fast
or are refused at once (24, not 23, whose k = 22 fig2 takes 40 s).
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supadd import cli


def _mostly(good, bad):
    """A good value three times in four, else a bad one."""
    good, bad = st.sampled_from(good), st.sampled_from(bad)
    return st.one_of(good, good, good, bad)


def _joined(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


KAPPAS = _mostly(["0", "0.01", "0.3", "0.5", "0.9"],
                 ["0.99", "1", "-0.2", "2", "nan", "inf", "x", ""])
LENGTHS = _mostly(["2", "3", "4", "5", "7"],
                  ["-1", "0", "1", "12", "24", "65", "100000", "3.5", "a", ""])
VALUES = {
    "kappa_min": KAPPAS,
    "kappa_max": KAPPAS,
    "steps": _mostly(["2", "3", "7"], ["-1", "0", "1", "2.5", "x"]),
    "n": _joined(LENGTHS),
    "code": _mostly(["nn12", "simplex", "code.txt"], ["garbled.txt", "missing.txt", "."]),
    "format": _mostly(["csv", "json"], ["xml"]),
    "out": _mostly(["out.txt"], ["missing/out.txt", "."]),
    "kappa": KAPPAS,
    "outdir": _mostly(["o", "o/p"], ["code.txt"]),
    "assign": _joined(_mostly(["0", "1", "2", "3", "7"], ["255", "-1", "x"])),
    "priors": _joined(_mostly(["0", "0.25", "0.5", "1"], ["-0.5", "1.5", "nan", "x"])),
    "states_file": _mostly(["states.txt"], ["empty.txt", "garbled.txt", "missing.txt"]),
    "tol": _mostly(["1e-10", "1e-3", "0"], ["-1", "nan", "inf", "x"]),
}


@st.composite
def code_texts(draw):
    """A code file of n <= 8 letters and M <= 16 words: its words may
    repeat and its priors may be uniform, random, zero or malformed."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 16))
    words = draw(st.lists(st.integers(0, 2**n - 1), min_size=m, max_size=m))
    kind = draw(st.sampled_from(["uniform", "uniform", "random", "first", "bad"]))
    if kind == "uniform":
        priors = [repr(1.0 / m)] * m
    elif kind == "random":
        weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        priors = [repr(w / sum(weights)) for w in weights]
    elif kind == "first":
        priors = ["1"] + ["0"] * (m - 1)
    else:
        priors = draw(st.lists(st.sampled_from(["0.5", "-1", "nan", "x"]), min_size=m, max_size=m))
    lines = [f"{n} {m}"] + [format(w, f"0{n}b") for w in words] + priors
    return "\n".join(lines) + "\n"


@st.composite
def states_texts(draw):
    """A states file of at most 8 rows of at most 8 entries, each row
    normalized or not."""
    m = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 8))
    entries = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 3))
    rows = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=m, max_size=m))
    lines = []
    for row in rows:
        norm = sum(x * x for x in row) ** 0.5
        if norm > 0 and draw(st.booleans()):
            row = [x / norm for x in row]
        lines.append(" ".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    """(argv, files): a command with some of its flags, perhaps an unknown
    flag or a config file, and the files the case's directory holds."""
    name, _, _, keys, _ = draw(st.sampled_from(cli.COMMANDS))
    flags = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    argv = [name]
    for key in flags:
        value = draw(VALUES[key])
        flag = "--" + key.replace("_", "-")
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.integers(0, 19)) == 0:
        argv.append("--no-such-flag")
    files = {
        "code.txt": draw(code_texts()),
        "states.txt": draw(states_texts()),
        "garbled.txt": draw(st.sampled_from(["", "3\n", "2 2\n01\n", "\x00\xff junk\n"])),
        "empty.txt": "",
    }
    config_keys = draw(st.lists(st.sampled_from(keys if draw(st.booleans()) else list(VALUES)),
                                max_size=3))
    if config_keys:
        lines = [f"{key.replace('_', '-')} = {draw(VALUES[key])}" for key in config_keys]
        lines += draw(st.lists(st.sampled_from(["# comment", "", "no equals sign"]), max_size=2))
        files["config.txt"] = "\n".join(draw(st.permutations(lines))) + "\n"
        argv += ["--config", "config.txt"]
    return argv, files


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=invocations())
def test_main_exits_0_or_2_with_one_error_line(case):
    argv, files = case
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, text in files.items():
                with open(name, "w", encoding="latin-1") as fh:
                    fh.write(text)
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                try:
                    status = cli.main(argv)
                except SystemExit as exc:
                    # argparse's usage error
                    assert exc.code == 2, argv
                    return
        finally:
            os.chdir(home)
    assert status in (0, 2), argv
    if status == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err.getvalue())
