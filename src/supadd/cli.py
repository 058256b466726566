"""Command-line harness: sweeps of capacity and error quantities over the
channel overlap, decoder synthesis, and measurement optimization, emitted
as CSV or JSON.

Subcommands fig2..fig8 reproduce the standard figure data sets; sweep is
the generic version. All numeric output uses 12 significant digits and is
deterministic for a fixed configuration.

Every option is declared once, in OPTIONS, and each subcommand in COMMANDS
lists the options it reads; it takes those flags and no others. A flag
wins over the same key in the optional key=value config file (--config),
which wins over the default. Flag and config text go through the same
conversion, and a config key the command does not read, or one given
twice, is an input error.

main builds the parser of the one command its argv names: the others stay
out, but the usage line still lists all of them, so help text, errors and
exit codes are those of the full parser (build_parser()).
"""

import argparse
import json
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._checks import _check_int
from ._kernels import _helstrom_error, _threshold_error
from .detection import bayes_cost_reduction
from .ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    code_from_text,
    embed_binary_letters,
)
from .errors import InvalidInput, NoRoot, ResourceLimit, SupaddError
from .fastcode import (
    block_gain,
    code_information,
    find_kappa_star,
    nn12_error_probability,
    nn12_mutual_information,
    simplex_profile,
)
from .information import binary_flip_probability, c1_binary, holevo_binary
from .synth import check_synth_length, schedule_to_csv, synthesize_unitary


class Option(NamedTuple):
    """How a flag or config value is read: its conversion of the text, and
    the value when neither gives it."""

    convert: Callable
    default: object = None
    help: str | None = None


def _int_list(text) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _float_list(text) -> np.ndarray:
    return np.array([float(part) for part in text.split(",")])


def _format(text) -> str:
    if text not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    return text


# every option of every subcommand; the flag of key a_b is --a-b
OPTIONS = {
    "kappa_min": Option(float, 0.01),
    "kappa_max": Option(float, 0.99),
    "steps": Option(int, 99),
    "n": Option(_int_list, (3,), "comma-separated block lengths"),
    "code": Option(str, "nn12", "nn12, simplex, or a code file path"),
    "format": Option(_format, "csv", "csv or json"),
    "out": Option(str),
    "kappa": Option(float, 0.5),
    "outdir": Option(str, "."),
    "assign": Option(_int_list, None, "comma-separated outcome labels"),
    "priors": Option(
        _float_list, None,
        "comma-separated priors; write a value with a leading minus as --priors=-0.5,1.5",
    ),
    "states_file": Option(str, None, "one state row per line"),
    "tol": Option(float, 1e-10),
}


def _load_config(path):
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"config file {path} is not text: {exc}") from exc
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"config line is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in out:
            raise InvalidInput(f"config key {key} given twice")
        out[key] = value.strip()
    return out


def _options(args) -> argparse.Namespace:
    """The options the command reads, each from its flag if given, else
    from the config file, else its default; `given` holds the keys taken
    from a flag or the config file. Raises InvalidInput for a
    config key the command does not read and for a value its conversion
    rejects."""
    config = _load_config(args.config)
    unread = sorted(set(config) - set(args.keys))
    if unread:
        raise InvalidInput(f"{args.command} does not read config key(s): {', '.join(unread)}")
    opts = argparse.Namespace(given=set())
    for key in args.keys:
        text = getattr(args, key)
        if text is None:
            text = config.get(key)
        if text is None:
            value = args.defaults.get(key, OPTIONS[key].default)
        else:
            opts.given.add(key)
            try:
                value = OPTIONS[key].convert(text)
            except ValueError as exc:
                raise InvalidInput(f"bad value {key}={text!r}: {exc}") from exc
        setattr(opts, key, value)
    return opts


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _jsonval(value):
    if value is None or isinstance(value, (bool, np.bool_, str)):
        return value if not isinstance(value, np.bool_) else bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(f"{float(value):.12g}")


# entries per block that _emit and _write_matrix format at a time
_TEXT_BLOCK = 1 << 14


def _csv_cells(part) -> list:
    """The CSV text of each value of a slice of a column: a float64 array
    in one format call, with _fmt's bytes, and any other column one _fmt
    per cell."""
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return ("%.12g\0" * part.size % tuple(part.tolist())).split("\0")[:-1]
    return [_fmt(v) for v in part]


def _emit(columns, values, fmt: str, out) -> None:
    """Print the table whose columns are named columns and hold values,
    one sequence per column. CSV takes at most _TEXT_BLOCK cells at a time."""
    if fmt == "json":
        table = [[_jsonval(v) for v in row] for row in zip(*values)]
        text = json.dumps({"columns": list(columns), "rows": table}, indent=1) + "\n"
    else:
        pieces = [",".join(columns) + "\n"]
        step = max(1, _TEXT_BLOCK // len(columns))
        for lo in range(0, len(values[0]), step):
            cells = [_csv_cells(column[lo : lo + step]) for column in values]
            pieces.append("\n".join(map(",".join, zip(*cells))) + "\n")
        text = "".join(pieces)
    _write(text, out)


def _write(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _resolve_code(code_family: str, n_list, n_given: bool) -> Code:
    """The code --code names: a family (built only for synth, so its one
    length meets synth's limit first), or a code file, which sets its own
    length; an n_list given for it must repeat that length."""
    if code_family not in ("nn12", "simplex"):
        try:
            text = Path(code_family).read_text()
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"code file {code_family} is not text: {exc}") from exc
        code = code_from_text(text)
        if n_given and tuple(n_list) != (code.n,):
            raise InvalidInput(
                f"n = {','.join(map(str, n_list))} does not match the code file's length {code.n}"
            )
        return code
    if len(n_list) != 1:
        raise InvalidInput(f"--code {code_family} needs one block length, got {len(n_list)}")
    # rank r gives 2**r - 1 letters; a rank past 64 counts as 64, so 2**r stays small
    check_synth_length(n_list[0] if code_family == "nn12" else 2 ** min(n_list[0], 64) - 1)
    if code_family == "nn12":
        return build_nn12_code(n_list[0])
    return build_simplex_code(n_list[0])


# cells (steps times columns) a sweep-style command may print: a printed
# cell peaks at about 60 bytes as CSV and 200 to 250 as JSON, its column
# arrays and its text, so the largest accepted table stays under 1 GB
_MAX_CELLS = 2**22


def _run_columns(build, o) -> int:
    """Runner of the sweep-style commands: the kappa grid, if the command
    reads one, then the columns the builder makes of the options, emitted
    as a table. Raises ResourceLimit, before the grid is built, when steps
    times a bound on the columns printed passes _MAX_CELLS."""
    if "steps" in o:
        if not 0.0 <= o.kappa_min < o.kappa_max < 1.0:
            raise InvalidInput(
                f"need 0 <= kappa_min < kappa_max < 1, got [{o.kappa_min}, {o.kappa_max}]"
            )
        steps = _check_int(o.steps, 2, "steps")
        # fig6..fig8 read no n and print at most 5 columns
        most_columns = 3 + 2 * len(o.n) if "n" in o else 5
        if steps * most_columns > _MAX_CELLS:
            raise ResourceLimit(
                f"{steps} steps of up to {most_columns} columns pass the guard of "
                f"{_MAX_CELLS} printed cells"
            )
        o.grid = np.linspace(o.kappa_min, o.kappa_max, steps)
    columns, values = build(o)
    _emit(columns, values, o.format, o.out)
    return 0


def fig2(o):
    """Per-letter gain of the even-weight code over repeated single uses."""
    columns = ["kappa"] + [f"gain_n{n}" for n in o.n]
    return columns, [o.grid] + [block_gain(n, o.grid) for n in o.n]


def fig3(o):
    """Gain crossing point versus block length, with the (2/n)^(2/3) guide."""
    stars = []
    for n in o.n:
        try:
            stars.append(find_kappa_star(n))
        except NoRoot:
            stars.append(None)
    guides = [(2.0 / n) ** (2.0 / 3.0) for n in o.n]
    return ["n", "kappa_star", "guide"], [o.n, stars, guides]


def _capacity_columns(grid, code_columns):
    """Shared layout: kappa, holevo, per-letter info per code, c1; each
    code column is a (name, values over the kappa grid) pair."""
    values = [grid, holevo_binary(grid)] + [v for _, v in code_columns] + [c1_binary(grid)]
    columns = ["kappa", "holevo"] + [name for name, _ in code_columns] + ["c1"]
    return columns, values


def fig4(o):
    """Holevo limit, block per-letter information, and single-use capacity."""
    code_columns = [(f"i_n{n}_per_letter", nn12_mutual_information(n, o.grid) / n) for n in o.n]
    return _capacity_columns(o.grid, code_columns)


def fig5(o):
    """Block decoding error versus the independent-use threshold error."""
    columns = ["kappa", "p"]
    p = binary_flip_probability(o.grid)
    values = [o.grid, p]
    for n in o.n:
        columns += [f"code_error_n{n}", f"threshold_error_n{n}"]
        values += [nn12_error_probability(n, o.grid), _threshold_error(p, n)]
    return columns, values


def _simplex_versus_even(n, o):
    """Per-letter information: the length-7 simplex code versus the
    length-n even-weight code (fig6 takes n = 7, fig8 n = 3)."""
    code_columns = [
        ("simplex_7_3_per_letter", simplex_profile(3, o.grid).info_bits / 7),
        (f"code_{n}_{n - 1}_per_letter", nn12_mutual_information(n, o.grid) / n),
    ]
    return _capacity_columns(o.grid, code_columns)


def fig7(o):
    """Decoding errors of the two length-7 codes against the threshold."""
    columns = ["kappa", "p", "simplex_7_3_error", "code_7_6_error", "threshold_error_n7"]
    p = binary_flip_probability(o.grid)
    values = [
        o.grid,
        p,
        simplex_profile(3, o.grid).error_probability,
        nn12_error_probability(7, o.grid),
        _threshold_error(p, 7),
    ]
    return columns, values


def sweep(o):
    """Generic per-letter information and gain sweep for a code family or a
    code file ('n M' header, then M bit rows, then M prior rows)."""
    grid = o.grid
    if o.code == "nn12":
        per_letter = [(f"_n{n}", nn12_mutual_information(n, grid) / n) for n in o.n]
    elif o.code == "simplex":
        per_letter = [(f"_r{r}", simplex_profile(r, grid).info_bits / (2**r - 1)) for r in o.n]
    else:
        code = _resolve_code(o.code, o.n, "n" in o.given)
        per_letter = [("", code_information(code, grid) / code.n)]
    c1 = c1_binary(grid)
    columns, values = ["kappa"], [grid]
    for tag, per in per_letter:
        columns += [f"i{tag}_per_letter", f"gain{tag}"]
        values += [per, per - c1]
    return columns, values


# share of a block's entries its distinct bit patterns must pass for
# _write_matrix to format the block directly; on blocks of shuffled
# Gaussian values the two ways cost the same at about 0.65
_DIRECT_SHARE = 0.625


def _write_matrix(path, u: np.ndarray) -> None:
    """Write the 2-D float64 array u with the bytes of
    np.savetxt(path, u, fmt="%.17g"), one block of rows at a time.

    Each block sorts its bit patterns (0.0 and -0.0 stay apart) and keeps
    the distinct ones. A linear code's U repeats few values over its 4^n
    entries, so such a block formats its distinct patterns once, in one
    format call, and joins each row's texts, found by np.searchsorted, with
    spaces. A block whose distinct patterns pass _DIRECT_SHARE of its
    entries gains nothing from the index, whose search then costs more
    than formatting every entry: it is one format call of a row template
    over its floats."""
    rows, cols = u.shape
    step = max(1, _TEXT_BLOCK // cols)
    row = " ".join(["%.17g"] * cols) + "\n"
    with open(path, "wb") as fh:
        for start in range(0, rows, step):
            block = np.ascontiguousarray(u[start : start + step], dtype=np.float64)
            keys = block.view(np.uint64).ravel()
            patterns = np.sort(keys)
            patterns = patterns[np.concatenate(([True], patterns[1:] != patterns[:-1]))]
            if patterns.size > _DIRECT_SHARE * keys.size:
                fh.write((row * len(block) % tuple(keys.view(np.float64).tolist())).encode())
                continue
            values = patterns.view(np.float64).tolist()
            texts = np.array(("%.17g " * len(values) % tuple(values)).encode().split(), dtype=object)
            lines = texts[np.searchsorted(patterns, keys)].reshape(-1, cols).tolist()
            fh.write(b"\n".join(map(b" ".join, lines)))
            fh.write(b"\n")


def cmd_synth(o) -> int:
    """Synthesize the decoding adaptor for a code, factor it into plane
    rotations, and write unitary.txt, schedule.csv, and report.json."""
    code = _resolve_code(o.code, o.n, "n" in o.given)
    syn = synthesize_unitary(code, o.kappa, outcome_assignment=o.assign)
    report = {
        "n": code.n,
        "codewords": code.num_codewords,
        "kappa": _jsonval(o.kappa),
        "target_outcomes": list(syn.target_outcomes),
        "separate_error": _jsonval(syn.error_probability),
        "collective_error": _jsonval(syn.collective_error),
        "error_mismatch": _jsonval(abs(syn.error_probability - syn.collective_error)),
        "orthogonality_residual": _jsonval(syn.orthogonality_residual),
        "reconstruction_residual": _jsonval(syn.reconstruction_residual),
        "rotations": len(syn.schedule.rotations),
        "flip_last": syn.schedule.flip_last,
    }
    outdir = Path(o.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_matrix(outdir / "unitary.txt", syn.U)
    (outdir / "schedule.csv").write_text(schedule_to_csv(syn.schedule))
    text = json.dumps(report, indent=1) + "\n"
    (outdir / "report.json").write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_optimize(o) -> int:
    """Run the minimum-error optimizer, square-root measurements reweighted
    to their fixed point (detection.bayes_cost_reduction), and print the
    certification report, with sweeps= the iterations after the first;
    for the binary letter pair, also the closed-form minimum error under
    the same priors. kappa picks the letter pair, so a kappa given beside
    states_file is an input error."""
    if o.states_file is not None:
        if "kappa" in o.given:
            raise InvalidInput("optimize reads kappa only for the letter pair, not with states_file")
        try:
            with warnings.catch_warnings():
                # numpy warns, and returns no rows, for a file without data
                warnings.simplefilter("error", UserWarning)
                states = np.loadtxt(o.states_file, dtype=np.float64, ndmin=2)
        except UserWarning:
            raise InvalidInput(f"states file {o.states_file} holds no states") from None
        except ValueError as exc:
            raise InvalidInput(f"bad states file {o.states_file}: {exc}") from exc
    else:
        states = np.vstack(embed_binary_letters(o.kappa))
    m = states.shape[0]
    priors = np.full(m, 1.0 / m) if o.priors is None else o.priors
    _, report = bayes_cost_reduction(states, priors, tol=o.tol)
    initial_error = report.error_history[0]
    lines = [
        f"states={m}",
        f"initial_error={_fmt(initial_error)}",
        f"final_error={_fmt(report.error_probability)}",
        f"improvement={_fmt(initial_error - report.error_probability)}",
        f"sweeps={len(report.error_history) - 1}",
        f"cond_i_residual={_fmt(report.cond_i_residual)}",
        f"cond_ii_min_eig={_fmt(report.cond_ii_min_eig)}",
        f"is_optimal={_fmt(report.is_optimal)}",
    ]
    if o.states_file is None:
        lines.append(f"closed_form_error={_fmt(_helstrom_error(o.kappa, priors[0]))}")
    _write("\n".join(lines) + "\n", o.out)
    return 0


GRID = ("kappa_min", "kappa_max", "steps")
# name, help, runner, the OPTIONS keys it reads, its defaults that differ
# from the table's
COMMANDS = (
    ("fig2", "per-letter gain vs kappa for block lengths",
     partial(_run_columns, fig2), GRID + ("n", "format", "out"), {"n": tuple(range(2, 14))}),
    ("fig3", "gain crossing kappa* vs block length",
     partial(_run_columns, fig3), ("n", "format", "out"), {"n": tuple(range(2, 14))}),
    ("fig4", "holevo / block per-letter info / single-use capacity",
     partial(_run_columns, fig4), GRID + ("n", "format", "out"), {"n": (9,)}),
    ("fig5", "block decoding error vs threshold error",
     partial(_run_columns, fig5), GRID + ("n", "format", "out"), {"n": (3, 5, 7, 9, 11, 13)}),
    ("fig6", "length-7 simplex vs length-7 even-weight info",
     partial(_run_columns, partial(_simplex_versus_even, 7)), GRID + ("format", "out"), {}),
    ("fig7", "length-7 code decoding errors",
     partial(_run_columns, fig7), GRID + ("format", "out"), {}),
    ("fig8", "length-7 simplex vs length-3 even-weight info",
     partial(_run_columns, partial(_simplex_versus_even, 3)), GRID + ("format", "out"), {}),
    ("sweep", "generic per-letter info and gain sweep",
     partial(_run_columns, sweep), GRID + ("n", "code", "format", "out"), {}),
    ("synth", "synthesize and factor the decoder",
     cmd_synth, ("n", "code", "kappa", "outdir", "assign"), {}),
    ("optimize", "minimum-error measurement search",
     cmd_optimize, ("out", "kappa", "priors", "states_file", "tol"), {}),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given a command's name, of that one
    alone: it parses, and prints usage, help and errors for, an argv
    starting with that name exactly as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="supadd",
        description="Block-coding gain, decoding error, and decoder synthesis sweeps.",
    )
    # the usage line lists the commands the parser holds; holding one, it
    # spells out all of them as the full parser's choices do
    metavar = None if command is None else "{" + ",".join(c[0] for c in COMMANDS) + "}"
    subparsers = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, blurb, run, keys, defaults in COMMANDS:
        if command not in (None, name):
            continue
        # no abbreviations: synth would read --out as --outdir
        sub = subparsers.add_parser(name, help=blurb, allow_abbrev=False)
        for key in keys:
            sub.add_argument("--" + key.replace("_", "-"), dest=key, help=OPTIONS[key].help)
        sub.add_argument("--config", help="key=value file; flags win")
        sub.set_defaults(run=run, keys=keys, defaults=defaults)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in {c[0] for c in COMMANDS} else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.run(_options(args))
    except (SupaddError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
