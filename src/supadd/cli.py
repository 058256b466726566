"""Command-line harness: sweeps of capacity and error quantities over the
channel overlap, decoder synthesis, and measurement optimization, emitted
as CSV or JSON.

Subcommands fig2..fig8 reproduce the standard figure data sets; sweep is
the generic version. All numeric output uses 12 significant digits and is
deterministic for a fixed configuration. Flags override values from an
optional key=value config file.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detection import (
    bayes_cost_reduction,
    check_ensemble,
    helstrom_binary,
    square_root_measurement,
)
from .ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    code_from_text,
    embed_binary_letters,
)
from .errors import InvalidInput, NoRoot, SupaddError
from .fastcode import (
    block_gain,
    find_kappa_star,
    nn12_error_probability,
    nn12_mutual_information,
    simplex_profile,
)
from .information import (
    binary_flip_probability,
    c1_binary,
    holevo_binary,
    superadditivity_gain,
)
from .synth import schedule_to_csv, synthesize_unitary


@dataclass
class SweepConfig:
    """Grid and output settings shared by the sweep-style subcommands."""

    kappa_min: float = 0.01
    kappa_max: float = 0.99
    kappa_steps: int = 99
    n_list: tuple = (3,)
    code_family: str = "nn12"
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if not 0.0 <= self.kappa_min < self.kappa_max < 1.0:
            raise InvalidInput(
                f"need 0 <= kappa_min < kappa_max < 1, got "
                f"[{self.kappa_min}, {self.kappa_max}]"
            )
        if self.kappa_steps < 2:
            raise InvalidInput(f"need at least 2 grid points, got {self.kappa_steps}")
        if self.format not in ("csv", "json"):
            raise InvalidInput(f"format must be csv or json, got {self.format!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.kappa_min, self.kappa_max, self.kappa_steps)


def _load_config(path):
    if path is None:
        return {}
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"config line is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args, config, key, conv, default):
    """Flag if given, else config file entry, else the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        try:
            return conv(config[key])
        except ValueError as exc:
            raise InvalidInput(f"bad config value {key}={config[key]!r}: {exc}") from exc
    return default


def _int_list(text) -> tuple:
    if isinstance(text, tuple):
        return text
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad integer list {text!r}: {exc}") from exc


def _float_list(text) -> np.ndarray:
    try:
        return np.array([float(part) for part in str(text).split(",")])
    except ValueError as exc:
        raise InvalidInput(f"bad number list {text!r}: {exc}") from exc


def _sweep_config(args, config, default_n, code_default="nn12") -> SweepConfig:
    return SweepConfig(
        kappa_min=_resolve(args, config, "kappa_min", float, 0.01),
        kappa_max=_resolve(args, config, "kappa_max", float, 0.99),
        kappa_steps=_resolve(args, config, "steps", int, 99),
        n_list=_int_list(_resolve(args, config, "n", _int_list, tuple(default_n))),
        code_family=_resolve(args, config, "code", str, code_default),
        output_path=_resolve(args, config, "out", str, None),
        format=_resolve(args, config, "format", str, "csv"),
    )


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


def _emit(columns, rows, cfg: SweepConfig) -> None:
    if cfg.format == "json":
        payload = {
            "columns": list(columns),
            "rows": [[_jsonval(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=1) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, cfg.output_path)


def _write(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _resolve_code(code_family: str, n_list) -> Code:
    if code_family in ("nn12", "simplex") and len(n_list) != 1:
        raise InvalidInput(f"--code {code_family} needs one block length, got {len(n_list)}")
    n = n_list[0]
    if code_family == "nn12":
        return build_nn12_code(n)
    if code_family == "simplex":
        return build_simplex_code(n)
    return code_from_text(Path(code_family).read_text())


def cmd_fig2(args) -> int:
    """Per-letter gain of the even-weight code over repeated single uses."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=range(2, 14))
    grid = cfg.grid()
    columns = ["kappa"] + [f"gain_n{n}" for n in cfg.n_list]
    _emit(columns, zip(grid, *[block_gain(n, grid) for n in cfg.n_list]), cfg)
    return 0


def cmd_fig3(args) -> int:
    """Gain crossing point versus block length, with the (2/n)^(2/3) guide."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=range(2, 14))
    rows = []
    for n in cfg.n_list:
        try:
            star = find_kappa_star(n)
        except NoRoot:
            star = None
        rows.append([n, star, (2.0 / n) ** (2.0 / 3.0)])
    _emit(["n", "kappa_star", "guide"], rows, cfg)
    return 0


def _capacity_rows(cfg: SweepConfig, code_columns):
    """Shared layout: kappa, holevo, per-letter info per code, c1; each
    code column is a function of the whole kappa grid."""
    grid = cfg.grid()
    values = [holevo_binary(grid)] + [fn(grid) for _, fn in code_columns] + [c1_binary(grid)]
    columns = ["kappa", "holevo"] + [name for name, _ in code_columns] + ["c1"]
    return columns, zip(grid, *values)


def cmd_fig4(args) -> int:
    """Holevo limit, block per-letter information, and single-use capacity."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=(9,))
    code_columns = [
        (f"i_n{n}_per_letter", lambda k, n=n: nn12_mutual_information(n, k) / n)
        for n in cfg.n_list
    ]
    _emit(*_capacity_rows(cfg, code_columns), cfg)
    return 0


def cmd_fig5(args) -> int:
    """Block decoding error versus the independent-use threshold error."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=(3, 5, 7, 9, 11, 13))
    columns = ["kappa", "p"]
    for n in cfg.n_list:
        columns += [f"code_error_n{n}", f"threshold_error_n{n}"]
    grid = cfg.grid()
    p = binary_flip_probability(grid)
    values = [grid, p]
    for n in cfg.n_list:
        values += [nn12_error_probability(n, grid), _threshold_error(p, n)]
    _emit(columns, zip(*values), cfg)
    return 0


def _threshold_error(p: np.ndarray, n: int) -> list:
    """1 - (1 - p)**n, one kappa at a time: numpy's vectorized power may
    round the last bit differently from the scalar one, and at small kappa
    that bit shows in the printed digits."""
    return [1.0 - (1.0 - x) ** n for x in p]


def _simplex_per_letter(r: int):
    length = 2**r - 1
    return lambda k: simplex_profile(r, k).info_bits / length


def cmd_fig6(args) -> int:
    """Per-letter information: length-7 simplex code versus even-weight code."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=(7,))
    code_columns = [
        ("simplex_7_3_per_letter", _simplex_per_letter(3)),
        ("code_7_6_per_letter", lambda k: nn12_mutual_information(7, k) / 7),
    ]
    _emit(*_capacity_rows(cfg, code_columns), cfg)
    return 0


def cmd_fig7(args) -> int:
    """Decoding errors of the two length-7 codes against the threshold."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=(7,))
    columns = [
        "kappa",
        "p",
        "simplex_7_3_error",
        "code_7_6_error",
        "threshold_error_n7",
    ]
    grid = cfg.grid()
    p = binary_flip_probability(grid)
    values = [
        grid,
        p,
        simplex_profile(3, grid).error_probability,
        nn12_error_probability(7, grid),
        _threshold_error(p, 7),
    ]
    _emit(columns, zip(*values), cfg)
    return 0


def cmd_fig8(args) -> int:
    """Per-letter information: length-7 simplex versus the length-3 code."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=(3,))
    code_columns = [
        ("simplex_7_3_per_letter", _simplex_per_letter(3)),
        ("code_3_2_per_letter", lambda k: nn12_mutual_information(3, k) / 3),
    ]
    _emit(*_capacity_rows(cfg, code_columns), cfg)
    return 0


def cmd_sweep(args) -> int:
    """Generic per-letter information and gain sweep for a code family or a
    code file ('n M' header, bit rows, optional prior rows)."""
    config = _load_config(args.config)
    cfg = _sweep_config(args, config, default_n=(3,))
    grid = cfg.grid()
    if cfg.code_family == "nn12":
        columns = ["kappa"]
        values = [grid]
        c1 = c1_binary(grid)
        for n in cfg.n_list:
            columns += [f"i_n{n}_per_letter", f"gain_n{n}"]
            gain = block_gain(n, grid)
            values += [gain + c1, gain]
        rows = zip(*values)
    elif cfg.code_family == "simplex":
        columns = ["kappa"]
        values = [grid]
        c1 = c1_binary(grid)
        for r in cfg.n_list:
            columns += [f"i_r{r}_per_letter", f"gain_r{r}"]
            per = _simplex_per_letter(r)(grid)
            values += [per, per - c1]
        rows = zip(*values)
    else:
        code = _resolve_code(cfg.code_family, cfg.n_list)
        columns = ["kappa", "i_per_letter", "gain"]
        rows = []
        for k in grid:
            point = superadditivity_gain(code, k)
            rows.append([k, point.in_per_letter, point.gain])
    _emit(columns, rows, cfg)
    return 0


def cmd_synth(args) -> int:
    """Synthesize the decoding adaptor for a code, factor it into plane
    rotations, and write unitary.txt, schedule.csv, and report.json."""
    config = _load_config(args.config)
    n_list = _int_list(_resolve(args, config, "n", _int_list, (3,)))
    code_family = _resolve(args, config, "code", str, "nn12")
    kappa = _resolve(args, config, "kappa", float, 0.5)
    outdir = Path(_resolve(args, config, "outdir", str, "."))
    assign = _resolve(args, config, "assign", str, None)
    code = _resolve_code(code_family, n_list)
    assignment = _int_list(assign) if assign is not None else None

    syn = synthesize_unitary(code, kappa, outcome_assignment=assignment)
    report = {
        "n": code.n,
        "codewords": code.num_codewords,
        "kappa": _jsonval(kappa),
        "target_outcomes": list(syn.target_outcomes),
        "separate_error": _jsonval(syn.error_probability),
        "collective_error": _jsonval(syn.collective_error),
        "error_mismatch": _jsonval(abs(syn.error_probability - syn.collective_error)),
        "orthogonality_residual": _jsonval(syn.orthogonality_residual),
        "reconstruction_residual": _jsonval(syn.reconstruction_residual),
        "rotations": len(syn.schedule.rotations),
        "flip_last": syn.schedule.flip_last,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / "unitary.txt", syn.U, fmt="%.17g")
    (outdir / "schedule.csv").write_text(schedule_to_csv(syn.schedule))
    text = json.dumps(report, indent=1) + "\n"
    (outdir / "report.json").write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_optimize(args) -> int:
    """Run square-root initialization plus pairwise-rotation optimization
    and print the certification report."""
    config = _load_config(args.config)
    tol = _resolve(args, config, "tol", float, 1e-10)
    states_file = _resolve(args, config, "states_file", str, None)
    kappa = _resolve(args, config, "kappa", float, 0.5)
    xi1 = _resolve(args, config, "xi1", float, 0.5)
    priors_text = _resolve(args, config, "priors", str, None)
    if states_file is not None:
        try:
            states = np.atleast_2d(np.loadtxt(states_file, dtype=np.float64))
        except ValueError as exc:
            raise InvalidInput(f"bad states file {states_file}: {exc}") from exc
    else:
        states = np.vstack(embed_binary_letters(kappa))
    m = states.shape[0]
    if priors_text is not None:
        priors = _float_list(priors_text)
    elif states_file is None:
        priors = np.array([xi1, 1.0 - xi1])
    else:
        priors = np.full(m, 1.0 / m)
    states, priors = check_ensemble(states, priors)

    weighted = np.sqrt(priors)[:, None] * states
    init, channel = square_root_measurement(weighted @ weighted.T, states=weighted)
    initial_error = 1.0 - float(np.sum(priors * np.diag(channel)))
    meas, report = bayes_cost_reduction(states, priors, init=init, tol=tol)
    lines = [
        f"states={m}",
        f"initial_error={_fmt(initial_error)}",
        f"final_error={_fmt(report.error_probability)}",
        f"improvement={_fmt(initial_error - report.error_probability)}",
        f"sweeps={len(report.error_history)}",
        f"cond_i_residual={_fmt(report.cond_i_residual)}",
        f"cond_ii_min_eig={_fmt(report.cond_ii_min_eig)}",
        f"is_optimal={_fmt(report.is_optimal)}",
    ]
    if states_file is None:
        _, closed = helstrom_binary(kappa, xi1)
        lines.append(f"closed_form_error={_fmt(closed)}")
    text = "\n".join(lines) + "\n"
    out = _resolve(args, config, "out", str, None)
    _write(text, out)
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--kappa-min", dest="kappa_min", type=float, default=None)
    sub.add_argument("--kappa-max", dest="kappa_max", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--n", default=None, help="comma-separated block lengths")
    sub.add_argument("--code", default=None, help="nn12, simplex, or a code file path")
    sub.add_argument("--format", choices=["csv", "json"], default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--config", default=None, help="key=value file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supadd",
        description="Block-coding gain, decoding error, and decoder synthesis sweeps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, func, blurb in (
        ("fig2", cmd_fig2, "per-letter gain vs kappa for block lengths"),
        ("fig3", cmd_fig3, "gain crossing kappa* vs block length"),
        ("fig4", cmd_fig4, "holevo / block per-letter info / single-use capacity"),
        ("fig5", cmd_fig5, "block decoding error vs threshold error"),
        ("fig6", cmd_fig6, "length-7 simplex vs length-7 even-weight info"),
        ("fig7", cmd_fig7, "length-7 code decoding errors"),
        ("fig8", cmd_fig8, "length-7 simplex vs length-3 even-weight info"),
        ("sweep", cmd_sweep, "generic per-letter info and gain sweep"),
    ):
        sub = subparsers.add_parser(name, help=blurb)
        _add_common(sub)
        sub.set_defaults(func=func)

    # no abbreviations: --out would be read as --outdir
    synth = subparsers.add_parser(
        "synth", help="synthesize and factor the decoder", allow_abbrev=False
    )
    synth.add_argument("--n", default=None, help="block length")
    synth.add_argument("--code", default=None, help="nn12, simplex, or a code file path")
    synth.add_argument("--config", default=None, help="key=value file; flags win")
    synth.add_argument("--kappa", type=float, default=None)
    synth.add_argument("--outdir", default=None)
    synth.add_argument("--assign", default=None, help="comma-separated outcome labels")
    synth.set_defaults(func=cmd_synth)

    optimize = subparsers.add_parser("optimize", help="minimum-error measurement search")
    optimize.add_argument("--out", default=None)
    optimize.add_argument("--config", default=None, help="key=value file; flags win")
    optimize.add_argument("--kappa", type=float, default=None)
    optimize.add_argument("--xi1", type=float, default=None)
    optimize.add_argument("--priors", default=None, help="comma-separated priors")
    optimize.add_argument("--states-file", dest="states_file", default=None)
    optimize.add_argument("--tol", type=float, default=None)
    optimize.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SupaddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
