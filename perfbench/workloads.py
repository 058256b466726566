"""The benchmark's four workloads: their seeded input files, their CLI jobs,
and the checks every job's output must pass.

Each workload is a list of `Job`s, each one `supadd.cli.main(argv)` call.
The program only sees the generated files and the flags; the seed decides
the files and which figure rows are spot-checked, nothing else.
"""

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from supadd.detection import square_root_measurement
from supadd.ensembles import Code, build_nn12_code, build_simplex_code, gram
from supadd.information import c1_binary, holevo_binary, mutual_information

# The speed reference each workload's times are scaled by (speed.py). Over
# 12 to 40 passes, the pass times varied (coefficient of variation) by
#   figures         19% measured, 5% by interpreter, 10% by lapack
#   synthesis       12% measured, 3% by interpreter,  4% by lapack
#   explicit_codes  12% measured, 12% by interpreter, 3% by lapack
# explicit_codes spends most of its time in eigh; the others in the
# interpreter and small numpy calls.
REFERENCE = {
    "figures": "interpreter",
    "explicit_codes": "lapack",
    "synthesis": "interpreter",
    "optimize": "interpreter",
}

# Explicit-route spot checks stop at n = 9, the range of acceptance
# criterion 1; larger even-weight codes are too slow to diagonalize here.
EXPLICIT_MAX_N = 9
EXPLICIT_TOL = 1e-9
SPOT_ROWS = 3
# CLI numbers carry 12 significant digits, so identities between printed
# values hold to about 1e-12 and no better.
PRINT_TOL = 1e-12
SYNTH_TOL = 1e-9
SYNTH_KAPPA = "0.5"
# Random linear [12,10] codes have numerically singular Gram matrices at
# kappa = 0.99 for most seeds (minimum eigenvalue about 1e-13, which the
# program refuses with exit 2); at 0.9 the smallest seen over 40 seeds was
# 5e-9. So the code-file sweeps stop at 0.9.
FILE_KAPPA_MAX = "0.9"
FILE_STEPS = 7


@dataclass
class Job:
    """One CLI invocation, the check its output gets (kind), the directory
    it writes files to and the input files it reads."""

    name: str
    argv: list
    kind: str
    outdir: Path | None = None
    inputs: tuple = ()


@dataclass
class Output:
    """What one job left behind: exit code, streams and written files."""

    code: object
    stdout: str
    stderr: str
    files: dict

    def same_as(self, other: "Output") -> bool:
        return (self.code, self.stdout, self.files) == (other.code, other.stdout, other.files)


def collect(job: Job, code, stdout: str, stderr: str) -> Output:
    files = {}
    if job.outdir is not None:
        for name in ("report.json", "schedule.csv", "unitary.txt"):
            path = job.outdir / name
            files[name] = path.read_bytes() if path.exists() else None
    return Output(code, stdout, stderr, files)


# ---------------------------------------------------------------- inputs


def _bits(values, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.int64)
    return ((values[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def _gf2_rank(rows: np.ndarray) -> int:
    rows = rows.copy() % 2
    rank = 0
    for col in range(rows.shape[1]):
        pivot = next((r for r in range(rank, rows.shape[0]) if rows[r, col]), None)
        if pivot is None:
            continue
        rows[[rank, pivot]] = rows[[pivot, rank]]
        for r in range(rows.shape[0]):
            if r != rank and rows[r, col]:
                rows[r] ^= rows[rank]
        rank += 1
    return rank


def _code_text(codewords: np.ndarray, priors: np.ndarray) -> str:
    m, n = codewords.shape
    lines = [f"{n} {m}"]
    lines += ["".join(map(str, row)) for row in codewords.tolist()]
    lines += [repr(float(p)) for p in priors]
    return "\n".join(lines) + "\n"


def _random_linear_code(rng, n: int, k: int) -> np.ndarray:
    while True:
        generator = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if _gf2_rank(generator) == k:
            break
    words = (_bits(np.arange(2**k), k).astype(np.int64) @ generator) % 2
    return words[rng.permutation(2**k)].astype(np.uint8)


def _explicit_code_files(rng, workdir: Path, write: bool) -> list:
    linear = _random_linear_code(rng, 12, 10)
    nonlinear = _bits(np.sort(rng.choice(2**11, size=512, replace=False)), 11)
    nonlinear = nonlinear[rng.permutation(512)]
    even = _bits([v for v in range(2**11) if bin(v).count("1") % 2 == 0], 11)
    even = even[rng.permutation(even.shape[0])]
    codes = [
        ("linear_12_10", linear, np.full(1024, 1.0 / 1024)),
        ("nonlinear_11_512", nonlinear, rng.dirichlet(np.ones(512))),
        ("even_weight_11", even, np.full(1024, 1.0 / 1024)),
    ]
    jobs = []
    for name, words, priors in codes:
        path = workdir / f"{name}.code"
        if write:
            path.write_text(_code_text(words, priors))
        argv = ["sweep", "--code", str(path), "--kappa-max", FILE_KAPPA_MAX,
                "--steps", str(FILE_STEPS)]
        jobs.append(Job(name, argv, "sweep_file", inputs=(str(path),)))
    return jobs


def _optimize_jobs(rng, workdir: Path, write: bool) -> list:
    """Random real ensembles of M unit states in M dimensions.

    The geometry (state overlaps and priors) of each size comes from a fixed
    stream; the seed only rotates all states by one random orthogonal
    matrix. The optimizer sees the states only through their overlaps, so
    every seed costs the same number of sweeps, while seeded geometries
    varied by 2x in sweeps between seeds.
    """
    jobs = []
    for m in (8, 16, 24):
        base = np.random.default_rng([m, 0])
        states = base.standard_normal((m, m))
        states /= np.linalg.norm(states, axis=1)[:, None]
        priors = base.dirichlet(np.ones(m))
        q, r = np.linalg.qr(rng.standard_normal((m, m)))
        states = states @ (q * np.sign(np.diag(r))).T
        path = workdir / f"states_{m}.txt"
        if write:
            path.write_text("\n".join(" ".join(repr(float(x)) for x in row) for row in states) + "\n")
        argv = ["optimize", "--states-file", str(path),
                "--priors", ",".join(repr(float(p)) for p in priors)]
        jobs.append(Job(f"random_{m}", argv, "optimize", inputs=(str(path),)))
    jobs.append(Job("binary_default", ["optimize"], "optimize_binary"))
    return jobs


def build(workload: str, seed: int, workdir: Path, write: bool = True) -> list:
    """Jobs of a workload; with write=True also the input files they read.

    The same seed always gives the same files and jobs.
    """
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    if workload == "figures":
        jobs = [Job(f"fig{i}", [f"fig{i}"], "figure") for i in range(2, 9)]
        n_list = ",".join(map(str, range(2, 14)))
        jobs.append(Job("sweep_nn12", ["sweep", "--code", "nn12", "--n", n_list], "figure"))
        jobs.append(Job("sweep_simplex", ["sweep", "--code", "simplex", "--n", "2,3,4"], "figure"))
        return jobs
    if workload == "explicit_codes":
        return _explicit_code_files(rng, workdir, write)
    if workload == "synthesis":
        specs = [("nn12_n8", "nn12", "8"), ("nn12_n9", "nn12", "9"), ("simplex_r3", "simplex", "3")]
        return [
            Job(name, ["synth", "--code", code, "--n", n, "--kappa", SYNTH_KAPPA,
                       "--outdir", str(workdir / name)], "synth", outdir=workdir / name)
            for name, code, n in specs
        ]
    if workload == "optimize":
        return _optimize_jobs(rng, workdir, write)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks


def _table(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [[float(v) if v else None for v in row] for row in body]


def _rounding(value: float) -> float:
    """Largest rounding error of a number printed with 12 significant digits."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0


def key_values(text: str) -> dict:
    """The key=value lines of an optimize report."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class ExplicitRoute:
    """Per-letter information and block error of a code computed the
    brute-force way (Gram matrix, square-root measurement, mutual
    information), bypassing every closed form and re-routing check."""

    def __init__(self):
        self._memo = {}

    def _code(self, family: str, size: int) -> Code:
        if family == "simplex":
            return build_simplex_code(size)
        if size == 2:
            return Code(n=2, codewords=np.array([[0, 0], [1, 1]]))
        return build_nn12_code(size)

    def point(self, family: str, size: int, kappa: float):
        key = (family, size, kappa)
        if key not in self._memo:
            code = self._code(family, size)
            _, channel = square_root_measurement(gram(code, kappa))
            info = mutual_information(code.priors, channel).mutual_information_bits
            error = 1.0 - float(np.sum(code.priors * np.diag(channel)))
            self._memo[key] = (info / code.n, error)
        return self._memo[key]


# column pattern -> (code family, what the column holds)
_COLUMNS = [
    (re.compile(r"gain_n(\d+)$"), "nn12", "gain"),
    (re.compile(r"i_n(\d+)_per_letter$"), "nn12", "per_letter"),
    (re.compile(r"code_error_n(\d+)$"), "nn12", "error"),
    (re.compile(r"code_(\d+)_\d+_per_letter$"), "nn12", "per_letter"),
    (re.compile(r"code_(\d+)_\d+_error$"), "nn12", "error"),
    (re.compile(r"gain_r(\d+)$"), "simplex", "gain"),
    (re.compile(r"i_r(\d+)_per_letter$"), "simplex", "per_letter"),
    (re.compile(r"simplex_\d+_(\d+)_per_letter$"), "simplex", "per_letter"),
    (re.compile(r"simplex_\d+_(\d+)_error$"), "simplex", "error"),
]


def _explicit_value(route, family, size, what, kappa):
    per_letter, error = route.point(family, size, kappa)
    if what == "gain":
        return per_letter - c1_binary(kappa)
    return per_letter if what == "per_letter" else error


def check_figure(text: str, rng, route: ExplicitRoute) -> list:
    header, rows = _table(text)
    problems = []
    if header == ["n", "kappa_star", "guide"]:
        for n, star, guide in rows:
            n = int(n)
            if abs(guide - (2.0 / n) ** (2.0 / 3.0)) > PRINT_TOL:
                problems.append(f"guide wrong at n={n}")
            if n > EXPLICIT_MAX_N or star is None:
                continue
            below = _explicit_value(route, "nn12", n, "gain", star - 1e-4)
            above = _explicit_value(route, "nn12", n, "gain", star + 1e-4)
            if not below < 0.0 < above:
                problems.append(f"kappa_star={star} is not a crossing for n={n}")
        return problems
    picked = sorted(rng.choice(len(rows), size=min(SPOT_ROWS, len(rows)), replace=False))
    checked = 0
    for col, name in enumerate(header):
        for pattern, family, what in _COLUMNS:
            match = pattern.match(name)
            if match is None:
                continue
            size = int(match.group(1))
            if family == "nn12" and size > EXPLICIT_MAX_N:
                break
            for r in picked:
                kappa, value = rows[r][0], rows[r][col]
                expected = _explicit_value(route, family, size, what, kappa)
                checked += 1
                if abs(value - expected) > EXPLICIT_TOL:
                    problems.append(f"{name} at kappa={kappa}: {value} vs explicit {expected}")
            break
    if checked == 0:
        problems.append(f"no column of {header} was checked")
    return problems


def check_sweep_file(text: str) -> list:
    header, rows = _table(text)
    if header != ["kappa", "i_per_letter", "gain"] or len(rows) != FILE_STEPS:
        return [f"unexpected table shape {header} x {len(rows)}"]
    problems = []
    grid = np.linspace(0.01, float(FILE_KAPPA_MAX), FILE_STEPS)
    for (printed, info, gain), kappa in zip(rows, grid):
        if abs(printed - kappa) > _rounding(kappa) + 1e-15:
            problems.append(f"kappa={printed} is not the grid point {kappa}")
        if not -PRINT_TOL <= info <= holevo_binary(kappa) + PRINT_TOL:
            problems.append(f"i_per_letter={info} outside [0, holevo] at kappa={kappa}")
        # equal before printing, so only the two roundings may separate them
        if abs(gain - (info - c1_binary(kappa))) > _rounding(gain) + _rounding(info) + 1e-15:
            problems.append(f"gain={gain} != i_per_letter - c1 at kappa={kappa}")
    return problems


def check_synth(out: Output) -> list:
    report = json.loads(out.stdout)
    problems = [
        f"{key}={report[key]} > {SYNTH_TOL}"
        for key in ("error_mismatch", "orthogonality_residual", "reconstruction_residual")
        if not report[key] <= SYNTH_TOL
    ]
    if out.files.get("report.json") != out.stdout.encode():
        problems.append("report.json differs from stdout")
    schedule = (out.files.get("schedule.csv") or b"").decode().splitlines()
    lines = len(schedule) - 1 - int(report["flip_last"])
    if report["rotations"] != lines:
        problems.append(f"rotations={report['rotations']} but {lines} schedule lines")
    if out.files.get("unitary.txt") is None:
        problems.append("unitary.txt missing")
    return problems


def check_optimize(text: str, binary: bool) -> list:
    fields = key_values(text)
    problems = []
    if fields.get("is_optimal") != "true":
        problems.append(f"is_optimal={fields.get('is_optimal')}")
    initial, final = float(fields["initial_error"]), float(fields["final_error"])
    if not -PRINT_TOL <= final <= initial + PRINT_TOL or initial > 1.0:
        problems.append(f"errors out of order: final={final} initial={initial}")
    if binary and abs(final - float(fields["closed_form_error"])) > EXPLICIT_TOL:
        problems.append(f"final_error={final} vs closed_form_error={fields['closed_form_error']}")
    return problems


def check(job: Job, out: Output, rng, route: ExplicitRoute) -> list:
    """Problems with one job's output; an empty list means it passed."""
    if out.code != 0:
        return [f"exit {out.code}: {out.stderr.strip()[-500:]}"]
    try:
        if job.kind == "figure":
            return check_figure(out.stdout, rng, route)
        if job.kind == "sweep_file":
            return check_sweep_file(out.stdout)
        if job.kind == "synth":
            return check_synth(out)
        return check_optimize(out.stdout, binary=job.kind == "optimize_binary")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
