import functools
import json

import numpy as np
import pytest

from supadd import cli, ensembles, synth
from supadd.cli import SweepConfig, _emit, main
from supadd.detection import helstrom_binary, square_root_measurement
from supadd.ensembles import (
    Code,
    build_nn12_code,
    code_from_text,
    code_to_text,
    codeword_states,
    gram,
    int_bits,
)
from supadd.fastcode import (
    block_gain,
    nn12_error_probability,
    nn12_mutual_information,
    simplex_profile,
)
from supadd.information import binary_flip_probability, c1_binary, holevo_binary


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def messages(k):
    return (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFig2:
    def test_header_and_negative_pair_column(self, capsys):
        code, out, _ = run(
            capsys,
            ["fig2", "--steps", "9", "--kappa-min", "0.1", "--kappa-max", "0.9"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kappa"] + [f"gain_n{n}" for n in range(2, 14)]
        assert len(rows) == 9
        for row in rows:
            assert float(row[1]) <= 0.0  # pair code never gains

    def test_deterministic_output(self, tmp_path):
        args = ["fig2", "--steps", "7", "--n", "2,3,4"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, ["fig2", "--steps", "3", "--n", "3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["kappa", "gain_n3"]
        assert len(payload["rows"]) == 3


class TestFig3:
    def test_pair_row_has_empty_crossing(self, capsys):
        code, out, _ = run(capsys, ["fig3", "--n", "2,3,4"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "kappa_star", "guide"]
        assert rows[0][1] == ""  # no crossing for the pair code
        stars = [float(r[1]) for r in rows[1:]]
        assert stars[0] > stars[1]

    def test_guide_column(self, capsys):
        _, out, _ = run(capsys, ["fig3", "--n", "3"])
        _, rows = parse_csv(out)
        assert abs(float(rows[0][2]) - (2.0 / 3.0) ** (2.0 / 3.0)) < 1e-10


class TestCapacityFigures:
    def test_fig4_ordering(self, capsys):
        code, out, _ = run(capsys, ["fig4", "--steps", "6", "--n", "9"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kappa", "holevo", "i_n9_per_letter", "c1"]
        for row in rows:
            holevo, per_letter, c1 = (float(x) for x in row[1:])
            assert holevo >= per_letter - 1e-12
            assert holevo >= c1 - 1e-12

    def test_fig6_columns(self, capsys):
        code, out, _ = run(capsys, ["fig6", "--steps", "4"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "kappa",
            "holevo",
            "simplex_7_3_per_letter",
            "code_7_6_per_letter",
            "c1",
        ]
        assert len(rows) == 4

    def test_fig6_crossing_in_expected_window(self, capsys):
        _, out, _ = run(
            capsys,
            ["fig6", "--kappa-min", "0.70", "--kappa-max", "0.95", "--steps", "26"],
        )
        _, rows = parse_csv(out)
        diffs = [(float(r[0]), float(r[2]) - float(r[3])) for r in rows]
        crossing = next(k for k, d in diffs if d > 0)
        assert 0.80 <= crossing <= 0.84

    def test_fig8_columns(self, capsys):
        code, out, _ = run(capsys, ["fig8", "--steps", "3"])
        assert code == 0
        header, _ = parse_csv(out)
        assert header[2:] == ["simplex_7_3_per_letter", "code_3_2_per_letter", "c1"]


class TestErrorFigures:
    def test_fig5_layout_and_threshold_dominance(self, capsys):
        code, out, _ = run(capsys, ["fig5", "--steps", "8"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:2] == ["kappa", "p"]
        assert header[2:4] == ["code_error_n3", "threshold_error_n3"]
        assert len(header) == 2 + 2 * 6
        for row in rows:
            values = [float(x) for x in row]
            for idx in range(2, len(values), 2):
                assert values[idx] <= values[idx + 1] + 1e-12

    def test_fig7_columns(self, capsys):
        code, out, _ = run(capsys, ["fig7", "--steps", "5"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "kappa",
            "p",
            "simplex_7_3_error",
            "code_7_6_error",
            "threshold_error_n7",
        ]
        for row in rows:
            assert float(row[2]) <= float(row[4]) + 1e-12


class TestSweep:
    def test_even_weight_family(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--steps", "4", "--n", "3,5"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "kappa",
            "i_n3_per_letter",
            "gain_n3",
            "i_n5_per_letter",
            "gain_n5",
        ]
        assert len(rows) == 4

    def test_simplex_family(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--code", "simplex", "--n", "2,3", "--steps", "3"]
        )
        assert code == 0
        header, _ = parse_csv(out)
        assert header == [
            "kappa",
            "i_r2_per_letter",
            "gain_r2",
            "i_r3_per_letter",
            "gain_r3",
        ]

    def test_code_file(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text(code_to_text(build_nn12_code(3)))
        code, out, _ = run(
            capsys, ["sweep", "--code", str(path), "--steps", "3"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kappa", "i_per_letter", "gain"]
        assert len(rows) == 3

    def test_linear_code_file_near_singular_overlap(self, capsys, tmp_path):
        # the Gram matrix of this [12,10] code at kappa = 0.99 is too close
        # to singular for the explicit route; the group route still answers
        rng = np.random.default_rng(0)
        while True:
            words = messages(10) @ rng.integers(0, 2, size=(10, 12)) % 2
            if len({tuple(w) for w in words.tolist()}) == 1024:
                break
        words = words[rng.permutation(1024)]
        path = tmp_path / "linear.txt"
        path.write_text(code_to_text(Code(n=12, codewords=words)))
        code, out, _ = run(
            capsys,
            ["sweep", "--code", str(path), "--kappa-min", "0.9", "--kappa-max", "0.99",
             "--steps", "2"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        for kappa, per_letter, _ in rows:
            assert 0.0 < float(per_letter) <= holevo_binary(float(kappa))

    def test_oversized_code_file_refused(self, capsys, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("allocation reached")

        monkeypatch.setattr(ensembles, "hamming_matrix", unreachable)
        # 2**14 words of length 15 without the zero word: not linear, so
        # the explicit Gram route, whose temporaries would take 8 GiB
        path = tmp_path / "big.code"
        path.write_text(code_to_text(Code(n=15, codewords=int_bits(np.arange(1, 2**14 + 1), 15))))
        code, out, err = run(capsys, ["sweep", "--code", str(path), "--steps", "2"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_code_file(self, capsys):
        code, _, err = run(capsys, ["sweep", "--code", "/nonexistent/code.txt"])
        assert code != 0
        assert "error:" in err


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("steps=3\nkappa-min=0.2\nkappa_max=0.4\nn=3\n")
        code, out, _ = run(capsys, ["fig2", "--config", str(cfg)])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert abs(float(rows[0][0]) - 0.2) < 1e-12
        assert abs(float(rows[-1][0]) - 0.4) < 1e-12

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("steps=3\nn=3\n")
        code, out, _ = run(capsys, ["fig2", "--config", str(cfg), "--steps", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5

    def test_invalid_grid_rejected(self, capsys):
        code, _, err = run(
            capsys, ["fig2", "--kappa-min", "0.9", "--kappa-max", "0.5"]
        )
        assert code == 2
        assert "error:" in err

    def test_single_step_rejected(self, capsys):
        code, _, err = run(capsys, ["fig2", "--steps", "1"])
        assert code == 2
        assert "error:" in err

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps 3\n")
        code, _, err = run(capsys, ["fig2", "--config", str(cfg)])
        assert code == 2
        assert "error:" in err


class TestSynthCommand:
    def test_writes_artifacts_and_consistent_report(self, capsys, tmp_path):
        outdir = tmp_path / "synth"
        code, out, _ = run(
            capsys,
            ["synth", "--code", "nn12", "--n", "3", "--kappa", "0.5", "--outdir", str(outdir)],
        )
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert json.loads(out) == report
        assert abs(report["separate_error"] - report["collective_error"]) < 1e-10
        assert report["orthogonality_residual"] <= 1e-10
        assert report["reconstruction_residual"] <= 1e-8
        u = np.loadtxt(outdir / "unitary.txt")
        assert u.shape == (8, 8)
        schedule_lines = (outdir / "schedule.csv").read_text().strip().splitlines()
        assert schedule_lines[0] == "j,i,gamma"
        assert len(schedule_lines) - 1 >= report["rotations"]

    def test_several_block_lengths_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["synth", "--code", "nn12", "--n", "3,5", "--outdir", str(tmp_path)],
        )
        assert code == 2
        assert "error:" in err
        assert not (tmp_path / "report.json").exists()

    def test_block_length_guard_maps_to_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["synth", "--code", "nn12", "--n", "13", "--outdir", str(tmp_path)],
        )
        assert code == 2
        assert "error:" in err


class TestOptimizeCommand:
    def test_binary_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--kappa", "0.5", "--xi1", "0.9"])
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        _, expected = helstrom_binary(0.5, 0.9)
        assert abs(float(values["final_error"]) - expected) < 1e-9
        assert values["is_optimal"] == "true"
        assert float(values["improvement"]) > 0.0

    def test_states_file(self, capsys, tmp_path):
        path = tmp_path / "states.txt"
        rng = np.random.default_rng(3)
        states = rng.normal(size=(3, 3))
        states /= np.linalg.norm(states, axis=1)[:, None]
        np.savetxt(path, states)
        code, out, _ = run(
            capsys,
            ["optimize", "--states-file", str(path), "--priors", "0.5,0.25,0.25"],
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["is_optimal"] == "true"
        assert float(values["final_error"]) <= float(values["initial_error"]) + 1e-12

    def test_priors_not_a_probability_vector(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        np.savetxt(path, np.eye(2))
        code, out, err = run(
            capsys, ["optimize", "--states-file", str(path), "--priors", "0.9,0.9"]
        )
        assert code == 2
        assert out == ""
        assert "probability vector" in err

    def test_states_not_unit_norm(self, capsys, tmp_path):
        path = tmp_path / "scaled.txt"
        path.write_text("2 0\n0 2\n")
        code, out, err = run(capsys, ["optimize", "--states-file", str(path)])
        assert code == 2
        assert out == ""
        assert "unit norm" in err


class TestNonNumericInput:
    def check_rejected(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_priors(self, capsys):
        self.check_rejected(capsys, ["optimize", "--priors", "x,y"])

    def test_states_file(self, capsys, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("1 0\n0 x\n")
        self.check_rejected(capsys, ["optimize", "--states-file", str(path)])

    @pytest.mark.parametrize("line", ["kappa_min=abc", "steps=1.5"])
    def test_config_value(self, capsys, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        self.check_rejected(capsys, ["fig2", "--config", str(path)])


class TestUnreadFlags:
    # synth and optimize used to accept the sweep flags and ignore them
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--kappa-min", "0.1"],
            ["synth", "--kappa-max", "0.9"],
            ["synth", "--steps", "5"],
            ["synth", "--format", "json"],
            ["synth", "--out", "x.txt"],
            ["optimize", "--kappa-min", "0.1"],
            ["optimize", "--kappa-max", "0.9"],
            ["optimize", "--steps", "5"],
            ["optimize", "--n", "3"],
            ["optimize", "--code", "nn12"],
            ["optimize", "--format", "json"],
        ],
    )
    def test_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


def scalar_kappa_star(n):
    """The crossing search with one block_gain call per grid point."""
    grid = np.linspace(0.01, 0.99, 99)
    values = np.array([block_gain(n, k) for k in grid])
    change = np.flatnonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))
    if change.size == 0:
        return None
    lo, hi = grid[change[0]], grid[change[0] + 1]
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if block_gain(n, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def simplex_per_letter(r, k):
    return simplex_profile(r, k).info_bits / (2**r - 1)


def capacity_rows(grid, code_columns):
    columns = ["kappa", "holevo"] + [name for name, _ in code_columns] + ["c1"]
    rows = [[k, holevo_binary(k)] + [fn(k) for _, fn in code_columns] + [c1_binary(k)] for k in grid]
    return columns, rows


def scalar_oracle(command, grid, n_list):
    """Columns and rows of a figure command or family sweep, built one
    kappa at a time from scalar calls."""
    if command == "fig2":
        columns = ["kappa"] + [f"gain_n{n}" for n in n_list]
        return columns, [[k] + [block_gain(n, k) for n in n_list] for k in grid]
    if command == "fig3":
        rows = [[n, scalar_kappa_star(n), (2.0 / n) ** (2.0 / 3.0)] for n in n_list]
        return ["n", "kappa_star", "guide"], rows
    if command == "fig4":
        return capacity_rows(
            grid,
            [(f"i_n{n}_per_letter", lambda k, n=n: nn12_mutual_information(n, k) / n) for n in n_list],
        )
    if command == "fig5":
        columns = ["kappa", "p"]
        for n in n_list:
            columns += [f"code_error_n{n}", f"threshold_error_n{n}"]
        rows = []
        for k in grid:
            p = binary_flip_probability(k)
            row = [k, p]
            for n in n_list:
                row += [nn12_error_probability(n, k), 1.0 - (1.0 - p) ** n]
            rows.append(row)
        return columns, rows
    if command == "fig6":
        return capacity_rows(
            grid,
            [
                ("simplex_7_3_per_letter", lambda k: simplex_per_letter(3, k)),
                ("code_7_6_per_letter", lambda k: nn12_mutual_information(7, k) / 7),
            ],
        )
    if command == "fig7":
        columns = ["kappa", "p", "simplex_7_3_error", "code_7_6_error", "threshold_error_n7"]
        rows = []
        for k in grid:
            p = binary_flip_probability(k)
            rows.append(
                [k, p, simplex_profile(3, k).error_probability, nn12_error_probability(7, k),
                 1.0 - (1.0 - p) ** 7]
            )
        return columns, rows
    if command == "fig8":
        return capacity_rows(
            grid,
            [
                ("simplex_7_3_per_letter", lambda k: simplex_per_letter(3, k)),
                ("code_3_2_per_letter", lambda k: nn12_mutual_information(3, k) / 3),
            ],
        )
    if command == "sweep_nn12":
        columns = ["kappa"]
        for n in n_list:
            columns += [f"i_n{n}_per_letter", f"gain_n{n}"]
        rows = []
        for k in grid:
            row = [k]
            for n in n_list:
                gain = block_gain(n, k)
                row += [gain + c1_binary(k), gain]
            rows.append(row)
        return columns, rows
    columns = ["kappa"]
    for r in n_list:
        columns += [f"i_r{r}_per_letter", f"gain_r{r}"]
    rows = []
    for k in grid:
        c1 = c1_binary(k)
        row = [k]
        for r in n_list:
            per = simplex_per_letter(r, k)
            row += [per, per - c1]
        rows.append(row)
    return columns, rows


FIGURE_DEFAULTS = {
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "fig5": ["fig5"],
    "fig6": ["fig6"],
    "fig7": ["fig7"],
    "fig8": ["fig8"],
    "sweep_nn12": ["sweep", "--code", "nn12", "--n", "2,3,4,5,6,7,8,9,10,11,12,13"],
    "sweep_simplex": ["sweep", "--code", "simplex", "--n", "2,3,4"],
}
DEFAULT_N = {
    "fig2": range(2, 14),
    "fig3": range(2, 14),
    "fig4": (9,),
    "fig5": (3, 5, 7, 9, 11, 13),
    "fig6": (7,),
    "fig7": (7,),
    "fig8": (3,),
    "sweep_nn12": range(2, 14),
    "sweep_simplex": (2, 3, 4),
}
FINE = (0.001, 0.999, 40)


@functools.lru_cache(maxsize=None)
def oracle_table(command, grid_spec):
    grid = np.linspace(*grid_spec)
    return scalar_oracle(command, grid, tuple(DEFAULT_N[command]))


class TestColumnsMatchScalarLoops:
    """Each figure command and family sweep computes its columns over the
    whole grid at once; its output equals, byte for byte, the same table
    built one kappa at a time."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", FIGURE_DEFAULTS)
    def test_default_config(self, capsys, command, fmt):
        self.check(capsys, command, FIGURE_DEFAULTS[command] + ["--format", fmt],
                   (0.01, 0.99, 99), fmt)

    @pytest.mark.parametrize("command", [c for c in FIGURE_DEFAULTS if c != "fig3"])
    def test_fine_grid_near_the_ends(self, capsys, command):
        lo, hi, steps = FINE
        argv = FIGURE_DEFAULTS[command] + [
            "--kappa-min", str(lo), "--kappa-max", str(hi), "--steps", str(steps)
        ]
        self.check(capsys, command, argv, FINE, "csv")

    def check(self, capsys, command, argv, grid_spec, fmt):
        columns, rows = oracle_table(command, grid_spec)
        _emit(columns, rows, SweepConfig(format=fmt))
        expected = capsys.readouterr().out
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == expected


class TestCodeFilePriors:
    @pytest.mark.parametrize("prior", ["nan", "inf", "x"])
    def test_bad_prior_field_rejected(self, capsys, tmp_path, prior):
        path = tmp_path / "code.txt"
        path.write_text(f"2 2\n01\n10\n{prior}\n0.5\n")
        code, out, err = run(capsys, ["sweep", "--code", str(path), "--steps", "3"])
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestSynthMeasurementOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--code", "nn12", "--n", "4"],
            ["--code", "simplex", "--n", "2", "--assign", "6,1,4,3"],
        ],
    )
    def test_one_square_root_measurement_per_job(self, capsys, tmp_path, monkeypatch, argv):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return square_root_measurement(*args, **kwargs)

        monkeypatch.setattr(synth, "square_root_measurement", counting)
        monkeypatch.setattr(cli, "square_root_measurement", counting)
        code, out, _ = run(capsys, ["synth", *argv, "--kappa", "0.5", "--outdir", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1
        report = json.loads(out)
        # the report's error fields, with the collective error computed
        # from a second measurement as before
        family, n = argv[1], int(argv[3])
        code_obj = cli._resolve_code(family, (n,))
        assignment = [6, 1, 4, 3] if "--assign" in argv else None
        syn = synth.synthesize_unitary(code_obj, 0.5, outcome_assignment=assignment)
        _, channel = square_root_measurement(gram(code_obj, 0.5))
        collective = 1.0 - float(np.sum(code_obj.priors * np.diag(channel)))
        assert report["separate_error"] == cli._jsonval(syn.error_probability)
        assert report["collective_error"] == cli._jsonval(collective)
        assert report["error_mismatch"] == cli._jsonval(abs(syn.error_probability - collective))


def dense_synth_reference(code, kappa, labels):
    """The report fields and the unitary.txt lines a dense route gives,
    for any code: the measurement rows at the labels, an orthonormal
    completion of them in the other rows, and the Reck mesh of that
    matrix."""
    m, dim = code.num_codewords, 2**code.n
    states = codeword_states(code, kappa)
    meas, channel = square_root_measurement(gram(code, kappa), states=states)
    u = np.empty((dim, dim))
    u[labels] = meas
    u[[y for y in range(dim) if y not in labels]] = np.linalg.qr(meas.T, mode="complete")[0][:, m:].T
    schedule = synth.reck_decompose(u)
    correct = np.einsum("ij,ij->i", states, meas)
    separate = 1.0 - float(np.sum(code.priors * correct**2))
    collective = 1.0 - float(np.sum(code.priors * np.diag(channel)))
    report = {
        "target_outcomes": labels,
        "separate_error": cli._jsonval(separate),
        "collective_error": cli._jsonval(collective),
        "error_mismatch": cli._jsonval(abs(separate - collective)),
        "rotations": len(schedule.rotations),
    }
    return report, [" ".join(f"{x:.17g}" for x in row) for row in u]


class TestSynthAgreesWithDenseRoute:
    @staticmethod
    def code_file(kind, tmp_path):
        rng = np.random.default_rng(17)
        if kind == "linear":
            # a shuffled [6, 3] code
            words = {0}
            for g in (0b110100, 0b011010, 0b101001):
                words |= {w ^ g for w in words}
            code = Code(n=6, codewords=int_bits(rng.permutation(sorted(words)), 6))
        else:
            priors = rng.random(12)
            words = int_bits(rng.permutation(32)[:12], 5)
            code = Code(n=5, codewords=words, priors=priors / priors.sum())
        path = tmp_path / f"{kind}.code"
        path.write_text(code_to_text(code))
        return path, code_from_text(path.read_text())

    @pytest.mark.parametrize("assign", ["default", "reversed", "spread"])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_report_and_label_rows(self, capsys, tmp_path, kind, assign):
        path, code = self.code_file(kind, tmp_path)
        m, dim = code.num_codewords, 2**code.n
        labels = {
            "default": list(range(m)),
            "reversed": list(range(m - 1, -1, -1)),
            "spread": np.random.default_rng(5).permutation(dim)[:m].tolist(),
        }[assign]
        argv = ["synth", "--code", str(path), "--kappa", "0.55", "--outdir", str(tmp_path / "out")]
        if assign != "default":
            argv += ["--assign", ",".join(map(str, labels))]
        assert run(capsys, argv)[0] == 0
        dense, dense_rows = dense_synth_reference(code, 0.55, labels)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for key in ("target_outcomes", "separate_error", "collective_error", "error_mismatch"):
            assert report[key] == dense[key]
        assert report["rotations"] < dense["rotations"]
        assert report["reconstruction_residual"] <= 1e-12
        rows = (tmp_path / "out" / "unitary.txt").read_text().splitlines()
        assert [rows[label] for label in labels] == [dense_rows[label] for label in labels]
