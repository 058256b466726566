import json

import numpy as np
import pytest

from supadd.cli import main
from supadd.detection import helstrom_binary
from supadd.ensembles import Code, build_nn12_code, code_to_text
from supadd.information import holevo_binary


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
