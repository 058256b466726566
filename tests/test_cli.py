import functools
import hashlib
import json

import numpy as np
import pytest

from supadd import cli, detection, ensembles, information, synth
from supadd.cli import _emit, main
from supadd.detection import _polar_rows, helstrom_binary, square_root_measurement
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
    linear_generators,
    nn12_error_probability,
    nn12_mutual_information,
    simplex_profile,
)
from supadd.information import (
    binary_flip_probability,
    c1_binary,
    code_information,
    holevo_binary,
)
from test_synth import collective_error, eigh_tolerance, group_vectors, separate_error


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unreachable(*args, **kwargs):
    raise AssertionError("reached a call the input should have stopped")


def single_error(capsys, argv):
    """Run argv and check it exits 2 with one error line and no output."""
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:")
    return err


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

    def test_group_route_guard(self, capsys, monkeypatch):
        # n = 24 holds 2**23 roots per kappa, past the guard; it is refused
        # before the span is built
        monkeypatch.setattr(np, "concatenate", unreachable)
        err = single_error(capsys, ["fig2", "--n", "24", "--steps", "2"])
        assert "k <= 22" in err

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

    def test_default_output_bytes(self, capsys):
        # kappa* depends only on the signs of block_gain at dyadic
        # midpoints and the guide prints 12 digits, so these bytes hold
        # whatever the search's batching
        code, out, _ = run(capsys, ["fig3"])
        assert code == 0
        digest = hashlib.sha1(out.encode()).hexdigest()
        assert digest == "99db23d5644a5c935b652186e71299a3be3567aa"

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

    def test_even_weight_columns_are_fig4_and_fig2(self, capsys):
        # one column path: the family's per-letter information is fig4's and
        # its gain fig2's, n = 2 included
        lengths = ",".join(map(str, range(2, 14)))
        _, out, _ = run(capsys, ["sweep", "--code", "nn12", "--n", lengths])
        header, rows = parse_csv(out)
        columns = dict(zip(header, zip(*rows)))
        _, out, _ = run(capsys, ["fig4", "--n", lengths])
        header, rows = parse_csv(out)
        fig4 = dict(zip(header, zip(*rows)))
        _, out, _ = run(capsys, ["fig2"])
        header, rows = parse_csv(out)
        fig2 = dict(zip(header, zip(*rows)))
        for n in range(2, 14):
            assert columns[f"i_n{n}_per_letter"] == fig4[f"i_n{n}_per_letter"]
            assert columns[f"gain_n{n}"] == fig2[f"gain_n{n}"]

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

    def test_simplex_past_64_letters_rejected(self, capsys, monkeypatch):
        # rank 7 gives words of 127 letters, more than a uint64 holds
        monkeypatch.setattr(np, "concatenate", unreachable)
        err = single_error(capsys, ["sweep", "--code", "simplex", "--n", "7", "--steps", "2"])
        assert "64 letters" in err

    def test_missing_code_file(self, capsys):
        code, _, err = run(capsys, ["sweep", "--code", "/nonexistent/code.txt"])
        assert code != 0
        assert "error:" in err

    @staticmethod
    def odd_weight(n):
        """The even-weight code of length n with its last letter flipped: a
        coset of it whose smallest word is 0...01."""
        even = build_nn12_code(n)
        return even, Code(n=n, codewords=even.codewords ^ int_bits([1], n))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_odd_weight_file_prints_the_even_weight_bytes(self, capsys, tmp_path, monkeypatch, n):
        # the odd-weight code has the even-weight code's Gram matrix up to
        # codeword order: it takes the same group route, with no square-root
        # measurement, and prints the same bytes
        monkeypatch.setattr(information, "square_root_measurement", unreachable)
        outs = []
        for name, code in zip(("even", "odd"), self.odd_weight(n)):
            path = tmp_path / f"{name}.code"
            path.write_text(code_to_text(code))
            status, out, _ = run(capsys, ["sweep", "--code", str(path)])
            assert status == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_odd_weight_words_in_increasing_order(self, capsys, tmp_path, monkeypatch):
        # the same two codes with the words of each in increasing order, as
        # a file is usually written; build_nn12_code lists them otherwise
        monkeypatch.setattr(information, "square_root_measurement", unreachable)
        outs = []
        for parity in (0, 1):
            words = [w for w in range(512) if w.bit_count() % 2 == parity]
            path = tmp_path / f"weight9_{parity}.code"
            path.write_text(code_to_text(Code(n=9, codewords=int_bits(np.array(words), 9))))
            status, out, _ = run(capsys, ["sweep", "--code", str(path)])
            assert status == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_affine_file_past_the_gram_guard(self, capsys, tmp_path, monkeypatch):
        # 2**13 odd-weight words of length 14: their Gram route would need
        # about 4 GiB and is refused, but as a coset of the even-weight code
        # they take its group route
        monkeypatch.setattr(ensembles, "hamming_matrix", unreachable)
        path = tmp_path / "odd14.code"
        path.write_text(code_to_text(self.odd_weight(14)[1]))
        status, out, _ = run(capsys, ["sweep", "--code", str(path), "--steps", "3"])
        assert status == 0
        _, rows = parse_csv(out)
        grid = np.linspace(0.01, 0.99, 3)
        assert [row[0] for row in rows] == [cli._fmt(x) for x in grid]
        per_letter = np.array([float(row[1]) for row in rows])
        assert np.abs(per_letter - nn12_mutual_information(14, grid) / 14).max() <= 1e-12


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

    def test_comment_and_blank_lines_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("steps=3\nn=3\n")
        _, plain, _ = run(capsys, ["fig2", "--config", str(cfg)])
        cfg.write_text("# a three-point grid\n\n   \nsteps=3  # points\n\nn=3\n")
        code, out, _ = run(capsys, ["fig2", "--config", str(cfg)])
        assert code == 0
        assert out == plain

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

    @pytest.mark.parametrize(
        "command, text",
        [
            ("fig2", "kapa_min=0.2\n"),  # a typo used to leave the default grid
            ("fig3", "steps=5\n"),  # fig3 has no grid
            ("fig2", "steps=3\nsteps=5\n"),
            ("fig2", "kappa-min=0.2\nkappa_min=0.3\n"),
        ],
    )
    def test_unread_or_repeated_key_rejected(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


# every word of length 8 with equal priors: every axis is a label
ALL_WORDS_8 = "8 256\n" + "".join(f"{w:08b}\n" for w in range(256)) + "0.00390625\n" * 256
# the same words but the last: no linear code, and at kappa 0.95 cond(Psi)
# is about 1e6
ALL_BUT_ONE_8 = "8 255\n" + "".join(f"{w:08b}\n" for w in range(255)) + f"{1 / 255!r}\n" * 255
# the odd-weight words of length 9: a coset of the even-weight code
ODD_WEIGHT_9 = (
    "9 256\n" + "".join(f"{w:09b}\n" for w in range(512) if w.bit_count() % 2) + "0.00390625\n" * 256
)


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

    @pytest.mark.parametrize(
        "argv, code_text",
        [
            (["--n", "6"], None),
            (["--n", "6", "--assign", ",".join(map(str, range(31, -1, -1)))], None),
            (["--code", "simplex", "--n", "3"], None),
            (["--code", "simplex", "--n", "2", "--assign", "6,1,4,3"], None),
            (["--kappa", "0.95"], ALL_WORDS_8),
            # labels 0 and 1 swapped: an odd count of wrong signs, so flip_last
            (["--kappa", "0.95", "--assign", ",".join(map(str, [1, 0, *range(2, 256)]))],
             ALL_WORDS_8),
            ([], "4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n"),
            ([], ODD_WEIGHT_9),
            (["--kappa", "0.95"], ALL_BUT_ONE_8),
        ],
        ids=["even6", "even6-reversed", "simplex3", "simplex2-assigned", "all256", "all256-flip",
             "nonlinear", "odd9", "all255"],
    )
    def test_written_files_agree(self, capsys, tmp_path, argv, code_text):
        # schedule.csv, read back and multiplied out, rebuilds unitary.txt:
        # bit for bit off the labels, within the reported residual on them
        if code_text is not None:
            path = tmp_path / "words.code"
            path.write_text(code_text)
            argv = ["--code", str(path)] + argv
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, ["synth", *argv, "--outdir", str(outdir)])
        assert code == 0
        report = json.loads(out)
        u = np.loadtxt(outdir / "unitary.txt")
        schedule = synth.schedule_from_csv((outdir / "schedule.csv").read_text(), len(u))
        product = synth.reconstruct_unitary(schedule)
        labels = report["target_outcomes"]
        off = np.setdiff1d(np.arange(len(u)), labels)
        assert np.array_equal(product[off].view(np.uint64), u[off].view(np.uint64))
        # the report rounds the residual to 12 significant digits
        assert report["reconstruction_residual"] <= 1e-12
        residual = np.abs(product[labels] - u[labels]).max()
        assert residual <= report["reconstruction_residual"] * (1 + 1e-11)
        assert len(schedule.rotations) == report["rotations"]
        assert schedule.flip_last == report["flip_last"]

    def test_several_block_lengths_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["synth", "--code", "nn12", "--n", "3,5", "--outdir", str(tmp_path)],
        )
        assert code == 2
        assert "error:" in err
        assert not (tmp_path / "report.json").exists()

    def test_full_overlap_exits_2(self, capsys, tmp_path):
        err = single_error(capsys, ["synth", "--kappa", "1", "--outdir", str(tmp_path)])
        assert "collapses" in err
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
        code, out, _ = run(capsys, ["optimize", "--kappa", "0.5", "--priors", "0.9,0.1"])
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        _, expected = helstrom_binary(0.5, 0.9)
        assert abs(float(values["final_error"]) - expected) < 1e-9
        assert values["is_optimal"] == "true"
        assert float(values["improvement"]) > 0.0

    @pytest.mark.parametrize("priors", ["0.9,0.1", "0.3,0.7"])
    def test_closed_form_under_the_same_priors(self, capsys, priors):
        # the closed form used to be printed for equal priors whatever
        # --priors said
        code, out, _ = run(capsys, ["optimize", "--priors", priors])
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert abs(float(values["closed_form_error"]) - float(values["final_error"])) < 1e-9

    @pytest.mark.parametrize("priors", ["1,0", "0,1", "0.9999999999999,1e-13"])
    def test_zero_or_tiny_prior(self, capsys, priors):
        # the prior-weighted letters are dependent, or nearly so, but the
        # letters are not: optimize used to refuse them
        code, out, _ = run(capsys, ["optimize", "--priors", priors])
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["is_optimal"] == "true"
        xi1 = float(priors.split(",")[0])
        assert float(values["closed_form_error"]) == pytest.approx(
            float(detection._helstrom_error(0.5, xi1)), rel=1e-11, abs=0.0
        )
        assert abs(float(values["final_error"]) - float(values["closed_form_error"])) < 1e-12

    def test_states_file_with_a_zero_prior(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        np.savetxt(path, np.eye(3))
        code, out, _ = run(capsys, ["optimize", "--states-file", str(path), "--priors", "1,0,0"])
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert (values["final_error"], values["is_optimal"]) == ("0", "true")

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

    def test_seeded_ensemble_pinned(self, capsys, tmp_path):
        # sweeps and final_error as printed before the rotation kernel was
        # rewritten; the pair order and the angle formula must not move them
        rng = np.random.default_rng(16)
        states = rng.standard_normal((16, 16))
        states /= np.linalg.norm(states, axis=1)[:, None]
        priors = rng.dirichlet(np.ones(16))
        path = tmp_path / "states.txt"
        np.savetxt(path, states, fmt="%.17g")
        code, out, _ = run(
            capsys,
            ["optimize", "--states-file", str(path),
             "--priors", ",".join(repr(float(p)) for p in priors)],
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["sweeps"] == "74"
        assert values["final_error"] == "0.211499317294"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_kappa_with_states_file_rejected(self, capsys, tmp_path, source):
        # kappa only picks the letter pair; with a states file it used to be
        # accepted and ignored
        path = tmp_path / "states.txt"
        np.savetxt(path, np.eye(2))
        argv = ["optimize", "--states-file", str(path)]
        if source == "flag":
            argv += ["--kappa", "0.9"]
        else:
            config = tmp_path / "opt.cfg"
            config.write_text("kappa=0.9\n")
            argv += ["--config", str(config)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "kappa" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-3"])
    def test_tol_outside_range_rejected(self, capsys, monkeypatch, tol):
        # an infinite or NaN tol would certify the unswept start, and a
        # negative one can never be met
        monkeypatch.setattr(detection, "bayes_sweeps", unreachable)
        err = single_error(capsys, ["optimize", f"--tol={tol}"])
        assert "tol" in err

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

    @pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"], ids=["empty", "blank", "comment"])
    def test_states_file_without_states(self, capsys, tmp_path, text):
        # numpy warned on stderr, and the CLI went on to refuse the norm of
        # an empty row
        path = tmp_path / "states.txt"
        path.write_text(text)
        err = single_error(capsys, ["optimize", "--states-file", str(path)])
        assert "holds no states" in err

    @pytest.mark.parametrize("line", ["kappa_min=abc", "steps=1.5"])
    def test_config_value(self, capsys, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        self.check_rejected(capsys, ["fig2", "--config", str(path)])

    @pytest.mark.parametrize(
        "argv", [["fig2", "--steps", "abc"], ["fig2", "--steps", "1.5"], ["fig2", "--format", "xml"]]
    )
    def test_flag_value(self, capsys, argv):
        # flag text takes the conversion config text takes
        self.check_rejected(capsys, argv)

    @pytest.mark.parametrize("argv", [["sweep", "--code"], ["synth", "--code"], ["fig2", "--config"]])
    def test_undecodable_file(self, capsys, tmp_path, monkeypatch, argv):
        # bytes that are no UTF-8 text, as a code file or a config file
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad"
        path.write_bytes(b"\xff\xfe\x00bad")
        self.check_rejected(capsys, argv + [str(path)])


class TestUnreadFlags:
    # each command used to accept flags it never read and ignore them
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
            ["fig3", "--steps", "5"],
            ["fig3", "--kappa-min", "0.1"],
            ["fig3", "--kappa-max", "0.9"],
            ["fig3", "--code", "simplex"],
            ["fig2", "--code", "simplex"],
            ["fig4", "--code", "simplex"],
            ["fig5", "--code", "simplex"],
            ["fig6", "--n", "3"],
            ["fig6", "--code", "simplex"],
            ["fig7", "--n", "3"],
            ["fig7", "--code", "simplex"],
            ["fig8", "--n", "3"],
            ["fig8", "--code", "simplex"],
            ["optimize", "--xi1", "0.9"],
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


class TestOneCommandParser:
    # main builds only the named command's parser; what the user sees must
    # be what the full parser prints
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["nope"],
            ["fig2", "--bogus"],
            ["fig3", "--help"],
            ["synth", "--out", "x"],
        ],
    )
    def test_help_and_errors_match_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        seen = capsys.readouterr(), exc.value.code
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert seen == (capsys.readouterr(), exc.value.code)

    @pytest.mark.parametrize("command", [c[0] for c in cli.COMMANDS])
    def test_command_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: supadd {command} ")

    def test_full_parser_lists_every_command(self):
        usage = cli.build_parser().format_usage()
        assert "{" + ",".join(c[0] for c in cli.COMMANDS) + "}" in usage

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["supadd", "fig3", "--n", "4,5"])
        assert run(capsys, None) == run(capsys, ["fig3", "--n", "4,5"])


class TestCodeFileLength:
    # a code file's --n used to be ignored
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n")
        return str(path)

    @pytest.mark.parametrize("n", ["7,9", "5", "4,4"])
    def test_sweep_length_mismatch(self, capsys, path, n):
        err = single_error(capsys, ["sweep", "--code", path, "--n", n, "--steps", "3"])
        assert "length 4" in err

    def test_synth_length_mismatch(self, capsys, tmp_path, path):
        single_error(capsys, ["synth", "--code", path, "--n", "5", "--outdir", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    def test_config_length_mismatch(self, capsys, tmp_path, path):
        config = tmp_path / "n.cfg"
        config.write_text("n=5\n")
        single_error(capsys, ["sweep", "--code", path, "--config", str(config), "--steps", "3"])

    def test_matching_length_changes_nothing(self, capsys, path):
        argv = ["sweep", "--code", path, "--steps", "3"]
        assert run(capsys, argv + ["--n", "4"]) == run(capsys, argv)


class TestPairBlock:
    """The block {00, 11} is the even-weight family's first member, so every
    command that takes the family's n takes 2, and none takes 1."""

    @pytest.mark.parametrize("command", ["fig2", "fig4", "fig5", "synth"])
    def test_every_command_takes_n_2(self, capsys, tmp_path, command):
        argv = [command, "--n", "2"]
        if command == "synth":
            argv += ["--outdir", str(tmp_path)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        if command == "synth":
            report = json.loads(out)
            assert (report["n"], report["codewords"]) == (2, 2)
            # the letter pair of overlap kappa**2 under its Helstrom
            # measurement; the report prints 12 significant digits
            expected = binary_flip_probability(0.5**2)
            assert report["collective_error"] == pytest.approx(expected, rel=1e-11)
            assert report["separate_error"] == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize(
        "argv",
        [["fig2"], ["fig3"], ["fig4"], ["fig5"], ["sweep"], ["sweep", "--code", "simplex"],
         ["synth"]],
        ids=["fig2", "fig3", "fig4", "fig5", "sweep", "sweep-simplex", "synth"],
    )
    def test_n_1_exits_2(self, capsys, tmp_path, argv):
        if argv[0] == "synth":
            argv = argv + ["--outdir", str(tmp_path)]
        single_error(capsys, argv + ["--n", "1"])


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
                row += [nn12_error_probability(n, k), -np.expm1(n * np.log1p(-p))]
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
                 -np.expm1(7 * np.log1p(-p))]
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
# one code file per route: a linear [6,3] code with equal priors (the group
# route) and a non-linear one with unequal priors (the Gram route)
CODE_FILES = {
    "linear": Code(n=6, codewords=messages(3) @ np.array(
        [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]]) % 2),
    "nonlinear": Code(
        n=5,
        codewords=np.array([[0, 0, 0, 1, 1], [0, 1, 0, 1, 0], [1, 1, 1, 0, 0],
                            [1, 0, 1, 1, 1], [0, 1, 1, 0, 1]]),
        priors=np.array([0.3, 0.2, 0.2, 0.15, 0.15]),
    ),
}


@functools.lru_cache(maxsize=None)
def oracle_table(command, grid_spec):
    grid = np.linspace(*grid_spec)
    return scalar_oracle(command, grid, tuple(DEFAULT_N[command]))


class TestColumnsMatchScalarLoops:
    """Each figure command and sweep, code files included, computes its
    columns over the whole grid at once; its output equals, byte for byte,
    the same table built one kappa at a time."""

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

    @pytest.mark.parametrize("grid_spec", [None, FINE], ids=["default", "fine"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", CODE_FILES)
    def test_code_file(self, capsys, tmp_path, name, fmt, grid_spec):
        code = CODE_FILES[name]
        path = tmp_path / "code.txt"
        path.write_text(code_to_text(code))
        argv = ["sweep", "--code", str(path), "--format", fmt]
        if grid_spec is None:
            grid_spec = (0.01, 0.99, 99)
        else:
            lo, hi, steps = grid_spec
            argv += ["--kappa-min", str(lo), "--kappa-max", str(hi), "--steps", str(steps)]
        rows = []
        for k in np.linspace(*grid_spec):
            per = code_information(code, k) / code.n
            rows.append([k, per, per - c1_binary(k)])
        self.check_table(capsys, argv, (["kappa", "i_per_letter", "gain"], rows), fmt)

    def check(self, capsys, command, argv, grid_spec, fmt):
        self.check_table(capsys, argv, oracle_table(command, grid_spec), fmt)

    def check_table(self, capsys, argv, table, fmt):
        _emit(*table, fmt, None)
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
            ["--code", "nonlinear.code", "--n", "4", "--assign", "6,1,4"],
        ],
    )
    def test_one_square_root_measurement_per_job(self, capsys, tmp_path, monkeypatch, argv):
        # a linear code with equal priors takes none, any other code one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nonlinear.code").write_text("4 3\n0011\n0101\n1110\n0.5\n0.25\n0.25\n")
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return square_root_measurement(*args, **kwargs)

        monkeypatch.setattr(synth, "square_root_measurement", counting)
        # the CLI no longer imports it: optimize takes its start error from
        # the optimizer
        assert not hasattr(cli, "square_root_measurement")
        code, out, _ = run(capsys, ["synth", *argv, "--kappa", "0.5", "--outdir", "out"])
        assert code == 0
        code_obj = cli._resolve_code(argv[1], (int(argv[3]),), True)
        assert len(calls) == (0 if linear_generators(code_obj) else 1)
        report = json.loads(out)
        # the report's error fields, with the collective error of a second,
        # dense measurement within 1e-12
        assignment = [int(x) for x in argv[5].split(",")] if "--assign" in argv else None
        syn = synth.synthesize_unitary(code_obj, 0.5, outcome_assignment=assignment)
        _, channel = square_root_measurement(gram(code_obj, 0.5))
        collective = 1.0 - float(np.sum(code_obj.priors * np.diag(channel)))
        assert report["separate_error"] == cli._jsonval(syn.error_probability)
        assert report["collective_error"] == cli._jsonval(syn.collective_error)
        assert report["error_mismatch"] == cli._jsonval(abs(syn.error_probability - syn.collective_error))
        assert abs(syn.collective_error - collective) <= 1e-12


def dense_synth_reference(code, kappa, labels):
    """The report fields and the unitary.txt lines a dense route gives,
    for any code: the measurement rows at the labels, an orthonormal
    completion of them in the other rows, and the Reck mesh of that
    matrix."""
    m, dim = code.num_codewords, 2**code.n
    states = codeword_states(code, kappa)
    meas = _polar_rows(states)
    _, channel = square_root_measurement(gram(code, kappa))
    u = np.empty((dim, dim))
    u[labels] = meas
    u[[y for y in range(dim) if y not in labels]] = np.linalg.qr(meas.T, mode="complete")[0][:, m:].T
    schedule = synth.reck_decompose(u)
    separate = separate_error(code.priors, states, meas)
    collective = collective_error(code.priors, channel)
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
        # the linear code takes its label rows and errors from the group
        # structure, within the dense route's round-off; the non-linear one
        # has the dense route's bytes
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
        assert report["target_outcomes"] == dense["target_outcomes"]
        assert report["rotations"] < dense["rotations"]
        assert report["reconstruction_residual"] <= 1e-12
        rows = (tmp_path / "out" / "unitary.txt").read_text().splitlines()
        rows = [rows[label] for label in labels]
        if kind == "nonlinear":
            for key in ("separate_error", "collective_error", "error_mismatch"):
                assert report[key] == dense[key]
            assert rows == [dense_rows[label] for label in labels]
            return
        for key in ("separate_error", "collective_error"):
            assert abs(report[key] - dense[key]) <= 1e-12
        assert report["error_mismatch"] <= 1e-12
        assert rows == [" ".join(f"{x:.17g}" for x in row) for row in group_vectors(code, 0.55)]
        dense_values = np.array([np.array(dense_rows[label].split(), dtype=float) for label in labels])
        tol = eigh_tolerance(gram(code, 0.55))
        assert np.abs(np.array([r.split() for r in rows], dtype=float) - dense_values).max() <= tol
