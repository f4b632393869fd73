import dataclasses
import json

import numpy as np
import pytest

from totpos import SymMatrix, cli
from totpos.cli import (
    MatrixParseError,
    cmd_selftest,
    main,
    parse_matrix_text,
    read_matrix_csv,
    write_matrix_csv,
)
from conftest import CARCASS_LABELS, CARCASS_ML_EDGES, CARCASS_R, UNBALANCED_R, random_pd


def _write_carcass(path):
    lines = [",".join(CARCASS_LABELS)]
    for row in CARCASS_R:
        lines.append(",".join(f"{x:.2f}" for x in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParsing:
    def test_header_autodetected(self):
        m = parse_matrix_text("a,b\n1,0.5\n0.5,1\n")
        assert m.labels == ("a", "b")
        assert m.values[0, 1] == 0.5

    def test_whitespace_delimited(self):
        m = parse_matrix_text("1 0.5\n0.5 1\n")
        assert m.labels is None
        assert m.values[0, 1] == 0.5

    def test_comments_and_blank_lines_skipped(self):
        m = parse_matrix_text("# a comment\n\n1,0.2\n0.2,1\n")
        assert m.dim == 2

    def test_invalid_number_reports_position(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("1,0.5\n0.5,oops\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_non_square_rejected(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("1,0.5\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("1,0.5\n0.5\n")
        assert err.value.line == 2

    def test_empty_input_rejected(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("\n\n")

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(MatrixParseError, match="diagonal"):
            parse_matrix_text("0,0.5\n0.5,1\n")

    def test_asymmetry_warns_and_averages(self):
        with pytest.warns(RuntimeWarning, match="symmetrizing"):
            m = parse_matrix_text("1,0.5\n0.3,1\n")
        assert m.values[0, 1] == pytest.approx(0.4)

    @pytest.mark.parametrize("text, line, column", [
        ("1,nan\nnan,1\n", 1, 2),
        ("nan,0.5\n0.5,1\n", 1, 1),
        ("1,0.5\n0.5,inf\n", 2, 2),
        ("1,-inf\n0.5,1\n", 1, 2),
    ], ids=["nan", "nan-diagonal", "inf-diagonal", "minus-inf"])
    def test_non_finite_entry_reports_position(self, text, line, column):
        with pytest.raises(MatrixParseError, match="non-finite") as err:
            parse_matrix_text(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_tiny_asymmetry_silently_averaged(self):
        m = parse_matrix_text("1,0.5\n0.5000000000001,1\n")
        assert m.values[0, 1] == pytest.approx(0.5, abs=1e-12)


class TestCsvRoundTrip:
    def test_seventeen_digit_fidelity(self, tmp_path):
        rng = np.random.default_rng(80)
        m = random_pd(rng, 5)
        m = SymMatrix(m.values, labels=("a", "b", "c", "d", "e"))
        path = tmp_path / "m.csv"
        write_matrix_csv(m, str(path))
        back = read_matrix_csv(str(path))
        assert np.array_equal(back.values, m.values)
        assert back.labels == m.labels


class TestFitCommand:
    def test_carcass_end_to_end(self, tmp_path, capsys):
        path = _write_carcass(tmp_path / "carcass.csv")
        code = main(["fit", path])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "mtp2"
        assert doc["certificate"]["passed"] is True
        assert {(i, j) for i, j, _ in doc["ml_graph"]} == CARCASS_ML_EDGES
        assert doc["input"]["labels"] == list(CARCASS_LABELS)
        assert len(doc["graphs"]["mwsf"]) == 5
        assert doc["grw_matches_ml_graph"] is True

    def test_identity_input(self, tmp_path, capsys):
        path = tmp_path / "eye.csv"
        path.write_text("1,0\n0,1\n")
        code = main(["fit", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["sigma_hat"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_rank_one_exits_two(self, tmp_path, capsys):
        path = tmp_path / "r1.csv"
        path.write_text("1,2\n2,4\n")
        assert main(["fit", str(path)]) == 2
        assert "no maximum likelihood estimate" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\nx,1\n")
        assert main(["fit", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1,nan\nnan,1\n", "inf,0.5\n0.5,1\n"],
                             ids=["nan", "inf-diagonal"])
    @pytest.mark.parametrize("command", ["fit", "analyze", "signed"])
    def test_non_finite_entry_exits_one(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_duplicate_labels_exit_one(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,0.5\n0.5,1\n")
        assert main(["fit", str(path)]) == 1
        assert "parse error: line 1: header labels must be unique" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["fit", "/nonexistent/file.csv"]) == 1

    def test_sweep_budget_exits_three(self, tmp_path, capsys):
        path = _write_carcass(tmp_path / "carcass.csv")
        code = main(["fit", path, "--max-sweeps", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["converged"] is False

    def test_deterministic_output(self, tmp_path):
        path = _write_carcass(tmp_path / "carcass.csv")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", path, "--output", str(out1)]) == 0
        assert main(["fit", path, "--output", str(out2)]) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_sigma_csv_roundtrip(self, tmp_path, capsys):
        path = _write_carcass(tmp_path / "carcass.csv")
        sigma_csv = tmp_path / "sigma.csv"
        assert main(["fit", path, "--sigma-csv", str(sigma_csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        back = read_matrix_csv(str(sigma_csv))
        assert np.array_equal(back.values, np.array(doc["sigma_hat"]))

    def test_dot_output_tiers(self, tmp_path, capsys):
        path = _write_carcass(tmp_path / "carcass.csv")
        dot = tmp_path / "g.dot"
        assert main(["fit", path, "--dot", str(dot)]) == 0
        capsys.readouterr()
        text = dot.read_text()
        assert "color=red" in text and "color=blue" in text and "color=gray" in text
        assert '"Fat11"' in text

    def test_algorithm_flag(self, tmp_path, capsys):
        path = _write_carcass(tmp_path / "carcass.csv")
        assert main(["fit", path, "--algorithm", "k"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["algorithm"] == "k"


class TestAnalyzeCommand:
    def test_linkage_golden_z(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("1,-0.5,0.5,0.6\n-0.5,1,0.4,-0.1\n0.5,0.4,1,0.2\n0.6,-0.1,0.2,1\n")
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["z_matrix"] == [
            [1.0, 0.4, 0.5, 0.6],
            [0.4, 1.0, 0.4, 0.4],
            [0.5, 0.4, 1.0, 0.5],
            [0.6, 0.4, 0.5, 1.0],
        ]
        assert doc["z_ultrametric"]["is_ultrametric"] is True

    def test_diagonal_input_identity_closures(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("1,-0.3\n-0.3,1\n")
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["z_matrix"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["w_matrix"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_carcass_closed_form(self, tmp_path, capsys):
        path = _write_carcass(tmp_path / "carcass.csv")
        assert main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"]["applicable"] is True
        assert doc["block_report"]["is_block_graph"] is True

    def test_grw_tol_reaches_closed_form(self, tmp_path, capsys):
        # a 4-cycle of 0.5 whose chords sit 1e-7 below their path product
        # 0.25: at --grw-tol 1e-6 the equality graph is complete
        c = 0.2499999
        path = tmp_path / "r.csv"
        path.write_text(f"1,0.5,{c},0.5\n0.5,1,0.5,{c}\n{c},0.5,1,0.5\n0.5,{c},0.5,1\n")
        assert main(["analyze", str(path), "--grw-tol", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["block_report"]["is_block_graph"] is True
        assert doc["block_report"]["blocks"] == [[0, 1, 2, 3]]
        assert doc["closed_form"]["applicable"] is False
        assert doc["closed_form"]["reason"] == "block [0, 1, 2, 3] is not an inverse M-matrix"


class TestSignedCommand:
    def test_unbalanced_example(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        lines = [",".join(repr(float(x)) for x in row) for row in UNBALANCED_R]
        path.write_text("\n".join(lines) + "\n")
        assert main(["signed", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signs"] == [1, 1, -1, 1]
        assert doc["method"] == "exhaustive_exact"
        assert doc["switched_likelihoods"]["++-+"] > doc["switched_likelihoods"]["++++"]

    def test_graphs_describe_switched_matrix(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        lines = [",".join(repr(float(x)) for x in row) for row in UNBALANCED_R]
        path.write_text("\n".join(lines) + "\n")
        dot = tmp_path / "g.dot"
        assert main(["signed", str(path), "--dot", str(dot)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signs"] == [1, 1, -1, 1]
        # the forest of |R| holds (0, 2) instead of (1, 2)
        assert doc["graphs"]["mwsf"] == [[0, 1, 0.3], [0, 3, 0.3], [1, 2, 0.1]]
        red = {
            line.split("[")[0].strip()
            for line in dot.read_text().splitlines()
            if "color=red" in line
        }
        assert red == {'"0" -- "1"', '"0" -- "3"', '"1" -- "2"'}

    def test_all_positive_is_balanced(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("1,0.5,0.4\n0.5,1,0.3\n0.4,0.3,1\n")
        assert main(["signed", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signs"] == [1, 1, 1]
        assert doc["method"] == "balanced_exact"

    def test_planted_signs_recovered(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((8, 6))
        s = x.T @ x / 8
        d = np.sqrt(np.diag(s))
        r = np.abs(s / np.outer(d, d))
        np.fill_diagonal(r, 1.0)
        signs = np.array([1, -1, 1, 1, -1, 1])
        switched = r * np.outer(signs, signs)
        path = tmp_path / "r.csv"
        lines = [",".join(repr(float(x)) for x in row) for row in switched]
        path.write_text("\n".join(lines) + "\n")
        assert main(["signed", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signs"] == signs.tolist() or doc["signs"] == (-signs).tolist()


class TestSelftest:
    def test_passes_with_fixed_seed(self):
        lines = []
        assert cmd_selftest(4, [2, 3], seed=123, out=lines.append) == 0
        assert len(lines) == 5
        assert "4/4" in lines[-1]

    def test_negative_gap_is_a_mismatch(self, monkeypatch):
        real_fit = cli.fit

        def fit_with_gap(s, cfg):
            return dataclasses.replace(real_fit(s, cfg), duality_gap=-1e-4)

        monkeypatch.setattr(cli, "fit", fit_with_gap)
        lines = []
        assert cmd_selftest(1, [2], seed=123, out=lines.append) == 1
        assert "MISMATCH" in lines[0]

    def test_cli_entry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOTPOS_SEED", "5")
        assert main(["selftest", "--trials", "3", "--dims", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "seed 5" in out


class TestErrorPropagation:
    def test_analyze_rejects_nonexistent_input(self, tmp_path, capsys):
        path = tmp_path / "r1.csv"
        path.write_text("1,2\n2,4\n")
        assert main(["analyze", str(path)]) == 2
        assert "no maximum likelihood estimate" in capsys.readouterr().err

    def test_signed_sweep_budget_exits_three(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        lines = [",".join(repr(float(x)) for x in row) for row in UNBALANCED_R]
        path.write_text("\n".join(lines) + "\n")
        assert main(["signed", str(path), "--max-sweeps", "1"]) == 3
        assert "no convergence" in capsys.readouterr().err

    def test_signed_sweep_budget_writes_document(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        lines = [",".join(repr(float(x)) for x in row) for row in UNBALANCED_R]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.json"
        assert main(["signed", str(path), "--max-sweeps", "1", "--output", str(out)]) == 3
        doc = json.loads(out.read_text())
        assert doc["converged"] is False
        assert doc["method"] == "exhaustive_exact"
        table = doc["switched_likelihoods"]
        assert len(table) == 8
        assert doc["log_likelihood"] == max(table.values())

    @pytest.mark.parametrize("argv", [
        ["fit", "IN", "--max-sweeps", "0"],
        ["fit", "IN", "--tol", "0"],
        ["signed", "IN", "--edge-threshold", "-1"],
        ["analyze", "IN", "--grw-tol", "-1"],
        ["selftest", "--dims", "0"],
        ["selftest", "--dims", "9"],
        ["selftest", "--trials", "0"],
    ], ids=["max-sweeps", "tol", "edge-threshold", "grw-tol", "dims-0", "dims-9", "trials"])
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys, argv):
        path = _write_carcass(tmp_path / "carcass.csv")
        with pytest.raises(SystemExit) as exc:
            main([path if a == "IN" else a for a in argv])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestMoreCliPaths:
    def test_explicit_header_flagging(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,0.5\n0.5,1\n")
        m = read_matrix_csv(str(path), header_row=True)
        assert m.labels == ("a", "b")
        path2 = tmp_path / "m2.csv"
        path2.write_text("1,0.5\n0.5,1\n")
        m2 = read_matrix_csv(str(path2), header_row=False)
        assert m2.labels is None

    def test_unlabeled_csv_roundtrip(self, tmp_path):
        m = SymMatrix(np.array([[1.0, 0.25], [0.25, 1.0]]))
        path = tmp_path / "m.csv"
        write_matrix_csv(m, str(path))
        back = read_matrix_csv(str(path))
        assert back.labels is None
        assert np.array_equal(back.values, m.values)
