import argparse
import dataclasses
import hashlib
import inspect
import json
import sys

import numpy as np
import pytest

from totpos import (
    FitConfig,
    SymMatrix,
    active_set_oracle,
    cli,
    fit,
    fit_signed,
    graphs,
    grw_graph,
    jsonout,
    mwsf,
    solver,
    structure,
    ultra,
    w_matrix,
)
from totpos.solver import ALGORITHMS
from totpos.cli import (
    MatrixParseError,
    _config_from_args,
    build_parser,
    cmd_selftest,
    main,
    parse_matrix_text,
    read_matrix_csv,
    write_matrix_csv,
)
from conftest import (
    CARCASS_LABELS,
    CARCASS_ML_EDGES,
    CARCASS_R,
    UNBALANCED_R,
    random_correlation,
    random_pd,
)


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

    def test_quoted_header(self):
        # as R's write.csv writes it
        m = parse_matrix_text('"a","b"\n1,0.5\n0.5,1\n')
        assert m.labels == ("a", "b")

    def test_quoted_label_holds_a_comma(self):
        m = parse_matrix_text('"x,y","z"\n1,0.5\n0.5,1\n')
        assert m.labels == ("x,y", "z")
        assert m.values[0, 1] == 0.5

    def test_quoted_and_plain_spellings_agree(self):
        plain = parse_matrix_text("a, b,c\n1,0.5, 0.25\n0.5,1,0.1,\n0.25 ,0.1,1\n")
        quoted = parse_matrix_text(
            '"a", "b","c"\n"1","0.5", "0.25"\n"0.5",1,"0.1",\n" 0.25 ",0.1,"1"\n')
        assert plain.labels == quoted.labels == ("a", "b", "c")
        assert np.array_equal(plain.values, quoted.values)
        assert plain.values[2, 0] == 0.25

    def test_trailing_empty_cells_dropped(self):
        m = parse_matrix_text("a, b,\n1, 0.5,\n0.5, 1,,\n")
        assert m.labels == ("a", "b")
        assert m.values[1, 0] == 0.5

    def test_tiny_asymmetry_silently_averaged(self):
        m = parse_matrix_text("1,0.5\n0.5000000000001,1\n")
        assert m.values[0, 1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("text, message", [
        ("1,inf,oops\n1,1,1\n1,1,1\n", "line 1, column 2: non-finite entry 'inf'"),
        ("1,oops,inf\n1,1,1\n1,1,1\n", "line 1, column 2: invalid number 'oops'"),
        ("1,1,nan\n1,1,oops\n1,1,1\n", "line 1, column 3: non-finite entry 'nan'"),
        ("1,1,1\n1,1,oops\n1,inf,1\n", "line 2, column 3: invalid number 'oops'"),
    ])
    def test_first_bad_cell_in_reading_order(self, text, message):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text(text, header_row=False)
        assert str(err.value) == message


class TestRowByRowParsing:
    """Rows are converted as they are read; the errors and their order stay
    those of a parse that first collects every row."""

    @pytest.mark.parametrize("text, message", [
        ("1,oops\n0.5,1\n0.5,1\n",
         "line 3: expected a square matrix: 2 columns but 3 data rows"),
        ("1,oops,1\n1,1,1\n",
         "line 2: expected a square matrix: 3 columns but 2 data rows"),
        ("1,1,1\n1,oops,1\n1,1\n", "line 2, column 2: invalid number 'oops'"),
        ("1,1,1\n1,1\n1,oops,1\n", "line 2: expected 3 entries, found 2"),
        ("1,1,1\n1,1,1,1\n1,inf,1\n", "line 2: expected 3 entries, found 4"),
    ], ids=["bad-cell-non-square", "bad-cell-too-few-rows", "cell-before-ragged",
            "ragged-before-cell", "long-row-before-cell"])
    def test_error_precedence(self, text, message):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text(text, header_row=False)
        assert str(err.value) == message

    @pytest.mark.parametrize("cell, message", [
        ("oops", "invalid number 'oops'"), (" -inf ", "non-finite entry '-inf'"),
    ])
    def test_bad_cell_in_last_row_of_a_large_input(self, cell, message):
        values = random_correlation(np.random.default_rng(16), 200, n=400).values
        lines = ["# p = 200", ",".join(f"v{j}" for j in range(200))]
        lines += [",".join(map(repr, row.tolist())) for row in values]
        cells = lines[-1].split(",")
        cells[137] = cell
        lines[-1] = ",".join(cells)
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("\n".join(lines) + "\n")
        assert (err.value.line, err.value.column) == (202, 138)
        assert str(err.value) == f"line 202, column 138: {message}"

    def test_blanks_float_rejects_are_stripped(self):
        # U+001F is whitespace to str.strip but not to float
        m = parse_matrix_text("\x1fa,b\n1,\x1f0.5\n0.5\x1f, 1\n")
        assert m.labels == ("a", "b")
        assert m.values[0, 1] == m.values[1, 0] == 0.5
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("1,0.5\n0.5,\x1fnan\n")
        assert str(err.value) == "line 2, column 2: non-finite entry 'nan'"


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

    def test_label_with_a_comma(self, tmp_path):
        m = SymMatrix(np.eye(2), labels=("x,y", "z"))
        path = tmp_path / "m.csv"
        write_matrix_csv(m, str(path))
        assert path.read_text().splitlines()[0] == '"x,y",z'
        assert read_matrix_csv(str(path)).labels == m.labels

    def test_cells_written_as_repr(self, tmp_path):
        # enough entries for the formatting to run once per distinct value;
        # 0.0 and -0.0 compare equal but are written apart
        values = random_pd(np.random.default_rng(81), 12).values.copy()
        values[0, 1] = values[1, 0] = -0.0
        values[0, 2] = values[2, 0] = 0.0
        path = tmp_path / "m.csv"
        write_matrix_csv(SymMatrix(values), str(path))
        expected = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in values)
        assert path.read_text() == expected


class TestByteOrderMark:
    """Files saved as "CSV UTF-8" start with a byte-order mark."""

    def test_numeric_file(self, tmp_path, capsys):
        raw = "\ufeff1,0.5\n0.5,1\n".encode("utf-8")
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        m = read_matrix_csv(str(path))
        assert m.labels is None
        assert m.values[0, 1] == 0.5
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"]["sha256"] == hashlib.sha256(raw).hexdigest()

    def test_header_file(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffa,b\n1,0.5\n0.5,1\n".encode("utf-8"))
        assert read_matrix_csv(str(path)).labels == ("a", "b")

    def test_header_file_read_once(self, tmp_path, capsys, monkeypatch):
        raw = "\ufeffa,b\r\n1,0.5\r\n0.5,1\r\n".encode("utf-8")
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert main(["analyze", str(path)]) == 0
        assert opened.count(str(path)) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"]["labels"] == ["a", "b"]
        assert doc["input"]["sha256"] == hashlib.sha256(raw).hexdigest()


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

    def test_grw_mismatch_is_reported(self, tmp_path, capsys):
        # a four-cycle precision: every pair attains its best path product,
        # but the fitted graph is the cycle
        k = np.array([[2.0, -0.5, 0.0, -0.5], [-0.5, 2.0, -0.5, 0.0],
                      [0.0, -0.5, 2.0, -0.5], [-0.5, 0.0, -0.5, 2.0]])
        path = tmp_path / "cycle.csv"
        np.savetxt(path, np.linalg.inv(k), fmt="%.17g", delimiter=",")
        assert main(["fit", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["graphs"]["grw"]) == 6
        assert {(i, j) for i, j, _ in doc["ml_graph"]} == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert doc["grw_matches_ml_graph"] is False

    def test_identity_input(self, tmp_path, capsys):
        path = tmp_path / "eye.csv"
        path.write_text("1,0\n0,1\n")
        code = main(["fit", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["sigma_hat"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_indefinite_pinned_sigma_exits_three(self, tmp_path, capsys):
        # Two nearly collinear variables at n = 2: the precision sweep stops
        # with variances off by about 1e-7, and pinning them leaves the fitted
        # covariance indefinite, so there is no precision to certify.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 6))
        x[:, 4] = x[:, 1] * (1 + 1e-4 * rng.standard_normal(2))
        path = tmp_path / "collinear.csv"
        np.savetxt(path, x.T @ x / 2, fmt="%.17g", delimiter=",")
        assert main(["fit", str(path), "--algorithm", "k"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["certificate"]["passed"] is False
        assert doc["certificate"]["primal_max"] == float("inf")
        assert doc["duality_gap"] == float("inf")

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

    @pytest.mark.parametrize("command", ["fit", "analyze", "signed"])
    def test_non_utf8_file_exits_one(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,0.5\n0.5,1\xff\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "0xff" in err
        assert "Traceback" not in err

    def test_duplicate_labels_exit_one(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,0.5\n0.5,1\n")
        assert main(["fit", str(path)]) == 1
        assert "parse error: line 1: header labels must be unique" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["fit", "/nonexistent/file.csv"]) == 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_sweep_budget_exits_three(self, tmp_path, capsys, algorithm):
        # the carcass fit converges in one sweep from W, so a seeded input
        # that needs more is used
        path = str(tmp_path / "r.csv")
        write_matrix_csv(random_correlation(np.random.default_rng(40), 6), path)
        full = ["fit", path, "--algorithm", algorithm]
        assert main([*full, "--output", str(tmp_path / "full.json")]) == 0
        assert json.loads((tmp_path / "full.json").read_text())["sweeps"] > 1
        code = main([*full, "--max-sweeps", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["converged"] is False

    def test_two_observation_sigma_fit_converges(self, tmp_path):
        # p = 6, n = 2: the covariance sweep starts at W, which is the
        # optimum here, and agrees with the precision sweep
        path = str(tmp_path / "r.csv")
        write_matrix_csv(random_correlation(np.random.default_rng(60), 6, n=2), path)
        sigma = {}
        for alg in ("sigma", "k"):
            out = tmp_path / f"{alg}.json"
            assert main(["fit", path, "--algorithm", alg, "--output", str(out)]) == 0
            sigma[alg] = np.array(json.loads(out.read_text())["sigma_hat"])
        assert np.abs(sigma["sigma"] - sigma["k"]).max() <= 1e-9

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

    @pytest.mark.parametrize("rows, k_hat, edges", [
        ([[1.0, -0.2, -0.3], [-0.2, 1.0, -0.1], [-0.3, -0.1, 1.0]], np.eye(3), []),
        ([[4.0]], [[0.25]], []),
        ([[1.0, -0.5], [-0.5, 1.0]], np.eye(2), []),
        ([[1.0, 0.5], [0.5, 1.0]], np.linalg.inv([[1.0, 0.5], [0.5, 1.0]]), [[0, 1]]),
    ], ids=["all-negative", "p1", "p2-negative", "p2-positive"])
    def test_precision_sweep_edge_inputs(self, tmp_path, capsys, rows, k_hat, edges):
        # all-negative and p = 2 negative inputs have an empty upper bound
        # G+, so the precision sweep visits no pair and returns the identity
        path = tmp_path / "in.csv"
        np.savetxt(path, np.array(rows), fmt="%.17g", delimiter=",")
        assert main(["fit", str(path), "--algorithm", "k"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["certificate"]["passed"] is True
        assert np.abs(np.array(doc["k_hat"]) - k_hat).max() <= 1e-12
        assert [e[:2] for e in doc["ml_graph"]] == edges


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

    def test_dot_escapes_quoted_header(self, tmp_path, capsys):
        # doubled quotes inside a quoted cell are literal quotes in the labels
        path = tmp_path / "r.csv"
        path.write_text('"""a""","""b"""\n1,0.5\n0.5,1\n')
        dot = tmp_path / "g.dot"
        assert main(["analyze", str(path), "--dot", str(dot)]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["labels"] == ['"a"', '"b"']
        text = dot.read_text()
        assert '  "\\"a\\"";\n' in text
        assert '  "\\"a\\"" -- "\\"b\\"" [weight="0.500000", color=red, penwidth=2.5];' in text


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

    def _switched(self, doc, r):
        signs = np.array(doc["signs"], dtype=float)
        return SymMatrix(r.values * np.outer(signs, signs))

    def test_two_observations_exit_zero(self, tmp_path):
        # p = 6, n = 2 under the default budget: every fit of the exhaustive
        # search converges; the oracle stops at p = 5, so the reference is
        # the precision sweep on the switched matrix
        r = random_correlation(np.random.default_rng(60), 6, n=2)
        path, out = str(tmp_path / "r.csv"), tmp_path / "o.json"
        write_matrix_csv(r, path)
        assert main(["signed", path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "exhaustive_exact"
        ref = fit(self._switched(doc, r), FitConfig(algorithm="k"))
        assert np.abs(np.array(doc["sigma_hat"]) - ref.sigma_hat.values).max() <= 1e-6

    def _matches_oracle_at_two_observations(self, tmp_path, p, seed):
        r = random_correlation(np.random.default_rng(seed), p, n=2)
        path, out = str(tmp_path / "r.csv"), tmp_path / "o.json"
        write_matrix_csv(r, path)
        assert main(["signed", path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "exhaustive_exact"
        ref = active_set_oracle(self._switched(doc, r))
        assert np.abs(np.array(doc["sigma_hat"]) - ref.sigma.values).max() <= 1e-6

    def test_two_observations_match_oracle(self, tmp_path):
        # p = 4, n = 2: the oracle answers in tens of milliseconds
        self._matches_oracle_at_two_observations(tmp_path, 4, 70)

    def test_two_observations_match_oracle_at_five(self, tmp_path):
        # p = 5, n = 2: 636 of the 1024 candidate sets have a singular clique
        # block, so the oracle runs Newton on few of them and answers in
        # under a second
        self._matches_oracle_at_two_observations(tmp_path, 5, 51)

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

    def test_sweep_budget_is_a_mismatch(self, monkeypatch):
        real_fit = cli.fit

        def fit_one_sweep(s, cfg):
            return real_fit(s, dataclasses.replace(cfg, max_sweeps=1))

        monkeypatch.setattr(cli, "fit", fit_one_sweep)
        lines = []
        assert cmd_selftest(3, [4], seed=123, out=lines.append) == 1
        assert len(lines) == 4
        assert all("no convergence" in line and "MISMATCH" in line for line in lines[:3])
        assert "0/3" in lines[-1]

    def test_cli_entry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOTPOS_SEED", "5")
        assert main(["selftest", "--trials", "3", "--dims", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "seed 5" in out

    @pytest.mark.parametrize("seed", ["abc", "-5"])
    def test_bad_seed_is_a_usage_error(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("TOTPOS_SEED", seed)
        assert main(["selftest", "--trials", "1", "--dims", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: TOTPOS_SEED is not a nonnegative integer: {seed!r}\n"


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
        ["signed", "IN", "--exhaustive-limit", "-1"],
        ["analyze", "IN", "--grw-tol", "-1"],
        ["selftest", "--dims", "0"],
        ["selftest", "--dims", "9"],
        ["selftest", "--trials", "0"],
    ], ids=["max-sweeps", "tol", "edge-threshold", "exhaustive-limit", "grw-tol", "dims-0",
            "dims-9", "trials"])
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys, argv):
        path = _write_carcass(tmp_path / "carcass.csv")
        with pytest.raises(SystemExit) as exc:
            main([path if a == "IN" else a for a in argv])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--output"), ("fit", "--dot"), ("fit", "--sigma-csv"),
        ("analyze", "--output"), ("analyze", "--dot"),
        ("signed", "--output"), ("signed", "--dot"), ("signed", "--sigma-csv"),
    ])
    def test_output_in_missing_directory_exits_one(self, tmp_path, capsys, command, flag):
        path = _write_carcass(tmp_path / "carcass.csv")
        missing = str(tmp_path / "missing" / "out")
        argv = [command, path, flag, missing]
        doc = tmp_path / "o.json"
        if flag != "--output":
            argv += ["--output", str(doc)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err and err.count("\n") == 1
        # the document is written before the DOT and CSV files
        assert doc.exists() == (flag != "--output")

    def test_zero_exhaustive_limit_is_valid(self, tmp_path, capsys):
        # with no exhaustive search allowed, an unbalanced input gets the
        # spanning-forest heuristic
        path = tmp_path / "r.csv"
        np.savetxt(path, UNBALANCED_R, fmt="%.17g", delimiter=",")
        with pytest.warns(RuntimeWarning, match="exhaustive search limit"):
            assert main(["signed", str(path), "--exhaustive-limit", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "heuristic"


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


class TestDefaults:
    """The command line takes its defaults from the library."""

    @staticmethod
    def _default(fn, name):
        return inspect.signature(fn).parameters[name].default

    def test_fit_flags_give_default_config(self, tmp_path):
        path = _write_carcass(tmp_path / "c.csv")
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("fit", "signed"):
            args = parser.parse_args([command, path])
            assert _config_from_args(args) == FitConfig()
            options = commands.choices[command]._option_string_actions
            assert tuple(options["--algorithm"].choices) == ALGORITHMS

    def test_grw_tol_and_exhaustive_limit(self, tmp_path):
        path = _write_carcass(tmp_path / "c.csv")
        grw_tol = self._default(grw_graph, "tol")
        limit = self._default(fit_signed, "exhaustive_limit")
        for command in ("fit", "analyze", "signed"):
            assert build_parser().parse_args([command, path]).grw_tol == grw_tol
        assert build_parser().parse_args(["signed", path]).exhaustive_limit == limit
        for cmd in (cli.cmd_fit, cli.cmd_analyze, cli.cmd_signed):
            assert self._default(cmd, "grw_tol") == grw_tol
        assert self._default(cli.cmd_signed, "exhaustive_limit") == limit


class TestParserOnce:
    """``main`` builds its parser once per process, and a parser that has
    parsed earlier commands gives what a fresh one gives."""

    def _session(self, tmp_path, capsys, tag):
        path = _write_carcass(tmp_path / "c.csv")
        runs = [
            ["fit", path, "--algorithm", "k", "--max-sweeps", "50"],
            ["analyze", path, "--grw-tol", "1e-6"],
            ["signed", path, "--exhaustive-limit", "6", "--tol", "1e-9"],
            ["fit", path],
            ["fit", path, "--algorithm", "nope"],
            ["signed", path, "--help"],
            ["analyze", str(tmp_path / "missing.csv")],
            ["selftest", "--trials", "1", "--dims", "3"],
            ["--help"],
        ]
        out = []
        for i, argv in enumerate(runs):
            doc = tmp_path / f"{tag}{i}.json"
            wants_doc = argv[0] in ("fit", "analyze", "signed") and "--help" not in argv
            try:
                code = main(argv + (["--output", str(doc)] if wants_doc else []))
            except SystemExit as exc:
                code = f"exit {exc.code}"
            text = doc.read_text() if doc.exists() else None
            if text is not None:
                text = "\n".join(l for l in text.splitlines() if '"generated_at"' not in l)
            captured = capsys.readouterr()
            out.append((code, text, captured.out, captured.err))
        return out

    def test_back_to_back_commands_match_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        cli._parser.cache_clear()
        shared = self._session(tmp_path, capsys, "a")
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = self._session(tmp_path, capsys, "b")
        assert shared == fresh
        codes = [code for code, *_ in shared]
        assert codes == [0, 0, 0, 0, "exit 2", "exit 0", 1, 0, "exit 0"]
        assert "--exhaustive-limit" in shared[5][2]
        assert "invalid choice" in shared[4][3]


class TestClosureOnce:
    """A command builds the max-product closure W once, inside its fit
    when it fits, and the spanning forest of its matrix once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = ultra.w_matrix

        def counting(r):
            calls.append(r)
            return real(r)

        for module in (ultra, solver, cli):
            monkeypatch.setattr(module, "w_matrix", counting)
        return calls

    @pytest.mark.parametrize("argv", [
        *(["fit", "--algorithm", a] for a in ALGORITHMS), ["signed"],
    ], ids=[*(f"fit-{a}" for a in ALGORITHMS), "signed"])
    def test_one_closure_per_command(self, tmp_path, capsys, calls, argv):
        # a tridiagonal M-matrix precision: every covariance is positive,
        # so the signed input is balanced and takes one fit
        k = 2.0 * np.eye(5) - 0.8 * (np.eye(5, k=1) + np.eye(5, k=-1))
        path = str(tmp_path / "r.csv")
        write_matrix_csv(SymMatrix(np.linalg.inv(k)), path)
        assert main([argv[0], path, *argv[1:]]) == 0
        if argv[0] == "signed":
            assert json.loads(capsys.readouterr().out)["method"] == "balanced_exact"
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, forests", [
        *((["fit", "--algorithm", a], 1) for a in ALGORITHMS), (["analyze"], 1), (["signed"], 2),
    ], ids=[*(f"fit-{a}" for a in ALGORITHMS), "analyze", "signed"])
    def test_one_closure_and_forest_per_command(self, tmp_path, capsys, monkeypatch, argv, forests):
        """Counted at the kernels, in every module that holds them: one
        ``max_product_closure`` and one ``mwsf`` per command, DOT and CSV
        outputs included; a balanced signed input adds the forest of |R|
        that chooses the signs."""
        counts = {}
        for real in (ultra.max_product_closure, graphs.mwsf):
            counts[real.__name__] = 0

            def counting(*args, _real=real):
                counts[_real.__name__] += 1
                return _real(*args)

            for module in [m for n, m in sys.modules.items() if n.partition(".")[0] == "totpos"]:
                for name, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, name, counting)
        k = 2.0 * np.eye(5) - 0.8 * (np.eye(5, k=1) + np.eye(5, k=-1))
        path = str(tmp_path / "r.csv")
        write_matrix_csv(SymMatrix(np.linalg.inv(k)), path)
        outputs = ["--output", str(tmp_path / "o.json"), "--dot", str(tmp_path / "g.dot")]
        if argv[0] != "analyze":
            outputs += ["--sigma-csv", str(tmp_path / "s.csv")]
        assert main([argv[0], path, *argv[1:], *outputs]) == 0
        if argv[0] == "signed":
            assert json.loads((tmp_path / "o.json").read_text())["method"] == "balanced_exact"
        assert counts == {"max_product_closure": 1, "mwsf": forests}

    def test_fit_carries_its_closure(self):
        r = random_correlation(np.random.default_rng(40), 6)
        for algorithm in ALGORITHMS:
            w = fit(r, FitConfig(algorithm=algorithm)).w
            assert np.array_equal(w.values, w_matrix(r).values)


class TestDerivedGraphsUnchecked:
    def test_analyze_checks_no_edges(self, tmp_path, monkeypatch):
        """Graphs built from masks, the spanning forest and the DOT union
        skip ``_check_edges``: at p = 200 no edge reaches it, and the forest
        builds no edge tuples."""
        checked = []
        real = graphs._check_edges

        def spy(dim, edges):
            checked.append(tuple(edges))
            return real(dim, edges)

        monkeypatch.setattr(graphs, "_check_edges", spy)
        r = random_correlation(np.random.default_rng(60), 200)
        path, dot = str(tmp_path / "r.csv"), str(tmp_path / "g.dot")
        write_matrix_csv(r, path)
        assert main(["analyze", path, "--output", str(tmp_path / "o.json"), "--dot", dot]) == 0
        forest = mwsf(read_matrix_csv(path))
        assert checked == []
        assert "edges" not in forest.__dict__ and len(forest.weights) == 199


def _collinear_covariance() -> np.ndarray:
    """The input of ``test_indefinite_pinned_sigma_exits_three``."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 6))
    x[:, 4] = x[:, 1] * (1 + 1e-4 * rng.standard_normal(2))
    return x.T @ x / 2


def _synthetic_document() -> dict:
    """Every kind of value a JSON document can hold, in blocks long enough
    for the text of each distinct float to be formatted once."""
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16,
               -1e-7, 0.1, 1.0, -2.5, 123456789.0]
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(80).tolist() + special * 6
    matrix = [[special[(i + j) % len(special)] for j in range(12)] for i in range(12)]
    return {
        "floats": floats,
        "special": special,
        "matrix": matrix,
        "matrix_again": [row[::-1] for row in matrix],
        "edges": [[i, i + 1, x] for i, x in enumerate(floats)],
        "tuple_rows": ((1, 2, 0.5), (3, 4, 0.25)),
        "int_matrix": [[i * j - 40 for j in range(9)] for i in range(9)],
        "ints_beside_floats": [1, 1.0, 2, -0.0, 10**20, 2.0**70, True, None, "x"],
        "mixed_rows": [[1, "a", None], [2.0, True, float("nan")], [3, "b", -0.0]],
        "ragged": [[1.0, 2.0], [3.0], [], [4.0, 5.0, 6.0]],
        "nested": [[[1.0, 2.0]], [[3.0]], []],
        "empty": {"list": [], "dict": {}, "tuple": ()},
        "Ünïcødé ключ": {"labels": ["α", 'β "q"', "tab\t", " ", "\\"], "✓": "värde"},
        "bools": [True, False],
        "nones": [None, None],
        "scalars": [None, True, False, 0, -1, 0.5, "s"],
        "numeric_keys": {10: "b", 2.5: "c", True: "d", -1: "e", float("inf"): "f"},
        "null_key": {None: 0},
        "float_subclass": [np.float64(0.1), np.float64(-0.0), np.float64("nan")],
    }


def _stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=jsonout.plain)


def _assert_writes_json_dumps(doc, tmp_path):
    out = tmp_path / "doc.json"
    cli._emit(doc, str(out))
    assert out.read_bytes() == (_stdlib_text(doc) + "\n").encode()


def _array_document() -> dict:
    """Arrays and graphs of every shape the writer lays out, with the
    floats the writer must keep apart."""
    special = np.array([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 0.1])
    rng = np.random.default_rng(7)
    square = rng.standard_normal((12, 12))
    square[::3, ::4] = -0.0
    square[1::3, ::5] = 0.0
    square[2, :7] = special
    rows, cols = np.triu_indices(12, 1)
    return {
        "vector": rng.standard_normal(150),
        "short_vector": special,
        "one": np.array([0.5]),
        "one_by_one": np.array([[-0.0]]),
        "square": square,
        "transposed": square.T,
        "strided": square[::2, 1::3],
        "wide": rng.standard_normal((3, 40)),
        "empty": np.empty(0),
        "no_rows": np.empty((0, 4)),
        "no_columns": np.empty((3, 0)),
        "in_a_list": [np.array([1.0, -0.0]), special[:2], {"nested": square[:2, :2]}],
        # every pair of the square's upper triangle: -0.0, 0.0 and 5e-324 among the weights
        "graph": graphs.WeightedGraph.from_mask(np.ones((12, 12), dtype=bool), square),
        "small_graph": graphs.WeightedGraph(3, ((0, 2, float("nan")), (1, 2, -0.0))),
        "no_edges": graphs.WeightedGraph(5, ()),
        "weights_again": square[rows, cols][::-1].copy(),
    }


class TestDocumentText:
    """``_emit`` writes exactly ``json.dumps(doc, indent=2, sort_keys=True,
    default=jsonout.plain)`` and a newline: arrays and graphs as their
    plain lists."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fit_document(self, tmp_path, algorithm):
        path = _write_carcass(tmp_path / "carcass.csv")
        doc, code, _ = cli.cmd_fit(path, FitConfig(algorithm=algorithm))
        assert code == 0
        _assert_writes_json_dumps(doc, tmp_path)

    def test_exhaustive_signed_document(self, tmp_path):
        path = tmp_path / "r.csv"
        write_matrix_csv(SymMatrix(UNBALANCED_R), str(path))
        doc, code, _ = cli.cmd_signed(str(path), FitConfig())
        assert code == 0 and len(doc["switched_likelihoods"]) == 8
        _assert_writes_json_dumps(doc, tmp_path)

    def test_analyze_documents(self, tmp_path):
        path = _write_carcass(tmp_path / "carcass.csv")
        doc, _, _ = cli.cmd_analyze(path)
        assert doc["closed_form"]["applicable"] is True
        _assert_writes_json_dumps(doc, tmp_path)
        path = str(tmp_path / "r.csv")
        write_matrix_csv(random_correlation(np.random.default_rng(14), 12), path)
        doc, _, _ = cli.cmd_analyze(path)
        assert doc["closed_form"]["applicable"] is False
        _assert_writes_json_dumps(doc, tmp_path)

    def test_large_analyze_document(self, tmp_path):
        path = str(tmp_path / "r.csv")
        write_matrix_csv(random_correlation(np.random.default_rng(15), 200, n=400), path)
        doc, _, (closures, _, _) = cli.cmd_analyze(path)
        assert len(doc["graphs"]["ec"].weights) > 1000
        _assert_writes_json_dumps(doc, tmp_path)
        # the writer reads the arrays: no graph built its edge tuples and no
        # matrix went through a list of rows
        for graph in (closures.forest, closures.envelope, closures.equality):
            assert "edges" not in graph.__dict__
        # the document holds the graphs themselves
        assert doc["graphs"]["mwsf"] is closures.forest
        assert doc["graphs"]["ec"] is closures.envelope
        assert doc["graphs"]["grw"] is closures.equality
        for key in ("scale", "z_matrix", "w_matrix"):
            assert isinstance(doc[key], np.ndarray)
        assert not isinstance(doc["closed_form"]["sigma"], list)

    def test_emit_writes_array_sized_chunks(self, tmp_path, monkeypatch):
        path = str(tmp_path / "r.csv")
        write_matrix_csv(random_correlation(np.random.default_rng(15), 200, n=400), path)
        doc, _, (closures, middle, _) = cli.cmd_analyze(path)
        expected = _stdlib_text(doc) + "\n"
        # the longest array text, with its indentation and a key before it
        longest = max(
            *(len(_stdlib_text({key: doc[key]})) for key in ("z_matrix", "w_matrix")),
            *(len(_stdlib_text({"graphs": {k: t}})) for k, t in doc["graphs"].items()),
        )

        def no_joined_text(doc):
            raise AssertionError("the document text is joined")

        class Capture:
            def __init__(self):
                self.pieces = []

            def write(self, text):
                self.pieces.append(text)

            def writelines(self, lines):
                for text in lines:
                    self.write(text)

        monkeypatch.setattr(jsonout, "dumps", no_joined_text)
        stdout = Capture()
        monkeypatch.setattr("sys.stdout", stdout)
        cli._emit(doc, None)
        assert "".join(stdout.pieces) == expected
        assert max(map(len, stdout.pieces)) <= longest < len(expected) / 3
        # a graph is one piece, not one per edge
        assert len(stdout.pieces) < len(doc["graphs"]["ec"].weights)

        dot = tmp_path / "g.dot"
        cli._write_dot(str(dot), closures, middle)
        text = structure.tiered_dot(
            closures.forest, middle, closures.envelope, labels=closures.r.labels
        )
        assert dot.read_bytes() == text.encode()

    def test_exit_three_document(self, tmp_path):
        path = tmp_path / "collinear.csv"
        np.savetxt(path, _collinear_covariance(), fmt="%.17g", delimiter=",")
        doc, code, _ = cli.cmd_fit(str(path), FitConfig(algorithm="k"))
        assert code == 3 and doc["duality_gap"] == float("inf")
        _assert_writes_json_dumps(doc, tmp_path)

    def test_synthetic_document(self, tmp_path):
        _assert_writes_json_dumps(_synthetic_document(), tmp_path)

    @pytest.mark.parametrize("doc", [[], {}, "s", None, 1.5, float("nan"), [[]], [[1.0]]])
    def test_small_documents(self, tmp_path, doc):
        _assert_writes_json_dumps(doc, tmp_path)

    def test_standard_output(self, capsys):
        doc = _synthetic_document()
        cli._emit(doc, None)
        assert capsys.readouterr().out == _stdlib_text(doc) + "\n"

    def test_array_document(self, tmp_path):
        doc = _array_document()
        assert not doc["transposed"].flags.c_contiguous
        assert not doc["graph"].rows.flags.writeable
        _assert_writes_json_dumps(doc, tmp_path)

    @pytest.mark.parametrize("doc", [
        np.zeros(3), np.ones((2, 2)), np.array([[float("nan")]]), np.empty(0),
        graphs.WeightedGraph(2, ((0, 1, -0.0),)),
    ])
    def test_array_as_document(self, tmp_path, doc):
        _assert_writes_json_dumps(doc, tmp_path)

    @pytest.mark.parametrize("doc", [
        {"x": object()}, [np.int64(1)], {(1, 2): 3}, {"ints": np.arange(3)},
        {"float32": np.ones(2, dtype=np.float32)}, {"cube": np.zeros((2, 2, 2))},
        {"zero_dim": np.array(1.0)},
    ])
    def test_unserializable_values_raise(self, tmp_path, doc):
        with pytest.raises(TypeError):
            _stdlib_text(doc)
        out = tmp_path / "doc.json"
        with pytest.raises(TypeError):
            cli._emit(doc, str(out))
        assert not out.exists()
