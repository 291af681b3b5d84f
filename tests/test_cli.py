"""End-to-end tests for the command line interface and CSV round trips."""

import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from npn import cli, estimators
from npn.cli import load_csv, main, save_csv
from npn.errors import EmptyFile, NonFiniteValue, NpnError, ParseError, SingularScatter
from npn.simulation import sample_gaussian

MI_AT_06 = 0.22314355131420976


@pytest.fixture
def corr_csv(tmp_path):
    """3000 rows from a correlation-0.6 Gaussian, saved with a header."""
    rng = np.random.default_rng(42)
    x = sample_gaussian(np.array([[1.0, 0.6], [0.6, 1.0]]), 3000, rng)
    path = tmp_path / "corr.csv"
    save_csv(x, path, header=("a", "b"))
    return path


def run_json(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


class TestLoadCsv:
    def test_plain_numeric_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        out = load_csv(path)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        assert load_csv(path).shape == (2, 2)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n\n")
        assert load_csv(path).shape == (2, 2)

    def test_nan_token_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,nan\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert info.value.row == 2
        assert info.value.column == 2

    def test_infinite_token_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("inf,2.0\n")
        with pytest.raises(NonFiniteValue):
            load_csv(path)

    def test_non_numeric_token_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\nthree,4.0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 2
        assert info.value.column == 1

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n")
        with pytest.raises(EmptyFile):
            load_csv(path)

    @pytest.mark.parametrize("header", [b"", b"x,y\n"])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, header):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])


    @pytest.mark.parametrize(("row", "error", "column"), [
        ("1.0,nan,x", NonFiniteValue, 2),
        ("1.0,x,nan", ParseError, 2),
        ("inf,x", NonFiniteValue, 1),
    ])
    def test_cell_errors_come_in_column_order(self, tmp_path, row, error, column):
        path = tmp_path / "m.csv"
        path.write_text(f"1.0,2.0,3.0\n{row}\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert type(info.value) is error
        assert (info.value.row, info.value.column) == (2, column)

    def test_non_finite_first_row_is_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n1.0,nan\n2.0,3.0\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (2, 2)
        path.write_text("nan,1.0\n2.0,3.0\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (1, 1)

    def test_only_the_first_non_blank_line_may_be_a_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n\nx,y\nu,v\n1.0,2.0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == "row 4, column 1: cannot parse 'u' as a number"
        path.write_text("1.0,2.0\nx,y\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (2, 1)

    def test_padded_cells_parse_and_errors_show_the_stripped_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\t1.0\t,\u20032.0\n\x1f3.0,4.0\x1f\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("1.0,2.0\n3.0,\x1f\u2003 x\t\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == "row 2, column 2: cannot parse 'x' as a number"
        path.write_text("1.0,2.0\n \x1fnan\t,4.0\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert str(info.value) == "row 2, column 1: non-finite value 'nan'"

    def test_row_summing_past_the_float_range_is_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1e308,1e308\n-1e308,1e308\n")
        np.testing.assert_array_equal(load_csv(path), [[1e308, 1e308], [-1e308, 1e308]])

    def test_peak_memory_stays_below_three_and_a_half_file_sizes(self, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((2000, 25)), fmt="%.17g",
                   delimiter=",")
        tracemalloc.start()
        try:
            load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * path.stat().st_size


class TestSaveCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        x = np.array(
            [
                [0.1, 1.0 / 3.0, 1e-300],
                [-5.0, 12345678.90123456789, 2.0**-1074],
            ]
        )
        path = tmp_path / "m.csv"
        save_csv(x, path)
        np.testing.assert_array_equal(load_csv(path), x)

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "m.csv"
        save_csv(np.array([[1.5, 2.5]]), path, header=("u", "v"))
        assert path.read_text() == "u,v\n1.5,2.5\n"


class TestEstimateCommand:
    def test_estimates_land_near_truth(self, corr_csv, capsys):
        code, doc = run_json(
            capsys,
            [
                "estimate",
                "--input",
                str(corr_csv),
                "--estimators",
                "rho,tau,gauss,gaussian",
            ],
        )
        assert code == 0
        assert doc["errors"] == []
        values = {e["estimator"]: e["value"] for e in doc["estimates"]}
        assert set(values) == {"rho", "tau", "gauss", "gaussian"}
        for value in values.values():
            assert value == pytest.approx(MI_AT_06, abs=0.05)

    def test_entropy_flag_appends_value(self, corr_csv, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--entropy"],
        )
        assert code == 0
        # log(2 pi e) + log(1 - 0.36)/2 = 2.6147...
        assert doc["entropy"] == pytest.approx(2.6147335150951357, abs=0.1)

    def test_rank_estimator_diagnostics_present(self, corr_csv, capsys):
        _, doc = run_json(
            capsys, ["estimate", "--input", str(corr_csv), "--estimators", "rho"]
        )
        entry = doc["estimates"][0]
        assert entry["clamped"] == 0
        assert 0.0 < entry["lambda_min"] <= 1.0

    def test_csv_document_layout(self, corr_csv, capsys):
        code = main(
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# version: 0.1.0"
        assert lines[1] == "# command: estimate"
        assert lines[2].startswith("# config: ")
        assert lines[3] == "estimator,value,lambda_min,clamped,diag_second_moment,error"
        assert lines[4].startswith("rho,")

    def test_singular_scatter_sets_numeric_exit(self, tmp_path, capsys):
        # four columns but only three rows: the plugin cannot form a
        # nonsingular scatter, the rank estimators still can
        path = tmp_path / "wide.csv"
        rng = np.random.default_rng(1)
        save_csv(rng.standard_normal((3, 4)), path)
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(path), "--estimators", "gaussian,rho"],
        )
        assert code == 3
        assert doc["errors"][0]["estimator"] == "gaussian"
        assert doc["errors"][0]["error"] == "SingularScatter"
        assert [e["estimator"] for e in doc["estimates"]] == ["rho"]

    def test_overflowing_plugin_sets_numeric_exit(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        save_csv(np.random.default_rng(1).standard_normal((50, 3)) * 1e160, path)
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(path), "--estimators", "gaussian,rho"],
        )
        assert code == 3
        assert doc["errors"][0]["error"] == "SingularScatter"
        assert [e["estimator"] for e in doc["estimates"]] == ["rho"]

    def test_output_is_reproducible(self, corr_csv, capsys):
        argv = ["estimate", "--input", str(corr_csv), "--estimators", "rho,tau"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_out_flag_writes_file(self, corr_csv, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "estimate"

    def test_tie_policy_changes_tied_data(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        save_csv(np.array([[1.0, 4.0], [1.0, 2.0], [2.0, 2.0], [3.0, 1.0]]), path)
        _, literal = run_json(
            capsys, ["estimate", "--input", str(path), "--estimators", "rho"]
        )
        _, midrank = run_json(
            capsys,
            ["estimate", "--input", str(path), "--estimators", "rho", "--ties", "midrank"],
        )
        assert literal["estimates"][0]["value"] != midrank["estimates"][0]["value"]

    @pytest.mark.parametrize(("ties", "spearman_calls"), [("literal", 1), ("midrank", 2)])
    def test_entropy_reuses_a_matching_rho(self, corr_csv, capsys, monkeypatch, ties, spearman_calls):
        # entropy_npn's rho is at literal ties; a midrank rho is computed again
        calls = []
        real = estimators.spearman_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "spearman_matrix", counted)
        argv = ["estimate", "--input", str(corr_csv), "--entropy", "--ties", ties]
        _, with_rho = run_json(capsys, argv + ["--estimators", "rho"])
        assert len(calls) == spearman_calls
        _, without = run_json(capsys, argv + ["--estimators", "gauss"])
        assert with_rho["entropy"] == without["entropy"]

    def test_failed_rho_keeps_entropy_error(self, corr_csv, capsys):
        _, doc = run_json(
            capsys,
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--entropy", "--z", "0"],
        )
        message = "rho/tau estimators require a positive z"
        assert doc["errors"] == [
            {"estimator": name, "error": "DomainError", "message": message}
            for name in ("rho", "entropy")
        ]

    def test_k_reaches_knn_only(self, corr_csv, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(corr_csv), "--estimators", "rho,knn", "--k", "0"],
        )
        assert code == 1
        assert [e["estimator"] for e in doc["estimates"]] == ["rho"]
        assert doc["errors"] == [
            {"estimator": "knn", "error": "DomainError",
             "message": "neighbor count k must be >= 1, got 0"}
        ]

    def test_config_line_at_defaults(self, corr_csv, capsys):
        assert main(["estimate", "--input", str(corr_csv), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == (
            f"# config: input={corr_csv}; estimators=rho; z=0.001; k=2; ties=literal; "
            "entropy=False; format=csv"
        )

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "absent.csv")]) == 2

    def test_nan_in_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnan,0.5\n")
        assert main(["estimate", "--input", str(path)]) == 2

    def test_unknown_estimator_is_usage_error(self, corr_csv):
        assert main(["estimate", "--input", str(corr_csv), "--estimators", "pearson"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["estimate"]) == 1

    def test_infinite_estimate_is_spelled_inf(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("1.0,2.0\n1.0,2.0\n1.0,2.0\n")
        argv = ["estimate", "--input", str(path), "--estimators", "knn"]
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[4] == "knn,inf,,,,"
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["estimates"][0]["value"] == "inf"


class TestSimulateCommand:
    def test_summary_table_layout(self, tmp_path):
        target = tmp_path / "e1.csv"
        code = main(
            [
                "simulate",
                "--experiment",
                "1",
                "--trials",
                "2",
                "--d",
                "4",
                "--n-grid",
                "48,96",
                "--estimators",
                "rho",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[3] == (
            "experiment,sweep_param,sweep_value,estimator,mse,stderr,finite_fraction,trials"
        )
        rows = [line.split(",") for line in lines[4:]]
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["1", "1"]
        assert [r[1] for r in rows] == ["n", "n"]
        assert [r[2] for r in rows] == ["48.0", "96.0"]
        assert all(r[7] == "2" for r in rows)

    def test_row_count_is_grid_times_estimators(self, tmp_path):
        target = tmp_path / "e4.csv"
        main(
            [
                "simulate",
                "--experiment",
                "4",
                "--trials",
                "2",
                "--sigma-grid",
                "0.0,0.9",
                "--estimators",
                "rho,gauss,knn",
                "--out",
                str(target),
            ]
        )
        lines = target.read_text().splitlines()
        assert len(lines) == 4 + 2 * 3
        assert {line.split(",")[1] for line in lines[4:]} == {"sigma"}

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "simulate",
            "--experiment",
            "2",
            "--trials",
            "3",
            "--n",
            "40",
            "--d",
            "3",
            "--alpha-grid",
            "0.0,1.0",
            "--estimators",
            "rho,gaussian",
            "--seed",
            "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_starved_neighborhood_goes_infinite(self, tmp_path):
        # 30 atoms per column against k = 2 makes every trial infinite, so
        # the mse field is empty and finite_fraction is zero
        target = tmp_path / "e3.csv"
        code = main(
            [
                "simulate",
                "--experiment",
                "3",
                "--trials",
                "2",
                "--beta-grid",
                "0.3",
                "--estimators",
                "knn",
                "--k",
                "2",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        row = target.read_text().splitlines()[4].split(",")
        assert row[3] == "knn"
        assert row[4] == ""
        assert row[5] == ""
        assert row[6] == "0.0"

    def test_json_document(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "simulate",
                "--experiment",
                "4",
                "--trials",
                "2",
                "--sigma-grid",
                "0.6",
                "--estimators",
                "rho",
                "--format",
                "json",
            ],
        )
        assert code == 0
        assert doc["summaries"][0]["estimator"] == "rho"
        assert doc["summaries"][0]["finite_fraction"] == 1.0

    def test_config_line_names_the_tie_policy(self, tmp_path):
        # experiment 3's +-5 atoms make the tie policy change gauss and rho
        argv = ["simulate", "--experiment", "3", "--trials", "1", "--n", "40", "--d", "3",
                "--beta-grid", "0.2", "--estimators", "rho"]
        lines = {}
        for ties in ("literal", "midrank"):
            target = tmp_path / f"{ties}.csv"
            assert main(argv + ["--ties", ties, "--out", str(target)]) == 0
            lines[ties] = target.read_text().splitlines()[2]
        assert "ties=literal" in lines["literal"]
        assert "ties=midrank" in lines["midrank"]

    @pytest.mark.parametrize(("experiment", "k"), [(1, 2), (2, 2), (3, 20), (4, 2)])
    def test_config_line_at_defaults(self, capsys, monkeypatch, experiment, k):
        # The echo is the resolved spec: experiment 4 runs at D = 2.
        d, grid = {
            1: (25, "32.0,64.0,128.0,256.0,512.0,1024.0"),
            2: (25, "0.0,0.25,0.5,0.75,1.0"),
            3: (25, "0.0,0.1,0.2,0.3"),
            4: (2, "0.0,0.3,0.6,0.9,0.99,0.999"),
        }[experiment]
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        assert main(["simulate", "--experiment", str(experiment)]) == 0
        assert capsys.readouterr().out.splitlines()[2] == (
            f"# config: experiment={experiment}; trials=200; n=100; d={d}; grid={grid}; "
            "estimators=gaussian,gauss,rho,tau,knn; transform=exp; z=0.001; "
            f"k={k}; ties=literal; seed=0; format=csv"
        )
        assert [c.k for c in specs[0].estimators] == [2, 2, 2, 2, k]

    def test_json_config_object_at_defaults(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
        code, doc = run_json(capsys, ["simulate", "--experiment", "3", "--format", "json"])
        assert code == 0
        assert list(doc["config"].items()) == [
            ("experiment", 3), ("trials", 200), ("n", 100), ("d", 25), ("grid", "0.0,0.1,0.2,0.3"),
            ("estimators", "gaussian,gauss,rho,tau,knn"), ("transform", "exp"), ("z", 0.001),
            ("k", 20), ("ties", "literal"), ("seed", 0), ("format", "json"),
        ]
        assert doc["summaries"] == []

    def test_bad_experiment_number_is_usage_error(self):
        assert main(["simulate", "--experiment", "9", "--trials", "1"]) == 1

    def test_alpha_grid_outside_range_is_usage_error(self):
        assert (
            main(["simulate", "--experiment", "2", "--alpha-grid", "1.5", "--trials", "1"]) == 1
        )

    @pytest.mark.parametrize("grid, message", [
        ("x", "error: cannot parse grid 'x'\n"),
        (",", "error: grid must contain at least one value\n"),
    ])
    def test_malformed_grid_is_usage_error(self, capsys, grid, message):
        assert main(["simulate", "--experiment", "1", "--grid", grid]) == 1
        assert capsys.readouterr().err == message


class TestBandableCommand:
    def test_reference_bounds(self, capsys):
        code, doc = run_json(capsys, ["bandable", "--c", "0.2", "--d", "10"])
        assert code == 0
        assert doc["lower"] == pytest.approx(0.5, abs=1e-12)
        assert doc["upper"] == pytest.approx(1.5, abs=1e-12)
        assert doc["verify"] is None

    def test_warns_when_lower_bound_is_vacuous(self, capsys):
        code = main(["bandable", "--c", "0.4", "--d", "10"])
        assert code == 0
        assert "1/3" in capsys.readouterr().err

    def test_no_warning_in_guaranteed_range(self, capsys):
        main(["bandable", "--c", "0.2", "--d", "10"])
        assert capsys.readouterr().err == ""

    def test_verified_draws_stay_inside_bounds(self, capsys):
        code, doc = run_json(
            capsys, ["bandable", "--c", "0.3", "--d", "8", "--verify", "50"]
        )
        assert code == 0
        block = doc["verify"]
        assert block["draws"] == 50
        assert block["violations"] == 0
        assert block["min_eigenvalue"] >= doc["lower"] - 1e-9
        assert block["max_eigenvalue"] <= doc["upper"] + 1e-9

    def test_csv_layout(self, capsys):
        code = main(["bandable", "--c", "0.2", "--d", "5", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "c,d,lower,upper,draws,min_eigenvalue,max_eigenvalue,violations"
        assert lines[4].startswith("0.2,5,")

    def test_csv_row_matches_the_json_verify_block(self, capsys):
        argv = ["bandable", "--c", "0.2", "--d", "6", "--verify", "3"]
        _, doc = run_json(capsys, argv)
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "# config: c=0.2; d=6; verify=3; seed=0; format=csv"
        block = doc["verify"]
        assert lines[4] == ",".join(
            repr(v) if isinstance(v, float) else str(v)
            for v in (0.2, 6, doc["lower"], doc["upper"], block["draws"],
                      block["min_eigenvalue"], block["max_eigenvalue"], block["violations"])
        )

    def test_negative_verify_is_usage_error(self, capsys):
        assert main(["bandable", "--c", "0.2", "--d", "4", "--verify", "-2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --verify must be >= 0, got -2\n"

    @pytest.mark.parametrize("verify", ["0", "1"])
    def test_negative_seed_is_usage_error(self, capsys, verify):
        argv = ["bandable", "--c", "0.2", "--d", "5", "--verify", verify, "--seed", "-1"]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("c", ["0.0", "1.0", "1.2", "-0.1"])
    def test_c_outside_open_interval_is_usage_error(self, c):
        assert main(["bandable", "--c", c, "--d", "5"]) == 1


class TestMainErrors:
    SIMULATE = ["simulate", "--experiment", "1", "--trials", "1"]

    @pytest.mark.parametrize(
        "argv, raised, prefix, code",
        [
            (["estimate"], None, "error: the following arguments are required", 1),
            (["estimate", "--input", "{bad}"], None, "data error: row 2, column 2:", 2),
            (["estimate", "--input", "{absent}"], None, "data error: [Errno 2]", 2),
            (SIMULATE, SingularScatter("collinear"), "numeric error: collinear", 3),
            (["bandable", "--c", "1.5", "--d", "4"], None, "error: bandable decay c", 1),
            (SIMULATE, NpnError("bare"), "error: bare", 3),
        ],
        ids=["usage", "parse", "missing-file", "numeric", "domain", "bare-npn-error"],
    )
    def test_stderr_prefix_and_exit_code(self, tmp_path, capsys, monkeypatch, argv, raised,
                                         prefix, code):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,x\n")
        argv = [a.format(bad=bad, absent=tmp_path / "absent.csv") for a in argv]
        if raised is not None:
            def fail(spec):
                raise raised
            monkeypatch.setattr(cli, "run_experiment", fail)
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(prefix)


def test_run_experiments_script_writes_every_table(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(
        sys, "argv",
        ["run_experiments.py", "--out-dir", str(tmp_path), "--trials", "1", "--trials-e4", "1"],
    )
    assert script.main() == 0
    names = ["e1_sample_size.csv", "e3_outliers.csv", "e4_sigma.csv"] + [
        f"e2_marginals_{t}.csv" for t in script.TRANSFORMS
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert "; k=20;" in (tmp_path / "e3_outliers.csv").read_text().splitlines()[2]


def test_package_exports_every_module_list():
    import npn
    from npn import errors, matrix_core, rank_stats, simulation

    modules = (errors, matrix_core, rank_stats, estimators, simulation)
    for module in modules:
        for name in module.__all__:
            assert getattr(npn, name) is getattr(module, name), name
    listed = ["__version__"] + [name for module in modules for name in module.__all__]
    assert len(set(npn.__all__)) == len(npn.__all__)
    assert set(npn.__all__) == set(listed)
