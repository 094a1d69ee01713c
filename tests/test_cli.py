import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from sigtest import gen_design
from sigtest.cli import run
from sigtest.dataio import format_csv
from sigtest.exceptions import PathTruncationWarning
from sigtest.linmodel import ActiveQR
from sigtest.significance import exp1_quantile, gumbel_quantile

IDENTITY_CSV = "x1,x2,x3,y\n1,0,0,3\n0,1,0,-1\n0,0,1,2\n"


@pytest.fixture
def identity_csv(tmp_path):
    path = tmp_path / "id3.csv"
    path.write_text(IDENTITY_CSV)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPathVerb:
    def test_identity_knot_table(self, identity_csv, tmp_path):
        out = str(tmp_path / "knots.csv")
        assert run(["path", "--input", identity_csv, "--output", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["k", "lambda", "entering", "action", "active_set"]
        assert [r[1] for r in rows[1:]] == ["3.0", "2.0", "1.0"]
        assert [r[2] for r in rows[1:]] == ["0", "2", "1"]
        assert [r[3] for r in rows[1:]] == ["enter"] * 3

    def test_zero_response_empty_table(self, tmp_path):
        data = tmp_path / "zero.csv"
        data.write_text("x1,x2,y\n1,0,0\n0,1,0\n")
        out = str(tmp_path / "knots.csv")
        assert run(["path", "--input", str(data), "--output", out]) == 0
        assert len(read_csv(out)) == 1  # header only

    def test_empty_file_exit_2(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert run(["path", "--input", str(data)]) == 2

    def test_duplicate_columns_exit_3(self, tmp_path):
        data = tmp_path / "dup.csv"
        data.write_text("a,b,y\n1,1,1\n0,0,2\n2,2,0\n")
        assert run(["path", "--input", str(data)]) == 3

    def test_non_terminating_path_exit_3(self, identity_csv, monkeypatch, capsys):
        monkeypatch.setattr("sigtest.lasso.MAX_EVENTS_PER_COLUMN", 0)
        assert run(["path", "--input", identity_csv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("sigtest: error:")
        assert "Traceback" not in err

    def test_json_format(self, identity_csv, tmp_path, capsys):
        assert run(["path", "--input", identity_csv, "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["lambda"] for r in records] == [3.0, 2.0, 1.0]
        assert records[0]["active_set"] == [0]


class TestTestVerb:
    @pytest.mark.parametrize("line", [1, 3])
    def test_overlong_field_exit_2(self, tmp_path, capsys, line):
        # The csv module refuses a field past its 131,072-character limit.
        rows = IDENTITY_CSV.splitlines()
        rows[line - 1] += "0" * 131_072
        data = tmp_path / "long.csv"
        data.write_text("\n".join(rows) + "\n")
        assert run(["test", "--input", str(data), "--sigma2", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("sigtest: error: field larger than field limit")
        assert captured.err.endswith(f"(line {line})\n") and captured.err.count("\n") == 1

    def test_identity_first_row(self, identity_csv, tmp_path):
        out = str(tmp_path / "tests.csv")
        assert run(["test", "--input", identity_csv, "--sigma2", "1",
                    "--alpha", "0.05", "--output", out]) == 0
        rows = read_csv(out)
        header = rows[0]
        first = dict(zip(header, rows[1]))
        assert float(first["gumbel_statistic"]) == pytest.approx(6.89682, abs=1e-4)
        assert float(first["gumbel_p"]) == pytest.approx(0.0178, abs=2e-4)
        assert first["gumbel_reject"] == "True"
        assert float(first["cov_statistic"]) == pytest.approx(3.0, abs=1e-8)
        assert float(first["cov_p"]) == pytest.approx(math.exp(-3), abs=1e-6)
        assert first["cov_reject"] == "True"

    def test_later_rows_marked_too_few_remaining(self, identity_csv, tmp_path):
        out = str(tmp_path / "tests.csv")
        run(["test", "--input", identity_csv, "--sigma2", "1", "--output", out])
        rows = read_csv(out)
        header = rows[0]
        second = dict(zip(header, rows[2]))
        assert "too-few-remaining" in second["note"]
        assert second["gumbel_p"] == ""
        assert float(second["cov_statistic"]) == pytest.approx(2.0, abs=1e-8)

    def test_strict_alpha_changes_decision(self, identity_csv, tmp_path):
        out = str(tmp_path / "tests.csv")
        run(["test", "--input", identity_csv, "--sigma2", "1",
             "--alpha", "0.01", "--output", out])
        rows = read_csv(out)
        first = dict(zip(rows[0], rows[1]))
        assert first["gumbel_reject"] == "False"  # 0.0178 > 0.01
        assert first["cov_reject"] == "False"     # 0.0498 > 0.01

    def test_json_mirrors_outcome_schema(self, identity_csv, capsys):
        assert run(["test", "--input", identity_csv, "--sigma2", "1",
                    "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert all(list(r) == ["kind", "k", "A", "j", "statistic", "correction",
                               "p_value", "alpha", "reject", "conservative",
                               "warnings"] for r in records)
        kinds = {r["kind"] for r in records}
        assert kinds == {"gumbel", "covariance"}

    def test_missing_sigma2_small_n_exit_4(self, identity_csv):
        assert run(["test", "--input", identity_csv]) == 4

    def test_plug_in_sigma2_when_estimable(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        lines = ["a,b,c,y"] + [",".join(repr(float(v)) for v in list(X[i]) + [y[i]]) for i in range(30)]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "t.csv")
        assert run(["test", "--input", str(data), "--output", out]) == 0
        rows = read_csv(out)
        assert "plug-in-sigma2" in dict(zip(rows[0], rows[1]))["note"]

    @pytest.mark.parametrize("selector", ["max_r", "lasso"])
    def test_plug_in_note_on_every_json_record(self, tmp_path, capsys, selector):
        rng = np.random.default_rng(5)
        table = np.column_stack([rng.standard_normal((30, 4)), rng.standard_normal(30)])
        data = tmp_path / "plug.csv"
        data.write_text("a,b,c,d,y\n" + "".join(",".join(map(repr, row)) + "\n"
                                                for row in table.tolist()))
        base = ["test", "--input", str(data), "--selector", selector, "--format", "json"]
        assert run(base) == 0
        estimated = json.loads(capsys.readouterr().out)
        assert {r["kind"] for r in estimated} == {"gumbel", "covariance"}
        assert all(r["warnings"][-1] == "plug-in-sigma2" for r in estimated)
        assert run(base + ["--sigma2", "1"]) == 0
        known = json.loads(capsys.readouterr().out)
        assert len(known) == len(estimated)
        assert not any("plug-in-sigma2" in r["warnings"] for r in known)

    def test_lasso_selector(self, identity_csv, tmp_path):
        out = str(tmp_path / "t.csv")
        assert run(["test", "--input", identity_csv, "--sigma2", "1",
                    "--selector", "lasso", "--output", out]) == 0
        rows = read_csv(out)
        assert dict(zip(rows[0], rows[1]))["selector"] == "lasso"

    def test_lasso_max_steps_computes_only_the_steps_asked_for(self, family_csvs, capsys,
                                                                monkeypatch):
        calls = []
        drops = ActiveQR.drops
        monkeypatch.setattr(ActiveQR, "drops",
                            lambda qr, sigma2: calls.append(sigma2) or drops(qr, sigma2))
        assert run(["test", "--input", family_csvs["gaussian"], "--sigma2", "1",
                    "--selector", "lasso", "--max-steps", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert len(calls) == 1

    def test_max_steps_warns_only_about_steps_asked_for(self, tmp_path, capsys):
        # y = 3 e_0 + 2 e_1 on the identity: the stepwise path stops at step 3.
        X = np.eye(6)
        y = 3.0 * X[:, 0] + 2.0 * X[:, 1]
        data = tmp_path / "two.csv"
        data.write_text("a,b,c,d,e,f,y\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in np.column_stack([X, y]).tolist()))
        base = ["test", "--input", str(data), "--sigma2", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", PathTruncationWarning)
            assert run(base + ["--max-steps", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        with pytest.warns(PathTruncationWarning, match="stopped at step 3"):
            assert run(base) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_deletion_between_entries_noted(self, tmp_path):
        # On this AR(1) design a variable leaves the lasso path between its
        # 6th and 7th entries, so step 6 has no covariance test.
        rng = np.random.default_rng(0)
        X = gen_design("ar1", 30, 12, rng, 0.8)
        y = X[:, :3] @ np.array([4.0, -4.0, 3.0]) + rng.standard_normal(30)
        data = tmp_path / "ar1.csv"
        data.write_text(format_csv([f"x{i}" for i in range(12)] + ["y"],
                                   np.column_stack([X, y]).tolist()))
        out = str(tmp_path / "t.csv")
        assert run(["test", "--input", str(data), "--sigma2", "1", "--selector", "lasso",
                    "--output", out]) == 0
        header, *rows = read_csv(out)
        rows = [dict(zip(header, row)) for row in rows]
        assert [r["k"] for r in rows if "deletion-between-entries" in r["note"]] == ["6"]
        assert rows[5]["cov_statistic"] == "" and rows[5]["gumbel_statistic"] != ""
        assert rows[4]["cov_statistic"] != "" and rows[6]["cov_statistic"] != ""

    @pytest.mark.parametrize("family, column, message", [
        ("gaussian", "x3", "X contains non-finite entries"),
        ("gaussian", "y", "y contains non-finite entries"),
        ("logistic", "y", "y contains non-finite entries"),
        ("cox", "time", "time contains non-finite entries"),
        ("cox", "status", "status contains non-finite entries"),
    ])
    def test_non_finite_cell_exit_2(self, family_csvs, capsys, family, column, message):
        header, *rows = read_csv(family_csvs[family])
        rows[1][header.index(column)] = "nan"
        with open(family_csvs[family], "w") as fh:
            fh.write(format_csv(header, rows))
        sigma2 = ["--sigma2", "1"] if family == "gaussian" else []
        assert run(["test", "--input", family_csvs[family], "--family", family, *sigma2]) == 2
        assert capsys.readouterr().err == f"sigtest: error: {message}\n"

    def test_failed_replace_leaves_no_temporary_file(self, identity_csv, tmp_path, monkeypatch,
                                                     capsys):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "out" / "t.csv"
        assert run(["test", "--input", identity_csv, "--sigma2", "1", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"sigtest: error: cannot replace {out}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_logistic_family(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 5))
        y = (rng.random(40) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        lines = ["a,b,c,d,e,y"] + [
            ",".join(repr(float(v)) for v in list(X[i]) + [float(y[i])]) for i in range(40)]
        data = tmp_path / "bin.csv"
        data.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "t.csv")
        assert run(["test", "--input", str(data), "--family", "logistic",
                    "--max-steps", "2", "--output", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        first = dict(zip(rows[0], rows[1]))
        assert first["gumbel_statistic"] != ""
        assert first["cov_statistic"] == ""

    def test_constant_binary_response_exit_2(self, tmp_path, capsys):
        data = tmp_path / "ones.csv"
        data.write_text("a,b,c,y\n1,0,2,1\n0,1,3,1\n2,2,1,1\n1,3,0,1\n")
        assert run(["test", "--input", str(data), "--family", "logistic"]) == 2
        assert "at least one 0 and one 1" in capsys.readouterr().err

    def test_cox_family(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 4))
        time = rng.exponential(1.0, 40)
        status = (rng.random(40) > 0.1).astype(float)
        lines = ["a,b,c,d,time,status"] + [
            ",".join(repr(float(v)) for v in list(X[i]) + [time[i], status[i]]) for i in range(40)]
        data = tmp_path / "surv.csv"
        data.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "t.csv")
        assert run(["test", "--input", str(data), "--family", "cox",
                    "--max-steps", "1", "--output", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 2


def pairwise_separated_columns(n=24, seed=3):
    """y = 1 exactly when s > 0, with one pair of labels 2e-5 apart in s.
    The columns s + u, s - u and s - 2u mix s with noise u, so no column
    alone separates the labels but every pair of them spans s."""
    s = np.concatenate([np.linspace(-1, -0.2, n // 2 - 1), [-1e-5, 1e-5],
                        np.linspace(0.2, 1, n // 2 - 1)])
    u = np.random.default_rng(seed).standard_normal(n)
    return np.column_stack([s + u, s - u, s - 2 * u]), (s > 0).astype(float)


class TestGlmTableEnd:
    """A step with fewer than 3 candidates left whose every fit fails still
    gets a row, with the note a testable step gets for the same condition."""

    @pytest.mark.parametrize("case", ["separated", "copies"])
    def test_last_row_when_every_fit_fails(self, tmp_path, case):
        if case == "separated":
            X, y = pairwise_separated_columns()
        else:  # after the first pick the other two copies are rank deficient
            rng = np.random.default_rng(4)
            X, y = np.repeat(rng.standard_normal((24, 1)), 3, axis=1), np.arange(24) % 2.0
        lines = ["a,b,c,y"] + [",".join(repr(float(v)) for v in [*X[i], y[i]])
                               for i in range(len(y))]
        data = tmp_path / "bin.csv"
        data.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "t.csv")
        assert run(["test", "--input", str(data), "--family", "logistic", "--output", out]) == 0
        header, first, last = read_csv(out)
        first, last = dict(zip(header, first)), dict(zip(header, last))
        assert first["gumbel_statistic"] != "" and first["note"] == ""
        assert (last["k"], last["j"], last["A"], last["r_j"]) == ("2", "", first["j"], "")
        assert last["note"] == "too-few-remaining;test-failed:UnreliableMaxError"


@pytest.fixture
def family_csvs(tmp_path):
    """(30, 8) Gaussian, logistic and survival CSVs, keyed by family."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 8))
    columns = {
        "gaussian": (["y"], [X[:, 0] + rng.standard_normal(30)]),
        "logistic": (["y"], [(rng.random(30) < 0.5).astype(float)]),
        "cox": (["time", "status"], [rng.exponential(1.0, 30), np.ones(30)]),
    }
    paths = {}
    for family, (names, cols) in columns.items():
        table = np.column_stack([X] + cols)
        lines = [",".join([f"x{i}" for i in range(8)] + names)]
        lines += [",".join(repr(float(v)) for v in row) for row in table]
        path = tmp_path / f"{family}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths[family] = str(path)
    return paths


class TestOptionChecks:
    """An invalid option value exits 2 with one error line and no table."""

    @pytest.mark.parametrize("verb, family, options", [
        ("path", "gaussian", ["--max-steps", "-2"]),
        ("test", "gaussian", ["--sigma2", "1", "--max-steps", "-1"]),
        ("test", "logistic", ["--family", "logistic", "--max-steps", "-1"]),
        ("test", "cox", ["--family", "cox", "--max-steps", "-1"]),
        ("test", "gaussian", ["--alpha", "0"]),
        ("test", "gaussian", ["--alpha", "1.5"]),
        ("test", "gaussian", ["--sigma2", "0"]),
        ("test", "gaussian", ["--sigma2", "-1"]),
        ("test", "gaussian", ["--sigma2", "1", "--max-steps", "9"]),
        ("test", "gaussian", ["--sigma2", "1", "--max-steps", "9", "--selector", "lasso"]),
        ("test", "logistic", ["--family", "logistic", "--max-steps", "9"]),
        ("test", "cox", ["--family", "cox", "--max-steps", "9"]),
        ("test", "gaussian", ["--sigma2", "inf"]),
        ("test", "gaussian", ["--sigma2", "nan"]),
        ("test", "logistic", ["--family", "logistic", "--sigma2", "inf"]),
        ("test", "logistic", ["--family", "logistic", "--sigma2", "5"]),
        ("test", "cox", ["--family", "cox", "--sigma2", "1"]),
        ("test", "logistic", ["--family", "logistic", "--selector", "lasso"]),
        ("test", "cox", ["--family", "cox", "--selector", "max_r"]),
        ("test", "logistic", ["--family", "logistic", "--selector", "lasso", "--sigma2", "5"]),
    ])
    def test_exit_2(self, family_csvs, capsys, verb, family, options):
        assert run([verb, "--input", family_csvs[family], *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sigtest: error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("family, limit", [("gaussian", "min(n, p)=8"), ("logistic", "p=8"),
                                               ("cox", "p=8")])
    def test_max_steps_range_message(self, family_csvs, capsys, family, limit):
        sigma2 = ["--sigma2", "1"] if family == "gaussian" else []
        assert run(["test", "--input", family_csvs[family], "--family", family,
                    *sigma2, "--max-steps", "99"]) == 2
        assert capsys.readouterr().err == (
            f"sigtest: error: max_steps=99 must lie in [0, {limit}]\n")
        assert run(["test", "--input", family_csvs[family], "--family", family,
                    *sigma2, "--max-steps", "8"]) == 0
        if family == "gaussian":  # the path verb has the same bound and message
            capsys.readouterr()
            assert run(["path", "--input", family_csvs[family], "--max-steps", "99"]) == 2
            assert capsys.readouterr().err == (
                f"sigtest: error: max_steps=99 must lie in [0, {limit}]\n")
            assert run(["path", "--input", family_csvs[family], "--max-steps", "8"]) == 0

    @pytest.mark.parametrize("verb, options", [
        ("path", []),
        ("test", ["--sigma2", "1"]),
        ("test", ["--family", "logistic"]),
        ("test", ["--family", "cox"]),
        ("qq", ["--reference", "exp1"]),
    ])
    def test_missing_input_exit_2(self, tmp_path, capsys, verb, options):
        missing = str(tmp_path / "does-not-exist.csv")
        assert run([verb, "--input", missing, *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sigtest: error:") and missing in captured.err
        assert "Traceback" not in captured.err

    def test_zero_max_steps_prints_header_only(self, family_csvs, capsys):
        for family in ("gaussian", "logistic", "cox"):
            sigma2 = ["--sigma2", "1"] if family == "gaussian" else []
            assert run(["test", "--input", family_csvs[family], "--family", family,
                        *sigma2, "--max-steps", "0"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 1


class TestSimulateVerb:
    def test_artifacts_and_determinism(self, tmp_path):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal",
                             "n": 40, "p": 10, "test": "gumbel", "k": 1,
                             "reps": 12, "seed": 1})
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["simulate", "--inline", inline, "--seed", "17", "--out", out1]) == 0
        assert run(["simulate", "--inline", inline, "--seed", "17", "--out", out2]) == 0
        for name in ("statistics.csv", "qq.csv", "summary.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_summary_fields(self, tmp_path):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal",
                             "n": 40, "p": 10, "test": "gumbel", "k": 1,
                             "reps": 5, "seed": 2})
        out = str(tmp_path / "s")
        assert run(["simulate", "--inline", inline, "--out", out]) == 0
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert list(summary) == ["scenario", "reps", "ks", "rejection_rate_05",
                                 "failures", "unreliable", "failure_reasons",
                                 "signal_missed"]
        assert summary["reps"] == 5
        assert summary["failure_reasons"] == {} and summary["signal_missed"] == 0
        stats = (tmp_path / "s" / "statistics.csv").read_text().strip().splitlines()
        assert len(stats) == 5

    def test_unknown_preset_exit_2_lists_presets(self, capsys):
        assert run(["simulate", "--scenario", "fig9"]) == 2
        err = capsys.readouterr().err
        assert "fig1-left" in err and "cov-null" in err

    def test_inline_reps_zero_exit_2(self):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal",
                             "n": 40, "p": 10, "test": "gumbel", "reps": 0})
        assert run(["simulate", "--inline", inline]) == 2

    def test_inline_infeasible_orthogonal_design_exit_3(self, tmp_path, capsys):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal",
                             "n": 5, "p": 10, "test": "gumbel", "reps": 2})
        assert run(["simulate", "--inline", inline, "--out", str(tmp_path / "s")]) == 3
        assert capsys.readouterr().err == "sigtest: error: orthogonal design requires n >= p\n"
        assert not (tmp_path / "s").exists()

    def test_inline_unknown_field_exit_2(self):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal",
                             "n": 40, "p": 10, "test": "gumbel", "bogus": 1})
        assert run(["simulate", "--inline", inline]) == 2

    @pytest.mark.parametrize("field, value", [
        ("n", "100"),
        ("n", 100.5),
        ("n", True),
        ("reps", 2.0),
        ("rho", "0.2"),
        ("design", 3),
        ("beta", 5),
        ("beta", [[0, 6.0, 1.0]]),
        ("beta", [[0.5, 6.0]]),
        ("beta", [["0", 6.0]]),
    ])
    def test_inline_mistyped_field_exit_2(self, tmp_path, capsys, field, value):
        scenario = {"family": "gaussian", "design": "orthogonal", "n": 40, "p": 10,
                    "test": "gumbel", "reps": 2}
        inline = json.dumps({**scenario, field: value})
        assert run(["simulate", "--inline", inline, "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sigtest: error: inline scenario field {field!r} must be ")
        assert err.endswith(f", got {value!r}\n")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("text, message", [
        ("{family: gaussian}", "inline scenario is not valid JSON: "),
        ("[1, 2]", "inline scenario must be a JSON object\n"),
        ('{"family": "gaussian", "design": "orthogonal", "n": 40, "p": 10}',
         "inline scenario missing required field 'test'\n"),
    ], ids=["not-json", "not-object", "missing-field"])
    def test_inline_scenario_errors_exit_2(self, tmp_path, capsys, text, message):
        assert run(["simulate", "--inline", text, "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith(f"sigtest: error: {message}")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("fields, message", [
        ({"test": "covariance", "selector": "lasso"},
         "selector does not apply to the covariance test"),
        ({"censor_frac": 0.1}, "censor_frac applies only to the cox family"),
        ({"rho": 0.7}, "rho applies only to the ar1 design"),
    ])
    def test_inline_field_a_replication_never_reads_exit_2(self, tmp_path, capsys, fields,
                                                           message):
        scenario = {"family": "gaussian", "design": "orthogonal", "n": 30, "p": 10,
                    "test": "gumbel", "reps": 5, **fields}
        assert run(["simulate", "--inline", json.dumps(scenario),
                    "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == f"sigtest: error: {message}\n"
        assert not (tmp_path / "s").exists()

    def test_inline_int_for_float_field_accepted(self, tmp_path):
        inline = json.dumps({"family": "gaussian", "design": "ar1", "rho": 0, "sigma": 2,
                             "n": 40, "p": 10, "test": "gumbel", "k": 2, "reps": 3,
                             "beta": [[0, 6]]})
        assert run(["simulate", "--inline", inline, "--out", str(tmp_path / "s")]) == 0

    def test_inline_beta_pairs(self, tmp_path):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal",
                             "n": 40, "p": 10, "test": "gumbel", "k": 2,
                             "reps": 4, "seed": 3, "beta": [[0, 6.0], [1, 6.0]]})
        out = str(tmp_path / "sig")
        assert run(["simulate", "--inline", inline, "--out", out]) == 0


class TestQqVerb:
    def test_diagonal_for_exact_quantiles(self, tmp_path, capsys):
        vals = [gumbel_quantile(p) for p in (1 / 6, 0.5, 5 / 6)]
        f = tmp_path / "stats.txt"
        f.write_text("".join(repr(v) + "\n" for v in vals))
        assert run(["qq", "--input", str(f), "--reference", "gumbel"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        for theo, emp in rows:
            assert float(theo) == pytest.approx(float(emp), abs=1e-12)

    def test_exp1_singleton_median(self, tmp_path, capsys):
        f = tmp_path / "stats.txt"
        f.write_text(repr(math.log(2)) + "\n")
        assert run(["qq", "--input", str(f), "--reference", "exp1"]) == 0
        theo, emp = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(theo) == pytest.approx(exp1_quantile(0.5), abs=1e-12)
        assert float(theo) == pytest.approx(math.log(2), abs=1e-12)
        assert float(emp) == pytest.approx(math.log(2), abs=1e-12)

    def test_non_numeric_line_exit_2(self, tmp_path, capsys):
        f = tmp_path / "stats.txt"
        f.write_text("1.0\noops\n")
        assert run(["qq", "--input", str(f), "--reference", "gumbel"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_file_exit_2(self, tmp_path):
        f = tmp_path / "stats.txt"
        f.write_text("")
        assert run(["qq", "--input", str(f), "--reference", "exp1"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_statistic_exit_2(self, tmp_path, capsys, bad):
        f = tmp_path / "stats.txt"
        f.write_text(f"0.5\n{bad}\n1.2\n")
        assert run(["qq", "--input", str(f), "--reference", "gumbel"]) == 2
        assert capsys.readouterr() == ("", "sigtest: error: statistics must be finite\n")


class TestRoundTrip:
    def test_simulate_statistics_feed_qq(self, tmp_path, capsys):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal",
                             "n": 40, "p": 10, "test": "gumbel", "k": 1,
                             "reps": 8, "seed": 4})
        out = str(tmp_path / "sim")
        run(["simulate", "--inline", inline, "--out", out])
        stats_file = str(tmp_path / "sim" / "statistics.csv")
        assert run(["qq", "--input", stats_file, "--reference", "gumbel"]) == 0
        qq_lines = capsys.readouterr().out.strip().splitlines()
        saved = (tmp_path / "sim" / "qq.csv").read_text().strip().splitlines()
        assert qq_lines == saved
