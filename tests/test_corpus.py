"""``tests/corpus.py --compare`` flags what it must: a last-ulp change in a
float, a swap of two tied entries, and a file present on one side only."""

import json
import math

import corpus

PATH_TABLE = "k,lambda,entering,action,active_set\n1,3.0,0,enter,0\n2,3.0,1,enter,0;1\n"
RECORD = [{"kind": "covariance", "k": 1, "A": [], "j": 0, "statistic": 0.30408975723215903}]


def write_corpus(root, table=PATH_TABLE, record=RECORD, extra=()):
    (root / "path").mkdir(parents=True)
    (root / "path" / "ties.csv").write_text(table)
    (root / "cov.json").write_text(json.dumps(record, indent=1) + "\n")
    for name in extra:
        (root / name).write_text("exit 0\n")
    return root


def test_identical_corpora(tmp_path):
    a, b = write_corpus(tmp_path / "a"), write_corpus(tmp_path / "b")
    assert corpus.compare(a, b) == (["cov.json", "path/ties.csv"], {})
    assert corpus.main(["--compare", str(a), str(b)]) == 0


def test_last_ulp_change_in_a_statistic(tmp_path, capsys):
    moved = [{**RECORD[0], "statistic": math.nextafter(RECORD[0]["statistic"], math.inf)}]
    a, b = write_corpus(tmp_path / "a"), write_corpus(tmp_path / "b", record=moved)
    same, reports = corpus.compare(a, b)
    assert same == ["path/ties.csv"]
    assert reports == {"cov.json": ["  statistic: 1 values differ, max abs 5.55e-17, "
                                    "max rel 1.83e-16, max abs/max(1,|x|) 5.55e-17"]}
    assert corpus.main(["--compare", str(a), str(b)]) == 1
    assert "differs: cov.json" in capsys.readouterr().out


def test_swap_of_two_tied_entries(tmp_path):
    swapped = "k,lambda,entering,action,active_set\n1,3.0,1,enter,1\n2,3.0,0,enter,1;0\n"
    a, b = write_corpus(tmp_path / "a"), write_corpus(tmp_path / "b", table=swapped)
    _same, reports = corpus.compare(a, b)
    assert reports == {"path/ties.csv": [
        "  changed row 1, entering: 0 -> 1",
        "  changed row 1, active_set: 0 -> 1",
        "  changed row 2, entering: 1 -> 0",
        "  changed row 2, active_set: '0;1' -> '1;0'",
    ]}


def test_discrete_json_change_and_one_sided_file(tmp_path):
    other = [{**RECORD[0], "A": [2], "j": 3}]
    a = write_corpus(tmp_path / "a", extra=["only-a.run.txt"])
    b = write_corpus(tmp_path / "b", record=other)
    _same, reports = corpus.compare(a, b)
    assert reports["only-a.run.txt"] == ["  only in A"]
    assert reports["cov.json"] == ["  changed [0].j: 0 -> 3", "  changed [0].A[0]: only in B: 2"]


def test_round_off_on_a_value_near_zero(tmp_path):
    # Near 0 a move of 1e-13 reads as 50% relative, and as 1e-13 against max(1, |x|).
    a = write_corpus(tmp_path / "a", record=[{**RECORD[0], "statistic": 1e-13}])
    b = write_corpus(tmp_path / "b", record=[{**RECORD[0], "statistic": 2e-13}])
    _same, reports = corpus.compare(a, b)
    assert reports == {"cov.json": ["  statistic: 1 values differ, max abs 1e-13, "
                                    "max rel 0.5, max abs/max(1,|x|) 1e-13"]}
