import numpy as np
import pytest

from sigtest.dataio import (
    CsvFormatError,
    format_csv,
    load_binary,
    load_dataset,
    load_statistics,
    load_survival,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadDataset:
    def test_response_column_anywhere(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y,b\n1,10,4\n2,20,5\n3,30,6\n")
        data, names = load_dataset(path, sigma2=2.0)
        assert names == ["a", "b"]
        np.testing.assert_array_equal(data.y, [10, 20, 30])
        np.testing.assert_allclose(data.X[:, 0], np.array([1, 2, 3]) / np.sqrt(14.0))
        assert data.sigma2 == 2.0

    def test_unit_norm_applied(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n3,1\n4,2\n")
        data, _ = load_dataset(path)
        np.testing.assert_allclose(data.X[:, 0], [0.6, 0.8])

    def test_missing_response(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(CsvFormatError, match="'y'"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(CsvFormatError, match="empty"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_dataset(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n1,2\nx,4\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_dataset(path)
        # The line in the file, not the record number: a quoted field of the
        # first data row spans lines 2 and 3.
        path = write(tmp_path, "d.csv", 'a,b,y\n"1\n",2,3\n1,x,3\n')
        with pytest.raises(CsvFormatError, match=r"^non-numeric value 'x' \(line 4\)$"):
            load_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="expected 2 fields"):
            load_dataset(path)
        path = write(tmp_path, "d.csv", 'a,b,y\n"1\n",2,3\n1,3\n')
        with pytest.raises(CsvFormatError, match=r"^expected 3 fields, found 2 \(line 4\)$"):
            load_dataset(path)

    @pytest.mark.parametrize("blank", ["\n", ",\n", " , \n"])
    def test_blank_rows_skipped(self, tmp_path, blank):
        path = write(tmp_path, "d.csv", f"a,y\n3,1\n{blank}4,2\n{blank}")
        data, _ = load_dataset(path)
        np.testing.assert_array_equal(data.y, [1, 2])
        np.testing.assert_allclose(data.X[:, 0], [0.6, 0.8])

    @pytest.mark.parametrize("load, text", [
        (load_dataset, "y\n1\n2\n"),
        (load_binary, "y\n1\n0\n"),
        (load_survival, "time,status\n1,1\n2,0\n"),
    ], ids=["gaussian", "binary", "survival"])
    def test_only_reserved_columns(self, tmp_path, load, text):
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(CsvFormatError, match=r"^no covariate columns found \(line 1\)$"):
            load(path)

    def test_duplicate_y_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "y,y\n1,2\n3,4\n")
        with pytest.raises(CsvFormatError, match="more than once"):
            load_dataset(path)


class TestLoadBinary:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "b.csv", "x,y\n0.5,1\n-0.5,0\n0.1,1\n")
        data, names = load_binary(path)
        assert names == ["x"]
        assert data.include_intercept

    def test_nonbinary_response_rejected(self, tmp_path):
        path = write(tmp_path, "b.csv", "x,y\n0.5,2\n-0.5,0\n")
        with pytest.raises(ValueError):
            load_binary(path)


class TestLoadSurvival:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,time,status\n0.5,1.2,1\n-0.5,0.7,0\n0.2,2.0,1\n")
        data, names = load_survival(path)
        assert names == ["x"]
        np.testing.assert_array_equal(data.status, [1, 0, 1])

    def test_missing_reserved_column(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,time\n0.5,1.2\n")
        with pytest.raises(CsvFormatError, match="'status'"):
            load_survival(path)


class TestLoadStatistics:
    def test_one_value_per_line(self, tmp_path):
        path = write(tmp_path, "v.txt", "1.5\n-0.25\n\n3e-2\n")
        np.testing.assert_allclose(load_statistics(path), [1.5, -0.25, 0.03])

    def test_non_numeric_line_number(self, tmp_path):
        path = write(tmp_path, "v.txt", "1.0\nhello\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_statistics(path)

    def test_empty(self, tmp_path):
        path = write(tmp_path, "v.txt", "\n\n")
        with pytest.raises(CsvFormatError):
            load_statistics(path)


class TestFormatCsv:
    def test_full_precision_floats(self):
        text = format_csv(["a", "b"], [[1, 0.1], [2, 1.0 / 3.0]])
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.1"
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0
