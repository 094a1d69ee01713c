"""CSV ingestion for the three dataset kinds.

Gaussian files carry a response column named ``y``; survival files reserve
``time`` and ``status``. Every other column is a covariate, kept in file
order. The noise variance is never read from a file; callers pass it
separately.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .glm import BinaryDataset, SurvivalDataset
from .linmodel import Dataset, standardize


class CsvFormatError(ValueError):
    """Malformed input file; carries a 1-based line number (where a row ends) when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


def _read_table(path: str, reserved: tuple[str, ...]) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]]:
    """Parse a headed CSV into covariate names/values and reserved columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
            for name in reserved:
                if header.count(name) > 1:
                    raise CsvFormatError(f"column {name!r} appears more than once", line=1)
                if name not in header:
                    raise CsvFormatError(f"missing required column {name!r}", line=1)
            rows = []
            for row in reader:
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"expected {len(header)} fields, found {len(row)}", reader.line_num)
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    bad = next(c for c in row if not _is_float(c))
                    raise CsvFormatError(f"non-numeric value {bad.strip()!r}", reader.line_num) from None
        except StopIteration:
            raise CsvFormatError("file is empty", line=1) from None
        except csv.Error as exc:  # a malformed or overlong field
            raise CsvFormatError(str(exc), line=reader.line_num) from None
    if not rows:
        raise CsvFormatError("file contains a header but no data rows", line=2)
    table = np.asarray(rows, dtype=float)
    special = {name: table[:, header.index(name)] for name in reserved}
    keep = [i for i, h in enumerate(header) if h not in reserved]
    names = [header[i] for i in keep]
    if not names:
        raise CsvFormatError("no covariate columns found", line=1)
    return names, table[:, keep], special


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_dataset(path: str, sigma2: float | None = None) -> tuple[Dataset, list[str]]:
    """Load a Gaussian regression CSV; covariate columns are rescaled to
    unit norm."""
    names, X, special = _read_table(path, reserved=("y",))
    X = standardize(X)
    return Dataset(X, special["y"], sigma2=sigma2), names


def load_binary(path: str) -> tuple[BinaryDataset, list[str]]:
    """Load a logistic regression CSV, fitted with an intercept; the response
    column y must be 0/1."""
    names, X, special = _read_table(path, reserved=("y",))
    return BinaryDataset(X, special["y"]), names


def load_survival(path: str) -> tuple[SurvivalDataset, list[str]]:
    """Load a survival CSV with reserved columns time and status."""
    names, X, special = _read_table(path, reserved=("time", "status"))
    return SurvivalDataset(X, special["time"], special["status"]), names


def load_statistics(path: str) -> np.ndarray:
    """Read a plain file of one real value per line (the statistics format)."""
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise CsvFormatError(f"non-numeric value {text!r}", line=lineno) from None
    if not values:
        raise CsvFormatError("file contains no values", line=1)
    return np.asarray(values)


def format_csv(header: list[str], rows: list[list]) -> str:
    """Render a CSV string with full-precision floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return buf.getvalue()
