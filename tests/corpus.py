"""Write every output of a fixed input grid, or compare two such corpora.

Usage, from the root of a checkout:

    python3 tests/corpus.py --write DIR
    python3 tests/corpus.py --compare A B

``--write`` draws its inputs with its own numpy code (PCG64 streams keyed by
integers, never ``sigtest.gen_design``) into ``DIR/inputs`` and runs the
``sigtest`` command line on them in this process, with ``DIR`` as the
working directory so that no output names an absolute path. Each run leaves
a ``.run.json`` record (arguments, exit code, standard error, warnings and
any uncaught exception) and, when it printed one, its table as ``.csv``,
``.json`` or ``.txt``. What the command line does not print goes to
``lib/``: the knots, the covariance statistics and every drop of AR(1)
paths; every drop and failure note of the logistic and Cox paths, and the
iterations, log-likelihood and coefficients (or the error) of ``glm_fit`` on
each model those paths reach.
Floats are written with ``repr``. The package is imported from ``src/`` of
the checkout that holds this file. ``DIR`` must be new or empty.

The grid, at sizes from (6, 6) to (150, 24), plus (100, 50), (40, 60) and (20, 30):

- ``test`` tables (CSV and JSON) for the three selectors, with
  ``--sigma2 1`` and with the plug-in sigma2, and ``path`` tables;
- identity designs with exact entry ties, and near-copy designs
  (x1 = x0 + eps z, eps from 1e-3 to 1e-12);
- a (40, 10) table with its response scaled by 1e-12 and by 1e6, also
  tested with ``--sigma2`` the square of the factor;
- logistic and Cox tables, separated ones, and tables with a duplicated or
  a zero column; a (40, 4) logistic table whose column 0 separates the
  classes but for two zeros, whose candidate fit diverges, and a (40, 4) Cox
  table whose column 0 orders the event times, whose line search fails;
- the ``simulate`` artifacts of all eight presets at 60 replications, and of
  ``fig1-left`` at ``alpha`` 0.5, the ``qq`` tables of their statistics,
  scenarios at extreme ``sigma``, a logistic scenario whose signal
  overflows ``exp``, logistic and Cox scenarios at (60, 12) tested at step
  3, a logistic scenario at n = 4 whose all-0 or all-1 draws fail, and a
  (100, 130) AR(1) scenario whose design spans three blocks of
  ``gen_design``'s triangular product;
- error paths, among them a negative ``seed``, a repeated and a non-integer
  ``beta`` index, a Cox signal too large to draw event times for and
  Gaussian response scales whose statistics would overflow, and every
  verb's ``--help``.

``--compare A B`` lists the files that are byte-identical in both corpora.
For every other file it gives, per field, the largest absolute and relative
difference of the floats, and the largest |a - b| / max(1, |a|, |b|), which
stays small where a value near 0 moves by round-off; and each change in a
discrete value (an integer, a string or a bool: ``j``, ``A``, an action, a
note, an exit code). It exits 0 when every file is byte-identical and 1
otherwise.

The name does not start with ``test_``, so pytest never collects this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import traceback
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sigtest import (  # noqa: E402
    cli,
    covariance_test,
    lars_path,
    lasso_steps,
    preset,
    preset_names,
    stepwise_path,
)
from sigtest.dataio import load_binary, load_dataset, load_survival  # noqa: E402
from sigtest.exceptions import SigtestError  # noqa: E402
from sigtest.glm import glm_fit, lrt_path  # noqa: E402

SEEDS = (3, 7, 11)
REPS = 60
SCALES = ("1e-12", "1e6")  # factors of the response of the scaled tables
MAX_CHANGES = 20  # discrete changes printed per file


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _ar1(rng: np.random.Generator, n: int, p: int, rho: float) -> np.ndarray:
    """Rows i.i.d. with coordinate covariance rho^|i-j|."""
    z = rng.standard_normal((n, p))
    X = z.copy()
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * z[:, j]
    return X


def _eta(X: np.ndarray, size: float) -> np.ndarray:
    """X beta for beta = size * (1, -1, 1, 0, ...), summed without BLAS."""
    beta = np.zeros(X.shape[1])
    beta[:3] = size * np.array([1.0, -1.0, 1.0])[:X.shape[1]]
    return (X * beta).sum(axis=1)


def _gaussian(key: tuple[int, ...], n: int, p: int, rho: float) -> np.ndarray:
    rng = _rng(*key)
    X = _ar1(rng, n, p, rho)
    return np.column_stack([X, _eta(X, 0.5) + rng.standard_normal(n)])


def _logistic(key: tuple[int, ...], n: int, p: int) -> np.ndarray:
    rng = _rng(*key)
    X = rng.standard_normal((n, p))
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-_eta(X, 0.7)))
    return np.column_stack([X, y.astype(float)])


def _cox(key: tuple[int, ...], n: int, p: int) -> np.ndarray:
    rng = _rng(*key)
    X = rng.standard_normal((n, p))
    event = rng.exponential(1.0, n) / np.exp(_eta(X, 0.7))
    censor = rng.exponential(9.0, n)  # censors 10% of rate-1 events
    return np.column_stack([X, np.minimum(event, censor), (event <= censor).astype(float)])


def _write_table(path: Path, table: np.ndarray, response: tuple[str, ...]) -> None:
    p = table.shape[1] - len(response)
    header = [f"x{j}" for j in range(p)] + list(response)
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in table]
    path.write_text("\n".join(lines) + "\n")


def _inputs() -> dict[str, tuple[str, np.ndarray]]:
    """Input name -> (family, table) for every table of the grid."""
    tables: dict[str, tuple[str, np.ndarray]] = {}
    for seed in SEEDS:
        for n, p in ((8, 6), (30, 12), (100, 50), (40, 60)):
            tables[f"gauss-{n}x{p}-s{seed}"] = ("gaussian", _gaussian((seed, 1, n, p), n, p, 0.5))
        for n, p in ((40, 8), (150, 24)):
            tables[f"logistic-{n}x{p}-s{seed}"] = ("logistic", _logistic((seed, 2, n, p), n, p))
            tables[f"cox-{n}x{p}-s{seed}"] = ("cox", _cox((seed, 3, n, p), n, p))
        for rho in (0.0, 0.5, 0.8, 0.9):
            for n, p in ((50, 20), (20, 30)):
                key = (seed, 4, n, p, round(100 * rho))
                tables[f"ar1-{n}x{p}-rho{rho}-s{seed}"] = ("ar1", _gaussian(key, n, p, rho))

    eye = np.eye(8)[:, :6]  # |x_j'y| ties: 3 and 3, 2 and 2, 1 and 1
    tables["ties-8x6"] = ("gaussian", np.column_stack([eye, [3, -3, 2, 2, 1, -1, 0.5, 0.25]]))
    tables["ties-6x6"] = ("gaussian", np.column_stack([np.eye(6), [2, 2, -2, 1, 1, 0.5]]))
    for scale in SCALES:  # y times c, tested also with sigma2 = c^2
        table = _gaussian((5, 10), 40, 10, 0.5)
        table[:, -1] *= float(scale)
        tables[f"scaled-{scale}"] = ("gaussian", table)
    for exponent in (3, 6, 9, 12):
        table = _gaussian((5, 5, exponent), 30, 12, 0.5)
        noise = _rng(5, 6, exponent).standard_normal(30)
        table[:, 1] = table[:, 0] + 10.0 ** -exponent * noise
        tables[f"near-copy-1e-{exponent}"] = ("gaussian", table)

    base = _logistic((5, 7), 40, 6)
    separated = base.copy()
    separated[:, -1] = (separated[:, 0] > 0).astype(float)
    tables["logistic-separated"] = ("logistic", separated)
    surv = _cox((5, 8), 40, 6)
    monotone = surv.copy()
    monotone[:, -2] = np.exp(-3.0 * monotone[:, 0])  # events ordered by x0
    monotone[:, -1] = 1.0
    tables["cox-monotone"] = ("cox", monotone)
    quasi = _rng(29)  # column 0 separates the classes but for one zero in each
    X = quasi.standard_normal((40, 4))
    y = (quasi.random(40) < 0.5).astype(float)
    X[:, 0] = np.where(y == 1.0, 1.0, -1.0) * np.abs(X[:, 0])
    X[[np.flatnonzero(y == 0.0)[0], np.flatnonzero(y == 1.0)[0]], 0] = 0.0
    tables["logistic-quasi-separated"] = ("logistic", np.column_stack([X, y]))
    X = _rng(3).standard_normal((40, 4))
    tables["cox-monotone-40x4"] = ("cox", np.column_stack([X, np.exp(-3.0 * X[:, 0]),
                                                           np.ones(40)]))
    no_events = surv.copy()
    no_events[:, -1] = 0.0
    tables["cox-no-events"] = ("cox", no_events)
    for family, table in (("gaussian", _gaussian((5, 9), 40, 6, 0.5)), ("logistic", base),
                          ("cox", surv)):
        duplicated, zero = table.copy(), table.copy()
        duplicated[:, 5] = duplicated[:, 2]
        zero[:, 5] = 0.0
        tables[f"{family}-duplicated"] = (family, duplicated)
        tables[f"{family}-zero-column"] = (family, zero)
    return tables


def _run_cli(argv: list[str]) -> tuple[dict, str]:
    """Run one command line in this process; its record and standard output."""
    out, err = io.StringIO(), io.StringIO()
    record: dict = {"argv": argv}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record["exit"] = cli.run(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            record["exit"] = exc.code
        except Exception as exc:  # a traceback is an output too
            record["exit"] = None
            record["exception"] = traceback.format_exception_only(exc)[-1].strip()
    record["stderr"] = err.getvalue()
    record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return record, out.getvalue()


def _save_run(name: str, argv: list[str]) -> None:
    record, stdout = _run_cli(argv)
    Path(name).parent.mkdir(parents=True, exist_ok=True)
    Path(f"{name}.run.json").write_text(json.dumps(record, indent=1) + "\n")
    if stdout:
        ext = "txt" if "--help" in argv else "json" if "json" in argv else "csv"
        Path(f"{name}.{ext}").write_text(stdout)


def _cli_runs(tables: dict[str, tuple[str, np.ndarray]]) -> list[tuple[str, list[str]]]:
    """(output name, argv) of every command-line run of the grid."""
    runs = [("help/sigtest", ["--help"])]
    runs += [(f"help/{verb}", [verb, "--help"]) for verb in ("path", "test", "simulate", "qq")]
    for name, (family, _table) in tables.items():
        src = f"inputs/{name}.csv"
        if family == "gaussian":
            if name.startswith("scaled-"):
                sigma2 = repr(float(name.removeprefix("scaled-")) ** 2)
                runs += [(f"test/{name}-{selector}-scaled-csv",
                          ["test", "--input", src, "--selector", selector, "--sigma2", sigma2])
                         for selector in ("max_r", "stepwise", "lasso")]
            for fmt in ("csv", "json"):
                runs.append((f"path/{name}-{fmt}", ["path", "--input", src, "--format", fmt]))
                for selector in ("max_r", "stepwise", "lasso"):
                    for label, extra in (("known", ["--sigma2", "1"]), ("plugin", [])):
                        runs.append((f"test/{name}-{selector}-{label}-{fmt}",
                                     ["test", "--input", src, "--selector", selector, *extra,
                                      "--format", fmt]))
        elif family in ("logistic", "cox"):
            for fmt in ("csv", "json"):
                runs.append((f"test/{name}-{fmt}",
                             ["test", "--input", src, "--family", family, "--format", fmt]))
    gauss = "inputs/gauss-30x12-s3.csv"
    runs += [
        ("errors/missing-input", ["test", "--input", "inputs/missing.csv", "--sigma2", "1"]),
        ("errors/alpha", ["test", "--input", gauss, "--sigma2", "1", "--alpha", "1.5"]),
        ("errors/sigma2", ["test", "--input", gauss, "--sigma2", "-1"]),
        ("errors/max-steps", ["path", "--input", gauss, "--max-steps", "99"]),
        ("errors/glm-selector", ["test", "--input", "inputs/logistic-40x8-s3.csv",
                                 "--family", "logistic", "--selector", "lasso"]),
        ("errors/family-choice", ["test", "--input", gauss, "--family", "poisson"]),
        ("errors/non-numeric", ["test", "--input", "inputs/non-numeric.csv", "--sigma2", "1"]),
        ("errors/qq-non-finite", ["qq", "--input", "inputs/non-finite.txt",
                                  "--reference", "gumbel"]),
        ("errors/unknown-preset", ["simulate", "--scenario", "nope", "--out", "sim/nope"]),
        ("errors/negative-seed", ["simulate", "--scenario", "fig1-left", "--seed", "-1",
                                  "--out", "sim/negative-seed"]),
        ("errors/repeated-beta", ["simulate", "--inline", json.dumps(
            {"family": "gaussian", "design": "orthogonal", "n": 30, "p": 10, "test": "gumbel",
             "reps": 2, "beta": [[0, 6], [0, 3]]}), "--out", "sim/repeated-beta"]),
        ("errors/mistyped-beta-index", ["simulate", "--inline", json.dumps(
            {"family": "gaussian", "design": "orthogonal", "n": 30, "p": 10, "test": "gumbel",
             "reps": 2, "beta": [[1.5, 6]]}), "--out", "sim/mistyped-beta-index"]),
        ("errors/cox-large-signal", ["simulate", "--inline", json.dumps(
            {"family": "cox", "design": "iid_gaussian", "n": 40, "p": 10, "test": "gumbel_glm",
             "reps": 5, "beta": [[0, 2000]]}), "--out", "sim/cox-large-signal"]),
    ]
    for name, test, fields in (("gumbel-sigma", "gumbel", {"sigma": 1e154}),
                               ("gumbel-beta", "gumbel", {"beta": [[0, 1e200]]}),
                               ("covariance-beta-sigma", "covariance",
                                {"beta": [[0, 1e155]], "sigma": 1e153}),
                               ("covariance-sigma", "covariance", {"sigma": 1e154})):
        inline = json.dumps({"family": "gaussian", "design": "orthogonal", "n": 30, "p": 10,
                             "test": test, "reps": 3, **fields})
        runs.append((f"errors/gaussian-scale-{name}",
                     ["simulate", "--inline", inline, "--out", f"sim/gaussian-scale-{name}"]))
    return runs


def _scenario_runs() -> list[tuple[str, list[str]]]:
    """(output name, argv) of every simulate run, and the qq runs that read two of them."""
    runs = []
    for name in preset_names():
        inline = json.dumps({**asdict(preset(name)), "reps": REPS})
        runs.append((f"sim/{name}", ["simulate", "--inline", inline, "--out", f"sim/{name}"]))
    inline = json.dumps({**asdict(preset("fig1-left")), "reps": REPS, "alpha": 0.5})
    runs.append(("sim/fig1-left-alpha-0.5",
                 ["simulate", "--inline", inline, "--out", "sim/fig1-left-alpha-0.5"]))
    for sigma in ("1e150", "1e200", "1e-170", "0", "-1"):
        text = ('{"family": "gaussian", "design": "orthogonal", "n": 30, "p": 10, '
                f'"test": "gumbel", "reps": 2, "sigma": {sigma}}}')
        out = f"sim/sigma-{sigma}"
        runs.append((out, ["simulate", "--inline", text, "--out", out]))
    inline = json.dumps({"family": "logistic", "design": "iid_gaussian", "n": 40, "p": 10,
                         "test": "gumbel_glm", "reps": 5, "beta": [[0, 2000]]})
    runs.append(("sim/logistic-large-signal",
                 ["simulate", "--inline", inline, "--out", "sim/logistic-large-signal"]))
    # Blocks of GLM replications that move in lockstep over three steps.
    for family, extra in (("logistic", {}), ("cox", {"censor_frac": 0.2})):
        inline = json.dumps({"family": family, "design": "iid_gaussian", "n": 60, "p": 12,
                             "test": "gumbel_glm", "k": 3, "reps": 37, "seed": 5,
                             "beta": [[0, 12.0], [1, -12.0]], **extra})
        runs.append((f"sim/{family}-k3", ["simulate", "--inline", inline, "--out",
                                          f"sim/{family}-k3"]))
    # n = 4: some draws are all 0 or all 1, failed replications inside a block.
    inline = json.dumps({"family": "logistic", "design": "iid_gaussian", "n": 4, "p": 5,
                         "test": "gumbel_glm", "reps": 37, "seed": 3})
    runs.append(("sim/logistic-degenerate",
                 ["simulate", "--inline", inline, "--out", "sim/logistic-degenerate"]))
    # p = 130 spans three blocks of gen_design's AR(1) product, so two block carries.
    inline = json.dumps({"family": "gaussian", "design": "ar1", "rho": -0.6, "n": 100,
                         "p": 130, "test": "gumbel", "k": 2, "reps": 20, "beta": [[70, 6.0]]})
    runs.append(("sim/ar1-p130", ["simulate", "--inline", inline, "--out", "sim/ar1-p130"]))
    for name in ("fig1-left", "cov-null"):
        for reference in ("gumbel", "exp1"):
            runs.append((f"qq/{name}-{reference}", ["qq", "--input", f"sim/{name}/statistics.csv",
                                                    "--reference", reference]))
    return runs


def _fit_record(data, A: list[int]) -> dict:
    """``glm_fit(data, A)``'s iterations, log-likelihood and coefficients, or its error."""
    try:
        fit = glm_fit(data, A)
    except SigtestError as exc:
        return {"A": A, "error": f"{type(exc).__name__}: {exc}"}
    return {"A": A, "iterations": fit.iterations, "loglik": float(fit.loglik),
            "coefficients": [float(b) for b in fit.coefficients]}


def _library_record(family: str, path: Path) -> dict:
    """Knots, covariance statistics and drops (AR(1)), or drops and failures
    and the fits from zero of each model on the path (GLM)."""

    def steps_record(steps):
        return [{"k": s.k, "A": list(s.A), "j": s.j, "conservative": s.conservative,
                 "failures": list(s.failures), "drops": [float(d) for d in s.drops]}
                for s in steps]

    record: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if family == "ar1":
                data, _names = load_dataset(str(path), sigma2=1.0)
                lasso = lars_path(data)
                record["knots"] = [{"k": kn.k, "lambda": float(kn.lam), "entering": kn.entering,
                                    "action": kn.action, "active_after": list(kn.active_after)}
                                   for kn in lasso.knots]
                tests = []
                for k in range(1, len(lasso.entry_positions)):
                    try:
                        out = covariance_test(lasso, k)
                        tests.append({**out.to_json_dict(), "decomposition": out.decomposition})
                    except SigtestError as exc:
                        tests.append({"k": k, "error": f"{type(exc).__name__}: {exc}"})
                record["covariance"] = tests
                record["stepwise"] = steps_record(stepwise_path(data))
                record["lasso_steps"] = steps_record(lasso_steps(lasso))
            else:
                load = load_binary if family == "logistic" else load_survival
                data = load(str(path))[0]
                steps = lrt_path(data)
                record["lrt_path"] = steps_record(steps)
                models = [list(s.A) for s in steps] + [
                    [*s.A, s.j] for s in steps[-1:] if s.j is not None]
                record["glm_fit"] = [_fit_record(data, A) for A in models]
        except (SigtestError, ValueError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
    record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return record


def write(directory: Path) -> int:
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        sys.exit(f"corpus: {directory} is not empty")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    start = time.perf_counter()
    tables = _inputs()
    here = os.getcwd()
    os.chdir(directory)
    try:
        Path("inputs").mkdir()
        for name, (family, table) in tables.items():
            response = ("time", "status") if family == "cox" else ("y",)
            _write_table(Path("inputs") / f"{name}.csv", table, response)
        Path("inputs/non-numeric.csv").write_text("x0,x1,y\n1.0,2.0,3.0\n1.0,oops,2.0\n")
        Path("inputs/non-finite.txt").write_text("1.0\nnan\n2.0\n")
        for name, argv in _cli_runs(tables) + _scenario_runs():
            _save_run(name, argv)
        Path("lib").mkdir()
        for name, (family, _table) in tables.items():
            if family != "gaussian":
                record = _library_record(family, Path("inputs") / f"{name}.csv")
                Path(f"lib/{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        os.chdir(here)
    count = sum(1 for p in directory.rglob("*") if p.is_file())
    print(f"corpus: wrote {count} files to {directory} in {time.perf_counter() - start:.1f} s")
    return 0


# --- compare ---------------------------------------------------------------

def _cell(text: str):
    """A CSV cell as an int, a float or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _json_leaves(value, where: str = "", field: str = ""):
    """(location, field, scalar) for each scalar of a JSON value; the field
    is the key path without list positions."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, f"{where}.{key}", f"{field}.{key}" if field else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, f"{where}[{i}]", field)
    else:
        yield where, field, value


def _leaves(path: Path) -> dict[str, tuple[str, object]]:
    """location -> (field, value) of every value in a corpus file."""
    text = path.read_text()
    if path.suffix == ".json":
        return {where: (field, value) for where, field, value in _json_leaves(json.loads(text))}
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        headed = rows and not all(isinstance(_cell(c), (int, float)) for c in rows[0])
        header = rows[0] if headed else []
        out = {}
        for r, row in enumerate(rows[1:] if headed else rows, start=1):
            for c, cell in enumerate(row):
                field = header[c] if c < len(header) else f"column {c}"
                out[f"row {r}, {field}"] = (field, _cell(cell))
        return out
    return {f"line {i}": ("line", line) for i, line in enumerate(text.splitlines(), start=1)}


def _diff(a: Path, b: Path) -> list[str]:
    """The report lines of one file that is not byte-identical."""
    left, right = _leaves(a), _leaves(b)
    numeric: dict[str, list[float]] = {}  # field -> [max abs, max rel, scaled, count]
    changes = []
    for where in list(left) + [w for w in right if w not in left]:  # file order
        if where not in right:
            changes.append(f"{where}: only in A: {left[where][1]!r}")
            continue
        if where not in left:
            changes.append(f"{where}: only in B: {right[where][1]!r}")
            continue
        (field, x), (_field, y) = left[where], right[where]
        if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
            if repr(x) != repr(y):
                size = abs(x - y)
                entry = numeric.setdefault(field, [0.0, 0.0, 0.0, 0])
                entry[0] = max(entry[0], size)
                entry[1] = max(entry[1], size / max(abs(x), abs(y)) if size else 0.0)
                entry[2] = max(entry[2], size / max(1.0, abs(x), abs(y)))
                entry[3] += 1
        elif type(x) is not type(y) or repr(x) != repr(y):
            changes.append(f"{where}: {x!r} -> {y!r}")
    lines = [f"  {field}: {count} values differ, max abs {size:.3g}, max rel {rel:.3g}, "
             f"max abs/max(1,|x|) {scaled:.3g}"
             for field, (size, rel, scaled, count) in sorted(numeric.items())]
    lines += [f"  changed {line}" for line in changes[:MAX_CHANGES]]
    if len(changes) > MAX_CHANGES:
        lines.append(f"  ... and {len(changes) - MAX_CHANGES} more changes")
    return lines or ["  bytes differ, values equal"]


def compare(a: Path, b: Path) -> tuple[list[str], dict[str, list[str]]]:
    """The byte-identical files, and the report lines of every other file
    (a file in only one corpus reports that)."""
    names_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    same, reports = [], {}
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            reports[name] = [f"  only in {'A' if name in names_a else 'B'}"]
        elif (a / name).read_bytes() == (b / name).read_bytes():
            same.append(name)
        else:
            reports[name] = _diff(a / name, b / name)
    return same, reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="corpus.py", description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", type=Path, metavar="DIR")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.write is not None:
        return write(args.write)
    same, reports = compare(*args.compare)
    print(f"byte-identical: {len(same)} files")
    print("".join(f"  {name}\n" for name in same), end="")
    for name, lines in reports.items():
        print(f"differs: {name}")
        print("\n".join(lines))
    print(f"{len(same)} byte-identical, {len(reports)} differ")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
