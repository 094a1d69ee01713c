"""Command-line front end: path, test, simulate, and qq verbs.

Emits CSV/JSON artifacts suitable for external plotting. Exit codes are a
stable contract: 0 success, 2 input or validation problem (also an input
file that cannot be read), 3 numerical or rank problem, 4 missing noise
variance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, fields, replace

from .dataio import (
    format_csv,
    load_binary,
    load_dataset,
    load_statistics,
    load_survival,
)
from .exceptions import (
    DegenerateVarianceError,
    MissingVarianceError,
    NotEstimableError,
    PathTooShortError,
    SigtestError,
    UnreliableMaxError,
    UnsupportedStepError,
)
from .glm import lrt_path
from .lasso import lars_path
from .linmodel import _check_max_steps, estimate_sigma2
from .montecarlo import FAMILIES, Scenario, preset, preset_names, qq_points, run_scenario
from .selection import SELECTORS, lasso_steps, stepwise_path
from .significance import REFERENCES, _check_alpha, covariance_test, gumbel_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VARIANCE = 4
QQ_HEADER = ["theoretical", "empirical"]  # simulate's qq.csv and the qq verb


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sigtest-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(args.output, text)


def cmd_path(args: argparse.Namespace) -> int:
    """Write the knot table of the lasso path for a Gaussian CSV dataset."""
    data, _names = load_dataset(args.input)
    path = lars_path(data, max_steps=args.max_steps)
    header = ["k", "lambda", "entering", "action", "active_set"]
    rows = [[kn.k, float(kn.lam), kn.entering, kn.action, list(kn.active_after)]
            for kn in path.knots]
    if args.fmt == "json":
        _emit(args, json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n")
    else:
        _emit(args, format_csv(header, [row[:-1] + [";".join(map(str, row[-1]))]
                                        for row in rows]))
    return EXIT_OK


def _cells(outcome, *names: str) -> list:
    """The named fields of a test outcome as table cells; blanks without one."""
    return [getattr(outcome, name) if outcome else "" for name in names]


def _test_rows(args: argparse.Namespace):
    """One table row per selection step, and the test outcomes for JSON. The
    Gaussian family adds the covariance test's cells and, when it estimates
    sigma2, the plug-in note."""
    plug_in, path = (), None
    if args.family == "gaussian":
        data, _names = load_dataset(args.input, sigma2=args.sigma2)
        # Scenario's Gaussian bound: each drop and statistic is at most 2 ||y||^2 / min(1, sigma2),
        # so below 2^1015. An unknown sigma2 counts as 1 (the plug-in estimate is at least
        # 1e-24 ||y||^2). math.hypot rescales as it sums, so ||y|| cannot overflow on the way.
        if math.hypot(*data.y) / math.sqrt(min(1.0, data.sigma2 or 1.0)) > 2.0**507:
            raise ValueError("response y and --sigma2 need ||y|| / min(1, sqrt(sigma2)) <= 2^507"
                             " for finite statistics")
        _check_max_steps(args.max_steps, "min(n, p)", min(data.n, data.p))
        if data.sigma2 is None:  # estimate_sigma2 raises NotEstimableError when n <= p
            plug_in = ("plug-in-sigma2",)
            data = replace(data, sigma2=estimate_sigma2(data))
        path = lars_path(data)  # uncapped: the covariance test needs the next knot
        if args.selector == "lasso":
            steps = lasso_steps(path, max_steps=args.max_steps)
        else:
            steps = stepwise_path(data, max_steps=args.max_steps, selector=args.selector or "max_r")
    else:
        if args.selector is not None or args.sigma2 is not None:
            raise ValueError("--selector and --sigma2 apply only to the gaussian family")
        load = load_binary if args.family == "logistic" else load_survival
        steps = lrt_path(load(args.input)[0], args.max_steps)

    rows, records = [], []
    for step in steps:
        testable = step.m_remaining >= 3
        notes = list(plug_in) if testable else [*plug_in, "too-few-remaining"]
        tilde = cov = None
        try:
            if testable:
                tilde = gumbel_test(step, alpha=args.alpha)
                records.append(tilde)
            elif step.j is None:
                raise UnreliableMaxError("every candidate fit failed")
        except UnreliableMaxError as exc:
            notes.append(f"test-failed:{type(exc).__name__}")
            rows.append([step.k, "", ";".join(str(i) for i in step.A), "", step.selector, False,
                         *[""] * 7, ";".join(notes + list(step.failures))])
            break
        if path is not None:
            try:
                cov = covariance_test(path, step.k, alpha=args.alpha)
                records.append(cov)
            except PathTooShortError:
                notes.append("no-next-knot")
            except UnsupportedStepError:
                notes.append("deletion-between-entries")
        rows.append([
            step.k, step.j, ";".join(str(i) for i in step.A), float(step.r_j),
            step.selector, step.conservative,
            *_cells(tilde, "statistic", "correction", "p_value", "reject"),
            *_cells(cov, "statistic", "p_value", "reject"),
            ";".join(notes + list(step.failures)),
        ])
    if plug_in:
        records = [replace(r, warnings=r.warnings + plug_in) for r in records]
    return rows, records


def cmd_test(args: argparse.Namespace) -> int:
    """Run the significance tests step by step over a CSV dataset."""
    _check_alpha(args.alpha)
    rows, records = _test_rows(args)
    if args.fmt == "json":
        _emit(args, json.dumps([r.to_json_dict() for r in records], indent=2) + "\n")
    else:
        header = ["k", "j", "A", "r_j", "selector", "conservative",
                  "gumbel_statistic", "correction", "gumbel_p", "gumbel_reject",
                  "cov_statistic", "cov_p", "cov_reject", "note"]
        _emit(args, format_csv(header, rows))
    return EXIT_OK


def _parse_inline_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"inline scenario is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("inline scenario must be a JSON object")
    unknown = raw.keys() - {f.name for f in fields(Scenario)}
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    for req in (f.name for f in fields(Scenario) if f.default is MISSING):
        if req not in raw:
            raise ValueError(f"inline scenario missing required field {req!r}")
    return Scenario(**{**{"name": "inline"}, **raw})


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a scenario and write statistics.csv, qq.csv, and summary.json."""
    if args.inline is not None:
        scenario = _parse_inline_scenario(args.inline)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
    else:
        try:
            scenario = preset(args.scenario, seed=args.seed)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    summary = run_scenario(scenario)

    out = args.out_dir
    stats_text = "".join(repr(float(x)) + "\n" for x in summary.statistics)
    _atomic_write(os.path.join(out, "statistics.csv"), stats_text)
    _atomic_write(os.path.join(out, "qq.csv"), format_csv(QQ_HEADER, summary.qq))
    _atomic_write(os.path.join(out, "summary.json"),
                  json.dumps(summary.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_qq(args: argparse.Namespace) -> int:
    """Emit reference-quantile / order-statistic pairs for a statistics file."""
    _emit(args, format_csv(QQ_HEADER, qq_points(load_statistics(args.input), args.reference)))
    return EXIT_OK


@functools.cache  # built once: parse_args leaves a parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigtest",
        description="Significance tests for variables entering lasso and stepwise paths")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_path = sub.add_parser("path", help="emit the lasso path knot table")
    p_path.add_argument("--input", required=True)
    p_path.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p_path.add_argument("--output", default=None)
    p_path.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p_path.set_defaults(command=cmd_path)

    p_test = sub.add_parser("test", help="run the significance tests on a dataset")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--sigma2", type=float, default=None)
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--selector", choices=SELECTORS, default=None)
    p_test.add_argument("--family", choices=FAMILIES, default="gaussian")
    p_test.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p_test.add_argument("--output", default=None)
    p_test.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p_test.set_defaults(command=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", default=None,
                       help=f"preset name; one of: {', '.join(preset_names())}")
    group.add_argument("--inline", default=None, help="scenario as a JSON object")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=".", dest="out_dir")
    p_sim.set_defaults(command=cmd_simulate)

    p_qq = sub.add_parser("qq", help="quantile pairs for a file of statistics")
    p_qq.add_argument("--input", required=True)
    p_qq.add_argument("--reference", choices=REFERENCES, required=True)
    p_qq.add_argument("--output", default=None)
    p_qq.set_defaults(command=cmd_qq)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.command(args)
    except (ValueError, KeyError, OSError, SigtestError) as exc:  # CsvFormatError too
        print(f"sigtest: error: {exc}", file=sys.stderr)
        if isinstance(exc, (ValueError, KeyError, OSError)):
            return EXIT_INPUT
        variance = (MissingVarianceError, NotEstimableError, DegenerateVarianceError)
        return EXIT_VARIANCE if isinstance(exc, variance) else EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
