"""Command-line front end: path, test, simulate, and qq verbs.

Emits CSV/JSON artifacts suitable for external plotting. Exit codes are a
stable contract: 0 success, 2 input or validation problem, 3 numerical or
rank problem, 4 missing noise variance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace

from .dataio import (
    CsvFormatError,
    format_csv,
    load_binary,
    load_dataset,
    load_statistics,
    load_survival,
)
from .exceptions import (
    DegenerateVarianceError,
    MissingVarianceError,
    NoEventsError,
    NotEstimableError,
    PathTooShortError,
    SigtestError,
    UnsupportedStepError,
)
from .glm import best_candidate, gumbel_test_glm, lrt_drops_all
from .lasso import lars_path
from .linmodel import estimate_sigma2
from .montecarlo import Scenario, preset, preset_names, qq_points, run_scenario
from .selection import lasso_steps, stepwise_path
from .significance import covariance_test, gumbel_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VARIANCE = 4


@dataclass
class RunConfig:
    """Resolved options for one CLI invocation."""

    verb: str
    input: str | None = None
    scenario: str | None = None
    inline: str | None = None
    alpha: float = 0.05
    sigma2: float | None = None
    selector: str = "max_r"
    family: str = "gaussian"
    seed: int | None = None
    output: str | None = None
    out_dir: str = "."
    fmt: str = "csv"
    reference: str = "gumbel"
    max_steps: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.sigma2 is not None and self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")


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


def _emit(config: RunConfig, text: str) -> None:
    if config.output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(config.output, text)


def cmd_path(config: RunConfig) -> int:
    """Write the knot table of the lasso path for a Gaussian CSV dataset."""
    data, _names = load_dataset(config.input, sigma2=config.sigma2)
    path = lars_path(data, max_steps=config.max_steps)
    rows = [[kn.k, float(kn.lam), kn.entering, kn.action,
             ";".join(str(i) for i in kn.active_after)]
            for kn in path.knots]
    if config.fmt == "json":
        records = [{"k": kn.k, "lambda": float(kn.lam), "entering": kn.entering,
                    "action": kn.action, "active_set": list(kn.active_after)}
                   for kn in path.knots]
        _emit(config, json.dumps(records, indent=2) + "\n")
    else:
        _emit(config, format_csv(["k", "lambda", "entering", "action", "active_set"], rows))
    return EXIT_OK


def _gaussian_test_rows(config: RunConfig):
    data, _names = load_dataset(config.input, sigma2=config.sigma2)
    plug_in = False
    if data.sigma2 is None:
        sigma2 = estimate_sigma2(data)  # raises NotEstimableError when n <= p
        data = replace(data, sigma2=sigma2)
        plug_in = True
    path = lars_path(data)
    if config.selector == "lasso":
        steps = lasso_steps(path, data)
    else:
        steps = stepwise_path(data, selector="stepwise" if config.selector == "stepwise" else "max_r")
    if config.max_steps is not None:
        steps = steps[: config.max_steps]

    rows, records = [], []
    for step in steps:
        notes = []
        if plug_in:
            notes.append("plug-in-sigma2")
        tilde = cov = None
        if step.m_remaining >= 3:
            tilde = gumbel_test(step, alpha=config.alpha)
            if plug_in:
                tilde = replace(tilde, warnings=tilde.warnings + ("plug-in-sigma2",))
            records.append(tilde)
        else:
            notes.append("too-few-remaining")
        try:
            cov = covariance_test(path, data, step.k, alpha=config.alpha)
            if plug_in:
                cov = replace(cov, warnings=cov.warnings + ("plug-in-sigma2",))
            records.append(cov)
        except PathTooShortError:
            notes.append("no-next-knot")
        except UnsupportedStepError:
            notes.append("deletion-between-entries")
        rows.append([
            step.k, step.j, ";".join(str(i) for i in step.A), float(step.r_j),
            step.selector, step.conservative,
            float(tilde.statistic) if tilde else "",
            float(tilde.correction) if tilde else "",
            float(tilde.p_value) if tilde else "",
            tilde.reject if tilde else "",
            float(cov.statistic) if cov else "",
            float(cov.p_value) if cov else "",
            cov.reject if cov else "",
            ";".join(notes),
        ])
    return rows, records


def _glm_test_rows(config: RunConfig):
    if config.family == "logistic":
        data, _names = load_binary(config.input)
    else:
        data, _names = load_survival(config.input)
    rows, records = [], []
    A: list[int] = []
    limit = config.max_steps if config.max_steps is not None else data.p
    for k in range(1, limit + 1):
        if data.p - len(A) == 0:
            break
        notes: list[str] = []
        outcome = None
        if data.p - len(A) >= 3:
            try:
                outcome = gumbel_test_glm(config.family, data, A, alpha=config.alpha)
            except SigtestError as exc:
                rows.append([k, "", ";".join(str(i) for i in A), "", config.family,
                             False, "", "", "", "", "", "", "",
                             f"test-failed:{type(exc).__name__}"])
                break
            records.append(outcome)
            notes.extend(outcome.warnings)
            j = outcome.j
            best = outcome.statistic + outcome.correction
        else:
            notes.append("too-few-remaining")
            try:
                drops, failures = lrt_drops_all(config.family, data, A)
            except SigtestError as exc:
                rows.append([k, "", ";".join(str(i) for i in A), "", config.family,
                             False, "", "", "", "", "", "", "",
                             f"base-fit-failed:{type(exc).__name__}"])
                break
            notes.extend(failures)
            if not drops:
                break
            j, best = best_candidate(drops)
        rows.append([
            k, j, ";".join(str(i) for i in A), float(best), config.family, False,
            float(outcome.statistic) if outcome else "",
            float(outcome.correction) if outcome else "",
            float(outcome.p_value) if outcome else "",
            outcome.reject if outcome else "",
            "", "", "",
            ";".join(notes),
        ])
        A.append(j)
    return rows, records


def cmd_test(config: RunConfig) -> int:
    """Run the significance tests step by step over a CSV dataset."""
    if config.family == "gaussian":
        rows, records = _gaussian_test_rows(config)
    else:
        rows, records = _glm_test_rows(config)
    if config.fmt == "json":
        _emit(config, json.dumps([r.to_json_dict() for r in records], indent=2) + "\n")
    else:
        header = ["k", "j", "A", "r_j", "selector", "conservative",
                  "gumbel_statistic", "correction", "gumbel_p", "gumbel_reject",
                  "cov_statistic", "cov_p", "cov_reject", "note"]
        _emit(config, format_csv(header, rows))
    return EXIT_OK


_SCENARIO_FIELDS = {f.name for f in fields(Scenario)}


def _parse_inline_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"inline scenario is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("inline scenario must be a JSON object")
    unknown = set(raw) - _SCENARIO_FIELDS
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    if "beta" in raw:
        raw["beta"] = tuple((int(i), float(v)) for i, v in raw["beta"])
    for req in ("family", "design", "n", "p", "test"):
        if req not in raw:
            raise ValueError(f"inline scenario missing required field {req!r}")
    return Scenario(**{**{"name": "inline"}, **raw})


def cmd_simulate(config: RunConfig) -> int:
    """Run a scenario and write statistics.csv, qq.csv, and summary.json."""
    if config.inline is not None:
        scenario = _parse_inline_scenario(config.inline)
        if config.seed is not None:
            scenario = replace(scenario, seed=config.seed)
    else:
        try:
            scenario = preset(config.scenario, seed=config.seed)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    scenario.validate()
    summary = run_scenario(scenario)

    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    stats_text = "".join(repr(float(x)) + "\n" for x in summary.statistics)
    _atomic_write(os.path.join(out, "statistics.csv"), stats_text)
    qq_rows = [[float(t), float(e)] for t, e in summary.qq]
    _atomic_write(os.path.join(out, "qq.csv"), format_csv(["theoretical", "empirical"], qq_rows))
    _atomic_write(os.path.join(out, "summary.json"),
                  json.dumps(summary.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_qq(config: RunConfig) -> int:
    """Emit reference-quantile / order-statistic pairs for a statistics file."""
    stats = load_statistics(config.input)
    pairs = qq_points(stats, config.reference)
    rows = [[float(t), float(e)] for t, e in pairs]
    _emit(config, format_csv(["theoretical", "empirical"], rows))
    return EXIT_OK


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

    p_test = sub.add_parser("test", help="run the significance tests on a dataset")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--sigma2", type=float, default=None)
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--selector", choices=("max_r", "stepwise", "lasso"), default="max_r")
    p_test.add_argument("--family", choices=("gaussian", "logistic", "cox"), default="gaussian")
    p_test.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p_test.add_argument("--output", default=None)
    p_test.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", default=None,
                       help=f"preset name; one of: {', '.join(preset_names())}")
    group.add_argument("--inline", default=None, help="scenario as a JSON object")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=".", dest="out_dir")

    p_qq = sub.add_parser("qq", help="quantile pairs for a file of statistics")
    p_qq.add_argument("--input", required=True)
    p_qq.add_argument("--reference", choices=("gumbel", "exp1"), required=True)
    p_qq.add_argument("--output", default=None)
    return parser


_COMMANDS = {"path": cmd_path, "test": cmd_test, "simulate": cmd_simulate, "qq": cmd_qq}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    kwargs = {k: v for k, v in vars(ns).items() if v is not None}
    try:
        config = RunConfig(**kwargs)
        return _COMMANDS[config.verb](config)
    except (CsvFormatError, ValueError, KeyError, NoEventsError) as exc:
        print(f"sigtest: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MissingVarianceError, NotEstimableError, DegenerateVarianceError) as exc:
        print(f"sigtest: error: {exc}", file=sys.stderr)
        return EXIT_VARIANCE
    except SigtestError as exc:
        print(f"sigtest: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
