"""Traced run: spans around the calls into each sigtest module's public functions.

``Tracer.install`` rebinds every listed function in every ``sigtest`` module
namespace that holds it (``significance.lasso_solve``, ``cli.load_dataset``,
...), so calls between modules are caught as well as the benchmark's own.
Nothing under ``src/`` changes. Each call leaves one span
``[layer, start, end, parent, op]`` in memory; self time is a span's duration
minus the durations of its child spans. Counts are read from return values
only.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, public function) -> layer name used in the per-layer metrics.
TRACED = {
    ("cli", "run"): "cli.run",
    ("dataio", "load_dataset"): "dataio.load",
    ("dataio", "load_binary"): "dataio.load",
    ("dataio", "load_survival"): "dataio.load",
    ("dataio", "format_csv"): "dataio.format_csv",
    ("montecarlo", "gen_design"): "montecarlo.gen_design",
    ("montecarlo", "gen_response"): "montecarlo.gen_response",
    ("montecarlo", "qq_points"): "montecarlo.aggregate",
    ("montecarlo", "ks_distance"): "montecarlo.aggregate",
    ("montecarlo", "run_scenario"): "montecarlo.run_scenario",
    ("selection", "stepwise_path"): "selection.stepwise_path",
    ("selection", "lasso_steps"): "selection.lasso_steps",
    ("linmodel", "r_stats_batch"): "linmodel.r_stats_batch",
    ("linmodel", "least_squares"): "linmodel.least_squares",
    ("linmodel", "r_stat"): "linmodel.r_stat",
    ("lasso", "lars_path"): "lasso.lars_path",
    ("lasso", "lasso_solve"): "lasso.lasso_solve",
    ("lasso", "solve_at"): "lasso.solve_at",
    ("significance", "covariance_test"): "significance.covariance_test",
    ("significance", "gumbel_test"): "significance.gumbel_test",
    ("glm", "logistic_fit"): "glm.logistic_fit",
    ("glm", "cox_fit"): "glm.cox_fit",
    ("glm", "lrt_drops_all"): "glm.lrt_drops_all",
    ("glm", "gumbel_test_glm"): "glm.gumbel_test_glm",
}

# Layers whose call count and self time are reported.
CALL_LAYERS = (
    "dataio.load", "selection.stepwise_path", "selection.lasso_steps",
    "linmodel.r_stats_batch", "linmodel.least_squares", "linmodel.r_stat",
    "lasso.lars_path", "lasso.lasso_solve", "lasso.solve_at",
    "significance.covariance_test", "significance.gumbel_test",
    "glm.logistic_fit", "glm.cox_fit", "glm.lrt_drops_all", "glm.gumbel_test_glm",
)
# Layers whose self time only is reported.
SELF_LAYERS = (
    "cli.run", "dataio.format_csv", "montecarlo.gen_design", "montecarlo.gen_response",
    "montecarlo.aggregate", "montecarlo.run_scenario",
)
# Counts read from return values.
COUNTS = (
    "montecarlo.rep_failures", "selection.conservative_steps", "lasso.knots_traced",
    "lasso.deletions", "lasso.entry_ties", "significance.route_disagreements",
    "glm.logistic_fit.newton_iters", "glm.cox_fit.newton_iters",
    "glm.candidate_fit_failures",
)
RATIOS = ("lasso.knots_useful_ratio", "glm.fits_useful_ratio")

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """In-memory span recorder; ``install`` and ``uninstall`` bracket traced calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Numerators and denominators of the ratios.
        self._knots_useful = 0
        self._fits_useful = 0
        self._fits_attempted = 0

    def begin_op(self, op: int) -> None:
        self.op = op

    def install(self) -> None:
        modules = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("sigtest.")}
        modules[""] = sys.modules["sigtest"]
        for (module, func), layer in TRACED.items():
            original = getattr(modules.get(module), func, None)
            if original is None:
                continue  # a function a later version dropped: its metrics read 0
            wrapper = self._wrap(layer, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        on_result = getattr(self, "_on_" + fn.__name__, None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(index)
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(rec, result)
            return result

        return traced

    # Count readers, one per traced function whose return value carries counts.

    def _on_lars_path(self, rec, path) -> None:
        knots = len(path.knots)
        self.counts["lasso.knots_traced"] += knots
        self.counts["lasso.deletions"] += sum(kn.action == "leave" for kn in path.knots)
        self.counts["lasso.entry_ties"] += sum(w.startswith("entry tie") for w in path.warnings)
        parent = rec[_PARENT]
        if parent < 0 or self.spans[parent][_NAME] != "lasso.lasso_solve":
            self._knots_useful += knots

    def _on_steps(self, rec, steps) -> None:
        self.counts["selection.conservative_steps"] += sum(s.conservative for s in steps)

    _on_stepwise_path = _on_lasso_steps = _on_steps

    def _on_outcome(self, rec, outcome) -> None:
        self.counts["significance.route_disagreements"] += sum(
            w.startswith("covariance statistic routes disagree") for w in outcome.warnings)

    _on_covariance_test = _on_gumbel_test = _on_outcome

    def _on_logistic_fit(self, rec, fit) -> None:
        self.counts["glm.logistic_fit.newton_iters"] += fit.iterations

    def _on_cox_fit(self, rec, fit) -> None:
        self.counts["glm.cox_fit.newton_iters"] += fit.iterations

    def _on_lrt_drops_all(self, rec, result) -> None:
        drops, failures = result
        self.counts["glm.candidate_fit_failures"] += len(failures)
        self._fits_useful += len(drops)
        # One base fit plus one fit per candidate.
        self._fits_attempted += 1 + len(drops) + len(failures)

    def _on_run_scenario(self, rec, summary) -> None:
        self.counts["montecarlo.rep_failures"] += sum(summary.failure_reasons.values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time, counts and ratios as name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _op in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][_NAME]] += end - start
        out: dict[str, tuple[float, str]] = {}
        for layer in CALL_LAYERS:
            out[layer + ".calls"] = (calls[layer], "count")
        for layer in CALL_LAYERS + SELF_LAYERS:
            out[layer + ".self_s"] = (total[layer] - child[layer], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        traced = self.counts["lasso.knots_traced"]
        out["lasso.knots_useful_ratio"] = (self._knots_useful / traced if traced else 0.0, "ratio")
        out["glm.fits_useful_ratio"] = (
            self._fits_useful / self._fits_attempted if self._fits_attempted else 0.0, "ratio")
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: layer, start, end, parent index, operation id."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
