"""Output checks, written independently of sigtest's own code.

Three kinds of check, each returning a list of problems (empty when the
output is right):

* calibration summaries: the KS distance and the 5% rejection rate are
  recomputed here from the per-replication statistics;
* ``sigtest test`` tables: every row is re-derived from its own cells (the
  Gumbel centering and p-value, the exponential p-value, the model chain);
* reference records: outputs of fixed inputs are compared with the values
  recorded in ``reference.json`` at the commit that introduced the
  benchmark, at relative tolerance ``RTOL`` with absolute floor ``ATOL``.
"""

from __future__ import annotations

import math

import numpy as np

# Floats agree when |a - b| <= ATOL + RTOL * |b|. Reductions in BLAS may
# round differently across CPUs; 1e-9 is far above that and far below any
# change a faster algorithm could make to a statistic without being wrong.
RTOL = 1e-9
ATOL = 1e-9
FAILURE_NOTES = ("test-failed:", "base-fit-failed:")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def reference_sf(reference: str, x: float) -> float:
    """Upper tail of Gumbel(-log pi, 2) or of the standard exponential."""
    if reference == "gumbel":
        return -math.expm1(-math.exp(-(x + math.log(math.pi)) / 2.0))
    return math.exp(-x) if x > 0 else 1.0


def ks_distance(stats: np.ndarray, reference: str) -> float:
    x = np.sort(stats)
    n = x.size
    cdf = np.array([1.0 - reference_sf(reference, float(v)) for v in x])
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def check_summary(summary, reps: int, reference: str) -> list[str]:
    stats = np.asarray(summary.statistics, dtype=float)
    problems = []
    if stats.size + summary.failures != reps:
        problems.append(f"{stats.size} statistics + {summary.failures} failures != {reps} reps")
    if not np.all(np.isfinite(stats)):
        return problems + ["non-finite statistic"]
    ks = ks_distance(stats, reference)
    if not close(summary.ks, ks):
        problems.append(f"ks {summary.ks!r} != recomputed {ks!r}")
    rate = float(np.mean([reference_sf(reference, float(s)) <= 0.05 for s in stats]))
    if not close(summary.rejection_rate_05, rate):
        problems.append(f"rejection rate {summary.rejection_rate_05!r} != recomputed {rate!r}")
    return problems


def failure_note(note: str) -> bool:
    return any(part.startswith(FAILURE_NOTES) for part in note.split(";"))


def check_test_table(rows: list[list[str]], p: int, steps: int | None,
                     alpha: float = 0.05) -> list[str]:
    """Re-derive each row of a ``sigtest test`` CSV table (header removed).

    ``steps`` is the expected row count, or None when it depends on the path
    (the lasso selector gives one row per entry event).
    """
    problems = []
    if steps is not None and len(rows) != steps:
        problems.append(f"{len(rows)} rows, expected {steps}")
    prev = None
    for i, row in enumerate(rows, start=1):
        if len(row) != 14:
            return problems + [f"row {i} has {len(row)} cells"]
        k, j, A, r_j, selector, _cons, g_stat, corr, g_p, g_rej, c_stat, c_p, c_rej, note = row
        where = f"row {i}"
        if failure_note(note):
            continue  # a failed step: counted as a failed operation, not checked
        model = [int(a) for a in A.split(";")] if A else []
        if int(k) != i or int(j) in model:
            problems.append(f"{where}: bad step index or model")
        if selector != "lasso" and prev is not None and model != prev:
            problems.append(f"{where}: model {model} does not extend the previous step")
        prev = model + [int(j)]
        if g_stat:
            m = p - len(model)
            want = 2.0 * math.log(m) - math.log(math.log(m))
            stat = float(g_stat)
            if not (close(float(corr), want) and close(stat + want, float(r_j))
                    and close(float(g_p), reference_sf("gumbel", stat))
                    and (g_rej == "True") == (float(g_p) <= alpha)):
                problems.append(f"{where}: Gumbel columns inconsistent")
        if c_stat:
            stat = float(c_stat)
            if not (close(float(c_p), reference_sf("exp1", stat))
                    and (c_rej == "True") == (float(c_p) <= alpha)):
                problems.append(f"{where}: covariance columns inconsistent")
    return problems


def compare(got, want, where: str = "") -> list[str]:
    """Structural comparison: floats within tolerance, everything else exact."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) and close(got, want):
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else '?'} "
                    f"!= reference {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{where}[{i}]")
            if len(out) >= 5:
                break
        return out
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ from reference"]
        return [p for key in want for p in compare(got[key], want[key], f"{where}.{key}")]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]
