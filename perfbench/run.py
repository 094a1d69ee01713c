"""sigtest benchmark: Monte Carlo calibration and ``sigtest test`` workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a list of rounds; a round calls the program once on each of
its inputs. ``--trace 0`` runs rounds with tracing off until ``--seconds``
have passed and prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds, each call once untraced and once traced (see ``spans.py``),
and prints the per-layer metrics and the tracing overhead.
Every run checks the outputs it timed (``checks.py``) and re-runs the fixed
reference inputs against ``reference.json``. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 1 when any output check fails.

Call times are normalised for the machine's speed, which on shared hosts
drifts by up to 1.5x over seconds to minutes: ``speed_probe`` runs on either
side of every timed call, and ``steps_per_s_norm`` and ``op_s_p50_norm``
scale wall times by ``PROBE_REF_S`` over the probes' mean. The plain
wall-time figures (``steps_per_s``, ``op_s_p50``, ``reps_per_s``) are printed
above the result line and kept, with the environment record, in
``results/``.

``--smoke`` runs every code path at tiny sizes; ``--record-reference``
rewrites ``reference.json`` and is meant only for a commit whose outputs are
known to be right.

BLAS and OpenMP are pinned to one thread and ``run_scenario`` runs with
``threads=1``, so this is the plain single-threaded baseline. The package is
imported from ``src/`` of the checkout, never from an installed copy.
"""

from __future__ import annotations

import os

THREAD_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAP_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"
os.environ["SIGTEST_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "sigtest" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sigtest sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sigtest  # noqa: E402
from sigtest import cli, montecarlo, preset  # noqa: E402

import checks  # noqa: E402
import datagen  # noqa: E402
from spans import RATIOS, Tracer  # noqa: E402

if Path(sigtest.__file__).resolve().parent != SRC / "sigtest":
    sys.exit(f"perfbench: imported sigtest from {sigtest.__file__}, not from {SRC}")

REFERENCE_FILE = BENCH_DIR / "reference.json"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"
# Inputs of the reference check do not depend on --seed.
REFERENCE_SEED = 1405
SETUP_PROBES = 5


# ---------------------------------------------------------------- workloads


class CalibWorkload:
    """One operation is one ``run_scenario(preset, threads=1)`` call, with
    the workload seed as the preset's seed override. Every round runs each
    preset once with ``reps`` replications."""

    def __init__(self, reps: dict[str, int], reference_reps: int, nominal_round_s: float):
        self.reps = reps
        self.reference_reps = reference_reps
        self.nominal_round_s = nominal_round_s

    def prepare(self, workdir: Path, seed: int, smoke: bool):
        inputs = [replace(preset(name, seed=seed), reps=3 if smoke else reps)
                  for name, reps in self.reps.items()]
        return [inputs], [replace(s, reps=2) for s in inputs]

    def reference_ops(self, workdir: Path):
        return [replace(preset(name, seed=REFERENCE_SEED), reps=self.reference_reps)
                for name in self.reps]

    def key(self, scenario) -> str:
        return f"{scenario.name}/seed={scenario.seed}/reps={scenario.reps}"

    def call(self, scenario):
        # Looked up on the module at call time, so the traced run sees the rebinding.
        return montecarlo.run_scenario(scenario, threads=1)

    def steps(self, scenario, summary) -> int:
        return len(summary.statistics)  # one tested step per replication

    def failure(self, scenario, summary) -> str | None:
        if summary.failures:
            return f"{self.key(scenario)}: failed replications {summary.failure_reasons}"
        return None

    def problems(self, scenario, summary) -> list[str]:
        reference = "exp1" if scenario.test == "covariance" else "gumbel"
        return checks.check_summary(summary, scenario.reps, reference)

    def record(self, scenario, summary):
        return {"statistics": [float(s) for s in summary.statistics], "ks": summary.ks,
                "rejection_rate_05": summary.rejection_rate_05,
                "failures": summary.failures}


@dataclass(frozen=True)
class CliOp:
    key: str
    argv: tuple[str, ...]
    p: int
    rows: int | None  # expected row count; None when it follows the path


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


class CliWorkload:
    """One operation is one in-process ``cli.run(["test", ...])`` call with
    standard output captured. Each round runs every one of ``kinds`` on a
    fresh dataset; ``rounds`` rounds of datasets are written, and used again
    from the first if a run outlasts them."""

    def __init__(self, kinds, size, smoke_size, reference_size, rounds, nominal_round_s):
        self.kinds = kinds  # (table maker, extra argv, expected rows: "min" | "p" | None)
        self.size = size
        self.smoke_size = smoke_size
        self.reference_size = reference_size
        self.rounds = rounds
        self.nominal_round_s = nominal_round_s

    def _op(self, workdir: Path, seed: int, stream: int, index: int, kind, size) -> CliOp:
        make, extra, rows = kind
        n, p = size
        header, table = make(datagen.rng_for(seed, stream, index), n, p)
        path = workdir / f"{make.__name__}-{n}x{p}-seed{seed}-{stream}-{index}.csv"
        datagen.write_csv(str(path), header, table)
        expected = {"min": min(n, p), "p": p, None: None}[rows]
        return CliOp(key=path.name + " " + " ".join(extra),
                     argv=("test", "--input", str(path), *extra), p=p, rows=expected)

    def prepare(self, workdir: Path, seed: int, smoke: bool):
        size = self.smoke_size if smoke else self.size
        rounds = [[self._op(workdir, seed, s, r, kind, size) for s, kind in enumerate(self.kinds)]
                  for r in range(1 if smoke else self.rounds)]
        warmup = [self._op(workdir, seed, s, 10_000, kind, self.smoke_size)
                  for s, kind in enumerate(self.kinds)]
        return rounds, warmup

    def reference_ops(self, workdir: Path):
        return [self._op(workdir, REFERENCE_SEED, s, 0, kind, self.reference_size)
                for s, kind in enumerate(self.kinds)]

    def key(self, op: CliOp) -> str:
        return op.key

    def call(self, op: CliOp) -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(op.argv))
        return CliOutput(code, out.getvalue(), err.getvalue())

    def _rows(self, output: CliOutput) -> list[list[str]]:
        return list(csv.reader(io.StringIO(output.stdout)))[1:]

    def steps(self, op: CliOp, output: CliOutput) -> int:
        return len(self._rows(output)) if output.code == 0 else 0

    def failure(self, op: CliOp, output: CliOutput) -> str | None:
        if output.code != 0:
            return f"{op.key}: exit {output.code}: {output.stderr.strip()}"
        failed = [row[-1] for row in self._rows(output) if checks.failure_note(row[-1])]
        return f"{op.key}: {failed[0]}" if failed else None

    def problems(self, op: CliOp, output: CliOutput) -> list[str]:
        if output.code != 0:
            return []
        problems = checks.check_test_table(self._rows(output), op.p, op.rows)
        return [f"{op.key}: {p}" for p in problems]

    def record(self, op: CliOp, output: CliOutput):
        return {"code": output.code,
                "rows": [[_cell(c) for c in row] for row in self._rows(output)]}


# Calls are kept short (0.1 to 0.7 s on a 2-core x86-64 VM) so that the speed
# probes on either side of a call measure the machine as it was during the
# call. nominal_round_s is a round's time on that VM; it only sizes the traced
# run.
WORKLOADS = {
    # Replications per call chosen so every call takes about the same time
    # (~0.45 s); the median call time then does not fall between presets.
    "calib-gaussian": CalibWorkload({"fig1-left": 1080, "fig1-right": 500, "fig2-left": 500,
                                     "fig2-right": 450, "cov-null": 360, "cov-null-ar08": 320},
                                    reference_reps=40, nominal_round_s=2.8),
    # Replications per call chosen so both calls take about the same time
    # (~0.6 s), which keeps the median call time off the gap between them.
    "calib-glm": CalibWorkload({"fig3-left": 50, "fig3-right": 40},
                               reference_reps=8, nominal_round_s=1.2),
    # (n, p) = (100, 50), AR(1) rho = 0.5, 5 signals; the default max_r
    # selector and the lasso selector alternate.
    "cli-lasso": CliWorkload(
        kinds=((datagen.gaussian_table, ("--sigma2", "1"), "min"),
               (datagen.gaussian_table, ("--sigma2", "1", "--selector", "lasso"), None)),
        size=(100, 50), smoke_size=(30, 12), reference_size=(60, 30),
        rounds=16, nominal_round_s=0.65),
    # (n, p) = (150, 24); two Cox calls per logistic call, so the median call
    # time is a Cox time rather than the midpoint between the two families.
    "cli-glm": CliWorkload(
        kinds=((datagen.logistic_table, ("--family", "logistic"), "p"),
               (datagen.cox_table, ("--family", "cox"), "p"),
               (datagen.cox_table, ("--family", "cox"), "p")),
        size=(150, 24), smoke_size=(40, 8), reference_size=(60, 10),
        rounds=12, nominal_round_s=1.05),
}


# ------------------------------------------------------------------ running


@dataclass
class Done:
    op: object
    output: object
    seconds: float


def call_op(workload, op) -> Done:
    """Time one operation; an exception escaping sigtest becomes a failed output."""
    start = perf_counter()
    try:
        output = workload.call(op)
    except Exception:  # noqa: BLE001 - the boundary reports every program error
        output = traceback.format_exc()
    return Done(op, output, perf_counter() - start)




class Verdict:
    """Operation outcomes: failed operations and output problems."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self._first: dict[str, object] = {}

    def add(self, done: Done, reference=None) -> None:
        wl, op, out = self.workload, done.op, done.output
        self.attempted += 1
        if isinstance(out, str):
            problems, failure = [f"{wl.key(op)}: raised\n{out}"], None
        else:
            problems, failure = wl.problems(op, out), wl.failure(op, out)
            record = wl.record(op, out)
            first = self._first.setdefault(wl.key(op), record)
            if record != first:
                problems.append(f"{wl.key(op)}: output differs from an earlier call on it")
            if reference is not None:
                problems += [f"{wl.key(op)}: {p}" for p in checks.compare(record, reference)]
        self.problems += problems
        if failure:
            self.failures.append(failure)
        self.failed += bool(problems or failure)


def prepare(workload, seed: int, smoke: bool, workdir: Path):
    """Set-up: write this workload's inputs and run one warm-up call of each kind."""
    workdir.mkdir(parents=True, exist_ok=True)
    rounds, warmup = workload.prepare(workdir, seed, smoke)
    for op in warmup:
        done = call_op(workload, op)
        if isinstance(done.output, str):
            sys.exit(f"perfbench: warm-up call failed\n{done.output}")
    return rounds


def setup_probe_seconds(args) -> float:
    """Wall time from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed


# A fixed mix of small dense linear algebra and interpreted loops, like the
# program's own. On a 2-core x86-64 VM whose speed drifted by 1.5x, the spread
# of 20 s windows was 20-27% for plain call times and about 4% for call
# times over the adjacent probe's time. PROBE_REF_S is a round figure between
# the probe's fast (7 ms) and slow (11 ms) times on that VM.
PROBE_REF_S = 0.010
_PROBE_X = datagen.rng_for(0).standard_normal((100, 50))


def speed_probe() -> float:
    start = perf_counter()
    acc = 0.0
    for _ in range(2):
        for j in range(1, 50):
            _q, r = np.linalg.qr(_PROBE_X[:, :j])
            acc += r[0, 0] + _PROBE_X[:, j] @ _PROBE_X[:, j - 1]
            acc += sum(i * 0.5 for i in range(300))
    return perf_counter() - start


def percentile_tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            rank = min(n, max(1, int(np.ceil(q / 100.0 * n))))
            return f"op_s_p{q:g}", ordered[rank - 1]
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict form
        blas_name = "unknown"
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_thread_cap": {var: os.environ[var] for var in THREAD_CAP_VARS},
        "seed": seed,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def reference_check(workload, name: str, verdict: Verdict, workdir: Path) -> None:
    expected = json.loads(REFERENCE_FILE.read_text())[name]
    done = [call_op(workload, op) for op in workload.reference_ops(workdir)]
    if len(done) != len(expected):
        verdict.problems.append("reference.json does not match the reference inputs")
    for item, want in zip(done, expected):
        verdict.add(item, reference=want)


def timed_run(args, workload, rounds) -> tuple[dict, list[Done], list[str]]:
    """Closed loop, one caller: whole rounds until ``seconds`` have passed.

    The speed probe runs before the first call and after every call; the
    ``*_norm`` metrics scale each call's wall time by ``PROBE_REF_S`` over the
    mean of the two probes on either side of it: times at the speed the
    machine had while the probe took ``PROBE_REF_S``. ``setup_s`` stays wall
    time: a set-up runs in a child process, which the scheduler may place on
    another core than the probe's.
    """
    setups = [setup_probe_seconds(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    done: list[Done] = []
    probes = [speed_probe()]
    count = 0
    start = perf_counter()
    while not count or (not args.smoke and perf_counter() - start < args.seconds):
        for op in rounds[count % len(rounds)]:
            done.append(call_op(workload, op))
            probes.append(speed_probe())
        count += 1
    wall = perf_counter() - start
    raw = [d.seconds for d in done]
    norm = [d.seconds * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, d in enumerate(done)]
    steps = sum(workload.steps(d.op, d.output) for d in done if not isinstance(d.output, str))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s_norm": (steps / sum(norm), "1/s"),
        "op_s_p50_norm": (statistics.median(norm), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
             f"calls timed: {len(done)} in {count} rounds, {wall:.3f} s",
             f"speed probe: median {statistics.median(probes):.6f} s, min {min(probes):.6f} s, "
             f"max {max(probes):.6f} s (reference {PROBE_REF_S} s)",
             f"steps_per_s (wall): {steps / sum(raw):.6g} 1/s ({steps} steps)",
             f"op_s_p50 (wall): {statistics.median(raw):.6f} s ({len(raw)} calls)"]
    tail = percentile_tail(raw)
    if tail:
        notes.append(f"{tail[0]} (wall): {tail[1]:.6f} s")
    if isinstance(workload, CalibWorkload):
        reps = sum(d.op.reps for d in done)
        notes.append(f"reps_per_s (wall): {reps / sum(raw):.6g} 1/s, "
                     f"(normalised): {reps / sum(norm):.6g} 1/s ({reps} replications)")
    return metrics, done, notes


def traced_run(args, workload, rounds) -> tuple[dict, list[Done], list[str], Tracer]:
    """A fixed number of rounds; each call runs once untraced and once traced.

    The two runs of a call are adjacent, in alternating order, so that the
    overhead (traced minus untraced time) is not swamped by drift in the
    machine's speed.
    """
    count = 1 if args.smoke else max(1, round(args.seconds / (2 * workload.nominal_round_s)))
    ops = [op for r in range(count) for op in rounds[r % len(rounds)]]
    tracer = Tracer()
    plain, traced = [], []
    for index, op in enumerate(ops):
        for tracing in ((False, True) if index % 2 == 0 else (True, False)):
            if not tracing:
                plain.append(call_op(workload, op))
                continue
            tracer.begin_op(index)
            tracer.install()
            try:
                traced.append(call_op(workload, op))
            finally:
                tracer.uninstall()
    plain_s = sum(d.seconds for d in plain)
    traced_s = sum(d.seconds for d in traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    notes = [f"calls: {len(ops)} ({count} rounds), untraced {plain_s:.3f} s, "
             f"traced {traced_s:.3f} s; {len(tracer.spans)} spans"]
    return metrics, plain + traced, notes, tracer


def flag_count_changes(args, env: dict, metrics: dict) -> list[str]:
    """Compare the counts with an earlier traced run of the same sources and inputs."""
    counts = {name: value for name, (value, unit) in metrics.items()
              if unit == "count" or name in RATIOS}
    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}{'-smoke' if args.smoke else ''}"
    path = RESULTS_DIR / f"counts-{tag}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["src_sha256"] == env["src_sha256"]:
            before = earlier["counts"]
            return [f"count {name} differs from an earlier run: {value} vs {before.get(name)}"
                    for name, value in counts.items() if before.get(name) != value]
    path.write_text(json.dumps({"src_sha256": env["src_sha256"], "counts": counts}, indent=1))
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this commit's outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        rounds = prepare(workload, args.seed, args.smoke, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, workload, rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, rounds, workdir: Path) -> int:
    env = environment(args.seed)
    if args.trace:
        # Every traced call repeats an untraced one, so Verdict's check that
        # repeated inputs give identical outputs also shows tracing changed nothing.
        metrics, done, notes, tracer = traced_run(args, workload, rounds)
    else:
        metrics, done, notes = timed_run(args, workload, rounds)
    verdict = Verdict(workload)
    for item in done:
        verdict.add(item)
    reference_check(workload, args.workload, verdict, workdir)

    RESULTS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace:
        mismatches = flag_count_changes(args, env, metrics)
        notes += [f"FLAG: {m}" for m in mismatches]
        metrics["bench.count_mismatches"] = (len(mismatches), "count")
        tracer.write(str(RESULTS_DIR / f"{tag}.spans.jsonl"))
    correct = not verdict.problems

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("environment " + json.dumps(env))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_frac: {verdict.failed / verdict.attempted:.6g} "
          f"({verdict.failed} of {verdict.attempted} operations)")
    for line in verdict.failures + verdict.problems:
        print("FAILED: " + line, file=sys.stderr)
    result = {"correct": correct, "attempted": verdict.attempted, "failed": verdict.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(
        {**result, "environment": env, "notes": notes,
         "failures": verdict.failures, "problems": verdict.problems,
         "operations": [{"input": workload.key(d.op), "seconds": d.seconds} for d in done]},
        indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def record_reference() -> int:
    """Write the outputs of every workload's reference inputs to reference.json."""
    records = {}
    for name, workload in WORKLOADS.items():
        workdir = WORK_DIR / f"reference-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            done = [call_op(workload, op) for op in workload.reference_ops(workdir)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for item in done:
            if isinstance(item.output, str):
                sys.exit(f"perfbench: reference call failed\n{item.output}")
        records[name] = [workload.record(d.op, d.output) for d in done]
    REFERENCE_FILE.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
