"""cmcflat benchmark: run the scenario CLI on one workload and report metrics.

    python3 bench/run.py --workload limit|quadrature|homogeneous \
        --seed N --seconds S --trace 0|1

Run from the root of a cmcflat checkout; nothing needs building.  Every CLI
invocation runs in a fresh child process (``child.py``), one at a time, in a
closed loop with a single client, and writes its artifacts to a fresh
directory under ``.bench_out/work`` that is removed when the run ends.  BLAS
threads are capped in the child environment only.

``--trace 0`` repeats the workload's invocations until ``--seconds`` have
passed (at least once) and reports the end-to-end metrics:

- ``wall_s``: time inside ``cli.main``, summed over the workload's
  invocations, each the median of its repeats;
- ``setup_s``: launch to entry into ``cli.main``, the median over all
  launches (topped up with probe launches to at least six samples) times the
  number of invocations;
- ``peak_rss_mb``: the largest peak RSS of any invocation.

After every launch the runner also times a fixed interpreter-and-numpy
kernel that does not depend on cmcflat, and records the median as the fact
``host_reference_s``.  Shared hosts drift in speed by tens of percent within
minutes; this fact shows how fast the host ran during a run.  No metric is
scaled by it.

``--trace 1`` runs each invocation once plain and once with the layer
functions wrapped (``layers.py``), back to back, and reports the per-layer
metrics plus ``trace_overhead_s``.  Count metrics are stored per (workload, seed, source
fingerprint) and any count that differs from an earlier traced run of the
same code is flagged, which fails the run.

Every run checks each invocation's exit code and ``summary.csv``: an
invocation that exits non-zero counts all of its checks as failed.  The last
stdout line is one JSON object (correct, attempted, failed, metrics), where
attempted and failed count summary checks, so check_fail_ratio is
failed / attempted.  The run exits non-zero when any check fails.  A full
record with the machine facts goes to ``.bench_out/results``.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import spantrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"

THREAD_CAP = "1"
MIN_SETUP_SAMPLES = 6
RUN_BUDGET_S = 170.0
DEFAULT_SEEDS = {"riccati": 2024, "bolza-check": 7}

# Checks each scenario writes at its defaults; only used to count the checks
# of an invocation that dies before writing its summary.csv.
SCENARIO_CHECKS = {"cone-flow": 5, "kasner-flow": 7, "lichnerowicz-sweep": 4, "riccati": 2,
                   "bolza-check": 5, "limit-experiment": 4, "graph-check": 4}

WORKLOADS = ("limit", "quadrature", "homogeneous")


def invocations(workload: str, seed: int) -> list:
    """(label, scenario, options) for each CLI invocation of a workload.

    Only riccati and bolza-check take random input; seed 0 reproduces their
    defaults (2024 and 7).
    """
    if workload == "limit":  # sparse Newton: 7 relaxations, 19 SuperLU solves
        return [("limit-experiment", "limit-experiment", {})]
    if workload == "quadrature":  # big-array numpy far beyond cache, no sparse solve
        return [("graph-check", "graph-check", {})]
    # tiny arrays, interpreter-bound: 10,000-step flows, scalar Newton, small RK4
    return ([(f"cone-flow-dim{d}", "cone-flow", {"dim": d}) for d in (2, 3, 4)]
            + [(f"kasner-flow-dim{d}", "kasner-flow", {"dim": d}) for d in (3, 4)]
            + [("riccati", "riccati", {"seed": DEFAULT_SEEDS["riccati"] + seed}),
               ("lichnerowicz-sweep", "lichnerowicz-sweep", {}),
               ("bolza-check", "bolza-check", {"seed": DEFAULT_SEEDS["bolza-check"] + seed})])


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter work, tiny and large numpy calls."""
    start = time.perf_counter()
    x = np.ones(4)
    acc = 0
    for i in range(60000):
        x = x * 1.0000001 + 1e-9
        acc += i * i
    big = np.arange(3_000_000, dtype=float)
    float((np.sqrt(big) * 2.0).sum())
    return time.perf_counter() - start


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (budget exhausted, probe failed)."""


@dataclass
class Outcome:
    label: str
    exit_code: int
    setup_s: float
    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    spans: list = field(default_factory=list)
    quantities: dict = field(default_factory=dict)


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.work = OUT / "work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.spans_dir = OUT / "spans" / f"{workload}-seed{seed}"
        self.env = dict(os.environ, OMP_NUM_THREADS=THREAD_CAP,
                        OPENBLAS_NUM_THREADS=THREAD_CAP, MKL_NUM_THREADS=THREAD_CAP)
        self.launches = 0
        self.reference: list = []  # reference_kernel() seconds, one after each launch

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def launch(self, mode_args: list, name: str):
        """Run child.py once: (exit code, peak RSS MB, timing record, launch time, run dir)."""
        self.launches += 1
        run_dir = self.work / f"{self.launches:03d}-{name}"
        run_dir.mkdir(parents=True)
        timing = run_dir / "timing.json"
        with open(run_dir / "child.log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(SRC), str(timing), *mode_args],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                status, usage = self._wait(proc)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        record = json.loads(timing.read_text()) if timing.exists() else None
        self.reference.append(reference_kernel())
        return status, usage.ru_maxrss / 1024.0, record, t0, run_dir

    def _wait(self, proc):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if self.remaining() <= 0:
                raise BenchError(f"run budget of {RUN_BUDGET_S} s exhausted")
            time.sleep(0.01)

    def probe(self) -> tuple:
        status, _, record, t0, run_dir = self.launch(["probe"], "probe")
        if status != 0 or record is None:
            log = (run_dir / "child.log").read_text()
            raise BenchError(f"probe child failed with exit code {status}:\n{log}")
        return record["entry"] - t0, record["facts"]

    def invoke(self, label: str, scenario: str, options: dict, tag: str,
               traced: bool) -> Outcome:
        config = self.work / f"{label}.cfg"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text("".join(f"{k}={v}\n" for k, v in
                                  {"scenario": scenario, **options}.items()))
        out_dir = self.work / f"out-{label}-{tag}"
        mode = ["run"]
        if traced:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            spans = self.spans_dir / f"{label}.csv"
            mode = ["trace", str(spans), f"{self.workload}:{self.seed}:{label}"]
        status, rss_mb, record, t0, run_dir = self.launch(
            mode + ["--", "--config", str(config), "--out", str(out_dir)], f"{label}-{tag}")
        attempted, failed = read_checks(out_dir / "summary.csv")
        if status != 0 or record is None:
            # A failed invocation counts every check of its scenario as failed.
            attempted = failed = max(attempted, SCENARIO_CHECKS[scenario])
            log = (run_dir / "child.log").read_text()
            print(f"invocation {label} exited with {status}:\n{log[-2000:]}", file=sys.stderr)
        if record is None:
            return Outcome(label, status, 0.0, time.monotonic() - t0, rss_mb, attempted, failed)
        outcome = Outcome(label, status, record["entry"] - t0, record["exit"] - record["entry"],
                          rss_mb, attempted, failed)
        if traced:
            outcome.spans = spantrace.read_spans(str(spans))
            outcome.quantities = record["quantities"]
        return outcome

    def run_pass(self, tag: str) -> list:
        return [self.invoke(label, scenario, options, tag, traced=False)
                for label, scenario, options in invocations(self.workload, self.seed)]


def read_checks(summary: Path) -> tuple:
    """(attempted, failed) summary checks; (0, 0) when there is no summary.csv."""
    if not summary.exists():
        return 0, 0
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), sum(1 for row in rows if row["pass"] != "true")


def source_fingerprint() -> str:
    """Hash of the program and of the benchmark files that measure it."""
    bench = CHILD.parent
    measuring = [bench / name for name in ("run.py", "child.py", "layers.py", "spantrace.py")]
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *measuring]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown (not a git checkout)"


def wall_sum(passes: list) -> float:
    """Per invocation label, the median over passes; summed over labels."""
    return sum(statistics.median(p[i].wall_s for p in passes) for i in range(len(passes[0])))


def end_to_end(runner: Runner, seconds: float) -> tuple:
    passes = []
    while True:
        begun = time.monotonic()
        passes.append(runner.run_pass(f"pass{len(passes)}"))
        elapsed = time.monotonic() - runner.start
        if elapsed >= seconds or runner.remaining() < 2.0 * (time.monotonic() - begun) + 20.0:
            break
    outcomes = [o for p in passes for o in p]
    setups = [o.setup_s for o in outcomes]
    setups += [runner.probe()[0] for _ in range(MIN_SETUP_SAMPLES - len(setups))]
    n = len(passes[0])
    metrics = {
        "wall_s": (wall_sum(passes), "s"),
        "setup_s": (n * statistics.median(setups), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
    }
    notes = {"wall_s": f"sum over {n} invocations of the median of {len(passes)} repeats",
             "setup_s": f"{n} x median of {len(setups)} launches",
             "peak_rss_mb": f"max over {len(outcomes)} invocations"}
    return metrics, outcomes, notes


def per_layer(runner: Runner) -> tuple:
    # Each invocation runs plain, then traced, back to back, so that a slow
    # spell of a shared host lands on both sides of trace_overhead_s.
    plain, traced = [], []
    for label, scenario, options in invocations(runner.workload, runner.seed):
        plain.append(runner.invoke(label, scenario, options, "plain", traced=False))
        traced.append(runner.invoke(label, scenario, options, "traced", traced=True))
    metrics = layers.per_layer_metrics([(o.spans, o.quantities) for o in traced])
    name, unit = layers.TRACE_OVERHEAD
    metrics[name] = (wall_sum([traced]) - wall_sum([plain]), unit)
    notes = {name: "traced wall_s minus plain wall_s, one run of each invocation"}
    return metrics, plain + traced, notes


def check_counts(workload: str, seed: int, fingerprint: str, metrics: dict) -> list:
    """Compare count metrics with the last traced run of the same code; list differences."""
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}
    store = OUT / "counts" / f"{workload}-seed{seed}-{fingerprint}.json"
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, indent=1, sort_keys=True))
        tmp.replace(store)
        return []
    before = json.loads(store.read_text())
    return [f"{k}: {before.get(k)} before, {v} now"
            for k, v in counts.items() if before.get(k) != v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cmcflat" / "cli.py").is_file():
        print(f"no cmcflat sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        _, facts = runner.probe()  # warms the import caches; not counted
        if args.trace:
            metrics, outcomes, notes = per_layer(runner)
        else:
            metrics, outcomes, notes = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    fingerprint = source_fingerprint()
    flagged = check_counts(args.workload, args.seed, fingerprint, metrics) if args.trace else []
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    seeds = {label: opts["seed"] for label, _, opts in invocations(args.workload, args.seed)
             if "seed" in opts}
    facts.update(commit=git_commit(), source_fingerprint=fingerprint, seed=args.seed,
                 scenario_seeds=seeds or "none: this workload takes no random input",
                 host_reference_s=statistics.median(runner.reference),
                 workload=args.workload, trace=args.trace, seconds=args.seconds,
                 utc=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"))
    correct = (attempted > 0 and failed == 0 and not flagged
               and all(o.exit_code == 0 for o in outcomes))

    for key, value in facts.items():
        print(f"fact {key}: {value}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value} {unit}{note}")
    print(f"metric check_fail_ratio = {failed / attempted if attempted else 1.0} ratio"
          f"  ({failed} of {attempted} summary checks failed)")
    for line in flagged:
        print(f"COUNT MISMATCH {line}")

    record = {"facts": facts, "correct": correct, "attempted": attempted, "failed": failed,
              "flagged_counts": flagged, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "invocations": [{"label": o.label, "exit_code": o.exit_code,
                               "setup_s": o.setup_s, "wall_s": o.wall_s, "rss_mb": o.rss_mb,
                               "attempted": o.attempted, "failed": o.failed}
                              for o in outcomes]}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    (results / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
