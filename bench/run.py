"""Benchmark of one ``wifimarket run``: load -> validate -> run -> CSV -> SVG.

Usage::

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For the workload and seed it writes the generated scenario document under
``.bench_work/`` and runs it, one fresh interpreter at a time, until
``--seconds`` have passed (at least ``MIN_RUNS`` runs).  Set-up is also
timed in interpreters that stop after validation, one before each run.  Every run's output
is checked (see child.py); runs of one document must write the same CSV.

``--trace 0`` reports the end-to-end metrics, medians over the runs.  Their
times are nominal seconds: wall time scaled by the host speed that a probe
job, timed every 50 ms inside the child, measured (see speed.py); the wall
times are kept in the results file.
``--trace 1`` alternates untraced runs with traced ones and reports the
per-layer metrics; ``trace.overhead_s`` is the traced minus the untraced
median ``run_s``.  The last line of standard output is one JSON object;
the full results, spans included, go to ``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_RUNS = 3  # untraced full runs per invocation; with --trace 1, pairs
CHILD_TIMEOUT_S = 40.0
HARD_LIMIT_S = 130.0  # start no run predicted to end later; with the timeout, under 180 s

# report_s (CSV + SVG time) is part of total_s and is traced per writer; on
# its own it is a few milliseconds on two workloads, too small to bound.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "user_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "config.load_s": "s",
    "config.validate_s": "s",
    "config.users": "count",
    "engine.self_s": "s",
    "engine.steps": "count",
    "engine.user_steps": "count",
    "pricing.wfp_solves": "count",
    "pricing.wfp_iterations": "count",
    "pricing.wfp_unconverged": "count",
    "pricing.wfp_solve_s": "s",
    "pricing.isp_solves": "count",
    "pricing.isp_iterations": "count",
    "pricing.isp_unconverged": "count",
    "pricing.isp_self_s": "s",
    "pricing.user_utility_calls": "count",
    "pricing.user_utility_s": "s",
    "sharing.settlements": "count",
    "sharing.sales": "count",
    "sharing.settle_s": "s",
    "sharing.cap_hits": "count",
    "reports.csv_s": "s",
    "reports.csv_bytes": "bytes",
    "reports.csv_cells": "count",
    "reports.svg_s": "s",
    "reports.svg_bytes": "bytes",
    "trace.overhead_s": "s",
}


def spawn(doc: Path, out: Path, mode: str, trace: bool = False, verify: bool = False) -> dict:
    """Run child.py once and return its sample; a failure has ``problems``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    argv = [sys.executable, "-s", str(CHILD), str(doc), str(out), mode,
            "1" if trace else "0", "1" if verify else "0", repr(started)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"{mode} run exceeded {CHILD_TIMEOUT_S} s"], "wall_s": CHILD_TIMEOUT_S}
    wall_s = time.monotonic() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"{mode} run exited {proc.returncode}: {tail[0]}"], "wall_s": wall_s}
    sample = json.loads(lines[-1])
    sample["wall_s"] = wall_s
    return sample


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _keep_going(started: float, seconds: float, runs: int, min_runs: int, last_wall: float) -> bool:
    elapsed = time.monotonic() - started
    if elapsed + last_wall > HARD_LIMIT_S:
        return False
    return runs < min_runs or elapsed + last_wall <= seconds


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


class Run:
    """One invocation on one workload: the samples, their checks, the metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = WORK / workload
        self.out = self.dir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.doc = self.dir / f"seed{seed}.json"
        doc_bytes = generate(workload, seed)
        self.doc.write_bytes(doc_bytes)
        self.doc_sha256 = sha256(doc_bytes).hexdigest()
        self.setups: list[dict] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def measure(self) -> None:
        started = time.monotonic()
        self._record(spawn(self.doc, self.out, "setup"), [])  # warm caches and bytecode
        last, runs = 0.0, 0
        if not self.trace:
            # A set-up-only run before each full run spreads the set-up
            # samples over the whole measurement, like the full runs.
            while _keep_going(started, self.seconds, runs, MIN_RUNS, last):
                setup = spawn(self.doc, self.out, "setup")
                self._record(setup, self.setups)
                last = setup["wall_s"] + self._full(self.plain, traced=False, verify=not self.plain)
                runs += 1
            return
        pairs = 0
        while _keep_going(started, self.seconds, pairs, 1, last):
            order = (False, True) if pairs % 2 == 0 else (True, False)
            last = sum(
                self._full(self.traced if t else self.plain, traced=t, verify=not self.plain and not t)
                for t in order
            )
            pairs += 1

    def _full(self, into: list[dict], traced: bool, verify: bool) -> float:
        sample = spawn(self.doc, self.out, "full", trace=traced, verify=verify)
        self._record(sample, into)
        return sample["wall_s"]

    def _record(self, sample: dict, into: list[dict]) -> None:
        problems = sample["problems"]
        reference = (self.plain + self.traced)[:1]
        if "csv_sha256" in sample and reference and sample["csv_sha256"] != reference[0]["csv_sha256"]:
            problems.append("CSV differs from the first run of the same document")
        if "counters" in sample and self.traced and sample["counters"] != self.traced[0]["counters"]:
            problems.append("traced counters differ from the first traced run")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            into.append(sample)

    def metrics(self) -> dict[str, list[float]]:
        """Every metric of this mode as its list of samples."""
        plain, traced = self.plain, self.traced
        if not self.trace:
            totals = [s["setup_s"] + s["run_s"] + s["report_s"] for s in plain]
            return {
                "setup_s": [s["setup_s"] for s in self.setups + plain],
                "run_s": [s["run_s"] for s in plain],
                "total_s": totals,
                "user_steps_per_s": [s["user_steps"] / t for s, t in zip(plain, totals)],
                "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
            }
        if not traced or not plain:
            return {}
        first = traced[0]  # counters repeat exactly across traced runs (see _record)
        found = {name: [s["layers"][name] for s in traced] for name in first["layers"]}
        found.update({
            name: [first["counters"].get(name, 0)]
            for name in PER_LAYER
            if name.startswith(("pricing.", "sharing.")) and PER_LAYER[name] == "count"
        })
        found.update({
            "config.users": [first["users"]],
            "engine.steps": [first["steps"]],
            "engine.user_steps": [first["user_steps"]],
            "reports.csv_bytes": [first["csv_bytes"]],
            "reports.csv_cells": [first["csv_cells"]],
            "reports.svg_bytes": [first["svg_bytes"]],
            "trace.overhead_s": [
                statistics.median(s["run_s"] for s in traced)
                - statistics.median(s["run_s"] for s in plain)
            ],
        })
        return found

    def report(self) -> dict:
        units = PER_LAYER if self.trace else END_TO_END
        samples = self.metrics()
        first = (self.plain + self.traced + [{}])[0]
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
            if samples.get(name)
        }
        return {
            "workload": self.workload,
            "why": WORKLOADS[self.workload].why,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "doc_sha256": self.doc_sha256,
            "csv_sha256": first.get("csv_sha256"),
            "svg_sha256": first.get("svg_sha256"),
            "machine": _machine(first.get("numpy", "unknown")),
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "metrics": metrics,
            "samples": samples,
            "raw_wall_s": {
                "setup_s": [s["raw_setup_s"] for s in self.setups + self.plain],
                "run_s": [s["raw_run_s"] for s in self.plain + self.traced],
                "report_s": [s["raw_report_s"] for s in self.plain + self.traced],
            },
            "spans": [
                {"run": i, "spans": s["spans"]} for i, s in enumerate(self.traced) if "spans" in s
            ],
        }


def print_table(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"doc={report['doc_sha256'][:16]} csv={str(report['csv_sha256'])[:16]}")
    for name, metric in report["metrics"].items():
        values = report["samples"][name]
        q1, q3 = _quartiles(values)
        print(f"{name:28s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"n={len(values):<3d} q1={q1:.6g} q3={q3:.6g}")
    print(f"{'failed_runs':28s} {report['failed']:>10d}/{report['attempted']:<5d} ratio")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wifimarket" / "__init__.py").is_file():
        print(f"no wifimarket sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        run.measure()
        report = run.report()
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print_table(report)
        print(f"results: {path.relative_to(ROOT)}")
        reports.append(report)

    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): v
        for r in reports for k, v in r["metrics"].items()
    }
    expected = len(reports) * len(PER_LAYER if args.trace else END_TO_END)
    correct = all(r["failed"] == 0 for r in reports) and len(metrics) == expected
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
