"""rollsim's benchmark: host time, set-up time, Keccak-f permutations, memory.

Usage, from the repository root:

    python3 bench/run.py --workload op-withdrawals --seed 1 --seconds 25 --trace 0

The load is a closed loop: this one process, with no threads, runs the
workload's scenario through ``scenarios.run`` back to back until ``--seconds``
have passed, and checks every report. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``run_s``: median time of one run, tracing off;
* ``setup_s``: median time from a fresh interpreter to the point where the
  run can start (importing rollsim, generating the config);
* ``keccak_perms``: Keccak-f permutations in one run (machine-independent);
* ``peak_mem_mb``: median peak resident set of a fresh interpreter that sets
  up and runs the workload once.

Both times are wall times rescaled to reference seconds by a fixed kernel
timed beside each of them (``reference.py``), so the host's phases of
contention cancel out; the raw wall times are printed too.

``setup_s``, ``keccak_perms`` and ``peak_mem_mb`` come from fresh
interpreters, started one after another before the timed runs with different
``PYTHONHASHSEED`` values: ``FRESH_RUNS`` set up and run the workload, and
``SETUP_ONLY_RUNS`` more only set up, for more set-up samples. A report hash
or permutation count that differs from the first run's counts as a failed
run.

``--trace 1`` times untraced runs for half of ``--seconds``, then traced runs
for the other half, and reports the per-layer metrics of ``probes.py``
(medians over the traced runs) and the tracing overhead. The spans of the
last traced run are written to ``bench/out/``.

The human-readable lines before the JSON give sample counts, quartiles, the
report hash and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from probes import LAYER_METRICS, SpanRecorder
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

FRESH_RUNS = 3
SETUP_ONLY_RUNS = 6
FRESH_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Runs attempted and failed, and the report hash every run must match."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_hash: str | None = None
        self.first_perms: int | None = None

    def record(self, problems: list[str], report_hash: str | None, perms: int | None = None):
        self.attempted += 1
        problems = list(problems)
        if report_hash is not None:
            if self.first_hash is None:
                self.first_hash = report_hash
            elif report_hash != self.first_hash:
                problems.append(f"report hash {report_hash} != first run's {self.first_hash}")
        if perms is not None:
            if self.first_perms is None:
                self.first_perms = perms
            elif perms != self.first_perms:
                problems.append(f"{perms} Keccak-f permutations != first run's {self.first_perms}")
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED run {self.attempted}: {problem}", file=sys.stderr)


def fresh_runs(workload: str, seed: int, tally: Tally) -> tuple[list[dict], list[dict]]:
    """Start ``FRESH_RUNS`` new interpreters that set up and run the workload
    once, then ``SETUP_ONLY_RUNS`` that only set up; return both result lists.

    Linux carries the parent's peak resident set into a child across exec,
    so this runs before this process imports rollsim, while it is smaller
    than any child; ``fresh.py`` also fails a run whose peak never rose above
    the value it inherited.
    """
    runs, setups = [], []
    for i in range(FRESH_RUNS + SETUP_ONLY_RUNS):
        setup_only = i >= FRESH_RUNS
        command = [sys.executable, str(BENCH_DIR / "fresh.py"), workload, str(seed)]
        try:
            proc = subprocess.run(
                command + ["setup-only"] * setup_only,
                cwd=ROOT,
                env=dict(os.environ, PYTHONHASHSEED=str(i + 1)),
                capture_output=True,
                text=True,
                timeout=FRESH_TIMEOUT_S,  # on expiry the child is killed and reaped
            )
        except subprocess.TimeoutExpired:
            tally.record([f"fresh interpreter ran past {FRESH_TIMEOUT_S} s"], None)
            continue
        if proc.returncode != 0:
            tally.record([f"fresh interpreter exited {proc.returncode}: {proc.stderr[-2000:]}"], None)
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        setups.append(result)
        if not setup_only:
            tally.record(result["problems"], result["report_hash"], result["keccak_perms"])
            runs.append(result)
    return runs, setups


def timed_runs(workload, config, seconds: float, tally: Tally) -> list[tuple[float, float]]:
    """Run back to back for ``seconds``; for each good run, its wall time and
    the mean of the reference kernel's wall times just before and after it."""
    from rollsim import scenarios

    samples = []
    deadline = time.perf_counter() + seconds
    kernel_before = reference.seconds()
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            report = scenarios.run(config)
        except Exception as exc:  # a crash is a failed run, not the end of the set
            tally.record([f"scenarios.run raised {exc!r}"], None)
            continue
        elapsed = time.perf_counter() - start
        kernel_after = reference.seconds()
        before = tally.failed
        tally.record(workload.check(report, config), report.report_hash())
        if tally.failed == before:
            samples.append((elapsed, (kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return samples


def traced_runs(workload, config, seconds: float, tally: Tally):
    """Traced runs for ``seconds``: per-layer metrics of each good run, with
    its times in reference seconds, its run time, and the last recorder."""
    from rollsim import scenarios

    per_run, times, recorder = [], [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        recorder = SpanRecorder()
        try:
            start = time.perf_counter()
            report = scenarios.run(config)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            tally.record([f"traced scenarios.run raised {exc!r}"], None)
            continue
        finally:
            recorder.close()
        kernel_s = reference.seconds()
        before = tally.failed
        tally.record(workload.check(report, config), report.report_hash())
        if tally.failed == before:
            metrics = recorder.metrics()
            for name, unit in LAYER_METRICS:
                if unit == "s":
                    metrics[name] = reference.scale(metrics[name], kernel_s)
            per_run.append(metrics)
            times.append(reference.scale(elapsed, kernel_s))
    return per_run, times, recorder


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit} over {len(values)} samples"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f", quartiles {q1:.6g} .. {q3:.6g}"
    # the highest percentile with at least ten samples beyond it
    if len(values) >= 20:
        p = 100 * (len(values) - 10) // len(values)
        line += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    else:
        line += ", no percentile has ten samples beyond it"
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rollsim" / "__init__.py").is_file():
        print(f"rollsim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # Byte-compile once, so no interpreter's set-up time includes compiling.
    # It runs in a child to keep this process small: see fresh_runs.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "rollsim")],
        check=True,
        timeout=FRESH_TIMEOUT_S,
    )
    tally = Tally()
    if args.trace == 0:
        fresh, setups = fresh_runs(args.workload, args.seed, tally)

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    if args.trace == 0:
        samples = timed_runs(workload, config, args.seconds, tally)
        if not samples or not fresh:
            print("no run succeeded", file=sys.stderr)
            return 1
        run_s = [reference.scale(wall, kernel) for wall, kernel in samples]
        setup_s = [reference.scale(r["setup_s"], r["setup_kernel_s"]) for r in setups]
        metrics = {
            "run_s": (statistics.median(run_s), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "keccak_perms": (fresh[0]["keccak_perms"], "count"),
            "peak_mem_mb": (statistics.median(r["peak_mem_mb"] for r in fresh), "MiB"),
        }
        print(describe("run_s", run_s, "reference s"))
        print(describe("run wall time", [wall for wall, _ in samples], "s"))
        print(describe("reference kernel", [kernel for _, kernel in samples], "s"))
        print(describe("setup_s", setup_s, "reference s"))
        print(describe("setup wall time", [r["setup_s"] for r in setups], "s"))
        print(describe("peak_mem_mb", [r["peak_mem_mb"] for r in fresh], "MiB"))
        print(f"keccak_perms: {fresh[0]['keccak_perms']} in every run")
    else:
        untraced = [
            reference.scale(wall, kernel)
            for wall, kernel in timed_runs(workload, config, args.seconds / 2, tally)
        ]
        per_run, traced, recorder = traced_runs(workload, config, args.seconds / 2, tally)
        if not untraced or not per_run:
            print("no run succeeded", file=sys.stderr)
            return 1
        metrics = {
            name: (statistics.median(run[name] for run in per_run), unit)
            for name, unit in LAYER_METRICS
        }
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced),
            "s",
        )
        print(describe("untraced run_s", untraced, "reference s"))
        print(describe("traced run_s", traced, "reference s"))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        recorder.dump(spans_path)
        print(f"spans of the last traced run: {spans_path.relative_to(ROOT)}")

    print(f"report_hash: {tally.first_hash}")
    print(f"failed_frac: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
