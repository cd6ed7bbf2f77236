"""One workload run in a fresh interpreter: set-up time, permutations, report hash.

Usage: python3 bench/fresh.py <workload> <seed> [setup-only]

Prints one JSON line. ``run.py`` starts this script several times with
different ``PYTHONHASHSEED`` values, so the report hash and the Keccak-f
permutation count are compared across processes, not only within one. With
``setup-only`` it stops after timing the set-up, which is cheap, so set-up
time gets more samples than the full runs give.
"""

import time

_START = time.perf_counter()

import resource  # noqa: E402

# what the parent handed down across exec; the run's own peak must exceed it
_INHERITED_PEAK = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rollsim import scenarios  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: int, setup_only: bool) -> None:
    workload = WORKLOADS[name]
    config = workload.config(seed)
    setup_s = time.perf_counter() - _START

    import reference
    from probes import PermCounter

    setup_kernel_s = reference.seconds()
    if setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_kernel_s": setup_kernel_s}))
        return

    with PermCounter() as counter:
        report = scenarios.run(config)
    problems = workload.check(report, config)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= _INHERITED_PEAK:
        problems.append(f"peak resident set {peak} KiB is the parent's, not this run's")
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_kernel_s": setup_kernel_s,
                "keccak_perms": counter.perms,
                "report_hash": report.report_hash(),
                "problems": problems,
                "peak_mem_mb": peak / 1024,  # Linux reports KiB
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3:] == ["setup-only"])
