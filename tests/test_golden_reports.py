"""Report bytes pinned across processes.

Each CLI scenario runs at its defaults in a fresh interpreter under two
``PYTHONHASHSEED`` values, and once more under ``python -O``, which strips
``assert`` statements; the printed report hash must equal the pin. The
benchmark's workloads are pinned at seed 1 in this process: their runs post
many frames, shuffled, and ``op-fraud-trace`` plays the dispute game. A
change that alters report bytes on purpose regenerates these pins and says
why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rollsim
from rollsim.scenarios import run

SRC = Path(rollsim.__file__).resolve().parent.parent

GOLDEN = {
    ("simulate-op",): "c2d6eb8247afdfc02fe5155a8dae3f61af29d248e67808e8a1d88e55ec409ae3",
    ("simulate-op", "--fraud"): "c15982de51d9fa0fac3d3a0dea860d7b46b3cb136521398f73f47b9adc983de2",
    ("simulate-validity",): "d35396dadda4e9dd82a88893e03e7424e5cf8f13e89f1c6f99a8cf26fb36177e",
}

WORKLOAD_GOLDEN = {
    "op-withdrawals": "52a917927146fef4a2501acdf3b34fececd78e92649d4a1756d85ceb470bef79",
    "op-fraud-trace": "8a25531370f86d5529c3c772aa438b96fb9cb9e310daebc79574b2182ece3cc4",
    "validity-messages": "a153de32327bb96a844e6fa016b233b632a084454336498444a4d4ad4412e5fb",
}


def _report_hash(args, hash_seed: str, *interpreter_flags: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "rollsim.cli", *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    first = result.stdout.splitlines()[0]
    assert first.startswith("report hash : "), first
    return first.removeprefix("report hash : ")


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_report_hash_pinned_across_processes(args):
    assert [_report_hash(args, seed) for seed in ("1", "4242")] == [GOLDEN[args]] * 2


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_report_hash_pinned_without_asserts(args):
    assert _report_hash(args, "1", "-O") == GOLDEN[args]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_GOLDEN))
def test_benchmark_workload_report_hash_pinned(bench_workloads, workload):
    config = bench_workloads.WORKLOADS[workload].config(1)
    assert run(config).report_hash() == WORKLOAD_GOLDEN[workload]
