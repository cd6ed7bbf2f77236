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
    ("simulate-op",): "3cd86a91d0c6a5e880b1609468446671272437ecd422bfb920f0efb1f9c03fc6",
    ("simulate-op", "--fraud"): "175d25a4f34c846f7eb990931165a37f70ef8afae9e85d491e4858ca5cfcdc9c",
    ("simulate-validity",): "d35396dadda4e9dd82a88893e03e7424e5cf8f13e89f1c6f99a8cf26fb36177e",
}

WORKLOAD_GOLDEN = {
    "op-withdrawals": "22ebcca21dd6e23af1321388ad58669a29a47c029bdb21446a24e5657d343e43",
    "op-fraud-trace": "db5068f6cbd40e304388235ea4d9bba20f37b7cb066560a5976fe4fc5096891e",
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
