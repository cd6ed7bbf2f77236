"""Report bytes pinned across processes.

Each CLI scenario runs at its defaults in a fresh interpreter under two
``PYTHONHASHSEED`` values, and once more under ``python -O``, which strips
``assert`` statements; the printed report hash must equal the pin. A
change that alters report bytes on purpose regenerates these pins and says
why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rollsim

SRC = Path(rollsim.__file__).resolve().parent.parent

GOLDEN = {
    ("simulate-op",): "b64263b86205fe0cd1ca422197c8a421282627a511fc818c4312b01908b8b42f",
    ("simulate-op", "--fraud"): "9e059f803b487dd66e2df631561c3e5d5ece65e8feaafb20d5ef3a9d4d966bc9",
    ("simulate-validity",): "486ff0c6c101cca9906961bb6eef321b3fc1125cabb159ea65fa56f2d9ed1c9e",
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
