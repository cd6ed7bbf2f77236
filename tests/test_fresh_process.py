"""What a fresh interpreter loads and runs.

The in-process tests share one interpreter in which the test modules have
already imported every part of rollsim, so a deferred import that is broken
or missing passes there. These start a new interpreter for each check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rollsim
from rollsim.cli import main
from test_golden_reports import GOLDEN

SRC = Path(rollsim.__file__).resolve().parent.parent

# what an optimistic run never executes, so neither importing scenarios nor
# an optimistic run may load it
VALIDITY_STACK = (
    "rollsim.costbench",
    "rollsim.snark",
    "rollsim.validityrollup.cairo",
    "rollsim.validityrollup.messaging",
    "rollsim.validityrollup.settlement",
    "rollsim.validityrollup.statediff",
)

# every subcommand, with arguments that keep its run short
SUBCOMMANDS = {
    "run": [],
    "simulate-op": [],
    "simulate-validity": [],
    "dispute-demo": ["--steps", "16", "--fault", "9"],
    "snark-demo": [],
    "schnorr-demo": ["--small-group"],
    "cost-report": [],
    "bloom-calc": ["-n", "10", "-p", "0.01"],
}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "ROLLSIM_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_scenarios_import_leaves_the_validity_stack_to_a_validity_run():
    script = f"""
import json, sys
from rollsim import scenarios
loaded = lambda: [name for name in {VALIDITY_STACK!r} if name in sys.modules]
on_import = loaded()
from rollsim.cli import _DEFAULT_WORKLOAD
run = lambda rollup: scenarios.run(
    scenarios.ScenarioConfig(rollup=rollup, **_DEFAULT_WORKLOAD)).report_hash()
optimistic = run("optimistic")
after_optimistic = loaded()
print(json.dumps({{"on_import": on_import, "optimistic": optimistic,
                  "after_optimistic": after_optimistic, "validity": run("validity")}}))
"""
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "on_import": [], "optimistic": GOLDEN[("simulate-op",)],
        "after_optimistic": [], "validity": GOLDEN[("simulate-validity",)],
    }


def test_every_subcommand_is_listed():
    assert sorted(SUBCOMMANDS) == sorted(main.commands)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_exits_0_in_a_fresh_process(command):
    result = _python("-m", "rollsim.cli", command, *SUBCOMMANDS[command])
    assert result.returncode == 0, result.stderr
    assert result.stdout
