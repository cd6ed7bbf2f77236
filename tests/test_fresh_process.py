"""What a fresh interpreter loads and runs.

The in-process tests share one interpreter in which the test modules have
already imported every part of rollsim, so a deferred import that is broken
or missing passes there. These start a new interpreter for each check.
"""

import ast
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
    "rollsim.validityrollup.scenario",
    "rollsim.validityrollup.settlement",
    "rollsim.validityrollup.statediff",
)

# what a validity run never executes, so neither importing scenarios nor a
# validity run may load it
OPTIMISTIC_STACK = (
    "rollsim.merkle",
    "rollsim.rlp",
    "rollsim.oprollup.batching",
    "rollsim.oprollup.deposits",
    "rollsim.oprollup.derivation",
    "rollsim.oprollup.dispute",
    "rollsim.oprollup.l2",
    "rollsim.oprollup.scenario",
    "rollsim.oprollup.withdrawals",
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


def test_each_rollup_stack_loads_only_for_its_own_run():
    script = """
import json, sys
stacks = {"optimistic": %r, "validity": %r, "fractions": ("fractions",)}
loaded = lambda: {stack: [name for name in names if name in sys.modules]
                  for stack, names in stacks.items()}
from rollsim import scenarios
on_import = loaded()
from rollsim.cli import _DEFAULT_WORKLOAD
report_hash = scenarios.run(
    scenarios.ScenarioConfig(rollup=sys.argv[1], **_DEFAULT_WORKLOAD)).report_hash()
print(json.dumps({"on_import": on_import, "after_run": loaded(), "report_hash": report_hash}))
""" % (OPTIMISTIC_STACK, VALIDITY_STACK)
    seen = {}
    for rollup in ("optimistic", "validity"):
        result = _python("-c", script, rollup)
        assert result.returncode == 0, result.stderr
        seen[rollup] = json.loads(result.stdout)
    nothing = {"optimistic": [], "validity": [], "fractions": []}
    assert seen == {
        "optimistic": {
            "on_import": nothing,
            "after_run": {**nothing, "optimistic": list(OPTIMISTIC_STACK)},
            "report_hash": GOLDEN[("simulate-op",)],
        },
        "validity": {
            "on_import": nothing,
            "after_run": {**nothing, "validity": list(VALIDITY_STACK)},
            "report_hash": GOLDEN[("simulate-validity",)],
        },
    }


def test_every_subcommand_is_listed():
    assert sorted(SUBCOMMANDS) == sorted(main.commands)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_exits_0_in_a_fresh_process(command):
    result = _python("-m", "rollsim.cli", command, *SUBCOMMANDS[command])
    assert result.returncode == 0, result.stderr
    assert result.stdout


def _names_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_has_a_docstring():
    """A dataclass defined without a docstring gets one built from
    ``inspect.signature`` when its module loads, in every fresh process."""
    missing = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path in sorted((SRC / "rollsim").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(map(_names_dataclass, node.decorator_list))
        and ast.get_docstring(node) is None
    ]
    assert not missing
