"""The benchmark's traced pass wraps rollsim functions by name.

``bench/probes.py`` lists them in ``LAYER_FUNCTIONS``; a refactor of ``src/``
that renames one, or turns a ``property`` into another descriptor, breaks
``bench/run.py --trace 1``. This test imports the probes module without
running or changing anything and checks that every entry still resolves.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "bench" / "probes.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("_bench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


@pytest.mark.parametrize("module_name, qualname", _layer_functions())
def test_layer_function_resolves(module_name, qualname):
    module = importlib.import_module(f"rollsim.{module_name}")
    owner_name, _, member = qualname.rpartition(".")
    if owner_name:
        target = vars(getattr(module, owner_name))[member]
        assert isinstance(target, (types.FunctionType, property)), (qualname, target)
    else:
        assert isinstance(getattr(module, member), types.FunctionType)
