import hashlib
import importlib.util
import pathlib
import sys

import pytest

from rollsim import hashing


@pytest.fixture
def keccak_perms():
    """Counts Keccak-f permutations during the test; read ``keccak_perms.perms``."""
    with hashing.counting() as count:
        yield count


def _sha3(data):
    return hashlib.sha3_256(data).digest()


@pytest.fixture
def sha3_perms(monkeypatch):
    """Puts hashlib's SHA3-256 in for the Keccak sponge, the batched one
    included, and counts as ``keccak_perms`` does; read ``sha3_perms.perms``.
    Both sponges are replaced, so a run never mixes SHA3 and Keccak digests.
    No control flow reads a digest value, so the counts are those of Keccak
    at a fraction of the time. For sweeps only, never for reports."""
    monkeypatch.setattr(hashing, "_sponge", lambda data, domain: _sha3(data))
    monkeypatch.setattr(
        hashing, "_sponge_many", lambda blobs, domain: [(_sha3(b), 0) for b in blobs]
    )
    with hashing.counting() as count:
        yield count


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload module, ``bench/workloads.py``, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
