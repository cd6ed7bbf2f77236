"""Tests of the benchmark's own instrumentation and output checks.

Run from the repository root: python3 -m pytest bench/test_probes.py
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from probes import LAYER_METRICS, PermCounter, SpanRecorder  # noqa: E402
from rollsim import hashing, merkle, scenarios  # noqa: E402
from rollsim.oprollup import l2  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (input, expected digest or None, Keccak-f permutations); the inputs of
# 135, 136 and 137 bytes sit around the 136-byte rate, where padding spills
# into a second block at 136
VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470", 1),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45", 1),
    (b"\x61" * 135, None, 1),
    (b"\x61" * 136, None, 2),
    (b"\x61" * 137, None, 2),
]


@pytest.mark.parametrize("data,digest,perms", VECTORS)
def test_counter_keeps_digests_and_counts_permutations(data, digest, perms):
    original = hashing.keccak256
    expected = original(data)
    if digest is not None:
        assert expected.hex() == digest
    with PermCounter() as counter:
        assert hashing.keccak256 is not original
        assert hashing.keccak256(data) == expected
    assert (counter.calls, counter.perms) == (1, perms)


def test_counter_reaches_imported_copies_and_default_arguments():
    original = hashing.keccak256
    with PermCounter() as counter:
        assert l2.keccak256 is hashing.keccak256 is not original
        assert merkle.hash_leaf.__defaults__ == (hashing.keccak256,)
        merkle.hash_leaf(b"leaf")
        merkle.MerkleTree([b"a", b"b"])
    # one leaf hash, then two leaves and their parent
    assert counter.calls == 4
    assert l2.keccak256 is hashing.keccak256 is original
    assert merkle.hash_leaf.__defaults__ == (original,)
    assert merkle.MerkleTree.__init__.__defaults__ == (original,)


def test_counted_permutations_equal_keccak_f_calls(monkeypatch):
    # the Merkle-heavy workload, so calls through hash_fn defaults count too
    workload = WORKLOADS["op-withdrawals"]
    config = workload.config(0)
    permutations = []
    keccak_f = hashing._keccak_f
    monkeypatch.setattr(hashing, "_keccak_f", lambda state: permutations.append(1) or keccak_f(state))
    with PermCounter() as counter:
        report = scenarios.run(config)
    assert workload.check(report, config) == []
    assert counter.perms == len(permutations) > 0


def test_traced_pass_attributes_every_permutation_and_restores_bindings():
    workload = WORKLOADS["op-fraud-trace"]
    config = workload.config(0)
    with PermCounter() as counter:
        plain = scenarios.run(config)
    with SpanRecorder() as recorder:
        traced = scenarios.run(config)
    assert traced.report_hash() == plain.report_hash()
    metrics = recorder.metrics()
    assert list(metrics) == [name for name, _ in LAYER_METRICS]
    assert sum(recorder.layer_perms.values()) == counter.perms
    assert metrics["oprollup.dispute.rounds"] == plain.dispute["rounds"] == 10
    assert metrics["oprollup.dispute.VmRunner.step.calls"] == workload.dispute_steps
    assert metrics["oprollup.withdrawals.finalize_rejected"] == workload.users
    # self times partition the root span: they add up to its duration
    root = next(span for span in recorder.spans if span[3] == -1)
    self_total = sum(s for _, s in recorder.span_totals().values())
    assert self_total == pytest.approx(root[2] - root[1], rel=1e-6)
    assert not hasattr(scenarios.run, "__wrapped__")


def test_check_reports_missing_withdrawals():
    workload = WORKLOADS["validity-messages"]
    config = workload.config(0)
    report = scenarios.RunReport(
        version="", config_hash="", timeline=[], gas={}, dispute={},
        withdrawal_latencies={}, cost={}, invariant_violations=[],
    )
    problems = workload.check(report, config)
    assert problems == [f"0 withdrawal_consumed events for {workload.users} withdrawals"]
