import contextlib
import dataclasses
import hashlib
import sys

import pytest
from click.testing import CliRunner

from rollsim import hashing
from rollsim.cli import main
from rollsim.hashing import keccak256
from rollsim.l1sim import L1Block, Tx
from rollsim.oprollup.derivation import L2Block
from rollsim.oprollup.l2 import OutputRootProof, WithdrawalTx
from rollsim.validityrollup.messaging import L1ToL2Message, L2ToL1Message


def _message(n: int) -> bytes:
    return bytes((7 * i + n) % 256 for i in range(n))


class TestKnownAnswers:
    def test_empty(self):
        assert keccak256(b"").hex() == (
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        )

    def test_abc(self):
        assert keccak256(b"abc").hex() == (
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        )

    def test_sponge_matches_stdlib_sha3_at_every_length(self):
        # SHA3-256 is the same sponge (permutation, rate, pad10*1) with domain
        # byte 0x06, so hashlib is an independent oracle for the permutation
        # and block absorption; lengths cover 0-3 rate boundaries (136, 272).
        lengths = range(421)
        assert {135, 136, 137, 271, 272} <= set(lengths)
        mismatches = [
            n for n in lengths
            if hashing._sponge(_message(n), 0x06) != hashlib.sha3_256(_message(n)).digest()
        ]
        assert mismatches == []

    @pytest.mark.parametrize("n", [0, 1, 135, 136, 137, 271, 272, 420])
    def test_one_permutation_per_started_block(self, n, monkeypatch):
        calls = []
        real = hashing._keccak_f
        monkeypatch.setattr(hashing, "_keccak_f", lambda s: calls.append(1) or real(s))
        with hashing.counting() as count:
            keccak256(_message(n))
        assert count.perms == len(calls) == n // 136 + 1


@contextlib.contextmanager
def _keccak_f_calls():
    """Count the calls of the real ``_keccak_f`` through a profile hook, an
    oracle that replaces no function; read ``[0]``."""
    code = hashing._keccak_f.__code__
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


class TestCounting:
    @pytest.mark.parametrize(
        "args", [["simulate-op", "--fraud"], ["simulate-validity"]], ids=" ".join
    )
    def test_counts_every_permutation_of_a_whole_run(self, args):
        with _keccak_f_calls() as calls, hashing.counting() as count:
            result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert count.perms == calls[0] > 0

    def test_nothing_counted_outside_a_block(self):
        with hashing.counting() as count:
            pass
        keccak256(_message(300))
        assert count.perms == 0

    def test_innermost_block_counts(self):
        with hashing.counting() as outer:
            keccak256(b"a")
            with hashing.counting() as inner:
                keccak256(_message(300))
            keccak256(b"b")
        assert (outer.perms, inner.perms) == (2, 3)

    def test_stand_in_sponge_is_counted_alike(self, sha3_perms):
        keccak256(_message(300))  # three started rate blocks
        assert sha3_perms.perms == 3


def _withdrawal():
    return WithdrawalTx(nonce=3, sender=0xA, target=0xB, value=7, gas_limit=21_000, data=b"\x01")


def _l1_block():
    txs = (Tx(sender=1, to=2, calldata=b"frame", value=3), Tx(sender=4, to=5))
    return L1Block(number=2, timestamp=24, basefee=10, parent_hash=b"\x11" * 32,
                   txs=txs, gas_used=42_000)


def _l2_block():
    return L2Block(number=4, epoch_number=1, epoch_hash=b"\x22" * 32, timestamp=12,
                   sequence_number=1, txs=(b"a", b"bc"))


def _output_root_proof():
    return OutputRootProof(version=b"\x00" * 32, state_root=b"\x01" * 32,
                           withdrawal_root=b"\x02" * 32, l2_block_hash=b"\x03" * 32)


def _l1_to_l2_message():
    return L1ToL2Message(from_address=0xD1, to_address=0x22, selector=5,
                         payload=(0x77, 100), nonce=3, fee=10)


def _l2_to_l1_message():
    return L2ToL1Message(from_address=0x22, to_address=0xD1, payload=(0, 0xEE, 50, 0))


# (factory, name of the memoized digest property)
MEMOIZED = [
    (_withdrawal, "hash"),
    (_l1_block, "hash"),
    (_l2_block, "hash"),
    (_output_root_proof, "output_root"),
    (_l1_to_l2_message, "hash"),
    (_l2_to_l1_message, "hash"),
]


@pytest.mark.parametrize("make, attr", MEMOIZED)
class TestMemoizedDigests:
    def test_stays_a_property(self, make, attr):
        # the traced benchmark pass wraps these through ``property.fget``
        assert isinstance(vars(type(make()))[attr], property)

    def test_equals_fresh_recomputation(self, make, attr):
        obj = make()
        compute = vars(type(obj))[attr].fget.__wrapped__
        first = getattr(obj, attr)
        assert first == compute(obj) == compute(make())
        assert getattr(obj, attr) is first

    def test_computed_once(self, make, attr, monkeypatch):
        obj = make()
        getattr(obj, attr)
        monkeypatch.setattr(hashing, "_keccak_f", lambda s: pytest.fail("digest recomputed"))
        getattr(obj, attr)

    def test_invisible_to_eq_hash_repr_and_asdict(self, make, attr):
        hashed, fresh = make(), make()
        before = (repr(hashed), dataclasses.asdict(hashed))
        getattr(hashed, attr)
        assert hashed == fresh and fresh == hashed
        assert hash(hashed) == hash(fresh)
        assert (repr(hashed), dataclasses.asdict(hashed)) == before

    def test_read_only(self, make, attr):
        with pytest.raises(AttributeError):
            setattr(make(), attr, b"\x00" * 32)
