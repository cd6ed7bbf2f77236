import contextlib
import dataclasses
import hashlib
import random
import sys
import types

import pytest
from click.testing import CliRunner

from rollsim import hashing
from rollsim.cli import main
from rollsim.hashing import keccak256
from rollsim.l1sim import Chain, L1Block, Tx
from rollsim.oprollup.derivation import L2Block
from rollsim.oprollup.dispute import CHALLENGER, play_planted_fault
from rollsim.oprollup.l2 import OutputRootProof, WithdrawalTx
from rollsim.scenarios import ScenarioConfig, run
from rollsim.validityrollup.messaging import (
    InvalidMessageToConsume,
    L1ToL2Message,
    L2ToL1Message,
    StarkNetCore,
    ValidityL2State,
    prefetch_to_l1,
    prefetch_to_l2,
    send_message_to_l1,
    starkgate_withdraw_payload,
)
from rollsim.validityrollup.scenario import L1_BRIDGE_ADDRESS, L2_BRIDGE_ADDRESS

EMPTY_DIGEST = "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
ABC_DIGEST = "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"


def _message(n: int) -> bytes:
    return bytes((7 * i + n) % 256 for i in range(n))


class TestKnownAnswers:
    def test_empty(self):
        assert keccak256(b"").hex() == EMPTY_DIGEST

    def test_abc(self):
        assert keccak256(b"abc").hex() == ABC_DIGEST

    def test_sponge_matches_stdlib_sha3_at_every_length(self):
        # SHA3-256 is the same sponge (permutation, rate, pad10*1) with domain
        # byte 0x06, so hashlib is an independent oracle for the permutation
        # and block absorption; lengths cover 0-3 rate boundaries (136, 272).
        lengths = range(421)
        assert {135, 136, 137, 271, 272, 273} <= set(lengths)
        mismatches = [
            n for n in lengths
            if hashing._sponge(_message(n), 0x06) != hashlib.sha3_256(_message(n)).digest()
        ]
        assert mismatches == []

    def test_sponge_matches_stdlib_sha3_on_random_messages(self):
        # random content up to 700 bytes: up to six blocks, each boundary
        # through 680 hit exactly and by one byte either side
        rnd = random.Random(14)
        lengths = [rnd.randrange(701) for _ in range(200)]
        lengths += [n + k for n in (136, 272, 408, 544, 680) for k in (-1, 0, 1)] + [700]
        messages = [rnd.randbytes(n) for n in lengths]
        mismatches = [
            len(m) for m in messages
            if hashing._sponge(m, 0x06) != hashlib.sha3_256(m).digest()
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


_MASK64 = (1 << 64) - 1


def _rotl(v: int, r: int) -> int:
    return (v << r | v >> (64 - r)) & _MASK64


def _rho_offsets() -> dict[tuple[int, int], int]:
    """FIPS 202 Algorithm 2: the rotation of lane (x, y) by its walk index t."""
    offsets = {(0, 0): 0}
    x, y = 1, 0
    for t in range(24):
        offsets[x, y] = (t + 1) * (t + 2) // 2 % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


def _rc(t: int) -> int:
    """FIPS 202 Algorithm 5: bit t of the round-constant LFSR."""
    r = 1
    for _ in range(t % 255):
        r <<= 1
        if r & 0x100:
            r ^= 0x171  # R[0], R[4], R[5], R[6] ^= R[8], then drop R[8]
    return r & 1


def _textbook_keccak_f(lanes: list[int]) -> list[int]:
    """Keccak-f[1600] step by step as FIPS 202 section 3.2 writes it, over
    A[x][y] = lane x + 5y, with the rho offsets and round constants derived
    from their algorithms rather than copied from ``hashing``."""
    rho = _rho_offsets()
    a = [[lanes[x + 5 * y] for y in range(5)] for x in range(5)]
    for ir in range(24):
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        a = [[a[x][y] ^ d[x] for y in range(5)] for x in range(5)]  # theta
        a = [[_rotl(a[x][y], rho[x, y]) for y in range(5)] for x in range(5)]  # rho
        a = [[a[(x + 3 * y) % 5][x] for y in range(5)] for x in range(5)]  # pi
        a = [[a[x][y] ^ (a[(x + 1) % 5][y] ^ _MASK64) & a[(x + 2) % 5][y]
              for y in range(5)] for x in range(5)]  # chi
        a[0][0] ^= sum(_rc(j + 7 * ir) << (2 ** j - 1) for j in range(7))  # iota
    return [a[i % 5][i // 5] for i in range(25)]


# XKCP KeccakF-1600-IntermediateValues: the all-zero state after one
# permutation and after two, lanes in index order x + 5y
_ZERO_ONCE = """
    F1258F7940E1DDE7 84D5CCF933C0478A D598261EA65AA9EE BD1547306F80494D 8B284E056253D057
    FF97A42D7F8E6FD4 90FEE5A0A44647C4 8C5BDA0CD6192E76 AD30A6F71B19059C 30935AB7D08FFC64
    EB5AA93F2317D635 A9A6E6260D712103 81A57C16DBCF555F 43B831CD0347C826 01F22F1A11A5569F
    05E5635A21D9AE61 64BEFEF28CC970F2 613670957BC46611 B87C5A554FD00ECB 8C3EE88A1CCF32C8
    940C7922AE3A2614 1841F924A2C509E4 16F53526E70465C2 75F644E97F30A13B EAF1FF7B5CECA249
"""
_ZERO_TWICE = """
    2D5C954DF96ECB3C 6A332CD07057B56D 093D8D1270D76B6C 8A20D9B25569D094 4F9C4F99E5E7F156
    F957B9A2DA65FB38 85773DAE1275AF0D FAF4F247C3D810F7 1F1B9EE6F79A8759 E4FECC0FEE98B425
    68CE61B6B9CE68A1 DEEA66C4BA8F974F 33C43D836EAFB1F5 E00654042719DBD9 7CF8A9F009831265
    FD5449A6BF174743 97DDAD33D8994B40 48EAD5FC5D0BE774 E3B8C8EE55B7B03C 91A0226E649E42E9
    900E3129E7BADD7B 202A9EC5FAA3CCE8 5B3402464E1C3DB6 609F4E62A44C1059 20D06CD26A8FBF5C
"""


def _lanes(text: str) -> list[int]:
    return [int(word, 16) for word in text.split()]


class TestPermutation:
    def test_zero_state_intermediate_values(self):
        once = hashing._keccak_f([0] * 25)
        assert once == _textbook_keccak_f([0] * 25) == _lanes(_ZERO_ONCE)
        assert hashing._keccak_f(once) == _lanes(_ZERO_TWICE)

    def test_matches_textbook_reference(self):
        # lane 1 is the lane rho rotates by 1, a right shift by 63: its
        # one-bit states spend the most copy bits a rotation can
        rnd = random.Random(1600)
        states = [[rnd.getrandbits(64) for _ in range(25)] for _ in range(200)]
        states.append([_MASK64] * 25)
        states += [[0, 1 << i] + [0] * 23 for i in range(64)]
        mismatches = [
            i for i, state in enumerate(states)
            if hashing._keccak_f(state) != _textbook_keccak_f(state)
        ]
        assert mismatches == []


def _pack(states: list[list[int]]) -> list[int]:
    """Lane i of state k into bits [64k, 64k + 64) of lane i."""
    return [sum(state[i] << 64 * k for k, state in enumerate(states)) for i in range(25)]


def _unpack(lanes: list[int], slots: int) -> list[list[int]]:
    return [[lane >> 64 * k & _MASK64 for lane in lanes] for k in range(slots)]


class TestPackedPermutation:
    # the kernel does not depend on ``_CHUNK``: 63, 64 and 65 straddle a
    # slot count of a power of two, and TestBatchedSponge checks the chunks
    @pytest.mark.parametrize("slots", [1, 2, 3, 4, 63, 64, 65, 320])
    def test_every_slot_matches_scalar_and_textbook(self, slots):
        rnd = random.Random(slots)
        states = [[rnd.getrandbits(64) for _ in range(25)] for _ in range(slots)]
        # all ones beside all zeros beside top bits only: a rotation mask that
        # let a bit cross into the next slot would show in a neighbour
        edges = [[_MASK64] * 25, [0] * 25, [1 << 63] * 25]
        states[:len(edges)] = edges[:slots]
        out = hashing._keccak_f_packed(_pack(states), slots)
        assert all(lane >> 64 * slots == 0 for lane in out)  # no bits past the last slot
        got = _unpack(out, slots)
        assert [k for k in range(slots) if got[k] != hashing._keccak_f(states[k])] == []
        assert [k for k in range(slots) if got[k] != _textbook_keccak_f(states[k])] == []

    def test_zero_states_intermediate_values(self):
        once = hashing._keccak_f_packed([0] * 25, 3)
        assert _unpack(once, 3) == [_lanes(_ZERO_ONCE)] * 3
        assert _unpack(hashing._keccak_f_packed(once, 3), 3) == [_lanes(_ZERO_TWICE)] * 3


class TestBatchedSponge:
    def test_matches_stdlib_sha3_at_every_length_in_one_call(self):
        # one to four blocks in one call: 421 blobs, one chunk whose width
        # shrinks from 421 to 285, 149 and 13 slots as blobs end
        messages = [_message(n) for n in range(421)]
        with _permuted_slots() as slots:
            got = hashing._sponge_many(messages, 0x06)
        assert [digest for digest, _ in got] == [hashlib.sha3_256(m).digest() for m in messages]
        assert [packed for _, packed in got] == [hashing._blocks(len(m)) for m in messages]
        assert slots.widths == [421, 285, 149, 13]
        # with the Keccak domain byte, both sponges agree at every length too
        keccak = [digest for digest, _ in hashing._sponge_many(messages, 0x01)]
        assert keccak == [hashing._sponge(m, 0x01) for m in messages]

    def test_keccak_known_answers_inside_a_batch(self):
        blobs = [b"", b"abc", _message(50), _message(135)]
        got = hashing._sponge_many(blobs, 0x01)
        assert got[:2] == [(bytes.fromhex(EMPTY_DIGEST), True), (bytes.fromhex(ABC_DIGEST), True)]
        with hashing.prefetch(blobs), hashing.counting() as count:
            assert keccak256(b"").hex() == EMPTY_DIGEST
            assert keccak256(b"abc").hex() == ABC_DIGEST
        assert (count.perms, count.packed) == (2, 2)

    def test_a_batch_of_one_blob_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(hashing, "_keccak_f_packed", lambda state, slots: pytest.fail("packed"))
        blob = _message(300)
        assert hashing._sponge_many([blob], 0x06) == [(hashlib.sha3_256(blob).digest(), 0)]

    def test_blobs_of_every_length_share_slots_until_one_is_left(self):
        # one, two and three blocks: all three slots absorb block 0, the
        # three-byte blob ends and its slot is dropped, two absorb block 1,
        # and the longest blob's last block runs alone on the scalar kernel
        blobs = [_message(n) for n in (3, 140, 300)]
        with _permuted_slots() as slots:
            got = hashing._sponge_many(blobs, 0x06)
        assert (slots.widths, slots.total - slots.packed) == ([3, 2], 1)
        assert [packed for _, packed in got] == [1, 2, 2]
        assert [digest for digest, _ in got] == [hashlib.sha3_256(m).digest() for m in blobs]

    @pytest.mark.parametrize(
        "n", [hashing._CHUNK - 1, hashing._CHUNK, hashing._CHUNK + 1, 2 * hashing._CHUNK + 1]
    )
    def test_chunks_hold_at_most_chunk_slots(self, n):
        # mixed lengths of one to three blocks; past ``_CHUNK`` blobs the
        # batch splits into near-equal chunks, none wider than ``_CHUNK``
        rnd = random.Random(n)
        blobs = [rnd.randbytes(rnd.randrange(3 * 136)) for _ in range(n)]
        with _permuted_slots() as slots:
            got = hashing._sponge_many(blobs, 0x06)
        assert [digest for digest, _ in got] == [hashlib.sha3_256(m).digest() for m in blobs]
        assert max(slots.widths) <= hashing._CHUNK
        assert slots.widths[0] == n // -(-n // hashing._CHUNK)
        assert sum(packed for _, packed in got) == slots.packed

    def test_random_mixed_batches_match_stdlib_and_count_every_slot(self):
        # a seeded differential: batches of 1 to 130 blobs of 0 to 900 bytes,
        # the lengths round the first rate boundary among them. The packed
        # counts handed out per blob add up to the slots the kernel permuted,
        # and reading a batch back through ``keccak256`` counts the same
        rnd = random.Random(30)
        for _ in range(200):
            blobs = [rnd.randbytes(rnd.choice([rnd.randrange(901), 135, 136, 137]))
                     for _ in range(rnd.randrange(1, 131))]
            with _permuted_slots() as slots:
                got = hashing._sponge_many(blobs, 0x06)
            assert [digest for digest, _ in got] == [hashlib.sha3_256(m).digest() for m in blobs]
            assert sum(packed for _, packed in got) == slots.packed
            with _permuted_slots() as slots, hashing.counting() as count:
                with hashing.prefetch(blobs) as scope:
                    for blob in blobs:
                        keccak256(blob)
                    assert scope.unread == 0
            assert (count.perms, count.packed) == (slots.total, slots.packed)


class TestPadding:
    """One padding rule, ``_tail``, pads the last block in both sponges."""

    @pytest.mark.parametrize("domain", [0x01, 0x06])
    def test_tail_completes_the_last_block(self, domain):
        # 0-3 rate boundaries, each hit and missed by one
        for n in range(411):
            tail = hashing._tail(n % 136, domain)
            assert (n + len(tail)) % 136 == 0 and 1 <= len(tail) <= 136, n
            if len(tail) == 1:
                assert tail == bytes((domain | 0x80,))
            else:
                assert tail == bytes((domain,)) + bytes(len(tail) - 2) + b"\x80", n

    def test_mixed_batch_builds_each_tail_once(self):
        # 5, 141 and 277 bytes share a tail, as do 135 and 271, and 0, 136
        # and 272; 60 bytes has its own. Ten blobs, four distinct tails
        lengths = [5, 141, 277, 5, 135, 271, 0, 136, 272, 60]
        blobs = [_message(n) for n in lengths]
        hashing._tail.cache_clear()
        got = hashing._sponge_many(blobs, 0x06)
        assert [digest for digest, _ in got] == [hashlib.sha3_256(b).digest() for b in blobs]
        info = hashing._tail.cache_info()
        assert (info.misses, info.hits) == (4, 6)


@contextlib.contextmanager
def _permuted_slots():
    """Count the states the real kernels permute through a profile hook, an
    oracle that replaces no function: one per ``_keccak_f`` call, and
    ``slots`` per ``_keccak_f_packed`` call; read ``.total`` and ``.packed``,
    and ``.widths``, the ``slots`` of each packed call in order."""
    scalar = hashing._keccak_f.__code__
    packed = hashing._keccak_f_packed.__code__
    seen = types.SimpleNamespace(total=0, packed=0, widths=[])

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is scalar:
                seen.total += 1
            elif frame.f_code is packed:
                seen.total += frame.f_locals["slots"]
                seen.packed += frame.f_locals["slots"]
                seen.widths.append(frame.f_locals["slots"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


def _validity_users(n: int) -> ScenarioConfig:
    """n users each deposit and withdraw on the validity rollup."""
    users = [0x1000 + i for i in range(n)]
    return ScenarioConfig(
        rollup="validity",
        deposits=[{"user": u, "value": 10_000} for u in users],
        withdrawals=[{"user": u, "value": 700} for u in users],
    )


class TestCounting:
    @pytest.mark.parametrize(
        "args", [["simulate-op", "--fraud"], ["simulate-validity"]], ids=" ".join
    )
    def test_counts_every_permutation_of_a_whole_run(self, args):
        with _permuted_slots() as slots, hashing.counting() as count:
            result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert count.perms == slots.total > 0

    def test_counts_every_permuted_slot_of_a_batched_run(self):
        # 320 deposit messages hashed together when L1 sends them, and 320
        # withdrawal messages hashed together when the L2 sends them; every
        # message is two blocks, and L1's consumes read the sends' digests
        # from the run's memo. Settlement's prover hashes its pages together:
        # the diff's nine 17-block pages, the message blob's eight 17-block
        # pages and a 16-block one; its three-block next root and three-block
        # transition digest run alone, and the verifier reads them all from
        # the memo
        with _permuted_slots() as slots, hashing.counting() as count:
            report = run(_validity_users(320))
        assert report.ok
        assert count.perms == slots.total > 0
        assert count.packed == slots.packed == 2 * 320 * 2 + 9 * 17 + 8 * 17 + 16

    def test_nothing_counted_outside_a_block(self):
        with hashing.counting() as count:
            pass
        keccak256(_message(300))
        assert count.perms == 0

    def test_inner_block_adds_into_enclosing(self):
        with hashing.counting() as outer:
            keccak256(b"a")
            with hashing.counting() as inner:
                keccak256(_message(300))
            keccak256(b"b")
        assert (outer.perms, inner.perms) == (5, 3)

    def test_inner_block_adds_its_count_on_an_exception(self):
        with hashing.counting() as outer:
            with pytest.raises(KeyError), hashing.counting() as inner:
                keccak256(_message(300))
                raise KeyError
        assert (outer.perms, inner.perms) == (3, 3)

    def test_open_inner_block_is_not_yet_in_the_enclosing_one(self):
        with hashing.counting() as outer:
            keccak256(b"a")
            with hashing.counting() as inner:
                keccak256(_message(300))
                assert (outer.perms, inner.perms) == (1, 3)
            assert outer.perms == 4

    # (permutations, packed permutations per phase) of a run at seed 1,
    # exactly. An added hash fails the total. A prefetched preimage that
    # drifts from what the hash reads misses and is hashed for real, unpacked:
    # the total and the report stay, and the packed count fails. The dispute
    # VM's memory tree hashes each level's new blobs as one packed batch,
    # while the withdrawal path hashes nothing packed yet
    PINNED = {
        "op-withdrawals": (206, {}),
        "op-fraud-trace": (179, {"dispute": 85}),
        "validity-messages": (1596, {"message_and_execute": 1280, "prove_and_settle": 305}),
    }

    @pytest.mark.parametrize("workload", PINNED)
    def test_profiled_run_adds_into_enclosing_block(self, bench_workloads, workload):
        config = bench_workloads.WORKLOADS[workload].config(1)
        rows = []
        with hashing.counting() as profiled:
            assert run(config, profile=rows).ok
        with hashing.counting() as plain:
            run(config)
        summed = (sum(row.perms for row in rows), sum(row.packed for row in rows))
        assert (profiled.perms, profiled.packed) == summed == (plain.perms, plain.packed)
        assert profiled.perms > 0
        packed = {row.phase: row.packed for row in rows if row.packed}
        assert (profiled.perms, packed) == self.PINNED[workload]

    def test_stand_in_sponge_is_counted_alike(self, sha3_perms):
        keccak256(_message(300))  # three started rate blocks
        assert sha3_perms.perms == 3

    def test_stand_in_replaces_the_batched_sponge_too(self, sha3_perms, monkeypatch):
        monkeypatch.setattr(hashing, "_keccak_f_packed", lambda state, slots: pytest.fail("packed"))
        monkeypatch.setattr(hashing, "_keccak_f", lambda state: pytest.fail("scalar"))
        assert run(_validity_users(320)).ok
        assert sha3_perms.perms > 0 and sha3_perms.packed == 0
        blob = _message(10)
        with hashing.prefetch([blob, blob]):
            ready = keccak256(blob)
        assert ready == keccak256(blob) == hashlib.sha3_256(blob).digest()


class TestPrefetch:
    def test_repeated_blob_is_read_right_each_time(self):
        # a blob listed twice is one slot and one read; asked for again, it
        # is hashed for real
        blob, other = _message(200), _message(150)  # two blocks each
        expected, expected_other = hashing._sponge(blob, 0x01), hashing._sponge(other, 0x01)
        with _permuted_slots() as slots, hashing.counting() as count:
            with hashing.prefetch([blob, blob, other]) as scope:
                assert scope.unread == 2
                assert keccak256(blob) == keccak256(blob) == expected
                assert scope.unread == 1
                assert keccak256(other) == expected_other
                assert scope.unread == 0
        assert count.perms == slots.total == 2 * 2 + 2
        assert count.packed == slots.packed == 2 * 2

    def test_identical_withdrawals_are_hashed_once(self, monkeypatch):
        config = ScenarioConfig(
            rollup="validity", deposits=[{"user": 1, "value": 100}],
            withdrawals=[{"user": 1, "value": 10}, {"user": 1, "value": 10}],
        )
        hashed = []
        sponge, sponge_many = hashing._sponge, hashing._sponge_many
        monkeypatch.setattr(
            hashing, "_sponge", lambda data, domain: hashed.append(data) or sponge(data, domain)
        )
        monkeypatch.setattr(
            hashing, "_sponge_many",
            lambda blobs, domain: hashed.extend(blobs) or sponge_many(blobs, domain),
        )
        with _permuted_slots() as slots, hashing.counting() as count:
            report = run(config)
        assert report.ok and len(report.withdrawal_latencies) == 2
        # the L2 sends one message twice and L1 consumes it twice: its
        # preimage is one slot of the sends' scope, a lone one, so scalar
        sent = L2ToL1Message(
            L2_BRIDGE_ADDRESS, L1_BRIDGE_ADDRESS, tuple(starkgate_withdraw_payload(1, 10))
        )
        assert hashed.count(sent.preimage) == 1
        assert count.perms == slots.total
        # only settlement's prover runs packed: a two-block diff page and a
        # two-block message page
        assert count.packed == slots.packed == 2 + 2

    def test_tampered_consume_is_hashed_and_refused(self):
        # the L2 sends first, which warms the run's memo; the honest consume
        # then reads the send's digest, and a tampered payload, a blob the
        # memo has not seen, is hashed and refused
        core, l2 = StarkNetCore(Chain()), ValidityL2State()
        payload, other = (0, 0xEE, 50, 0), (0, 0xEF, 60, 0)
        sent = [L2ToL1Message(0x22, 0xD1, payload), L2ToL1Message(0x22, 0xD1, other)]
        with hashing.run_memo():
            with hashing.counting() as count, prefetch_to_l1(sent) as scope:
                for message in sent:
                    send_message_to_l1(l2, message)
            assert (scope.unread, count.perms, count.packed) == (0, 2 * 2, 2 * 2)
            core.l2_to_l1_counters[sent[0].hash] = 1
            with hashing.counting() as count:
                with pytest.raises(InvalidMessageToConsume):
                    core.consume_message_from_l2(0x22, (0, 0xEE, 51, 0), caller=0xD1)
            assert (count.perms, count.packed) == (2, 0)
            with hashing.counting() as count:
                assert core.consume_message_from_l2(0x22, payload, caller=0xD1) == sent[0].hash
            assert (count.perms, count.packed) == (0, 0)
        assert core.l2_to_l1_counters[keccak256(sent[0].preimage)] == 0

    @staticmethod
    def _watch_scopes(monkeypatch) -> list[tuple[str, int, int]]:
        """Record ``(opener, listed at entry, unread at exit)`` of every
        ``prefetch`` scope opened through the module from now on, as it
        closes; the opener is the module, under ``rollsim``, that called
        ``prefetch``."""
        real, scopes = hashing.prefetch, []

        @contextlib.contextmanager
        def watch(blobs, opener):
            with real(blobs) as scope:
                listed = scope.unread
                yield scope
            scopes.append((opener, listed, scope.unread))

        def watched(blobs):
            # read the caller here: inside ``watch`` it would be contextlib
            opener = sys._getframe(1).f_globals["__name__"].removeprefix("rollsim.")
            return watch(blobs, opener)

        monkeypatch.setattr(hashing, "prefetch", watched)
        return scopes

    def test_no_digest_left_unread_when_a_scope_closes(self, monkeypatch):
        # an unread digest is work the model did not ask for
        scopes = self._watch_scopes(monkeypatch)
        assert run(_validity_users(320)).ok
        # deposit sends, withdrawal sends, and settlement's prover (one slot
        # of each of the nine diff pages and nine message pages); the
        # verifier and L1's consumes read the run's memo and open no scope
        assert [opener for opener, _, _ in scopes] == [
            "validityrollup.messaging", "validityrollup.messaging", "validityrollup.settlement",
        ]
        assert [(listed, unread) for _, listed, unread in scopes] == [
            (320, 0), (320, 0), (9 + 9, 0)
        ]

    def test_no_digest_left_unread_when_a_game_scope_closes(self, monkeypatch):
        # the memory tree opens one scope per level of its build and of each
        # cursor move, over the level's blobs its memo has not seen, and none
        # for a level it has seen whole; those scopes read 85 of the game's
        # 135 permutations packed
        scopes = self._watch_scopes(monkeypatch)
        with _permuted_slots() as slots, hashing.counting() as count:
            game = play_planted_fault((0, 1, 3, 0, 1, 0, 0, 0), 1024, 600, 0xC, 0xD)
        assert game.winner == CHALLENGER
        assert len(scopes) == 44
        assert all(opener == "oprollup.dispute" for opener, _, _ in scopes)
        assert all(listed > 0 and unread == 0 for _, listed, unread in scopes)
        assert count.perms == slots.total == 135
        assert count.packed == slots.packed == 85

    @pytest.mark.parametrize("nonce", [0, 2**255])
    def test_l1_to_l2_hash_reads_its_prefetched_preimage(self, nonce):
        # payloads of 0 to 6 words: 2-block preimages up to 3 words, 3-block ones
        # from 4, so both block counts run packed in one prefetch
        messages = [
            L1ToL2Message(from_address=0xD1, to_address=0x22, selector=5,
                          payload=tuple(range(0x70, 0x70 + n)), nonce=nonce + n, fee=10)
            for n in range(7)
        ]
        words = [(m.from_address, m.to_address, m.selector, len(m.payload), *m.payload, m.nonce)
                 for m in messages]
        expected = [hashing._sponge(b"".join(w.to_bytes(32, "big") for w in ws), 0x01)
                    for ws in words]
        preimages = [m.preimage for m in messages]
        assert sorted({hashing._blocks(len(p)) for p in preimages}) == [2, 3]
        with hashing.counting() as count, hashing.prefetch(preimages) as scope:
            assert [m.hash for m in messages] == expected
            assert scope.unread == 0
        assert [keccak256(p) for p in preimages] == expected
        assert count.perms == count.packed == 4 * 2 + 3 * 3

    def test_mispredicted_l1_nonce_is_hashed_for_real(self):
        # the prefetch numbers the sends from one past the core's next nonce,
        # so no send finds its preimage: each is hashed as sent, never packed
        sends = [dict(caller=0xD1, to_address=0x22, selector=5, payload=(0x1000 + i, 100))
                 for i in range(4)]
        plain = StarkNetCore(Chain())
        expected = [plain.send_message_to_l2(**send)[0] for send in sends]
        core = StarkNetCore(Chain())
        off = core.message_nonce + 1
        preimages = [L1ToL2Message(0xD1, 0x22, 5, send["payload"], off + i, fee=0).preimage
                     for i, send in enumerate(sends)]
        with hashing.counting() as count, hashing.prefetch(preimages) as scope:
            sent = [core.send_message_to_l2(**send) for send in sends]
        misses = sum(m.preimage not in preimages for _, m in sent)
        assert [msg_hash for msg_hash, _ in sent] == expected
        assert scope.unread == misses == len(sends)
        assert (count.perms, count.packed) == (2 * len(sends), 0)

    def test_l1_sends_read_the_nonces_prefetch_to_l2_numbers(self):
        # a core that has sent 3 messages numbers the next sends from 3
        core = StarkNetCore(Chain())
        for i in range(3):
            core.send_message_to_l2(caller=0xD1, to_address=0x22, selector=5, payload=(i,))
        payloads = [(0x1000 + i, 100) for i in range(4)]
        with hashing.counting() as count, prefetch_to_l2(core, 0xD1, 0x22, 5, payloads) as scope:
            for payload in payloads:
                core.send_message_to_l2(caller=0xD1, to_address=0x22, selector=5, payload=payload)
        assert scope.unread == 0
        assert (count.perms, count.packed) == (2 * len(payloads), 2 * len(payloads))

    def test_scopes_nest_by_shadowing(self):
        outer_blob, inner_blob = _message(20), _message(30)
        with hashing.prefetch([outer_blob]) as outer:
            with hashing.prefetch([inner_blob]) as inner:
                keccak256(outer_blob)
                keccak256(inner_blob)
            assert (outer.unread, inner.unread) == (1, 0)
            keccak256(outer_blob)
        assert outer.unread == 0

    @staticmethod
    def _reports_the_same_without_a_digest_handed_out(config):
        """Run ``config`` as it is, with no prefetched digest handed out, and
        with neither a prefetched digest nor the run's memo; return the counts
        of the first and the last. A prefetched digest, or one a party reads
        from the memo, that differs from what keccak256 computes for the blob
        changes the report or the count, whichever site listed or first
        hashed it."""
        with hashing.counting() as batched:
            report = run(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hashing.Prefetched, "take", lambda self, blob: None)
            with hashing.counting() as hashed:
                unbatched = run(config)
            patch.setattr(hashing, "run_memo", contextlib.nullcontext)
            with hashing.counting() as unshared:
                alone = run(config)
        assert report.ok
        assert alone.report_hash() == unbatched.report_hash() == report.report_hash()
        assert (hashed.perms, hashed.packed) == (batched.perms, 0)
        assert unshared.packed == 0
        return batched, unshared

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_run_without_handing_out_a_digest_reports_the_same(self, seed, bench_workloads):
        # every scope of the run lists bytes the L2 or L1 built, and each
        # must hand out the digest keccak256 computes for them; the verifier
        # and L1's consumes read the memo
        config = bench_workloads.WORKLOADS["validity-messages"].config(seed)
        batched, unshared = self._reports_the_same_without_a_digest_handed_out(config)
        assert batched.packed > 0 and unshared.perms > batched.perms

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_fraud_run_without_handing_out_a_digest_reports_the_same(self, seed, bench_workloads):
        # the planted-fraud run's dispute memory tree is its one batched site
        config = bench_workloads.WORKLOADS["op-fraud-trace"].config(seed)
        assert config.planted_fraud
        batched, unshared = self._reports_the_same_without_a_digest_handed_out(config)
        assert batched.packed > 0 and unshared.perms > batched.perms

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_withdrawal_run_without_the_run_memo_reports_the_same(self, seed, bench_workloads):
        # nothing is prefetched; the portal folds every proof through the memo
        # the L2's withdrawal tree filled
        config = bench_workloads.WORKLOADS["op-withdrawals"].config(seed)
        batched, unshared = self._reports_the_same_without_a_digest_handed_out(config)
        assert batched.packed == 0 and unshared.perms > batched.perms


class TestRunMemo:
    def test_memos_in_one_scope_share_digests_and_a_hit_counts_nothing(self):
        blob = _message(200)  # two blocks
        with hashing.run_memo(), hashing.counting() as count:
            first = hashing.DigestMemo()(blob)
            assert blob in hashing.DigestMemo()
            assert hashing.DigestMemo()(blob) == first == hashing._sponge(blob, 0x01)
        assert count.perms == 2

    def test_stand_in_memo_never_returns_a_keccak_digest(self):
        blob = _message(40)
        sha3 = lambda data: hashlib.sha3_256(data).digest()
        with hashing.run_memo():
            keccak = hashing.DigestMemo()
            assert keccak(blob) == keccak256(blob)
            stand_in = hashing.DigestMemo(sha3)
            assert blob not in stand_in
            assert stand_in(blob) == sha3(blob) != keccak(blob)
            assert hashing.DigestMemo()(blob) == keccak256(blob)

    def test_memo_made_after_the_scope_closes_starts_empty(self):
        blob = _message(40)
        with hashing.run_memo():
            hashing.DigestMemo()(blob)
        after = hashing.DigestMemo()
        assert blob not in after
        with hashing.counting() as count:
            digest = after(blob)
        assert (digest, count.perms) == (keccak256(blob), 1)

    def test_inner_scope_shadows_the_outer(self):
        blob = _message(40)
        with hashing.run_memo():
            hashing.DigestMemo()(blob)
            with hashing.run_memo():
                assert blob not in hashing.DigestMemo()
            assert blob in hashing.DigestMemo()


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


_EMPTY_DIGEST_READS = []  # the data of each _EmptyDigest whose digest ran


@dataclasses.dataclass(frozen=True)
class _EmptyDigest:
    """A record whose memoized digest is the empty byte string."""

    data: bytes

    @hashing.memoized_digest
    def digest(self) -> bytes:
        _EMPTY_DIGEST_READS.append(self.data)
        return b""


class TestMemoizedDigestEdges:
    def test_empty_digest_computed_once(self):
        _EMPTY_DIGEST_READS.clear()
        record = _EmptyDigest(b"x")
        assert record.digest == b"" and record.digest == b""
        assert _EMPTY_DIGEST_READS == [b"x"]

    def test_memo_stays_out_of_eq_and_asdict(self):
        hashed, fresh = _EmptyDigest(b"x"), _EmptyDigest(b"x")
        assert hashed.digest == b""
        assert hashed == fresh and fresh == hashed
        assert dataclasses.asdict(hashed) == dataclasses.asdict(fresh) == {"data": b"x"}
