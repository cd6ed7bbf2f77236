import random

import pytest

from rollsim.algebra import DEFAULT_PRIME, PairingGroup
from rollsim.l1sim import Chain
from rollsim.validityrollup import messaging
from rollsim.validityrollup.cairo import CairoState, run_program, sqrt_program
from rollsim.validityrollup.messaging import (
    L2ToL1Message,
    StarkNetCore,
    l2_to_l1_message_hash,
    selector_from_name,
)
from rollsim.validityrollup.settlement import (
    ProofRejected,
    SettlementMessages,
    SharpProver,
    StateMismatch,
    ValidityProof,
    next_root,
    prove_transition,
    settle,
)
from rollsim.validityrollup.statediff import (
    ContractStorageDiff,
    StateDiff,
    apply_state_diff,
    decode_state_diff,
    encode_state_diff,
)

GROUP = PairingGroup(DEFAULT_PRIME)


@pytest.fixture(scope="module")
def prover():
    return SharpProver(GROUP, random.Random(99))


def simple_diff(value=123):
    return StateDiff(
        deployments=(),
        storage=(ContractStorageDiff(0xAB, ((7, value), (8, value + 1))),),
    )


def make_core():
    chain = Chain()
    return chain, StarkNetCore(chain)


class TestProveAndSettle:
    def test_honest_transition_matches_reexecution(self, prover):
        chain, core = make_core()
        diff = simple_diff()
        trace = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        proof = prove_transition(core.state_root, diff, trace, prover)
        words = encode_state_diff(diff)
        new_root = settle(core, prover, proof, words)
        # full-node oracle: replay the published diff and the root chain
        assert new_root == next_root(b"\x00" * 32, words)
        replayed = {}
        apply_state_diff(replayed, decode_state_diff(words))
        assert replayed == {0xAB: {7: 123, 8: 124}}
        assert core.state_root == new_root

    def test_tampered_diff_rejected(self, prover):
        chain, core = make_core()
        diff = simple_diff()
        proof = prove_transition(core.state_root, diff, None, prover)
        words = encode_state_diff(simple_diff(value=999))  # not what was proven
        with pytest.raises((ProofRejected, StateMismatch)):
            settle(core, prover, proof, words)
        assert len(core.root_history) == 1  # nothing applied

    def test_wrong_claimed_root_rejected(self, prover):
        chain, core = make_core()
        diff = simple_diff()
        honest = prove_transition(core.state_root, diff, None, prover)
        lying = ValidityProof(
            snark=honest.snark,
            claimed_output=honest.claimed_output,
            new_root=b"\xEE" * 32,
        )
        with pytest.raises(StateMismatch):
            settle(core, prover, lying, encode_state_diff(diff))

    def test_invalid_trace_refused_by_prover(self, prover):
        chain, core = make_core()
        result = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        states = list(result.states)
        states[1] = CairoState(pc=states[1].pc, ap=states[1].ap + 1, fp=states[1].fp)
        broken = type(result)(
            steps=result.steps,
            memory=result.memory,
            states=states,
            nondeterministic=result.nondeterministic,
        )
        with pytest.raises(ValueError):
            prove_transition(core.state_root, simple_diff(), broken, prover)

    def test_roots_never_revert(self, prover):
        chain, core = make_core()
        roots = [core.state_root]
        for i in range(4):
            diff = simple_diff(value=i)
            proof = prove_transition(core.state_root, diff, None, prover)
            settle(core, prover, proof, encode_state_diff(diff))
            roots.append(core.state_root)
        assert core.root_history == roots  # append-only, in order

    def test_settlement_finalizes_messages(self, prover):
        chain, core = make_core()
        # a message in: send on L1, consume in the proven batch
        selector = selector_from_name("deposit")
        msg_hash, message = core.send_message_to_l2(
            caller=0xD1, to_address=0x22, selector=selector, payload=(5, 10), fee=400
        )
        assert core.l1_to_l2_counters[msg_hash] == 1
        # a message out: withdrawal payload
        out = (0, 0xEE, 50, 0)
        messages = SettlementMessages(
            consumed_l1_to_l2=(msg_hash,),
            sent_l2_to_l1=(L2ToL1Message(0x22, 0xD1, out),),
        )
        diff = simple_diff()
        proof = prove_transition(core.state_root, diff, None, prover, messages)
        settle(core, prover, proof, encode_state_diff(diff), messages)
        assert core.l1_to_l2_counters[msg_hash] == 0
        assert core.l2_to_l1_counters[l2_to_l1_message_hash(0x22, 0xD1, out)] == 1
        # escrowed fee released to the sequencer in full
        assert chain.balance(core.sequencer) == 400

    def test_sent_payload_differing_from_proven_rejected(self, prover):
        chain, core = make_core()
        diff = simple_diff()
        proven = SettlementMessages(sent_l2_to_l1=(L2ToL1Message(0x22, 0xD1, (0, 0xEE, 50, 0)),))
        proof = prove_transition(core.state_root, diff, None, prover, proven)
        forged = SettlementMessages(sent_l2_to_l1=(L2ToL1Message(0x22, 0xD1, (0, 0xEE, 5000, 0)),))
        with pytest.raises(ProofRejected):
            settle(core, prover, proof, encode_state_diff(diff), forged)
        assert core.l2_to_l1_counters == {}
        assert len(core.root_history) == 1

    def test_prove_and_settle_reuse_memoized_digests(self, prover, monkeypatch):
        # sent messages are hashed once, when the L2 builds them
        chain, core = make_core()
        sent = tuple(L2ToL1Message(0x22, 0xD1, (0, 0xEE, i, 0)) for i in range(3))
        hashes = [message.hash for message in sent]
        monkeypatch.setattr(
            messaging, "l2_to_l1_message_hash", lambda *a: pytest.fail("message rehashed")
        )
        messages = SettlementMessages(sent_l2_to_l1=sent)
        diff = simple_diff()
        proof = prove_transition(core.state_root, diff, None, prover, messages)
        settle(core, prover, proof, encode_state_diff(diff), messages)
        assert [core.l2_to_l1_counters[h] for h in hashes] == [1, 1, 1]

    def test_consuming_unsent_message_rejected(self, prover):
        chain, core = make_core()
        diff = simple_diff()
        messages = SettlementMessages(consumed_l1_to_l2=(b"\x13" * 32,))
        proof = prove_transition(core.state_root, diff, None, prover, messages)
        with pytest.raises(ProofRejected):
            settle(core, prover, proof, encode_state_diff(diff), messages)

    def test_atomicity_under_failure_injection(self, prover):
        # any rejected settle leaves root, counters and escrow untouched
        chain, core = make_core()
        selector = selector_from_name("deposit")
        msg_hash, _ = core.send_message_to_l2(0xD1, 0x22, selector, (1,), fee=7)
        diff = simple_diff()
        good = SettlementMessages(consumed_l1_to_l2=(msg_hash,))
        proof = prove_transition(core.state_root, diff, None, prover, good)
        snapshot = (
            list(core.root_history),
            dict(core.l1_to_l2_counters),
            dict(core.l2_to_l1_counters),
            dict(core.fee_escrow),
            chain.balance(core.sequencer),
        )
        failures = [
            # proof bound to different messages than submitted
            (encode_state_diff(diff), SettlementMessages()),
            # diff words tampered
            (encode_state_diff(simple_diff(999)), good),
            # consume an unsent message
            (encode_state_diff(diff), SettlementMessages(consumed_l1_to_l2=(b"\x77" * 32,))),
        ]
        for words, messages in failures:
            with pytest.raises((ProofRejected, StateMismatch)):
                settle(core, prover, proof, words, messages)
            assert core.root_history == snapshot[0]
            assert core.l1_to_l2_counters == snapshot[1]
            assert core.l2_to_l1_counters == snapshot[2]
            assert core.fee_escrow == snapshot[3]
            assert chain.balance(core.sequencer) == snapshot[4]
        # the genuine settle still lands afterwards
        settle(core, prover, proof, encode_state_diff(diff), good)
        assert core.l1_to_l2_counters[msg_hash] == 0

    def test_message_conservation_invariant(self, prover):
        rng = random.Random(7)
        chain, core = make_core()
        selector = selector_from_name("deposit")
        hashes = []
        for i in range(10):
            h, _ = core.send_message_to_l2(0xD1, 0x22, selector, (i,), fee=0)
            hashes.append(h)
        consumed = set()
        for _ in range(30):
            h = rng.choice(hashes)
            diff = simple_diff(rng.randrange(1000))
            messages = SettlementMessages(consumed_l1_to_l2=(h,))
            proof = prove_transition(core.state_root, diff, None, prover, messages)
            try:
                settle(core, prover, proof, encode_state_diff(diff), messages)
                consumed.add(h)
            except ProofRejected:
                assert h in consumed  # only replays fail
            for counter in core.l1_to_l2_counters.values():
                assert counter >= 0


class TestTransitionCommitment:
    """The digest binds the next root and length-framed message lists."""

    def test_hash_moved_between_message_lists_changes_digest(self, prover):
        _, core = make_core()
        diff = simple_diff()
        moved = L2ToL1Message(0x22, 0xD1, (0, 0xEE, 50, 0))
        kept = L2ToL1Message(0x22, 0xD1, (0, 0xEE, 60, 0))
        consumed = b"\x13" * 32
        at_end_of_consumed = SettlementMessages(
            consumed_l1_to_l2=(consumed, moved.hash), sent_l2_to_l1=(kept,)
        )
        at_front_of_sent = SettlementMessages(
            consumed_l1_to_l2=(consumed,), sent_l2_to_l1=(moved, kept)
        )
        outputs = {
            prove_transition(core.state_root, diff, None, prover, messages).claimed_output
            for messages in (at_end_of_consumed, at_front_of_sent)
        }
        assert len(outputs) == 2

    def test_diff_word_moved_into_consumed_list_rejected(self, prover):
        _, core = make_core()
        diff = simple_diff()
        words = encode_state_diff(diff)
        proof = prove_transition(core.state_root, diff, None, prover)
        shifted = SettlementMessages(consumed_l1_to_l2=(words[-1].to_bytes(32, "big"),))
        # the digest fails before the claimed root is even compared
        with pytest.raises(ProofRejected):
            settle(core, prover, proof, words[:-1], shifted)
        assert len(core.root_history) == 1

    def test_verify_digest_rejects_output_off_by_one(self, prover):
        _, core = make_core()
        messages = SettlementMessages(consumed_l1_to_l2=(b"\x13" * 32,))
        proof = prove_transition(core.state_root, simple_diff(), None, prover, messages)
        digest = prover.transition_digest(proof.new_root, messages)
        assert prover.verify_digest(proof.snark, proof.claimed_output, digest)
        for output in (proof.claimed_output - 1, proof.claimed_output + 1):
            assert not prover.verify_digest(proof.snark, output, digest)
