import contextlib
import random

import pytest

from rollsim import hashing
from rollsim.algebra import DEFAULT_PRIME, PairingGroup
from rollsim.l1sim import Chain
from rollsim.validityrollup import messaging, settlement
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


def test_prover_works_over_its_groups_scalar_field():
    assert SharpProver(GROUP, random.Random(1)).field is GROUP.field


class TestProveAndSettle:
    def test_honest_transition_matches_reexecution(self, prover):
        chain, core = make_core()
        diff = simple_diff()
        trace = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        words = encode_state_diff(diff)
        proof = prove_transition(core.state_root, words, trace, prover)
        new_root = settle(core, prover, proof, words)
        # full-node oracle: replay the published diff and the root chain
        assert new_root == next_root(b"\x00" * 32, words)
        replayed = {}
        apply_state_diff(replayed, decode_state_diff(words))
        assert replayed == {0xAB: {7: 123, 8: 124}}
        assert core.state_root == new_root

    def test_tampered_diff_rejected(self, prover):
        chain, core = make_core()
        proof = prove_transition(core.state_root, encode_state_diff(simple_diff()), None, prover)
        words = encode_state_diff(simple_diff(value=999))  # not what was proven
        with pytest.raises((ProofRejected, StateMismatch)):
            settle(core, prover, proof, words)
        assert len(core.root_history) == 1  # nothing applied

    def test_wrong_claimed_root_rejected(self, prover):
        chain, core = make_core()
        words = encode_state_diff(simple_diff())
        honest = prove_transition(core.state_root, words, None, prover)
        lying = ValidityProof(
            snark=honest.snark,
            claimed_output=honest.claimed_output,
            new_root=b"\xEE" * 32,
        )
        with pytest.raises(StateMismatch):
            settle(core, prover, lying, words)

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
            prove_transition(core.state_root, encode_state_diff(simple_diff()), broken, prover)

    def test_roots_never_revert(self, prover):
        chain, core = make_core()
        roots = [core.state_root]
        for i in range(4):
            words = encode_state_diff(simple_diff(value=i))
            proof = prove_transition(core.state_root, words, None, prover)
            settle(core, prover, proof, words)
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
        words = encode_state_diff(simple_diff())
        proof = prove_transition(core.state_root, words, None, prover, messages)
        settle(core, prover, proof, words, messages)
        assert core.l1_to_l2_counters[msg_hash] == 0
        assert core.l2_to_l1_counters[l2_to_l1_message_hash(0x22, 0xD1, out)] == 1
        # escrowed fee released to the sequencer in full
        assert chain.balance(core.sequencer) == 400

    def test_sent_payload_differing_from_proven_rejected(self, prover):
        chain, core = make_core()
        words = encode_state_diff(simple_diff())
        proven = SettlementMessages(sent_l2_to_l1=(L2ToL1Message(0x22, 0xD1, (0, 0xEE, 50, 0)),))
        proof = prove_transition(core.state_root, words, None, prover, proven)
        forged = SettlementMessages(sent_l2_to_l1=(L2ToL1Message(0x22, 0xD1, (0, 0xEE, 5000, 0)),))
        with pytest.raises(ProofRejected):
            settle(core, prover, proof, words, forged)
        assert core.l2_to_l1_counters == {}
        assert len(core.root_history) == 1

    def test_prove_and_settle_reuse_memoized_digests(self, prover, monkeypatch):
        # sent messages are encoded and hashed once, when the L2 builds them
        chain, core = make_core()
        sent = tuple(L2ToL1Message(0x22, 0xD1, (0, 0xEE, i, 0)) for i in range(3))
        hashes = [message.hash for message in sent]
        monkeypatch.setattr(
            messaging, "_l2_to_l1_preimage", lambda *a: pytest.fail("message rehashed")
        )
        messages = SettlementMessages(sent_l2_to_l1=sent)
        words = encode_state_diff(simple_diff())
        proof = prove_transition(core.state_root, words, None, prover, messages)
        settle(core, prover, proof, words, messages)
        assert [core.l2_to_l1_counters[h] for h in hashes] == [1, 1, 1]

    def test_consuming_unsent_message_rejected(self, prover):
        chain, core = make_core()
        words = encode_state_diff(simple_diff())
        messages = SettlementMessages(consumed_l1_to_l2=(b"\x13" * 32,))
        proof = prove_transition(core.state_root, words, None, prover, messages)
        with pytest.raises(ProofRejected):
            settle(core, prover, proof, words, messages)

    def test_atomicity_under_failure_injection(self, prover):
        # any rejected settle leaves root, counters and escrow untouched
        chain, core = make_core()
        selector = selector_from_name("deposit")
        msg_hash, _ = core.send_message_to_l2(0xD1, 0x22, selector, (1,), fee=7)
        words = encode_state_diff(simple_diff())
        good = SettlementMessages(consumed_l1_to_l2=(msg_hash,))
        proof = prove_transition(core.state_root, words, None, prover, good)
        snapshot = (
            list(core.root_history),
            dict(core.l1_to_l2_counters),
            dict(core.l2_to_l1_counters),
            dict(core.fee_escrow),
            chain.balance(core.sequencer),
        )
        failures = [
            # proof bound to different messages than submitted
            (words, SettlementMessages()),
            # diff words tampered
            (encode_state_diff(simple_diff(999)), good),
            # consume an unsent message
            (words, SettlementMessages(consumed_l1_to_l2=(b"\x77" * 32,))),
        ]
        for submitted, messages in failures:
            with pytest.raises((ProofRejected, StateMismatch)):
                settle(core, prover, proof, submitted, messages)
            assert core.root_history == snapshot[0]
            assert core.l1_to_l2_counters == snapshot[1]
            assert core.l2_to_l1_counters == snapshot[2]
            assert core.fee_escrow == snapshot[3]
            assert chain.balance(core.sequencer) == snapshot[4]
        # the genuine settle still lands afterwards
        settle(core, prover, proof, words, good)
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
            words = encode_state_diff(simple_diff(rng.randrange(1000)))
            messages = SettlementMessages(consumed_l1_to_l2=(h,))
            proof = prove_transition(core.state_root, words, None, prover, messages)
            try:
                settle(core, prover, proof, words, messages)
                consumed.add(h)
            except ProofRejected:
                assert h in consumed  # only replays fail
            for counter in core.l1_to_l2_counters.values():
                assert counter >= 0


class TestTransitionCommitment:
    """The digest binds the next root and length-framed message lists."""

    def test_hash_moved_between_message_lists_changes_digest(self, prover):
        _, core = make_core()
        words = encode_state_diff(simple_diff())
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
            prove_transition(core.state_root, words, None, prover, messages).claimed_output
            for messages in (at_end_of_consumed, at_front_of_sent)
        }
        assert len(outputs) == 2

    def test_diff_word_moved_into_consumed_list_rejected(self, prover):
        _, core = make_core()
        words = encode_state_diff(simple_diff())
        proof = prove_transition(core.state_root, words, None, prover)
        shifted = SettlementMessages(consumed_l1_to_l2=(words[-1].to_bytes(32, "big"),))
        # the digest fails before the claimed root is even compared
        with pytest.raises(ProofRejected):
            settle(core, prover, proof, words[:-1], shifted)
        assert len(core.root_history) == 1

    def test_verify_digest_rejects_output_off_by_one(self, prover):
        _, core = make_core()
        messages = SettlementMessages(consumed_l1_to_l2=(b"\x13" * 32,))
        words = encode_state_diff(simple_diff())
        proof = prove_transition(core.state_root, words, None, prover, messages)
        digest = prover.transition_digest(proof.new_root, messages)
        assert prover.verify_digest(proof.snark, proof.claimed_output, digest)
        for output in (proof.claimed_output - 1, proof.claimed_output + 1):
            assert not prover.verify_digest(proof.snark, output, digest)


def _word(n: int) -> bytes:
    return n.to_bytes(32, "big")


def _committed(head: bytes, words: list[bytes]) -> bytes:
    """A paged commitment built word by word: ``head``, then the digest of
    each run of 72 words."""
    page_digests = [hashing._sponge(b"".join(words[at:at + 72]), 0x01)
                    for at in range(0, len(words), 72)]
    return hashing._sponge(head + b"".join(page_digests), 0x01)


def many_updates(n: int) -> StateDiff:
    """One contract with ``n`` storage updates: ``4 + 2n`` diff words."""
    return StateDiff(
        deployments=(),
        storage=(ContractStorageDiff(0xAB, tuple((k, 5 + k) for k in range(n))),),
    )


def sent_messages(n: int) -> tuple[L2ToL1Message, ...]:
    return tuple(L2ToL1Message(0x22, 0xD1, (0, 0xEE, 50 + i, 0)) for i in range(n))


class TestPreimages:
    """Each settlement commitment hashes its head, then the digests of its
    blob's pages of 72 words, each page 2,304 bytes at most."""

    def test_a_full_page_pads_into_17_blocks(self):
        assert settlement.PAGE_WORDS * 32 == 2_304
        assert hashing._blocks(2_304) == 17

    @pytest.mark.parametrize(
        "words, page_count",
        [(encode_state_diff(StateDiff(deployments=(), storage=())), 1),
         (encode_state_diff(simple_diff()), 1),
         *(([0x1000 + i for i in range(n)], -(-n // 72)) for n in (0, 71, 72, 73, 144))],
        ids=["empty diff", "one contract", "0 words", "71 words", "72 words", "73 words",
             "144 words"],
    )
    def test_next_root_hashes_its_preimage(self, words, page_count):
        old_root = bytes(range(32))
        calldata = [_word(w) for w in words]
        assert len(settlement._pages(b"".join(calldata))) == page_count
        assert next_root(old_root, words) == _committed(old_root, calldata)
        if not words:
            assert next_root(old_root, words) == hashing._sponge(old_root, 0x01)

    def test_word_moved_across_a_page_boundary_changes_the_root(self):
        old_root = bytes(range(32))
        words = [0x1000 + i for i in range(73)]  # a full page, then one word
        root = next_root(old_root, words)
        # the last word of page 1 and the only word of page 2 trade places
        assert next_root(old_root, [*words[:71], words[72], words[71]]) != root
        # the same words cut at another boundary commit to something else
        calldata = [_word(w) for w in words]
        recut = [hashing._sponge(b"".join(calldata[:71]), 0x01),
                 hashing._sponge(b"".join(calldata[71:]), 0x01)]
        assert root != hashing._sponge(old_root + b"".join(recut), 0x01)

    @pytest.mark.parametrize(
        "n_consumed, n_sent, page_count",
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 2, 1), (30, 40, 1), (31, 40, 2), (60, 80, 2)],
        ids=["empty lists", "consumed only", "sent only", "both", "a full page",
             "one word over", "two pages"],
    )
    def test_transition_digest_hashes_its_preimage(self, prover, n_consumed, n_sent, page_count):
        new_root = b"\x42" * 32
        consumed = tuple(bytes([0x13 + i]) * 32 for i in range(n_consumed))
        sent = sent_messages(n_sent)
        messages = SettlementMessages(consumed_l1_to_l2=consumed, sent_l2_to_l1=sent)
        sent_hashes = [l2_to_l1_message_hash(0x22, 0xD1, m.payload) for m in sent]
        words = [_word(len(consumed)), *consumed, _word(len(sent_hashes)), *sent_hashes]
        assert messages.blob == b"".join(words)
        assert len(settlement._pages(messages.blob)) == page_count
        digest = int.from_bytes(_committed(new_root, words), "big") % GROUP.order
        assert prover.transition_digest(new_root, messages) == digest


class TestPrefetchedSettlement:
    """The prover reads its pages from the prefetch scope it opens; inside a
    run the verifier reads every digest of byte-equal blobs from the run's
    memo and still hashes what it was given, so a tampered submission misses
    and is refused. Each tamper test runs the honest pass first, so the memo
    holds every digest of the honest transition."""

    @pytest.fixture
    def scopes(self, monkeypatch):
        """Each ``hashing.prefetch`` scope opened in the test, with the number
        of digests it listed."""
        real, opened = hashing.prefetch, []

        @contextlib.contextmanager
        def recorded(blobs):
            with real(blobs) as scope:
                opened.append((scope.unread, scope))
                yield scope

        monkeypatch.setattr(hashing, "prefetch", recorded)
        return opened

    @staticmethod
    def _honest_pass(prover, words, messages, scopes):
        """Prove the transition, which opens its own prefetch scope, and
        settle it on a fresh core; return the proof. Call inside
        ``hashing.run_memo()``."""
        _, core = make_core()
        proof = prove_transition(core.state_root, words, None, prover, messages)
        [(_, scope)] = scopes
        assert scope.unread == 0
        with hashing.counting() as count:
            settle(core, prover, proof, words, messages)
        assert count.perms == 0
        return proof

    def test_honest_pair_reads_every_slot_packed(self, prover, scopes):
        _, core = make_core()
        diff = simple_diff()
        words = encode_state_diff(diff)
        messages = SettlementMessages(sent_l2_to_l1=sent_messages(1))
        _, plain = make_core()
        plain_proof = prove_transition(plain.state_root, words, None, prover, messages)
        expected = settle(plain, prover, plain_proof, words, messages)
        with hashing.run_memo():
            with hashing.counting() as count:
                proof = prove_transition(core.state_root, words, None, prover, messages)
            # the plain proof's scope, then this one's: two pages listed, both read
            assert [(listed, scope.unread) for listed, scope in scopes] == [(2, 0), (2, 0)]
            # a two-block diff page and a one-block message page share a
            # packed permutation, the page's second block runs alone, then a
            # one-block next root and a one-block transition
            assert (count.perms, count.packed) == (2 + 1 + 1 + 1, 1 + 1)
            with hashing.counting() as count:
                assert settle(core, prover, proof, words, messages) == expected
            assert count.perms == 0

    def test_prover_runs_its_pages_packed_with_no_scope_around_it(self, prover, scopes):
        _, core = make_core()
        words = encode_state_diff(simple_diff())
        messages = SettlementMessages(sent_l2_to_l1=sent_messages(1))
        messages.blob  # joined, and its message hashed, when the L2 sent it, as in a run
        with hashing.counting() as count:
            prove_transition(core.state_root, words, None, prover, messages)
        assert [(listed, scope.unread) for listed, scope in scopes] == [(2, 0)]
        # the same two pages share a packed permutation as in the honest pair
        assert (count.perms, count.packed) == (2 + 1 + 1 + 1, 1 + 1)

    def test_tampered_diff_misses_and_is_refused(self, prover, scopes):
        _, core = make_core()
        words = encode_state_diff(simple_diff())
        tampered = encode_state_diff(simple_diff(value=999))
        with hashing.run_memo():
            proof = self._honest_pass(prover, words, SettlementMessages(), scopes)
            with hashing.counting() as count:
                with pytest.raises(ProofRejected):
                    settle(core, prover, proof, tampered)
            # the two-block diff page, the root and the transition are new
            # blobs; only the message page is the honest one
            assert (count.perms, count.packed) == (2 + 1 + 1, 0)
            assert len(core.root_history) == 1
            with hashing.counting() as count:
                settle(core, prover, proof, words)
            assert count.perms == 0

    def test_word_changed_in_the_last_diff_page_misses_and_is_refused(self, prover, scopes):
        _, core = make_core()
        diff = many_updates(40)
        words = encode_state_diff(diff)
        assert len(words) == 84  # a full page of 17 blocks, then a 12-word page of 3
        tampered = [*words[:-1], words[-1] + 1]
        with hashing.run_memo():
            proof = self._honest_pass(prover, words, SettlementMessages(), scopes)
            with hashing.counting() as count:
                with pytest.raises((ProofRejected, StateMismatch)):
                    settle(core, prover, proof, tampered)
            # the first diff page and the message page hit; the last page, the
            # root and the transition are new blobs
            assert (count.perms, count.packed) == (3 + 1 + 1, 0)
            assert len(core.root_history) == 1
            with hashing.counting() as count:
                settle(core, prover, proof, words)
            assert count.perms == 0

    def test_forged_message_list_misses_and_is_refused(self, prover, scopes):
        _, core = make_core()
        diff = simple_diff()
        words = encode_state_diff(diff)
        proven = SettlementMessages(sent_l2_to_l1=(L2ToL1Message(0x22, 0xD1, (0, 0xEE, 50, 0)),))
        forged = SettlementMessages(sent_l2_to_l1=(L2ToL1Message(0x22, 0xD1, (0, 0xEE, 5000, 0)),))
        with hashing.run_memo():
            forged.sent_l2_to_l1[0].hash  # sent when the L2 built it, as in a run
            proof = self._honest_pass(prover, words, proven, scopes)
            with hashing.counting() as count:
                with pytest.raises(ProofRejected):
                    settle(core, prover, proof, words, forged)
            # the diff is honest, so its page and the next root hit; the
            # message page holds a forged hash, and so does the transition
            assert (count.perms, count.packed) == (1 + 1, 0)
            assert core.l2_to_l1_counters == {} and len(core.root_history) == 1
            with hashing.counting() as count:
                settle(core, prover, proof, words, proven)
            assert count.perms == 0

    def test_forged_hash_in_the_second_message_page_misses_and_is_refused(self, prover, scopes):
        _, core = make_core()
        diff = simple_diff()
        words = encode_state_diff(diff)
        sent = sent_messages(80)  # two length words and 80 hashes: pages of 72 and 10 words
        proven = SettlementMessages(sent_l2_to_l1=sent)
        forged = SettlementMessages(
            sent_l2_to_l1=(*sent[:75], L2ToL1Message(0x22, 0xD1, (0, 0xEE, 5000, 0)), *sent[76:])
        )
        with hashing.run_memo():
            forged.sent_l2_to_l1[75].hash  # sent when the L2 built it, as in a run
            proof = self._honest_pass(prover, words, proven, scopes)
            with hashing.counting() as count:
                with pytest.raises(ProofRejected):
                    settle(core, prover, proof, words, forged)
            # the diff page, the root and the first message page hit; the
            # three-block second message page and the transition miss
            assert (count.perms, count.packed) == (3 + 1, 0)
            assert core.l2_to_l1_counters == {} and len(core.root_history) == 1
            with hashing.counting() as count:
                settle(core, prover, proof, words, proven)
            assert count.perms == 0
