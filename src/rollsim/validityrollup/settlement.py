"""Validity-proof settlement: prove a state transition, verify it on L1.

The proof is the toy SNARK over a fixed two-gate digest-binding circuit: the
prover feeds in the transition digest and exposes the circuit output next to
the proof; the L1 side recomputes the digest from what was actually submitted
and rejects on any mismatch. The full machine-level check (the deterministic
machine accepting the trace) runs in the prover and in test oracles, not
inside the circuit.

One commitment per transition, over two blobs committed in pages. A blob is
cut into pages of ``PAGE_WORDS`` words (2,304 bytes, which pad into
exactly 17 Keccak-f blocks), the last one possibly shorter, and a paged
commitment hashes a head followed by each page's digest, as StarkNet's L1
registers a state update's output as memory pages of one Keccak each.
``next_root`` commits the old root and the published diff; the digest
commits that next root and the message blob, each message list prefixed by
its length as a 32-byte word. The page count is fixed by the blob's length
and each page's digest by its bytes, so a diff word moved into a message
list, a message hash moved from one list to the other, or a word moved across
a page boundary changes the digest. Messages enter as their memoized hashes
and are never rehashed from their fields. The caller encodes the published
diff once and ``SettlementMessages.blob`` joins the message blob once, for
both sides; each side builds the diff's calldata once from those words.

A commitment hashes its pages and its preimage through a
``hashing.DigestMemo``, so inside a run the verifier, recomputing the
commitments from what was submitted, reads the prover's digests of
byte-equal blobs and hashes only what differs: a tampered diff page or a
forged message list is a new blob, hashed as submitted.
``prove_transition`` opens its own ``hashing.prefetch`` scope around the two
commitments it makes, listing every page of the diff and of the message
blob, once each, so they hash as one packed sponge; it commits from the
same calldata it listed. The two preimages that hold page digests, the next
root's and the transition's, are hashed when the prover asks.

Settlement is atomic: the root update and every message-counter change land
together or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import hashing
from ..algebra import PairingGroup
from ..hashing import DigestMemo, memoized_digest
from ..snark import (
    SnarkProof,
    build_qap,
    compile_r1cs,
    flatten,
    prove,
    setup,
    verify,
    witness,
)
from .cairo import RunResult, deterministic_accept
from .messaging import L2ToL1Message, StarkNetCore
from .statediff import diff_calldata_bytes


class ProofRejected(ValueError):
    """Validity proof failed verification against the submitted data."""


class StateMismatch(ValueError):
    """Claimed post-root does not follow from the submitted diff."""


DIGEST_CIRCUIT = "x*x + x"
PAGE_WORDS = 72  # words per committed page: 2,304 bytes, 17 Keccak-f blocks


def _word(n: int) -> bytes:
    return n.to_bytes(32, "big")


@dataclass(frozen=True)
class SettlementMessages:
    """Message effects bridged by one proven transition."""

    consumed_l1_to_l2: tuple[bytes, ...] = ()
    sent_l2_to_l1: tuple[L2ToL1Message, ...] = ()

    @memoized_digest
    def blob(self) -> bytes:
        """Each message list prefixed by its length as a word: what the
        transition digest commits after the next root. Sent messages enter
        as their memoized hashes."""
        consumed = self.consumed_l1_to_l2
        sent = [message.hash for message in self.sent_l2_to_l1]
        return b"".join([_word(len(consumed)), *consumed, _word(len(sent)), *sent])


@dataclass(frozen=True)
class ValidityProof:
    """A SNARK over a transition digest, its exposed output and the claimed next root."""

    snark: SnarkProof
    claimed_output: int  # exposed circuit output binding the digest
    new_root: bytes


class SharpProver:
    """Shared prover: one circuit, one CRS, proofs for every transition."""

    def __init__(self, group: PairingGroup, rng):
        self.group = group
        self.field = group.field
        self.program = flatten(DIGEST_CIRCUIT, inputs=("x",))
        self.r1cs = compile_r1cs(self.program, self.field)
        self.qap = build_qap(self.r1cs)
        self.crs = setup(self.qap, group, rng)

    def transition_digest(self, new_root: bytes, messages: SettlementMessages) -> int:
        digest = _commit(new_root, messages.blob)
        return int.from_bytes(digest, "big") % self.group.order

    def prove_digest(self, digest: int) -> tuple[SnarkProof, int]:
        solution = witness(self.program, self.field, {"x": digest})
        return prove(self.crs, self.qap, solution), solution[-1].value

    def verify_digest(self, proof: SnarkProof, claimed_output: int, digest: int) -> bool:
        output = witness(self.program, self.field, {"x": digest})[-1].value
        return claimed_output == output and verify(self.crs.vk, proof, self.group)


def _pages(blob: bytes) -> list[bytes]:
    """``blob`` cut into pages of ``PAGE_WORDS`` words, the last one possibly
    shorter; an empty blob has no pages."""
    size = 32 * PAGE_WORDS
    return [blob[at:at + size] for at in range(0, len(blob), size)]


def _commit(head: bytes, blob: bytes) -> bytes:
    """The digest of ``head``, then each page's digest."""
    digest = DigestMemo()
    return digest(head + b"".join(map(digest, _pages(blob))))


def next_root(old_root: bytes, diff_words: list[int]) -> bytes:
    """The old root, then the published diff's pages, committed."""
    return _commit(old_root, diff_calldata_bytes(diff_words))


def prove_transition(
    old_root: bytes,
    diff_words: list[int],
    trace: RunResult | None,
    prover: SharpProver,
    messages: SettlementMessages = SettlementMessages(),
) -> ValidityProof:
    """Produce the validity proof for one state transition publishing ``diff_words``.

    ``trace`` is the runner output for the transition's execution; it must be
    accepted by the deterministic machine (the prover refuses otherwise).
    Pass None for transitions whose execution is outside the simulated
    machine (pure bridge bookkeeping). The proof's pages hash in the
    prover's own prefetch scope, as the module docstring sets out.
    """
    if trace is not None and not deterministic_accept(
        trace.steps, trace.memory, trace.states, trace.prime
    ):
        raise ValueError("trace is not accepted by the deterministic machine")
    diff = diff_calldata_bytes(diff_words)
    with hashing.prefetch(_pages(diff) + _pages(messages.blob)):
        new_root = _commit(old_root, diff)
        digest = prover.transition_digest(new_root, messages)
    snark_proof, output = prover.prove_digest(digest)
    return ValidityProof(snark=snark_proof, claimed_output=output, new_root=new_root)


def settle(
    core: StarkNetCore,
    prover: SharpProver,
    proof: ValidityProof,
    diff_words: list[int],
    messages: SettlementMessages = SettlementMessages(),
) -> bytes:
    """Verify a transition proof and apply its effects to the L1 core.

    Checks first, one commit at the end: the root history, both counter maps
    and the fee escrow move together.
    """
    expected_root = next_root(core.state_root, diff_words)
    digest = prover.transition_digest(expected_root, messages)
    if not prover.verify_digest(proof.snark, proof.claimed_output, digest):
        raise ProofRejected("validity proof does not match the submitted data")
    if proof.new_root != expected_root:
        raise StateMismatch(
            f"claimed root {proof.new_root.hex()} != recomputed {expected_root.hex()}"
        )
    # stage counter effects, validating before any mutation
    consumed_deltas: dict[bytes, int] = {}
    for msg_hash in messages.consumed_l1_to_l2:
        consumed_deltas[msg_hash] = consumed_deltas.get(msg_hash, 0) + 1
    for msg_hash, count in consumed_deltas.items():
        if core.l1_to_l2_counters.get(msg_hash, 0) < count:
            raise ProofRejected(
                f"transition consumes unsent L1->L2 message {msg_hash.hex()}"
            )
    fee_release = sum(core.fee_escrow.get(h, 0) for h in consumed_deltas)

    # commit
    core.root_history.append(expected_root)
    for msg_hash, count in consumed_deltas.items():
        core.l1_to_l2_counters[msg_hash] -= count
        core.fee_escrow.pop(msg_hash, None)
    for message in messages.sent_l2_to_l1:
        core.l2_to_l1_counters[message.hash] = core.l2_to_l1_counters.get(message.hash, 0) + 1
    if fee_release:
        core.chain.fund(core.sequencer, fee_release)
    core.chain._emit(core.address, "StateUpdate", expected_root)
    return expected_root
