"""The validity-rollup scenario: message in, execute, prove and settle, consume.

``scenarios.run`` imports this module only for a validity config, so an
optimistic run never loads the validity stack (messaging, the Cairo-style
machine, settlement and the SNARK it proves with).

Three sites know every message or page before they hash it: L1 sending the
deposit messages, the L2 sending the withdrawal messages, and settlement's
prover. Each makes one prefetch call before its reads, in its own phase, so
the hashes run many to a packed permutation, and their digests wait in the
run's digest memo (``hashing.run_memo``, opened by ``scenarios.run``) for the
reads. This module lists only what it then sends:
``messaging.prefetch_to_l2`` takes the deposit payloads and numbers them as
the core will, and ``hashing.prefetch`` takes the preimages of the withdrawal
messages built here. ``settlement.prove_transition`` makes the third call,
its own, before the commitments it makes. Whoever re-checks those bytes, the
settlement verifier and L1 consuming the withdrawals, reads the first hash
from the run's memo and hashes only bytes no one has hashed yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import hashing
from ..algebra import PairingGroup
from ..costbench import da_cost_comparison
from ..l1sim import Chain
from .cairo import run_program, sqrt_program
from .messaging import (
    HandlerAssertionError,
    L2ToL1Message,
    StarkNetCore,
    ValidityL2State,
    dispatch_l1_handler,
    prefetch_to_l2,
    send_message_to_l1,
    starkgate_withdraw_payload,
)
from .settlement import SettlementMessages, SharpProver, prove_transition, settle
from .statediff import encode_state_diff

if TYPE_CHECKING:
    from ..scenarios import RunReport, _Run

L1_BRIDGE_ADDRESS = 0x90000000000000000000000000000000000000D1
L2_BRIDGE_ADDRESS = 0x2222


class _StarkGateL1:
    """L1 side of the token bridge; anyone can finalize any withdrawal."""

    def __init__(self, chain: Chain, core: StarkNetCore):
        self.chain = chain
        self.core = core
        self.address = L1_BRIDGE_ADDRESS  # the L2 bridge's handler accepts no other sender
        chain.register_contract(self.address, self)

    def withdraw(self, amount: int, recipient: int) -> bytes:
        payload = tuple(starkgate_withdraw_payload(recipient, amount))
        msg_hash = self.core.consume_message_from_l2(
            from_address=L2_BRIDGE_ADDRESS, payload=payload, caller=self.address
        )
        self.chain.fund(recipient, amount)
        return msg_hash


def register_bridge(l2: ValidityL2State) -> int:
    """Register the L2 bridge's deposit handler, which only the L1 bridge may
    call; return its selector. A user's balance is kept under their address."""

    def deposit(from_address: int, user: int, amount: int) -> None:
        if from_address != L1_BRIDGE_ADDRESS:
            raise HandlerAssertionError(f"deposit from unexpected L1 contract {from_address:#x}")
        l2.storage_write(L2_BRIDGE_ADDRESS, user, l2.storage_read(L2_BRIDGE_ADDRESS, user) + amount)

    return l2.register_handler(L2_BRIDGE_ADDRESS, "deposit", deposit)


def run_validity(ctx: _Run) -> RunReport:
    """Message and execute, prove and settle, consume."""
    core = StarkNetCore(ctx.chain)
    gate = _StarkGateL1(ctx.chain, core)
    l2 = ValidityL2State()
    with ctx.phase("message_and_execute"):
        withdrawals, initiated_block = _message_and_execute(ctx, core, l2)
    with ctx.phase("prove_and_settle"):
        diff, diff_words, settle_block = _prove_and_settle(ctx, core, l2)
    with ctx.phase("consume"):
        latencies = _consume(ctx, gate, withdrawals, initiated_block, settle_block)
    with ctx.phase("report"):
        cost = da_cost_comparison(diff) if diff.storage else None
        return ctx.report(
            gas={"diff_words_published": len(diff_words)},
            dispute={"played": False},
            withdrawal_latencies=latencies,
            cost=cost.as_dict() if cost else {},
        )


def _message_and_execute(
    ctx: _Run, core: StarkNetCore, l2: ValidityL2State
) -> tuple[list, int]:
    """Message the deposits to L2 and execute them and the workload; return the
    withdrawals sent and the block they were sent in."""
    chain = ctx.chain
    deposit_selector = register_bridge(l2)
    pending_messages = []
    deposits = ctx.config.deposits
    deposit_payloads = [(dep["user"], dep["value"]) for dep in deposits]
    prefetch_to_l2(core, L1_BRIDGE_ADDRESS, L2_BRIDGE_ADDRESS, deposit_selector, deposit_payloads)
    for dep, payload in zip(deposits, deposit_payloads):
        msg_hash, message = core.send_message_to_l2(
            caller=L1_BRIDGE_ADDRESS, to_address=L2_BRIDGE_ADDRESS, selector=deposit_selector,
            payload=payload, fee=dep.get("fee", 10_000),
        )
        pending_messages.append(message)
        ctx.log("message_to_l2", hash=msg_hash.hex(), value=dep["value"])
    chain.mine_block()

    for message in pending_messages:
        dispatch_l1_handler(l2, message)
    for t in ctx.config.transfers:
        src = l2.storage_read(L2_BRIDGE_ADDRESS, t["user"])
        if src < t["value"]:
            continue
        l2.storage_write(L2_BRIDGE_ADDRESS, t["user"], src - t["value"])
        dst = l2.storage_read(L2_BRIDGE_ADDRESS, t["target"])
        l2.storage_write(L2_BRIDGE_ADDRESS, t["target"], dst + t["value"])
    initiated, messages = [], []
    initiated_block = chain.pending_block_number
    for w in ctx.config.withdrawals:
        balance = l2.storage_read(L2_BRIDGE_ADDRESS, w["user"])
        if balance < w["value"]:
            ctx.log("withdrawal_not_initiated", user=w["user"], value=w["value"])
            continue
        l2.storage_write(L2_BRIDGE_ADDRESS, w["user"], balance - w["value"])
        payload = starkgate_withdraw_payload(w.get("target", w["user"]), w["value"])
        messages.append(L2ToL1Message(L2_BRIDGE_ADDRESS, L1_BRIDGE_ADDRESS, tuple(payload)))
        initiated.append(w)
        ctx.log("withdrawal_initiated", user=w["user"], value=w["value"])
    hashing.prefetch([message.preimage for message in messages])
    for message in messages:
        send_message_to_l1(l2, message)
    for _ in range(ctx.config.proof_cadence_blocks - 1):
        chain.mine_block()
    return initiated, initiated_block


def _prove_and_settle(ctx: _Run, core: StarkNetCore, l2: ValidityL2State):
    """Prove and settle the accumulated state diff; return it, its words and the settling block."""
    prover = SharpProver(PairingGroup(ctx.config.group_order), ctx.config.rng("snark-setup"))
    trace = run_program(
        sqrt_program(25), prog_base=10_000, ap_initial=20_000, prime=ctx.config.field_prime
    )
    diff = l2.drain_pending_diff()
    diff_words = encode_state_diff(diff)
    messages = SettlementMessages(
        consumed_l1_to_l2=tuple(l2.consumed_inbox), sent_l2_to_l1=tuple(l2.outbox)
    )
    proof = prove_transition(core.state_root, diff_words, trace, prover, messages)
    new_root = settle(core, prover, proof, diff_words, messages)
    settle_block = ctx.chain.pending_block_number
    ctx.log("proof_settled", root=new_root.hex(), diff_words=len(diff_words))
    ctx.chain.mine_block()
    return diff, diff_words, settle_block


def _consume(
    ctx: _Run, gate: _StarkGateL1, withdrawals: list[dict], initiated_block: int,
    settle_block: int,
) -> dict:
    """Consume each withdrawal on L1, which must succeed in the block after
    settlement.

    Each withdrawal gets its own latency entry, under its message hash; equal
    withdrawals send equal messages, so the n-th consume of one hash, n >= 2,
    is keyed ``<hash>#<n>``.
    """
    latencies: dict[str, dict] = {}
    consumed: dict[str, int] = {}
    for w in withdrawals:
        msg_hash = gate.withdraw(w["value"], w.get("target", w["user"]))
        consume_block = ctx.chain.pending_block_number
        ctx.log("withdrawal_consumed", hash=msg_hash.hex(), value=w["value"])
        if consume_block != settle_block + 1:
            ctx.violations.append("withdrawal not consumable in the block after settlement")
        key = msg_hash.hex()
        consumed[key] = consumed.get(key, 0) + 1
        if consumed[key] > 1:
            key += f"#{consumed[key]}"
        latencies[key] = {
            "initiated_block": initiated_block,
            "consumed_block": consume_block,
            "blocks": consume_block - initiated_block,
            "seconds": (consume_block - initiated_block) * ctx.config.block_time,
        }
    ctx.chain.mine_block()
    return latencies
