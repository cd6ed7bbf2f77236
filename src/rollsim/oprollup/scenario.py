"""The optimistic-rollup scenario: deposit, batch, derive and execute, dispute, finalize.

``scenarios.run`` imports this module only for an optimistic config, so a
validity run never loads the optimistic stack (Merkle trees, RLP, and the
deposit, batching, derivation, L2, dispute and withdrawal modules).

Its phases run in order over one ``scenarios._Run``: deposit, batch, derive
and execute, dispute (with planted fraud only), then propose and finalize.
The report's ``cost`` block is empty: the run's data-availability cost is
its ``gas.da_bytes_posted`` and each ``frame_posted`` event's ``gas``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hashing import keccak256
from . import batching, dispute as dispute_mod
from .deposits import GUARANTEED_GAS_CAP, GuaranteedGasExhausted, OptimismPortal
from .derivation import (
    BATCH_INBOX_ADDRESS,
    ExecutedChain,
    derive,
    execute_chain,
    transfer_tx,
    withdraw_tx,
)
from .l2 import WithdrawalTx
from .withdrawals import L2OutputOracle, MIN_STAKE, WithdrawalError, WithdrawalPortal

if TYPE_CHECKING:
    from ..scenarios import RunReport, _Run


_PROPOSER = 0xA11CE
_CHALLENGER = 0xB0B


def run_optimistic(ctx: _Run) -> RunReport:
    """Deposit, batch, derive and execute, dispute a planted fraud, propose and finalize."""
    config = ctx.config
    portal = OptimismPortal(ctx.chain)
    oracle = L2OutputOracle(ctx.chain, proposers={_PROPOSER}, dispute_period=config.dispute_period)
    wportal = WithdrawalPortal(ctx.chain, oracle)
    # (sender, target, value, gas_limit) of each configured withdrawal
    wanted = [
        (w["user"], w.get("target", w["user"]), w["value"], w.get("gas_limit", 21_000))
        for w in config.withdrawals
    ]
    with ctx.phase("deposit"):
        epoch = _deposit(ctx, portal)
    with ctx.phase("batch"):
        da_bytes = _batch(ctx, epoch, wanted)
    with ctx.phase("derive_and_execute"):
        executed, landed = _derive_and_execute(ctx, wanted)
    tip = executed.blocks[-1].number if executed.blocks else 0
    dispute = {"played": False}
    if config.planted_fraud:
        with ctx.phase("dispute"):
            dispute = _dispute(ctx, oracle, tip, executed.output.output_root)
    with ctx.phase("propose_and_finalize"):
        latencies = _propose_and_finalize(ctx, wportal, executed, landed, tip, epoch)
    with ctx.phase("report"):
        return ctx.report(
            gas={"da_bytes_posted": da_bytes},
            dispute=dispute,
            withdrawal_latencies=latencies,
            cost={},
        )


def _deposit(ctx: _Run, portal: OptimismPortal) -> int:
    """Deposit from block 0 on; return the epoch, the empty block after the last deposit block."""
    chain = ctx.chain
    for dep in ctx.config.deposits:
        # a deposit past the forming block's guaranteed L2 gas goes into the next block
        gas_limit = dep.get("gas_limit", 100_000)
        used = portal.guaranteed_gas_in_block(chain.pending_block_number)
        if used and used + gas_limit > GUARANTEED_GAS_CAP:
            chain.mine_block()
        try:
            _, burned = portal.deposit_transaction(
                caller=dep["user"], caller_is_contract=False, to=dep["user"], value=dep["value"],
                gas_limit=gas_limit, is_creation=False, data=b"", l2_basefee=1,
                l1_basefee=ctx.config.basefee,
            )
        except GuaranteedGasExhausted as exc:  # more gas than a whole block guarantees
            ctx.log("deposit_rejected", user=dep["user"], value=dep["value"], reason=str(exc))
            continue
        ctx.log("deposit", user=dep["user"], value=dep["value"], burned_gas=burned)
    chain.mine_block()
    epoch = chain.pending_block_number
    chain.mine_block()
    return epoch


def _batch(ctx: _Run, epoch: int, wanted: list[tuple]) -> int:
    """Post the L2 transactions as shuffled frames of one channel; return the bytes posted.

    A channel that needs more frames than a frame number can count is
    logged as ``batch_rejected`` and nothing is posted."""
    chain, config = ctx.chain, ctx.config
    txs = [transfer_tx(t["user"], t["target"], t["value"]) for t in config.transfers]
    txs += [withdraw_tx(*fields) for fields in wanted]
    da_bytes = 0
    if txs:
        batch = batching.Batch(
            epoch_number=epoch,
            epoch_hash=chain.blocks[epoch].hash,
            parent_hash=b"\x00" * 32,
            timestamp=chain.blocks[epoch].timestamp,
            tx_list=tuple(txs),
        )
        channel = batching.build_channel(
            [batch], timestamp=chain.blocks[epoch].timestamp,
            random=config.rng("channel").randrange(2**64),
        )
        try:
            frames = batching.split_frames(channel, config.max_frame_bytes)
        except batching.TooManyFrames as exc:
            ctx.log("batch_rejected", frames=exc.frames, reason=str(exc))
            frames = []
        order = list(range(len(frames)))
        config.rng("frames").shuffle(order)
        for i in order:
            calldata = frames[i].encode()
            receipt = chain.submit_tx(sender=0x5E9, to=BATCH_INBOX_ADDRESS, calldata=calldata)
            da_bytes += len(calldata)
            ctx.log("frame_posted", frame=frames[i].frame_number, gas=receipt.gas_used)
    for _ in range(1 + config.window):
        chain.mine_block()  # the frames' block, then the sequencing window
    return da_bytes


def _derive_and_execute(ctx: _Run, wanted: list[tuple]) -> tuple[ExecutedChain, list[WithdrawalTx]]:
    """Derive and execute the L2 chain; return it with the configured withdrawals it sent."""
    l2_blocks = derive(ctx.chain, ctx.config.window)
    executed = execute_chain(l2_blocks)
    ctx.log("derived", l2_blocks=len(l2_blocks))
    # L2 execution skips a withdrawal its sender cannot fund, so the sent
    # withdrawals are the configured ones in order, minus the skipped ones
    sent = iter(executed.state.sent_withdrawals)
    landed: list[WithdrawalTx] = []
    candidate = next(sent, None)
    for fields in wanted:
        if candidate is not None and fields == (
            candidate.sender, candidate.target, candidate.value, candidate.gas_limit
        ):
            landed.append(candidate)
            candidate = next(sent, None)
        else:
            ctx.log("withdrawal_not_initiated", user=fields[0], value=fields[2])
    return executed, landed


def _dispute(ctx: _Run, oracle: L2OutputOracle, tip: int, honest_root: bytes) -> dict:
    """Propose a fraudulent output root and play the bisection game against it."""
    bad_root = keccak256(b"fraud" + honest_root)
    oracle.propose(_PROPOSER, bad_root, tip, stake=MIN_STAKE)
    ctx.log("output_proposed", root=bad_root.hex(), fraudulent=True)
    # a VM execution standing in for the challenged block's trace
    game = dispute_mod.play_planted_fault(
        (0, 1, 3, 0, 1, 0, 0, 0), ctx.config.dispute_steps, ctx.config.fault_position,
        challenger=_CHALLENGER, defender=_PROPOSER,
    )
    slashed = 0
    if game.winner == dispute_mod.CHALLENGER:
        slashed = oracle.invalidate(tip)
    else:
        ctx.violations.append("dispute: honest challenger failed to win")
    ctx.log("dispute_resolved", winner=game.winner, rounds=game.rounds, stake_slashed=slashed)
    return {"played": True, "winner": game.winner, "rounds": game.rounds, "stake_slashed": slashed}


def _propose_and_finalize(
    ctx: _Run, wportal: WithdrawalPortal, executed: ExecutedChain, landed: list[WithdrawalTx],
    tip: int, epoch: int,
) -> dict:
    """Propose the honest root; finalize each withdrawal a second early (refused), then on time."""
    output, oracle = executed.output, wportal.oracle
    proposal = oracle.propose(_PROPOSER, output.output_root, tip, stake=MIN_STAKE)
    ctx.log("output_proposed", root=output.output_root.hex(), fraudulent=False)
    on_time = proposal.timestamp + ctx.config.dispute_period
    initiated_at = ctx.chain.blocks[epoch].timestamp
    latencies: dict[str, dict] = {}
    for wtx in landed:
        proof, withdrawal = executed.state.withdrawal_proof(wtx.hash), wtx.hash.hex()
        try:
            wportal.finalize_withdrawal(wtx, tip, output, proof, now=on_time - 1)
            ctx.violations.append("withdrawal finalized before the dispute period elapsed")
        except WithdrawalError as exc:
            ctx.log("finalize_rejected", time=on_time - 1, reason=str(exc), withdrawal=withdrawal)
        try:
            receipt = wportal.finalize_withdrawal(wtx, tip, output, proof, now=on_time)
        except WithdrawalError as exc:
            ctx.log("finalize_rejected", time=on_time, reason=str(exc), withdrawal=withdrawal)
            continue
        ctx.log("withdrawal_finalized", time=on_time, withdrawal=withdrawal,
                value=receipt["value"])
        latencies[withdrawal] = {
            "initiated_at": initiated_at, "finalized_at": on_time, "seconds": on_time - initiated_at,
        }
    return latencies
