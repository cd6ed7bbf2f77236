"""Derivation: the L2 chain as a pure function of the L1 chain.

Each L1 block number n is an epoch. An epoch's first L2 block carries the
L1-attributes transaction and every portal deposit from block n; further L2
blocks come from sequencer batches whose channel frames all landed inside the
sequencing window [n, n+w), as ``batching.read_channels`` reads them off the
batch inbox. Epochs are only derived once their window has fully arrived, so
transaction ordering inside a window is never revised.

Every L2 transaction is typed as a deposit is: a type byte, then an RLP list.
A transfer is ``TRANSFER_TX_TYPE`` over [from, to, value] and a withdrawal
``WITHDRAW_TX_TYPE`` over [sender, target, value, gas_limit, data], with
addresses as 20 bytes and integers of at most 32 bytes. Execution skips any
other payload.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import rlp
from ..hashing import keccak256, memoized_digest
from ..l1sim import Chain, l1_attributes
from .batching import read_channels
from .deposits import (
    DEPOSIT_TX_PREFIX,
    DepositedTx,
    L1_ATTRIBUTES_DEPOSITOR,
    L1_ATTRIBUTES_PREDEPLOY,
    PORTAL_ADDRESS,
    deposit_from_event,
    source_hash,
)
from .l2 import OpL2State, apply_deposit, initiate_withdrawal
from . import l2 as l2mod

BATCH_INBOX_ADDRESS = 0x90000000000000000000000000000000000000B1


@dataclass(frozen=True)
class L2Block:
    """A derived L2 block: its L1 origin (epoch), timestamp, sequence number and transactions."""

    number: int
    epoch_number: int
    epoch_hash: bytes
    timestamp: int
    sequence_number: int
    txs: tuple[bytes, ...]

    @memoized_digest
    def hash(self) -> bytes:
        tx_digest = keccak256(b"".join(keccak256(tx) for tx in self.txs))
        return keccak256(
            self.number.to_bytes(8, "big")
            + self.epoch_number.to_bytes(8, "big")
            + self.epoch_hash
            + self.timestamp.to_bytes(8, "big")
            + self.sequence_number.to_bytes(4, "big")
            + tx_digest
        )


def _attributes_tx(block, block_digest: bytes, sequence_number: int) -> bytes:
    attrs = l1_attributes(block, sequence_number)
    return DepositedTx(
        source_hash=source_hash(block_digest, 2**32 + sequence_number),
        from_address=L1_ATTRIBUTES_DEPOSITOR,
        to_address=L1_ATTRIBUTES_PREDEPLOY,
        mint=0,
        value=0,
        data=l2mod.encode_attributes(attrs),
        gas_limit=150_000,
    ).encode()


def derive(l1_chain: Chain, window_w: int) -> list[L2Block]:
    """Derive the full L2 chain for every epoch whose window is complete."""
    if window_w < 1:
        raise ValueError("sequencing window must span at least one block")
    blocks = l1_chain.blocks
    n_epochs = len(blocks) - window_w + 1
    if n_epochs <= 0:
        return []

    # a channel's place in the reader's output ranks it by its first frame's arrival
    inbox = [(tx.calldata, block.number) for block in blocks for tx in block.txs
             if tx.to == BATCH_INBOX_ADDRESS]
    candidates = [(batch, lo, hi, arrival)
                  for arrival, (batches, lo, hi) in enumerate(read_channels(inbox))
                  for batch in batches]

    l2_blocks: list[L2Block] = []
    for epoch in range(n_epochs):
        l1_block = blocks[epoch]
        # every source hash of the epoch shares H(l1_block.hash)
        block_digest = keccak256(l1_block.hash)
        deposit_txs = tuple(
            deposit_from_event(event, block_digest).encode()
            for event in l1_chain.events_in_block(epoch)
            if event.address == PORTAL_ADDRESS and event.name == "TransactionDeposited"
        )
        # batches for this epoch: correct epoch hash, frames inside the window,
        # and no empty or deposit-typed transaction, since deposits come only
        # from portal events (the OP Stack's batch validity rules)
        epoch_batches = sorted(
            (
                (batch, arrival)
                for batch, lo, hi, arrival in candidates
                if batch.epoch_number == epoch
                and batch.epoch_hash == l1_block.hash
                and lo >= epoch
                and hi < epoch + window_w
                and all(tx and tx[0] != DEPOSIT_TX_PREFIX for tx in batch.tx_list)
            ),
            key=lambda pair: (pair[0].timestamp, pair[1]),
        )
        # sequence number 0 carries the deposits, each later block one batch
        bodies = [(l1_block.timestamp, deposit_txs)]
        bodies += [(batch.timestamp, batch.tx_list) for batch, _ in epoch_batches]
        for seq, (timestamp, txs) in enumerate(bodies):
            l2_blocks.append(
                L2Block(
                    number=len(l2_blocks),
                    epoch_number=epoch,
                    epoch_hash=l1_block.hash,
                    timestamp=timestamp,
                    sequence_number=seq,
                    txs=(_attributes_tx(l1_block, block_digest, seq), *txs),
                )
            )
    return l2_blocks


# --- L2 transaction payloads and execution ------------------------------------

# the simulator's own types, clear of Ethereum's (0x00-0x04) and of the deposit type
TRANSFER_TX_TYPE = 0x70  # [from, to, value]
WITHDRAW_TX_TYPE = 0x71  # [sender, target, value, gas_limit, data]


def transfer_tx(sender: int, to: int, value: int) -> bytes:
    return bytes([TRANSFER_TX_TYPE]) + rlp.encode(
        [sender.to_bytes(20, "big"), to.to_bytes(20, "big"), value]
    )


def withdraw_tx(sender: int, target: int, value: int, gas_limit: int, data: bytes = b"") -> bytes:
    return bytes([WITHDRAW_TX_TYPE]) + rlp.encode(
        [sender.to_bytes(20, "big"), target.to_bytes(20, "big"), value, gas_limit, data]
    )


def _address(field: bytes) -> int:
    # fixed width, so leading zero bytes are part of it: not rlp.decode_int
    if len(field) != 20:
        raise rlp.RlpDecodingError("an address is 20 bytes")
    return int.from_bytes(field, "big")


def _word(field: bytes) -> int:
    if len(field) > 32:
        raise rlp.RlpDecodingError("an integer is at most 32 bytes")
    return rlp.decode_int(field)


def execute_block(state: OpL2State, block: L2Block) -> OpL2State:
    """Apply a derived block; malformed, invalid or failing transactions are skipped."""
    for tx in block.txs:
        kind = tx[0] if tx else None
        try:
            if kind == DEPOSIT_TX_PREFIX:
                apply_deposit(state, DepositedTx.decode(tx))
            elif kind == TRANSFER_TX_TYPE:
                sender, to, value = rlp.decode_fields(tx[1:], 3)
                sender, to, value = _address(sender), _address(to), _word(value)
                # a zero-value transfer passes the check from an account
                # that has no entry yet, which credit creates
                if state.balance(sender) >= value:
                    state.credit(sender, -value)
                    state.credit(to, value)
            elif kind == WITHDRAW_TX_TYPE:
                sender, target, value, gas_limit, data = rlp.decode_fields(tx[1:], 5)
                initiate_withdrawal(
                    state, sender=_address(sender), target=_address(target),
                    gas_limit=_word(gas_limit), value=_word(value), data=data,
                )
        except ValueError:  # a malformed payload or an unfunded withdrawal
            continue
    return state


@dataclass(frozen=True)
class ExecutedChain:
    """The derived blocks, the L2 state after running them, and the tip's output-root preimage."""

    blocks: list[L2Block]
    state: OpL2State
    output: "l2mod.OutputRootProof | None"  # the tip's; None for no blocks


def execute_chain(blocks: list[L2Block]) -> ExecutedChain:
    """Run all derived blocks and build the output-root preimage of the tip.

    The proposer posts one output root, at the tip, so no other block's
    hash, state root or withdrawal root is computed.
    """
    state = OpL2State()
    for block in blocks:
        execute_block(state, block)
    output = l2mod.output_root_proof(state, blocks[-1].hash) if blocks else None
    return ExecutedChain(blocks=blocks, state=state, output=output)
