"""Portal deposits: L1 transactions that mint and execute on L2.

The portal emits a TransactionDeposited event per deposit; rollup nodes
derive an L2 transaction from each event. Contract callers get aliased so an
L1 contract can never impersonate the same address on L2, and the L2 gas a
deposit is guaranteed is paid for by burning L1 gas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import rlp
from ..hashing import keccak256
from ..l1sim import Chain, Event, calldata_gas, TX_BASE_GAS

ADDRESS_SPACE = 1 << 160
ALIAS_OFFSET = 0x1111000000000000000000000000000000001111

DEPOSIT_TX_PREFIX = 0x7E
GUARANTEED_GAS_CAP = 8_000_000

PORTAL_ADDRESS = 0x90000000000000000000000000000000000000A1
L1_ATTRIBUTES_PREDEPLOY = 0x4200000000000000000000000000000000000015
L1_ATTRIBUTES_DEPOSITOR = int("deaddeaddeaddeaddeaddeaddeaddeaddead0001", 16)


class GuaranteedGasExhausted(RuntimeError):
    """Per-L1-block guaranteed gas would exceed the cap."""


class PortalError(ValueError):
    """Deposit rejected; message carries the portal's revert string."""


def apply_l1_to_l2_alias(address: int) -> int:
    """Offset a contract caller's address into the L2 alias range."""
    return (address + ALIAS_OFFSET) % ADDRESS_SPACE


def source_hash(l1_block_digest: bytes, log_index: int) -> bytes:
    """Unique deposit origin: H(zero-word || H(l1_block_hash) || word(log_index)).

    ``l1_block_digest`` is H(l1_block_hash), which every deposit and
    attributes transaction of one L1 block shares, so the caller hashes it
    once per block. Without the origin, two deposits with identical fields
    would collide.
    """
    return keccak256((0).to_bytes(32, "big") + l1_block_digest + log_index.to_bytes(32, "big"))


@dataclass(frozen=True)
class DepositedTx:
    """The L2 transaction derived from a TransactionDeposited event."""

    source_hash: bytes
    from_address: int
    to_address: int  # zero address for contract creation
    mint: int
    value: int
    data: bytes
    gas_limit: int

    def encode(self) -> bytes:
        """EIP-2718 style encoding: the 0x7E type byte over RLP'd fields."""
        return bytes([DEPOSIT_TX_PREFIX]) + rlp.encode(
            [
                self.source_hash,
                self.from_address,
                self.to_address,
                self.mint,
                self.value,
                self.data,
                self.gas_limit,
            ]
        )

    @classmethod
    def decode(cls, blob: bytes) -> "DepositedTx":
        if not blob or blob[0] != DEPOSIT_TX_PREFIX:
            raise ValueError("not a deposited-transaction payload")
        fields = rlp.decode_fields(blob[1:], 7)
        if len(fields[1]) > 20 or len(fields[2]) > 20:  # the L2 state root's width
            raise rlp.RlpDecodingError("an address is at most 20 bytes")
        return cls(
            source_hash=fields[0],
            from_address=rlp.decode_int(fields[1]),
            to_address=rlp.decode_int(fields[2]),
            mint=rlp.decode_int(fields[3]),
            value=rlp.decode_int(fields[4]),
            data=fields[5],
            gas_limit=rlp.decode_int(fields[6]),
        )


class OptimismPortal:
    """L1 entry point for deposits; tracks per-block guaranteed gas."""

    def __init__(self, chain: Chain):
        self.chain = chain
        self.address = PORTAL_ADDRESS  # derivation reads deposits from this address only
        self._guaranteed_by_block: dict[int, int] = {}
        chain.register_contract(self.address, self)

    def guaranteed_gas_in_block(self, block_number: int) -> int:
        return self._guaranteed_by_block.get(block_number, 0)

    def deposit_transaction(
        self,
        caller: int,
        caller_is_contract: bool,
        to: int,
        value: int,
        gas_limit: int,
        is_creation: bool,
        data: bytes,
        l2_basefee: int,
        l1_basefee: int,
    ) -> tuple[Event, int]:
        """Record a deposit, emit its event, and burn gas for the L2 execution.

        The burn is (gas_limit * l2_basefee) / l1_basefee minus what the
        deposit call itself already paid, floored at zero. Returns the emitted
        event and the burned amount.
        """
        if is_creation and to != 0:
            raise PortalError("must send to address(0) when creating a contract")
        block = self.chain.pending_block_number
        used = self._guaranteed_by_block.get(block, 0)
        if used + gas_limit > GUARANTEED_GAS_CAP:
            raise GuaranteedGasExhausted(
                f"block {block}: {used} + {gas_limit} exceeds {GUARANTEED_GAS_CAP}"
            )
        self._guaranteed_by_block[block] = used + gas_limit

        from_address = apply_l1_to_l2_alias(caller) if caller_is_contract else caller
        call_gas = TX_BASE_GAS + calldata_gas(data)
        burned = max(0, gas_limit * l2_basefee // l1_basefee - call_gas)

        # the fields are from, to, mint, value: a deposit mints what it carries
        payload = rlp.encode(
            [from_address, to, value, value, gas_limit, int(is_creation), data]
        )
        event = self.chain._emit(self.address, "TransactionDeposited", payload)
        return event, burned


def deposit_from_event(event: Event, l1_block_digest: bytes) -> DepositedTx:
    """Rebuild the L2 deposited transaction from its L1 event; the block
    digest is as in ``source_hash``."""
    fields = rlp.decode_fields(event.payload, 7)
    return DepositedTx(
        source_hash=source_hash(l1_block_digest, event.log_index),
        from_address=rlp.decode_int(fields[0]),
        to_address=rlp.decode_int(fields[1]),
        mint=rlp.decode_int(fields[2]),
        value=rlp.decode_int(fields[3]),
        data=fields[6],
        gas_limit=rlp.decode_int(fields[4]),
    )
