"""L1 <-> L2 messaging with counters, selector dispatch and fee escrow.

L1-to-L2 messages are recorded by bumping a counter under the message hash;
the counter comes back down when the consuming state transition is proven.
L2-to-L1 messages exist on L1 only after settlement and are consumed by
decrementing. Handlers on L2 are keyed by a selector derived from their name.

Both directions are frozen message objects with a memoized ``hash``, so each
message is hashed once per side. An L1-to-L2 message is hashed when L1 sends
it; handler dispatch and settlement reuse that digest. An L2-to-L1 message is
hashed when the L2 sends it; settlement binds that same digest. On L1,
``consume_message_from_l2`` hashes the raw payload its caller submits: that is
the core contract's own check and trusts no precomputed digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

from ..hashing import keccak256, memoized_digest
from ..l1sim import ZERO_HASH, Chain

CORE_ADDRESS = 0x90000000000000000000000000000000000000C1
SEQUENCER_ADDRESS = 0x90000000000000000000000000000000000000C2

SELECTOR_MASK = (1 << 250) - 1  # keccak output masked into the field

L1_TO_L2 = "l1_to_l2"
L2_TO_L1 = "l2_to_l1"


class EmptyName(ValueError):
    """Selectors are derived from non-empty ASCII names."""


class NoHandler(KeyError):
    """No handler registered under the message selector."""


class InvalidMessageToConsume(ValueError):
    """Counter is zero: message unknown or already consumed."""

    def __init__(self):
        super().__init__("INVALID_MESSAGE_TO_CONSUME")


def selector_from_name(name: str) -> int:
    """Keccak-256 of the name, masked to 250 bits so it fits the field."""
    if not name or not name.isascii():
        raise EmptyName(f"selector names must be non-empty ASCII, got {name!r}")
    return int.from_bytes(keccak256(name.encode("ascii")), "big") & SELECTOR_MASK


@dataclass(frozen=True)
class L2Message:
    """Counter snapshot for one message hash."""

    message_hash: bytes
    direction: str
    counter: int


@dataclass(frozen=True)
class L1ToL2Message:
    from_address: int
    to_address: int
    selector: int
    payload: tuple[int, ...]
    nonce: int
    fee: int

    @memoized_digest
    def hash(self) -> bytes:
        return keccak256(
            self.from_address.to_bytes(32, "big")
            + self.to_address.to_bytes(32, "big")
            + self.selector.to_bytes(32, "big")
            + len(self.payload).to_bytes(32, "big")
            + b"".join(w.to_bytes(32, "big") for w in self.payload)
            + self.nonce.to_bytes(32, "big")
        )


def l2_to_l1_message_hash(
    from_address: int, to_address: int, payload: tuple[int, ...]
) -> bytes:
    """H(from_address, consumer, payload length, payload)."""
    return keccak256(
        from_address.to_bytes(32, "big")
        + to_address.to_bytes(32, "big")
        + len(payload).to_bytes(32, "big")
        + b"".join(w.to_bytes(32, "big") for w in payload)
    )


@dataclass(frozen=True)
class L2ToL1Message:
    """A message an L2 contract sends to ``to_address``, an L1 consumer."""

    from_address: int
    to_address: int
    payload: tuple[int, ...]

    @memoized_digest
    def hash(self) -> bytes:
        return l2_to_l1_message_hash(self.from_address, self.to_address, self.payload)


class StarkNetCore:
    """The L1 core contract: message counters, fee escrow, root history."""

    def __init__(
        self,
        chain: Chain,
        address: int = CORE_ADDRESS,
        sequencer: int = SEQUENCER_ADDRESS,
    ):
        self.chain = chain
        self.address = address
        self.sequencer = sequencer
        self.l1_to_l2_counters: dict[bytes, int] = {}
        self.l2_to_l1_counters: dict[bytes, int] = {}
        self.fee_escrow: dict[bytes, int] = {}
        self.message_nonce = 0
        self.root_history: list[bytes] = [ZERO_HASH]  # the genesis root
        self.settled_at_block: list[int] = [chain.pending_block_number]
        chain.register_contract(address, self)

    @property
    def state_root(self) -> bytes:
        return self.root_history[-1]

    def send_message_to_l2(
        self,
        caller: int,
        to_address: int,
        selector: int,
        payload: tuple[int, ...] | list[int],
        fee: int = 0,
    ) -> tuple[bytes, L1ToL2Message]:
        """Escrow the fee, bump the counter, emit LogMessageToL2."""
        if fee < 0:
            raise ValueError("fee cannot be negative")
        message = L1ToL2Message(
            from_address=caller,
            to_address=to_address,
            selector=selector,
            payload=tuple(payload),
            nonce=self.message_nonce,
            fee=fee,
        )
        self.message_nonce += 1
        msg_hash = message.hash
        self.l1_to_l2_counters[msg_hash] = self.l1_to_l2_counters.get(msg_hash, 0) + 1
        self.fee_escrow[msg_hash] = self.fee_escrow.get(msg_hash, 0) + fee
        self.chain._emit(
            self.address,
            "LogMessageToL2",
            msg_hash + fee.to_bytes(32, "big"),
        )
        return msg_hash, message

    def consume_message_from_l2(
        self, from_address: int, payload: tuple[int, ...] | list[int], caller: int
    ) -> bytes:
        """Decrement the L2->L1 counter; zero counter is a hard failure."""
        msg_hash = l2_to_l1_message_hash(from_address, caller, tuple(payload))
        if self.l2_to_l1_counters.get(msg_hash, 0) <= 0:
            raise InvalidMessageToConsume()
        self.l2_to_l1_counters[msg_hash] -= 1
        self.chain._emit(self.address, "ConsumedMessageToL1", msg_hash)
        return msg_hash

    def message_status(self, msg_hash: bytes, direction: str) -> L2Message:
        counters = (
            self.l1_to_l2_counters if direction == L1_TO_L2 else self.l2_to_l1_counters
        )
        return L2Message(
            message_hash=msg_hash, direction=direction,
            counter=counters.get(msg_hash, 0),
        )


# --- the L2 side ---------------------------------------------------------------


class HandlerAssertionError(AssertionError):
    """An l1_handler's guard failed (for example, wrong from_address)."""


@dataclass
class ValidityL2State:
    """Contract storage plus the message queues bridged at settlement."""

    storage: dict[int, dict[int, int]] = dataclass_field(default_factory=dict)
    handlers: dict[int, dict[int, Callable]] = dataclass_field(default_factory=dict)
    outbox: list[L2ToL1Message] = dataclass_field(default_factory=list)
    consumed_inbox: list[bytes] = dataclass_field(default_factory=list)
    pending_diff_keys: dict[int, dict[int, int]] = dataclass_field(default_factory=dict)

    def register_handler(self, contract: int, name: str, fn: Callable) -> int:
        selector = selector_from_name(name)
        self.handlers.setdefault(contract, {})[selector] = fn
        return selector

    def storage_read(self, contract: int, key: int) -> int:
        return self.storage.get(contract, {}).get(key, 0)

    def storage_write(self, contract: int, key: int, value: int) -> None:
        self.storage.setdefault(contract, {})[key] = value
        self.pending_diff_keys.setdefault(contract, {})[key] = value

    def drain_pending_diff(self):
        """Collapse writes since the last proof into a state diff (last write wins)."""
        from .statediff import ContractStorageDiff, StateDiff

        contracts = tuple(
            ContractStorageDiff(
                contract_address=addr,
                updates=tuple(sorted(written.items())),
            )
            for addr, written in sorted(self.pending_diff_keys.items())
            if written
        )
        self.pending_diff_keys = {}
        return StateDiff(deployments=(), storage=contracts)


def dispatch_l1_handler(l2_state: ValidityL2State, message: L1ToL2Message) -> None:
    """Run the handler registered under the message selector.

    The handler receives from_address first, then the payload words; its own
    assertions (such as pinning the L1 sender) surface unchanged. On success
    the message hash is queued for counter decrement at settlement.
    """
    contract_handlers = l2_state.handlers.get(message.to_address, {})
    handler = contract_handlers.get(message.selector)
    if handler is None:
        raise NoHandler(
            f"contract {message.to_address:#x} has no handler for selector "
            f"{message.selector:#x}"
        )
    handler(message.from_address, *message.payload)
    l2_state.consumed_inbox.append(message.hash)


def send_message_to_l1(
    l2_state: ValidityL2State, from_address: int, to_address: int, payload
) -> bytes:
    """Queue an L2->L1 message; its counter appears on L1 at settlement."""
    message = L2ToL1Message(from_address, to_address, tuple(payload))
    l2_state.outbox.append(message)
    return message.hash


# StarkGate-style payload prefix for token withdrawals
TRANSFER_FROM_STARKNET = 0


def starkgate_withdraw_payload(recipient: int, amount: int) -> list[int]:
    """[TRANSFER_FROM_STARKNET, recipient, amount_low, amount_high]."""
    return [
        TRANSFER_FROM_STARKNET,
        recipient,
        amount & ((1 << 128) - 1),
        amount >> 128,
    ]
