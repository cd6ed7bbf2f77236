"""L1 <-> L2 messaging with counters, selector dispatch and fee escrow.

L1-to-L2 messages are recorded by bumping a counter under the message hash;
the counter comes back down when the consuming state transition is proven.
L2-to-L1 messages exist on L1 only after settlement and are consumed by
decrementing. Handlers on L2 are keyed by a selector derived from their name.

Both directions are frozen message objects with a memoized ``hash``, so each
message object is hashed once. An L1-to-L2 message is hashed when L1 sends
it; handler dispatch and settlement reuse that digest. An L2-to-L1 message,
built once by its sender, is hashed when the L2 sends it; settlement binds
that digest. On L1, ``consume_message_from_l2`` hashes the raw payload its
caller submits: that is the core contract's own check, trusting no digest.
Both L2-to-L1 sites hash through a ``hashing.DigestMemo``, so inside a run
the consume of a message the L2 sent reads the send's digest, while a
tampered payload is a new blob and is hashed.

Each direction states its word layout once, in ``_l1_to_l2_preimage`` and
``_l2_to_l1_preimage``; an L2-to-L1 message memoizes its ``preimage``, which
its ``hash`` hashes. A caller that knows the messages ahead hashes them
together in a scope this module opens: ``prefetch_to_l2`` for L1 sends,
numbered from the core's ``message_nonce`` here, where the core assigns
them, and ``prefetch_to_l1`` for L2 sends, which lists the sent messages'
own preimages. A prefetched digest is handed out only for the exact
preimage it was computed from, so a tampered payload or a send the scope
did not list costs one real hash, never a wrong digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, ContextManager

from .. import hashing
from ..hashing import DigestMemo, keccak256, memoized_digest
from ..l1sim import ZERO_HASH, Chain

CORE_ADDRESS = 0x90000000000000000000000000000000000000C1
SEQUENCER_ADDRESS = 0x90000000000000000000000000000000000000C2

SELECTOR_MASK = (1 << 250) - 1  # keccak output masked into the field


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


def _words(*words: int) -> bytes:
    return b"".join([w.to_bytes(32, "big") for w in words])


def _l1_to_l2_preimage(from_address: int, to_address: int, selector: int, payload, nonce: int) -> bytes:
    """(from_address, to_address, selector, payload length, payload, nonce)
    as 32-byte words; the fee is not hashed."""
    return _words(from_address, to_address, selector, len(payload), *payload, nonce)


def _l2_to_l1_preimage(from_address: int, to_address: int, payload) -> bytes:
    """(from_address, consumer, payload length, payload) as 32-byte words."""
    return _words(from_address, to_address, len(payload), *payload)


@dataclass(frozen=True)
class L1ToL2Message:
    """A message sent from L1 to an L2 contract; ``hash`` is its identity in the core contract."""

    from_address: int
    to_address: int
    selector: int
    payload: tuple[int, ...]
    nonce: int
    fee: int

    @property
    def preimage(self) -> bytes:
        return _l1_to_l2_preimage(
            self.from_address, self.to_address, self.selector, self.payload, self.nonce
        )

    @memoized_digest
    def hash(self) -> bytes:
        return keccak256(self.preimage)


@dataclass(frozen=True)
class L2ToL1Message:
    """A message an L2 contract sends to ``to_address``, an L1 consumer."""

    from_address: int
    to_address: int
    payload: tuple[int, ...]

    @memoized_digest
    def preimage(self) -> bytes:
        return _l2_to_l1_preimage(self.from_address, self.to_address, self.payload)

    @memoized_digest
    def hash(self) -> bytes:
        return DigestMemo()(self.preimage)


def l2_to_l1_message_hash(from_address: int, to_address: int, payload) -> bytes:
    """The hash of the ``L2ToL1Message`` these fields make."""
    return DigestMemo()(_l2_to_l1_preimage(from_address, to_address, tuple(payload)))


def prefetch_to_l2(
    core: StarkNetCore, from_address: int, to_address: int, selector: int, payloads
) -> ContextManager[hashing.Prefetched]:
    """A ``hashing.prefetch`` scope holding the hash of each message the next
    ``core.send_message_to_l2`` calls send, one per payload in order, numbered
    from ``core.message_nonce`` as the core numbers them."""
    return hashing.prefetch(
        _l1_to_l2_preimage(from_address, to_address, selector, payload, nonce)
        for nonce, payload in enumerate(payloads, core.message_nonce)
    )


def prefetch_to_l1(messages) -> ContextManager[hashing.Prefetched]:
    """A ``hashing.prefetch`` scope holding the hash of each L2-to-L1 message,
    for ``send_message_to_l1``; a consume on L1 reads the send's digest from
    the run's memo."""
    return hashing.prefetch([message.preimage for message in messages])


class StarkNetCore:
    """The L1 core contract: message counters, fee escrow, root history."""

    def __init__(self, chain: Chain):
        self.chain = chain
        self.address = CORE_ADDRESS
        self.sequencer = SEQUENCER_ADDRESS
        self.l1_to_l2_counters: dict[bytes, int] = {}
        self.l2_to_l1_counters: dict[bytes, int] = {}
        self.fee_escrow: dict[bytes, int] = {}
        self.message_nonce = 0
        self.root_history: list[bytes] = [ZERO_HASH]  # the genesis root
        chain.register_contract(self.address, self)

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
        """Escrow the fee, bump the counter, emit LogMessageToL2; a refused send writes nothing."""
        if not 0 <= fee < 1 << 256:
            raise ValueError("fee must lie in [0, 2^256)")
        message = L1ToL2Message(
            from_address=caller,
            to_address=to_address,
            selector=selector,
            payload=tuple(payload),
            nonce=self.message_nonce,
            fee=fee,
        )
        msg_hash = message.hash
        self.message_nonce += 1
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
        """Decrement the L2->L1 counter; a message never sent is a hard failure."""
        try:
            msg_hash = l2_to_l1_message_hash(from_address, caller, payload)
        except OverflowError:
            raise InvalidMessageToConsume() from None
        if self.l2_to_l1_counters.get(msg_hash, 0) <= 0:
            raise InvalidMessageToConsume()
        self.l2_to_l1_counters[msg_hash] -= 1
        self.chain._emit(self.address, "ConsumedMessageToL1", msg_hash)
        return msg_hash


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


def send_message_to_l1(l2_state: ValidityL2State, message: L2ToL1Message) -> bytes:
    """Hash, then queue, an L2->L1 message; its counter appears on L1 at settlement."""
    msg_hash = message.hash
    l2_state.outbox.append(message)
    return msg_hash


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
