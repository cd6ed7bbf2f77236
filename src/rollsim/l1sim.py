"""Simulated settlement chain.

A linear chain under a single logical clock: registered contract handlers
execute synchronously in submission order, storage writes are gas-metered
from the storage pricing table, calldata is priced per byte, and every
emitted event is retrievable by (block number, log index). No consensus, no
fee dynamics; one basefee, fixed block time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .hashing import keccak256, memoized_digest

BLOCK_TIME = 12  # seconds
TX_BASE_GAS = 21_000

ZERO_HASH = b"\x00" * 32


class UnknownAddress(KeyError):
    """Call target has no registered contract handler."""


# --- gas schedule -------------------------------------------------------------

CALLDATA_ZERO_BYTE_GAS = 4  # EIP-2028
CALLDATA_NONZERO_BYTE_GAS = 16

ZERO_TO_NONZERO = "zero_to_nonzero"
NONZERO_TO_NONZERO = "nonzero_to_nonzero"
TO_ZERO = "to_zero"
REWRITE_SAME = "rewrite_same"

# Storage writes, EIP-2929 figures: {transition kind: (cold gas, warm gas)}.
# Writing a cell to zero costs what the previous-value transition costs and
# flags a refund; the refund amount itself is out of scope and stays a marker.
SSTORE_TABLE = {
    ZERO_TO_NONZERO: (22_100, 20_000),
    NONZERO_TO_NONZERO: (5_000, 2_900),
    REWRITE_SAME: (100, 100),
}


def calldata_gas(data: bytes) -> int:
    """4 gas per zero byte, 16 per non-zero byte (EIP-2028 figures)."""
    nonzero = len(data) - data.count(0)
    return (
        CALLDATA_NONZERO_BYTE_GAS * nonzero
        + CALLDATA_ZERO_BYTE_GAS * (len(data) - nonzero)
    )


@dataclass(frozen=True)
class StorageWriteCost:
    gas: int
    refund: bool  # marker only; the amount is not modeled


def sstore_charge(transition: str, cold: bool) -> StorageWriteCost:
    if transition == TO_ZERO:
        # previous value was nonzero; charge that row and mark the refund
        base = SSTORE_TABLE[NONZERO_TO_NONZERO]
        return StorageWriteCost(gas=base[0] if cold else base[1], refund=True)
    if transition not in SSTORE_TABLE:
        raise KeyError(f"unknown storage transition {transition!r}")
    pair = SSTORE_TABLE[transition]
    return StorageWriteCost(gas=pair[0] if cold else pair[1], refund=False)


def sstore_gas(transition: str, cold: bool) -> int:
    return sstore_charge(transition, cold).gas


# --- censorship economics ------------------------------------------------------


@dataclass(frozen=True)
class CensorshipModel:
    """E[subtracted value] = V * p^n for an n-block censorship interval."""

    value_at_risk: float  # V, in ether
    p: float  # per-block censorship success probability
    n: int  # blocks in the interval

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.n < 0:
            raise ValueError("n must be non-negative")


def censorship_expected_value(model: CensorshipModel) -> float:
    """V * p^n; double precision, monotone decreasing in n for p < 1."""
    return model.value_at_risk * model.p**model.n


# --- chain objects -------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    address: int
    name: str
    payload: bytes
    block_number: int
    log_index: int


@dataclass(frozen=True)
class Tx:
    sender: int
    to: int
    calldata: bytes = b""
    value: int = 0
    call: tuple[str, dict] | None = None  # (method name, kwargs) for handlers


@dataclass(frozen=True)
class Receipt:
    status: bool
    gas_used: int
    error: str | None
    events: tuple[Event, ...]
    block_number: int
    tx_index: int
    result: object = None


@dataclass(frozen=True)
class L1Block:
    number: int
    timestamp: int
    basefee: int
    parent_hash: bytes
    txs: tuple[Tx, ...]
    gas_used: int

    @memoized_digest
    def hash(self) -> bytes:
        tx_blob = b"".join(
            keccak256(
                tx.sender.to_bytes(20, "big")
                + tx.to.to_bytes(20, "big")
                + tx.value.to_bytes(32, "big")
                + tx.calldata
            )
            for tx in self.txs
        )
        return keccak256(
            self.number.to_bytes(8, "big")
            + self.timestamp.to_bytes(8, "big")
            + self.basefee.to_bytes(16, "big")
            + self.parent_hash
            + keccak256(tx_blob)
        )


@dataclass(frozen=True)
class L1Attributes:
    """The block attributes a rollup registers on its L2 predeploy."""

    number: int
    timestamp: int
    basefee: int
    hash: bytes
    sequence_number: int


def l1_attributes(block: L1Block, sequence_number: int) -> L1Attributes:
    """Project a block header plus the epoch-relative L2 sequence number."""
    return L1Attributes(
        number=block.number,
        timestamp=block.timestamp,
        basefee=block.basefee,
        hash=block.hash,
        sequence_number=sequence_number,
    )


class TxContext:
    """Execution context handed to a contract handler for one call."""

    def __init__(self, chain: "Chain", tx: Tx, address: int):
        self.chain = chain
        self.tx = tx
        self.address = address
        self.block_number = chain.pending_block_number
        self.timestamp = chain.pending_timestamp
        self.gas_used = 0
        self.refund_markers = 0

    @property
    def caller(self) -> int:
        return self.tx.sender

    @property
    def value(self) -> int:
        return self.tx.value

    def emit(self, name: str, payload: bytes = b"") -> Event:
        return self.chain._emit(self.address, name, payload)

    def storage_read(self, slot: int, address: int | None = None) -> int:
        return self.chain.storage.get(address or self.address, {}).get(slot, 0)

    def storage_write(self, slot: int, value: int) -> int:
        """Write a slot, charging per the storage table; returns gas charged."""
        addr = self.address
        current = self.chain.storage.setdefault(addr, {}).get(slot, 0)
        key = (addr, slot)
        cold = key not in self.chain._block_accessed
        if key in self.chain._block_dirty or value == current:
            kind = REWRITE_SAME
        elif current == 0 and value != 0:
            kind = ZERO_TO_NONZERO
        elif value == 0:
            kind = TO_ZERO
        else:
            kind = NONZERO_TO_NONZERO
        cost = sstore_charge(kind, cold)
        self.chain._block_accessed.add(key)
        self.chain._block_dirty.add(key)
        self.chain.storage[addr][slot] = value
        self.gas_used += cost.gas
        if cost.refund:
            self.refund_markers += 1
        return cost.gas


class Chain:
    """Single-writer simulated L1. Transactions execute at submission time
    inside the currently forming block; ``mine_block`` seals it."""

    def __init__(
        self,
        basefee: int = 10 * 10**9,
        block_time: int = BLOCK_TIME,
    ):
        self.basefee = basefee
        self.block_time = block_time
        self.blocks: list[L1Block] = []
        self.balances: dict[int, int] = {}
        self.storage: dict[int, dict[int, int]] = {}
        self.contracts: dict[int, object] = {}
        self.events: list[Event] = []
        self._pending_txs: list[Tx] = []
        self._pending_gas = 0
        self._pending_events: list[Event] = []
        self._block_accessed: set[tuple[int, int]] = set()
        self._block_dirty: set[tuple[int, int]] = set()

    # -- clock ---------------------------------------------------------------

    @property
    def pending_block_number(self) -> int:
        return len(self.blocks)

    @property
    def pending_timestamp(self) -> int:
        return self.pending_block_number * self.block_time

    @property
    def head(self) -> L1Block:
        return self.blocks[-1]

    # -- contracts and accounts -----------------------------------------------

    def register_contract(self, address: int, handler: object) -> None:
        self.contracts[address] = handler

    def fund(self, address: int, amount: int) -> None:
        self.balances[address] = self.balances.get(address, 0) + amount

    def balance(self, address: int) -> int:
        return self.balances.get(address, 0)

    # -- execution -------------------------------------------------------------

    def _emit(self, address: int, name: str, payload: bytes) -> Event:
        event = Event(
            address=address,
            name=name,
            payload=payload,
            block_number=self.pending_block_number,
            log_index=len(self._pending_events),
        )
        self._pending_events.append(event)
        return event

    def submit_tx(
        self,
        sender: int,
        to: int,
        calldata: bytes = b"",
        value: int = 0,
        call: tuple[str, dict] | None = None,
    ) -> Receipt:
        """Execute a transaction in the forming block and return its receipt.

        A handler exception reverts the transaction: balances, storage and
        events roll back; calldata gas is still charged.
        """
        tx = Tx(sender=sender, to=to, calldata=bytes(calldata), value=value, call=call)
        gas = TX_BASE_GAS + calldata_gas(tx.calldata)
        snapshot = (
            dict(self.balances),
            {a: dict(slots) for a, slots in self.storage.items()},
            len(self._pending_events),
            set(self._block_accessed),
            set(self._block_dirty),
        )
        tx_index = len(self._pending_txs)
        error = None
        result = None
        events_before = len(self._pending_events)
        try:
            if value:
                if self.balances.get(sender, 0) < value:
                    raise ValueError("insufficient sender balance")
                self.balances[sender] -= value
                self.balances[to] = self.balances.get(to, 0) + value
            if call is not None or to in self.contracts:
                handler = self.contracts.get(to)
                if handler is None:
                    raise UnknownAddress(f"no contract registered at {to:#x}")
                if call is not None:
                    ctx = TxContext(self, tx, to)
                    method, kwargs = call
                    result = getattr(handler, method)(ctx, **kwargs)
                    gas += ctx.gas_used
        except Exception as exc:  # revert
            balances, storage, event_len, accessed, dirty = snapshot
            self.balances = balances
            self.storage = storage
            self._block_accessed = accessed
            self._block_dirty = dirty
            del self._pending_events[event_len:]
            error = str(exc)
        new_events = tuple(self._pending_events[events_before:]) if error is None else ()
        self._pending_txs.append(tx)
        self._pending_gas += gas
        return Receipt(
            status=error is None,
            gas_used=gas,
            error=error,
            events=new_events,
            block_number=self.pending_block_number,
            tx_index=tx_index,
            result=result,
        )

    def mine_block(self) -> L1Block:
        """Seal the forming block and reset per-block warm/cold tracking."""
        parent = self.blocks[-1].hash if self.blocks else ZERO_HASH
        block = L1Block(
            number=self.pending_block_number,
            timestamp=self.pending_timestamp,
            basefee=self.basefee,
            parent_hash=parent,
            txs=tuple(self._pending_txs),
            gas_used=self._pending_gas,
        )
        self.blocks.append(block)
        self.events.extend(self._pending_events)
        self._pending_txs = []
        self._pending_gas = 0
        self._pending_events = []
        self._block_accessed = set()
        self._block_dirty = set()
        return block

    def event_at(self, block_number: int, log_index: int) -> Event:
        for event in self.events:
            if event.block_number == block_number and event.log_index == log_index:
                return event
        raise KeyError(f"no event at ({block_number}, {log_index})")

    def events_in_block(self, block_number: int) -> list[Event]:
        return [e for e in self.events if e.block_number == block_number]

    # -- state dump -------------------------------------------------------------

    def dump_state(self) -> str:
        """JSON snapshot of all chain data; handler calls are not serialized
        (they have already executed), so contracts re-register on restore."""
        return json.dumps(
            {
                "basefee": self.basefee,
                "block_time": self.block_time,
                "balances": {str(k): v for k, v in sorted(self.balances.items())},
                "storage": {
                    str(a): {str(s): v for s, v in sorted(slots.items())}
                    for a, slots in sorted(self.storage.items())
                },
                "blocks": [
                    {
                        "number": b.number,
                        "timestamp": b.timestamp,
                        "basefee": b.basefee,
                        "gas_used": b.gas_used,
                        "txs": [
                            {
                                "sender": tx.sender,
                                "to": tx.to,
                                "calldata": tx.calldata.hex(),
                                "value": tx.value,
                            }
                            for tx in b.txs
                        ],
                    }
                    for b in self.blocks
                ],
                "events": [
                    {
                        "address": e.address,
                        "name": e.name,
                        "payload": e.payload.hex(),
                        "block": e.block_number,
                        "log_index": e.log_index,
                    }
                    for e in self.events
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def restore_state(cls, payload: str) -> "Chain":
        """Rebuild a chain from a dump; block hashes recompute identically."""
        obj = json.loads(payload)
        chain = cls(basefee=obj["basefee"], block_time=obj["block_time"])
        chain.balances = {int(k): v for k, v in obj["balances"].items()}
        chain.storage = {
            int(a): {int(s): v for s, v in slots.items()}
            for a, slots in obj["storage"].items()
        }
        parent = ZERO_HASH
        for record in obj["blocks"]:
            block = L1Block(
                number=record["number"],
                timestamp=record["timestamp"],
                basefee=record["basefee"],
                parent_hash=parent,
                txs=tuple(
                    Tx(
                        sender=t["sender"],
                        to=t["to"],
                        calldata=bytes.fromhex(t["calldata"]),
                        value=t["value"],
                    )
                    for t in record["txs"]
                ),
                gas_used=record["gas_used"],
            )
            chain.blocks.append(block)
            parent = block.hash
        chain.events = [
            Event(
                address=e["address"],
                name=e["name"],
                payload=bytes.fromhex(e["payload"]),
                block_number=e["block"],
                log_index=e["log_index"],
            )
            for e in obj["events"]
        ]
        return chain
