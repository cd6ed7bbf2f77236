"""Optimistic-rollup L2 state: accounts, the withdrawal ledger, output roots.

L2 execution here is deliberately small (balance transfers, withdrawal
initiation, attribute registration); what matters to the protocol is that the
state and the sent-withdrawals set commit to roots that L1 contracts can
check proofs against. The state root hashes the RLP of the withdrawal nonce
and every account as [address (20 bytes), nonce, balance], sorted by address;
the sent withdrawals commit to a Merkle root.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .. import rlp
from ..hashing import keccak256, memoized_digest
from ..l1sim import L1Attributes
from ..merkle import MerkleProof, MerkleTree
from .deposits import DepositedTx, L1_ATTRIBUTES_PREDEPLOY

OUTPUT_ROOT_VERSION = b"\x00" * 32
ZERO32 = b"\x00" * 32


class InsufficientFunds(ValueError):
    """Sender balance cannot cover the requested value."""


@dataclass(frozen=True)
class WithdrawalTx:
    """An L2-to-L1 withdrawal; ``hash`` is its identity in the withdrawal tree."""

    nonce: int
    sender: int
    target: int
    value: int
    gas_limit: int
    data: bytes

    @memoized_digest
    def hash(self) -> bytes:
        return keccak256(
            self.nonce.to_bytes(32, "big")
            + self.sender.to_bytes(20, "big")
            + self.target.to_bytes(20, "big")
            + self.value.to_bytes(32, "big")
            + self.gas_limit.to_bytes(32, "big")
            + self.data
        )


@dataclass(frozen=True)
class OutputRootProof:
    """The four preimage fields of an output root."""

    version: bytes
    state_root: bytes
    withdrawal_root: bytes
    l2_block_hash: bytes

    @memoized_digest
    def output_root(self) -> bytes:
        return keccak256(
            self.version + self.state_root + self.withdrawal_root + self.l2_block_hash
        )


@dataclass
class OpL2State:
    """L2 accounts plus the ledger of sent withdrawals.

    ``sent_withdrawals`` is append-only: entries are only ever added at the
    end (by ``initiate_withdrawal``), never removed, reordered or replaced.
    The withdrawal tree is therefore cached against the ledger's length and
    rebuilt only after a withdrawal has been appended.
    """

    balances: dict[int, int] = dataclass_field(default_factory=dict)
    nonces: dict[int, int] = dataclass_field(default_factory=dict)
    withdrawal_nonce: int = 0
    sent_withdrawals: list[WithdrawalTx] = dataclass_field(default_factory=list)
    latest_attributes: L1Attributes | None = None
    # (ledger length, tree over the ledger or None while it is empty,
    # withdrawal hash -> first index)
    _withdrawal_tree: tuple[int, MerkleTree | None, dict[bytes, int]] | None = (
        dataclass_field(default=None, init=False, repr=False, compare=False)
    )

    def balance(self, address: int) -> int:
        return self.balances.get(address, 0)

    def credit(self, address: int, amount: int) -> None:
        self.balances[address] = self.balances.get(address, 0) + amount

    def state_root(self) -> bytes:
        accounts = [
            [address.to_bytes(20, "big"), self.nonces.get(address, 0), self.balance(address)]
            for address in sorted(self.balances.keys() | self.nonces.keys())
        ]
        return keccak256(rlp.encode([self.withdrawal_nonce, accounts]))

    def _withdrawal_tree_entry(self) -> tuple[int, MerkleTree | None, dict[bytes, int]]:
        count = len(self.sent_withdrawals)
        if self._withdrawal_tree is None or self._withdrawal_tree[0] != count:
            hashes = [w.hash for w in self.sent_withdrawals]
            index: dict[bytes, int] = {}
            for i, h in enumerate(hashes):
                index.setdefault(h, i)
            self._withdrawal_tree = (count, MerkleTree(hashes) if hashes else None, index)
        return self._withdrawal_tree

    def withdrawal_root(self) -> bytes:
        tree = self._withdrawal_tree_entry()[1]
        return tree.root if tree is not None else ZERO32

    def withdrawal_proof(self, withdrawal_hash: bytes) -> MerkleProof:
        _, tree, index = self._withdrawal_tree_entry()
        if withdrawal_hash not in index:
            raise ValueError(f"withdrawal {withdrawal_hash.hex()} was never sent")
        return tree.prove(index[withdrawal_hash])


def apply_deposit(state: OpL2State, deposit: DepositedTx) -> OpL2State:
    """Execute a deposited transaction: mint, transfer, bump the nonce.

    A failing inner transfer does not undo the mint or the nonce bump; the
    deposit itself always lands.
    """
    state.credit(deposit.from_address, deposit.mint)
    state.nonces[deposit.from_address] = state.nonces.get(deposit.from_address, 0) + 1
    if deposit.to_address == L1_ATTRIBUTES_PREDEPLOY:
        attrs = _decode_attributes(deposit.data)
        if attrs is not None:
            state.latest_attributes = attrs
        return state
    if deposit.value:
        if state.balance(deposit.from_address) >= deposit.value:
            state.balances[deposit.from_address] -= deposit.value
            state.credit(deposit.to_address, deposit.value)
        # else: inner call failed; deposit still consumed
    return state


def initiate_withdrawal(
    state: OpL2State,
    sender: int,
    target: int,
    gas_limit: int,
    value: int,
    data: bytes,
) -> WithdrawalTx:
    """Queue an L2-to-L1 message; returns the ``WithdrawalTx`` it queued."""
    if state.balance(sender) < value:
        raise InsufficientFunds(f"{sender:#x} holds {state.balance(sender)} < {value}")
    tx = WithdrawalTx(
        nonce=state.withdrawal_nonce,
        sender=sender,
        target=target,
        value=value,
        gas_limit=gas_limit,
        data=bytes(data),
    )
    state.balances[sender] = state.balance(sender) - value
    state.sent_withdrawals.append(tx)
    state.withdrawal_nonce += 1
    return tx


def output_root_proof(state: OpL2State, l2_block_hash: bytes) -> OutputRootProof:
    return OutputRootProof(
        version=OUTPUT_ROOT_VERSION,
        state_root=state.state_root(),
        withdrawal_root=state.withdrawal_root(),
        l2_block_hash=l2_block_hash,
    )


# attribute registration payloads (the L1-attributes deposited transaction)

def encode_attributes(attrs: L1Attributes) -> bytes:
    return rlp.encode(
        [attrs.number, attrs.timestamp, attrs.basefee, attrs.hash, attrs.sequence_number]
    )


def _decode_attributes(data: bytes) -> L1Attributes | None:
    try:
        fields = rlp.decode_fields(data, 5)
        return L1Attributes(
            number=rlp.decode_int(fields[0]),
            timestamp=rlp.decode_int(fields[1]),
            basefee=rlp.decode_int(fields[2]),
            hash=fields[3],
            sequence_number=rlp.decode_int(fields[4]),
        )
    except ValueError:
        return None
