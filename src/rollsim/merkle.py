"""Binary Merkle trees with inclusion proofs.

Leaf and internal hashes are domain-separated (0x00 / 0x01 prefix) so a
64-byte leaf cannot be replayed as an internal node. Odd level widths are
padded by duplicating the last node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

from .hashing import keccak256

HashFn = Callable[[bytes], bytes]

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


class EmptyTree(ValueError):
    """A Merkle tree needs at least one leaf."""


class IndexOutOfRange(IndexError):
    """Leaf index beyond the tree width."""


def hash_leaf(data: bytes, hash_fn: HashFn = keccak256) -> bytes:
    return hash_fn(LEAF_PREFIX + data)


def hash_node(left: bytes, right: bytes, hash_fn: HashFn = keccak256) -> bytes:
    return hash_fn(NODE_PREFIX + left + right)


@dataclass(frozen=True)
class MerkleProof:
    """Sibling path from a leaf to the root; sides name the sibling position."""

    leaf_index: int
    siblings: tuple[tuple[bytes, str], ...]  # (hash, "left" | "right")

    def to_json(self) -> str:
        return json.dumps(
            {
                "index": self.leaf_index,
                "siblings": [{"hash": h.hex(), "side": side} for h, side in self.siblings],
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "MerkleProof":
        obj = json.loads(payload)
        return cls(
            leaf_index=obj["index"],
            siblings=tuple((bytes.fromhex(s["hash"]), s["side"]) for s in obj["siblings"]),
        )


class MerkleTree:
    """A tree over raw leaf blobs."""

    def __init__(self, leaves: Sequence[bytes], hash_fn: HashFn = keccak256):
        if not leaves:
            raise EmptyTree("cannot build a Merkle tree from zero leaves")
        self._hash_fn = hash_fn
        level = [hash_leaf(leaf, hash_fn) for leaf in leaves]
        self.levels: list[list[bytes]] = [level]
        while len(level) > 1:
            if len(level) % 2:
                level = level + [level[-1]]
                self.levels[-1] = level
            level = [
                hash_node(level[i], level[i + 1], hash_fn) for i in range(0, len(level), 2)
            ]
            self.levels.append(level)
        self.leaf_count = len(leaves)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.leaf_count:
            raise IndexOutOfRange(f"leaf index {index} out of range 0..{self.leaf_count - 1}")

    def update(self, index: int, leaf: bytes) -> None:
        """Replace leaf ``index`` and rehash its path to the root.

        Only for power-of-two leaf counts: with duplication padding, an odd
        level's last node also sits in its padded copy, which would go stale.
        """
        if self.leaf_count & (self.leaf_count - 1):
            raise ValueError(f"update needs a power-of-two leaf count, not {self.leaf_count}")
        self._check_index(index)
        node = hash_leaf(leaf, self._hash_fn)
        for level in self.levels[:-1]:
            level[index] = node
            node = hash_node(level[index & ~1], level[index | 1], self._hash_fn)
            index //= 2
        self.levels[-1][0] = node

    def prove(self, index: int) -> MerkleProof:
        self._check_index(index)
        siblings = []
        pos = index
        for level in self.levels[:-1]:
            sib = pos ^ 1
            side = "left" if sib < pos else "right"
            siblings.append((level[sib], side))
            pos //= 2
        return MerkleProof(leaf_index=index, siblings=tuple(siblings))


def build_root(leaves: Sequence[bytes], hash_fn: HashFn = keccak256) -> bytes:
    """Root hash of ``leaves``; deterministic and order-sensitive."""
    return MerkleTree(leaves, hash_fn).root


def fold_proof(leaf: bytes, proof: MerkleProof, hash_fn: HashFn = keccak256) -> bytes:
    """Recompute the root implied by ``leaf`` and the proof's sibling path."""
    acc = hash_leaf(leaf, hash_fn)
    for sib, side in proof.siblings:
        if side == "left":
            acc = hash_node(sib, acc, hash_fn)
        else:
            acc = hash_node(acc, sib, hash_fn)
    return acc


def verify_inclusion(
    root: bytes, leaf: bytes, proof: MerkleProof, hash_fn: HashFn = keccak256
) -> bool:
    """True iff folding ``leaf`` through the proof reproduces ``root``."""
    return fold_proof(leaf, proof, hash_fn) == root
