"""Binary Merkle trees with inclusion proofs.

Leaf and internal hashes are domain-separated (0x00 / 0x01 prefix) so a
64-byte leaf cannot be replayed as an internal node. The leaf level is padded
to the next power of two with zero nodes (32 zero bytes, the hash of no leaf),
so no two leaf lists share a root and one rehash rule serves every width. A
proof is its leaf index and its sibling hashes: bit k of the index places the
level-k sibling (1: on the left), and an index must fit in the path length, so
a proof of one leaf cannot be relabelled as a proof of another.

A tree hashes through a ``hashing.DigestMemo``, and a verifier that checks
many proofs passes one as ``hash_fn``. Inside a run (``hashing.run_memo``)
they share the run's digests, so folding a proof of a tree built in the same
run hashes nothing; outside one, a verifier's own memo still hashes the upper
nodes its proofs share once. The memo is keyed by the whole preimage: every
proof is still folded and compared with the root, and a tampered leaf,
sibling or index makes a new blob, hashed afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .hashing import DigestMemo, HashFn, keccak256

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
ZERO_NODE = bytes(32)


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
    """Sibling hashes from a leaf to the root; bit k of ``leaf_index`` is 1
    exactly when the level-k sibling sits on the left."""

    leaf_index: int
    siblings: tuple[bytes, ...]


class MerkleTree:
    """A tree over raw leaf blobs.

    The tree keeps a ``DigestMemo`` for as long as it lives: building and
    ``update`` hash every leaf and node blob through it, so each distinct
    blob is hashed once per tree. A tree of 2^k equal leaves costs k + 1
    hashes (an all-zero dispute memory of 64 words, 16 leaves, costs 5), and
    a cursor tree that moves back to contents it held before rehashes
    nothing. Outside a ``hashing.run_memo()`` block the memo belongs to this
    tree only, and a new tree starts with an empty one; inside one it is the
    run's, shared with every tree and verifier of the run.

    Each blob is hashed alone, through ``_hash_level``; a subclass that
    batches a level (``dispute.MemoryTree``) overrides it.
    """

    def __init__(self, leaves: Sequence[bytes], hash_fn: HashFn = keccak256):
        if not leaves:
            raise EmptyTree("cannot build a Merkle tree from zero leaves")
        self._digest = DigestMemo(hash_fn)
        width = 1 << (len(leaves) - 1).bit_length()
        self.levels: list[list[bytes]] = [
            [ZERO_NODE] * (width >> k) for k in range(width.bit_length())
        ]
        self.leaf_count = len(leaves)
        self._rehash(dict(enumerate(leaves)), range(width))

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.leaf_count:
            raise IndexOutOfRange(f"leaf index {index} out of range 0..{self.leaf_count - 1}")

    def _rehash(self, leaves: Mapping[int, bytes], dirty: Iterable[int]) -> None:
        """Set each ``index: leaf``, then rehash each node above the ``dirty``
        leaf slots once, level by level up to the root."""
        self._hash_level(self.levels[0], {i: LEAF_PREFIX + leaf for i, leaf in leaves.items()})
        for below, above in zip(self.levels, self.levels[1:]):
            dirty = {index // 2 for index in dirty}
            self._hash_level(
                above, {i: NODE_PREFIX + below[2 * i] + below[2 * i + 1] for i in dirty}
            )

    def _hash_level(self, level: list[bytes], blobs: Mapping[int, bytes]) -> None:
        """Set ``level[index]`` to the digest of each ``index: blob``."""
        for index, blob in blobs.items():
            level[index] = self._digest(blob)

    def update(self, leaves: Mapping[int, bytes]) -> None:
        """Set each ``index: leaf`` of ``leaves``, then rehash each node above
        them once, level by level up to the root.
        """
        for index in leaves:
            self._check_index(index)
        self._rehash(leaves, leaves)

    def prove(self, index: int) -> MerkleProof:
        self._check_index(index)
        siblings = tuple(level[index >> k ^ 1] for k, level in enumerate(self.levels[:-1]))
        return MerkleProof(leaf_index=index, siblings=siblings)


def fold_proof(leaf: bytes, proof: MerkleProof, hash_fn: HashFn = keccak256) -> bytes:
    """Recompute the root implied by ``leaf`` and the proof's sibling path,
    placing the level-k sibling by bit k of the leaf index."""
    acc = hash_leaf(leaf, hash_fn)
    for k, sib in enumerate(proof.siblings):
        if proof.leaf_index >> k & 1:
            acc = hash_node(sib, acc, hash_fn)
        else:
            acc = hash_node(acc, sib, hash_fn)
    return acc


def verify_inclusion(
    root: bytes, leaf: bytes, proof: MerkleProof, hash_fn: HashFn = keccak256
) -> bool:
    """True iff ``siblings`` is a tuple of ``bytes``, ``leaf_index`` names a
    leaf of that path and folding ``leaf`` through it reproduces ``root``.

    The index places every sibling (bit k: level k), so an index with bits
    above the path length names no leaf and is rejected: each proof has
    exactly one label.
    """
    index, siblings = proof.leaf_index, proof.siblings
    if not (isinstance(siblings, tuple) and all(isinstance(sib, bytes) for sib in siblings)):
        return False
    if not isinstance(index, int) or not 0 <= index < 1 << len(siblings):
        return False
    return fold_proof(leaf, proof, hash_fn) == root
