import hashlib
import math
import random

import pytest

from rollsim.hashing import keccak256
from rollsim.merkle import (
    EmptyTree,
    IndexOutOfRange,
    MerkleProof,
    MerkleTree,
    build_root,
    fold_proof,
    hash_leaf,
    hash_node,
    verify_inclusion,
)


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class TestBuildRoot:
    def test_four_leaves_structure(self):
        # root = H(H(H(B1)||H(B2)) || H(H(B3)||H(B4))), with domain prefixes
        leaves = [b"B1", b"B2", b"B3", b"B4"]
        h = [hash_leaf(leaf) for leaf in leaves]
        expected = hash_node(hash_node(h[0], h[1]), hash_node(h[2], h[3]))
        assert build_root(leaves) == expected

    def test_single_leaf(self):
        assert build_root([b"only"]) == hash_leaf(b"only")

    def test_three_leaves_duplicate_last(self):
        assert build_root([b"a", b"b", b"c"]) == build_root([b"a", b"b", b"c", b"c"])

    def test_empty_raises(self):
        with pytest.raises(EmptyTree):
            build_root([])

    def test_permutation_sensitive(self):
        assert build_root([b"a", b"b"]) != build_root([b"b", b"a"])

    def test_keccak_is_default(self):
        leaves = [b"x", b"y"]
        expected = keccak256(b"\x01" + keccak256(b"\x00x") + keccak256(b"\x00y"))
        assert build_root(leaves) == expected


class TestProofs:
    def test_four_leaf_proof_shape(self):
        tree = MerkleTree([b"B1", b"B2", b"B3", b"B4"])
        proof = tree.prove(1)
        assert len(proof.siblings) == 2
        # first sibling is h1 (left of index 1), second is h_{3,4} (right)
        assert proof.siblings[0] == (hash_leaf(b"B1"), "left")
        assert proof.siblings[1][1] == "right"

    def test_single_leaf_empty_proof(self):
        tree = MerkleTree([b"solo"])
        assert tree.prove(0).siblings == ()
        assert verify_inclusion(tree.root, b"solo", tree.prove(0))

    def test_eight_leaf_proof_length(self):
        tree = MerkleTree([bytes([i]) for i in range(8)], hash_fn=sha)
        for i in range(8):
            assert len(tree.prove(i).siblings) == 3

    def test_out_of_range(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IndexOutOfRange):
            tree.prove(2)

    def test_proof_length_is_ceil_log2(self):
        # sha256 here: the length property is hash-agnostic and this sweeps
        # every width from 2 to 1024
        rng = random.Random(0)
        for n in range(2, 1025):
            tree = MerkleTree([b"%d" % i for i in range(n)], hash_fn=sha)
            idx = rng.randrange(n)
            assert len(tree.prove(idx).siblings) == math.ceil(math.log2(n)), n


class TestUpdate:
    def test_update_matches_rebuild(self):
        leaves = [bytes([i]) for i in range(8)]
        for i in range(8):
            tree = MerkleTree(leaves, hash_fn=sha)
            tree.update(i, b"new")
            rebuilt = MerkleTree(leaves[:i] + [b"new"] + leaves[i + 1:], hash_fn=sha)
            assert tree.levels == rebuilt.levels, i

    def test_update_rejects_padded_width(self):
        with pytest.raises(ValueError, match="power-of-two"):
            MerkleTree([b"a", b"b", b"c"]).update(0, b"x")

    def test_update_out_of_range(self):
        tree = MerkleTree([b"a", b"b"])
        for index in (2, -1):
            with pytest.raises(IndexOutOfRange):
                tree.update(index, b"x")


class TestVerification:
    def test_round_trip_many_shapes(self):
        rng = random.Random(42)
        for n in (1, 2, 3, 5, 8, 13, 64):
            leaves = [rng.randbytes(rng.randrange(1, 40)) for _ in range(n)]
            tree = MerkleTree(leaves, hash_fn=sha)
            for i in range(n):
                proof = tree.prove(i)
                assert verify_inclusion(tree.root, leaves[i], proof, hash_fn=sha)

    def test_wrong_leaf_rejected(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        proof = tree.prove(0)
        assert not verify_inclusion(tree.root, b"b", proof)

    def test_single_bit_mutations_rejected(self):
        rng = random.Random(99)
        leaves = [rng.randbytes(32) for _ in range(16)]
        tree = MerkleTree(leaves, hash_fn=sha)
        rejected = 0
        trials = 1000
        for _ in range(trials):
            idx = rng.randrange(16)
            proof = tree.prove(idx)
            leaf = leaves[idx]
            root = tree.root
            target = rng.randrange(3)
            if target == 0:  # flip a bit in the leaf
                pos = rng.randrange(len(leaf) * 8)
                leaf = bytes(
                    b ^ (0x80 >> (pos % 8)) if i == pos // 8 else b
                    for i, b in enumerate(leaf)
                )
            elif target == 1:  # flip a bit in the root
                pos = rng.randrange(256)
                root = bytes(
                    b ^ (0x80 >> (pos % 8)) if i == pos // 8 else b
                    for i, b in enumerate(root)
                )
            else:  # flip a bit in one sibling
                level = rng.randrange(len(proof.siblings))
                sib, side = proof.siblings[level]
                pos = rng.randrange(256)
                sib = bytes(
                    b ^ (0x80 >> (pos % 8)) if i == pos // 8 else b
                    for i, b in enumerate(sib)
                )
                siblings = list(proof.siblings)
                siblings[level] = (sib, side)
                proof = MerkleProof(leaf_index=proof.leaf_index, siblings=tuple(siblings))
            if not verify_inclusion(root, leaf, proof, hash_fn=sha):
                rejected += 1
        assert rejected == trials

    def test_fold_proof_updates_leaf(self):
        # power-of-two width so sibling paths never alias the updated leaf
        leaves = [bytes([i]) * 8 for i in range(8)]
        tree = MerkleTree(leaves, hash_fn=sha)
        proof = tree.prove(5)
        updated = leaves.copy()
        updated[5] = b"new-data"
        assert fold_proof(b"new-data", proof, hash_fn=sha) == MerkleTree(updated, hash_fn=sha).root


class TestSerialization:
    def test_json_round_trip(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        proof = tree.prove(2)
        restored = MerkleProof.from_json(proof.to_json())
        assert restored == proof
        assert verify_inclusion(tree.root, b"c", restored)
