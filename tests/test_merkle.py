import hashlib
import math
import random

import pytest

from rollsim import hashing
from rollsim.hashing import DigestMemo, keccak256
from rollsim.merkle import (
    EmptyTree,
    IndexOutOfRange,
    MerkleProof,
    MerkleTree,
    fold_proof,
    hash_leaf,
    hash_node,
    verify_inclusion,
)
from rollsim.oprollup.dispute import MemoryTree
from test_hashing import _pending


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class TestBuildRoot:
    def test_four_leaves_structure(self):
        # root = H(H(H(B1)||H(B2)) || H(H(B3)||H(B4))), with domain prefixes
        leaves = [b"B1", b"B2", b"B3", b"B4"]
        h = [hash_leaf(leaf) for leaf in leaves]
        expected = hash_node(hash_node(h[0], h[1]), hash_node(h[2], h[3]))
        assert MerkleTree(leaves).root == expected

    def test_single_leaf(self):
        assert MerkleTree([b"only"]).root == hash_leaf(b"only")

    def test_three_leaves_differ_from_duplicated_last(self):
        # zero padding: [a, b, c] is not [a, b, c, c] (the CVE-2012-2459 shape)
        three = MerkleTree([b"a", b"b", b"c"])
        four = MerkleTree([b"a", b"b", b"c", b"c"])
        assert three.root != four.root
        assert verify_inclusion(four.root, b"c", four.prove(3))
        assert not verify_inclusion(three.root, b"c", four.prove(3))

    def test_empty_raises(self):
        with pytest.raises(EmptyTree):
            MerkleTree([])

    def test_permutation_sensitive(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_keccak_is_default(self):
        leaves = [b"x", b"y"]
        expected = keccak256(b"\x01" + keccak256(b"\x00x") + keccak256(b"\x00y"))
        assert MerkleTree(leaves).root == expected


class TestProofs:
    def test_four_leaf_proof_shape(self):
        tree = MerkleTree([b"B1", b"B2", b"B3", b"B4"])
        proof = tree.prove(1)
        # h1, left of index 1 (bit 0 set), then h_{3,4}, right (bit 1 clear)
        assert proof.siblings == (hash_leaf(b"B1"), hash_node(hash_leaf(b"B3"), hash_leaf(b"B4")))

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
            tree.update({i: b"new"})
            rebuilt = MerkleTree(leaves[:i] + [b"new"] + leaves[i + 1:], hash_fn=sha)
            assert tree.levels == rebuilt.levels, i

    def test_batched_update_matches_rebuild(self):
        # random subsets, so shared parents are rehashed once from both sides
        rng = random.Random(7)
        for width in (8, 64):
            leaves = [bytes([i]) * 4 for i in range(width)]
            for _ in range(40):
                tree = MerkleTree(leaves, hash_fn=sha)
                subset = rng.sample(range(width), rng.randrange(width + 1))
                changes = {i: rng.randbytes(5) for i in subset}
                tree.update(changes)
                updated = [changes.get(i, leaf) for i, leaf in enumerate(leaves)]
                assert tree.levels == MerkleTree(updated, hash_fn=sha).levels, (width, changes)

    def test_batched_update_hashes_each_dirty_node_once(self):
        calls = []
        counted = lambda blob: calls.append(blob) or sha(blob)
        tree = MerkleTree([bytes([i]) for i in range(8)], hash_fn=counted)
        calls.clear()
        tree.update({0: b"x", 1: b"y", 6: b"z"})
        # 3 leaves, then parents {0, 3}, {0, 1} and the root
        assert len(calls) == 3 + 2 + 2 + 1

    def test_update_matches_rebuild_at_padded_widths(self):
        for width in (3, 5, 7):
            leaves = [bytes([i]) for i in range(width)]
            for i in range(width):
                tree = MerkleTree(leaves, hash_fn=sha)
                tree.update({i: b"new"})
                rebuilt = MerkleTree(leaves[:i] + [b"new"] + leaves[i + 1:], hash_fn=sha)
                assert tree.levels == rebuilt.levels, (width, i)

    def test_moving_back_rehashes_nothing(self):
        calls = []
        counted = lambda blob: calls.append(blob) or sha(blob)
        leaves = [bytes([i]) for i in range(8)]
        tree = MerkleTree(leaves, hash_fn=counted)
        built = [list(level) for level in tree.levels]
        tree.update({5: b"x"})
        calls.clear()
        tree.update({5: leaves[5]})
        assert calls == []
        assert tree.levels == built

    def test_memo_lives_in_one_tree(self):
        calls = []
        counted = lambda blob: calls.append(blob) or sha(blob)
        leaves = [bytes([i]) for i in range(8)]
        MerkleTree(leaves, hash_fn=counted)
        first = len(calls)
        MerkleTree(leaves, hash_fn=counted)
        assert len(calls) == 2 * first

    def test_update_out_of_range(self):
        tree = MerkleTree([b"a", b"b"])
        for index in (2, -1):
            with pytest.raises(IndexOutOfRange):
                tree.update({index: b"x"})


class TestBuildDeduplication:
    def test_each_distinct_blob_hashed_once(self):
        calls = []
        counted = lambda blob: calls.append(blob) or sha(blob)
        tree = MerkleTree([b"a", b"a", b"b", b"a"], hash_fn=counted)
        a, b = hash_leaf(b"a", sha), hash_leaf(b"b", sha)
        assert tree.root == hash_node(hash_node(a, a, sha), hash_node(b, a, sha), sha)
        assert len(calls) == len(set(calls)) == 5

    def test_zero_padding_hashed_once_per_level(self):
        calls = []
        counted = lambda blob: calls.append(blob) or sha(blob)
        MerkleTree([bytes([i]) for i in range(9)], hash_fn=counted)
        # 16 slots: 9 leaves; then 4 + 1 mixed and 1 all-zero node, 2 + 1 + 1,
        # 1 + 1, and the root
        assert len(calls) == len(set(calls)) == 9 + 6 + 4 + 2 + 1

    def test_memory_tree_prefetches_each_level_once(self, monkeypatch):
        # 32-byte memory leaves a, b, a, b, c, c, d, d: distinct leaves a, b,
        # c, d; then nodes ab, ab, cc, dd (three distinct); then abab and
        # ccdd; then the root, alone and so scalar
        words = [word for leaf in (1, 2, 1, 2, 3, 3, 4, 4) for word in (leaf, 0, 0, 0)]
        leaves = [b"".join(word.to_bytes(8, "big") for word in words[i:i + 4])
                  for i in range(0, len(words), 4)]
        # a plain tree hashes one blob at a time, even inside a run
        with hashing.counting() as alone, hashing.run_memo():
            expected = MerkleTree(leaves).root
            assert _pending() == 0
        assert (alone.perms, alone.packed) == (4 + 3 + 2 + 1, 0)

        # the memory tree prefetches each level, and the run keeps the
        # digests of the blobs it has not seen, none for a level it has
        # seen whole; each is read before the next level is listed
        real, added = hashing.prefetch, []

        def watched(blobs):
            before = _pending()
            real(blobs)
            added.append(_pending() - before)

        monkeypatch.setattr(hashing, "prefetch", watched)
        with hashing.run_memo():
            with hashing.counting() as batched:
                tree = MemoryTree(words)
            assert tree.root == expected
            assert added == [4, 3, 2, 1]
            assert (batched.perms, batched.packed) == (4 + 3 + 2 + 1, 4 + 3 + 2)
            added.clear()
            with hashing.counting() as moved:
                tree.update({0: 2})  # leaf 0 becomes b, a leaf blob the memo holds
            assert added == [0, 1, 1, 1]
            assert (moved.perms, moved.packed, _pending()) == (3, 0, 0)


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
                pos = rng.randrange(256)
                sib = bytes(
                    b ^ (0x80 >> (pos % 8)) if i == pos // 8 else b
                    for i, b in enumerate(proof.siblings[level])
                )
                siblings = list(proof.siblings)
                siblings[level] = sib
                proof = MerkleProof(leaf_index=proof.leaf_index, siblings=tuple(siblings))
            if not verify_inclusion(root, leaf, proof, hash_fn=sha):
                rejected += 1
        assert rejected == trials

    def test_relabelled_proof_rejected(self):
        # cell 5's path claimed for index 0: the index places its siblings wrongly
        leaves = [bytes([i]) * 8 for i in range(8)]
        tree = MerkleTree(leaves)
        siblings = tree.prove(5).siblings
        assert verify_inclusion(tree.root, leaves[5], MerkleProof(5, siblings))
        for index in (0, 4, 7):
            assert not verify_inclusion(tree.root, leaves[5], MerkleProof(index, siblings))

    def test_index_beyond_path_rejected(self):
        leaves = [bytes([i]) * 8 for i in range(8)]
        tree = MerkleTree(leaves)
        siblings = tree.prove(5).siblings
        for index in (5 + 8, 5 + 64, -3):
            assert not verify_inclusion(tree.root, leaves[5], MerkleProof(index, siblings))

    @pytest.mark.parametrize(
        "siblings",
        [None, (7,), ("00" * 32,), (b"\x00" * 32, 7), "list"],
        ids=["none", "int", "str", "int-after-bytes", "list"],
    )
    def test_siblings_not_a_tuple_of_bytes_rejected(self, siblings):
        leaves = [bytes([i]) * 8 for i in range(4)]
        tree = MerkleTree(leaves)
        if siblings == "list":  # the right hashes, but not as a tuple
            siblings = list(tree.prove(0).siblings)
        assert not verify_inclusion(tree.root, leaves[0], MerkleProof(0, siblings))

    def test_memo_gives_the_verdicts_of_a_fresh_hash(self):
        def flip(blob, pos):
            return blob[:pos] + bytes([blob[pos] ^ 1]) + blob[pos + 1:]

        rng = random.Random(10)
        for n in (1, 3, 8):
            leaves = [rng.randbytes(32) for _ in range(n)]
            tree = MerkleTree(leaves)
            memo = DigestMemo()
            for i in range(n):  # warm the memo with every valid proof
                assert verify_inclusion(tree.root, leaves[i], tree.prove(i), memo)
            for i in range(n):
                proof = tree.prove(i)
                siblings = list(proof.siblings)
                cases = [(tree.root, leaves[i], proof)]
                for level, h in enumerate(siblings):
                    mutated = siblings[:level] + [flip(h, rng.randrange(32))] + siblings[level + 1:]
                    cases.append((tree.root, leaves[i], MerkleProof(i, tuple(mutated))))
                for j in range(1 << len(siblings)):
                    if j != i:
                        cases.append((tree.root, leaves[i], MerkleProof(j, proof.siblings)))
                cases.append((tree.root, leaves[(i + 1) % n] + b"x", proof))
                cases.append((flip(tree.root, rng.randrange(32)), leaves[i], proof))
                verdicts = [verify_inclusion(*case, memo) for case in cases]
                assert verdicts == [verify_inclusion(*case, keccak256) for case in cases]
                assert verdicts == [True] + [False] * (len(cases) - 1), (n, i)

    def test_every_honest_proof_binds_its_index(self):
        for n in (1, 2, 3, 5, 8, 13):
            leaves = [bytes([i]) for i in range(n)]
            tree = MerkleTree(leaves, hash_fn=sha)
            for i in range(n):
                proof = tree.prove(i)
                assert verify_inclusion(tree.root, leaves[i], proof, hash_fn=sha)
                for j in set(range(n)) - {i}:
                    relabelled = MerkleProof(j, proof.siblings)
                    assert not verify_inclusion(tree.root, leaves[i], relabelled, hash_fn=sha)

    def test_fold_proof_updates_leaf(self):
        # power-of-two width so sibling paths never alias the updated leaf
        leaves = [bytes([i]) * 8 for i in range(8)]
        tree = MerkleTree(leaves, hash_fn=sha)
        proof = tree.prove(5)
        updated = leaves.copy()
        updated[5] = b"new-data"
        assert fold_proof(b"new-data", proof, hash_fn=sha) == MerkleTree(updated, hash_fn=sha).root
