import random

import pytest

from rollsim.validityrollup.statediff import (
    ContractStorageDiff,
    Deployment,
    MAINNET_DIFF_VECTOR,
    MalformedDiff,
    StateDiff,
    apply_state_diff,
    decode_state_diff,
    diff_calldata_bytes,
    encode_state_diff,
)


def random_diff(rng: random.Random) -> StateDiff:
    deployments = tuple(
        Deployment(
            contract_address=rng.randrange(2**251),
            contract_hash=rng.randrange(2**251),
            constructor_args=tuple(rng.randrange(2**256) for _ in range(rng.randrange(0, 4))),
        )
        for _ in range(rng.randrange(0, 3))
    )
    storage = tuple(
        ContractStorageDiff(
            contract_address=rng.randrange(2**251),
            updates=tuple(
                (key, rng.randrange(2**256))
                for key in rng.sample(range(2**32), rng.randrange(0, 6))
            ),
        )
        for _ in range(rng.randrange(0, 4))
    )
    return StateDiff(deployments=deployments, storage=storage)


class TestEncoding:
    def test_empty_diff(self):
        assert encode_state_diff(StateDiff(deployments=(), storage=())) == [0, 0]

    def test_mainnet_vector_structure(self):
        diff = decode_state_diff(MAINNET_DIFF_VECTOR)
        assert diff.deployments == ()
        assert len(diff.storage) == 1
        contract = diff.storage[0]
        assert len(contract.updates) == 10
        assert contract.updates[0] == (
            49437887447255105617199385887980129590299043410906399897274339686664380574960,
            81613196144862953930755284412013485753825942725888221915012079651792110103808,
        )
        small_values = [v for _, v in contract.updates if v <= 100]
        assert sorted(small_values) == [16, 17, 29, 49, 99]

    def test_mainnet_vector_reencodes_identically(self):
        diff = decode_state_diff(MAINNET_DIFF_VECTOR)
        assert encode_state_diff(diff) == MAINNET_DIFF_VECTOR
        assert (
            diff_calldata_bytes(encode_state_diff(diff))
            == diff_calldata_bytes(MAINNET_DIFF_VECTOR)
        )

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(100):
            diff = random_diff(rng)
            assert decode_state_diff(encode_state_diff(diff)) == diff

    def test_deployment_section(self):
        diff = StateDiff(
            deployments=(Deployment(0xAAA, 0xBBB, (1, 2)),),
            storage=(),
        )
        words = encode_state_diff(diff)
        assert words == [5, 0xAAA, 0xBBB, 2, 1, 2, 0]
        assert decode_state_diff(words) == diff

    def test_truncated_rejected(self):
        words = encode_state_diff(
            StateDiff(deployments=(), storage=(ContractStorageDiff(0xA, ((1, 2),)),))
        )
        with pytest.raises(MalformedDiff):
            decode_state_diff(words[:-1])

    def test_trailing_rejected(self):
        with pytest.raises(MalformedDiff):
            decode_state_diff([0, 0, 99])

    def test_duplicate_keys_rejected(self):
        diff = StateDiff(
            deployments=(),
            storage=(ContractStorageDiff(0xA, ((1, 2), (1, 3))),),
        )
        with pytest.raises(MalformedDiff):
            encode_state_diff(diff)

    @pytest.mark.parametrize(
        "words, index",
        [
            ([-1, 0], 0),  # decoded to the empty diff, whose encoding is [0, 0]
            ([0, 1, 5, -1], 3),  # a negative update count moved the cursor back
            ([0, 1, 5, 1, 7, 2**256], 5),
        ],
    )
    def test_word_outside_256_bits_rejected_before_parsing(self, words, index):
        with pytest.raises(MalformedDiff, match=rf"^word {index} \(-?\d+\) outside 256-bit range"):
            decode_state_diff(words)

    def test_largest_word_decodes(self):
        top = 2**256 - 1
        diff = decode_state_diff([0, 1, top, 1, top, top])
        assert diff.storage == (ContractStorageDiff(top, ((top, top),)),)

    def test_oversized_word_rejected(self):
        diff = StateDiff(
            deployments=(),
            storage=(ContractStorageDiff(0xA, ((1, 2**256),)),),
        )
        with pytest.raises(MalformedDiff):
            encode_state_diff(diff)

    def test_encode_names_the_index_of_an_oversized_word(self):
        # words [0, 1, 0xA, 1, 1, 2**256]: the value is word 5
        diff = StateDiff(
            deployments=(),
            storage=(ContractStorageDiff(0xA, ((1, 2**256),)),),
        )
        with pytest.raises(MalformedDiff, match=r"^word 5 \(\d+\) outside 256-bit range"):
            encode_state_diff(diff)

    def test_decode_refuses_duplicate_keys(self):
        with pytest.raises(MalformedDiff, match="^duplicate storage keys for contract 10$"):
            decode_state_diff([0, 1, 0xA, 2, 1, 2, 1, 3])


class TestDerivation:
    def test_sequential_replay_reconstructs_state(self):
        rng = random.Random(23)
        replayed: dict[int, dict[int, int]] = {}
        direct: dict[int, dict[int, int]] = {}
        for _ in range(20):
            diff = random_diff(rng)
            apply_state_diff(direct, diff)
            # round trip through the published words, as a derivation node would
            words = encode_state_diff(diff)
            apply_state_diff(replayed, decode_state_diff(words))
        assert replayed == direct

    def test_last_write_wins_across_diffs(self):
        state: dict[int, dict[int, int]] = {}
        apply_state_diff(
            state,
            StateDiff(deployments=(), storage=(ContractStorageDiff(0xA, ((5, 1),)),)),
        )
        apply_state_diff(
            state,
            StateDiff(deployments=(), storage=(ContractStorageDiff(0xA, ((5, 9),)),)),
        )
        assert state[0xA][5] == 9
