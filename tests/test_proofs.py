import random

import pytest

from rollsim.algebra import DEFAULT_PRIME, Field
from rollsim.proofs import (
    CannotExtract,
    DEFAULT_SCHNORR_GROUP,
    ErrorEstimate,
    FieldTooSmall,
    MalformedTranscript,
    NoTrials,
    SMALL_SCHNORR_GROUP,
    ShapeMismatch,
    Transcript,
    estimate_errors,
    fiat_shamir_challenge,
    fingerprint,
    fingerprint_equal_protocol,
    freivalds_verify,
    schnorr_extract,
    schnorr_keygen,
    schnorr_round,
    schnorr_simulate,
    schnorr_verify,
)

F = Field(DEFAULT_PRIME)
F131 = Field(131)


class ScriptedRng:
    """Returns scripted values for randrange, then falls back to a real RNG."""

    def __init__(self, values, seed=0):
        self.values = list(values)
        self.fallback = random.Random(seed)

    def randrange(self, *args):
        if self.values:
            return self.values.pop(0)
        return self.fallback.randrange(*args)


def matmul(a, b, p):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


class TestFreivalds:
    A = [[1, 2], [3, 4]]
    B = [[5, 6], [7, 8]]

    def test_true_product_accepted(self):
        c = matmul(self.A, self.B, F.prime)
        assert c == [[19, 22], [43, 50]]
        assert freivalds_verify(self.A, self.B, c, 10, random.Random(0), F)

    def test_corrupted_entry_rejected_with_pinned_r(self):
        c = [[20, 22], [43, 50]]
        # r = (1, 1): A(Br) = (41, 93) vs Cr = (42, 93)
        assert not freivalds_verify(self.A, self.B, c, 1, ScriptedRng([1, 1]), F)

    def test_one_by_one_zero(self):
        assert freivalds_verify([[0]], [[0]], [[0]], 5, random.Random(1), F)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            freivalds_verify([[1]], [[1, 2]], [[1]], 1, random.Random(0), F)

    def test_planted_errors_all_caught(self):
        rng = random.Random(2024)
        n = 6
        for _ in range(200):
            a = [[rng.randrange(F.prime) for _ in range(n)] for _ in range(n)]
            b = [[rng.randrange(F.prime) for _ in range(n)] for _ in range(n)]
            c = matmul(a, b, F.prime)
            i, j = rng.randrange(n), rng.randrange(n)
            c[i][j] = (c[i][j] + rng.randrange(1, F.prime)) % F.prime
            assert not freivalds_verify(a, b, c, 10, rng, F)

    def test_per_repetition_false_accept_rate_over_10k_trials(self):
        # single repetition, planted single-entry error: with |F| >= 2^61 the
        # per-repetition false-accept rate is bounded ~1/|F| and observed 0
        rng = random.Random(2025)
        n = 3
        base_a = [[rng.randrange(F.prime) for _ in range(n)] for _ in range(n)]
        base_b = [[rng.randrange(F.prime) for _ in range(n)] for _ in range(n)]
        true_c = matmul(base_a, base_b, F.prime)
        false_accepts = 0
        for _ in range(10_000):
            c = [row[:] for row in true_c]
            c[rng.randrange(n)][rng.randrange(n)] += rng.randrange(1, F.prime)
            c = [[x % F.prime for x in row] for row in c]
            if freivalds_verify(base_a, base_b, c, 1, rng, F):
                false_accepts += 1
        assert false_accepts == 0


class TestFingerprint:
    def test_ab_vector(self):
        # (97, 98) at r=2 over F_131: 97 + 196 = 293 = 31 mod 131
        assert fingerprint(b"ab", F131(2)) == F131(31)

    def test_empty_message(self):
        assert fingerprint(b"", F131(5)) == F131(0)

    def test_r_zero_keeps_first_symbol(self):
        assert fingerprint(b"hello", F131(0)) == F131(ord("h"))

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmall):
            fingerprint(b"x" * 50, F131(2))  # n^2 = 2500 > 131
        with pytest.raises(FieldTooSmall):
            fingerprint(bytes([200]), F131(2))  # symbol outside ASCII alphabet

    def test_equal_strings_always_equal(self):
        rng = random.Random(1)
        msg = b"equal strings fingerprint the same"
        for _ in range(50):
            outcome = fingerprint_equal_protocol(msg, msg, rng, F)
            assert outcome.accepted

    def test_cost_is_two_field_elements(self):
        outcome = fingerprint_equal_protocol(b"abc", b"abd", random.Random(0), F)
        alice_messages = [m for role, m in outcome.transcript.entries if role == "alice"]
        assert len(alice_messages) == 2
        assert all(len(m) == 32 for m in alice_messages)

    def test_false_equal_rate_bounded(self):
        # small prime to make collisions observable; bound 2(n-1)/p
        small = Field(1009)
        a = b"differs here: x"
        b_ = b"differs here: y"
        n = len(a)
        rng = random.Random(7)
        trials = 20000
        false_equal = sum(
            1 for _ in range(trials) if fingerprint_equal_protocol(a, b_, rng, small).accepted
        )
        assert false_equal / trials <= 2 * (n - 1) / small.prime


class TestSchnorr:
    def test_hand_checkable_vector(self):
        group = SMALL_SCHNORR_GROUP
        # a=7 -> PK = 2^7 mod 23 = 13; k=3 -> h=8; c=4 -> s = 7*4+3 mod 11 = 9
        from rollsim.proofs import SchnorrKeyPair

        keys = SchnorrKeyPair(group=group, secret=7, public=pow(2, 7, 23))
        assert keys.public == 13
        t = schnorr_round(keys, random.Random(0), nonce=3, challenge=4)
        h, c, s = (int.from_bytes(m, "big") for _, m in t.entries)
        assert (h, c, s) == (8, 4, 9)
        # both sides of the check equal 6
        assert pow(group.g, s, group.p) == 6
        assert pow(keys.public, c, group.p) * h % group.p == 6
        assert schnorr_verify(keys.public, group, t)

    def test_honest_rounds_always_verify(self):
        rng = random.Random(3)
        for group in (SMALL_SCHNORR_GROUP, DEFAULT_SCHNORR_GROUP):
            for _ in range(50):
                keys = schnorr_keygen(group, rng)
                t = schnorr_round(keys, rng)
                assert schnorr_verify(keys.public, group, t)

    def test_tampered_response_rejected(self):
        group = SMALL_SCHNORR_GROUP
        from rollsim.proofs import SchnorrKeyPair

        keys = SchnorrKeyPair(group=group, secret=7, public=13)
        t = schnorr_round(keys, random.Random(0), nonce=3, challenge=4)
        t.entries[2] = ("prover", bytes([(9 + 1) % 11]))
        assert not schnorr_verify(keys.public, group, t)

    def test_malformed_transcript(self):
        t = Transcript()
        t.append("prover", b"\x01")
        with pytest.raises(MalformedTranscript):
            schnorr_verify(13, SMALL_SCHNORR_GROUP, t)

    def test_extractor_recovers_secret(self):
        group = SMALL_SCHNORR_GROUP
        from rollsim.proofs import SchnorrKeyPair

        keys = SchnorrKeyPair(group=group, secret=7, public=13)
        t1 = schnorr_round(keys, random.Random(0), nonce=3, challenge=4)
        t2 = schnorr_round(keys, random.Random(0), nonce=3, challenge=9)
        assert schnorr_extract(group, t1, t2) == 7

    def test_extractor_on_random_keys(self):
        rng = random.Random(17)
        group = DEFAULT_SCHNORR_GROUP
        for _ in range(100):
            keys = schnorr_keygen(group, rng)
            k = rng.randrange(1, group.q)
            c1, c2 = rng.randrange(1, group.q), rng.randrange(1, group.q)
            if c1 == c2:
                continue
            t1 = schnorr_round(keys, rng, nonce=k, challenge=c1)
            t2 = schnorr_round(keys, rng, nonce=k, challenge=c2)
            extracted = schnorr_extract(group, t1, t2)
            assert extracted == keys.secret
            assert pow(group.g, extracted, group.p) == keys.public

    def test_equal_challenges_cannot_extract(self):
        group = SMALL_SCHNORR_GROUP
        from rollsim.proofs import SchnorrKeyPair

        keys = SchnorrKeyPair(group=group, secret=7, public=13)
        t1 = schnorr_round(keys, random.Random(0), nonce=3, challenge=4)
        t2 = schnorr_round(keys, random.Random(0), nonce=3, challenge=4)
        with pytest.raises(CannotExtract):
            schnorr_extract(group, t1, t2)

    def test_simulator_transcripts_verify(self):
        rng = random.Random(23)
        group = DEFAULT_SCHNORR_GROUP
        for _ in range(100):
            keys = schnorr_keygen(group, rng)
            c = rng.randrange(1, group.q)
            t = schnorr_simulate(keys.public, c, group, rng)
            assert schnorr_verify(keys.public, group, t)

    def test_simulated_commitment_differs_from_honest(self):
        rng = random.Random(29)
        group = DEFAULT_SCHNORR_GROUP
        keys = schnorr_keygen(group, rng)
        collisions = 0
        for _ in range(200):
            c = rng.randrange(1, group.q)
            honest = schnorr_round(keys, rng, challenge=c)
            simulated = schnorr_simulate(keys.public, c, group, rng)
            if honest.entries[0] == simulated.entries[0]:
                collisions += 1
        assert collisions == 0


class TestFiatShamir:
    def test_deterministic(self):
        t = Transcript()
        t.append("prover", b"hello")
        assert fiat_shamir_challenge(t, b"tag", F) == fiat_shamir_challenge(t, b"tag", F)

    def test_empty_transcript_is_tagged_hash(self):
        from rollsim.hashing import keccak256

        t = Transcript()
        expected = F(int.from_bytes(keccak256(b"T"), "big"))
        assert fiat_shamir_challenge(t, b"T", F) == expected

    def test_one_byte_difference_changes_challenge(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(1000):
            t = Transcript()
            t.append("prover", rng.randbytes(16))
            t.append("verifier", rng.randbytes(8))
            challenge = fiat_shamir_challenge(t, b"tag", F).value
            assert challenge not in seen
            seen.add(challenge)

    def test_depends_on_every_prior_message(self):
        rng = random.Random(37)
        base = Transcript()
        for i in range(4):
            base.append("prover" if i % 2 == 0 else "verifier", rng.randbytes(12))
        baseline = fiat_shamir_challenge(base, b"d", F)
        for i in range(4):
            mutated = Transcript()
            for j, (role, msg) in enumerate(base.entries):
                if i == j:
                    msg = bytes([msg[0] ^ 1]) + msg[1:]
                mutated.append(role, msg)
            assert fiat_shamir_challenge(mutated, b"d", F) != baseline


class TestErrorEstimation:
    def test_schnorr_perfect_completeness(self):
        group = SMALL_SCHNORR_GROUP
        rng = random.Random(41)
        keys = schnorr_keygen(group, rng)

        def protocol(prover, rng_):
            t = prover(rng_)
            return schnorr_verify(keys.public, group, t)

        honest = lambda rng_: schnorr_round(keys, rng_)
        cheater = lambda rng_: schnorr_simulate(keys.public, rng_.randrange(1, group.q), group, rng_)
        est = estimate_errors(protocol, honest, cheater, 500, rng)
        assert est.completeness_error == 0.0
        assert est.trials == 500

    def test_fingerprint_soundness_bound(self):
        # p close to n^2: soundness error <= 1/n plus sampling noise
        n = 16
        prime = 257  # >= n^2 = 256
        small = Field(prime)
        a = bytes([65 + (i % 26) for i in range(n)])
        b_ = bytearray(a)
        b_[5] ^= 1
        b_ = bytes(b_)
        rng = random.Random(43)

        def protocol(prover, rng_):
            return fingerprint_equal_protocol(*prover, rng_, small).accepted

        est = estimate_errors(protocol, (a, a), (a, b_), 4000, rng)
        assert est.completeness_error == 0.0
        assert est.soundness_error <= 1 / n + 0.02

    def test_always_accepting_protocol(self):
        est = estimate_errors(lambda prover, rng_: True, None, None, 100, random.Random(0))
        assert est.soundness_error == 1.0

    def test_zero_trials(self):
        with pytest.raises(NoTrials):
            estimate_errors(lambda p, r: True, None, None, 0, random.Random(0))
