import itertools

import pytest

from rollsim import hashing
from rollsim.hashing import keccak256
from rollsim.l1sim import Chain
from rollsim.merkle import MerkleProof
from rollsim.oprollup.l2 import OpL2State, OutputRootProof, initiate_withdrawal, output_root_proof
from rollsim.oprollup.withdrawals import (
    LENDER_POOL_ADDRESS,
    AlreadyFinalized,
    AttestationMismatch,
    LenderPool,
    L2OutputOracle,
    LoanExists,
    MIN_STAKE,
    NotProposer,
    OracleAttestation,
    ProposalRateLimited,
    StakeTooLow,
    UntrustedOracle,
    WithdrawalError,
    WithdrawalOracle,
    WithdrawalPortal,
)

PROPOSER = 0xA11CE
PERIOD = 7 * 24 * 3600


def setup_rollup(n_withdrawals=1):
    chain = Chain()
    oracle = L2OutputOracle(chain, proposers={PROPOSER}, dispute_period=PERIOD)
    portal = WithdrawalPortal(chain, oracle)
    state = OpL2State()
    state.credit(0xFA, 10_000)
    hashes = [
        initiate_withdrawal(state, 0xFA, 0xD0, 21_000, 100 + i, b"").hash
        for i in range(n_withdrawals)
    ]
    proof = output_root_proof(state, l2_block_hash=b"\x22" * 32)
    proposal = oracle.propose(PROPOSER, proof.output_root, 5, stake=MIN_STAKE)
    return chain, oracle, portal, state, hashes, proof, proposal


class TestProposals:
    def test_authorized_proposal_stored(self):
        chain = Chain()
        oracle = L2OutputOracle(chain, proposers={PROPOSER})
        proposal = oracle.propose(PROPOSER, b"\x01" * 32, 7, MIN_STAKE)
        assert oracle.proposals[7] == proposal

    def test_unauthorized_rejected(self):
        chain = Chain()
        oracle = L2OutputOracle(chain, proposers={PROPOSER})
        with pytest.raises(NotProposer):
            oracle.propose(0xBAD, b"\x01" * 32, 7, MIN_STAKE)

    def test_insufficient_stake(self):
        chain = Chain()
        oracle = L2OutputOracle(chain, proposers={PROPOSER})
        with pytest.raises(StakeTooLow):
            oracle.propose(PROPOSER, b"\x01" * 32, 7, MIN_STAKE - 1)

    def test_rate_limit(self):
        chain = Chain()
        oracle = L2OutputOracle(chain, proposers={PROPOSER}, rate_limit=(10, 100))
        for i in range(10):
            oracle.propose(PROPOSER, bytes([i]) * 32, i, MIN_STAKE)
        with pytest.raises(ProposalRateLimited):
            oracle.propose(PROPOSER, b"\xff" * 32, 99, MIN_STAKE)

    def test_rate_limit_window_slides(self):
        chain = Chain()
        oracle = L2OutputOracle(chain, proposers={PROPOSER}, rate_limit=(2, 3))
        oracle.propose(PROPOSER, b"\x01" * 32, 1, MIN_STAKE)
        oracle.propose(PROPOSER, b"\x02" * 32, 2, MIN_STAKE)
        with pytest.raises(ProposalRateLimited):
            oracle.propose(PROPOSER, b"\x03" * 32, 3, MIN_STAKE)
        for _ in range(3):
            chain.mine_block()
        oracle.propose(PROPOSER, b"\x04" * 32, 4, MIN_STAKE)

    def test_invalidate_slashes_stake(self):
        chain = Chain()
        oracle = L2OutputOracle(chain, proposers={PROPOSER})
        oracle.propose(PROPOSER, b"\x01" * 32, 7, MIN_STAKE)
        slashed = oracle.invalidate(7)
        assert slashed == MIN_STAKE
        assert oracle.stakes[PROPOSER] == 0
        assert 7 not in oracle.proposals


class TestStateRoot:
    def test_two_accounts_known_answer(self):
        # written out byte by byte: the RLP of [withdrawal nonce, accounts],
        # each account [address (20 bytes), nonce, balance], sorted by address
        blob = bytes.fromhex(
            "f5" "01" "f3"  # a list of 53 bytes: withdrawal nonce 1, a list of 51
            "d9" "94" + "00" * 19 + "0a" + "01" "8202bc"  # 0xA: nonce 1, balance 700
            + "d8" "94" + "00" * 19 + "0b" + "80" "81c8"  # 0xB: nonce 0, balance 200
        )
        state = OpL2State(balances={0xB: 200, 0xA: 700}, nonces={0xA: 1}, withdrawal_nonce=1)
        assert state.state_root() == keccak256(blob)

    def test_an_account_with_only_a_nonce_is_committed(self):
        blob = bytes.fromhex(
            "da" "80" "d8"  # withdrawal nonce 0, a list of 24 bytes
            "d7" "94" + "00" * 19 + "0a" + "01" "80"  # 0xA: nonce 1, balance 0
        )
        assert OpL2State(nonces={0xA: 1}).state_root() == keccak256(blob)


class TestWithdrawalTree:
    def test_root_and_proofs_follow_each_new_withdrawal(self):
        from rollsim.merkle import MerkleTree, verify_inclusion

        state = OpL2State()
        state.credit(0xFA, 10_000)
        roots = [state.withdrawal_root()]
        for i in range(5):
            initiate_withdrawal(state, 0xFA, 0xD0, 21_000, 10 + i, b"")
            if i % 2:
                state.withdrawal_proof(state.sent_withdrawals[0].hash)  # fill the cache
            root = state.withdrawal_root()
            assert root == MerkleTree([w.hash for w in state.sent_withdrawals]).root
            for wtx in state.sent_withdrawals:
                assert verify_inclusion(root, wtx.hash, state.withdrawal_proof(wtx.hash))
            roots.append(root)
        assert len(set(roots)) == len(roots)

    def test_unknown_hash_rejected(self):
        state = OpL2State()
        with pytest.raises(ValueError, match="never sent"):
            state.withdrawal_proof(b"\x00" * 32)
        state.credit(0xFA, 10)
        initiate_withdrawal(state, 0xFA, 0xD0, 21_000, 1, b"")
        with pytest.raises(ValueError, match="never sent"):
            state.withdrawal_proof(b"\x00" * 32)

    def test_cache_is_not_state(self):
        a, b = OpL2State(), OpL2State()
        for state in (a, b):
            state.credit(0xFA, 10)
            initiate_withdrawal(state, 0xFA, 0xD0, 21_000, 1, b"")
        a.withdrawal_root()
        assert a == b
        assert repr(a) == repr(b)


class TestFinalization:
    def test_too_early_rejected_with_message(self):
        chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
        wtx = state.sent_withdrawals[0]
        wproof = state.withdrawal_proof(wtx.hash)
        early = proposal.timestamp + PERIOD - 1
        with pytest.raises(WithdrawalError, match="proposal is not yet finalized"):
            portal.finalize_withdrawal(wtx, 5, proof, wproof, now=early)

    def test_succeeds_exactly_at_period(self):
        chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
        wtx = state.sent_withdrawals[0]
        wproof = state.withdrawal_proof(wtx.hash)
        receipt = portal.finalize_withdrawal(
            wtx, 5, proof, wproof, now=proposal.timestamp + PERIOD
        )
        assert receipt["value"] == wtx.value
        assert chain.balance(wtx.target) == wtx.value

    def test_bad_output_root_preimage(self):
        chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
        wtx = state.sent_withdrawals[0]
        wproof = state.withdrawal_proof(wtx.hash)
        bad = OutputRootProof(
            version=proof.version, state_root=b"\x00" * 32,
            withdrawal_root=proof.withdrawal_root, l2_block_hash=proof.l2_block_hash,
        )
        with pytest.raises(WithdrawalError, match="invalid output root proof"):
            portal.finalize_withdrawal(wtx, 5, bad, wproof, now=proposal.timestamp + PERIOD)

    def test_bad_inclusion_proof(self):
        # inside a run, after the honest pass has put every blob of the tree
        # in the run's memo: withdrawal 0 folded through withdrawal 1's path
        # pairs its leaf digest with itself, a node blob no one has hashed
        with hashing.run_memo():
            chain, oracle, portal, state, hashes, proof, proposal = setup_rollup(n_withdrawals=2)
            wtx, other = state.sent_withdrawals
            now = proposal.timestamp + PERIOD
            wrong = state.withdrawal_proof(other.hash)
            portal.finalize_withdrawal(other, 5, proof, wrong, now=now)
            with hashing.counting() as count:
                with pytest.raises(WithdrawalError, match="invalid withdrawal inclusion proof"):
                    portal.finalize_withdrawal(wtx, 5, proof, wrong, now=now)
        assert count.perms == 1
        assert wtx.hash not in portal.finalized

    @pytest.mark.parametrize("siblings", [None, (7,), ("00" * 32,)], ids=["none", "int", "str"])
    def test_malformed_inclusion_proof(self, siblings):
        # inside a run, after the honest pass: the inclusion check refuses
        # the malformed path before the replay check could
        with hashing.run_memo():
            chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
            wtx = state.sent_withdrawals[0]
            now = proposal.timestamp + PERIOD
            portal.finalize_withdrawal(wtx, 5, proof, state.withdrawal_proof(wtx.hash), now=now)
            malformed = MerkleProof(0, siblings)
            with pytest.raises(WithdrawalError, match="invalid withdrawal inclusion proof"):
                portal.finalize_withdrawal(wtx, 5, proof, malformed, now=now)

    def test_double_finalize_rejected(self):
        chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
        wtx = state.sent_withdrawals[0]
        wproof = state.withdrawal_proof(wtx.hash)
        now = proposal.timestamp + PERIOD
        portal.finalize_withdrawal(wtx, 5, proof, wproof, now=now)
        with pytest.raises(WithdrawalError, match="withdrawal has already been finalized"):
            portal.finalize_withdrawal(wtx, 5, proof, wproof, now=now)

    def test_insufficient_gas(self):
        chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
        wtx = state.sent_withdrawals[0]
        wproof = state.withdrawal_proof(wtx.hash)
        with pytest.raises(WithdrawalError, match="insufficient gas to finalize withdrawal"):
            portal.finalize_withdrawal(
                wtx, 5, proof, wproof, now=proposal.timestamp + PERIOD,
                gas_available=wtx.gas_limit,
            )

    def test_finalizing_a_tree_hashes_each_blob_once(self, keccak_perms):
        chain, oracle, portal, state, hashes, proof, proposal = setup_rollup(n_withdrawals=8)
        proofs = [state.withdrawal_proof(wtx.hash) for wtx in state.sent_withdrawals]
        before = keccak_perms.perms
        for wtx, wproof in zip(state.sent_withdrawals, proofs):
            portal.finalize_withdrawal(wtx, 5, proof, wproof, now=proposal.timestamp + PERIOD)
        # the 8 proofs fold 8 leaf blobs and share the tree's 7 node blobs
        assert keccak_perms.perms - before == 8 + 7

    def test_finalizing_a_tree_built_in_the_run_hashes_nothing(self):
        # the portal's memo is the run's, which the L2's tree filled
        with hashing.run_memo():
            chain, oracle, portal, state, hashes, proof, proposal = setup_rollup(n_withdrawals=8)
            proofs = [state.withdrawal_proof(wtx.hash) for wtx in state.sent_withdrawals]
            with hashing.counting() as count:
                for wtx, wproof in zip(state.sent_withdrawals, proofs):
                    portal.finalize_withdrawal(
                        wtx, 5, proof, wproof, now=proposal.timestamp + PERIOD
                    )
        assert count.perms == 0
        assert len(portal.finalized) == 8

    def test_adversarial_interleavings_never_double_finalize(self):
        # replay every ordering of (early call, on-time call, duplicate)
        for ordering in itertools.permutations(["early", "on_time", "dup"]):
            chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
            wtx = state.sent_withdrawals[0]
            wproof = state.withdrawal_proof(wtx.hash)
            succeeded = 0
            for action in ordering:
                now = proposal.timestamp + (PERIOD - 1 if action == "early" else PERIOD)
                try:
                    portal.finalize_withdrawal(wtx, 5, proof, wproof, now=now)
                    succeeded += 1
                except WithdrawalError:
                    pass
            assert succeeded <= 1
            assert chain.balance(wtx.target) in (0, wtx.value)


class TestFastWithdrawals:
    def make_pool(self):
        chain, oracle, portal, state, hashes, proof, proposal = setup_rollup()
        attester = WithdrawalOracle("maker", secret=b"s3cret")
        pool = LenderPool(portal, trusted_oracles={"maker": b"s3cret"})
        return chain, portal, state, proof, proposal, attester, pool

    def test_valid_attestation_funds_immediately(self):
        chain, portal, state, proof, proposal, attester, pool = self.make_pool()
        wtx = state.sent_withdrawals[0]
        loan = pool.fast_withdrawal(attester.attest(wtx.hash), wtx, now=proposal.timestamp)
        assert chain.balance(wtx.sender) == loan.paid_out
        assert loan.paid_out == wtx.value - loan.interest

    def test_forged_attestation_rejected(self):
        chain, portal, state, proof, proposal, attester, pool = self.make_pool()
        wtx = state.sent_withdrawals[0]
        forged = OracleAttestation("maker", wtx.hash, signature=b"\x00" * 32)
        with pytest.raises(UntrustedOracle):
            pool.fast_withdrawal(forged, wtx, now=0)
        unknown = WithdrawalOracle("unknown", b"x").attest(wtx.hash)
        with pytest.raises(UntrustedOracle):
            pool.fast_withdrawal(unknown, wtx, now=0)

    def test_attestation_for_other_withdrawal(self):
        chain, portal, state, proof, proposal, attester, pool = self.make_pool()
        wtx = state.sent_withdrawals[0]
        other = attester.attest(keccak256(b"other"))
        with pytest.raises(AttestationMismatch):
            pool.fast_withdrawal(other, wtx, now=0)

    def test_loan_closes_at_real_finalization(self):
        chain, portal, state, proof, proposal, attester, pool = self.make_pool()
        wtx = state.sent_withdrawals[0]
        loan = pool.fast_withdrawal(attester.attest(wtx.hash), wtx, now=proposal.timestamp)
        assert wtx.hash not in pool.closed
        wproof = state.withdrawal_proof(wtx.hash)
        close_time = proposal.timestamp + PERIOD
        portal.finalize_withdrawal(wtx, 5, proof, wproof, now=close_time)
        assert pool.closed[wtx.hash] == close_time
        # borrower net: paid_out now vs value at finalization
        assert loan.principal - loan.paid_out == loan.interest

    def test_finalization_pays_the_pool_not_the_target(self):
        chain, portal, state, proof, proposal, attester, pool = self.make_pool()
        wtx = state.sent_withdrawals[0]
        loan = pool.fast_withdrawal(attester.attest(wtx.hash), wtx, now=proposal.timestamp)
        wproof = state.withdrawal_proof(wtx.hash)
        receipt = portal.finalize_withdrawal(wtx, 5, proof, wproof, now=proposal.timestamp + PERIOD)
        assert receipt["payee"] == LENDER_POOL_ADDRESS
        assert chain.balance(wtx.sender) == loan.paid_out
        assert chain.balance(LENDER_POOL_ADDRESS) == wtx.value == 100
        assert chain.balance(wtx.target) == 0

    def test_replayed_attestation_pays_once(self):
        chain, portal, state, proof, proposal, attester, pool = self.make_pool()
        wtx = state.sent_withdrawals[0]
        attestation = attester.attest(wtx.hash)
        loan = pool.fast_withdrawal(attestation, wtx, now=proposal.timestamp)
        with pytest.raises(LoanExists):
            pool.fast_withdrawal(attestation, wtx, now=proposal.timestamp + 1)
        assert chain.balance(wtx.sender) == loan.paid_out
        assert pool.loans[wtx.hash] == loan

    def test_finalized_withdrawal_gets_no_loan(self):
        chain, portal, state, proof, proposal, attester, pool = self.make_pool()
        wtx = state.sent_withdrawals[0]
        wproof = state.withdrawal_proof(wtx.hash)
        now = proposal.timestamp + PERIOD
        portal.finalize_withdrawal(wtx, 5, proof, wproof, now=now)
        with pytest.raises(AlreadyFinalized):
            pool.fast_withdrawal(attester.attest(wtx.hash), wtx, now=now)
        assert chain.balance(wtx.sender) == 0
        assert pool.loans == {}
