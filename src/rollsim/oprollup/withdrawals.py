"""Output proposals and withdrawal finalization on L1.

Proposed output roots are optimistically valid and finalize after the dispute
period. Finalization re-derives the output root from its four preimage fields,
checks withdrawal inclusion against the withdrawal root, and refuses replays.
Error strings are the contract's revert messages; callers match on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ..hashing import keccak256
from ..l1sim import Chain
from ..merkle import DigestMemo, MerkleProof, verify_inclusion
from .l2 import OutputRootProof, WithdrawalTx

DISPUTE_PERIOD = 7 * 24 * 3600  # seconds
FINALIZE_GAS_BUFFER = 20_000
ORACLE_ADDRESS = 0x90000000000000000000000000000000000000A2
LENDER_POOL_ADDRESS = 0x90000000000000000000000000000000000000A3
LOAN_INTEREST_BPS = 50


class NotProposer(PermissionError):
    """Caller is not an authorized output proposer."""


class StakeTooLow(ValueError):
    """Proposal stake below the configured minimum."""


class ProposalRateLimited(RuntimeError):
    """Too many proposals inside the sliding window."""


class WithdrawalError(ValueError):
    """Finalization check failed; message is the revert string."""


class UntrustedOracle(PermissionError):
    """Fast-withdrawal attestation not signed by a configured oracle."""


class AttestationMismatch(ValueError):
    """Attestation does not match any recorded withdrawal."""


class LoanExists(ValueError):
    """The withdrawal already has a fast-withdrawal loan."""


class AlreadyFinalized(ValueError):
    """The withdrawal was finalized, so no loan can close against it."""


@dataclass(frozen=True)
class OutputProposal:
    output_root: bytes
    l2_block_number: int
    timestamp: int
    proposer: int
    stake: int


@dataclass
class L2OutputOracle:
    """Registry of proposed output roots with stake and a frequency limit."""

    chain: Chain
    proposers: set[int]
    min_stake: int = 10**18
    dispute_period: int = DISPUTE_PERIOD
    rate_limit: tuple[int, int] = (10, 100)  # max proposals per window of L1 blocks
    proposals: dict[int, OutputProposal] = dataclass_field(default_factory=dict)
    stakes: dict[int, int] = dataclass_field(default_factory=dict)
    _proposal_blocks: list[int] = dataclass_field(default_factory=list)

    def propose(
        self, proposer: int, output_root: bytes, l2_block_number: int, stake: int
    ) -> OutputProposal:
        if proposer not in self.proposers:
            raise NotProposer(f"{proposer:#x} is not an authorized proposer")
        if stake < self.min_stake:
            raise StakeTooLow(f"stake {stake} below minimum {self.min_stake}")
        max_count, window = self.rate_limit
        now_block = self.chain.pending_block_number
        recent = [b for b in self._proposal_blocks if b > now_block - window]
        if len(recent) >= max_count:
            raise ProposalRateLimited(
                f"{len(recent)} proposals in the last {window} blocks (limit {max_count})"
            )
        proposal = OutputProposal(
            output_root=output_root,
            l2_block_number=l2_block_number,
            timestamp=self.chain.pending_timestamp,
            proposer=proposer,
            stake=stake,
        )
        self.proposals[l2_block_number] = proposal
        self.stakes[proposer] = self.stakes.get(proposer, 0) + stake
        self._proposal_blocks.append(now_block)
        return proposal

    def get(self, l2_block_number: int) -> OutputProposal:
        return self.proposals[l2_block_number]

    def is_finalized(self, proposal: OutputProposal, now: int) -> bool:
        return now >= proposal.timestamp + self.dispute_period

    def invalidate(self, l2_block_number: int) -> int:
        """Drop a disproven proposal and slash its proposer's stake."""
        proposal = self.proposals.pop(l2_block_number)
        slashed = proposal.stake
        self.stakes[proposal.proposer] = self.stakes.get(proposal.proposer, 0) - slashed
        return slashed


class WithdrawalPortal:
    """The finalization side of the portal: executes proven withdrawals.

    The portal folds every inclusion proof through one ``DigestMemo`` that
    lives as long as the portal. The proofs of one withdrawal tree share
    their upper nodes, so finalizing all n withdrawals hashes each of the
    tree's about 2n blobs once. No check is skipped: each proof is still
    folded level by level and compared with the proposal's withdrawal root,
    and a tampered proof makes blobs the memo has not seen.

    A withdrawal pays its target unless ``payees`` names another address for
    its hash, as a lender pool does for a withdrawal it advanced.
    """

    def __init__(self, chain: Chain, oracle: L2OutputOracle):
        self.chain = chain
        self.oracle = oracle
        self._digest = DigestMemo()
        self.finalized: dict[bytes, int] = {}  # hash -> finalization time
        self.payees: dict[bytes, int] = {}

    def finalize_withdrawal(
        self,
        tx: WithdrawalTx,
        l2_block_number: int,
        output_root_proof: OutputRootProof,
        withdrawal_proof: MerkleProof,
        now: int,
        gas_available: int = 10**7,
    ) -> dict:
        """Run the finalization checks in contract order, then pay out.

        The withdrawal is marked finalized *before* the target call so a
        reentrant call cannot replay it.
        """
        proposal = self.oracle.proposals.get(l2_block_number)
        if proposal is None or not self.oracle.is_finalized(proposal, now):
            raise WithdrawalError("proposal is not yet finalized")
        if output_root_proof.output_root != proposal.output_root:
            raise WithdrawalError("invalid output root proof")
        withdrawal_hash = tx.hash
        if not verify_inclusion(
            output_root_proof.withdrawal_root, withdrawal_hash, withdrawal_proof, self._digest
        ):
            raise WithdrawalError("invalid withdrawal inclusion proof")
        if withdrawal_hash in self.finalized:
            raise WithdrawalError("withdrawal has already been finalized")
        if gas_available < tx.gas_limit + FINALIZE_GAS_BUFFER:
            raise WithdrawalError("insufficient gas to finalize withdrawal")
        self.finalized[withdrawal_hash] = now
        payee = self.payees.get(withdrawal_hash, tx.target)
        self.chain.fund(payee, tx.value)
        self.chain._emit(ORACLE_ADDRESS, "WithdrawalFinalized", withdrawal_hash)
        return {"withdrawal_hash": withdrawal_hash, "payee": payee, "value": tx.value}


# --- fast withdrawals ----------------------------------------------------------


@dataclass(frozen=True)
class OracleAttestation:
    oracle_name: str
    withdrawal_hash: bytes
    signature: bytes


class WithdrawalOracle:
    """Off-chain attester trusted by the lender pool (shared-key toy scheme)."""

    def __init__(self, name: str, secret: bytes):
        self.name = name
        self._secret = secret

    def attest(self, withdrawal_hash: bytes) -> OracleAttestation:
        return OracleAttestation(
            oracle_name=self.name,
            withdrawal_hash=withdrawal_hash,
            signature=keccak256(self._secret + withdrawal_hash),
        )


@dataclass(frozen=True)
class Loan:
    withdrawal_hash: bytes
    principal: int
    paid_out: int
    interest: int
    opened_at: int


class LenderPool:
    """Advances withdrawal value immediately against an oracle attestation.

    A loan makes the pool, at ``LENDER_POOL_ADDRESS``, the portal's payee for
    its withdrawal. The loan closes when the real finalization lands and pays
    the pool the withdrawal value, so the borrower nets value minus interest.
    Each withdrawal gets at most one loan, and only before it is finalized.
    """

    def __init__(self, portal: WithdrawalPortal, trusted_oracles: dict[str, bytes]):
        self.portal = portal
        self.trusted = dict(trusted_oracles)
        self.loans: dict[bytes, Loan] = {}

    @property
    def closed(self) -> dict[bytes, int]:
        """Loans whose withdrawal has finalized: hash -> close time."""
        finalized = self.portal.finalized
        return {h: finalized[h] for h in self.loans if h in finalized}

    def fast_withdrawal(
        self,
        attestation: OracleAttestation,
        withdrawal: WithdrawalTx,
        now: int,
    ) -> Loan:
        secret = self.trusted.get(attestation.oracle_name)
        if secret is None or attestation.signature != keccak256(
            secret + attestation.withdrawal_hash
        ):
            raise UntrustedOracle(f"oracle {attestation.oracle_name!r} not trusted")
        if attestation.withdrawal_hash != withdrawal.hash:
            raise AttestationMismatch("attestation does not match the withdrawal")
        if withdrawal.hash in self.loans:
            raise LoanExists("withdrawal already has a loan")
        if withdrawal.hash in self.portal.finalized:
            raise AlreadyFinalized("withdrawal has already been finalized")
        interest = withdrawal.value * LOAN_INTEREST_BPS // 10_000
        loan = Loan(
            withdrawal_hash=withdrawal.hash,
            principal=withdrawal.value,
            paid_out=withdrawal.value - interest,
            interest=interest,
            opened_at=now,
        )
        self.loans[withdrawal.hash] = loan
        self.portal.payees[withdrawal.hash] = LENDER_POOL_ADDRESS
        self.portal.chain.fund(withdrawal.sender, loan.paid_out)
        return loan
