"""Deterministic end-to-end scenarios and their reports.

A scenario config fully determines a run: one seed feeds named substreams,
the clock is the simulated chain's, and the report serializes with sorted
keys, so regenerating a run yields byte-identical output.

The optimistic scenario is defined here. The validity scenario is in
``validityrollup.scenario``, which ``run`` imports only for a validity
config, so importing this module, or running an optimistic config, leaves
the validity stack (``costbench`` and ``validityrollup.statediff`` among it)
unloaded. An optimistic report's ``cost`` block is empty: the run's
data-availability cost is its ``gas.da_bytes_posted`` and each
``frame_posted`` event's ``gas``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass, field as dataclass_field
from time import perf_counter
from typing import Iterator, NamedTuple

from . import __version__, hashing
from .algebra import DEFAULT_PRIME, is_prime
from .hashing import keccak256
from .l1sim import Chain
from .oprollup import batching, dispute as dispute_mod
from .oprollup.deposits import GUARANTEED_GAS_CAP, GuaranteedGasExhausted, OptimismPortal
from .oprollup.derivation import (
    BATCH_INBOX_ADDRESS,
    ExecutedChain,
    derive,
    execute_chain,
    transfer_tx,
    withdraw_tx,
)
from .oprollup.l2 import WithdrawalTx
from .oprollup.withdrawals import (
    DISPUTE_PERIOD,
    L2OutputOracle,
    MIN_STAKE,
    WithdrawalError,
    WithdrawalPortal,
)
from .validityrollup import INSTRUCTION_BITS


class ConfigError(ValueError):
    """Configuration is invalid; message names the offending field path."""


# Python type behind each ScenarioConfig annotation
_FIELD_TYPES = {"int": int, "str": str, "bool": bool, "list[dict]": list}

# required, then optional, keys of one item in each workload section
_WORKLOAD_KEYS = {
    "deposits": (("user", "value"), ("gas_limit", "fee")),
    "transfers": (("user", "target", "value"), ()),
    "withdrawals": (("user", "value"), ("target", "gas_limit")),
}

# exclusive upper bound, as a bit width, of each workload key: users and
# targets are addresses, gas is a uint64, and amounts leave room for their
# sums inside a 256-bit storage word
_WORKLOAD_KEY_BITS = {"user": 160, "target": 160, "value": 128, "fee": 128, "gas_limit": 64}

# upper bounds of the fields a run's length grows with: blocks mined to flush
# the sequencing window, blocks per validity proof, and dispute trace steps;
# at each bound a run of the CLI's default workload takes at most about a second
MAX_WINDOW = 256
MAX_PROOF_CADENCE_BLOCKS = 1024
MAX_DISPUTE_STEPS = 1 << 18


def _require_type(path: str, expected: type, value) -> None:
    """Raise ConfigError unless ``value`` is an ``expected``; a bool is no int."""
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        raise ConfigError(f"{path}: expected {expected.__name__}, got {type(value).__name__}")


@dataclass
class ScenarioConfig:
    seed: int = 0
    rollup: str = "optimistic"  # or "validity"
    block_time: int = 12
    basefee: int = 10 * 10**9
    window: int = 2
    dispute_period: int = DISPUTE_PERIOD
    max_frame_bytes: int = 200
    proof_cadence_blocks: int = 2
    deposits: list[dict] = dataclass_field(default_factory=list)
    transfers: list[dict] = dataclass_field(default_factory=list)
    withdrawals: list[dict] = dataclass_field(default_factory=list)
    planted_fraud: bool = False
    fault_position: int = 600
    dispute_steps: int = 1024
    field_prime: int = DEFAULT_PRIME
    group_order: int = DEFAULT_PRIME

    def validate(self) -> None:
        for name, spec in self.__dataclass_fields__.items():
            _require_type(name, _FIELD_TYPES[spec.type], getattr(self, name))
        if self.rollup not in ("optimistic", "validity"):
            raise ConfigError(f"rollup: expected 'optimistic' or 'validity', got {self.rollup!r}")
        # optimistic frames land one block after their epoch, and derivation
        # keeps a channel only if it closes inside the window
        min_window = 2 if self.rollup == "optimistic" else 1
        if self.window < min_window:
            raise ConfigError(f"window: must be at least {min_window} for a {self.rollup} rollup")
        if self.window > MAX_WINDOW:
            raise ConfigError(f"window: must be at most {MAX_WINDOW}")
        # timestamps and fees are encoded as fixed-width words
        if not 1 <= self.block_time < 1 << 32:
            raise ConfigError("block_time: must lie in [1, 2^32) seconds")
        if not 1 <= self.basefee < 1 << 128:
            raise ConfigError("basefee: must lie in [1, 2^128) wei")
        if self.dispute_period < 0:
            raise ConfigError("dispute_period: must be non-negative")
        if self.max_frame_bytes < 1:
            raise ConfigError("max_frame_bytes: must be at least 1")
        if not 1 <= self.proof_cadence_blocks <= MAX_PROOF_CADENCE_BLOCKS:
            raise ConfigError(
                f"proof_cadence_blocks: must lie in [1, {MAX_PROOF_CADENCE_BLOCKS}]"
            )
        if not 1 <= self.dispute_steps <= MAX_DISPUTE_STEPS:
            raise ConfigError(f"dispute_steps: must lie in [1, {MAX_DISPUTE_STEPS}]")
        if not 0 < self.fault_position <= self.dispute_steps:
            raise ConfigError("fault_position: must lie in [1, dispute_steps]")
        for name in ("field_prime", "group_order"):
            if not is_prime(getattr(self, name)):
                raise ConfigError(f"{name}: {getattr(self, name)} is not prime")
        if self.field_prime.bit_length() <= INSTRUCTION_BITS:
            raise ConfigError(
                f"field_prime: must exceed 2^{INSTRUCTION_BITS}, the Cairo instruction width"
            )
        for section, (required, optional) in _WORKLOAD_KEYS.items():
            for i, item in enumerate(getattr(self, section)):
                path = f"{section}[{i}]"
                if not isinstance(item, dict):
                    raise ConfigError(f"{path}: expected an object, got {type(item).__name__}")
                unknown = set(item) - set(required) - set(optional)
                if unknown:
                    raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=repr)}")
                for key in required:
                    if key not in item:
                        raise ConfigError(f"{path}.{key}: missing")
                for key, value in item.items():
                    _require_type(f"{path}.{key}", int, value)
                    if not 0 <= value < 1 << _WORKLOAD_KEY_BITS[key]:
                        raise ConfigError(
                            f"{path}.{key}: must lie in [0, 2^{_WORKLOAD_KEY_BITS[key]})"
                        )

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioConfig":
        try:
            raw = json.loads(payload)
        except ValueError as exc:
            raise ConfigError(f"config: not valid JSON ({exc})") from exc
        except RecursionError as exc:  # the decoder recurses once per nesting level
            raise ConfigError("config: JSON nested too deeply") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config: expected a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        config = cls(**raw)
        config.validate()
        return config

    def config_hash(self) -> str:
        """FIPS-202 SHA3-256 of ``to_json()``: a provenance tag that no
        simulated contract reads, so it stays off the model's Keccak-256."""
        return hashlib.sha3_256(self.to_json().encode()).hexdigest()

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{stream}")


@dataclass
class RunReport:
    version: str
    config_hash: str
    timeline: list[dict]
    gas: dict
    dispute: dict
    withdrawal_latencies: dict
    cost: dict
    invariant_violations: list[str]

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    def report_hash(self) -> str:
        """FIPS-202 SHA3-256 of ``to_json()``, an identity tag like ``config_hash``."""
        return hashlib.sha3_256(self.to_json().encode()).hexdigest()

    @property
    def ok(self) -> bool:
        return not self.invariant_violations


class PhaseCost(NamedTuple):
    """One row of a run's profile: Keccak-f permutations and wall time of a
    phase; ``packed`` of the permutations ran in slots of the packed kernel."""

    phase: str
    perms: int
    packed: int
    seconds: float


class _Run:
    """What the phases of one run share: the config, the L1 chain, the
    timeline and invariant violations its report is built from, and the
    profile its phases append to, if one was asked for."""

    def __init__(self, config: ScenarioConfig, profile: list[PhaseCost] | None = None):
        self.config = config
        self.chain = Chain(basefee=config.basefee, block_time=config.block_time)
        self.timeline: list[dict] = []
        self.violations: list[str] = []
        self.profile = profile

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Run the block as phase ``name`` inside its own ``hashing.counting()``
        block, and append its cost to the profile, if one was asked for. The
        phase's count adds into any block around the run, so an enclosing
        count sees every permutation, profiled or not."""
        start = perf_counter()
        with hashing.counting() as count:
            yield
        if self.profile is not None:
            self.profile.append(PhaseCost(name, count.perms, count.packed, perf_counter() - start))

    def log(self, event: str, time: int | None = None, **details) -> None:
        """Record ``event`` in the pending block, at its timestamp unless ``time`` is given."""
        entry = {"time": self.chain.pending_timestamp if time is None else time,
                 "block": self.chain.pending_block_number, "event": event}
        entry.update(sorted(details.items()))
        self.timeline.append(entry)

    def report(self, gas: dict, dispute: dict, withdrawal_latencies: dict, cost: dict) -> RunReport:
        """The run's report; ``gas`` adds to the L1 block count and gas used."""
        return RunReport(
            version=__version__,
            config_hash=self.config.config_hash(),
            timeline=self.timeline,
            gas={"l1_blocks": len(self.chain.blocks),
                 "total_gas_used": sum(b.gas_used for b in self.chain.blocks), **gas},
            dispute=dispute,
            withdrawal_latencies=withdrawal_latencies,
            cost=cost,
            invariant_violations=self.violations,
        )


def run(config: ScenarioConfig, profile: list[PhaseCost] | None = None) -> RunReport:
    """Execute a scenario; the report is a pure function of the config.

    Given a ``profile`` list, append one ``PhaseCost`` per phase and a last
    one for building the report; their permutations sum to the run's.
    """
    config.validate()
    ctx = _Run(config, profile)
    if config.rollup == "optimistic":
        return _run_optimistic(ctx)
    from .validityrollup.scenario import run_validity

    return run_validity(ctx)


# --- optimistic --------------------------------------------------------------------

_PROPOSER = 0xA11CE
_CHALLENGER = 0xB0B


def _run_optimistic(ctx: _Run) -> RunReport:
    """Deposit, batch, derive and execute, dispute a planted fraud, propose and finalize."""
    config = ctx.config
    portal = OptimismPortal(ctx.chain)
    oracle = L2OutputOracle(ctx.chain, proposers={_PROPOSER}, dispute_period=config.dispute_period)
    wportal = WithdrawalPortal(ctx.chain, oracle)
    # (sender, target, value, gas_limit) of each configured withdrawal
    wanted = [
        (w["user"], w.get("target", w["user"]), w["value"], w.get("gas_limit", 21_000))
        for w in config.withdrawals
    ]
    with ctx.phase("deposit"):
        epoch = _deposit(ctx, portal)
    with ctx.phase("batch"):
        da_bytes = _batch(ctx, epoch, wanted)
    with ctx.phase("derive_and_execute"):
        executed, landed = _derive_and_execute(ctx, wanted)
    tip = executed.blocks[-1].number if executed.blocks else 0
    dispute = {"played": False}
    if config.planted_fraud:
        with ctx.phase("dispute"):
            dispute = _dispute(ctx, oracle, tip, executed.output.output_root)
    with ctx.phase("propose_and_finalize"):
        latencies = _propose_and_finalize(ctx, wportal, executed, landed, tip, epoch)
    with ctx.phase("report"):
        return ctx.report(
            gas={"da_bytes_posted": da_bytes},
            dispute=dispute,
            withdrawal_latencies=latencies,
            cost={},
        )


def _deposit(ctx: _Run, portal: OptimismPortal) -> int:
    """Deposit from block 0 on; return the epoch, the empty block after the last deposit block."""
    chain = ctx.chain
    for dep in ctx.config.deposits:
        # a deposit past the forming block's guaranteed L2 gas goes into the next block
        gas_limit = dep.get("gas_limit", 100_000)
        used = portal.guaranteed_gas_in_block(chain.pending_block_number)
        if used and used + gas_limit > GUARANTEED_GAS_CAP:
            chain.mine_block()
        try:
            _, burned = portal.deposit_transaction(
                caller=dep["user"], caller_is_contract=False, to=dep["user"], value=dep["value"],
                gas_limit=gas_limit, is_creation=False, data=b"", l2_basefee=1,
                l1_basefee=ctx.config.basefee,
            )
        except GuaranteedGasExhausted as exc:  # more gas than a whole block guarantees
            ctx.log("deposit_rejected", user=dep["user"], value=dep["value"], reason=str(exc))
            continue
        ctx.log("deposit", user=dep["user"], value=dep["value"], burned_gas=burned)
    chain.mine_block()
    epoch = chain.pending_block_number
    chain.mine_block()
    return epoch


def _batch(ctx: _Run, epoch: int, wanted: list[tuple]) -> int:
    """Post the L2 transactions as shuffled frames of one channel; return the bytes posted.

    A channel that needs more frames than a frame number can count is
    logged as ``batch_rejected`` and nothing is posted."""
    chain, config = ctx.chain, ctx.config
    txs = [transfer_tx(t["user"], t["target"], t["value"]) for t in config.transfers]
    txs += [withdraw_tx(*fields) for fields in wanted]
    da_bytes = 0
    if txs:
        batch = batching.Batch(
            epoch_number=epoch,
            epoch_hash=chain.blocks[epoch].hash,
            parent_hash=b"\x00" * 32,
            timestamp=chain.blocks[epoch].timestamp,
            tx_list=tuple(txs),
        )
        channel = batching.build_channel(
            [batch], timestamp=chain.blocks[epoch].timestamp,
            random=config.rng("channel").randrange(2**64),
        )
        try:
            frames = batching.split_frames(channel, config.max_frame_bytes)
        except batching.TooManyFrames as exc:
            ctx.log("batch_rejected", frames=exc.frames, reason=str(exc))
            frames = []
        order = list(range(len(frames)))
        config.rng("frames").shuffle(order)
        for i in order:
            calldata = frames[i].encode()
            receipt = chain.submit_tx(sender=0x5E9, to=BATCH_INBOX_ADDRESS, calldata=calldata)
            da_bytes += len(calldata)
            ctx.log("frame_posted", frame=frames[i].frame_number, gas=receipt.gas_used)
    for _ in range(1 + config.window):
        chain.mine_block()  # the frames' block, then the sequencing window
    return da_bytes


def _derive_and_execute(ctx: _Run, wanted: list[tuple]) -> tuple[ExecutedChain, list[WithdrawalTx]]:
    """Derive and execute the L2 chain; return it with the configured withdrawals it sent."""
    l2_blocks = derive(ctx.chain, ctx.config.window)
    executed = execute_chain(l2_blocks)
    ctx.log("derived", l2_blocks=len(l2_blocks))
    # L2 execution skips a withdrawal its sender cannot fund, so the sent
    # withdrawals are the configured ones in order, minus the skipped ones
    sent = iter(executed.state.sent_withdrawals)
    landed: list[WithdrawalTx] = []
    candidate = next(sent, None)
    for fields in wanted:
        if candidate is not None and fields == (
            candidate.sender, candidate.target, candidate.value, candidate.gas_limit
        ):
            landed.append(candidate)
            candidate = next(sent, None)
        else:
            ctx.log("withdrawal_not_initiated", user=fields[0], value=fields[2])
    return executed, landed


def _dispute(ctx: _Run, oracle: L2OutputOracle, tip: int, honest_root: bytes) -> dict:
    """Propose a fraudulent output root and play the bisection game against it."""
    bad_root = keccak256(b"fraud" + honest_root)
    oracle.propose(_PROPOSER, bad_root, tip, stake=MIN_STAKE)
    ctx.log("output_proposed", root=bad_root.hex(), fraudulent=True)
    # a VM execution standing in for the challenged block's trace
    game = dispute_mod.play_planted_fault(
        (0, 1, 3, 0, 1, 0, 0, 0), ctx.config.dispute_steps, ctx.config.fault_position,
        challenger=_CHALLENGER, defender=_PROPOSER,
    )
    slashed = 0
    if game.winner == dispute_mod.CHALLENGER:
        slashed = oracle.invalidate(tip)
    else:
        ctx.violations.append("dispute: honest challenger failed to win")
    ctx.log("dispute_resolved", winner=game.winner, rounds=game.rounds, stake_slashed=slashed)
    return {"played": True, "winner": game.winner, "rounds": game.rounds, "stake_slashed": slashed}


def _propose_and_finalize(
    ctx: _Run, wportal: WithdrawalPortal, executed: ExecutedChain, landed: list[WithdrawalTx],
    tip: int, epoch: int,
) -> dict:
    """Propose the honest root; finalize each withdrawal a second early (refused), then on time."""
    output, oracle = executed.output, wportal.oracle
    proposal = oracle.propose(_PROPOSER, output.output_root, tip, stake=MIN_STAKE)
    ctx.log("output_proposed", root=output.output_root.hex(), fraudulent=False)
    on_time = proposal.timestamp + ctx.config.dispute_period
    initiated_at = ctx.chain.blocks[epoch].timestamp
    latencies: dict[str, dict] = {}
    for wtx in landed:
        proof, withdrawal = executed.state.withdrawal_proof(wtx.hash), wtx.hash.hex()
        try:
            wportal.finalize_withdrawal(wtx, tip, output, proof, now=on_time - 1)
            ctx.violations.append("withdrawal finalized before the dispute period elapsed")
        except WithdrawalError as exc:
            ctx.log("finalize_rejected", time=on_time - 1, reason=str(exc), withdrawal=withdrawal)
        try:
            receipt = wportal.finalize_withdrawal(wtx, tip, output, proof, now=on_time)
        except WithdrawalError as exc:
            ctx.log("finalize_rejected", time=on_time, reason=str(exc), withdrawal=withdrawal)
            continue
        ctx.log("withdrawal_finalized", time=on_time, withdrawal=withdrawal,
                value=receipt["value"])
        latencies[withdrawal] = {
            "initiated_at": initiated_at, "finalized_at": on_time, "seconds": on_time - initiated_at,
        }
    return latencies
