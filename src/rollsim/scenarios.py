"""Deterministic end-to-end scenarios and their reports.

A scenario config fully determines a run: one seed feeds named substreams,
the clock is the simulated chain's, and the report serializes with sorted
keys, so regenerating a run yields byte-identical output.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field as dataclass_field

from . import __version__
from .algebra import PairingGroup, DEFAULT_PRIME, is_prime
from .hashing import keccak256
from .l1sim import Chain
from .costbench import DaScenario, da_cost_comparison, synthetic_batch_corpus, compression_stats
from .oprollup import batching, dispute as dispute_mod
from .oprollup.deposits import GUARANTEED_GAS_CAP, GuaranteedGasExhausted, OptimismPortal
from .oprollup.derivation import (
    BATCH_INBOX_ADDRESS,
    DerivationConfig,
    derive,
    execute_chain,
    transfer_tx,
    withdraw_tx,
)
from .oprollup.l2 import WithdrawalTx
from .oprollup.withdrawals import (
    DISPUTE_PERIOD,
    L2OutputOracle,
    WithdrawalError,
    WithdrawalPortal,
)
from .validityrollup.cairo import INSTRUCTION_BITS, run_program, sqrt_program
from .validityrollup.messaging import (
    StarkNetCore,
    ValidityL2State,
    dispatch_l1_handler,
    selector_from_name,
    send_message_to_l1,
    starkgate_withdraw_payload,
)
from .validityrollup.settlement import (
    SettlementMessages,
    SharpProver,
    prove_transition,
    settle,
)
from .validityrollup.statediff import encode_state_diff


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
        # timestamps and fees are encoded as fixed-width words
        if not 1 <= self.block_time < 1 << 32:
            raise ConfigError("block_time: must lie in [1, 2^32) seconds")
        if not 1 <= self.basefee < 1 << 128:
            raise ConfigError("basefee: must lie in [1, 2^128) wei")
        if self.dispute_period < 0:
            raise ConfigError("dispute_period: must be non-negative")
        if self.max_frame_bytes < 1:
            raise ConfigError("max_frame_bytes: must be at least 1")
        if self.proof_cadence_blocks < 1:
            raise ConfigError("proof_cadence_blocks: must be at least 1")
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
        return json.dumps(asdict(self), sort_keys=True)

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
        return keccak256(self.to_json().encode()).hex()

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
        return json.dumps(
            {
                "version": self.version,
                "config_hash": self.config_hash,
                "timeline": self.timeline,
                "gas": self.gas,
                "dispute": self.dispute,
                "withdrawal_latencies": self.withdrawal_latencies,
                "cost": self.cost,
                "invariant_violations": self.invariant_violations,
            },
            sort_keys=True,
        )

    def report_hash(self) -> str:
        return keccak256(self.to_json().encode()).hex()

    @property
    def ok(self) -> bool:
        return not self.invariant_violations


class _Timeline:
    def __init__(self):
        self.entries: list[dict] = []

    def log(self, time: int, block: int, event: str, **details) -> None:
        entry = {"time": time, "block": block, "event": event}
        entry.update({k: v for k, v in sorted(details.items())})
        self.entries.append(entry)


def run(config: ScenarioConfig) -> RunReport:
    """Execute a scenario; the report is a pure function of the config."""
    config.validate()
    if config.rollup == "optimistic":
        return _run_optimistic(config)
    return _run_validity(config)


# --- optimistic --------------------------------------------------------------------


def _dispute_fixture(config: ScenarioConfig):
    """A VM execution standing in for the challenged block's trace."""
    program = [
        dispute_mod.Instruction(dispute_mod.OP_ADD, 1, 2, 1),
        dispute_mod.Instruction(dispute_mod.OP_MUL, 1, 2, 3),
        dispute_mod.Instruction(dispute_mod.OP_STORE, 0, 3),
        dispute_mod.Instruction(dispute_mod.OP_ADD, 0, 4, 0),
        dispute_mod.Instruction(dispute_mod.OP_JUMPZ, 5, 0),
    ]
    runner = dispute_mod.VmRunner(
        program, memory_size=64, initial_registers=(0, 1, 3, 0, 1, 0, 0, 0)
    )
    trace = runner.run_trace(config.dispute_steps)
    return program, trace


def _run_optimistic(config: ScenarioConfig) -> RunReport:
    timeline = _Timeline()
    violations: list[str] = []
    chain = Chain(basefee=config.basefee, block_time=config.block_time)
    portal = OptimismPortal(chain)
    proposer = 0xA11CE
    challenger = 0xB0B
    oracle = L2OutputOracle(
        chain, proposers={proposer}, dispute_period=config.dispute_period
    )
    wportal = WithdrawalPortal(chain, oracle)

    # deposits through the portal from block 0 on; a deposit that would push
    # the forming block past its guaranteed L2 gas goes into the next block
    for dep in config.deposits:
        gas_limit = dep.get("gas_limit", 100_000)
        used = portal.guaranteed_gas_in_block(chain.pending_block_number)
        if used and used + gas_limit > GUARANTEED_GAS_CAP:
            chain.mine_block()
        try:
            _, burned = portal.deposit_transaction(
                caller=dep["user"],
                caller_is_contract=False,
                to=dep["user"],
                value=dep["value"],
                gas_limit=gas_limit,
                is_creation=False,
                data=b"",
                l2_basefee=1,
                l1_basefee=config.basefee,
            )
        except GuaranteedGasExhausted as exc:  # more gas than a whole block guarantees
            timeline.log(
                chain.pending_timestamp, chain.pending_block_number, "deposit_rejected",
                user=dep["user"], value=dep["value"], reason=str(exc),
            )
            continue
        timeline.log(
            chain.pending_timestamp, chain.pending_block_number, "deposit",
            user=dep["user"], value=dep["value"], burned_gas=burned,
        )
    chain.mine_block()
    epoch = chain.pending_block_number  # the block after the last deposit block
    chain.mine_block()

    # sequencer: transfers and withdrawal initiations for that epoch
    txs = [transfer_tx(t["user"], t["target"], t["value"]) for t in config.transfers]
    # (sender, target, value, gas_limit) of each configured withdrawal
    wanted = [
        (w["user"], w.get("target", w["user"]), w["value"], w.get("gas_limit", 21_000))
        for w in config.withdrawals
    ]
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
        frames = batching.split_frames(channel, config.max_frame_bytes)
        order = list(range(len(frames)))
        config.rng("frames").shuffle(order)
        for i in order:
            receipt = chain.submit_tx(
                sender=0x5E9, to=BATCH_INBOX_ADDRESS, calldata=frames[i].encode()
            )
            da_bytes += len(frames[i].encode())
            timeline.log(
                chain.pending_timestamp, chain.pending_block_number, "frame_posted",
                frame=frames[i].frame_number, gas=receipt.gas_used,
            )
    chain.mine_block()
    for _ in range(config.window):
        chain.mine_block()  # flush the sequencing window

    l2_blocks = derive(chain, config.window, DerivationConfig())
    executed = execute_chain(l2_blocks)
    timeline.log(
        chain.pending_timestamp, chain.pending_block_number, "derived",
        l2_blocks=len(l2_blocks),
    )
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
            timeline.log(
                chain.pending_timestamp, chain.pending_block_number,
                "withdrawal_not_initiated", user=fields[0], value=fields[2],
            )

    tip = l2_blocks[-1].number if l2_blocks else 0
    honest_proof = executed.roots_by_block[tip]
    honest_root = honest_proof.output_root

    dispute_report: dict = {"played": False}
    if config.planted_fraud:
        bad_root = keccak256(b"fraud" + honest_root)
        oracle.propose(proposer, bad_root, tip, stake=oracle.min_stake)
        timeline.log(
            chain.pending_timestamp, chain.pending_block_number, "output_proposed",
            root=bad_root.hex(), fraudulent=True,
        )
        program, trace = _dispute_fixture(config)
        faulty = dispute_mod.FaultyAgent(trace, config.fault_position)
        params = dispute_mod.GameParams(program=program, memory_size=64)
        game = dispute_mod.dispute_open(
            params,
            challenger=challenger,
            defender=proposer,
            claimed_final_state=faulty.state_hash(trace.length),
            trace_length=trace.length,
            agreed_start_hash=trace.hashes[0],
        )
        winner = dispute_mod.run_dispute(
            game, defender_agent=faulty, challenger_agent=dispute_mod.HonestAgent(trace)
        )
        slashed = 0
        if winner == dispute_mod.CHALLENGER:
            slashed = oracle.invalidate(tip)
        else:
            violations.append("dispute: honest challenger failed to win")
        dispute_report = {
            "played": True,
            "winner": winner,
            "rounds": game.rounds,
            "stake_slashed": slashed,
        }
        timeline.log(
            chain.pending_timestamp, chain.pending_block_number, "dispute_resolved",
            winner=winner, rounds=game.rounds, stake_slashed=slashed,
        )
    proposal = oracle.propose(proposer, honest_root, tip, stake=oracle.min_stake)
    timeline.log(
        proposal.timestamp, chain.pending_block_number, "output_proposed",
        root=honest_root.hex(), fraudulent=False,
    )

    latencies: dict[str, dict] = {}
    for wtx in landed:
        proof = executed.state.withdrawal_proof(wtx.hash)
        early = proposal.timestamp + config.dispute_period - 1
        try:
            wportal.finalize_withdrawal(wtx, tip, honest_proof, proof, now=early)
            violations.append("withdrawal finalized before the dispute period elapsed")
        except WithdrawalError as exc:
            timeline.log(early, chain.pending_block_number, "finalize_rejected",
                         reason=str(exc), withdrawal=wtx.hash.hex())
        on_time = proposal.timestamp + config.dispute_period
        try:
            receipt = wportal.finalize_withdrawal(wtx, tip, honest_proof, proof, now=on_time)
        except WithdrawalError as exc:
            timeline.log(on_time, chain.pending_block_number, "finalize_rejected",
                         reason=str(exc), withdrawal=wtx.hash.hex())
            continue
        timeline.log(on_time, chain.pending_block_number, "withdrawal_finalized",
                     withdrawal=wtx.hash.hex(), value=receipt["value"])
        latencies[wtx.hash.hex()] = {
            "initiated_at": chain.blocks[epoch].timestamp,
            "finalized_at": on_time,
            "seconds": on_time - chain.blocks[epoch].timestamp,
        }

    corpus = synthetic_batch_corpus(seed=config.seed + 7)
    stats = compression_stats(corpus, group_size=len(corpus))
    report = RunReport(
        version=__version__,
        config_hash=config.config_hash(),
        timeline=timeline.entries,
        gas={
            "l1_blocks": len(chain.blocks),
            "total_gas_used": sum(b.gas_used for b in chain.blocks),
            "da_bytes_posted": da_bytes,
        },
        dispute=dispute_report,
        withdrawal_latencies=latencies,
        cost={
            "corpus_raw_gas": stats.total_raw_gas,
            "corpus_compressed_gas": stats.total_compressed_gas,
            "corpus_gas_ratio": round(stats.gas_ratio, 6),
        },
        invariant_violations=violations,
    )
    return report


# --- validity ----------------------------------------------------------------------

L1_BRIDGE_ADDRESS = 0x90000000000000000000000000000000000000D1
L2_BRIDGE_ADDRESS = 0x2222


class _StarkGateL1:
    """L1 side of the token bridge; anyone can finalize any withdrawal."""

    def __init__(self, chain: Chain, core: StarkNetCore, address: int = L1_BRIDGE_ADDRESS):
        self.chain = chain
        self.core = core
        self.address = address
        chain.register_contract(address, self)

    def withdraw(self, amount: int, recipient: int) -> bytes:
        payload = tuple(starkgate_withdraw_payload(recipient, amount))
        msg_hash = self.core.consume_message_from_l2(
            from_address=L2_BRIDGE_ADDRESS, payload=payload, caller=self.address
        )
        self.chain.fund(recipient, amount)
        return msg_hash


def _run_validity(config: ScenarioConfig) -> RunReport:
    timeline = _Timeline()
    violations: list[str] = []
    chain = Chain(basefee=config.basefee, block_time=config.block_time)
    core = StarkNetCore(chain)
    gate = _StarkGateL1(chain, core)
    prover = SharpProver(PairingGroup(config.group_order), config.rng("snark-setup"))
    l2 = ValidityL2State()

    balance_key = lambda user: user  # storage key for a user's bridged balance

    def deposit_handler(from_address: int, user: int, amount: int) -> None:
        assert from_address == L1_BRIDGE_ADDRESS, "deposit from unexpected L1 contract"
        current = l2.storage_read(L2_BRIDGE_ADDRESS, balance_key(user))
        l2.storage_write(L2_BRIDGE_ADDRESS, balance_key(user), current + amount)

    deposit_selector = l2.register_handler(L2_BRIDGE_ADDRESS, "deposit", deposit_handler)

    # deposits: L1 -> L2 messages with escrowed fees
    pending_messages = []
    for dep in config.deposits:
        msg_hash, message = core.send_message_to_l2(
            caller=L1_BRIDGE_ADDRESS,
            to_address=L2_BRIDGE_ADDRESS,
            selector=deposit_selector,
            payload=(dep["user"], dep["value"]),
            fee=dep.get("fee", 10_000),
        )
        pending_messages.append(message)
        timeline.log(chain.pending_timestamp, chain.pending_block_number,
                     "message_to_l2", hash=msg_hash.hex(), value=dep["value"])
    chain.mine_block()

    # the sequencer executes the deposits and the L2 workload
    for message in pending_messages:
        dispatch_l1_handler(l2, message)
    for t in config.transfers:
        src = l2.storage_read(L2_BRIDGE_ADDRESS, balance_key(t["user"]))
        if src < t["value"]:
            continue
        l2.storage_write(L2_BRIDGE_ADDRESS, balance_key(t["user"]), src - t["value"])
        dst = l2.storage_read(L2_BRIDGE_ADDRESS, balance_key(t["target"]))
        l2.storage_write(L2_BRIDGE_ADDRESS, balance_key(t["target"]), dst + t["value"])
    withdrawal_messages = []
    initiated_block = chain.pending_block_number
    for w in config.withdrawals:
        balance = l2.storage_read(L2_BRIDGE_ADDRESS, balance_key(w["user"]))
        if balance < w["value"]:
            timeline.log(chain.pending_timestamp, chain.pending_block_number,
                         "withdrawal_not_initiated", user=w["user"], value=w["value"])
            continue
        l2.storage_write(L2_BRIDGE_ADDRESS, balance_key(w["user"]), balance - w["value"])
        payload = tuple(starkgate_withdraw_payload(w.get("target", w["user"]), w["value"]))
        send_message_to_l1(l2, L2_BRIDGE_ADDRESS, L1_BRIDGE_ADDRESS, payload)
        withdrawal_messages.append((w, payload))
        timeline.log(chain.pending_timestamp, chain.pending_block_number,
                     "withdrawal_initiated", user=w["user"], value=w["value"])
    for _ in range(config.proof_cadence_blocks - 1):
        chain.mine_block()

    # prove and settle the accumulated transition
    trace = run_program(
        sqrt_program(25), prog_base=10_000, ap_initial=20_000, prime=config.field_prime
    )
    diff = l2.drain_pending_diff()
    diff_words = encode_state_diff(diff)
    messages = SettlementMessages(
        consumed_l1_to_l2=tuple(l2.consumed_inbox),
        sent_l2_to_l1=tuple(l2.outbox),
    )
    proof = prove_transition(core.state_root, diff, trace, prover, messages)
    new_root = settle(core, prover, proof, diff_words, messages)
    settle_block = chain.pending_block_number
    timeline.log(chain.pending_timestamp, settle_block, "proof_settled",
                 root=new_root.hex(), diff_words=len(diff_words))
    chain.mine_block()

    latencies: dict[str, dict] = {}
    for w, payload in withdrawal_messages:
        recipient = w.get("target", w["user"])
        msg_hash = gate.withdraw(w["value"], recipient)
        consume_block = chain.pending_block_number
        timeline.log(chain.pending_timestamp, consume_block, "withdrawal_consumed",
                     hash=msg_hash.hex(), value=w["value"])
        if consume_block != settle_block + 1:
            violations.append("withdrawal not consumable in the block after settlement")
        latencies[msg_hash.hex()] = {
            "initiated_block": initiated_block,
            "consumed_block": consume_block,
            "blocks": consume_block - initiated_block,
            "seconds": (consume_block - initiated_block) * config.block_time,
        }
    chain.mine_block()

    cost_report = da_cost_comparison(DaScenario(diff=diff)) if diff.storage else None
    report = RunReport(
        version=__version__,
        config_hash=config.config_hash(),
        timeline=timeline.entries,
        gas={
            "l1_blocks": len(chain.blocks),
            "total_gas_used": sum(b.gas_used for b in chain.blocks),
            "diff_words_published": len(diff_words),
        },
        dispute={"played": False},
        withdrawal_latencies=latencies,
        cost=json.loads(cost_report.to_json()) if cost_report else {},
        invariant_violations=violations,
    )
    return report
