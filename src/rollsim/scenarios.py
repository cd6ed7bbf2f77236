"""Deterministic end-to-end scenarios and their reports.

A scenario config fully determines a run: one seed feeds named substreams,
the clock is the simulated chain's, and the report serializes with sorted
keys, so regenerating a run yields byte-identical output.

Each rollup package owns its scenario: ``oprollup.scenario`` and
``validityrollup.scenario``. ``run`` imports only the one a config asks for,
so importing this module loads neither stack, a validity run never loads
the optimistic one (``merkle``, ``rlp`` and the ``oprollup`` modules), and
an optimistic run never loads the validity one (``costbench``, ``snark`` and
the ``validityrollup`` modules). This module keeps what both share: the
config and its validation, the report, and the run context the phases write
through.
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
from .l1sim import Chain
from .oprollup import DISPUTE_PERIOD
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
_WORKLOAD_KEY_BOUNDS = {key: 1 << bits for key, bits in _WORKLOAD_KEY_BITS.items()}

# upper bounds of the fields a run's length grows with: blocks mined to flush
# the sequencing window, blocks per validity proof, and dispute trace steps;
# at each bound a run of the CLI's default workload takes at most about a second
MAX_WINDOW = 256
MAX_PROOF_CADENCE_BLOCKS = 1024
MAX_DISPUTE_STEPS = 1 << 18


def _type_mismatch(expected: type, value) -> str | None:
    """What is wrong unless ``value`` is an ``expected``; a bool is no int."""
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        return f"expected {expected.__name__}, got {type(value).__name__}"


@dataclass
class ScenarioConfig:
    """Everything a run depends on. ``from_json`` parses one, ``validate``
    refuses a malformed one with a ``ConfigError`` naming the field path,
    and ``scenarios.run`` calls ``validate`` before it runs anything."""

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
        """Raise a ``ConfigError`` naming the first field path at fault:
        a type, a range, a prime, or a workload item's keys and values."""
        for name, spec in self.__dataclass_fields__.items():
            if mismatch := _type_mismatch(_FIELD_TYPES[spec.type], getattr(self, name)):
                raise ConfigError(f"{name}: {mismatch}")
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
        primes = ("field_prime", "group_order")
        for name in primes if self.group_order != self.field_prime else primes[:1]:
            if not is_prime(getattr(self, name)):
                raise ConfigError(f"{name}: {getattr(self, name)} is not prime")
        if self.field_prime.bit_length() <= INSTRUCTION_BITS:
            raise ConfigError(
                f"field_prime: must exceed 2^{INSTRUCTION_BITS}, the Cairo instruction width"
            )
        for section, (required, optional) in _WORKLOAD_KEYS.items():
            allowed = {*required, *optional}
            for i, item in enumerate(getattr(self, section)):
                if not isinstance(item, dict):
                    raise ConfigError(f"{section}[{i}]: expected an object, got {type(item).__name__}")
                if not item.keys() <= allowed:
                    unknown = sorted(item.keys() - allowed, key=repr)
                    raise ConfigError(f"{section}[{i}]: unknown keys {unknown}")
                for key in required:
                    if key not in item:
                        raise ConfigError(f"{section}[{i}].{key}: missing")
                for key, value in item.items():
                    # a plain int needs no check; anything else, bool and
                    # int subclasses included, gets the general one
                    if type(value) is not int and (mismatch := _type_mismatch(int, value)):
                        raise ConfigError(f"{section}[{i}].{key}: {mismatch}")
                    if not 0 <= value < _WORKLOAD_KEY_BOUNDS[key]:
                        raise ConfigError(
                            f"{section}[{i}].{key}: must lie in [0, 2^{_WORKLOAD_KEY_BITS[key]})"
                        )

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioConfig":
        """Parse ``payload`` into a config without checking its values,
        which ``validate`` does. Text that is not JSON, JSON nested too
        deeply, a value that is not an object and unknown fields are
        ``ConfigError``s here, since no config can hold them."""
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
        return cls(**raw)

    def config_hash(self) -> str:
        """FIPS-202 SHA3-256 of ``to_json()``: a provenance tag that no
        simulated contract reads, so it stays off the model's Keccak-256."""
        return hashlib.sha3_256(self.to_json().encode()).hexdigest()

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{stream}")


@dataclass
class RunReport:
    """What a run reports; ``to_json`` is byte-identical across reruns."""

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
        # the pending block's number and, as ``Chain.pending_timestamp`` has it, its time
        block = len(self.chain.blocks)
        entry = {"time": block * self.chain.block_time if time is None else time,
                 "block": block, "event": event}
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
    """Validate ``config``, then execute it; the report is a pure function
    of the config. Every path that runs a config, the CLI's included,
    checks it here and only here.

    Given a ``profile`` list, append one ``PhaseCost`` per phase and a last
    one for building the report; their permutations sum to the run's. The
    run hashes inside one ``hashing.run_memo()`` block, so a party that
    re-checks bytes another party hashed reads the first digest, and a
    prefetched digest waits there for the read that asks for it.
    """
    config.validate()
    ctx = _Run(config, profile)
    with hashing.run_memo():
        if config.rollup == "optimistic":
            from .oprollup.scenario import run_optimistic

            return run_optimistic(ctx)
        from .validityrollup.scenario import run_validity

        return run_validity(ctx)
