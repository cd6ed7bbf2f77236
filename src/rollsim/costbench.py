"""Cost analytics: Bloom sizing, the address cache, compression and DA costs.

Reference figures quoted in reports are published estimates for the mainnet
data vectors shipped with this package; every ratio in a report is recomputed
from its raw fields on access, never stored.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal, ROUND_HALF_UP
from typing import Iterable, Sequence

from .l1sim import calldata_gas, sstore_gas, ZERO_TO_NONZERO
from .validityrollup.statediff import StateDiff, diff_calldata_bytes, encode_state_diff


class InvalidTolerance(ValueError):
    """Target false-positive rate must lie strictly between 0 and 1."""


class NoTransactions(ValueError):
    """Amortization needs at least one transaction."""


# --- Bloom filters ---------------------------------------------------------------


def bloom_params(n: int, p: float) -> tuple[int, int]:
    """Array size and hash count for ``n`` inserts at false-positive rate ``p``.

    m = floor(-n ln p / (ln 2)^2), k = floor((m/n) ln 2); both floored (the
    convention that reproduces the published sizing rows) and clamped to >= 1.
    """
    if not 0.0 < p < 1.0:
        raise InvalidTolerance(f"false-positive rate must be in (0, 1), got {p}")
    if n < 1:
        raise ValueError("expected insert count must be at least 1")
    m = max(1, math.floor(-n * math.log(p) / math.log(2) ** 2))
    k = max(1, math.floor(m / n * math.log(2)))
    return m, k


def fp_rate(m: int, k: int, n: int) -> float:
    """Closed-form false-positive estimate (1 - e^(-kn/m))^k."""
    if min(m, k, n) < 1:
        raise ValueError("m, k, n must all be at least 1")
    return (1.0 - math.exp(-k * n / m)) ** k


class BloomFilter:
    """Bit array with k double-hashed probes; bits are set, never cleared."""

    def __init__(self, m: int, k: int, seed: int = 0):
        if m < 1 or k < 1:
            raise ValueError("m and k must be at least 1")
        self.m = m
        self.k = k
        self.seed = seed
        self.bits = bytearray((m + 7) // 8)
        self.inserted = 0

    @classmethod
    def for_expected(cls, n: int, p: float, seed: int = 0) -> "BloomFilter":
        m, k = bloom_params(n, p)
        return cls(m, k, seed)

    def _probes(self, element: bytes) -> Iterable[int]:
        # h_i(x) = H1(x) + i*H2(x) mod m, with H1 and H2 the two halves of one
        # keyed digest (Kirsch and Mitzenmacher, "Less Hashing, Same
        # Performance", 2006) and H2 forced odd so the probe sequence never
        # degenerates
        key = self.seed.to_bytes(8, "big")
        digest = hashlib.blake2b(element, key=key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        for i in range(self.k):
            yield (h1 + i * h2) % self.m

    def insert(self, element: bytes) -> None:
        for bit in self._probes(element):
            self.bits[bit // 8] |= 1 << (bit % 8)
        self.inserted += 1

    def query(self, element: bytes) -> bool:
        """True = maybe-present, False = definitely-absent."""
        return all(self.bits[bit // 8] >> (bit % 8) & 1 for bit in self._probes(element))


# --- address cache -----------------------------------------------------------------

CACHE_CAPACITY = (1 << 32) - 1


class CacheError(ValueError):
    """Cache misuse; message matches the contract's revert string."""


class AddressCache:
    """Value-to-dense-key lookup table; key 0 is reserved for "not found"."""

    def __init__(self, capacity: int = CACHE_CAPACITY):
        self.capacity = capacity
        self.value_to_key: dict[int, int] = {}
        self.key_to_value: list[int] = []

    def write(self, value: int) -> int:
        if len(self.key_to_value) >= self.capacity:
            raise CacheError("cache is full")
        if value in self.value_to_key:
            raise CacheError("address already cached")
        key = len(self.key_to_value) + 1  # keys start from 1; 0 means "not found"
        self.value_to_key[value] = key
        self.key_to_value.append(value)
        return key

    def read(self, key: int) -> int:
        if not 1 <= key <= len(self.key_to_value):
            raise CacheError("key not found")
        return self.key_to_value[key - 1]

    def lookup(self, value: int) -> int:
        """Key for a cached value, or 0 when absent."""
        return self.value_to_key.get(value, 0)


def cache_calldata_savings(full_bytes: int = 20, key_bytes: int = 4) -> float:
    """Fraction of argument calldata saved by passing the cache key instead."""
    return 1.0 - key_bytes / full_bytes


# --- compression statistics ----------------------------------------------------------


@dataclass(frozen=True)
class GroupStats:
    raw_bytes: int
    compressed_bytes: int
    raw_gas: int
    compressed_gas: int


@dataclass(frozen=True)
class CompressionStats:
    group_size: int
    groups: tuple[GroupStats, ...]

    @property
    def total_raw_bytes(self) -> int:
        return sum(g.raw_bytes for g in self.groups)

    @property
    def total_compressed_bytes(self) -> int:
        return sum(g.compressed_bytes for g in self.groups)

    @property
    def total_raw_gas(self) -> int:
        return sum(g.raw_gas for g in self.groups)

    @property
    def total_compressed_gas(self) -> int:
        return sum(g.compressed_gas for g in self.groups)

    @property
    def byte_ratio(self) -> float:
        return self.total_compressed_bytes / self.total_raw_bytes

    @property
    def gas_ratio(self) -> float:
        return self.total_compressed_gas / self.total_raw_gas


def compression_stats(corpus: Sequence[bytes], group_size: int) -> CompressionStats:
    """Compress the corpus in groups of ``group_size`` batches and price both forms.

    Ratios above 1 are reported as they come: incompressible input costs more
    compressed, and the numbers say so.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    groups = []
    for start in range(0, len(corpus), group_size):
        blob = b"".join(corpus[start : start + group_size])
        compressed = zlib.compress(blob)
        groups.append(
            GroupStats(
                raw_bytes=len(blob),
                compressed_bytes=len(compressed),
                raw_gas=calldata_gas(blob),
                compressed_gas=calldata_gas(compressed),
            )
        )
    return CompressionStats(group_size=group_size, groups=tuple(groups))


def synthetic_batch_corpus(n_batches: int = 10, seed: int = 1337) -> list[bytes]:
    """Deterministic transfer-shaped calldata: repetitive fields, zero padding.

    Stands in for real block data, which this package does not fetch; gives
    compression something realistic to chew on.
    """
    import random as random_module

    rng = random_module.Random(seed)
    addresses = [rng.randbytes(20) for _ in range(12)]
    batches = []
    for _ in range(n_batches):
        txs = []
        for _ in range(40):  # transfers per batch
            sender = rng.choice(addresses)
            receiver = rng.choice(addresses)
            value = rng.randrange(10**6)
            txs.append(
                b"\xa9\x05\x9c\xbb"  # transfer-style 4-byte method id
                + sender.rjust(32, b"\x00")
                + receiver.rjust(32, b"\x00")
                + value.to_bytes(32, "big")
            )
        batches.append(b"".join(txs))
    return batches


def save_corpus(path, corpus: Sequence[bytes]) -> None:
    with open(path, "w") as fh:
        for batch in corpus:
            fh.write(batch.hex() + "\n")


def load_corpus(path) -> list[bytes]:
    with open(path) as fh:
        return [bytes.fromhex(line.strip()) for line in fh if line.strip()]


# --- amortization and the DA comparison ------------------------------------------------

# Published estimates for the shipped mainnet diff vector and its block
REFERENCE_DIFF_CALLDATA_GAS = 9240
REFERENCE_L1_STORAGE_GAS = 221_000
REFERENCE_RATIO_PERCENT = 4.18
REFERENCE_PROOF_GAS = 267_830
REFERENCE_PROOF_TX_COUNT = 200


def amortized_proof_cost(total_gas: int, tx_count: int) -> Decimal:
    """Exact per-transaction share of a proof's gas, to two decimals."""
    if tx_count < 1:
        raise NoTransactions("cannot amortize over zero transactions")
    return (Decimal(total_gas) / Decimal(tx_count)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )


def overwrite_amortization(single_write_gas: int, overwrites: int) -> Decimal:
    """Per-write cost when a cell is rewritten n times between publications."""
    if overwrites < 1:
        raise ValueError("overwrites must be at least 1")
    return (Decimal(single_write_gas) / Decimal(overwrites)).quantize(Decimal("0.01"))


@dataclass(frozen=True)
class DaScenario:
    """Inputs for the three-way data-availability cost comparison."""

    diff: StateDiff
    optimistic_batches: tuple[bytes, ...] = ()


@dataclass(frozen=True)
class CostReport:
    """Raw gas figures per stack; every ratio is a derived property."""

    l1_storage_gas: int
    validity_calldata_gas: int
    validity_proof_share: Decimal
    optimistic_raw_gas: int
    optimistic_compressed_gas: int
    write_count: int
    reference: dict = dataclass_field(default_factory=dict)

    @property
    def validity_ratio_percent(self) -> float:
        return 100.0 * self.validity_calldata_gas / self.l1_storage_gas

    @property
    def optimistic_ratio_percent(self) -> float:
        if not self.optimistic_raw_gas:
            return 0.0
        return 100.0 * self.optimistic_compressed_gas / self.optimistic_raw_gas

    def to_json(self) -> str:
        return json.dumps(
            {
                "l1_storage_gas": self.l1_storage_gas,
                "validity_calldata_gas": self.validity_calldata_gas,
                "validity_proof_share": str(self.validity_proof_share),
                "validity_ratio_percent": round(self.validity_ratio_percent, 4),
                "optimistic_raw_gas": self.optimistic_raw_gas,
                "optimistic_compressed_gas": self.optimistic_compressed_gas,
                "optimistic_ratio_percent": round(self.optimistic_ratio_percent, 4),
                "write_count": self.write_count,
                "reference": self.reference,
            },
            sort_keys=True,
        )

    def to_text(self) -> str:
        rows = [
            ("L1 native storage writes", f"{self.l1_storage_gas} gas"),
            ("validity rollup calldata", f"{self.validity_calldata_gas} gas"),
            ("validity proof share/tx", f"{self.validity_proof_share} gas"),
            ("validity/L1 ratio", f"{self.validity_ratio_percent:.2f}%"),
            ("optimistic raw calldata", f"{self.optimistic_raw_gas} gas"),
            ("optimistic compressed", f"{self.optimistic_compressed_gas} gas"),
        ]
        for key, value in sorted(self.reference.items()):
            rows.append((f"reference {key}", str(value)))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def da_cost_comparison(scenario: DaScenario) -> CostReport:
    """Price the same storage writes on L1, as a state diff, and as batches.

    Every L1 write is a cold zero-to-nonzero store, and the proof share
    amortizes the published proof's gas over its transaction count.

    The optimistic stack carries no invalidity-proof share: in the honest
    equilibrium none are ever published.
    """
    write_count = sum(len(c.updates) for c in scenario.diff.storage)
    l1_gas = write_count * sstore_gas(ZERO_TO_NONZERO, cold=True)
    words = encode_state_diff(scenario.diff)
    validity_gas = calldata_gas(diff_calldata_bytes(words))
    if scenario.optimistic_batches:
        stats = compression_stats(list(scenario.optimistic_batches), len(scenario.optimistic_batches))
        opt_raw, opt_comp = stats.total_raw_gas, stats.total_compressed_gas
    else:
        opt_raw = opt_comp = 0
    return CostReport(
        l1_storage_gas=l1_gas,
        validity_calldata_gas=validity_gas,
        validity_proof_share=amortized_proof_cost(
            REFERENCE_PROOF_GAS, REFERENCE_PROOF_TX_COUNT
        ),
        optimistic_raw_gas=opt_raw,
        optimistic_compressed_gas=opt_comp,
        write_count=write_count,
        reference={
            "diff_calldata_gas": REFERENCE_DIFF_CALLDATA_GAS,
            "l1_storage_gas": REFERENCE_L1_STORAGE_GAS,
            "ratio_percent": REFERENCE_RATIO_PERCENT,
        },
    )
