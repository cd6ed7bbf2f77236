"""State-diff calldata encoding: the validity rollup's data-availability format.

Published word layout:
  [deployment-section word count,
   per deployment: contract_address, contract_hash, len(args), args...,
   modified-contract count,
   per contract: contract_address, num_of_storage_updates, key, value, ...]

All words are unsigned 256-bit integers; reading the published diffs in
order reconstructs the full L2 storage state. Encoding and decoding each
range-check the words they hold once, and a ``MalformedDiff`` names the index
of the first word outside [0, 2^256); both refuse a contract that updates one
key twice.
"""

from __future__ import annotations

from dataclasses import dataclass

WORD_LIMIT = 1 << 256


class MalformedDiff(ValueError):
    """Word sequence does not parse as a state diff."""


@dataclass(frozen=True)
class Deployment:
    contract_address: int
    contract_hash: int
    constructor_args: tuple[int, ...]


@dataclass(frozen=True)
class ContractStorageDiff:
    contract_address: int
    updates: tuple[tuple[int, int], ...]  # (key, value), keys unique


@dataclass(frozen=True)
class StateDiff:
    deployments: tuple[Deployment, ...]
    storage: tuple[ContractStorageDiff, ...]


def _check_range(words: list[int]) -> None:
    for i, w in enumerate(words):
        if not 0 <= w < WORD_LIMIT:
            raise MalformedDiff(f"word {i} ({w}) outside 256-bit range")


def _check_unique_keys(contract_address: int, pairs: list[int]) -> None:
    """Refuse one contract's ``key, value, ...`` words if a key repeats."""
    keys = pairs[::2]
    if len(set(keys)) != len(keys):
        raise MalformedDiff(f"duplicate storage keys for contract {contract_address}")


def encode_state_diff(diff: StateDiff) -> list[int]:
    deployment_words: list[int] = []
    for dep in diff.deployments:
        deployment_words += [
            dep.contract_address,
            dep.contract_hash,
            len(dep.constructor_args),
            *dep.constructor_args,
        ]
    words = [len(deployment_words), *deployment_words, len(diff.storage)]
    for contract in diff.storage:
        pairs = [w for pair in contract.updates for w in pair]
        _check_unique_keys(contract.contract_address, pairs)
        words += [contract.contract_address, len(contract.updates), *pairs]
    _check_range(words)
    return words


def decode_state_diff(words: list[int]) -> StateDiff:
    # counts are read before the words they count are checked: a negative
    # update count would move the cursor backwards, and a negative header
    # would make [-1, 0] decode to the empty diff, whose encoding is [0, 0]
    _check_range(words)

    def take(cursor: int, count: int = 1) -> tuple[list[int], int]:
        if cursor + count > len(words):
            raise MalformedDiff(f"truncated at word {cursor}, need {count} more")
        return words[cursor : cursor + count], cursor + count

    (header,), cursor = take(0)
    deployment_end = cursor + header
    if deployment_end > len(words):
        raise MalformedDiff("deployment section longer than the payload")
    deployments = []
    while cursor < deployment_end:
        (addr,), cursor = take(cursor)
        (chash,), cursor = take(cursor)
        (argc,), cursor = take(cursor)
        if cursor + argc > deployment_end:
            raise MalformedDiff("constructor args overflow the deployment section")
        args, cursor = take(cursor, argc)
        deployments.append(
            Deployment(contract_address=addr, contract_hash=chash,
                       constructor_args=tuple(args))
        )
    (contract_count,), cursor = take(cursor)
    storage = []
    for _ in range(contract_count):
        (addr,), cursor = take(cursor)
        (num_updates,), cursor = take(cursor)
        pairs, cursor = take(cursor, 2 * num_updates)
        _check_unique_keys(addr, pairs)
        storage.append(
            ContractStorageDiff(
                contract_address=addr,
                updates=tuple((pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)),
            )
        )
    if cursor != len(words):
        raise MalformedDiff(f"{len(words) - cursor} trailing words")
    return StateDiff(deployments=tuple(deployments), storage=tuple(storage))


def diff_calldata_bytes(words: list[int]) -> bytes:
    """The published form: each word as 32 big-endian bytes."""
    return b"".join(w.to_bytes(32, "big") for w in words)


def apply_state_diff(state: dict[int, dict[int, int]], diff: StateDiff) -> None:
    """Replay one diff onto a contract-storage map (last write wins)."""
    for contract in diff.storage:
        slots = state.setdefault(contract.contract_address, {})
        for key, value in contract.updates:
            slots[key] = value


# The published calldata vector from a real mainnet state update: one contract,
# ten modified cells, no deployments. Used as a round-trip and gas fixture.
MAINNET_DIFF_VECTOR = [
    0,
    1,
    78012987367078498244736967587441276376014206154405857948822581408104104410721,
    10,
    49437887447255105617199385887980129590299043410906399897274339686664380574960,
    81613196144862953930755284412013485753825942725888221915012079651792110103808,
    77869845672245121662237546936898195077685970774400528945790634750486399986245,
    85558286294651018119282355933772523799565789757486469436870233741200601720903,
    90745439112799995280673958963319809841091902573630903294655608952911237510638,
    49,
    72063704605688213715872376071514311689316615270384662374827175421482880125180,
    39047936296155467891523306114750972410898988810559128988743926746334839389254,
    89821206671539319279995197695429264123175493398319804842575199728181115252599,
    99,
    47475753046911164737671950579172075423187336110653749106497219281656544366808,
    29,
    30594499811872827545153257993174147177746163003834628645239607985359843108205,
    16,
    21230045744089919195261861661020416944848194956527998680880953029066897219408,
    27941555059559098141567348626988165098886309475575494710999032236178114317593,
    83549733318410479614820445166391282086750526240790917555062354500545869380230,
    17,
    70199979574190103393325973797566928885460655906709293378713100338207628138006,
    3702205553337436218648230511058213631110329670271146471049479018502731771592,
]
