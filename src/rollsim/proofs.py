"""Probabilistic and interactive proof primitives.

Freivalds' matrix-product check, polynomial fingerprinting for string
equality, the Schnorr sigma protocol (with its knowledge extractor and
zero-knowledge simulator), transcript hashing for the Fiat-Shamir transform,
and a Monte Carlo harness for completeness/soundness error estimation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple, Sequence

from .algebra import Field, FieldElement
from .hashing import keccak256


class ShapeMismatch(ValueError):
    """Matrix dimensions disagree."""


class FieldTooSmall(ValueError):
    """Fingerprinting field cannot carry the message."""


class MalformedTranscript(ValueError):
    """Transcript does not have the expected message shape."""


class CannotExtract(ValueError):
    """Extraction requires two transcripts with equal commitment, distinct challenges."""


class NoTrials(ValueError):
    """Error estimation needs at least one trial."""


@dataclass
class Transcript:
    """Append-only ordered log of (sender role, message bytes)."""

    entries: list[tuple[str, bytes]] = dataclass_field(default_factory=list)

    def append(self, role: str, message: bytes) -> None:
        self.entries.append((role, bytes(message)))

    def __len__(self) -> int:
        return len(self.entries)

    def message(self, index: int) -> bytes:
        return self.entries[index][1]

    def prefix_bytes(self) -> bytes:
        """Length-framed serialization of every message so far."""
        chunks = []
        for role, msg in self.entries:
            role_b = role.encode()
            chunks.append(bytes([len(role_b)]) + role_b + len(msg).to_bytes(4, "big") + msg)
        return b"".join(chunks)

    def to_json(self) -> str:
        return json.dumps([{"role": r, "hex": m.hex()} for r, m in self.entries])

    @classmethod
    def from_json(cls, payload: str) -> "Transcript":
        t = cls()
        for entry in json.loads(payload):
            t.append(entry["role"], bytes.fromhex(entry["hex"]))
        return t


@dataclass(frozen=True)
class ProtocolOutcome:
    accepted: bool
    transcript: Transcript


# --- Freivalds --------------------------------------------------------------

Matrix = Sequence[Sequence[int]]


def freivalds_verify(
    a: Matrix, b: Matrix, c: Matrix, repetitions: int, rng, field: Field
) -> bool:
    """Probabilistically check C = A*B over ``field`` in O(n^2) per repetition.

    Always accepts a true product; a wrong product survives each repetition
    with probability at most ~1/|F|.
    """
    n = len(a)
    for m in (a, b, c):
        if len(m) != n or any(len(row) != n for row in m):
            raise ShapeMismatch("Freivalds requires three equal n-by-n matrices")
    p = field.prime
    for _ in range(max(1, repetitions)):
        r = [rng.randrange(p) for _ in range(n)]
        br = [sum(b[i][j] * r[j] for j in range(n)) % p for i in range(n)]
        abr = [sum(a[i][j] * br[j] for j in range(n)) % p for i in range(n)]
        cr = [sum(c[i][j] * r[j] for j in range(n)) % p for i in range(n)]
        if abr != cr:
            return False
    return True


# --- fingerprinting ---------------------------------------------------------

ASCII_ALPHABET = 128


def fingerprint(
    message: bytes, r: FieldElement, alphabet_size: int = ASCII_ALPHABET
) -> FieldElement:
    """Evaluate the message's coefficient polynomial at ``r``: sum a_i * r^(i-1)."""
    field = r.field
    n = len(message)
    if field.prime < max(alphabet_size, n * n):
        raise FieldTooSmall(
            f"prime {field.prime} < max(alphabet {alphabet_size}, n^2 = {n * n})"
        )
    if any(sym >= alphabet_size for sym in message):
        raise FieldTooSmall(f"message symbol outside alphabet of size {alphabet_size}")
    acc = field.zero
    power = field.one
    for sym in message:
        acc = acc + power * sym
        power = power * r
    return acc


def fingerprint_equal_protocol(
    a: bytes, b: bytes, rng, field: Field, alphabet_size: int = ASCII_ALPHABET
) -> ProtocolOutcome:
    """One-round equality test exchanging exactly two field elements (r, v)."""
    transcript = Transcript()
    r = field.random(rng)
    v = fingerprint(a, r, alphabet_size)
    transcript.append("alice", r.value.to_bytes(32, "big"))
    transcript.append("alice", v.value.to_bytes(32, "big"))
    accepted = fingerprint(b, r, alphabet_size) == v
    transcript.append("bob", b"EQUAL" if accepted else b"NON-EQUAL")
    return ProtocolOutcome(accepted=accepted, transcript=transcript)


# --- Schnorr ----------------------------------------------------------------


@dataclass(frozen=True)
class SchnorrGroup:
    """Prime-order-q subgroup of Z_p^*, generated by g."""

    p: int
    q: int
    g: int

    def __post_init__(self):
        if pow(self.g, self.q, self.p) != 1 or pow(self.g, 1, self.p) == 1:
            raise ValueError("g does not generate an order-q subgroup mod p")


# Hand-checkable parameters for tests and a 64-bit safe-prime group for
# protocol-scale runs; the construction fixes no particular group.
SMALL_SCHNORR_GROUP = SchnorrGroup(p=23, q=11, g=2)
DEFAULT_SCHNORR_GROUP = SchnorrGroup(
    p=18446744073709550147, q=9223372036854775073, g=4
)


@dataclass(frozen=True)
class SchnorrKeyPair:
    group: SchnorrGroup
    secret: int
    public: int


def schnorr_keygen(group: SchnorrGroup, rng) -> SchnorrKeyPair:
    a = rng.randrange(1, group.q + 1)
    return SchnorrKeyPair(group=group, secret=a, public=pow(group.g, a, group.p))


def _int_msg(x: int) -> bytes:
    return x.to_bytes(max(1, (x.bit_length() + 7) // 8), "big")


def schnorr_round(
    keys: SchnorrKeyPair,
    rng,
    nonce: int | None = None,
    challenge: int | None = None,
) -> Transcript:
    """Run one honest prover/verifier interaction and return its transcript.

    ``nonce`` (the blinding k) and ``challenge`` may be pinned for tests; by
    default both are drawn from ``rng``.
    """
    group = keys.group
    k = nonce if nonce is not None else rng.randrange(1, group.q + 1)
    h = pow(group.g, k, group.p)
    c = challenge if challenge is not None else rng.randrange(1, group.q)
    s = (keys.secret * c + k) % group.q
    t = Transcript()
    t.append("prover", _int_msg(h))
    t.append("verifier", _int_msg(c))
    t.append("prover", _int_msg(s))
    return t


def _parse_schnorr(transcript: Transcript) -> tuple[int, int, int]:
    if len(transcript) != 3:
        raise MalformedTranscript("Schnorr transcript has exactly three messages")
    roles = [r for r, _ in transcript.entries]
    if roles != ["prover", "verifier", "prover"]:
        raise MalformedTranscript(f"unexpected role sequence {roles}")
    h, c, s = (int.from_bytes(m, "big") for _, m in transcript.entries)
    return h, c, s


def schnorr_verify(keys_public: int, group: SchnorrGroup, transcript: Transcript) -> bool:
    """Check g^s == PK^c * h (mod p)."""
    h, c, s = _parse_schnorr(transcript)
    return pow(group.g, s, group.p) == (pow(keys_public, c, group.p) * h) % group.p


def schnorr_extract(group: SchnorrGroup, t1: Transcript, t2: Transcript) -> int:
    """Recover the secret from two accepting transcripts sharing a commitment.

    Returns (s1 - s2) / (c1 - c2) mod q, which equals the secret key when both
    transcripts reuse the same blinding nonce.
    """
    h1, c1, s1 = _parse_schnorr(t1)
    h2, c2, s2 = _parse_schnorr(t2)
    if h1 != h2:
        raise CannotExtract("transcripts do not share a commitment")
    if c1 == c2:
        raise CannotExtract("challenges are equal; the fork reveals nothing")
    return (s1 - s2) * pow(c1 - c2, -1, group.q) % group.q


def schnorr_simulate(
    public_key: int, challenge: int, group: SchnorrGroup, rng
) -> Transcript:
    """Forge an accepting transcript for ``challenge`` without the secret key.

    Picks the response z first and back-computes the commitment
    h = g^z * PK^(-c), so verification holds by construction.
    """
    z = rng.randrange(1, group.q + 1)
    pk_inv_c = pow(pow(public_key, challenge, group.p), -1, group.p)
    h = pow(group.g, z, group.p) * pk_inv_c % group.p
    t = Transcript()
    t.append("prover", _int_msg(h))
    t.append("verifier", _int_msg(challenge))
    t.append("prover", _int_msg(z))
    return t


# --- Fiat-Shamir ------------------------------------------------------------


def fiat_shamir_challenge(
    transcript: Transcript, domain_tag: bytes, field: Field
) -> FieldElement:
    """Derive the verifier challenge by hashing the transcript so far."""
    digest = keccak256(bytes(domain_tag) + transcript.prefix_bytes())
    return field(int.from_bytes(digest, "big"))


# --- error estimation -------------------------------------------------------


class ErrorEstimate(NamedTuple):
    completeness_error: float
    soundness_error: float
    trials: int


def estimate_errors(
    protocol: Callable[[object, object], bool],
    honest_prover: object,
    cheating_prover: object,
    trials: int,
    rng,
) -> ErrorEstimate:
    """Monte Carlo estimate of completeness and soundness errors.

    ``protocol(prover, rng)`` must run one interaction and return acceptance.
    """
    if trials <= 0:
        raise NoTrials("trials must be positive")
    honest_rejects = sum(1 for _ in range(trials) if not protocol(honest_prover, rng))
    cheater_accepts = sum(1 for _ in range(trials) if protocol(cheating_prover, rng))
    return ErrorEstimate(
        completeness_error=honest_rejects / trials,
        soundness_error=cheater_accepts / trials,
        trials=trials,
    )
