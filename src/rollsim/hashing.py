"""Keccak-256 (the pre-NIST padding variant used by Ethereum).

hashlib only ships the FIPS-202 SHA-3, whose padding differs, so the
permutation is implemented here directly, unrolled over local variables:
profiling showed a list-based version spending most of its time on
allocations, and the dispute-game simulations hash enough that it matters.

Padding. Keccak-256 and SHA3-256 differ only in the domain byte, 0x01 and
0x06, that opens pad10*1. Both sponges pad by one rule, ``_tail``: the domain
byte, zeros, then 0x80, filling a message's last rate block, or the one byte
``domain | 0x80`` where one byte is left. It depends on the length mod 136
alone, so it is built once per such length. ``_sponge`` absorbs a message and
its tail; the packed sponge reads a blob's whole blocks from the blob itself
and joins only its last, partial block to the tail.

Python ints have no rotate, and ``(x << r | x >> (64 - r)) & M`` costs three
operations and a mask. ``_keccak_f`` instead holds each lane as seven stacked
copies of its 64 bits, one 448-bit int. If bits ``[0, L)`` of a held lane
repeat the lane every 64 bits, the low 64 bits of ``x >> (64 - r)`` are the
lane rotated left by ``r``, and the shifted value still repeats the rotated
lane over bits ``[0, L - 64 + r)``: a rotation is one right shift and uses up
at most 63 of the copy bits. XOR, AND and OR keep the repetition wherever
both operands have it, and the round constants and the ``^ M`` complements
are replicated to all seven copies, so nothing else uses bits up. A round
shifts at most twice in a row (theta's rotation of a column parity by 1, a
shift of 63, then rho's, at most 63), so it uses up at most 126 bits; three
rounds use 378, which leaves 448 - 378 = 70 >= 64 good bits. Every three
rounds the lanes are refreshed as ``(x & M) * REP``, where ``REP`` has a 1 at
bit 0 of each copy; seven copies are the fewest that carry three rounds, and
three rounds divide 24. The bits above the good ones are never read into the
low lane within a group, so rho needs no mask; the lanes are masked back to
64 bits once, on return.

Many inputs at once. ``prefetch(blobs)`` hashes a batch of blobs ahead
through ``_keccak_f_packed``, the ``KeccakP-1600-times{N}`` interface of the
Keccak team's XKCP in SWAR form ("Keccak implementation overview", Bertoni et
al.). Lane i of N states is one int whose bits ``[64k, 64k + 64)`` are lane i
of state k, so XOR, AND, OR and the ``^ MM`` complements (MM: all ones over
the N slots) act on every slot in one operation. Stacked copies do not carry
over, since a right shift of a packed int pulls the next slot's bits in, so a
rotation by r is ``(x << r & H) | (x >> (64 - r) & L)``, where H holds bits
``[r, 64)`` and L bits ``[0, r)`` of every slot: H drops what each slot
pushes into the next one, and L keeps only what each slot's own top bits wrap
round to. The 48 masks of the 24 rotations, MM and the round constants
replicated to N slots depend on N; ``_packed_constants`` builds them on the
first use of a width.

On a shared 2-core x86 host with Python 3.11, the scalar kernel took 202 µs
per state and the packed one 266 µs at width 1, then 135, 92, 12.7, 9.3 and
7.8 µs per state at widths 2, 3, 64, 320 and 1,024, and no less at 2,048 to
8,192. So a batch runs as one packed sponge per chunk of at most
``_CHUNK = 1024`` slots, whatever the lengths of its blobs: sorted longest
first, block b of every blob still absorbing goes through one packed
permutation, the slots of the blobs that have ended are dropped from the top,
and the last blob left runs its remaining blocks on ``_keccak_f``, so a batch
of one blob runs on ``_keccak_f`` from its first block. A 1,024-slot lane is
an 8 KiB int, and ``_packed_constants(1024)`` holds 624 KiB, built in about
0.5 ms on first use.

The digests are handed out through ``keccak256``: inside the ``prefetch``
block, ``keccak256(blob)`` returns the ready digest and counts its
permutations there, as if it had run them. So ``counting()``, a wrapper that
counts ``keccak256`` calls, and every pinned permutation count read the same
numbers with or without a prefetch; a function returning many digests at once
would run permutations that such a wrapper never sees. A scope hashes each
distinct blob once and hands it out once, and a test checks that no scope of
a whole run closes with a digest unread. Any other blob is hashed for real,
so a caller always gets the digest of what it passed, tampered or not.

``DigestMemo`` sits in front of ``keccak256`` and hashes each distinct blob
once, so a hit is no ``keccak256`` call and counts nothing. Inside a
``run_memo()`` block, which ``scenarios.run`` opens, the memos over one hash
function share one dict: whoever re-checks another party's bytes (the L1
portal folding the L2's tree, L1 consuming the L2's messages, the verifier
re-committing the prover's pages) reads the first hash. A tampered blob is a
new key, hashed for real, and no digest outlives the block.

A ``counting()`` block counts every permutation run inside it, nested blocks
included, so a run that counts its own phases still shows its whole count to
a caller that counts around it. A ``prefetch`` or ``run_memo()`` block
shadows the one of its kind around it, so each scope is read by the code it
was opened for.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

HashFn = Callable[[bytes], bytes]

_M = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_COPIES = 7  # 64-bit copies of a lane held in one int
_GROUP = 3  # rounds between refreshes: each uses up at most 2 * 63 copy bits
_REP = sum(1 << 64 * i for i in range(_COPIES))
_MM = _M * _REP  # all ones over the seven copies
_ROUND_GROUPS = tuple(
    tuple(rc * _REP for rc in _ROUND_CONSTANTS[i:i + _GROUP])
    for i in range(0, len(_ROUND_CONSTANTS), _GROUP)
)

# rho's rotation offsets, theta's 1 among them, in the order of the packed
# kernel's (H, L) mask pairs
_ROTATIONS = (1, 2, 3, 6, 8, 10, 14, 15, 18, 20, 21, 25, 27, 28, 36, 39, 41, 43, 44, 45,
              55, 56, 61, 62)

_CHUNK = 1024  # most slots in one packed permutation

_RATE = 136  # bytes; capacity 512 bits, digest 256 bits
_ABSORB = struct.Struct("<17Q")  # one rate block as 17 little-endian lanes
_SQUEEZE = struct.Struct("<4Q")  # the digest from lanes 0-3


def _blocks(length: int) -> int:
    """Rate blocks, one Keccak-f permutation each, that the sponge absorbs for
    ``length`` bytes: padding adds at least one byte, so a new block at 136k."""
    return length // _RATE + 1


@dataclass
class PermutationCount:
    """Keccak-f permutations run inside one ``counting()`` block."""

    perms: int = 0
    packed: int = 0  # of ``perms``, the blocks absorbed in slots of the packed kernel


_count: contextvars.ContextVar[PermutationCount | None] = contextvars.ContextVar(
    "keccak_permutation_count", default=None
)


@contextlib.contextmanager
def counting() -> Iterator[PermutationCount]:
    """Count the Keccak-f permutations ``keccak256`` runs inside the block.

    Read ``.perms`` of the yielded count, during the block or after it, and
    ``.packed``, those of them that ran in slots of the packed kernel,
    counted per block: a blob whose last blocks ran alone on the scalar
    kernel counts only the blocks before them. A prefetched digest is counted
    when ``keccak256`` hands it out; a ``DigestMemo`` hit calls no
    ``keccak256`` and counts nothing. Nothing is counted outside a block. A
    block counts every permutation run inside it, nested blocks included: an
    inner block counts only its own, and adds them to the block it was opened
    in when it closes, also when it closes on an exception, so an enclosing
    block read while an inner one is still open does not yet include it. The
    count lives in a ``contextvars.ContextVar``, so it follows the current
    thread or asyncio task.
    """
    count = PermutationCount()
    token = _count.set(count)
    try:
        yield count
    finally:
        _count.reset(token)
        outer = _count.get()
        if outer is not None:
            outer.perms += count.perms
            outer.packed += count.packed


def _keccak_f(state: list[int]) -> list[int]:
    """Keccak-f[1600] over 25 lanes, lane x + 5y at index x + 5y.

    Each lane is held as seven stacked copies (see the module docstring):
    refreshed every three rounds, rotated by right shifts, masked back to 64
    bits on return. Lanes 1, 2, 8, 12, 17 and 20 are held complemented
    between rounds (the lane-complementing transform of the Keccak team's
    "Keccak implementation overview", section 2.2). theta, rho and pi carry a
    fixed pattern of complemented lanes into chi, which is written for that
    pattern with OR and AND and hands the same six complemented lanes to the
    next round. chi then needs one NOT per plane, written ``^ MM`` over all
    seven copies, in place of 25 ``~``, each of which makes a negative int.
    """
    (s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12,
     s13, s14, s15, s16, s17, s18, s19, s20, s21, s22, s23, s24) = state
    M = _M
    MM = _MM
    R = _REP
    s1 ^= M
    s2 ^= M
    s8 ^= M
    s12 ^= M
    s17 ^= M
    s20 ^= M
    for group in _ROUND_GROUPS:
        s0 = (s0 & M) * R
        s1 = (s1 & M) * R
        s2 = (s2 & M) * R
        s3 = (s3 & M) * R
        s4 = (s4 & M) * R
        s5 = (s5 & M) * R
        s6 = (s6 & M) * R
        s7 = (s7 & M) * R
        s8 = (s8 & M) * R
        s9 = (s9 & M) * R
        s10 = (s10 & M) * R
        s11 = (s11 & M) * R
        s12 = (s12 & M) * R
        s13 = (s13 & M) * R
        s14 = (s14 & M) * R
        s15 = (s15 & M) * R
        s16 = (s16 & M) * R
        s17 = (s17 & M) * R
        s18 = (s18 & M) * R
        s19 = (s19 & M) * R
        s20 = (s20 & M) * R
        s21 = (s21 & M) * R
        s22 = (s22 & M) * R
        s23 = (s23 & M) * R
        s24 = (s24 & M) * R
        for rc in group:
            c0 = s0 ^ s5 ^ s10 ^ s15 ^ s20
            c1 = s1 ^ s6 ^ s11 ^ s16 ^ s21
            c2 = s2 ^ s7 ^ s12 ^ s17 ^ s22
            c3 = s3 ^ s8 ^ s13 ^ s18 ^ s23
            c4 = s4 ^ s9 ^ s14 ^ s19 ^ s24
            d0 = c4 ^ (c1 >> 63)
            d1 = c0 ^ (c2 >> 63)
            d2 = c1 ^ (c3 >> 63)
            d3 = c2 ^ (c4 >> 63)
            d4 = c3 ^ (c0 >> 63)
            s0 ^= d0
            s1 ^= d1
            s2 ^= d2
            s3 ^= d3
            s4 ^= d4
            s5 ^= d0
            s6 ^= d1
            s7 ^= d2
            s8 ^= d3
            s9 ^= d4
            s10 ^= d0
            s11 ^= d1
            s12 ^= d2
            s13 ^= d3
            s14 ^= d4
            s15 ^= d0
            s16 ^= d1
            s17 ^= d2
            s18 ^= d3
            s19 ^= d4
            s20 ^= d0
            s21 ^= d1
            s22 ^= d2
            s23 ^= d3
            s24 ^= d4
            b0 = s0
            b16 = s5 >> 28
            b7 = s10 >> 61
            b23 = s15 >> 23
            b14 = s20 >> 46
            b10 = s1 >> 63
            b1 = s6 >> 20
            b17 = s11 >> 54
            b8 = s16 >> 19
            b24 = s21 >> 62
            b20 = s2 >> 2
            b11 = s7 >> 58
            b2 = s12 >> 21
            b18 = s17 >> 49
            b9 = s22 >> 3
            b5 = s3 >> 36
            b21 = s8 >> 9
            b12 = s13 >> 39
            b3 = s18 >> 43
            b19 = s23 >> 8
            b15 = s4 >> 37
            b6 = s9 >> 44
            b22 = s14 >> 25
            b13 = s19 >> 56
            b4 = s24 >> 50
            s0 = b0 ^ (b1 | b2) ^ rc
            s1 = b1 ^ ((b2 ^ MM) | b3)
            s2 = b2 ^ (b3 & b4)
            s3 = b3 ^ (b4 | b0)
            s4 = b4 ^ (b0 & b1)
            s5 = b5 ^ (b6 | b7)
            s6 = b6 ^ (b7 & b8)
            s7 = b7 ^ (b8 | (b9 ^ MM))
            s8 = b8 ^ (b9 | b5)
            s9 = b9 ^ (b5 & b6)
            n = b13 ^ MM
            s10 = b10 ^ (b11 | b12)
            s11 = b11 ^ (b12 & b13)
            s12 = b12 ^ (n & b14)
            s13 = n ^ (b14 | b10)
            s14 = b14 ^ (b10 & b11)
            n = b18 ^ MM
            s15 = b15 ^ (b16 & b17)
            s16 = b16 ^ (b17 | b18)
            s17 = b17 ^ (n | b19)
            s18 = n ^ (b19 & b15)
            s19 = b19 ^ (b15 | b16)
            n = b21 ^ MM
            s20 = b20 ^ (n & b22)
            s21 = n ^ (b22 | b23)
            s22 = b22 ^ (b23 & b24)
            s23 = b23 ^ (b24 | b20)
            s24 = b24 ^ (b20 & b21)
    return [s0 & M, (s1 & M) ^ M, (s2 & M) ^ M, s3 & M, s4 & M, s5 & M, s6 & M, s7 & M,
            (s8 & M) ^ M, s9 & M, s10 & M, s11 & M, (s12 & M) ^ M, s13 & M, s14 & M,
            s15 & M, s16 & M, (s17 & M) ^ M, s18 & M, s19 & M, (s20 & M) ^ M, s21 & M,
            s22 & M, s23 & M, s24 & M]


@functools.lru_cache(maxsize=16)
def _packed_constants(slots: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The packed kernel's constants at width ``slots``, built on first use.

    Masks: all ones over every slot, then for each rotation r of
    ``_ROTATIONS`` the pair (H, L): bits ``[r, 64)`` and bits ``[0, r)`` of
    every slot. Round constants: each of the 24 replicated to every slot.
    """
    rep = int.from_bytes((b"\x01" + bytes(7)) * slots, "little")  # 1 at bit 0 of each slot
    ones = _M * rep
    masks = [ones]
    for r in _ROTATIONS:
        low = ((1 << r) - 1) * rep
        masks += (ones ^ low, low)
    return tuple(masks), tuple(rc * rep for rc in _ROUND_CONSTANTS)


def _keccak_f_packed(state: list[int], slots: int) -> list[int]:
    """Keccak-f[1600] over ``slots`` states at once: bits ``[64k, 64k + 64)``
    of ``state[i]`` hold lane i of state k (see the module docstring).

    The steps are ``_keccak_f``'s, lane-complementing chi included, with each
    rotation written as two shifts, two slot masks and an OR, and the round
    constants and the ``^ MM`` complements replicated to every slot.
    """
    (s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12,
     s13, s14, s15, s16, s17, s18, s19, s20, s21, s22, s23, s24) = state
    masks, round_constants = _packed_constants(slots)
    (MM, H1, L1, H2, L2, H3, L3, H6, L6, H8, L8, H10, L10, H14, L14, H15, L15, H18, L18,
     H20, L20, H21, L21, H25, L25, H27, L27, H28, L28, H36, L36, H39, L39, H41, L41,
     H43, L43, H44, L44, H45, L45, H55, L55, H56, L56, H61, L61, H62, L62) = masks
    s1 ^= MM
    s2 ^= MM
    s8 ^= MM
    s12 ^= MM
    s17 ^= MM
    s20 ^= MM
    for rc in round_constants:
        c0 = s0 ^ s5 ^ s10 ^ s15 ^ s20
        c1 = s1 ^ s6 ^ s11 ^ s16 ^ s21
        c2 = s2 ^ s7 ^ s12 ^ s17 ^ s22
        c3 = s3 ^ s8 ^ s13 ^ s18 ^ s23
        c4 = s4 ^ s9 ^ s14 ^ s19 ^ s24
        d0 = c4 ^ (c1 << 1 & H1) ^ (c1 >> 63 & L1)
        d1 = c0 ^ (c2 << 1 & H1) ^ (c2 >> 63 & L1)
        d2 = c1 ^ (c3 << 1 & H1) ^ (c3 >> 63 & L1)
        d3 = c2 ^ (c4 << 1 & H1) ^ (c4 >> 63 & L1)
        d4 = c3 ^ (c0 << 1 & H1) ^ (c0 >> 63 & L1)
        s0 ^= d0
        s1 ^= d1
        s2 ^= d2
        s3 ^= d3
        s4 ^= d4
        s5 ^= d0
        s6 ^= d1
        s7 ^= d2
        s8 ^= d3
        s9 ^= d4
        s10 ^= d0
        s11 ^= d1
        s12 ^= d2
        s13 ^= d3
        s14 ^= d4
        s15 ^= d0
        s16 ^= d1
        s17 ^= d2
        s18 ^= d3
        s19 ^= d4
        s20 ^= d0
        s21 ^= d1
        s22 ^= d2
        s23 ^= d3
        s24 ^= d4
        b0 = s0
        b16 = (s5 << 36 & H36) | (s5 >> 28 & L36)
        b7 = (s10 << 3 & H3) | (s10 >> 61 & L3)
        b23 = (s15 << 41 & H41) | (s15 >> 23 & L41)
        b14 = (s20 << 18 & H18) | (s20 >> 46 & L18)
        b10 = (s1 << 1 & H1) | (s1 >> 63 & L1)
        b1 = (s6 << 44 & H44) | (s6 >> 20 & L44)
        b17 = (s11 << 10 & H10) | (s11 >> 54 & L10)
        b8 = (s16 << 45 & H45) | (s16 >> 19 & L45)
        b24 = (s21 << 2 & H2) | (s21 >> 62 & L2)
        b20 = (s2 << 62 & H62) | (s2 >> 2 & L62)
        b11 = (s7 << 6 & H6) | (s7 >> 58 & L6)
        b2 = (s12 << 43 & H43) | (s12 >> 21 & L43)
        b18 = (s17 << 15 & H15) | (s17 >> 49 & L15)
        b9 = (s22 << 61 & H61) | (s22 >> 3 & L61)
        b5 = (s3 << 28 & H28) | (s3 >> 36 & L28)
        b21 = (s8 << 55 & H55) | (s8 >> 9 & L55)
        b12 = (s13 << 25 & H25) | (s13 >> 39 & L25)
        b3 = (s18 << 21 & H21) | (s18 >> 43 & L21)
        b19 = (s23 << 56 & H56) | (s23 >> 8 & L56)
        b15 = (s4 << 27 & H27) | (s4 >> 37 & L27)
        b6 = (s9 << 20 & H20) | (s9 >> 44 & L20)
        b22 = (s14 << 39 & H39) | (s14 >> 25 & L39)
        b13 = (s19 << 8 & H8) | (s19 >> 56 & L8)
        b4 = (s24 << 14 & H14) | (s24 >> 50 & L14)
        s0 = b0 ^ (b1 | b2) ^ rc
        s1 = b1 ^ ((b2 ^ MM) | b3)
        s2 = b2 ^ (b3 & b4)
        s3 = b3 ^ (b4 | b0)
        s4 = b4 ^ (b0 & b1)
        s5 = b5 ^ (b6 | b7)
        s6 = b6 ^ (b7 & b8)
        s7 = b7 ^ (b8 | (b9 ^ MM))
        s8 = b8 ^ (b9 | b5)
        s9 = b9 ^ (b5 & b6)
        n = b13 ^ MM
        s10 = b10 ^ (b11 | b12)
        s11 = b11 ^ (b12 & b13)
        s12 = b12 ^ (n & b14)
        s13 = n ^ (b14 | b10)
        s14 = b14 ^ (b10 & b11)
        n = b18 ^ MM
        s15 = b15 ^ (b16 & b17)
        s16 = b16 ^ (b17 | b18)
        s17 = b17 ^ (n | b19)
        s18 = n ^ (b19 & b15)
        s19 = b19 ^ (b15 | b16)
        n = b21 ^ MM
        s20 = b20 ^ (n & b22)
        s21 = n ^ (b22 | b23)
        s22 = b22 ^ (b23 & b24)
        s23 = b23 ^ (b24 | b20)
        s24 = b24 ^ (b20 & b21)
    return [s0, s1 ^ MM, s2 ^ MM, s3, s4, s5, s6, s7, s8 ^ MM, s9, s10, s11, s12 ^ MM, s13,
            s14, s15, s16, s17 ^ MM, s18, s19, s20 ^ MM, s21, s22, s23, s24]


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``.

    Inside a ``prefetch`` block, a blob the block computed ahead is handed
    out ready, once; any other blob is hashed here. The permutations are
    counted here either way, not in the sponges, so a stand-in sponge
    swapped in for sweeps is counted the same way.
    """
    scope = _scope.get()
    ready = scope.take(bytes(data)) if scope is not None else None
    count = _count.get()
    if count is not None:
        count.perms += _blocks(len(data))
        if ready is not None:
            count.packed += ready[1]
    return ready[0] if ready is not None else _sponge(data, 0x01)


def _sponge(data: bytes, domain: int) -> bytes:
    """Absorb ``data`` and its ``_tail``; squeeze 32 bytes.

    Keccak-256 uses domain byte 0x01; FIPS-202 SHA3-256 uses 0x06 over the
    same permutation and rate, which lets tests check the sponge against
    ``hashlib.sha3_256``.
    """
    return _SQUEEZE.pack(*_absorb([0] * 25, bytes(data) + _tail(len(data) % _RATE, domain))[:4])


@functools.lru_cache(maxsize=None)
def _tail(length: int, domain: int) -> bytes:
    """The padding of a message ``length`` bytes into its last rate block:
    the ``domain`` byte, zeros, then 0x80 (pad10*1), or the one byte
    ``domain | 0x80`` where only one is left. Both sponges append it to a
    message's last, partial block, so it depends on ``length`` mod 136 alone,
    and is built once per such length and domain."""
    if length == _RATE - 1:
        return bytes((domain | 0x80,))
    return bytes((domain,)) + bytes(_RATE - 2 - length) + b"\x80"


def _absorb(state: list[int], padded: bytes) -> list[int]:
    """``state`` after the blocks of ``padded``, one ``_keccak_f`` each."""
    for off in range(0, len(padded), _RATE):
        lanes = _ABSORB.unpack_from(padded, off)
        for j in range(17):
            state[j] ^= lanes[j]
        state = _keccak_f(state)
    return state


def _sponge_many(blobs: list[bytes], domain: int) -> list[tuple[bytes, int]]:
    """``_sponge`` of each blob, in order, each with the number of its blocks
    that ran in slots of the packed kernel.

    The blobs are sorted longest first, whatever their lengths, and cut into
    the fewest near-equal chunks of at most ``_CHUNK``, each one
    ``_packed_sponge``; every chunk holds all the blobs or at least
    ``_CHUNK // 2`` of them. A single blob runs wholly on ``_keccak_f``.
    """
    order = sorted(range(len(blobs)), key=lambda i: len(blobs[i]), reverse=True)
    chunks = -(-len(order) // _CHUNK)
    out = [None] * len(blobs)
    for c in range(chunks):
        chunk = order[c * len(order) // chunks:(c + 1) * len(order) // chunks]
        for i, made in zip(chunk, _packed_sponge([blobs[i] for i in chunk], domain)):
            out[i] = made
    return out


def _packed_sponge(blobs: list[bytes], domain: int) -> list[tuple[bytes, int]]:
    """``_sponge`` of blobs sorted longest first, each with the number of its
    blocks that ran in slots of the packed kernel.

    Block b of every blob still absorbing, blob k in slot k, goes through one
    ``_keccak_f_packed``. The blobs that end at block b hold the top slots:
    after the permutation they are squeezed and their slots dropped, the
    lanes masked to the slots left, so every permuted slot is a block some
    blob absorbs. Once one blob is left, its remaining blocks run on
    ``_keccak_f``, which is faster at width 1.

    Block b of the live blobs is laid end to end in one buffer, read as 64-bit
    words, so lane j of every slot is one strided slice of it; its bytes, read
    little-endian, are that lane's packed int. A blob's last block is its last
    bytes and their ``_tail``; no blob is copied whole. The digests come out
    the same way: the four squeezed lanes of the ending slots are written into
    every fourth word of their part of one buffer, which holds the digests end
    to end and is sliced into them once it is full.
    """
    slots = len(blobs)
    ends = [_blocks(len(blob)) for blob in blobs]  # non-increasing
    digests = bytearray(32 * slots)
    out = memoryview(digests).cast("Q")
    packed = [0] * slots
    state = [0] * 25
    live, b = slots, 0
    while live > 1:
        off = b * _RATE
        b += 1
        left = live  # the live blobs from slot ``left`` on end at block b
        while left and ends[left - 1] == b:
            left -= 1
        parts = [blob[off:off + _RATE] for blob in blobs[:left]]
        for blob in blobs[left:live]:
            parts += (blob[off:], _tail(len(blob) % _RATE, domain))
        words = memoryview(b"".join(parts)).cast("Q")
        for j in range(17):
            state[j] ^= int.from_bytes(words[j::17].tobytes(), "little")
        state = _keccak_f_packed(state, live)
        if left < live:
            for j in range(4):
                squeezed = (state[j] >> 64 * left).to_bytes(8 * (live - left), "little")
                out[4 * left + j:4 * live:4] = memoryview(squeezed).cast("Q")
            mask = (1 << 64 * left) - 1
            state = [lane & mask for lane in state]
            packed[left:live] = [b] * (live - left)
            live = left
    if live:  # slot 0 alone, its lanes 64 bits wide
        packed[0] = b
        blob = blobs[0]
        padded = blob[b * _RATE:] + _tail(len(blob) % _RATE, domain)
        digests[:32] = _SQUEEZE.pack(*_absorb(state, padded)[:4])
    flat = bytes(digests)
    return [(flat[off:off + 32], n) for off, n in zip(range(0, 32 * slots, 32), packed)]


class Prefetched:
    """The digests one ``prefetch`` block computed, one per distinct blob,
    each handed out once."""

    def __init__(self, blobs: Iterable[bytes]):
        blobs = list(dict.fromkeys(bytes(blob) for blob in blobs))
        # blob -> (digest, blocks that ran in slots of the packed kernel)
        self._held = dict(zip(blobs, _sponge_many(blobs, 0x01)))

    def take(self, blob: bytes) -> tuple[bytes, int] | None:
        """The digest of ``blob`` and the number of its blocks that ran in
        slots of the packed kernel, if it is held and not yet handed out."""
        return self._held.pop(blob, None)

    @property
    def unread(self) -> int:
        """Digests no ``keccak256`` call has read yet."""
        return len(self._held)


_scope: contextvars.ContextVar[Prefetched | None] = contextvars.ContextVar(
    "keccak_prefetch", default=None
)


@contextlib.contextmanager
def prefetch(blobs: Iterable[bytes]) -> Iterator[Prefetched]:
    """Hash the distinct ``blobs`` together now, and hand each digest out
    once through ``keccak256`` inside the block, which counts its
    permutations. A blob not listed, or asked for again, is hashed by that
    call as usual, so a caller never gets a stale digest; one that asks for
    a blob more than once hashes through a ``DigestMemo``. Inside an inner
    block only its own digests are handed out, so its ``unread`` speaks for
    the code it was opened around alone.
    """
    scope = Prefetched(blobs)
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)


_run: contextvars.ContextVar[dict | None] = contextvars.ContextVar("digest_memos", default=None)


@contextlib.contextmanager
def run_memo() -> Iterator[None]:
    """Share one blob -> digest dict per hash function among the
    ``DigestMemo``s made inside the block; no digest outlives it."""
    token = _run.set({})
    try:
        yield
    finally:
        _run.reset(token)


class DigestMemo:
    """A ``HashFn`` that runs ``hash_fn`` once per distinct blob it is given.

    Made inside a ``run_memo()`` block, it shares the block's digests for
    ``hash_fn``, so a stand-in hash never reads Keccak digests; made outside
    one, it keeps its own. ``hash_fn`` is read once, when the memo is made.
    """

    def __init__(self, hash_fn: HashFn = keccak256):
        self._hash_fn = hash_fn
        run = _run.get()
        self._digests: dict[bytes, bytes] = {} if run is None else run.setdefault(hash_fn, {})

    def __call__(self, blob: bytes) -> bytes:
        digest = self._digests.get(blob)
        if digest is None:
            digest = self._digests[blob] = self._hash_fn(blob)
        return digest

    def __contains__(self, blob: bytes) -> bool:
        """Whether this memo, or one sharing its digests, has hashed ``blob``."""
        return blob in self._digests


def memoized_digest(compute: Callable[[object], bytes]) -> property:
    """A read-only property that runs ``compute(self)`` once per instance.

    For frozen dataclasses whose digest, or the bytes it hashes, is a pure
    function of their fields. The value is kept in the instance ``__dict__``
    under a private key, not in a dataclass field, so ``__eq__``, ``__hash__``,
    ``repr`` and ``dataclasses.asdict`` never see it, and an equal object that
    has not been hashed yet still compares equal. A first read is one
    ``dict.get`` that returns ``None``, with no ``KeyError`` raised and
    caught; an empty ``bytes`` value is kept like any other, so its compute
    also runs once.
    """
    key = f"_{compute.__name__}_memo"

    @functools.wraps(compute)
    def get(self) -> bytes:
        digest = self.__dict__.get(key)
        if digest is None:
            digest = self.__dict__[key] = compute(self)
        return digest

    return property(get)
