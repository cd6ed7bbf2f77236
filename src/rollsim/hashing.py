"""Keccak-256 (the pre-NIST padding variant used by Ethereum).

hashlib only ships the FIPS-202 SHA-3, whose padding differs, so the
permutation is implemented here directly, unrolled over local variables:
profiling showed a list-based version spending most of its time on
allocations, and the dispute-game simulations hash enough that it matters.

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
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

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


_count: contextvars.ContextVar[PermutationCount | None] = contextvars.ContextVar(
    "keccak_permutation_count", default=None
)


@contextlib.contextmanager
def counting() -> Iterator[PermutationCount]:
    """Count the Keccak-f permutations ``keccak256`` runs inside the block.

    Read ``.perms`` of the yielded count, during the block or after it.
    Nothing is counted outside a block. Blocks nest by shadowing: the
    innermost block counts, and permutations counted there are not added to
    an enclosing block. The count lives in a ``contextvars.ContextVar``, so
    it follows the current thread or asyncio task.
    """
    count = PermutationCount()
    token = _count.set(count)
    try:
        yield count
    finally:
        _count.reset(token)


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


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``.

    The permutations are counted here, not in ``_sponge``, so a stand-in
    sponge swapped in for sweeps is counted the same way.
    """
    count = _count.get()
    if count is not None:
        count.perms += _blocks(len(data))
    return _sponge(data, 0x01)


def _sponge(data: bytes, domain: int) -> bytes:
    """Absorb ``data`` with pad10*1 after the ``domain`` byte; squeeze 32 bytes.

    Keccak-256 uses domain byte 0x01; FIPS-202 SHA3-256 uses 0x06 over the
    same permutation and rate, which lets tests check the sponge against
    ``hashlib.sha3_256``.
    """
    padded = bytearray(data)
    padded.append(domain)
    padded += bytes(_blocks(len(data)) * _RATE - len(padded))
    padded[-1] |= 0x80
    state = [0] * 25
    for off in range(0, len(padded), _RATE):
        lanes = _ABSORB.unpack_from(padded, off)
        for j in range(17):
            state[j] ^= lanes[j]
        state = _keccak_f(state)
    return _SQUEEZE.pack(*state[:4])


def memoized_digest(compute: Callable[[object], bytes]) -> property:
    """A read-only property that runs ``compute(self)`` once per instance.

    For frozen dataclasses whose digest is a pure function of their fields.
    The digest is kept in the instance ``__dict__`` under a private key, not
    in a dataclass field, so ``__eq__``, ``__hash__``, ``repr`` and
    ``dataclasses.asdict`` never see it, and an equal object that has not
    been hashed yet still compares equal.
    """
    key = f"_{compute.__name__}_memo"

    @functools.wraps(compute)
    def get(self) -> bytes:
        try:
            return self.__dict__[key]
        except KeyError:
            digest = self.__dict__[key] = compute(self)
            return digest

    return property(get)
