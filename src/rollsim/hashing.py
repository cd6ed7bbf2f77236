"""Keccak-256 (the pre-NIST padding variant used by Ethereum).

hashlib only ships the FIPS-202 SHA-3, whose padding differs, so the
permutation is implemented here directly. The round function is unrolled
over local variables: profiling showed the list-based version spends most
of its time on allocations, and the dispute-game simulations hash enough
that the ~2x matters.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
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

_RATE = 136  # bytes; capacity 512 bits, digest 256 bits


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

    Lanes 1, 2, 8, 12, 17 and 20 are held complemented between rounds (the
    lane-complementing transform of the Keccak team's "Keccak implementation
    overview", section 2.2). theta, rho and pi carry a fixed pattern of
    complemented lanes into chi, which is written for that pattern with OR
    and AND and hands the same six complemented lanes to the next round. chi
    then needs one NOT per plane, written ``^ M``, in place of 25 ``~``, each
    of which makes a negative int.
    """
    (s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12,
     s13, s14, s15, s16, s17, s18, s19, s20, s21, s22, s23, s24) = state
    M = _M
    s1 ^= M
    s2 ^= M
    s8 ^= M
    s12 ^= M
    s17 ^= M
    s20 ^= M
    for rc in _ROUND_CONSTANTS:
        c0 = s0 ^ s5 ^ s10 ^ s15 ^ s20
        c1 = s1 ^ s6 ^ s11 ^ s16 ^ s21
        c2 = s2 ^ s7 ^ s12 ^ s17 ^ s22
        c3 = s3 ^ s8 ^ s13 ^ s18 ^ s23
        c4 = s4 ^ s9 ^ s14 ^ s19 ^ s24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & M)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & M)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & M)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & M)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & M)
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
        b16 = (s5 << 36 | s5 >> 28) & M
        b7 = (s10 << 3 | s10 >> 61) & M
        b23 = (s15 << 41 | s15 >> 23) & M
        b14 = (s20 << 18 | s20 >> 46) & M
        b10 = (s1 << 1 | s1 >> 63) & M
        b1 = (s6 << 44 | s6 >> 20) & M
        b17 = (s11 << 10 | s11 >> 54) & M
        b8 = (s16 << 45 | s16 >> 19) & M
        b24 = (s21 << 2 | s21 >> 62) & M
        b20 = (s2 << 62 | s2 >> 2) & M
        b11 = (s7 << 6 | s7 >> 58) & M
        b2 = (s12 << 43 | s12 >> 21) & M
        b18 = (s17 << 15 | s17 >> 49) & M
        b9 = (s22 << 61 | s22 >> 3) & M
        b5 = (s3 << 28 | s3 >> 36) & M
        b21 = (s8 << 55 | s8 >> 9) & M
        b12 = (s13 << 25 | s13 >> 39) & M
        b3 = (s18 << 21 | s18 >> 43) & M
        b19 = (s23 << 56 | s23 >> 8) & M
        b15 = (s4 << 27 | s4 >> 37) & M
        b6 = (s9 << 20 | s9 >> 44) & M
        b22 = (s14 << 39 | s14 >> 25) & M
        b13 = (s19 << 8 | s19 >> 56) & M
        b4 = (s24 << 14 | s24 >> 50) & M
        s0 = b0 ^ (b1 | b2)
        s1 = b1 ^ ((b2 ^ M) | b3)
        s2 = b2 ^ (b3 & b4)
        s3 = b3 ^ (b4 | b0)
        s4 = b4 ^ (b0 & b1)
        s5 = b5 ^ (b6 | b7)
        s6 = b6 ^ (b7 & b8)
        s7 = b7 ^ (b8 | (b9 ^ M))
        s8 = b8 ^ (b9 | b5)
        s9 = b9 ^ (b5 & b6)
        n = b13 ^ M
        s10 = b10 ^ (b11 | b12)
        s11 = b11 ^ (b12 & b13)
        s12 = b12 ^ (n & b14)
        s13 = n ^ (b14 | b10)
        s14 = b14 ^ (b10 & b11)
        n = b18 ^ M
        s15 = b15 ^ (b16 & b17)
        s16 = b16 ^ (b17 | b18)
        s17 = b17 ^ (n | b19)
        s18 = n ^ (b19 & b15)
        s19 = b19 ^ (b15 | b16)
        n = b21 ^ M
        s20 = b20 ^ (n & b22)
        s21 = n ^ (b22 | b23)
        s22 = b22 ^ (b23 & b24)
        s23 = b23 ^ (b24 | b20)
        s24 = b24 ^ (b20 & b21)
        s0 ^= rc
    return [s0, s1 ^ M, s2 ^ M, s3, s4, s5, s6, s7, s8 ^ M, s9, s10, s11, s12 ^ M,
            s13, s14, s15, s16, s17 ^ M, s18, s19, s20 ^ M, s21, s22, s23, s24]


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
        block = padded[off:off + _RATE]
        for j in range(17):
            state[j] ^= int.from_bytes(block[8 * j:8 * j + 8], "little")
        state = _keccak_f(state)
    return b"".join(state[j].to_bytes(8, "little") for j in range(4))


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
