"""Recursive-length-prefix encoding.

Canonical Ethereum rules, restricted to what batch serialization needs:
items are bytes, non-negative ints (big-endian, no leading zeros, 0 -> empty
string) or lists thereof.
"""

from __future__ import annotations


class RlpDecodingError(ValueError):
    """Input is not a well-formed canonical RLP payload."""


def _encode_length(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def encode(item) -> bytes:
    if isinstance(item, int):
        if item < 0:
            raise ValueError("RLP encodes only non-negative integers")
        item = b"" if item == 0 else item.to_bytes((item.bit_length() + 7) // 8, "big")
    if isinstance(item, (bytes, bytearray)):
        item = bytes(item)
        if len(item) == 1 and item[0] < 0x80:
            return item
        return _encode_length(len(item), 0x80) + item
    if isinstance(item, (list, tuple)):
        payload = b"".join(encode(i) for i in item)
        return _encode_length(len(payload), 0xC0) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def _long_length(data: bytes, pos: int, ll: int, kind: str) -> tuple[int, int]:
    """Read the ``ll``-byte length after the prefix at ``pos``.

    Returns (payload start, payload length). A canonical long form has no
    leading zero byte in its length and a length of at least 56.
    """
    start = pos + 1 + ll
    if start > len(data):
        raise RlpDecodingError("truncated length-of-length")
    if data[pos + 1] == 0:
        raise RlpDecodingError(f"long {kind} length has a leading zero byte")
    length = int.from_bytes(data[pos + 1 : start], "big")
    if length < 56:
        raise RlpDecodingError(f"non-canonical long {kind} length")
    return start, length


def _decode_at(data: bytes, pos: int):
    if pos >= len(data):
        raise RlpDecodingError("truncated payload")
    prefix = data[pos]
    if prefix < 0x80:
        return bytes([prefix]), pos + 1
    if prefix < 0xB8:
        start, length = pos + 1, prefix - 0x80
    elif prefix < 0xC0:
        start, length = _long_length(data, pos, prefix - 0xB7, "string")
    elif prefix < 0xF8:
        start, length = pos + 1, prefix - 0xC0
    else:
        start, length = _long_length(data, pos, prefix - 0xF7, "list")
    end = start + length
    if prefix < 0xC0:
        if end > len(data):
            raise RlpDecodingError("string runs past end of payload")
        s = data[start:end]
        if length == 1 and s[0] < 0x80:
            raise RlpDecodingError("non-canonical single byte encoding")
        return s, end
    if end > len(data):
        raise RlpDecodingError("list runs past end of payload")
    items = []
    cursor = start
    while cursor < end:
        item, cursor = _decode_at(data, cursor)
        items.append(item)
    if cursor != end:
        raise RlpDecodingError("list items overflow declared length")
    return items, end


def decode(data: bytes):
    """Decode a single RLP item; bytes stay bytes (callers re-interpret ints)."""
    item, end = _decode_at(bytes(data), 0)
    if end != len(data):
        raise RlpDecodingError(f"{len(data) - end} trailing bytes after RLP item")
    return item


def decode_int(data: bytes) -> int:
    if data.startswith(b"\x00") and data != b"":
        raise RlpDecodingError("integer with leading zero bytes")
    return int.from_bytes(data, "big")
