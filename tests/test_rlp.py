import random

import pytest

from rollsim import rlp


class TestEncode:
    def test_single_byte_passthrough(self):
        assert rlp.encode(b"a") == b"a"
        assert rlp.encode(b"\x7f") == b"\x7f"

    def test_short_string(self):
        assert rlp.encode(b"dog") == b"\x83dog"

    def test_empty_string_and_zero(self):
        assert rlp.encode(b"") == b"\x80"
        assert rlp.encode(0) == b"\x80"

    def test_integers_big_endian_minimal(self):
        assert rlp.encode(15) == b"\x0f"
        assert rlp.encode(1024) == b"\x82\x04\x00"

    def test_empty_list(self):
        assert rlp.encode([]) == b"\xc0"

    def test_nested_list(self):
        # the canonical set-theoretic representation of three
        assert rlp.encode([[], [[]], [[], [[]]]]) == b"\xc7\xc0\xc1\xc0\xc3\xc0\xc1\xc0"

    def test_long_string_prefix(self):
        data = b"x" * 56
        assert rlp.encode(data) == b"\xb8\x38" + data

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rlp.encode(-1)


class TestDecode:
    def test_round_trip_structures(self):
        rng = random.Random(5)

        def random_item(depth):
            if depth == 0 or rng.random() < 0.6:
                return rng.randbytes(rng.randrange(0, 70))
            return [random_item(depth - 1) for _ in range(rng.randrange(0, 5))]

        for _ in range(200):
            item = random_item(3)
            assert rlp.decode(rlp.encode(item)) == item

    def test_trailing_bytes_rejected(self):
        with pytest.raises(rlp.RlpDecodingError):
            rlp.decode(rlp.encode(b"dog") + b"\x00")

    def test_truncation_rejected(self):
        encoded = rlp.encode([b"hello", b"world"])
        with pytest.raises(rlp.RlpDecodingError):
            rlp.decode(encoded[:-1])

    def test_non_canonical_single_byte(self):
        # 0x05 must encode as itself, not as 0x81 0x05
        with pytest.raises(rlp.RlpDecodingError):
            rlp.decode(b"\x81\x05")

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\xb9\x00\x38" + b"x" * 56, "leading zero"),
            (b"\xf9\x00" + rlp.encode([b"y" * 55])[1:], "leading zero"),
            (b"\xb8\x37" + b"x" * 55, "non-canonical long string"),
            (b"\xf8\x37" + rlp.encode([b"y" * 54])[1:], "non-canonical long list"),
            (b"\xb9\x01", "truncated length-of-length"),
            (b"\xf9\x01", "truncated length-of-length"),
        ],
        ids=[
            "string-leading-zero", "list-leading-zero",
            "string-below-56", "list-below-56",
            "string-truncated-length", "list-truncated-length",
        ],
    )
    def test_non_canonical_long_length_rejected(self, data, reason):
        with pytest.raises(rlp.RlpDecodingError, match=reason):
            rlp.decode(data)

    def test_decode_int(self):
        assert rlp.decode_int(rlp.decode(rlp.encode(77))) == 77
        assert rlp.decode_int(b"") == 0
