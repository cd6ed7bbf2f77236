import random

import pytest

from rollsim import rlp
from rollsim.oprollup import batching
from rollsim.oprollup.batching import (
    MAX_FRAMES,
    Batch,
    Channel,
    Frame,
    TooManyFrames,
    build_channel,
    decode_channel_payload,
    parse_frames,
    read_channels,
    split_frames,
)


def random_batch(rng: random.Random, epoch: int = 0) -> Batch:
    return Batch(
        epoch_number=epoch,
        epoch_hash=rng.randbytes(32),
        parent_hash=rng.randbytes(32),
        timestamp=rng.randrange(10**9),
        tx_list=tuple(rng.randbytes(rng.randrange(1, 80)) for _ in range(rng.randrange(0, 6))),
    )


def read_batches(frames: list[Frame]) -> list[Batch]:
    """The batches the channel reader finds when each frame is posted as its
    own calldata, all in one L1 block."""
    return [batch for batches, _, _ in read_channels((f.encode(), 0) for f in frames)
            for batch in batches]


class TestFrameWire:
    def test_encode_decode_round_trip(self):
        frame = Frame(
            channel_id=bytes(range(16)), random=7, timestamp=1234,
            frame_number=2, frame_data=b"payload", is_last=True,
        )
        decoded, consumed = Frame.decode(frame.encode())
        assert decoded == frame
        assert consumed == len(frame.encode())

    def test_fixed_field_order(self):
        frame = Frame(
            channel_id=b"\xaa" * 16, random=1, timestamp=2,
            frame_number=3, frame_data=b"zz", is_last=False,
        )
        blob = frame.encode()
        assert blob[:16] == b"\xaa" * 16
        assert int.from_bytes(blob[16:24], "big") == 1  # random
        assert int.from_bytes(blob[24:32], "big") == 2  # timestamp
        assert int.from_bytes(blob[32:34], "big") == 3  # frame_number
        assert int.from_bytes(blob[34:38], "big") == 2  # frame_data_length
        assert blob[38:40] == b"zz"
        assert blob[40] == 0  # is_last

    def test_multiple_frames_one_blob(self):
        channel = build_channel([random_batch(random.Random(0))], timestamp=5, random=6)
        frames = split_frames(channel, 20)
        blob = b"".join(f.encode() for f in frames)
        assert parse_frames(blob) == frames

    def test_truncated_frame(self):
        frame = Frame(
            channel_id=bytes(16), random=0, timestamp=0,
            frame_number=0, frame_data=b"abc", is_last=True,
        )
        with pytest.raises(ValueError):
            Frame.decode(frame.encode()[:-2])

    @pytest.mark.parametrize("is_last", [0x02, 0xFF])
    def test_is_last_byte_other_than_0_or_1_is_refused(self, is_last):
        frame = Frame(
            channel_id=bytes(16), random=0, timestamp=0,
            frame_number=0, frame_data=b"abc", is_last=True,
        )
        with pytest.raises(ValueError, match="is_last"):
            Frame.decode(frame.encode()[:-1] + bytes([is_last]))


class TestFrameLimit:
    def test_a_uint16_frame_number_bounds_the_frames_of_a_channel(self):
        fits = Channel(timestamp=1, random=2, payload=bytes(MAX_FRAMES))
        frames = split_frames(fits, 1)
        assert MAX_FRAMES == 65_536 == len(frames)
        assert Frame.decode(frames[-1].encode())[0] == frames[-1]
        with pytest.raises(TooManyFrames, match="65537 frames") as raised:
            split_frames(Channel(timestamp=1, random=2, payload=bytes(MAX_FRAMES + 1)), 1)
        assert raised.value.frames == MAX_FRAMES + 1


class TestChannelRoundTrip:
    def test_single_batch_single_frame(self):
        batch = random_batch(random.Random(1))
        channel = build_channel([batch], timestamp=9, random=9)
        frames = split_frames(channel, 10**6)
        assert len(frames) == 1
        assert frames[0].is_last
        assert read_channels([(frames[0].encode(), 3)]) == [([batch], 3, 3)]

    def test_out_of_order_frames(self):
        rng = random.Random(2)
        batches = [random_batch(rng) for _ in range(4)]
        channel = build_channel(batches, timestamp=1, random=2)
        frames = split_frames(channel, 17)
        assert len(frames) >= 3
        shuffled = [frames[i] for i in (2, 0, 1)] + frames[3:]
        assert read_batches(shuffled) == batches

    def test_random_permutations_and_chunkings(self):
        rng = random.Random(3)
        for _ in range(60):
            batches = [random_batch(rng) for _ in range(rng.randrange(1, 5))]
            channel = build_channel(
                batches, timestamp=rng.randrange(100), random=rng.randrange(2**64)
            )
            frames = split_frames(channel, rng.randrange(1, 60))
            rng.shuffle(frames)
            assert read_batches(frames) == batches

    def test_missing_frame_is_incomplete(self):
        rng = random.Random(4)
        channel = build_channel([random_batch(rng)], timestamp=0, random=1)
        frames = split_frames(channel, 10)
        assert len(frames) > 2
        assert read_batches(frames[:-1]) == []  # last frame missing
        assert read_batches([frames[0], frames[-1]]) == []  # gap

    def test_retransmission_completes(self):
        rng = random.Random(5)
        batches = [random_batch(rng)]
        channel = build_channel(batches, timestamp=0, random=1)
        frames = split_frames(channel, 10)
        partial = [(f.encode(), 1) for f in frames[:-1]]
        assert read_channels(partial) == []
        assert read_channels(partial + [(frames[-1].encode(), 2)]) == [(batches, 1, 2)]

    def test_corrupt_payload_yields_no_batches(self):
        assert decode_channel_payload(b"not zlib at all") == []

    def test_corrupt_rlp_inside_zlib(self):
        import zlib

        assert decode_channel_payload(zlib.compress(b"\xf9\xff\xff")) == []

    @pytest.mark.parametrize("field", range(4))
    def test_batch_with_a_list_for_a_scalar_field_is_dropped(self, field):
        import zlib

        item = [b"", b"\x01" * 32, b"\x02" * 32, b"", [b"tx"]]
        item[field] = []
        assert decode_channel_payload(zlib.compress(rlp.encode([item]))) == []

    def test_two_channels_interleaved(self):
        rng = random.Random(6)
        b1, b2 = [random_batch(rng)], [random_batch(rng)]
        f1 = split_frames(build_channel(b1, timestamp=1, random=1), 15)
        f2 = split_frames(build_channel(b2, timestamp=2, random=2), 15)
        interleaved = [f for pair in zip(f1, f2) for f in pair]
        leftovers = f1[len(f2):] + f2[len(f1):]
        assert read_batches(interleaved + leftovers) == b1 + b2


class TestChannelReader:
    def test_channel_spans_the_blocks_its_frames_landed_in(self):
        rng = random.Random(7)
        batches = [random_batch(rng) for _ in range(3)]
        frames = split_frames(build_channel(batches, timestamp=1, random=2), 12)
        assert len(frames) >= 4
        rng.shuffle(frames)
        landing = [(frames[0].encode(), 4), (b"".join(f.encode() for f in frames[1:-1]), 5),
                   (frames[-1].encode(), 7)]
        assert read_channels(landing) == [(batches, 4, 7)]

    def test_garbage_and_incomplete_channels_yield_nothing(self):
        rng = random.Random(8)
        b1, b2, b3 = ([random_batch(rng)] for _ in range(3))
        f1 = split_frames(build_channel(b1, timestamp=1, random=1), 15)
        f2 = split_frames(build_channel(b2, timestamp=2, random=2), 15)
        f3 = split_frames(build_channel(b3, timestamp=3, random=3), 15)
        landing = [
            (f1[0].encode(), 0),
            (b"not a frame", 0),
            (f2[0].encode()[:-1], 1),  # truncated, so the whole blob is skipped
            *((f.encode(), 1) for f in f2[:-1]),  # channel 2 never completes
            *((f.encode(), 2) for f in f3),
            *((f.encode(), 3) for f in f1[1:]),
        ]
        assert read_channels(landing) == [(b1, 0, 3), (b3, 2, 2)]

    def test_frame_reposted_after_its_channel_completes_is_dropped(self):
        rng = random.Random(9)
        batches = [random_batch(rng)]
        (frame,) = split_frames(build_channel(batches, timestamp=1, random=1), 1000)
        # the channel is read in block 1, once; the copy in block 2 moves nothing
        landing = [(frame.encode(), 1), (frame.encode(), 2)]
        assert read_channels(landing) == [(batches, 1, 1)]

    def test_channel_lands_at_its_completing_frame(self):
        rng = random.Random(10)
        b1, b2 = [random_batch(rng)], [random_batch(rng)]
        f1 = split_frames(build_channel(b1, timestamp=1, random=1), 15)
        f2 = split_frames(build_channel(b2, timestamp=2, random=2), 15)
        assert len(f1) >= 3
        landing = [
            *((f.encode(), 4) for f in f1[1:]),
            (f2[0].encode(), 4),
            (f1[0].encode(), 5),  # completes channel 1
            *((f.encode(), 6) for f in f1),  # channel 1 again, after it was read
            *((f.encode(), 6) for f in f2[1:]),
        ]
        assert read_channels(landing) == [(b1, 4, 5), (b2, 4, 6)]

    def test_first_frame_with_a_number_wins(self):
        # a different channel under the same id lands between the first
        # channel's early frames and its last one: each of its frame numbers
        # is already taken, so the first channel is read, at its own last frame
        rng = random.Random(11)
        first, other = [random_batch(rng) for _ in range(3)], [random_batch(rng)]
        f1 = split_frames(build_channel(first, timestamp=1, random=1), 15)
        f2 = split_frames(build_channel(other, timestamp=1, random=1), 15)
        assert f1[0].channel_id == f2[0].channel_id and len(f1) > len(f2)
        landing = [
            *((f.encode(), 1) for f in f1[:-1]),
            *((f.encode(), 2) for f in f2),
            (f1[-1].encode(), 3),
        ]
        assert read_channels(landing) == [(first, 1, 3)]

    def test_frames_past_the_end_and_a_second_last_frame_are_ignored(self):
        rng = random.Random(12)
        batches = [random_batch(rng)]
        frames = split_frames(build_channel(batches, timestamp=1, random=1), 15)
        assert len(frames) >= 3
        end = len(frames) - 1
        forged = dict(channel_id=frames[0].channel_id, random=1, timestamp=1, frame_data=b"x")
        landing = [
            Frame(frame_number=end + 2, is_last=False, **forged),  # past the end, dropped
            *frames[:end - 1],
            frames[end],
            Frame(frame_number=end + 1, is_last=False, **forged),  # past the end, ignored
            Frame(frame_number=end - 1, is_last=True, **forged),  # a second last frame
            frames[end - 1],
        ]
        assert read_batches(landing) == batches

    def test_frame_with_a_bad_is_last_byte_takes_no_frame_number(self):
        # a junk frame 0 under the channel's id lands first; it does not
        # parse, so the real frame 0 is kept and the channel reads its batch
        rng = random.Random(14)
        batches = [random_batch(rng)]
        frames = split_frames(build_channel(batches, timestamp=1, random=1), 100)
        assert len(frames) == 3
        junk = Frame(channel_id=frames[0].channel_id, random=1, timestamp=1,
                     frame_number=0, frame_data=b"junk", is_last=False)
        landing = [(junk.encode()[:-1] + b"\x02", 1), *((f.encode(), 1) for f in frames)]
        assert read_channels(landing) == [(batches, 1, 1)]

    def test_a_many_frame_channel_is_joined_once(self, monkeypatch):
        rng = random.Random(13)
        batches = [random_batch(rng) for _ in range(60)]
        frames = split_frames(build_channel(batches, timestamp=1, random=1), 1)
        assert len(frames) > 4_000
        rng.shuffle(frames)
        joins = []
        join = batching._ChannelFrames.join
        monkeypatch.setattr(batching._ChannelFrames, "join",
                            lambda self: joins.append(1) or join(self))
        landing = [(f.encode(), n) for n, f in enumerate(frames)]
        assert read_channels(landing) == [(batches, 0, len(frames) - 1)]
        assert len(joins) == 1
