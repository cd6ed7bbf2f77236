"""Sequencer data-availability wire objects: batches, channels, frames.

A channel is the ZLIB compression of an RLP-encoded batch sequence; frames
chunk a channel so it fits into L1 transactions and may land in any order.
``read_channels``, which derivation runs on the batch inbox, is where frames
become batches again, each channel once every one of its frames is present.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .. import rlp


# frame numbers are a uint16 on the wire, so a channel holds at most 2^16 frames
MAX_FRAMES = 1 << 16


class TooManyFrames(ValueError):
    """A channel needs more frames than a uint16 frame number can count."""

    def __init__(self, frames: int):
        super().__init__(f"channel needs {frames} frames, more than the {MAX_FRAMES} "
                         "a uint16 frame number counts")
        self.frames = frames


@dataclass(frozen=True)
class Batch:
    """One L2 block's worth of sequenced transactions, anchored to its epoch."""

    epoch_number: int
    epoch_hash: bytes
    parent_hash: bytes
    timestamp: int
    tx_list: tuple[bytes, ...]

    def to_rlp_item(self):
        return [
            self.epoch_number,
            self.epoch_hash,
            self.parent_hash,
            self.timestamp,
            list(self.tx_list),
        ]

    @classmethod
    def from_rlp_item(cls, item) -> "Batch":
        if (
            not isinstance(item, list) or len(item) != 5 or not isinstance(item[4], list)
            or not all(isinstance(field, bytes) for field in (*item[:4], *item[4]))
        ):
            raise ValueError("batch item has the wrong shape")
        return cls(
            epoch_number=rlp.decode_int(item[0]),
            epoch_hash=item[1],
            parent_hash=item[2],
            timestamp=rlp.decode_int(item[3]),
            tx_list=tuple(item[4]),
        )


@dataclass(frozen=True)
class Channel:
    """Identified by (timestamp, random) so publication order is free."""

    timestamp: int
    random: int
    payload: bytes  # zlib(rlp([batches]))

    @property
    def channel_id(self) -> bytes:
        return self.timestamp.to_bytes(8, "big") + self.random.to_bytes(8, "big")


@dataclass(frozen=True)
class Frame:
    """One channel frame as posted in batcher calldata; ``encode`` gives its bytes."""

    channel_id: bytes  # 16 bytes
    random: int
    timestamp: int
    frame_number: int
    frame_data: bytes
    is_last: bool

    def encode(self) -> bytes:
        """Fixed field order: channel_id 16, random 8, timestamp 8,
        frame_number 2, frame_data_length 4, frame_data, is_last 1."""
        return (
            self.channel_id
            + struct.pack(">QQHI", self.random, self.timestamp, self.frame_number,
                          len(self.frame_data))
            + self.frame_data
            + (b"\x01" if self.is_last else b"\x00")
        )

    @classmethod
    def decode(cls, blob: bytes, offset: int = 0) -> tuple["Frame", int]:
        """Parse one frame starting at ``offset``; returns (frame, next offset).

        An ``is_last`` byte other than 0 or 1 is a ``ValueError``, as op-node
        refuses it, so no malformed frame reaches a channel."""
        header_end = offset + 16 + struct.calcsize(">QQHI")
        if header_end > len(blob):
            raise ValueError("truncated frame header")
        channel_id = blob[offset : offset + 16]
        random, timestamp, frame_number, data_len = struct.unpack(
            ">QQHI", blob[offset + 16 : header_end]
        )
        data_end = header_end + data_len
        if data_end + 1 > len(blob):
            raise ValueError("truncated frame data")
        if blob[data_end] > 1:
            raise ValueError(f"invalid is_last byte {blob[data_end]}")
        return (
            cls(
                channel_id=channel_id,
                random=random,
                timestamp=timestamp,
                frame_number=frame_number,
                frame_data=blob[header_end:data_end],
                is_last=blob[data_end] == 1,
            ),
            data_end + 1,
        )


def parse_frames(blob: bytes) -> list[Frame]:
    """Greedily parse consecutive frames out of one calldata blob."""
    frames = []
    offset = 0
    while offset < len(blob):
        frame, offset = Frame.decode(blob, offset)
        frames.append(frame)
    return frames


def build_channel(batches: Sequence[Batch], timestamp: int = 0, random: int = 0) -> Channel:
    payload = zlib.compress(rlp.encode([b.to_rlp_item() for b in batches]))
    return Channel(timestamp=timestamp, random=random, payload=payload)


def split_frames(channel: Channel, max_frame_bytes: int) -> list[Frame]:
    """Chunk a channel payload into frames numbered from zero.

    Raises ``TooManyFrames`` when the chunks would number more than
    ``MAX_FRAMES``, before building any frame.
    """
    if max_frame_bytes < 1:
        raise ValueError("max_frame_bytes must be at least 1")
    chunks = [
        channel.payload[i : i + max_frame_bytes]
        for i in range(0, len(channel.payload), max_frame_bytes)
    ] or [b""]
    if len(chunks) > MAX_FRAMES:
        raise TooManyFrames(len(chunks))
    return [
        Frame(
            channel_id=channel.channel_id,
            random=channel.random,
            timestamp=channel.timestamp,
            frame_number=number,
            frame_data=chunk,
            is_last=number == len(chunks) - 1,
        )
        for number, chunk in enumerate(chunks)
    ]


class _ChannelFrames:
    """One channel's frames as they land in ``read_channels``, and the rule
    that says when they make the channel, as the OP Stack's channel bank
    adds frames. It is the only place that rule lives.

    The first frame seen for each number is kept; a later frame with that
    number is ignored. The first frame marked last sets the channel's end:
    kept frames numbered past it are dropped, and later ones ignored, as is
    a second frame marked last. So the channel is complete exactly when it
    holds ``end + 1`` frames, and ``add`` tells by a count, not a scan.
    """

    def __init__(self):
        self._data: dict[int, bytes] = {}  # frame number -> frame data
        self._end: int | None = None

    def add(self, frame: Frame) -> bool:
        """Take ``frame`` by the rule above; True once the channel is complete."""
        number, end = frame.frame_number, self._end
        if number not in self._data and (end is None or (not frame.is_last and number < end)):
            self._data[number] = frame.frame_data
            if frame.is_last:
                self._end = number
                for past in [n for n in self._data if n > number]:
                    del self._data[past]
        return self._end is not None and len(self._data) == self._end + 1

    def join(self) -> bytes:
        """The channel payload, frames 0..end in order; called once ``add``
        has reported the channel complete."""
        return b"".join(self._data[n] for n in range(self._end + 1))


def decode_channel_payload(payload: bytes) -> list[Batch]:
    """Decompress and decode; malformed payloads yield no batches.

    Invalid batches are ignored rather than surfaced: a sequencer that posts
    garbage simply contributes nothing to derivation.
    """
    try:
        items = rlp.decode(zlib.decompress(payload))
    except (zlib.error, rlp.RlpDecodingError):
        return []
    if not isinstance(items, list):
        return []
    batches = []
    for item in items:
        try:
            batches.append(Batch.from_rlp_item(item))
        except (ValueError, rlp.RlpDecodingError):
            continue
    return batches


def read_channels(calldata: Iterable[tuple[bytes, int]]) -> list[tuple[list[Batch], int, int]]:
    """Read batches out of ``(calldata, L1 block number)`` pairs in landing order.

    Calldata that does not parse as frames is skipped whole, so a frame
    with an ``is_last`` byte other than 0 or 1 takes no frame number. Frames
    group by channel id in first-seen order, each channel taking its frames
    as ``_ChannelFrames`` says. A channel is read once, at the frame that
    completes it, and gives (its batches, the block its first frame landed
    in, the block of the completing frame); later frames with its id are
    dropped, as the OP Stack's channel bank drops a channel once it has read
    it. An incomplete channel, one missing its last frame or with a gap,
    gives nothing."""
    landing: dict[bytes, tuple[int, _ChannelFrames]] = {}  # first block, frames so far
    read: dict[bytes, tuple[list[Batch], int, int]] = {}
    for blob, block_number in calldata:
        try:
            frames = parse_frames(blob)
        except ValueError:
            continue
        for frame in frames:
            if frame.channel_id in read:
                continue
            first_block, channel = landing.setdefault(
                frame.channel_id, (block_number, _ChannelFrames())
            )
            if channel.add(frame):
                read[frame.channel_id] = (
                    decode_channel_payload(channel.join()), first_block, block_number
                )
    return [read[channel_id] for channel_id in landing if channel_id in read]
