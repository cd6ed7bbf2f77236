import random

import pytest

from rollsim import rlp
from rollsim.l1sim import Chain
from rollsim.oprollup.batching import Batch, build_channel, split_frames
from rollsim.oprollup.deposits import DEPOSIT_TX_PREFIX, DepositedTx, OptimismPortal
from rollsim.oprollup.derivation import (
    BATCH_INBOX_ADDRESS,
    TRANSFER_TX_TYPE,
    WITHDRAW_TX_TYPE,
    L2Block,
    derive,
    execute_block,
    execute_chain,
    transfer_tx,
    withdraw_tx,
)
from rollsim.oprollup.l2 import OpL2State


def deposit(portal, user=0xAB, value=100):
    portal.deposit_transaction(
        caller=user, caller_is_contract=False, to=user, value=value,
        gas_limit=50_000, is_creation=False, data=b"",
        l2_basefee=1, l1_basefee=10**9,
    )


def post_frames(chain, frames, rng=None):
    order = list(range(len(frames)))
    if rng:
        rng.shuffle(order)
    for i in order:
        chain.submit_tx(sender=0x5E9, to=BATCH_INBOX_ADDRESS, calldata=frames[i].encode())


class TestDerive:
    def test_deposits_only_one_block_per_epoch(self):
        chain = Chain()
        portal = OptimismPortal(chain)
        for _ in range(3):
            deposit(portal)
            chain.mine_block()
        blocks = derive(chain, window_w=1)
        assert len(blocks) == 3
        for epoch, block in enumerate(blocks):
            assert block.epoch_number == epoch
            assert block.sequence_number == 0
            # attributes tx plus exactly one deposit
            assert len(block.txs) == 2

    def test_deterministic(self):
        chain = Chain()
        portal = OptimismPortal(chain)
        deposit(portal)
        chain.mine_block()
        chain.mine_block()
        assert [b.hash for b in derive(chain, 1)] == [b.hash for b in derive(chain, 1)]

    def test_batch_inside_window_included(self):
        chain = Chain()
        OptimismPortal(chain)
        b0 = chain.mine_block()
        batch = Batch(
            epoch_number=0, epoch_hash=b0.hash, parent_hash=bytes(32),
            timestamp=b0.timestamp, tx_list=(transfer_tx(1, 2, 3),),
        )
        frames = split_frames(build_channel([batch], timestamp=1, random=1), 1000)
        post_frames(chain, frames)
        chain.mine_block()  # frames land in block 1, window [0, 2)
        blocks = derive(chain, window_w=2)
        epoch0 = [b for b in blocks if b.epoch_number == 0]
        assert len(epoch0) == 2  # deposits block + one sequenced block
        assert epoch0[1].sequence_number == 1
        assert transfer_tx(1, 2, 3) in epoch0[1].txs

    def test_frame_reposted_after_its_channel_is_read_is_ignored(self):
        chain = Chain()
        OptimismPortal(chain)
        b0 = chain.mine_block()
        batch = Batch(
            epoch_number=0, epoch_hash=b0.hash, parent_hash=bytes(32),
            timestamp=b0.timestamp, tx_list=(transfer_tx(1, 2, 3),),
        )
        frames = split_frames(build_channel([batch], timestamp=1, random=1), 1000)
        assert len(frames) == 1
        post_frames(chain, frames)
        chain.mine_block()  # the channel is complete in block 1, window [0, 2)
        post_frames(chain, frames)
        chain.mine_block()  # the same frame again in block 2, past the window
        blocks = derive(chain, window_w=2)
        epoch0 = [b for b in blocks if b.epoch_number == 0]
        assert len(epoch0) == 2  # deposits block + the batch, once
        assert transfer_tx(1, 2, 3) in epoch0[1].txs
        assert sum(transfer_tx(1, 2, 3) in b.txs for b in blocks) == 1

    def test_batch_outside_window_dropped(self):
        chain = Chain()
        OptimismPortal(chain)
        b0 = chain.mine_block()
        chain.mine_block()  # block 1
        chain.mine_block()  # block 2: outside window [0, 2)
        batch = Batch(
            epoch_number=0, epoch_hash=b0.hash, parent_hash=bytes(32),
            timestamp=b0.timestamp, tx_list=(transfer_tx(1, 2, 3),),
        )
        frames = split_frames(build_channel([batch], timestamp=1, random=1), 1000)
        post_frames(chain, frames)  # lands in block 3 = epoch 0 + w+
        chain.mine_block()
        chain.mine_block()
        blocks = derive(chain, window_w=2)
        epoch0 = [b for b in blocks if b.epoch_number == 0]
        assert len(epoch0) == 1  # sequenced batch was dropped

    def test_wrong_epoch_hash_ignored(self):
        chain = Chain()
        OptimismPortal(chain)
        chain.mine_block()
        batch = Batch(
            epoch_number=0, epoch_hash=b"\xBA\xD0" * 16, parent_hash=bytes(32),
            timestamp=0, tx_list=(transfer_tx(1, 2, 3),),
        )
        frames = split_frames(build_channel([batch], timestamp=1, random=1), 1000)
        post_frames(chain, frames)
        chain.mine_block()
        blocks = derive(chain, window_w=2)
        assert all(len(b.txs) == 1 or b.sequence_number == 0 for b in blocks)
        assert len([b for b in blocks if b.epoch_number == 0]) == 1

    @pytest.mark.parametrize(
        "bad_tx",
        [
            DepositedTx(source_hash=bytes(32), from_address=0xBAD, to_address=0xBAD,
                        mint=10**21, value=0, data=b"", gas_limit=21_000).encode(),
            b"",
            [b"nested"],
        ],
        ids=["forged deposit", "empty", "not a byte string"],
    )
    def test_batch_with_a_deposit_or_malformed_tx_is_dropped(self, bad_tx):
        # deposits enter L2 only from portal events; a batch that carries one
        # would let anyone who posts to the inbox mint
        chain = Chain()
        OptimismPortal(chain)
        b0 = chain.mine_block()
        batch = Batch(
            epoch_number=0, epoch_hash=b0.hash, parent_hash=bytes(32),
            timestamp=b0.timestamp, tx_list=(transfer_tx(1, 2, 3), bad_tx),
        )
        post_frames(chain, split_frames(build_channel([batch], timestamp=1, random=1), 1000))
        chain.mine_block()
        blocks = derive(chain, window_w=2)
        assert [b.sequence_number for b in blocks if b.epoch_number == 0] == [0]
        assert execute_chain(blocks).state.balance(0xBAD) == 0

    def test_frame_arrival_order_irrelevant(self):
        rng = random.Random(0)

        def build(order_rng):
            chain = Chain()
            OptimismPortal(chain)
            b0 = chain.mine_block()
            batches = [
                Batch(
                    epoch_number=0, epoch_hash=b0.hash, parent_hash=bytes(32),
                    timestamp=i, tx_list=(transfer_tx(i, i, i),),
                )
                for i in range(3)
            ]
            frames = split_frames(build_channel(batches, timestamp=1, random=1), 25)
            post_frames(chain, frames, rng=order_rng)
            chain.mine_block()
            return [b.hash for b in derive(chain, window_w=2)]

        assert build(random.Random(1)) == build(random.Random(7))

    def test_reorged_suffix_changes_only_suffix(self):
        def build(extra_deposit: bool):
            chain = Chain()
            portal = OptimismPortal(chain)
            deposit(portal, user=0x1, value=10)
            chain.mine_block()
            deposit(portal, user=0x2, value=20)
            chain.mine_block()
            # suffix diverges here
            if extra_deposit:
                deposit(portal, user=0x3, value=30)
            chain.mine_block()
            return derive(chain, window_w=1)

        original = build(False)
        reorged = build(True)
        assert [b.hash for b in original[:2]] == [b.hash for b in reorged[:2]]
        assert original[2].hash != reorged[2].hash


class TestExecution:
    def test_deposit_then_transfer_then_withdraw(self):
        chain = Chain()
        portal = OptimismPortal(chain)
        deposit(portal, user=0xA, value=1_000)
        chain.mine_block()
        b1 = chain.mine_block()
        batch = Batch(
            epoch_number=1, epoch_hash=b1.hash, parent_hash=bytes(32),
            timestamp=b1.timestamp,
            tx_list=(
                transfer_tx(0xA, 0xB, 300),
                withdraw_tx(0xB, 0xB, 100, 21_000),
                transfer_tx(0xA, 0xC, 10**9),  # exceeds balance: skipped
            ),
        )
        frames = split_frames(build_channel([batch], timestamp=1, random=1), 1000)
        post_frames(chain, frames)
        chain.mine_block()
        chain.mine_block()
        executed = execute_chain(derive(chain, window_w=2))
        state = executed.state
        assert state.balance(0xA) == 700
        assert state.balance(0xB) == 200  # 300 in, 100 withdrawn
        assert state.balance(0xC) == 0
        assert len(state.sent_withdrawals) == 1
        assert state.sent_withdrawals[0].value == 100

    def test_withdrawal_provable_against_root(self):
        from rollsim.merkle import verify_inclusion

        chain = Chain()
        portal = OptimismPortal(chain)
        deposit(portal, user=0xA, value=500)
        chain.mine_block()
        b1 = chain.mine_block()
        batch = Batch(
            epoch_number=1, epoch_hash=b1.hash, parent_hash=bytes(32),
            timestamp=b1.timestamp,
            tx_list=(withdraw_tx(0xA, 0xF, 50, 21_000), withdraw_tx(0xA, 0xF, 60, 21_000)),
        )
        post_frames(chain, split_frames(build_channel([batch], timestamp=1, random=1), 1000))
        chain.mine_block()
        chain.mine_block()
        executed = execute_chain(derive(chain, window_w=2))
        state = executed.state
        wtx = state.sent_withdrawals[1]
        proof = state.withdrawal_proof(wtx.hash)
        assert verify_inclusion(state.withdrawal_root(), wtx.hash, proof)

    def test_output_commits_the_tip(self):
        from rollsim.oprollup.l2 import output_root_proof

        chain = Chain()
        portal = OptimismPortal(chain)
        deposit(portal, user=0xA, value=500)
        chain.mine_block()
        b1 = chain.mine_block()
        batch = Batch(
            epoch_number=1, epoch_hash=b1.hash, parent_hash=bytes(32),
            timestamp=b1.timestamp,
            tx_list=(transfer_tx(0xA, 0xB, 100), withdraw_tx(0xA, 0xF, 50, 21_000)),
        )
        post_frames(chain, split_frames(build_channel([batch], timestamp=1, random=1), 1000))
        chain.mine_block()
        chain.mine_block()
        blocks = derive(chain, window_w=2)
        assert len(blocks) >= 3
        executed = execute_chain(blocks)
        assert executed.output == output_root_proof(executed.state, blocks[-1].hash)
        assert executed.output.withdrawal_root == executed.state.withdrawal_root()

    def test_identical_withdrawals_get_distinct_hashes(self):
        from rollsim.oprollup.l2 import OpL2State, initiate_withdrawal

        state = OpL2State()
        state.credit(0xA, 100)
        h1 = initiate_withdrawal(state, 0xA, 0xB, 21_000, 10, b"").hash
        h2 = initiate_withdrawal(state, 0xA, 0xB, 21_000, 10, b"").hash
        assert h1 != h2  # nonce differs

    def test_zero_value_withdrawal_valid(self):
        from rollsim.oprollup.l2 import OpL2State, initiate_withdrawal

        state = OpL2State()
        assert initiate_withdrawal(state, 0xA, 0xB, 21_000, 0, b"").hash

    def test_insufficient_funds(self):
        import pytest

        from rollsim.oprollup.l2 import InsufficientFunds, OpL2State, initiate_withdrawal

        state = OpL2State()
        with pytest.raises(InsufficientFunds):
            initiate_withdrawal(state, 0xA, 0xB, 21_000, 5, b"")

    def test_attributes_registered_on_l2(self):
        chain = Chain()
        portal = OptimismPortal(chain)
        deposit(portal)
        chain.mine_block()
        executed = execute_chain(derive(chain, window_w=1))
        attrs = executed.state.latest_attributes
        assert attrs is not None
        assert attrs.number == 0
        assert attrs.hash == chain.blocks[0].hash
        assert attrs.sequence_number == 0


# a known answer for each transaction type, written out byte by byte; 0xA,
# 0xB and 0xF are below 2^152, so their 20-byte fields lead with zero bytes
TRANSFER_A_TO_B_300 = bytes.fromhex(
    "70" "ed"  # transfer type, a list of 45 bytes
    "94" + "00" * 19 + "0a"  # from
    + "94" + "00" * 19 + "0b"  # to
    + "82012c"  # value 300
)
WITHDRAW_B_TO_F_100 = bytes.fromhex(
    "71" "f1"  # withdrawal type, a list of 49 bytes
    "94" + "00" * 19 + "0b"  # sender
    + "94" + "00" * 19 + "0f"  # target
    + "64"  # value 100
    + "825208"  # gas limit 21,000
    + "82beef"  # data
)


class TestTransactionEncoding:
    def test_known_answers(self):
        assert transfer_tx(0xA, 0xB, 300) == TRANSFER_A_TO_B_300
        assert withdraw_tx(0xB, 0xF, 100, 21_000, b"\xbe\xef") == WITHDRAW_B_TO_F_100

    def test_known_answers_execute_between_small_addresses(self):
        state = OpL2State()
        state.credit(0xA, 1_000)
        block = L2Block(number=1, epoch_number=0, epoch_hash=bytes(32), timestamp=0,
                        sequence_number=1, txs=(TRANSFER_A_TO_B_300, WITHDRAW_B_TO_F_100))
        execute_block(state, block)
        assert state.balances == {0xA: 700, 0xB: 200}
        (wtx,) = state.sent_withdrawals
        assert (wtx.sender, wtx.target, wtx.value, wtx.gas_limit, wtx.data) == (
            0xB, 0xF, 100, 21_000, b"\xbe\xef")


_A, _B = (0xA).to_bytes(20, "big"), (0xB).to_bytes(20, "big")


def _typed(tx_type: int, fields: list) -> bytes:
    return bytes([tx_type]) + rlp.encode(fields)


def _nested(depth: int) -> bytes:
    item = b"\xc0"
    for _ in range(depth):
        item = rlp._encode_length(len(item), 0xC0) + item
    return item


# (id, an L2 transaction execution must skip); most would move value from
# 0xA if they were read
MALFORMED_TXS = [
    ("unknown type byte", bytes([WITHDRAW_TX_TYPE + 1]) + transfer_tx(0xA, 0xB, 5)[1:]),
    ("not a list", _typed(TRANSFER_TX_TYPE, _A + _B + b"\x05")),
    ("nested too deeply", bytes([TRANSFER_TX_TYPE]) + _nested(5000)),
    ("wrong arity", _typed(WITHDRAW_TX_TYPE, [_A, _B, 3, 21_000])),
    ("19-byte sender", _typed(TRANSFER_TX_TYPE, [_A[1:], _B, 5])),
    ("target beyond 160 bits", _typed(TRANSFER_TX_TYPE, [_A, b"\x00" + _B, 5])),
    ("value with a leading zero", _typed(TRANSFER_TX_TYPE, [_A, _B, b"\x00\x05"])),
    ("33-byte gas limit", _typed(WITHDRAW_TX_TYPE, [_A, _B, 3, 1 << 256, b""])),
    ("data not a string", _typed(WITHDRAW_TX_TYPE, [_A, _B, 3, 21_000, [b""]])),
    ("trailing bytes", transfer_tx(0xA, 0xB, 5) + b"\x00"),
    # deposit-typed payloads that are not an RLP list of seven byte strings
    ("deposit a string", bytes.fromhex("7e01")),
    ("deposit an empty list", bytes.fromhex("7ec0")),
    ("deposit a list of a list", bytes.fromhex("7ec1c0")),
    ("deposit a string and a list", bytes.fromhex("7ec280c0")),
    # the state root commits addresses as 20 bytes
    ("deposit from a 21-byte address", _typed(DEPOSIT_TX_PREFIX, [
        bytes(32), 1 << 160, 0xA, 10**21, 0, b"", 21_000])),
]


@pytest.mark.parametrize("bad_tx", [tx for _, tx in MALFORMED_TXS],
                         ids=[name for name, _ in MALFORMED_TXS])
def test_malformed_payload_is_skipped(bad_tx):
    state = OpL2State()
    state.credit(0xA, 10)
    block = L2Block(number=1, epoch_number=0, epoch_hash=bytes(32), timestamp=0,
                    sequence_number=1, txs=(bad_tx, transfer_tx(0xA, 0xC, 1)))
    execute_block(state, block)
    assert state == OpL2State(balances={0xA: 9, 0xC: 1})


def test_random_deposit_payloads_never_raise():
    rng = random.Random(11)
    # lengths around an address's 20 bytes and a word's 32
    lengths = [0, 1, 2, 19, 20, 20, 20, 21, 32, 33]

    def random_item(depth):
        if depth == 0 or rng.random() < 0.6:
            return rng.randbytes(rng.choice(lengths) if rng.random() < 0.5 else rng.randrange(40))
        return [random_item(depth - 1) for _ in range(rng.randrange(0, 9))]

    def one_byte_off():
        sender, to, value = rng.randrange(1 << 160), rng.randrange(1 << 160), rng.randrange(3)
        tx = transfer_tx(sender, to, value) if rng.random() < 0.5 else withdraw_tx(
            sender, to, value, 21_000)
        body = bytearray(tx[1:])
        body[rng.randrange(len(body))] = rng.randrange(256)
        return bytes(body)

    for tx_type in (DEPOSIT_TX_PREFIX, TRANSFER_TX_TYPE, WITHDRAW_TX_TYPE):
        for _ in range(1000):
            pick = rng.random()
            if pick < 0.4:
                body = rlp.encode(random_item(3))
            elif pick < 0.7:
                body = one_byte_off()
            else:
                body = rng.randbytes(rng.randrange(0, 40))
            block = L2Block(number=1, epoch_number=0, epoch_hash=bytes(32), timestamp=0,
                            sequence_number=1, txs=(bytes([tx_type]) + body,))
            state = execute_block(OpL2State(), block)
            if tx_type != DEPOSIT_TX_PREFIX:  # only a deposit mints
                assert sum(state.balances.values()) == 0
            state.state_root()
