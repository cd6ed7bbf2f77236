import json

import pytest

from rollsim import hashing
from rollsim.l1sim import (
    CensorshipModel,
    Chain,
    Event,
    NONZERO_TO_NONZERO,
    REWRITE_SAME,
    TO_ZERO,
    TX_BASE_GAS,
    UnknownAddress,
    ZERO_TO_NONZERO,
    calldata_gas,
    censorship_expected_value,
    l1_attributes,
    sstore_charge,
    sstore_gas,
)


class TestCalldataGas:
    def test_32_zero_bytes(self):
        assert calldata_gas(bytes(32)) == 128

    def test_mixed(self):
        assert calldata_gas(b"\x01\x00") == 20

    def test_empty(self):
        assert calldata_gas(b"") == 0

    def test_bytearray(self):
        assert calldata_gas(bytearray(b"\x00\x05\x00")) == 24

    def test_mixed_pattern_matches_per_byte_count(self):
        # the per-byte count calldata_gas used before it counted zeros in C
        data = bytes((i * 37) % 5 * (i % 3) for i in range(1000))
        for blob in (data, bytearray(data), data[1:], data[:-7]):
            nonzero = sum(1 for b in blob if b)
            assert 0 < nonzero < len(blob)
            assert calldata_gas(blob) == 16 * nonzero + 4 * (len(blob) - nonzero)

    def test_monotone_under_append(self):
        data = b""
        last = 0
        for byte in b"\x00\x01\x00\xff\x00\x00\x07":
            data += bytes([byte])
            gas = calldata_gas(data)
            assert gas >= last
            last = gas


class TestSstoreGas:
    def test_zero_to_nonzero_cold(self):
        assert sstore_gas(ZERO_TO_NONZERO, cold=True) == 22_100

    def test_zero_to_nonzero_warm(self):
        assert sstore_gas(ZERO_TO_NONZERO, cold=False) == 20_000

    def test_nonzero_to_nonzero(self):
        assert sstore_gas(NONZERO_TO_NONZERO, cold=True) == 5_000
        assert sstore_gas(NONZERO_TO_NONZERO, cold=False) == 2_900

    def test_rewrite_same_both(self):
        assert sstore_gas(REWRITE_SAME, cold=True) == 100
        assert sstore_gas(REWRITE_SAME, cold=False) == 100

    def test_to_zero_carries_refund_marker(self):
        charge = sstore_charge(TO_ZERO, cold=False)
        assert charge.gas == 2_900  # previous-transition cost
        assert charge.refund
        assert not sstore_charge(ZERO_TO_NONZERO, cold=True).refund

    def test_ten_cold_fresh_writes(self):
        assert 10 * sstore_gas(ZERO_TO_NONZERO, cold=True) == 221_000


class TestCensorship:
    def test_reference_value(self):
        model = CensorshipModel(value_at_risk=10**6, p=0.99, n=1800)
        assert abs(censorship_expected_value(model) - 0.01391) < 1e-4

    def test_p_zero(self):
        assert censorship_expected_value(CensorshipModel(10**6, 0.0, 5)) == 0.0

    def test_n_zero_returns_value(self):
        assert censorship_expected_value(CensorshipModel(123.0, 0.5, 0)) == 123.0

    def test_monotone_decreasing_in_n(self):
        values = [
            censorship_expected_value(CensorshipModel(10**6, 0.99, n))
            for n in range(0, 3000, 100)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            CensorshipModel(1.0, 1.5, 10)


class SlotWriter:
    """Minimal contract: writes a value to a slot on each call."""

    def set_slot(self, ctx, slot, value):
        ctx.storage_write(slot, value)
        ctx.emit("SlotSet", slot.to_bytes(4, "big"))

    def set_and_get(self, ctx, slot, value):
        ctx.storage_write(slot, value)
        return ctx.storage_read(slot)

    def get_slot(self, ctx, slot):
        return ctx.storage_read(slot)


class Reverter:
    def boom(self, ctx, slot):
        ctx.storage_write(slot, 1)
        ctx.emit("ShouldNotSurvive", b"")
        raise RuntimeError("handler failure")


class TestChain:
    def test_empty_block_gas_zero(self):
        chain = Chain()
        block = chain.mine_block()
        assert block.gas_used == 0
        assert block.number == 0

    def test_event_retrievable_by_block_and_index(self):
        chain = Chain()
        chain.register_contract(0xC0, SlotWriter())
        chain.submit_tx(0x1, 0xC0, call=("set_slot", {"slot": 1, "value": 5}))
        chain.mine_block()
        (event,) = chain.events_in_block(0)
        assert (event.name, event.log_index) == ("SlotSet", 0)

    def test_same_slot_twice_in_block_pays_warm(self):
        chain = Chain()
        chain.register_contract(0xC0, SlotWriter())
        r1 = chain.submit_tx(0x1, 0xC0, call=("set_slot", {"slot": 7, "value": 1}))
        r2 = chain.submit_tx(0x1, 0xC0, call=("set_slot", {"slot": 7, "value": 2}))
        # first write: cold zero->nonzero; second: dirty slot, rewrite price
        assert r1.gas_used - r2.gas_used == 22_100 - 100
        chain.mine_block()
        # new block: warm/dirty tracking reset, slot now nonzero and cold
        r3 = chain.submit_tx(0x1, 0xC0, call=("set_slot", {"slot": 7, "value": 3}))
        assert r3.gas_used - r2.gas_used == 5_000 - 100

    def test_storage_read_returns_the_contracts_own_writes(self):
        chain = Chain()
        chain.register_contract(0xC0, SlotWriter())
        chain.register_contract(0xC1, SlotWriter())
        assert chain.submit_tx(0x1, 0xC0, call=("set_and_get", {"slot": 4, "value": 9})).result == 9
        assert chain.submit_tx(0x1, 0xC0, call=("get_slot", {"slot": 4})).result == 9
        # another contract reads its own slot 4, which nothing wrote
        assert chain.submit_tx(0x1, 0xC1, call=("get_slot", {"slot": 4})).result == 0

    def test_unknown_address_reverts(self):
        chain = Chain()
        receipt = chain.submit_tx(0x1, 0xFF, call=("anything", {}))
        assert not receipt.status
        assert "no contract registered" in receipt.error

    def test_revert_rolls_back_state_and_events(self):
        chain = Chain()
        chain.register_contract(0xC0, Reverter())
        receipt = chain.submit_tx(0x1, 0xC0, call=("boom", {"slot": 3}))
        assert not receipt.status
        assert chain.storage.get(0xC0, {}).get(3, 0) == 0
        chain.mine_block()
        assert chain.events == []

    def test_parent_hash_links(self):
        chain = Chain()
        b0 = chain.mine_block()
        b1 = chain.mine_block()
        assert b1.parent_hash == b0.hash
        assert b1.timestamp - b0.timestamp == chain.block_time

    def test_replay_determinism(self):
        def build():
            chain = Chain()
            chain.register_contract(0xC0, SlotWriter())
            for i in range(5):
                chain.submit_tx(0x1, 0xC0, call=("set_slot", {"slot": i, "value": i * 7}))
                chain.mine_block()
            return chain

        a, b = build(), build()
        assert [blk.hash for blk in a.blocks] == [blk.hash for blk in b.blocks]
        assert a.dump_state() == b.dump_state()

    def test_dump_state_is_json(self):
        chain = Chain()
        chain.fund(0xAA, 5)
        chain.mine_block()
        state = json.loads(chain.dump_state())
        assert state["balances"] == {str(0xAA): 5}


class TestEvent:
    """An event is an immutable named tuple of five fields."""

    FIELDS = ("address", "name", "payload", "block_number", "log_index")

    def test_fields_and_keyword_construction(self):
        chain = Chain()
        chain.register_contract(0xC0, SlotWriter())
        chain.submit_tx(0x1, 0xC0, call=("set_slot", {"slot": 1, "value": 5}))
        chain.mine_block()
        (event,) = chain.events
        assert Event._fields == self.FIELDS
        built = Event(address=0xC0, name="SlotSet", payload=(1).to_bytes(4, "big"),
                      block_number=0, log_index=0)
        assert event == built and hash(event) == hash(built)
        assert tuple(getattr(event, field) for field in self.FIELDS) == tuple(built)

    def test_immutable(self):
        event = Event(address=1, name="A", payload=b"", block_number=0, log_index=0)
        for field in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(event, field, 2)
        assert event == Event(1, "A", b"", 0, 0)

    def test_equal_iff_every_field_is(self):
        base = dict(address=1, name="A", payload=b"x", block_number=3, log_index=0)
        event = Event(**base)
        assert event == Event(**base)
        for field, other in zip(self.FIELDS, (2, "B", b"y", 4, 1)):
            assert event != Event(**{**base, field: other})

    def test_reverted_tx_leaves_no_event(self):
        chain = Chain()
        chain.register_contract(0xC0, Reverter())
        chain.register_contract(0xC1, SlotWriter())
        reverted = chain.submit_tx(0x1, 0xC0, call=("boom", {"slot": 3}))
        assert not reverted.status and reverted.events == ()
        # the reverted event took no log index
        kept = chain.submit_tx(0x1, 0xC1, call=("set_slot", {"slot": 2, "value": 1}))
        assert [event.log_index for event in kept.events] == [0]
        chain.mine_block()
        assert [event.name for event in chain.events] == ["SlotSet"]


class TestBlockHash:
    @staticmethod
    def _three_empty_blocks() -> tuple[int, list[bytes]]:
        chain = Chain()
        with hashing.counting() as count:
            blocks = [chain.mine_block() for _ in range(3)]
            hashes = [block.hash for block in blocks]
        return count.perms, hashes

    def test_empty_tx_blob_hashed_once_per_run_memo(self):
        # each block hashes its header; outside a run memo each also hashes
        # the empty tx blob, inside one only the first block does
        plain, plain_hashes = self._three_empty_blocks()
        with hashing.run_memo():
            memo, memo_hashes = self._three_empty_blocks()
        assert (plain, memo) == (6, 4)
        assert memo_hashes == plain_hashes


class TestValue:
    """Value moves from sender to recipient with the transaction. The transfer,
    the insufficient-balance revert and the revert after a transfer are
    controls that held before encodable ranges were checked."""

    @pytest.mark.parametrize(
        "sender, to, value",
        [(1, 2, -5), (1, 2, 2**256), (-1, 2, 0), (2**160, 2, 0), (1, 2**160, 0), (1, -2, 1)],
        ids=["value-negative", "value-2^256", "sender-negative", "sender-2^160", "to-2^160",
             "to-negative"],
    )
    def test_tx_no_block_can_encode_is_refused(self, sender, to, value):
        chain = Chain()
        chain.fund(1, 2**257)
        before = chain.dump_state()
        with pytest.raises(ValueError, match="no block can encode"):
            chain.submit_tx(sender, to, value=value)
        assert chain.dump_state() == before
        assert chain.mine_block().txs == ()

    def test_value_transfer(self):
        chain = Chain()
        chain.fund(0x1, 10)
        receipt = chain.submit_tx(0x1, 0x2, value=4)
        assert receipt.status and receipt.gas_used == TX_BASE_GAS
        assert (chain.balance(0x1), chain.balance(0x2)) == (6, 4)
        assert chain.mine_block().txs[0].value == 4

    def test_insufficient_balance_reverts_and_charges_calldata(self):
        chain = Chain()
        chain.fund(0x1, 3)
        receipt = chain.submit_tx(0x1, 0x2, calldata=b"\x01\x00", value=4)
        assert not receipt.status
        assert receipt.error == "insufficient sender balance"
        assert receipt.gas_used == TX_BASE_GAS + calldata_gas(b"\x01\x00")
        assert (chain.balance(0x1), chain.balance(0x2)) == (3, 0)

    def test_handler_raising_after_a_transfer_restores_both_balances(self):
        chain = Chain()
        chain.register_contract(0xC0, Reverter())
        chain.fund(0x1, 10)
        before = chain.dump_state()
        receipt = chain.submit_tx(0x1, 0xC0, value=7, call=("boom", {"slot": 3}))
        assert not receipt.status and receipt.error == "handler failure"
        assert (chain.balance(0x1), chain.balance(0xC0)) == (10, 0)
        assert chain.dump_state() == before


class TestAttributes:
    def test_projection(self):
        chain = Chain()
        block = chain.mine_block()
        attrs = l1_attributes(block, 0)
        assert (attrs.number, attrs.timestamp, attrs.basefee, attrs.hash) == (
            block.number,
            block.timestamp,
            block.basefee,
            block.hash,
        )

    def test_sequence_numbers(self):
        chain = Chain()
        block = chain.mine_block()
        assert l1_attributes(block, 0).sequence_number == 0
        assert l1_attributes(block, 2).sequence_number == 2

