import pytest

from rollsim import hashing
from rollsim.l1sim import Chain
from rollsim.validityrollup.messaging import (
    EmptyName,
    InvalidMessageToConsume,
    L2ToL1Message,
    NoHandler,
    StarkNetCore,
    ValidityL2State,
    dispatch_l1_handler,
    l2_to_l1_message_hash,
    selector_from_name,
    send_message_to_l1,
    starkgate_withdraw_payload,
)

L1_BRIDGE = 0xD1
L2_BRIDGE = 0x22


class TestSelector:
    def test_deterministic(self):
        assert selector_from_name("deposit") == selector_from_name("deposit")

    def test_distinct_names(self):
        assert selector_from_name("deposit") != selector_from_name("withdraw")

    def test_fits_field(self):
        for name in ("deposit", "withdraw", "transfer", "a" * 100):
            assert selector_from_name(name) < 2**250

    def test_empty_name(self):
        with pytest.raises(EmptyName):
            selector_from_name("")
        with pytest.raises(EmptyName):
            selector_from_name("dépôt")


def make_core():
    chain = Chain()
    return chain, StarkNetCore(chain)


class TestL1ToL2:
    def test_identical_sends_get_distinct_hashes(self):
        chain, core = make_core()
        sel = selector_from_name("deposit")
        h1, _ = core.send_message_to_l2(L1_BRIDGE, L2_BRIDGE, sel, (1, 2), fee=5)
        h2, _ = core.send_message_to_l2(L1_BRIDGE, L2_BRIDGE, sel, (1, 2), fee=5)
        assert h1 != h2  # nonce differs
        assert core.l1_to_l2_counters[h1] == 1
        assert core.l1_to_l2_counters[h2] == 1

    def test_unsent_message_counter_zero(self):
        chain, core = make_core()
        assert core.l1_to_l2_counters.get(b"\x00" * 32, 0) == 0

    def test_event_carries_fee(self):
        chain, core = make_core()
        sel = selector_from_name("deposit")
        msg_hash, _ = core.send_message_to_l2(L1_BRIDGE, L2_BRIDGE, sel, (3,), fee=777)
        chain.mine_block()
        event = chain.events_in_block(0)[0]
        assert event.name == "LogMessageToL2"
        assert event.payload[:32] == msg_hash
        assert int.from_bytes(event.payload[32:], "big") == 777

    def test_negative_fee_rejected(self):
        chain, core = make_core()
        with pytest.raises(ValueError):
            core.send_message_to_l2(L1_BRIDGE, L2_BRIDGE, 1, (), fee=-1)

    @pytest.mark.parametrize("payload, fee, error", [
        ((1, 2), 1 << 256, ValueError),  # the fee does not fit the event's word
        ((1, 1 << 256), 5, OverflowError),  # a payload word does not fit its word
        ((-1, 2), 5, OverflowError),
    ], ids=["fee_too_large", "word_too_large", "word_negative"])
    def test_refused_send_leaves_no_trace(self, payload, fee, error):
        chain, core = make_core()
        core.send_message_to_l2(L1_BRIDGE, L2_BRIDGE, 1, (3,), fee=4)
        before = (core.message_nonce, dict(core.l1_to_l2_counters), dict(core.fee_escrow))
        with pytest.raises(error):
            core.send_message_to_l2(L1_BRIDGE, L2_BRIDGE, 1, payload, fee=fee)
        assert (core.message_nonce, core.l1_to_l2_counters, core.fee_escrow) == before
        chain.mine_block()
        assert len(chain.events_in_block(0)) == 1


class TestHandlerDispatch:
    def setup_method(self):
        self.l2 = ValidityL2State()
        self.chain, self.core = make_core()

        def deposit_handler(from_address, user, amount):
            assert from_address == L1_BRIDGE, "deposit from unexpected L1 contract"
            balance = self.l2.storage_read(L2_BRIDGE, user)
            self.l2.storage_write(L2_BRIDGE, user, balance + amount)

        self.selector = self.l2.register_handler(L2_BRIDGE, "deposit", deposit_handler)

    def send(self, from_address, user, amount):
        _, message = self.core.send_message_to_l2(
            caller=from_address, to_address=L2_BRIDGE,
            selector=self.selector, payload=(user, amount),
        )
        return message

    def test_deposit_credits_balance(self):
        dispatch_l1_handler(self.l2, self.send(L1_BRIDGE, 0x77, 100))
        assert self.l2.storage_read(L2_BRIDGE, 0x77) == 100

    def test_two_deposits_accumulate(self):
        dispatch_l1_handler(self.l2, self.send(L1_BRIDGE, 0x77, 40))
        dispatch_l1_handler(self.l2, self.send(L1_BRIDGE, 0x77, 60))
        assert self.l2.storage_read(L2_BRIDGE, 0x77) == 100

    def test_wrong_l1_sender_rejected(self):
        with pytest.raises(AssertionError):
            dispatch_l1_handler(self.l2, self.send(0xBAD, 0x77, 100))
        assert self.l2.storage_read(L2_BRIDGE, 0x77) == 0

    def test_unknown_selector(self):
        message = self.send(L1_BRIDGE, 0x77, 1)
        object.__setattr__(message, "selector", selector_from_name("nope"))
        with pytest.raises(NoHandler):
            dispatch_l1_handler(self.l2, message)

    def test_consumed_inbox_records_dispatches(self, monkeypatch):
        message = self.send(L1_BRIDGE, 0x77, 100)
        # dispatch reuses the digest L1 computed at send
        monkeypatch.setattr(hashing, "_keccak_f", lambda s: pytest.fail("message rehashed"))
        dispatch_l1_handler(self.l2, message)
        assert self.l2.consumed_inbox == [message.hash]


class TestL2ToL1:
    def test_consume_before_settlement_fails(self):
        chain, core = make_core()
        payload = tuple(starkgate_withdraw_payload(0xEE, 500))
        # the L2 sent it, but no proof has landed: counter still zero
        l2 = ValidityL2State()
        send_message_to_l1(l2, L2ToL1Message(L2_BRIDGE, L1_BRIDGE, payload))
        with pytest.raises(InvalidMessageToConsume, match="INVALID_MESSAGE_TO_CONSUME"):
            core.consume_message_from_l2(L2_BRIDGE, payload, caller=L1_BRIDGE)

    def test_consume_after_settlement_then_replay_fails(self):
        chain, core = make_core()
        payload = (1, 2, 3)
        msg_hash = l2_to_l1_message_hash(L2_BRIDGE, L1_BRIDGE, payload)
        core.l2_to_l1_counters[msg_hash] = 1  # as settlement would
        assert core.consume_message_from_l2(L2_BRIDGE, payload, caller=L1_BRIDGE) == msg_hash
        with pytest.raises(InvalidMessageToConsume):
            core.consume_message_from_l2(L2_BRIDGE, payload, caller=L1_BRIDGE)

    def test_counter_never_negative(self):
        chain, core = make_core()
        payload = (9,)
        msg_hash = l2_to_l1_message_hash(L2_BRIDGE, L1_BRIDGE, payload)
        core.l2_to_l1_counters[msg_hash] = 2
        core.consume_message_from_l2(L2_BRIDGE, payload, caller=L1_BRIDGE)
        core.consume_message_from_l2(L2_BRIDGE, payload, caller=L1_BRIDGE)
        with pytest.raises(InvalidMessageToConsume):
            core.consume_message_from_l2(L2_BRIDGE, payload, caller=L1_BRIDGE)
        assert core.l2_to_l1_counters[msg_hash] == 0

    def test_starkgate_payload_shape(self):
        amount = (7 << 128) + 9
        payload = starkgate_withdraw_payload(0xEE, amount)
        assert payload == [0, 0xEE, 9, 7]

    def test_message_hash_is_the_l2_to_l1_message_hash(self):
        payload = tuple(starkgate_withdraw_payload(0xEE, 500))
        message = L2ToL1Message(L2_BRIDGE, L1_BRIDGE, payload)
        assert message.hash == l2_to_l1_message_hash(L2_BRIDGE, L1_BRIDGE, payload)

    def test_send_queues_the_message_and_returns_its_hash(self):
        l2 = ValidityL2State()
        message = L2ToL1Message(L2_BRIDGE, L1_BRIDGE, (1, 2, 3))
        msg_hash = send_message_to_l1(l2, message)
        assert l2.outbox == [L2ToL1Message(L2_BRIDGE, L1_BRIDGE, (1, 2, 3))]
        assert l2.outbox[0] is message and msg_hash == message.hash

    @pytest.mark.parametrize("word", [1 << 256, -1], ids=["word_too_large", "word_negative"])
    def test_refused_send_queues_nothing(self, word):
        l2 = ValidityL2State()
        with pytest.raises(OverflowError):
            send_message_to_l1(l2, L2ToL1Message(L2_BRIDGE, L1_BRIDGE, (word,)))
        assert l2.outbox == []

    @pytest.mark.parametrize("word", [1 << 256, -1], ids=["word_too_large", "word_negative"])
    def test_consume_refuses_a_word_no_message_holds(self, word):
        chain, core = make_core()
        core.l2_to_l1_counters[l2_to_l1_message_hash(L2_BRIDGE, L1_BRIDGE, (1,))] = 1
        before = (dict(core.l1_to_l2_counters), dict(core.l2_to_l1_counters))
        with pytest.raises(InvalidMessageToConsume):
            core.consume_message_from_l2(L2_BRIDGE, (word,), caller=L1_BRIDGE)
        assert (core.l1_to_l2_counters, core.l2_to_l1_counters) == before

    def test_hash_binds_consumer(self):
        payload = (1,)
        assert l2_to_l1_message_hash(L2_BRIDGE, 0xD1, payload) != l2_to_l1_message_hash(
            L2_BRIDGE, 0xD2, payload
        )
