import pytest

from rollsim.hashing import keccak256
from rollsim.l1sim import Chain
from rollsim.oprollup.deposits import (
    ALIAS_OFFSET,
    DepositedTx,
    GuaranteedGasExhausted,
    GUARANTEED_GAS_CAP,
    OptimismPortal,
    PortalError,
    apply_l1_to_l2_alias,
    deposit_from_event,
    source_hash,
)
from rollsim.oprollup.l2 import OpL2State, apply_deposit


def make_portal():
    chain = Chain()
    return chain, OptimismPortal(chain)


class TestAliasing:
    def test_contract_caller_aliased(self):
        assert apply_l1_to_l2_alias(0x1) == 0x1111000000000000000000000000000000001112

    def test_alias_wraps_mod_160_bits(self):
        top = (1 << 160) - 1
        assert apply_l1_to_l2_alias(top) == (top + ALIAS_OFFSET) % (1 << 160)

    def test_eoa_caller_unchanged(self):
        chain, portal = make_portal()
        event, _ = portal.deposit_transaction(
            caller=0xABC, caller_is_contract=False, to=0xDEF, value=0,
            gas_limit=50_000, is_creation=False, data=b"", l2_basefee=1, l1_basefee=1,
        )
        deposit = deposit_from_event(event, b"\x11" * 32)
        assert deposit.from_address == 0xABC

    def test_contract_caller_event_carries_alias(self):
        chain, portal = make_portal()
        event, _ = portal.deposit_transaction(
            caller=0x1, caller_is_contract=True, to=0xDEF, value=0,
            gas_limit=50_000, is_creation=False, data=b"", l2_basefee=1, l1_basefee=1,
        )
        deposit = deposit_from_event(event, b"\x11" * 32)
        assert deposit.from_address == 0x1111000000000000000000000000000000001112


class TestSourceHash:
    def test_deterministic(self):
        h = b"\xaa" * 32
        assert source_hash(h, 0) == source_hash(h, 0)

    def test_distinct_log_indices(self):
        h = b"\xaa" * 32
        assert source_hash(h, 0) != source_hash(h, 1)

    def test_distinct_blocks(self):
        assert source_hash(b"\xaa" * 32, 0) != source_hash(b"\xbb" * 32, 0)

    def test_three_field_recipe(self):
        h = b"\xcc" * 32
        expected = keccak256(bytes(32) + keccak256(h) + (5).to_bytes(32, "big"))
        assert source_hash(keccak256(h), 5) == expected


class TestDepositTransaction:
    def test_creation_must_target_zero(self):
        chain, portal = make_portal()
        with pytest.raises(PortalError, match=r"must send to address\(0\)"):
            portal.deposit_transaction(
                caller=0x1, caller_is_contract=False, to=0x2, value=0,
                gas_limit=1, is_creation=True, data=b"", l2_basefee=1, l1_basefee=1,
            )

    def test_burn_is_gas_limit_minus_call_gas_at_equal_basefees(self):
        chain, portal = make_portal()
        _, burned = portal.deposit_transaction(
            caller=0x1, caller_is_contract=False, to=0x2, value=0,
            gas_limit=100_000, is_creation=False, data=b"",
            l2_basefee=7, l1_basefee=7,
        )
        assert burned == 100_000 - 21_000

    def test_burn_floors_at_zero(self):
        chain, portal = make_portal()
        _, burned = portal.deposit_transaction(
            caller=0x1, caller_is_contract=False, to=0x2, value=0,
            gas_limit=10_000, is_creation=False, data=b"",
            l2_basefee=1, l1_basefee=1,
        )
        assert burned == 0

    def test_burn_scales_with_basefee_ratio(self):
        chain, portal = make_portal()
        _, burned = portal.deposit_transaction(
            caller=0x1, caller_is_contract=False, to=0x2, value=0,
            gas_limit=100_000, is_creation=False, data=b"",
            l2_basefee=2, l1_basefee=4,
        )
        assert burned == 100_000 * 2 // 4 - 21_000

    def test_guaranteed_gas_cap_per_block(self):
        chain, portal = make_portal()
        portal.deposit_transaction(
            caller=0x1, caller_is_contract=False, to=0x2, value=0,
            gas_limit=GUARANTEED_GAS_CAP, is_creation=False, data=b"",
            l2_basefee=1, l1_basefee=1,
        )
        with pytest.raises(GuaranteedGasExhausted):
            portal.deposit_transaction(
                caller=0x1, caller_is_contract=False, to=0x2, value=0,
                gas_limit=1, is_creation=False, data=b"",
                l2_basefee=1, l1_basefee=1,
            )
        chain.mine_block()  # cap is per L1 block
        portal.deposit_transaction(
            caller=0x1, caller_is_contract=False, to=0x2, value=0,
            gas_limit=1_000_000, is_creation=False, data=b"",
            l2_basefee=1, l1_basefee=1,
        )
        assert portal.guaranteed_gas_in_block(1) == 1_000_000

    def test_cap_never_exceeded_under_load(self):
        chain, portal = make_portal()
        for _ in range(10):
            try:
                portal.deposit_transaction(
                    caller=0x1, caller_is_contract=False, to=0x2, value=0,
                    gas_limit=1_000_000, is_creation=False, data=b"",
                    l2_basefee=1, l1_basefee=1,
                )
            except GuaranteedGasExhausted:
                pass
        assert portal.guaranteed_gas_in_block(0) <= GUARANTEED_GAS_CAP


class TestDepositEncoding:
    def test_encode_has_type_prefix(self):
        d = DepositedTx(
            source_hash=b"\x01" * 32, from_address=0xA, to_address=0xB,
            mint=5, value=3, data=b"\xde\xad", gas_limit=21_000,
        )
        blob = d.encode()
        assert blob[0] == 0x7E
        assert DepositedTx.decode(blob) == d

    def test_decode_rejects_other_types(self):
        with pytest.raises(ValueError):
            DepositedTx.decode(b"\x02\x00")


class TestApplyDeposit:
    def deposit(self, **kwargs):
        defaults = dict(
            source_hash=b"\x00" * 32, from_address=0xA, to_address=0xB,
            mint=0, value=0, data=b"", gas_limit=21_000,
        )
        defaults.update(kwargs)
        return DepositedTx(**defaults)

    def test_mint_credits_sender(self):
        state = OpL2State()
        apply_deposit(state, self.deposit(mint=5))
        assert state.balance(0xA) == 5

    def test_nonce_always_increments(self):
        state = OpL2State()
        apply_deposit(state, self.deposit())
        apply_deposit(state, self.deposit())
        assert state.nonces[0xA] == 2
        assert state.balance(0xA) == 0

    def test_mint_and_transfer(self):
        state = OpL2State()
        apply_deposit(state, self.deposit(mint=5, value=5))
        assert state.balance(0xB) == 5
        assert state.balance(0xA) == 0

    def test_failed_inner_transfer_still_consumes(self):
        state = OpL2State()
        apply_deposit(state, self.deposit(mint=1, value=10))
        assert state.balance(0xA) == 1  # transfer failed, mint stands
        assert state.balance(0xB) == 0
        assert state.nonces[0xA] == 1
